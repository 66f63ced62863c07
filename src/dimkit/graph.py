"""Undirected graph kernel: bit-row adjacency, text IO, BFS layers, centers.

Vertices are dense ints 0..n-1.  Adjacency is one Python int per vertex
(bit i set iff i is a neighbor), which makes neighborhood algebra cheap:
intersection is ``&``, spread is ``|``, popcount is ``int.bit_count``.
Edges are normalized (u, v) tuples with u < v.

No mask is complemented on the solve path, and only a walk that must run
in id order negates one: ``-x`` and ``~y`` copy an n-bit int, and
CPython's ``&`` then works on two's complement digits, so ``x & -x`` and
``x & ~y`` cost about 4x a plain ``&`` or ``|`` at n = 2,000 (Python
3.11).  A subset y of x is dropped as ``x ^ x & y``, or ``x ^ y`` when y
lies in x; a walk whose order fixes no output takes the top bit,
``v = x.bit_length() - 1; x ^= 1 << v``, and a walk in id order takes the
low bit with ``x & -x``.  Those hand walks are kept for narrow masks and
for walks that may stop early; a pass over a whole component or another
wide mask lists its ids once with `members`, which reads a dense mask's
binary text at C speed.

A row is as long as its highest neighbour id, so the rows cost up to
n**2 / 8 bytes, and about n**2 / 16 even on a sparse graph whose ids are in
no special order (n**2 / 15 measured at n = 16,384 with m = 1.25 n).  The
text parser therefore refuses headers with more than MAX_VERTICES vertices
(up to 512 MB of rows at the cap) before it allocates anything.  Centre
selection holds two more ints of up to n bits per vertex of its scope,
about |scope| * n / 4 bytes while it runs.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

Edge = tuple[int, int]

MAX_VERTICES = 65_536


class GraphFormatError(ValueError):
    """Malformed graph text.  Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


def bits(mask: int) -> Iterator[int]:
    """Yield set bit indexes of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# maps a mask's binary digits to the bytes 0 and 1, selectors for `compress`
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def members(mask: int) -> list[int]:
    """The set bit indexes of mask, ascending.

    A mask of at least 64 bits with at least one set bit per 16 positions
    is read off its binary text, whose bytes select from the ids at C
    speed: 60 us against 270 us for the bit walk on a full 2,000-bit mask
    (Python 3.11, 2-core shared host).  That pass costs O(width) whatever
    the count, so a narrower or sparser mask is walked top bit first, one
    step per id: a three-vertex component at n = 65,536 is not charged
    for the other ids."""
    width = mask.bit_length()
    if width >= 64 and mask.bit_count() << 4 >= width:
        return list(compress(range(width), bin(mask)[:1:-1].encode().translate(_DIGITS)))
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


class Graph:
    """Immutable undirected graph over vertices 0..n-1."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = list(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        deg_total = 0
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} mentions vertices >= n")
            if row & (1 << v):
                raise ValueError(f"self-loop at {v}")
            for u in members(row):
                if not rows[u] & (1 << v):
                    raise ValueError(f"asymmetric edge ({v},{u})")
            deg_total += row.bit_count()
        self.n = n
        self.rows = tuple(rows)
        self.m = deg_total // 2

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    # -- adjacency queries ------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        return members(self.rows[v])

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] & (1 << v))

    def edges(self) -> list[Edge]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1)
            for off in members(row):
                out.append((v, v + 1 + off))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- text format ----------------------------------------------------------
#
#   # optional comment / blank lines anywhere
#   n m
#   u v          (m lines, 0 <= u < v < n, single space, ascending not required)


def parse_graph(text: str) -> Graph:
    header: tuple[int, int] | None = None
    rows: list[int] = []
    seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(lineno, f"expected 'n m' header, got {line!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(lineno, f"non-integer header {line!r}") from None
            if n < 0 or m < 0:
                raise GraphFormatError(lineno, "negative counts in header")
            if n > MAX_VERTICES:
                raise GraphFormatError(lineno, f"{n} vertices exceed the limit of {MAX_VERTICES}")
            header = (n, m)
            rows = [0] * n
            continue
        n, m = header
        if len(parts) != 2:
            raise GraphFormatError(lineno, f"expected 'u v' edge line, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(lineno, f"non-integer edge line {line!r}") from None
        if u == v:
            raise GraphFormatError(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(lineno, f"vertex id out of range in ({u},{v})")
        if u > v:
            u, v = v, u
        if rows[u] & (1 << v):
            raise GraphFormatError(lineno, f"duplicate edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        seen += 1
    if header is None:
        raise GraphFormatError(1, "empty input, missing 'n m' header")
    if seen != header[1]:
        raise GraphFormatError(lineno if text else 1, f"header promised {header[1]} edges, found {seen}")
    return Graph(header[0], rows)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_graph(g))


# -- traversal ------------------------------------------------------------


def bfs_layers(g: Graph, seed: int, scope: int) -> Iterator[int]:
    """Yield the BFS layer masks at distance 1, 2, ... from the seed mask,
    restricted to `scope`; the seed itself is not yielded."""
    rows = g.rows
    visited = seed
    frontier = seed
    while True:
        nxt = 0
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            nxt |= rows[v]
        nxt &= scope
        nxt ^= nxt & visited
        if not nxt:
            return
        yield nxt
        visited |= nxt
        frontier = nxt


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component masks of the induced subgraph, ordered by smallest member."""
    scope = g.full_mask() if within is None else within
    comps = []
    rest = scope
    while rest:
        comp = rest & -rest
        for layer in bfs_layers(g, comp, scope):
            comp |= layer
        comps.append(comp)
        rest ^= comp
    return comps


def degree_classes(g: Graph, verts: list[int], within: int | None = None) -> list[int]:
    """Entry d masks the vertices of the id list `verts` (`members`) with d
    neighbours in `within`, up to the top degree.  With `within` None
    whole rows are counted: the induced degree when `verts` lists a union
    of components."""
    rows = g.rows
    by_degree = [0] * ((len(verts) if within is None else within.bit_count()) + 1)
    for v in verts:
        row = rows[v]
        by_degree[(row if within is None else row & within).bit_count()] |= 1 << v
    while by_degree and not by_degree[-1]:
        by_degree.pop()
    return by_degree


def central_vertex(g: Graph, within: int | None = None) -> int:
    """Vertex of minimum eccentricity, smallest id on ties.

    Raises ValueError when the (induced) graph is disconnected or empty.
    Grows every vertex's BFS ball in the same round: the new ball of v is
    its old ball OR'd with the old balls of its neighbours in scope, so
    after round r each ball holds the vertices within distance r.  The
    first round in which some ball covers the scope is the radius, and its
    smallest such vertex is the answer; a ball that stops growing short of
    the scope means the scope is disconnected.  That costs radius *
    (|scope| + m) big-int ORs.  The two ball lists hold one int of up to n
    bits per vertex of the scope, about |scope| * n / 4 bytes at peak.
    """
    scope = g.full_mask() if within is None else within
    if not scope:
        raise ValueError("empty scope has no central vertex")
    verts = members(scope)
    nbrs: list[list[int]] = [[]] * g.n
    ball = [0] * g.n
    for v in verts:
        nbrs[v] = members(g.rows[v] & scope)
        ball[v] = 1 << v
    grown = ball[:]
    first = verts[0]
    while True:
        for v in verts:
            if ball[v] == scope:
                return v
        for v in verts:
            b = ball[v]
            for u in nbrs[v]:
                b |= ball[u]
            grown[v] = b
        # in a connected scope a ball short of the scope always grows
        if grown[first] == ball[first]:
            raise ValueError("graph is disconnected within scope")
        ball, grown = grown, ball
