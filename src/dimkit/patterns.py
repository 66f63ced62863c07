"""Induced-subgraph detectors.

A graph with a dominating induced matching cannot contain K4, so the
solver refutes every component holding one (`find_k4`).  Two other small
patterns pin matching edges outright: in an induced diamond (K4 minus an
edge) the edge joining the two degree-3 vertices must be in the matching;
in an induced butterfly (two triangles sharing one vertex) both non-center
edges must be.  The solver does not force those edges (its search reaches the
same verdicts); `dimkit check` counts the patterns and the random
generator's filters reject graphs holding them.  The P9 scan lives here
too: a short direct DFS over the graph, then the same DFS on its twin
quotient.  Detection works on bit-rows; everything is deterministic,
ascending-id order.
"""

from __future__ import annotations

from math import inf
from typing import Iterator, NamedTuple

from .graph import Edge, Graph, bits, members

# the random generator's filters, one per detector here; `dimkit gen random
# --filter` takes them as its choices without importing the generator
RANDOM_FILTERS = ("k4_free", "diamond_butterfly_free", "p9_free")


class PatternHit(NamedTuple):
    kind: str  # "K4" | "diamond" | "butterfly"
    vertices: tuple[int, ...]
    forced_edges: tuple[Edge, ...]


class ScanBudget(Exception):
    """Raised when a bounded enumeration runs out of steps."""


def find_k4(g: Graph, within: int | None = None) -> PatternHit | None:
    """Lexicographically first K4 (inside `within` if given), or None."""
    rows = g.rows
    rest = (1 << g.n) - 1 if within is None else within
    while rest:  # walked upward by hand, so rest is the scope above a
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        row_a = rows[a] & rest  # neighbors above a
        if row_a.bit_count() < 3:  # a cannot be the lowest vertex of a K4
            continue
        above_b = row_a
        while above_b:  # walked upward by hand, so above_b is row_a above b
            low = above_b & -above_b
            above_b ^= low
            b = low.bit_length() - 1
            common = above_b & rows[b]  # common neighbours of a and b above b
            if not common & common - 1:  # a K4 with lowest pair (a, b) needs two
                continue
            for c in bits(common):
                for d in bits(common & rows[c] >> (c + 1) << (c + 1)):
                    return PatternHit("K4", (a, b, c, d), ())
    return None


def iter_diamonds(g: Graph) -> Iterator[PatternHit]:
    """All induced diamonds; forced edge = the one joining both degree-3
    vertices.  Emitted per (mid-edge, wing pair)."""
    for u in range(g.n):
        for v in bits(g.rows[u] >> (u + 1) << (u + 1)):
            wings = g.rows[u] & g.rows[v]  # no row holds its own vertex
            for a in bits(wings):
                for b in bits(wings >> (a + 1) << (a + 1)):
                    if not g.has_edge(a, b):
                        yield PatternHit("diamond", (u, v, a, b), ((u, v),))


def iter_butterflies(g: Graph) -> Iterator[PatternHit]:
    """All induced butterflies; forced edges = the two non-center edges."""
    for c in range(g.n):
        row = g.rows[c]
        tri = []  # edges inside N(c)
        for a in bits(row):
            for b in bits(row & g.rows[a] >> (a + 1) << (a + 1)):
                tri.append((a, b))
        for i, (a, b) in enumerate(tri):
            for d, e in tri[i + 1:]:
                if d in (a, b) or e in (a, b):
                    continue
                cross = (
                    g.has_edge(a, d) or g.has_edge(a, e)
                    or g.has_edge(b, d) or g.has_edge(b, e)
                )
                if not cross:
                    yield PatternHit("butterfly", (c, a, b, d, e), ((a, b), (d, e)))


def find_induced_path(
    g: Graph, k: int, node_limit: int | None = None, within: int | None = None
) -> tuple[int, ...] | None:
    """First induced path on k vertices (inside `within` if given) found by
    DFS, or None.

    The DFS grows paths from ascending start vertices and tries each next
    vertex in ascending id order.  Its frames live in three lists of
    length k, made once per call and indexed by depth d: path[d], the
    untried candidates for it, and the vertices still free beyond them (in
    scope, off the path and not adjacent to it, so a new tip touches only
    the current tip).  Start vertex s takes path[0] and writes depth 1,
    its neighbours; taking a vertex at depth d writes depth d + 1, and an
    empty candidate mask steps back one depth.  So every vertex after s is
    taken at one point, where it costs one step; node_limit bounds the
    steps and raises ScanBudget when exhausted.  A scope with fewer than k
    vertices is answered without a step.  A scope that is a proper subset
    of g's vertices is relabelled 0..q-1 in ascending order, so a row is a
    q-bit mask however large g is, and the path is mapped back.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    full = g.full_mask()
    scope = full if within is None else within
    if scope.bit_count() < k:
        return None
    if k == 1:
        return (next(bits(scope)),)
    if scope == full:
        rows, label = g.rows, range(g.n)
    else:
        label = members(within)
        bit = {v: 1 << i for i, v in enumerate(label)}
        rows = []
        for v in label:
            nbrs, row = g.rows[v] & within, 0
            while nbrs:  # top bit first: a row is a set, so order fixes nothing
                u = nbrs.bit_length() - 1
                nbrs ^= 1 << u
                row |= bit[u]
            rows.append(row)
        scope = (1 << len(label)) - 1
    limit = inf if node_limit is None else node_limit
    steps = 0
    last = k - 1
    path, cands, frees = [0] * k, [0] * k, [0] * k
    for s in range(len(label)):
        path[0] = s
        cands[1] = rows[s]
        frees[1] = scope ^ scope & (rows[s] | 1 << s)
        d = 1
        while d:
            cand = cands[d]
            if not cand:
                d -= 1
                continue
            low = cand & -cand
            cands[d] = cand ^ low
            w = low.bit_length() - 1
            steps += 1
            if steps > limit:
                raise ScanBudget
            path[d] = w
            if d == last:
                return tuple(label[v] for v in path)
            later = frees[d]
            row = rows[w]
            d += 1
            cands[d] = row & later
            frees[d] = later ^ later & row
    return None


TWIN_ROUNDS = 5


def _lowest_twins(verts, rows) -> set[int]:
    """The lowest id of each twin class among verts, whose rows are
    `rows` (masked to verts).  The closed rows, a copy of every row, are
    freed on return, before the next round builds its own."""
    closed = [row | 1 << v for v, row in zip(verts, rows)]
    # filled from the highest id down, each dict keeps a row's lowest id;
    # an open row never equals another vertex's closed row
    lowest_open = dict(zip(reversed(rows), reversed(verts)))
    lowest_closed = dict(zip(reversed(closed), reversed(verts)))
    return set(lowest_open.values()) & set(lowest_closed.values())


def twin_quotient(g: Graph) -> int:
    """Mask of the lowest id of each class of true and false twins,
    collapsed again on the survivors until nothing merges (at most
    TWIN_ROUNDS rounds; each round's survivors induce a valid quotient,
    so stopping early only leaves more vertices to scan).

    Only one vertex of a class can lie on an induced path of four or more
    vertices, and any member can stand in for it, so an induced path on
    k >= 4 vertices exists in g iff one exists among the survivors.
    """
    alive = g.full_mask()
    verts = range(g.n)
    rows = g.rows  # round one needs no masking: every row lies inside alive
    for _ in range(TWIN_ROUNDS):
        keep = _lowest_twins(verts, rows)
        if len(keep) == len(verts):
            break
        verts = sorted(keep)
        alive = sum(1 << v for v in verts)
        rows = [g.rows[v] & alive for v in verts]
    return alive


P9_VERIFIED = "verified"
P9_VIOLATED = "violated"
P9_UNCHECKED = "unchecked"
P9_SCAN_LIMIT = 5_000_000


def classify_p9(g: Graph, node_limit: int | None = P9_SCAN_LIMIT) -> tuple[str, tuple[int, ...] | None]:
    """(state, witness) of a scan for an induced nine-vertex path.

    A direct DFS over g gets g.n // 8 steps first: a graph holding a P9
    usually shows one at once.  Only when those run out is the scan redone
    on the twin quotient, an induced subgraph of g, so a witness is an
    induced path of g itself.  With the lowest id kept per class, the
    quotient scan is a sub-run of the DFS over all of g: it finds the same
    first path and never takes more steps, so the short direct scan moves
    no result; it only spares the quotient on graphs that show a P9 early.
    The state is P9_VIOLATED with the path as witness, P9_VERIFIED, or
    P9_UNCHECKED when the quotient scan ran out of its node_limit steps.
    """
    prefix = g.n // 8 if node_limit is None else min(g.n // 8, node_limit)
    try:
        try:
            hit = find_induced_path(g, 9, node_limit=prefix)
        except ScanBudget:
            hit = find_induced_path(g, 9, node_limit=node_limit, within=twin_quotient(g))
    except ScanBudget:
        return P9_UNCHECKED, None
    return (P9_VIOLATED, hit) if hit is not None else (P9_VERIFIED, None)
