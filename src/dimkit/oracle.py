"""Reference verifier and exhaustive search for dominating induced matchings.

Independent of the production solver on purpose: everything here is written
straight from the problem statement (a set of edges M such that every edge
of the graph shares a vertex with exactly one member of M) so the two sides
can be compared differentially.  Only the Graph container is shared;
`verify_dim` reads its bit-rows and nothing of `coloring`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .graph import Edge, Graph, members

Matching = tuple[Edge, ...]


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None


class OracleReport(NamedTuple):
    status: str  # "dim" | "no-dim" | "limit"
    matching: Matching | None
    nodes: int


def verify_dim(g: Graph, matching: Sequence[Edge]) -> VerifyResult:
    """Check that `matching` dominates every edge of g exactly once.

    An edge in the matching that does not exist in g is a caller error and
    raises ValueError; a structural failure returns ok=False with the first
    violating edge (u, w), u < w, in the reason.

    Written from the definition over `g.rows` alone: an edge meets two
    members of a matching when both ends are matched to others, and none
    when both are unmatched.  Rows are checked in id order, and a bad edge
    fails at both ends, so the first failing row u fails only above u.
    """
    partner = [-1] * g.n
    matched = 0
    for e in matching:
        u, v = e
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v or not g.has_edge(u, v):
            raise ValueError(f"matching edge ({u},{v}) is not an edge of the graph")
        if partner[u] == v:
            raise ValueError(f"matching repeats edge ({u},{v})")
        if partner[u] >= 0 or partner[v] >= 0:
            w = u if partner[u] >= 0 else v
            return VerifyResult(False, f"vertex {w} lies in two matching edges")
        matched |= 1 << u | 1 << v
        partner[u], partner[v] = v, u
    unmatched = g.full_mask() ^ matched
    for u, row in enumerate(g.rows):
        p = partner[u]
        bad = row & unmatched if p < 0 else row & matched ^ 1 << p
        if bad:
            w = (bad & -bad).bit_length() - 1
            what = "not dominated" if p < 0 else "dominated twice"
            return VerifyResult(False, f"edge ({u},{w}) {what}")
    return VerifyResult(True, None)


class SearchLimit(Exception):
    """Raised when the exhaustive search exceeds its node budget."""


def _search(g: Graph, node_limit: int | None, counter: list[int]) -> Iterator[Matching]:
    """Yield every dominating induced matching of g, canonically ordered.

    Branches on the lowest undominated edge: its dominator in any solution
    is one of the edges touching it, so trying each candidate covers every
    solution; the deterministic target choice means each solution is
    reached along exactly one path (no duplicates).
    """
    edges = g.edges()
    state = {"in_match": 0}
    chosen: list[Edge] = []

    def candidates(u: int, v: int) -> list[Edge]:
        cands = set()
        for a in (u, v):
            for b in members(g.rows[a]):
                cands.add((a, b) if a < b else (b, a))
        return sorted(cands)

    def compatible(a: int, b: int) -> bool:
        in_match = state["in_match"]
        bit_a, bit_b = 1 << a, 1 << b
        if in_match & (bit_a | bit_b):
            return False
        # a previously matched vertex adjacent to either endpoint would
        # give the connecting edge a second dominator
        if g.rows[a] & in_match or g.rows[b] & in_match:
            return False
        return True

    def rec() -> Iterator[Matching]:
        counter[0] += 1
        if node_limit is not None and counter[0] > node_limit:
            raise SearchLimit
        target = None
        in_match = state["in_match"]
        for u, v in edges:
            if not in_match & ((1 << u) | (1 << v)):
                target = (u, v)
                break
        if target is None:
            yield tuple(sorted(chosen))
            return
        for a, b in candidates(*target):
            if compatible(a, b):
                state["in_match"] |= (1 << a) | (1 << b)
                chosen.append((a, b))
                yield from rec()
                chosen.pop()
                state["in_match"] &= ~((1 << a) | (1 << b))

    yield from rec()


def enumerate_dims(g: Graph, node_limit: int | None = None) -> Iterator[Matching]:
    yield from _search(g, node_limit, [0])


def oracle_dim(g: Graph, node_limit: int | None = None) -> OracleReport:
    """First dominating induced matching in canonical order, or no-dim."""
    counter = [0]
    try:
        for m in _search(g, node_limit, counter):
            return OracleReport("dim", m, counter[0])
    except SearchLimit:
        return OracleReport("limit", None, counter[0])
    return OracleReport("no-dim", None, counter[0])


def count_dims(g: Graph, node_limit: int | None = None) -> int:
    """Number of distinct dominating induced matchings (edgeless graphs
    count the empty one)."""
    count = 0
    for _ in _search(g, node_limit, [0]):
        count += 1
    return count


def all_dims(g: Graph, node_limit: int | None = None) -> list[Matching]:
    return sorted(_search(g, node_limit, [0]))
