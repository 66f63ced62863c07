"""Induced-subgraph detectors.

A graph with a dominating induced matching cannot contain K4, so the
solver refutes every component holding one (`find_k4`).  Two other small
patterns pin matching edges outright: in an induced diamond (K4 minus an
edge) the edge joining the two degree-3 vertices must be in the matching;
in an induced butterfly (two triangles sharing one vertex) both non-center
edges must be.  The solver does not force those edges (its search reaches the
same verdicts); `dimkit check` counts the patterns and the random
generator's filters reject graphs holding them.  The P9 scan lives here
too; it falls back to the twin quotient.  Detection works on bit-rows;
everything is deterministic, ascending-id order.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import Edge, Graph, bits


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
        for b in bits(row_a):
            common_ab = row_a & rows[b]
            for c in bits(common_ab >> (b + 1) << (b + 1)):
                for d in bits(common_ab & rows[c] >> (c + 1) << (c + 1)):
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

    Extension prunes with bit-rows: a new tip may touch only the current
    tip.  node_limit bounds DFS steps and raises ScanBudget when exhausted;
    a scope with fewer than k vertices is answered without a step.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    scope = g.full_mask() if within is None else within
    if scope.bit_count() < k:
        return None
    if k == 1:
        return (next(bits(scope)),)
    steps = [0]

    def rec(path: list[int], path_mask: int, banned: int) -> tuple[int, ...] | None:
        steps[0] += 1
        if node_limit is not None and steps[0] > node_limit:
            raise ScanBudget
        if len(path) == k:
            return tuple(path)
        tip = path[-1]
        cand = g.rows[tip] & ~banned & ~path_mask & scope
        for w in bits(cand):
            new_banned = banned | g.rows[tip]
            found = rec(path + [w], path_mask | (1 << w), new_banned)
            if found:
                return found
        return None

    for s in bits(scope):
        for t in bits(g.rows[s] & scope):
            found = rec([s, t], (1 << s) | (1 << t), g.rows[s])
            if found:
                return found
    return None


TWIN_ROUNDS = 5


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
    verts = list(range(g.n))
    for _ in range(TWIN_ROUNDS):
        rows = [g.rows[v] & alive for v in verts]
        closed = [row | 1 << v for v, row in zip(verts, rows)]
        # filled from the highest id down, each dict keeps a row's lowest id;
        # an open row never equals another vertex's closed row
        lowest_open = dict(zip(reversed(rows), reversed(verts)))
        lowest_closed = dict(zip(reversed(closed), reversed(verts)))
        keep = set(lowest_open.values()) & set(lowest_closed.values())
        if len(keep) == len(verts):
            break
        verts = sorted(keep)
        alive = sum(1 << v for v in verts)
    return alive


P9_VERIFIED = "verified"
P9_VIOLATED = "violated"
P9_UNCHECKED = "unchecked"
P9_SCAN_LIMIT = 5_000_000


def classify_p9(g: Graph, node_limit: int | None = P9_SCAN_LIMIT) -> tuple[str, tuple[int, ...] | None]:
    """(state, witness) of a scan for an induced nine-vertex path.

    A direct DFS over g gets g.n steps first (most graphs holding a P9
    show one at once); only when that runs out is the scan redone on the
    twin quotient, an induced subgraph of g, so a witness is an induced
    path of g itself.  With the lowest id kept per class, the quotient
    scan is a sub-run of the DFS over all of g: it finds the same first
    path and never takes more steps.  The state is P9_VIOLATED with the
    path as witness, P9_VERIFIED, or P9_UNCHECKED when the scan ran out of
    its node_limit steps.
    """
    prefix = g.n if node_limit is None else min(g.n, node_limit)
    try:
        try:
            hit = find_induced_path(g, 9, node_limit=prefix)
        except ScanBudget:
            hit = find_induced_path(g, 9, node_limit=node_limit, within=twin_quotient(g))
    except ScanBudget:
        return P9_UNCHECKED, None
    return (P9_VIOLATED, hit) if hit is not None else (P9_VERIFIED, None)
