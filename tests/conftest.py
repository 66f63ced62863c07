import random

import pytest

from dimkit.graph import Graph, bits
from equivalence import deg3_graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    """Center 0, leaves 1..n-1."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph.from_edges(a.n + b.n, edges)


def cubic_no_dim(i: int, seed: int) -> Graph:
    """A cubic graph with no d.i.m. (ROADMAP item 15): `deg3_graph(i)` with
    two disjoint edges au and bw, drawn by seed, taken out and two new
    vertices x, y joined by the edges ax, ux, by, wy and xy.  In a cubic
    d.i.m. each matched vertex has two unmatched neighbours and each
    unmatched one three matched, so 2|B| = 3|W| and 10 divides n; here
    n = 10k/3 + 2.  No pendants, and twins only by chance."""
    g = deg3_graph(i)
    rng = random.Random(seed)
    edges = g.edges()
    while True:
        (a, u), (b, w) = rng.sample(edges, 2)
        if len({a, u, b, w}) == 4:
            break
    x, y = g.n, g.n + 1
    edges = [e for e in edges if e != (a, u) and e != (b, w)]
    return Graph.from_edges(g.n + 2, edges + [(a, x), (u, x), (b, y), (w, y), (x, y)])


def feasible_black_masks(g: Graph):
    """All vertex subsets that work as the matched set of a d.i.m.:
    the complement is independent and every member has exactly one
    neighbor inside."""
    full = g.full_mask()
    for black in range(1 << g.n):
        white = full & ~black
        if any(g.rows[w] & white for w in bits(white)):
            continue
        if any((g.rows[v] & black).bit_count() != 1 for v in bits(black)):
            continue
        yield black


def matching_of_black_mask(g: Graph, black: int):
    out = []
    for v in bits(black):
        u = next(bits(g.rows[v] & black))
        if v < u:
            out.append((v, u))
    return tuple(out)


@pytest.fixture(scope="session")
def corpus7():
    from dimkit.generator import iter_small_corpus

    return list(iter_small_corpus(7))


@pytest.fixture(scope="session")
def corpus8():
    from dimkit.generator import iter_small_corpus

    return list(iter_small_corpus(8))
