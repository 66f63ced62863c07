import pytest

from dimkit.graph import Graph, bits


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
