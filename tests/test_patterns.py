import random

import pytest

from dimkit.graph import Graph
from dimkit.patterns import (
    P9_VERIFIED,
    ScanBudget,
    classify_p9,
    find_induced_path,
    find_k4,
    iter_butterflies,
    iter_diamonds,
)
from conftest import complete_graph, cycle_graph, path_graph
from naive_reference import (
    butterfly_hits_naive,
    diamond_hits_naive,
    induced_paths_naive,
    k4_sets_naive,
)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- targeted hits -----------------------------------------------------------


def test_find_k4():
    assert find_k4(path_graph(6)) is None
    hit = find_k4(complete_graph(5))
    assert hit.kind == "K4" and hit.vertices == (0, 1, 2, 3)
    # mask restriction shifts the witness
    hit = find_k4(complete_graph(5), within=0b11110)
    assert hit.vertices == (1, 2, 3, 4)


def test_diamond_hit():
    # mid-edge (0,1), wings 2 and 3
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4)])
    hits = list(iter_diamonds(g))
    assert len(hits) == 1
    assert hits[0].forced_edges == ((0, 1),)
    assert set(hits[0].vertices) == {0, 1, 2, 3}


def test_k4_is_not_a_diamond():
    assert list(iter_diamonds(complete_graph(4))) == []


def test_butterfly_hit():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    hits = list(iter_butterflies(g))
    assert len(hits) == 1
    assert hits[0].vertices[0] == 0
    assert set(hits[0].forced_edges) == {(1, 2), (3, 4)}


def test_wing_cross_edge_kills_butterfly():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 3)])
    assert list(iter_butterflies(g)) == []


def test_scan_aggregates():
    g = Graph.from_edges(9, [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3),          # diamond on 0..3
        (4, 5), (4, 6), (5, 6), (4, 7), (4, 8), (7, 8),  # butterfly at 4
        (3, 4),
    ])
    kinds = sorted(h.kind for h in [*iter_diamonds(g), *iter_butterflies(g)])
    assert kinds == ["butterfly", "diamond"]


def test_find_induced_path():
    assert find_induced_path(path_graph(9), 9) == tuple(range(9))
    assert find_induced_path(cycle_graph(9), 9) is None
    assert find_induced_path(cycle_graph(12), 9) is not None
    assert find_induced_path(complete_graph(6), 3) is None


def test_find_induced_path_budget():
    with pytest.raises(ScanBudget):
        find_induced_path(cycle_graph(9), 9, node_limit=2)


def test_p9_scan_answers_small_graphs_without_a_step():
    # fewer than nine vertices cannot hold a P9, so even a zero step budget
    # settles them; at nine vertices the DFS runs and spends the budget
    k8_minus_pm = Graph.from_edges(8, [
        (u, v) for u in range(8) for v in range(u + 1, 8) if not (u % 2 == 0 and v == u + 1)
    ])
    for g in (k8_minus_pm, path_graph(8), Graph.from_edges(0, [])):
        assert find_induced_path(g, 9, node_limit=0) is None
        assert classify_p9(g, node_limit=0) == (P9_VERIFIED, None)
    with pytest.raises(ScanBudget):
        find_induced_path(path_graph(9), 9, node_limit=0)


# -- differential against subset enumeration ---------------------------------


def test_detectors_match_naive_on_random_graphs():
    rng = random.Random(20240817)
    for trial in range(1000):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))

        hit = find_k4(g)
        naive_k4 = k4_sets_naive(g)
        assert (hit is not None) == bool(naive_k4), (trial, g.edges())
        if hit is not None:
            assert frozenset(hit.vertices) in naive_k4

        got_d = {(frozenset(h.vertices), h.forced_edges[0]) for h in iter_diamonds(g)}
        assert got_d == diamond_hits_naive(g), (trial, g.edges())

        got_b = {
            (frozenset(h.vertices), frozenset(h.forced_edges))
            for h in iter_butterflies(g)
        }
        assert got_b == butterfly_hits_naive(g), (trial, g.edges())


def test_path_finder_matches_naive_on_random_graphs():
    rng = random.Random(998)
    for trial in range(400):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
        for k in (4, 6, n):
            found = find_induced_path(g, k)
            naive = induced_paths_naive(g, k)
            assert (found is not None) == bool(naive), (trial, k, g.edges())
            if found is not None:
                canon = found if found[0] < found[-1] else found[::-1]
                assert canon in naive

