import random

import pytest

from dimkit.graph import Graph
from dimkit.patterns import (
    P9_UNCHECKED,
    P9_VERIFIED,
    P9_VIOLATED,
    ScanBudget,
    classify_p9,
    find_induced_path,
    find_k4,
    iter_butterflies,
    iter_diamonds,
    twin_quotient,
)
from conftest import complete_graph, cycle_graph, path_graph
from naive_reference import (
    butterfly_hits_naive,
    diamond_hits_naive,
    induced_path_dfs_reference,
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
    masks = random.Random(4)
    for trial in range(1000):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))

        # the first K4 is the lexicographically least, inside any mask
        naive_k4 = k4_sets_naive(g)
        within = masks.getrandbits(n)
        inside = {s for s in naive_k4 if all(within >> v & 1 for v in s)}
        for scope, sets in ((None, naive_k4), (within, inside)):
            hit = find_k4(g, scope)
            want = min((tuple(sorted(s)) for s in sets), default=None)
            assert (hit and hit.vertices) == want, (trial, g.edges(), scope)

        got_d = {(frozenset(h.vertices), h.forced_edges[0]) for h in iter_diamonds(g)}
        assert got_d == diamond_hits_naive(g), (trial, g.edges())

        got_b = {
            (frozenset(h.vertices), frozenset(h.forced_edges))
            for h in iter_butterflies(g)
        }
        assert got_b == butterfly_hits_naive(g), (trial, g.edges())


def test_find_k4_matches_naive_where_hopeless_pairs_are_dropped():
    # find_k4 skips a pair (a, b) with fewer than two common neighbours
    # above b.  Up to n = 24, twin padding and G(n, p) hold many such pairs
    # before and beside the first K4, which must stay the least one, with
    # and without a mask.
    rng = random.Random(7744)
    for trial in range(160):
        if trial % 2:
            g = random_graph(rng, rng.randint(9, 24), rng.choice((0.2, 0.3, 0.45)))
        else:
            g = twin_padded_graph(rng, rng.randint(6, 12), rng.choice((0.3, 0.45, 0.6)),
                                  rng.randint(2, 12))
        naive = sorted(tuple(sorted(s)) for s in k4_sets_naive(g))
        within = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        for scope in (None, within):
            inside = [q for q in naive if scope is None or all(scope >> v & 1 for v in q)]
            hit = find_k4(g, scope)
            assert (hit and hit.vertices) == (inside[0] if inside else None), (trial, scope, g.edges())


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


def test_path_finder_matches_recursive_reference_step_for_step():
    # The iterative DFS visits paths in the recursive search's order and
    # counts a step at the same points, so both find the same path and
    # ScanBudget fires at the same node_limit, on every kind of scope: none,
    # all of g spelled out, the twin quotient (all of g when g is twin-free)
    # and a random proper subset.  The DFS scans g's own rows for the first
    # two and relabels a proper subset.
    rng = random.Random(3131)
    for trial in range(200):
        if trial % 2:
            g = random_graph(rng, rng.randint(9, 30), rng.choice((0.1, 0.2, 0.3, 0.5)))
        else:
            g = twin_padded_graph(rng, rng.randint(9, 16), rng.choice((0.12, 0.2, 0.3)),
                                  rng.randint(0, 14))
        drop = 1 << rng.randrange(g.n) | rng.getrandbits(g.n) & rng.getrandbits(g.n)
        subset = g.full_mask() ^ drop
        for within in (None, g.full_mask(), twin_quotient(g), subset):
            for k in range(1, 10):
                want, steps = induced_path_dfs_reference(g, k, within)
                where = (trial, k, within, g.edges())
                assert find_induced_path(g, k, within=within) == want, where
                assert find_induced_path(g, k, node_limit=steps, within=within) == want, where
                if steps:
                    with pytest.raises(ScanBudget):
                        find_induced_path(g, k, node_limit=steps - 1, within=within)


# -- the P9 scan on the twin quotient ----------------------------------------


def twin_padded_graph(rng, host_n, p, twins):
    """G(host_n, p) grown by `twins` true or false twins of random vertices
    (added ones included, so twin classes nest), then relabelled at random."""
    rows = [0] * host_n
    for u in range(host_n):
        for v in range(u + 1, host_n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for _ in range(twins):
        v, t = rng.randrange(len(rows)), len(rows)
        row = rows[v] | (1 << v if rng.random() < 0.5 else 0)
        for u in range(t):
            if row >> u & 1:
                rows[u] |= 1 << t
        rows.append(row)
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(len(rows)) for v in range(u) if rows[u] >> v & 1]
    return Graph.from_edges(len(rows), edges)


def is_induced_path(g, path):
    if len(set(path)) != len(path):
        return False
    return all(
        g.has_edge(path[i], path[j]) == (j == i + 1)
        for i in range(len(path)) for j in range(i + 1, len(path))
    )


def direct_p9_scan(g, node_limit):
    try:
        hit = find_induced_path(g, 9, node_limit=node_limit)
    except ScanBudget:
        return P9_UNCHECKED, None
    return (P9_VIOLATED, hit) if hit is not None else (P9_VERIFIED, None)


def test_twin_quotient_keeps_lowest_id_per_class():
    # 0 and 2 are false twins, 3 and 4 true twins; once they collapse, 0
    # and 3 are false twins, and then 0 and 1 true twins: three rounds
    # take this cograph down to vertex 0
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (1, 4), (3, 4)])
    assert twin_quotient(g) == 0b00001
    assert twin_quotient(path_graph(9)) == path_graph(9).full_mask()


def test_quotient_scan_agrees_with_direct_scan_on_twin_padded_graphs():
    # The quotient scan keeps the lowest id of each class, so it is a sub-run
    # of the direct DFS: under the same step budget it decides every graph
    # the direct scan decides, with the same state and the same witness.
    rng = random.Random(4411)
    seen = {P9_VERIFIED: 0, P9_VIOLATED: 0, P9_UNCHECKED: 0}
    for trial in range(400):
        g = twin_padded_graph(rng, rng.randint(10, 16), rng.choice((0.12, 0.18, 0.25)),
                              rng.randint(4, 16))
        limit = rng.choice((100, 1000, 10000))
        direct = direct_p9_scan(g, limit)
        seen[direct[0]] += 1
        got = classify_p9(g, node_limit=limit)
        if direct[0] != P9_UNCHECKED:
            assert got == direct, (trial, limit, g.edges())
        if got[0] == P9_VIOLATED:
            assert is_induced_path(g, got[1]), (trial, got)
    assert all(seen.values()), seen


def test_direct_scan_settles_a_long_path_without_the_quotient(monkeypatch):
    # the direct scan's n // 8 steps find the P9 at the start of a long path
    def no_quotient(g):
        raise AssertionError("twin_quotient called")

    monkeypatch.setattr("dimkit.patterns.twin_quotient", no_quotient)
    assert classify_p9(path_graph(2000)) == (P9_VIOLATED, tuple(range(9)))


def test_quotient_scan_keeps_the_witness_of_a_longer_direct_scan():
    # 0 - 1 - (20 pendant leaves 2..21) and 1 - 22 - 23 - ... - 28: the
    # direct DFS tries every leaf before the path through 22, more than
    # n // 8 steps but fewer than n, so the quotient scan (one leaf left)
    # answers instead, with the same witness
    g = Graph.from_edges(29, [(0, 1), *((1, v) for v in range(2, 23)),
                              *((v, v + 1) for v in range(22, 28))])
    want, steps = induced_path_dfs_reference(g, 9)
    assert g.n // 8 < steps < g.n
    assert classify_p9(g) == (P9_VIOLATED, want) == (P9_VIOLATED, (0, 1, *range(22, 29)))


def test_quotient_scan_settles_long_path_twin_blowup():
    # An induced P8 whose inner vertices 1, 3 and 5 each carry about 95
    # false twins (n = 293): induced P8s through the three classes multiply,
    # and the direct DFS spends its whole 5M-step budget without a verdict.
    # The quotient is the P8 itself.
    edges = [(i, i + 1) for i in range(7)]
    for t in range(8, 293):
        v = (1, 3, 5)[t % 3]
        edges += [(v - 1, t), (v + 1, t)]
    g = Graph.from_edges(293, edges)
    assert twin_quotient(g) == 0xFF
    assert classify_p9(g) == (P9_VERIFIED, None)
