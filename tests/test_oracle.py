import collections
import random

import pytest

from dimkit.driver import SolveConfig, solve
from dimkit.graph import Graph
from dimkit.oracle import all_dims, count_dims, enumerate_dims, oracle_dim, verify_dim
from conftest import complete_graph, cycle_graph, path_graph
from naive_reference import induced_cycle_sets_naive, verify_dim_naive


def test_verify_accepts_opposite_pair_on_c6():
    assert verify_dim(cycle_graph(6), [(0, 1), (3, 4)]).ok


def test_verify_rejects_double_domination():
    res = verify_dim(cycle_graph(6), [(0, 1), (2, 3)])
    assert not res.ok
    assert "(1, 2)" in res.reason or "(1,2)" in res.reason.replace(" ", "")


def test_verify_rejects_undominated_edge():
    res = verify_dim(cycle_graph(5), [(0, 1)])
    assert not res.ok


def test_verify_rejects_adjacent_matching_edges():
    # P4 with both end edges picked: (1,2) touches two matching edges
    res = verify_dim(path_graph(4), [(0, 1), (2, 3)])
    assert not res.ok


def test_verify_rejects_unknown_edge():
    with pytest.raises(ValueError):
        verify_dim(path_graph(4), [(0, 2)])
    with pytest.raises(ValueError):
        verify_dim(path_graph(4), [(0, 1), (0, 1)])


def test_empty_matching_valid_only_without_edges():
    assert verify_dim(Graph.from_edges(3, []), []).ok
    assert not verify_dim(path_graph(2), []).ok


def _matching_draws(rng, count):
    """Seeded (graph, matching) pairs: solve certificates, certificates
    with one edge dropped, random edge subsets, subsets with a repeated
    edge, and subsets with a pair that is out of range, a loop or a
    non-edge; each drawn in a random order with some pairs reversed."""
    for _ in range(count):
        n = rng.randint(1, 14)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        edges = g.edges()
        kind = rng.randrange(5)
        cert = solve(g, SolveConfig(check_p9=False)).matching if kind < 2 else None
        if cert is not None:
            m = list(cert)
            if kind == 1 and m:
                m.pop(rng.randrange(len(m)))
        else:
            m = rng.sample(edges, rng.randint(0, min(4, len(edges))))
            if kind == 3 and edges:
                m.append(rng.choice(m or edges))
            elif kind == 4:
                m.append((rng.randrange(-1, n + 1), rng.randrange(-1, n + 1)))
        rng.shuffle(m)
        yield g, [(v, u) if rng.random() < 0.3 else (u, v) for u, v in m]


def _outcome(check, g, m):
    """(ok, reason), or ("ValueError", message) when check raises."""
    try:
        res = check(g, m)
    except ValueError as exc:
        return "ValueError", str(exc)
    return res if isinstance(res, tuple) else (res.ok, res.reason)


def test_verify_dim_matches_the_edge_walk():
    # verify_dim checks rows; the naive walk checks edges in order.  Both
    # must name the same first violating edge with the same words.
    kinds = ("not dominated", "dominated twice", "lies in two matching edges")
    seen = collections.Counter()
    for g, m in _matching_draws(random.Random(2500), 20_000):
        want = _outcome(verify_dim_naive, g, m)
        assert _outcome(verify_dim, g, m) == want, (g.edges(), m)
        if want[0] in (True, "ValueError"):
            seen[want[0]] += 1
        else:
            seen[next(k for k in kinds if k in want[1])] += 1
    assert len(seen) == 5 and min(seen.values()) >= 100, seen


def test_oracle_c5_has_none():
    rep = oracle_dim(cycle_graph(5))
    assert rep.status == "no-dim"
    assert rep.matching is None


def test_oracle_p4():
    rep = oracle_dim(path_graph(4))
    assert rep.status == "dim"
    assert rep.matching == ((1, 2),)


def test_oracle_c9_size_three():
    rep = oracle_dim(cycle_graph(9))
    assert rep.status == "dim"
    assert len(rep.matching) == 3
    assert verify_dim(cycle_graph(9), rep.matching).ok


def test_oracle_limit():
    rep = oracle_dim(cycle_graph(12), node_limit=3)
    assert rep.status == "limit"


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(6), 3),
        (complete_graph(3), 3),
        (cycle_graph(4), 0),
        (cycle_graph(9), 3),
        (Graph.from_edges(2, []), 1),  # edgeless: the empty matching counts
    ],
)
def test_count_dims_frozen(g, expected):
    assert count_dims(g) == expected


def test_cycle_law():
    # cycles carry a solution exactly when the length is a multiple of three
    for n in range(3, 13):
        rep = oracle_dim(cycle_graph(n))
        assert (rep.status == "dim") == (n % 3 == 0), n


def test_path_law():
    for n in range(2, 13):
        assert oracle_dim(path_graph(n)).status == "dim", n


def test_enumerate_matches_count():
    g = cycle_graph(9)
    found = list(enumerate_dims(g))
    assert len(found) == count_dims(g)
    assert len(set(found)) == len(found)
    for m in found:
        assert verify_dim(g, m).ok


def test_all_dims_pass_verifier_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        for m in all_dims(g):
            assert verify_dim(g, m).ok


def test_dims_meet_induced_cycles_correctly():
    """Any solution uses exactly one edge of each induced odd cycle up to 7,
    no edge of an induced square, and zero or two edges of an induced hexagon."""
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        n = rng.randint(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = Graph.from_edges(n, edges)
        # in an induced cycle the cycle edges are exactly the induced edges
        cycles = [
            {(a, b) for a, b in g.edges() if a in cyc and b in cyc}
            for cyc in induced_cycle_sets_naive(g, 7)
        ]
        if not cycles:
            continue
        for m in all_dims(g):
            mset = set(m)
            for cyc_edges in cycles:
                k = len(cyc_edges)
                inter = len(mset & cyc_edges)
                if k in (3, 5, 7):
                    assert inter == 1, (edges, m, cyc_edges)
                elif k == 4:
                    assert inter == 0, (edges, m, cyc_edges)
                elif k == 6:
                    assert inter in (0, 2), (edges, m, cyc_edges)
                checked += 1
    assert checked > 100
