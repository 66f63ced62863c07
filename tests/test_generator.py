import hashlib
import json
import random
import tracemalloc

import networkx as nx
import pytest

from dimkit.generator import (
    RANDOM_FILTERS,
    _canonical_form,
    emit_small_corpus,
    gen_c4_augmented,
    gen_planted,
    gen_random,
    iter_small_corpus,
)
from dimkit.graph import Graph, connected_components, parse_graph, serialize_graph
from dimkit.oracle import oracle_dim, verify_dim
from dimkit.patterns import P9_VERIFIED, classify_p9, find_k4, iter_butterflies, iter_diamonds
from conftest import cycle_graph, path_graph

# sha256 of the concatenated serialize_graph output of iter_small_corpus(7)
CORPUS7_SHA256 = "96904f9d0c7bc70ec5b63874cca39fdd1ba4005c76a7f1e169c2d9cead8a466e"


def test_classify_p9():
    assert classify_p9(path_graph(9)) == ("violated", tuple(range(9)))
    assert classify_p9(path_graph(8)) == ("verified", None)
    assert classify_p9(cycle_graph(12), node_limit=1) == ("unchecked", None)


# -- planted instances --------------------------------------------------------


def test_planted_matching_verifies():
    inst = gen_planted(30, 6, 25, seed=3)
    assert inst.graph.n == 30
    assert len(inst.planted) == 6
    assert inst.planted == tuple((2 * i, 2 * i + 1) for i in range(6))
    assert verify_dim(inst.graph, inst.planted).ok
    assert inst.p9_free in ("verified", "violated", "unchecked")
    assert inst.seed == 3


def test_planted_deterministic():
    a = gen_planted(40, 8, 35, seed=77)
    b = gen_planted(40, 8, 35, seed=77)
    assert serialize_graph(a.graph) == serialize_graph(b.graph)
    c = gen_planted(40, 8, 35, seed=78)
    assert serialize_graph(a.graph) != serialize_graph(c.graph)


def test_planted_connected_with_enough_extras():
    inst = gen_planted(50, 10, 45, seed=1)
    assert len(connected_components(inst.graph)) == 1


def test_planted_edge_cases():
    # no unmatched vertices: just the k disjoint pairs
    inst = gen_planted(8, 4, 0, seed=0)
    assert inst.graph.m == 4
    assert verify_dim(inst.graph, inst.planted).ok
    # no matched vertices: edgeless graph, empty matching
    inst = gen_planted(5, 0, 0, seed=0)
    assert inst.graph.m == 0
    assert inst.planted == ()
    inst = gen_planted(0, 0, 0, seed=0)
    assert inst.graph.n == 0


def test_planted_full_capacity():
    inst = gen_planted(6, 2, 8, seed=9)  # capacity = 2*2*(6-4) = 8
    assert inst.graph.m == 2 + 8


# sha256 of the concatenated serialize_graph output of the 60 draws in
# test_planted_uniform_edges_pinned, computed by sampling a list of every
# free (unmatched, matched) pair; drawing by index must give the same edges
PLANTED_UNIFORM_SHA256 = "c7ab1ccf168eb10a7e0f17cdd63b0eaadf971f3081378d235689c31595bce8ea"


def test_planted_uniform_edges_pinned():
    # every draw spends more than its repair edges, so the uniform cross
    # edges are drawn, some of them at full capacity
    rng = random.Random(2323)
    h = hashlib.sha256()
    for _ in range(60):
        n = rng.randint(5, 90)
        k = rng.randint(1, (n - 1) // 2)
        repairs = n - 2 * k + min(k - 1, n - 2 * k)
        extra = rng.randint(repairs + 1, 2 * k * (n - 2 * k))
        h.update(serialize_graph(gen_planted(n, k, extra, rng.randrange(10**6)).graph).encode())
    assert h.hexdigest() == PLANTED_UNIFORM_SHA256


def test_planted_memory_stays_linear():
    # a list of all 250,000 free pairs at n = 1000 peaks near 16 MB; the
    # draw by index stays under 1 MB
    tracemalloc.start()
    try:
        gen_planted(1000, 250, 1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize(
    "n,k,extra",
    [(-1, 0, 0), (4, -1, 0), (4, 0, -1), (5, 3, 0), (6, 2, 9)],
)
def test_planted_rejects_bad_parameters(n, k, extra):
    with pytest.raises(ValueError):
        gen_planted(n, k, extra, seed=0)


def test_c4_augmented_has_no_solution():
    g = gen_c4_augmented(10, 2, 6, seed=4)
    assert g.n == 14
    assert oracle_dim(g).status == "no-dim"


def test_c4_augmented_trivial_base():
    g = gen_c4_augmented(0, 0, 0, seed=0)
    assert g.n == 4
    assert oracle_dim(g).status == "no-dim"


# -- filtered random sampling -------------------------------------------------


def test_random_deterministic():
    a = gen_random(12, 0.3, seed=5)
    b = gen_random(12, 0.3, seed=5)
    assert a.graph is not None
    assert serialize_graph(a.graph) == serialize_graph(b.graph)
    assert a.attempts == 1


def test_random_filters_hold():
    draw = gen_random(10, 0.45, seed=8, filters=("k4_free",))
    assert draw.graph is not None
    assert find_k4(draw.graph) is None
    total_rejected = sum(draw.rejections.values())
    assert draw.attempts == total_rejected + 1


def test_pattern_filters_leave_nothing_forced():
    # both pattern filters together must leave no diamond or butterfly
    for seed in range(5):
        draw = gen_random(12, 0.3, seed=seed,
                          filters=("k4_free", "diamond_butterfly_free"))
        assert draw.graph is not None
        assert find_k4(draw.graph) is None
        assert [*iter_diamonds(draw.graph), *iter_butterflies(draw.graph)] == []


def test_random_cap_reports_rejections():
    draw = gen_random(6, 1.0, seed=0, filters=("k4_free",), attempt_cap=7)
    assert draw.graph is None
    assert draw.attempts == 7
    assert draw.rejections == {"k4_free": 7}


def test_random_p9_filter_rejects_draws():
    draw = gen_random(16, 0.2, 2, filters=("p9_free",))
    assert (draw.attempts, draw.rejections) == (4, {"p9_free": 3})
    assert classify_p9(draw.graph)[0] == P9_VERIFIED


def test_random_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_random(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_random(5, 0.5, seed=0, filters=("shiny",))
    with pytest.raises(ValueError):
        gen_random(5, 0.5, seed=0, attempt_cap=0)
    assert set(RANDOM_FILTERS) == {"k4_free", "diamond_butterfly_free", "p9_free"}


# -- exhaustive small corpus --------------------------------------------------


def test_corpus_counts(corpus7):
    by_n = {}
    for g in corpus7:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # connected graph counts per vertex count
    assert by_n == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_corpus_members_connected(corpus7):
    for g in corpus7:
        assert len(connected_components(g)) == 1


def test_corpus_sequence_pinned(corpus7):
    digest = hashlib.sha256("".join(serialize_graph(g) for g in corpus7).encode())
    assert digest.hexdigest() == CORPUS7_SHA256


def test_canonical_form_relabeling_invariant(corpus7):
    rng = random.Random(2014)
    forms = set()
    for g in corpus7:
        form = _canonical_form(g)
        forms.add(form)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert _canonical_form(h) == form
    assert len(forms) == len(corpus7)


def test_corpus_pairwise_nonisomorphic_small():
    graphs = [g for g in iter_small_corpus(5)]
    as_nx = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        as_nx.append(h)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if graphs[i].n != graphs[j].n or graphs[i].m != graphs[j].m:
                continue
            assert not nx.is_isomorphic(as_nx[i], as_nx[j]), (i, j)


def test_corpus_deterministic_order():
    a = [serialize_graph(g) for g in iter_small_corpus(5)]
    b = [serialize_graph(g) for g in iter_small_corpus(5)]
    assert a == b


def test_corpus_range_validation():
    with pytest.raises(ValueError):
        list(iter_small_corpus(1))
    with pytest.raises(ValueError):
        list(iter_small_corpus(9))


def test_emit_small_corpus_checks_max_n_before_writing(tmp_path):
    out = tmp_path / "corpus"
    with pytest.raises(ValueError):
        emit_small_corpus(out, 9)
    assert not out.exists()


def test_emit_small_corpus(tmp_path):
    rows = emit_small_corpus(tmp_path, 4)
    assert len(rows) == 1 + 2 + 6
    manifest = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == len(rows)
    for line, row in zip(manifest, rows):
        assert json.loads(line) == row
    for row in rows:
        g = parse_graph((tmp_path / row["path"]).read_text())
        assert g.n == row["n"] and g.m == row["m"]
        assert row["p9_free"] == "verified"
        assert row["seed"] is None
        assert oracle_dim(g).status == row["label"]
    # the three connected shapes on up to three vertices all have one
    assert [r["label"] for r in rows[:3]] == ["dim", "dim", "dim"]
