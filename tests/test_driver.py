import collections
import json
import random

import pytest

from dimkit.coloring import Coloring, extract_matching
from dimkit.driver import (
    SolveConfig,
    SolveOutcome,
    root_facts,
    solve,
    try_edge,
    trivial_dim,
    verify_outcome,
)
from dimkit.generator import gen_c4_augmented, gen_planted
from dimkit.decomposition import RadiusExceeded, build_levels
from dimkit.graph import Graph, bfs_layers, bits, central_vertex, connected_components, degree_classes
import dimkit.coloring
import dimkit.component_solver
import dimkit.decomposition
import dimkit.driver
import dimkit.oracle
import dimkit.patterns
from dimkit.oracle import all_dims, count_dims, enumerate_dims, oracle_dim, verify_dim
from dimkit.patterns import P9_VERIFIED, P9_VIOLATED, classify_p9, find_k4
from conftest import complete_graph, cubic_no_dim, cycle_graph, disjoint_union, path_graph, star_graph
from equivalence import deg3_graph, inputs
from naive_reference import (
    coloring_is_complete_dim,
    dominating_edge_naive,
    induced_paths_naive,
    pick_unknown_naive,
)

ENGINE_ONLY = SolveConfig(branch_budget=0)


def test_hexagon():
    out = solve(cycle_graph(6))
    assert out.status == "dim"
    assert len(out.matching) == 2
    assert verify_dim(cycle_graph(6), out.matching).ok


def test_square():
    out = solve(cycle_graph(4))
    assert out.status == "no-dim"
    assert out.matching is None
    assert out.reason


def test_nine_cycle():
    out = solve(cycle_graph(9))
    assert out.status == "dim"
    assert len(out.matching) == 3


def test_k4_refused_by_pattern():
    out = solve(complete_graph(4), ENGINE_ONLY)
    assert out.status == "no-dim"
    assert "complete subgraph" in out.reason
    assert out.stats["edges_tried"] == 0


def test_paths():
    for n in range(2, 13):
        out = solve(path_graph(n))
        assert out.status == "dim", (n, out.reason)
        assert verify_dim(path_graph(n), out.matching).ok


def test_diamond_certificate_holds_the_mid_edge():
    # diamond plus a tail; the mid edge (0,1) must be in any solution
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4), (4, 5)])
    out = solve(g, ENGINE_ONLY)
    assert out.status == "dim"
    assert set(out.matching) == {(0, 1), (4, 5)}
    assert count_dims(g) == 1  # the pinned shape is the only one


def test_butterfly_certificate_holds_both_wing_edges():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    out = solve(g, ENGINE_ONLY)
    assert out.status == "dim"
    assert set(out.matching) == {(1, 2), (3, 4)}


def test_components_solved_independently():
    g = disjoint_union(cycle_graph(6), path_graph(4))
    out = solve(g)
    assert out.status == "dim"
    assert len(out.matching) == 3
    assert verify_dim(g, out.matching).ok
    # one bad component sinks the whole graph
    g = disjoint_union(cycle_graph(6), cycle_graph(4))
    assert solve(g).status == "no-dim"


def test_isolated_vertices_are_fine():
    g = Graph.from_edges(4, [(1, 2)])
    out = solve(g)
    assert out.status == "dim"
    assert out.matching == ((1, 2),)


def test_edgeless_graph():
    out = solve(Graph.from_edges(3, []))
    assert out.status == "dim"
    assert out.matching == ()


def test_trivial_dim_helper():
    g = complete_graph(3)
    assert trivial_dim(g, g.full_mask(), degree_classes(g, g.full_mask())) == (0, 1)
    g = cycle_graph(6)
    assert trivial_dim(g, g.full_mask(), degree_classes(g, g.full_mask())) is None


def _star_like_draws(rng, count):
    """Seeded stars and double stars, each perturbed by up to two random
    edges, mixed with sparse G(n, p) graphs."""
    for _ in range(count):
        kind = rng.randrange(3)
        n = rng.randint(2, 12)
        if kind == 0:  # star at 0
            edges = [(0, v) for v in range(1, n)]
        elif kind == 1:  # double star on the edge 01
            edges = [(0, 1)] + [(rng.randrange(2), v) for v in range(2, n)]
        else:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        if kind < 2:
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3))]
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph.from_edges(n, sorted({tuple(sorted((perm[u], perm[v]))) for u, v in edges}))


def test_trivial_dim_matches_the_naive_edge():
    # trivial_dim returns early when twice the largest degree, less one,
    # is below the edge count; a dominating edge uv covers exactly
    # deg(u) + deg(v) - 1 edges, so the early exit loses no answer
    found = tight = 0
    for g in _star_like_draws(random.Random(1919), 1500):
        for comp in connected_components(g):
            got = trivial_dim(g, comp, degree_classes(g, comp))
            assert got == dominating_edge_naive(g, comp), (g.edges(), comp)
            degs = [(g.rows[v] & comp).bit_count() for v in bits(comp)]
            found += got is not None
            tight += got is not None and 2 * max(degs) - 1 == sum(degs) // 2
    assert found > 500 and tight > 100, (found, tight)


def test_k4_reason_is_the_unrestricted_first_k4():
    # solve_top_component scans for a K4 only among the vertices of degree
    # three or more; the K4 it reports must be the one the scan over the
    # whole component finds, also where a K4 vertex has degree exactly 3
    rng = random.Random(2511)
    hits = tight = 0
    for _ in range(3000):
        n = rng.randint(4, 10)
        p = rng.choice((0.3, 0.4, 0.5, 0.6, 0.8))
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        edged = [comp for comp in connected_components(g) if comp & comp - 1]
        if len(edged) != 1:  # the verdict is the first failing component's
            continue
        comp = edged[0]
        want = find_k4(g, comp)
        if want is None:
            continue
        out = solve(g, SolveConfig(check_p9=False))
        assert out.reason == f"complete subgraph on vertices {want.vertices}", g.edges()
        hits += 1
        tight += any((g.rows[v] & comp).bit_count() == 3 for v in want.vertices)
    assert hits > 900 and tight > 250, (hits, tight)


def test_long_path_instance_still_decided():
    out = solve(path_graph(8))
    assert out.status == "dim"
    assert verify_dim(path_graph(8), out.matching).ok


def test_try_edge_decides_past_four_levels():
    # the eight-path's levels from (0, 1) run past four, the paper's bound
    # for graphs without an induced nine-vertex path; the trial's rules hold
    # in any graph, so it decides the edge as the oracle does
    g = path_graph(8)
    with pytest.raises(RadiusExceeded):
        build_levels(g, g.full_mask(), 0, 1)
    stats = {"edges_tried": 0, "forced_edges": 0, "branches": 0}
    c = Coloring(g)
    assert try_edge(g, g.full_mask(), 0, 1, c, stats, 4096) == ("dim", None)
    with_xy = [m for m in enumerate_dims(g) if (0, 1) in m]
    assert with_xy == [extract_matching(c)] == [((0, 1), (3, 4), (6, 7))]
    assert stats == {"edges_tried": 0, "forced_edges": 3, "branches": 0}


def test_try_edge_builds_no_levels(monkeypatch):
    # the trial decides through the pair's propagation and the piece
    # searches alone: neither a pair that clashes (the square's) nor one
    # that survives (the eight-path's, whose levels run past four) has its
    # levels built
    built = []
    real = dimkit.decomposition.build_levels
    for module in (dimkit.decomposition, dimkit.component_solver):
        monkeypatch.setattr(module, "build_levels",
                            lambda *args: built.append(args) or real(*args), raising=False)
    g = cycle_graph(4)
    c = Coloring(g)
    stats = {"edges_tried": 0, "forced_edges": 0, "branches": 0}
    assert try_edge(g, g.full_mask(), 0, 1, c, stats, 4096) == ("infeasible", "white-white-edge at 2,3")
    assert c.snapshot() == Coloring(g).snapshot()
    g = path_graph(8)
    assert try_edge(g, g.full_mask(), 0, 1, Coloring(g), stats, 4096) == ("dim", None)
    assert built == []


def test_engine_refutes_a_clashing_pair_beyond_the_radius():
    # a tree with an induced ten-vertex path, plus isolated vertex 7: edge
    # (5,11) at the central vertex 5 has vertex 10 five levels out, and its
    # pair clashes under propagation, so the engine rules the edge out
    g = Graph.from_edges(12, [(0, 2), (0, 4), (1, 11), (2, 11), (3, 6), (3, 9),
                              (5, 9), (5, 11), (6, 8), (8, 10)])
    assert classify_p9(g)[0] == P9_VIOLATED
    out = solve(g, ENGINE_ONLY)
    assert out.status == oracle_dim(g).status == "dim"
    assert out.matching == ((0, 4), (1, 11), (3, 9), (8, 10))


def test_engine_negative_stands_beside_long_path():
    # square (engine-refutable) disjoint from a nine-path: the refutation
    # uses only rules sound on every graph, so it stands without the
    # complete search although a long induced path is present
    g = disjoint_union(cycle_graph(4), path_graph(9))
    assert classify_p9(g)[0] == P9_VIOLATED
    out = solve(g, ENGINE_ONLY)
    assert out.status == "no-dim"
    assert out.p9_checked


def test_no_downgrade_without_p9():
    out = solve(cycle_graph(4), SolveConfig(check_p9=False))
    assert out.status == "no-dim"
    assert not out.p9_checked


def test_complete_search_settles_midsize_reject():
    g = gen_c4_augmented(14, 3, 10, seed=5)
    assert g.n == 18
    out = solve(g)
    assert out.status == "no-dim"
    assert oracle_dim(g).status == "no-dim"


def test_engine_alone_refutes_a_cubic_no_instance_with_a_nine_path():
    # a cubic no-instance (no pendant, no twin, so no root fact): a
    # nine-path is present and the levels of the engine's first trial run
    # deeper than four, but its rules hold in any graph, so the engine
    # refutes it alone, as the complete search does
    g = cubic_no_dim(40, 1)
    assert classify_p9(g)[0] == P9_VIOLATED
    with pytest.raises(RadiusExceeded):
        build_levels(g, g.full_mask(), 1, 10)
    out = solve(g, ENGINE_ONLY)
    assert (out.status, out.reason) == (
        "no-dim", "no matching edge fits at vertex 1: black-unmatchable at 31"
    )
    assert out.stats == {"edges_tried": 3, "forced_edges": 0, "branches": 4}
    out = solve(g)
    assert (out.status, out.stats["branches"]) == ("no-dim", 8)
    # a pendant-C4 instance with a nine-path is refuted at the root,
    # whatever the budget
    g = gen_c4_augmented(40, 8, 40, 5)
    assert classify_p9(g)[0] == P9_VIOLATED
    out = solve(g, ENGINE_ONLY)
    assert (out.status, out.reason) == ("no-dim", "root facts: black-unmatchable at 42")


def test_complete_search_finds_planted():
    inst = gen_planted(40, 8, 30, seed=11)
    out = solve(inst.graph)
    assert out.status == "dim"
    assert verify_dim(inst.graph, out.matching).ok


def test_verify_outcome():
    out = solve(cycle_graph(6))
    assert verify_outcome(cycle_graph(6), out).ok
    forged = SolveOutcome("dim", ((0, 1), (2, 3)), None, dict(out.stats), True)
    assert not verify_outcome(cycle_graph(6), forged).ok
    assert verify_outcome(cycle_graph(4), solve(cycle_graph(4))).ok


def test_json_shape_and_stability():
    out = solve(cycle_graph(6))
    d = json.loads(out.to_json())
    assert list(d) == ["status", "matching", "reason", "stats", "p9_checked"]
    assert list(d["stats"]) == ["edges_tried", "forced_edges", "branches", "millis"]
    assert d["stats"]["millis"] == 0
    assert out.to_json() == solve(cycle_graph(6)).to_json()


def test_matches_oracle_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(2, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        out = solve(g)
        want = oracle_dim(g).status
        assert out.status == want, (edges, out.reason)
        if out.status == "dim":
            assert verify_dim(g, out.matching).ok


def test_matches_oracle_engine_only_when_conclusive(corpus7):
    # without the complete search the engine must never contradict the oracle
    for g in corpus7:
        out = solve(g, ENGINE_ONLY)
        if out.status == "inconclusive":
            continue
        assert out.status == oracle_dim(g).status


def _gnp_draws():
    """300 seeded G(n, p) graphs with n <= 18, small enough for the oracle."""
    rng = random.Random(99)
    graphs = []
    for _ in range(300):
        n = rng.randint(2, 18)
        p = rng.choice((0.1, 0.2, 0.3, 0.5))
        graphs.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        ))
    return graphs


def _assert_agrees_with_oracle(g, out):
    assert out.status == oracle_dim(g).status, (g.edges(), out.reason)
    if out.status == "dim":
        assert verify_dim(g, out.matching).ok


def test_solve_never_consults_the_oracle(corpus7, monkeypatch):
    graphs = list(corpus7) + _gnp_draws()

    def refuse(*args, **kwargs):
        raise AssertionError("solve() consulted the oracle")

    monkeypatch.setattr(dimkit.oracle, "_search", refuse)
    outcomes = [solve(g) for g in graphs]
    monkeypatch.undo()
    for g, out in zip(graphs, outcomes):
        _assert_agrees_with_oracle(g, out)


def test_solve_never_runs_the_pattern_detectors(corpus7, monkeypatch):
    graphs = list(corpus7) + _gnp_draws()
    rng = random.Random(62)
    dense = Graph.from_edges(
        62, [(u, v) for u in range(62) for v in range(u + 1, 62) if rng.random() < 0.5]
    )

    def refuse(*args, **kwargs):
        raise AssertionError("solve() ran a diamond or butterfly detector")

    monkeypatch.setattr(dimkit.patterns, "iter_diamonds", refuse)
    monkeypatch.setattr(dimkit.patterns, "iter_butterflies", refuse)
    outcomes = [solve(g) for g in graphs]
    dense_out = solve(dense)
    monkeypatch.undo()
    for g, out in zip(graphs, outcomes):
        _assert_agrees_with_oracle(g, out)
    # a K4 refutes the dense draw before any trial or search
    assert dense_out.status == "no-dim"
    assert "complete subgraph" in dense_out.reason


def _planted_pin(k, edges_tried, forced_edges):
    pairs = ", ".join(f"[{2 * i}, {2 * i + 1}]" for i in range(k))
    return (
        f'{{"status": "dim", "matching": [{pairs}], "reason": null, "stats": '
        f'{{"edges_tried": {edges_tried}, "forced_edges": {forced_edges}, "branches": 0, '
        f'"millis": 0}}, "p9_checked": true}}'
    )


def test_centre_tie_break_pinned_end_to_end():
    # Each planted graph leaves the engine a first piece of the root state
    # with two vertices of least eccentricity, so another tie-break or a
    # centre one round off trials other edges and moves the counters; the
    # expected outputs were recorded from one BFS per vertex.  In
    # gen_planted(300, 75, 300, 4) the piece has 16 vertices, radius 8, and
    # its tied centres 104 and 105 are one matched pair, so only a centre
    # one round off moves its output; it went from inconclusive on the
    # radius to dim when the trial stopped building levels.  In
    # gen_planted(100, 25, 100, 7) the piece has 13 vertices, radius 5, and
    # tied centres 38 and 92: the larger id tries 2 edges, one round off
    # forces 2 pairs in 1 branch.  Most planted graphs leave the engine
    # only small pieces with one centre (gen_planted(600, 150, 600, 0)
    # does), so these are picked for their ties.  The pendant-C4 twin is
    # refuted by the root facts ahead of the engine.
    planted = gen_planted(300, 75, 300, 4)
    augmented = gen_c4_augmented(300, 75, 300, 4)
    assert solve(planted.graph, ENGINE_ONLY).to_json() == _planted_pin(75, 4, 8)
    assert solve(gen_planted(100, 25, 100, 7).graph, ENGINE_ONLY).to_json() == _planted_pin(25, 1, 4)
    assert solve(augmented, ENGINE_ONLY).to_json() == (
        '{"status": "no-dim", "matching": [], "reason": "root facts: black-unmatchable at 302", '
        '"stats": {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}, '
        '"p9_checked": true}'
    )


SEARCH_PINS_AT_SIZE = (
    '{"status": "dim", "matching": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11], [12, 13], '
    '[14, 15], [16, 17], [18, 19], [20, 21], [22, 23], [24, 25], [26, 27], [28, 29], [30, 31], '
    '[32, 33], [34, 35], [36, 37], [38, 39], [40, 41], [42, 43], [44, 45], [46, 47], [48, 49], '
    '[50, 51], [52, 53], [54, 55], [56, 57], [58, 59], [60, 61], [62, 63], [64, 65], [66, 67], '
    '[68, 69], [70, 71], [72, 73], [74, 75], [76, 77], [78, 79], [80, 81], [82, 83], [84, 85], '
    '[86, 87], [88, 89], [90, 91], [92, 93], [94, 95], [96, 97], [98, 99], [100, 101], [102, '
    '103], [104, 105], [106, 107], [108, 109], [110, 111], [112, 113], [114, 115], [116, 117], '
    '[118, 119], [120, 121], [122, 123], [124, 125], [126, 127], [128, 129], [130, 131], [132, '
    '133], [134, 135], [136, 137], [138, 139], [140, 141], [142, 143], [144, 145], [146, 147], '
    '[148, 149], [150, 151], [152, 153], [154, 155], [156, 157], [158, 159], [160, 161], [162, '
    '163], [164, 165], [166, 167], [168, 169], [170, 171], [172, 173], [174, 175], [176, 177], '
    '[178, 179], [180, 181], [182, 183], [184, 185], [186, 187], [188, 189], [190, 191], [192, '
    '193], [194, 195], [196, 197], [198, 199], [200, 201], [202, 203], [204, 205], [206, 207], '
    '[208, 209], [210, 211], [212, 213], [214, 215], [216, 217], [218, 219], [220, 221], [222, '
    '223], [224, 225], [226, 227], [228, 229], [230, 231], [232, 233], [234, 235], [236, 237], '
    '[238, 239], [240, 241], [242, 243], [244, 245], [246, 247], [248, 249], [250, 251], [252, '
    '253], [254, 255], [256, 257], [258, 259], [260, 261], [262, 263], [264, 265], [266, 267], '
    '[268, 269], [270, 271], [272, 273], [274, 275], [276, 277], [278, 279], [280, 281], [282, '
    '283], [284, 285], [286, 287], [288, 289], [290, 291], [292, 293], [294, 295], [296, 297], '
    '[298, 299]], "reason": null, "stats": {"edges_tried": 0, "forced_edges": 0, "branches": 14, '
    '"millis": 0}, "p9_checked": true}',
    '{"status": "no-dim", "matching": [], "reason": "root facts: black-unmatchable at 602", '
    '"stats": {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}, '
    '"p9_checked": true}',
)


def test_search_outputs_pinned_at_size():
    # The complete search decides the planted graph, so `branches` pins its
    # branch order at n = 600 from the root facts; the expected outputs were
    # recorded with the vertex-by-vertex pick of
    # naive_reference.pick_unknown_naive.  The root facts refute the
    # pendant-C4 graph.  Too large for the oracle: the verdicts come from
    # the constructions.
    planted = gen_planted(600, 150, 600, 0)
    augmented = gen_c4_augmented(600, 150, 600, 0)
    out = solve(planted.graph)
    assert out.to_json() == SEARCH_PINS_AT_SIZE[0]
    assert verify_dim(planted.graph, out.matching).ok
    assert solve(augmented).to_json() == SEARCH_PINS_AT_SIZE[1]


def _planted_draws():
    """Seeded planted graphs and their pendant-C4 twins, n = 12..150."""
    rng = random.Random(5)
    graphs = []
    for seed in range(100):
        n = rng.randint(12, 150)
        k = rng.randint(1, n // 4)
        extra = min(rng.randint(n // 2, 2 * n), 2 * k * (n - 2 * k))
        graphs.append(gen_planted(n, k, extra, seed).graph)
        graphs.append(gen_c4_augmented(n, k, extra, seed))
    return graphs


def _degree_three_draws():
    """60 graphs of item 8's d.i.m. family and 60 of item 15's cubic
    no-instances, n = 10..402: no pendants, so the root facts leave the
    search its work."""
    return [*(deg3_graph(i) for i in range(60)), *(cubic_no_dim(i, 0) for i in range(60))]


def _induced(g, comp):
    """The subgraph of g on the vertex mask comp, relabelled in id order,
    and the original id of each new vertex."""
    ids = list(bits(comp))
    index = {v: i for i, v in enumerate(ids)}
    edges = [(index[u], index[v]) for u, v in g.edges() if comp >> u & 1 and comp >> v & 1]
    return Graph.from_edges(len(ids), edges), ids


def test_root_facts_hold_in_every_dim(corpus7):
    # Both facts against the oracle, component by component: every d.i.m.
    # matches each vertex of `black` and leaves each vertex of `white`
    # unmatched, and a clash among the facts means the component has none.
    rng = random.Random(14)
    graphs = list(corpus7)
    for _ in range(2000):
        n = rng.randint(2, 11)
        p = rng.choice((0.15, 0.25, 0.35, 0.5))
        graphs.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        ))
    seen = collections.Counter()
    for g in graphs:
        for comp in connected_components(g):
            white, black = root_facts(g, degree_classes(g, comp))
            assert not (white | black) & ~comp
            sub, ids = _induced(g, comp)
            matched = [{ids[v] for e in m for v in e} for m in all_dims(sub)]
            if Coloring(g).extend(white=white, black=black) is not None:
                assert not matched, g.edges()
                seen["clash"] += 1
                continue
            for m in matched:
                assert all(v in m for v in bits(black)), g.edges()
                assert not any(v in m for v in bits(white)), g.edges()
                seen["black"] += bool(black)
                seen["white"] += bool(white)
    assert seen["clash"] >= 20 and seen["black"] >= 20 and seen["white"] >= 20, seen


def test_root_facts_of_a_star_and_a_pendant_path():
    # a star's centre is matched and its leaves, all of degree one, are
    # not twins of degree two or more
    g = star_graph(5)
    assert root_facts(g, degree_classes(g, g.full_mask())) == (0, 1)
    g = path_graph(5)
    assert root_facts(g, degree_classes(g, g.full_mask())) == (0, 1 << 1 | 1 << 3)


def test_root_facts_of_a_twin_class():
    # 0 and 1 are twins of degree two on {2, 3}, white; 2 and 3 are the
    # neighbours of the pendants 4 and 5, black; the facts leave only the
    # pendants, which propagation pairs, so the root decides with no branch
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
    assert root_facts(g, degree_classes(g, g.full_mask())) == (0b11, 0b1100)
    out = solve(g)
    assert (out.status, out.matching, out.stats["branches"]) == ("dim", ((2, 4), (3, 5)), 0)
    # a third twin joins the class
    g = Graph.from_edges(7, g.edges() + [(6, 2), (6, 3)])
    assert root_facts(g, degree_classes(g, g.full_mask())) == (0b1000011, 0b1100)


def test_root_facts_clash_refutes_at_the_root():
    # the four-cycle's two twin classes cover it, so two whites meet
    out = solve(cycle_graph(4))
    assert (out.status, out.reason) == ("no-dim", "root facts: white-white-edge at 0,1")
    assert out.stats["branches"] == 0 and out.stats["edges_tried"] == 0
    # a triangle with a pendant at each corner: three blacks meet
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    out = solve(g)
    assert (out.status, out.reason) == ("no-dim", "root facts: two-black-neighbors at 0,1,2")
    assert out.stats["branches"] == 0 and oracle_dim(g).status == "no-dim"


def test_engine_starts_from_the_root_facts(monkeypatch):
    # Under ENGINE_ONLY the engine works on the root state: in these
    # equivalence inputs (`gnp` 1791, n = 21, and 2255, n = 22) the root
    # facts colour part of the big component (20 and 16 vertices), and the
    # engine's first trial runs at the centre of the piece they leave
    # active (19 and 13 vertices), not of the bare component.
    scopes = []
    real = dimkit.driver.try_edge
    monkeypatch.setattr(dimkit.driver, "try_edge",
                        lambda g, sub, *rest: scopes.append(sub) or real(g, sub, *rest))
    for (i, g), want, size in zip(inputs("gnp", [1791, 2255]), ["no-dim", "dim"], [19, 13]):
        scopes.clear()
        out = solve(g, ENGINE_ONLY)
        assert out.stats["edges_tried"] > 0, i
        assert out.status == want == oracle_dim(g).status, (i, out.reason)
        assert scopes[0].bit_count() == size, i


def test_engine_trials_share_one_budget(monkeypatch):
    # Under ENGINE_ONLY all of a component's trials draw on one budget of
    # max(4096, 8 * size) branches, the search's default cap: each piece
    # search gets what the ones before it left, and the engine gives up
    # only once it is spent.  deg3_graph(29) (n = 120, no root fact) runs
    # four piece searches, every one of which branches.
    g = deg3_graph(29)
    total = max(4096, 8 * g.n)
    calls = []
    real = dimkit.component_solver.search

    def recording(c, pick, budget):
        status, spent = real(c, pick, budget)
        calls.append((budget, spent))
        return status, spent

    def costly(c, pick, budget):
        # the real search, charged 1,500 branches a piece: the third piece
        # search finds fewer left and runs out
        if budget < 1500:
            calls.append((budget, budget))
            return "budget", budget
        calls.append((budget, 1500))
        return real(c, pick, budget)[0], 1500

    for search, want in ((recording, ("dim", None)),
                         (costly, ("inconclusive", f"engine branch budget {total} exhausted"))):
        monkeypatch.setattr(dimkit.component_solver, "search", search)
        calls.clear()
        out = solve(g, ENGINE_ONLY)
        assert (out.status, out.reason) == want
        left = total
        for budget, spent in calls:
            assert budget == left
            left -= spent
        assert len(calls) >= 3 and all(spent for _, spent in calls[:3])
        assert sum(spent for _, spent in calls) == out.stats["branches"] <= total
    assert out.stats["branches"] == total


# gen_c4_augmented arguments -> reason of the default solve: the
# four-cycle's corners beside the attached one (ids n, n+1, n+2, n+3) are
# false twins, and whitening them forces a black that no neighbour can pair
PENDANT_C4_REFUTATIONS = [
    ((214, 47, 119, 1107), "root facts: black-unmatchable at 216"),
    ((377, 89, 263, 1149), "root facts: black-unmatchable at 377"),
]


@pytest.mark.parametrize(
    "args,reason", PENDANT_C4_REFUTATIONS,
    ids=[f"n{args[0]}" for args, _ in PENDANT_C4_REFUTATIONS],
)
def test_root_facts_refute_pendant_c4(args, reason):
    # The pick ranks the four-cycle's far corner last (degree 2), so a
    # search from the bare component runs out of its default budget
    # before reaching it; the facts refute it with no branch, at any
    # budget.
    g = gen_c4_augmented(*args)
    for cfg in (None, ENGINE_ONLY):
        out = solve(g, cfg)
        assert (out.status, out.reason) == ("no-dim", reason)
        assert out.stats["branches"] == 0 and out.stats["edges_tried"] == 0


def test_no_pendant_c4_instance_left_inconclusive():
    # a search from the bare component leaves 3 of these 40 no-instances
    # inconclusive
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(80, 400)
        k = rng.randint(n // 8, n // 4 - 1)
        extra = rng.randint(n // 4, n - 1)
        seed = rng.randrange(10**6)
        out = solve(gen_c4_augmented(n, k, extra, seed))
        assert out.status == "no-dim", (n, k, extra, seed, out.reason)


@pytest.mark.parametrize("args,reason", [
    ((8000, 1333, 4000, 5), "root facts: black-unmatchable at 8002"),
    ((32000, 8000, 32000, 1), "root facts: black-unmatchable at 32000"),
], ids=["n8000", "n32000"])
def test_root_facts_refute_pendant_c4_at_size(args, reason):
    out = solve(gen_c4_augmented(*args), SolveConfig(check_p9=False))
    assert (out.status, out.reason, out.stats["branches"]) == ("no-dim", reason, 0)


# graphs where some pick of the engine's search is not the lowest unknown
# vertex of its piece (rare: under 1% of engine picks on seeded G(n, p)
# and planted graphs with n <= 60), among those the root facts leave to
# the engine under ENGINE_ONLY, which starts from them.  After the first
# three, the nine that 20,000 G(n, p) draws of random.Random(38) gave,
# with n in 8..14 and p in {0.2, 0.25, 0.3}.
ENGINE_PICKS_OFF_LOWEST = [
    Graph.from_edges(8, [(0, 7), (1, 5), (2, 3), (2, 7), (3, 7), (4, 5), (4, 6), (6, 7)]),
    Graph.from_edges(8, [(0, 3), (1, 2), (1, 5), (2, 4), (3, 5), (3, 6), (3, 7), (6, 7)]),
    Graph.from_edges(8, [(0, 1), (0, 3), (1, 4), (2, 5), (4, 5), (5, 6), (5, 7), (6, 7)]),
    Graph.from_edges(13, [
        (0, 1), (0, 6), (0, 9), (1, 4), (1, 5), (2, 10), (3, 4), (3, 8), (3, 11), (5, 10),
        (7, 10), (7, 12), (8, 11), (10, 12),
    ]),
    Graph.from_edges(12, [
        (0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (1, 6), (1, 8), (2, 4), (2, 5), (3, 7), (3, 8),
        (4, 10), (7, 8), (7, 10), (7, 11), (8, 9), (8, 11), (9, 10), (9, 11), (10, 11),
    ]),
    Graph.from_edges(11, [
        (0, 2), (2, 3), (2, 6), (2, 7), (3, 7), (4, 6), (4, 9), (5, 8), (5, 10), (8, 9),
        (8, 10),
    ]),
    Graph.from_edges(13, [
        (0, 8), (0, 9), (1, 3), (1, 9), (3, 4), (4, 6), (4, 7), (4, 11), (5, 7), (5, 8),
        (7, 10), (8, 10), (9, 12), (10, 11),
    ]),
    Graph.from_edges(11, [
        (0, 1), (1, 4), (1, 6), (1, 8), (1, 9), (2, 10), (3, 5), (3, 7), (4, 6), (5, 8),
        (9, 10),
    ]),
    Graph.from_edges(11, [
        (0, 6), (0, 7), (1, 5), (1, 6), (1, 7), (2, 8), (2, 9), (3, 8), (3, 10), (4, 10),
        (5, 7), (6, 9),
    ]),
    Graph.from_edges(9, [
        (0, 8), (1, 4), (1, 6), (1, 8), (2, 3), (2, 4), (2, 5), (2, 7), (5, 7), (6, 8),
    ]),
    Graph.from_edges(11, [
        (0, 4), (0, 7), (1, 5), (2, 9), (3, 5), (3, 10), (4, 6), (5, 7), (5, 8), (5, 10),
    ]),
    Graph.from_edges(12, [
        (0, 3), (0, 7), (0, 8), (1, 5), (1, 6), (2, 4), (2, 9), (2, 11), (4, 7), (4, 9), (5, 6),
        (5, 10), (6, 8), (9, 11), (10, 11),
    ]),
]


def test_branch_pick_matches_the_naive_pick(corpus7, monkeypatch):
    # Every pick of the complete search, and of the engine's search over
    # its pieces, must name the vertex that the naive scan names, at every
    # call, with both tie-breaks exercised.
    real_branch_pick = dimkit.coloring.branch_pick
    seen = collections.Counter()

    def checked(kind):
        def checked_branch_pick(g, scope, by_degree):
            pick = real_branch_pick(g, scope, by_degree)

            def both(c):
                got = pick(c)
                want = pick_unknown_naive(scope, c)
                assert got == want, (kind, c.g.edges(), scope, got, want)
                seen[kind] += 1
                if want >= 0:
                    rows = c.g.rows
                    unknown = c.unknown_mask(scope)
                    colored = scope & ~unknown
                    keys = [
                        ((rows[v] & colored).bit_count(), (rows[v] & scope).bit_count())
                        for v in bits(unknown)
                    ]
                    top = max(keys)
                    seen["by_degree"] += any(k[0] == top[0] and k[1] < top[1] for k in keys)
                    seen["by_id"] += keys.count(top) > 1
                    seen[kind + " off lowest"] += want != next(bits(unknown))
                return got

            return both

        return checked_branch_pick

    monkeypatch.setattr(dimkit.driver, "branch_pick", checked("search"))
    monkeypatch.setattr(dimkit.component_solver, "branch_pick", checked("engine"))
    graphs = [*corpus7, *_gnp_draws(), *_planted_draws(), *_degree_three_draws()]
    for g in graphs:
        solve(g, SolveConfig(check_p9=False))
    assert seen["search"] > 2000, seen
    assert seen["by_degree"] > 100 and seen["by_id"] > 100, seen
    graphs += [g for *_, g, _ in _false_twin_draws()]
    graphs += [_pinned_graph(*case) for case, _ in IN_CLASS_PINS]
    graphs += ENGINE_PICKS_OFF_LOWEST
    for g in graphs:
        solve(g, ENGINE_ONLY)
    assert seen["engine"] >= 20 and seen["engine off lowest"] >= 3, seen


def test_no_pick_sees_an_unknown_vertex_beside_two_blacks(corpus7, monkeypatch):
    # Propagation whitens an unknown vertex with two black neighbors (rule
    # (e) of `coloring`), so wherever `search` calls the pick, in the
    # complete search and in the engine's pieces, each unknown vertex has
    # at most one black neighbor: the parity mask of `branch_pick` is its
    # count.
    real_branch_pick = dimkit.coloring.branch_pick
    seen = collections.Counter()

    def checked_branch_pick(g, scope, by_degree):
        pick = real_branch_pick(g, scope, by_degree)

        def checked(c):
            for v in bits(c.unknown_mask(scope)):
                k = (g.rows[v] & c.black).bit_count()
                assert k <= 1, (g.edges(), scope, v)
                seen["beside one black"] += k
            seen["calls"] += 1
            return pick(c)

        return checked

    monkeypatch.setattr(dimkit.driver, "branch_pick", checked_branch_pick)
    monkeypatch.setattr(dimkit.component_solver, "branch_pick", checked_branch_pick)
    for g in [*corpus7, *_gnp_draws(), *_degree_three_draws()]:
        solve(g, SolveConfig(check_p9=False))
        solve(g, SolveConfig(check_p9=False, branch_budget=0))
    assert seen["calls"] > 2000 and seen["beside one black"] > 1000, seen


def test_every_colored_leaf_is_a_dim_of_its_scope(corpus7, monkeypatch):
    # `search` accepts a leaf without rescanning it; the definition-level
    # check runs at every "colored" return of the complete search and of
    # the engine's pieces instead, and the mated mask, which the matching
    # is read from, must be exactly the scope's blacks.
    real_branch_pick = dimkit.coloring.branch_pick
    real_search = dimkit.coloring.search
    scopes = {}
    seen = collections.Counter()

    def scoped_branch_pick(g, scope, by_degree):
        pick = real_branch_pick(g, scope, by_degree)
        scopes[pick] = scope
        return pick

    def checked(kind):
        def checked_search(c, pick, budget):
            status, branches = real_search(c, pick, budget)
            if status == "colored":
                scope = scopes[pick]
                assert coloring_is_complete_dim(c, scope), (kind, c.g.edges(), scope)
                assert c.mated & scope == c.black & scope, (kind, c.g.edges(), scope)
                seen[kind] += 1
            return status, branches

        return checked_search

    for module, kind in ((dimkit.driver, "search"), (dimkit.component_solver, "engine")):
        monkeypatch.setattr(module, "branch_pick", scoped_branch_pick)
        monkeypatch.setattr(module, "search", checked(kind))
    graphs = [*corpus7, *_gnp_draws(), *_planted_draws()]
    for g in graphs:
        solve(g, SolveConfig(check_p9=False))
    assert seen["search"] > 200, seen
    graphs += [g for *_, g, _ in _false_twin_draws()]
    graphs += [_pinned_graph(*case) for case, _ in IN_CLASS_PINS]
    graphs += ENGINE_PICKS_OFF_LOWEST
    for g in graphs:
        solve(g, SolveConfig(check_p9=False, branch_budget=0))
    assert seen["engine"] >= 10, seen


def _false_twin_expansion(host, classes, n, rng):
    """host grown to n vertices by false twins of the vertices in classes,
    dealt round-robin, then relabelled at random."""
    edges = host.edges()
    for i in range(n - host.n):
        v = classes[i % len(classes)]
        edges += [(u, host.n + i) for u in range(host.n) if host.has_edge(u, v)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _false_twin_draws():
    """Six dim and six no-dim false-twin expansions of connected P9-free
    14-vertex planted hosts, as (seed, classes, n, graph, expected status).

    A false twin of degree >= 2 is unmatched in every d.i.m. (matched to
    a, its twin would be white and force a second black neighbour onto
    it), so the expansion has a d.i.m. iff some host d.i.m. leaves every
    expanded vertex unmatched.  Induced paths on 4+ vertices meet a twin
    class at most once, so the expansions stay P9-free like their hosts.
    """
    rng = random.Random(6)
    todo = {"dim": 6, "no-dim": 6}
    seed = 0
    while any(todo.values()):
        seed += 1
        host = gen_planted(14, 4, 10, seed).graph
        if len(connected_components(host)) != 1 or induced_paths_naive(host, 9):
            continue
        matched = [{v for e in m for v in e} for m in all_dims(host)]
        pool = [v for v in range(host.n) if host.rows[v].bit_count() >= 2]
        rng.shuffle(pool)
        size = rng.randint(1, 2)
        classes = []
        for v in pool:
            if len(classes) < size and not any(host.has_edge(v, u) for u in classes):
                classes.append(v)
        expected = "dim" if any(not m & set(classes) for m in matched) else "no-dim"
        if not todo[expected]:
            continue
        todo[expected] -= 1
        n = rng.randint(40, 80)
        yield seed, classes, n, _false_twin_expansion(host, classes, n, rng), expected


def test_false_twin_expansions_at_size():
    # The default solve settles these with the search that runs first;
    # under ENGINE_ONLY the root facts decide eight of the twelve, and the
    # engine reaches its family branching on the other four, on families
    # made of many interchangeable twins.
    for seed, classes, n, g, expected in _false_twin_draws():
        out = solve(g)
        assert out.status == expected, (seed, classes, n, out.reason)
        assert out.p9_checked
        assert out.stats["branches"] <= n * n  # one component of n vertices
        if out.status == "dim":
            assert verify_dim(g, out.matching).ok
        assert solve(g, ENGINE_ONLY).status == expected


def test_engine_agrees_with_oracle_on_a_live_family():
    # one trial leaves a family whose members with outside contacts and
    # plain members both stay live; the engine's search over it agrees
    # with the oracle like the default solve
    g = Graph.from_edges(14, [
        (0, 1), (0, 8), (0, 11), (1, 11), (1, 12), (2, 3), (2, 9), (2, 12), (4, 5),
        (4, 12), (5, 11), (5, 13), (6, 7), (6, 9), (7, 10), (7, 11), (7, 12), (7, 13),
    ])
    _assert_agrees_with_oracle(g, solve(g, ENGINE_ONLY))
    _assert_agrees_with_oracle(g, solve(g))


# (host seed, expanded classes, n, relabelling seed) -> solve(g, ENGINE_ONLY)
# .to_json() of verified P9-free false-twin expansions whose trials reach
# the engine's per-component search; recorded while the engine still had
# its class-specific reductions, which these pins show changed no
# certificate, reason or counter.  The four no-dim pins were re-derived
# when the root facts came ahead of the search: each is refuted there in 0
# branches, before the engine runs.  The host91 reason was re-derived when
# propagation moved to waves of masks, which moves only the contradiction
# reported first.  The three dim pins were re-derived when the engine came
# to start from the root facts and the zero-budget search stopped counting
# the branch it refuses: the matchings stay, host15 needs 2 trials (was 5)
# and host37 4 (was 8), and no piece search branches any more (branches 2,
# 3, 3 -> 0).  host37's forced_edges was re-derived (3 -> 4) when the
# trial stopped building levels and came to count every pair its pair's
# propagation mates; its matching stays.
IN_CLASS_PINS = [
    ((15, (11, 12), 40, 151),
     '{"status": "dim", "matching": [[0, 1], [6, 8], [10, 20], [30, 34]], "reason": null, '
     '"stats": {"edges_tried": 2, "forced_edges": 2, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
    ((37, (8,), 27, 372),
     '{"status": "dim", "matching": [[1, 10], [8, 18], [12, 25], [17, 24]], "reason": null, '
     '"stats": {"edges_tried": 4, "forced_edges": 4, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
    ((98, (9, 13), 20, 983),
     '{"status": "dim", "matching": [[2, 15], [3, 6], [5, 7], [11, 13]], "reason": null, '
     '"stats": {"edges_tried": 2, "forced_edges": 2, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
    ((17, (4, 12), 29, 172),
     '{"status": "no-dim", "matching": [], "reason": "root facts: white-white-edge at 0,1", '
     '"stats": {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
    ((91, (0,), 35, 913),
     '{"status": "no-dim", "matching": [], "reason": "root facts: black-unmatchable at 14", '
     '"stats": {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
    ((185, (5,), 36, 1850),
     '{"status": "no-dim", "matching": [], "reason": "root facts: black-unmatchable at 8", '
     '"stats": {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
    ((130, (5, 7), 20, 1300),
     '{"status": "no-dim", "matching": [], "reason": "root facts: two-black-neighbors at '
     '15,6,10", "stats": {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}, '
     '"p9_checked": true}'),
]

# (deg3_graph index, edge draw seed) -> solve(g, ENGINE_ONLY).to_json() of
# verified P9-free cubic no-instances (`cubic_no_dim`): no pendant and no
# twin, so no root fact, and the engine refutes them at its first centre.
# They keep the engine's no-dim route covered now that the root facts
# refute the four no-dim pins above before the engine runs.  Their counts
# of branches were re-derived (1 -> 0) when the zero-budget search stopped
# counting the branch it refuses.
CUBIC_ENGINE_PINS = [
    ((6, 1),
     '{"status": "no-dim", "matching": [], "reason": "no matching edge fits at vertex 1: '
     'white-white-edge at 5,7", "stats": {"edges_tried": 3, "forced_edges": 0, "branches": 0, '
     '"millis": 0}, "p9_checked": true}'),
    ((16, 0),
     '{"status": "no-dim", "matching": [], "reason": "no matching edge fits at vertex 0: '
     'black-unmatchable at 11", "stats": {"edges_tried": 3, "forced_edges": 0, "branches": 0, '
     '"millis": 0}, "p9_checked": true}'),
    ((98, 1),
     '{"status": "no-dim", "matching": [], "reason": "no matching edge fits at vertex 6: '
     'conflict at 6", "stats": {"edges_tried": 5, "forced_edges": 0, "branches": 0, '
     '"millis": 0}, "p9_checked": true}'),
    ((16, 3),
     '{"status": "no-dim", "matching": [], "reason": "no matching edge fits at vertex 5: '
     'two-black-neighbors at 2,4,6", "stats": {"edges_tried": 6, "forced_edges": 0, '
     '"branches": 0, "millis": 0}, "p9_checked": true}'),
]


def _pinned_graph(host_seed, classes, n, relabel_seed):
    return _false_twin_expansion(
        gen_planted(14, 4, 10, host_seed).graph, classes, n, random.Random(relabel_seed)
    )


def _cubic_pinned_graphs():
    return [cubic_no_dim(*case) for case, _ in CUBIC_ENGINE_PINS]


@pytest.mark.parametrize(
    "case,want", IN_CLASS_PINS, ids=[f"host{c[0]}-n{c[2]}" for c, _ in IN_CLASS_PINS]
)
def test_in_class_engine_outputs_pinned(case, want):
    g = _pinned_graph(*case)
    assert classify_p9(g)[0] == P9_VERIFIED
    assert solve(g, ENGINE_ONLY).to_json() == want
    _assert_agrees_with_oracle(g, solve(g))


@pytest.mark.parametrize(
    "case,want", CUBIC_ENGINE_PINS, ids=[f"deg3-{i}-{s}" for (i, s), _ in CUBIC_ENGINE_PINS]
)
def test_cubic_engine_outputs_pinned(case, want):
    g = cubic_no_dim(*case)
    assert classify_p9(g)[0] == P9_VERIFIED
    assert root_facts(g, degree_classes(g, g.full_mask())) == (0, 0)
    assert solve(g, ENGINE_ONLY).to_json() == want
    _assert_agrees_with_oracle(g, solve(g))


def test_search_decides_before_the_engine(corpus7, monkeypatch):
    graphs = [
        *corpus7, *_gnp_draws(), *(_pinned_graph(*case) for case, _ in IN_CLASS_PINS),
        *_cubic_pinned_graphs(),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran although the search had budget left")

    monkeypatch.setattr(dimkit.driver, "try_edge", refuse)
    outcomes = [solve(g) for g in graphs]
    monkeypatch.undo()
    for g, out in zip(graphs, outcomes):
        _assert_agrees_with_oracle(g, out)
    # a one-branch search runs out, and the engine then decides
    for g in (cycle_graph(9), cubic_no_dim(*CUBIC_ENGINE_PINS[0][0])):
        out = solve(g, SolveConfig(branch_budget=1))
        assert out.stats["edges_tried"] > 0
        _assert_agrees_with_oracle(g, out)


def _radius(g):
    x = central_vertex(g)
    return sum(1 for _ in bfs_layers(g, 1 << x, g.full_mask()))


def _radius_four_graphs(seed, count):
    """count connected P9-free graphs of radius four, grown at random from
    a nine-cycle: each step adds a vertex joined to one to three others, or
    an edge, and is kept only while the radius stays four and the P9 scan
    verifies."""
    rng = random.Random(seed)
    g = cycle_graph(9)
    out = []
    while len(out) < count:
        n = g.n
        if n < 20 and rng.random() < 0.6:
            extra = [(v, n) for v in rng.sample(range(n), rng.randint(1, 3))]
            cand = Graph.from_edges(n + 1, g.edges() + extra)
        else:
            u, v = sorted(rng.sample(range(n), 2))
            cand = Graph.from_edges(n, g.edges() + [(u, v)])
        if cand != g and _radius(cand) == 4 and classify_p9(cand)[0] == P9_VERIFIED:
            g = cand
            out.append(g)
    return out


def test_p9_free_levels_never_run_deeper_than_four(corpus8):
    # A connected graph of radius r has an induced path on 2r - 1 vertices
    # (Erdos, Saks & Sos 1986), so a P9-free piece has radius <= 4 and the
    # levels of every edge at its central vertex fit in four.  This guards
    # the paper's lemma and the levels `dimkit explain` lays out: on
    # verified input explain never reports radius-exceeded at a centre.
    graphs = [
        *corpus8,
        *(draw[3] for draw in _false_twin_draws()),
        *(_pinned_graph(*case) for case, _ in IN_CLASS_PINS),
        *(h for seed in range(3) for h in _radius_four_graphs(seed, 25)),
    ]
    trials = 0
    for g in graphs:
        assert classify_p9(g)[0] == P9_VERIFIED
        for comp in connected_components(g):
            x = central_vertex(g, comp)
            for y in bits(g.rows[x] & comp):
                build_levels(g, comp, x, y)  # raises past four levels
                trials += 1
    assert trials > len(graphs)
