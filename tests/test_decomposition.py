import random

import pytest

from dimkit.coloring import Coloring
from dimkit.decomposition import (
    MAX_RADIUS,
    RadiusExceeded,
    build_levels,
    forced_and_anchors,
    trial_facts as trial_stage,
)
from dimkit.graph import Graph, bits, central_vertex, connected_components
from conftest import cycle_graph, path_graph
from naive_reference import assert_trial_facts_sound, trial_facts


def test_levels_on_middle_edge_of_path():
    g = path_graph(7)
    levels = build_levels(g, g.full_mask(), 1, 2)
    assert levels == [0b0000110, 0b0001001, 0b0010000, 0b0100000, 0b1000000]


def test_initial_facts_on_middle_edge_of_path():
    g = path_graph(7)
    c = Coloring(g)
    levels, bad = trial_stage(c, g.full_mask(), 1, 2)
    assert bad is None
    # the trial pair itself is committed, the far end resolves by forcing:
    # lone second-level vertex 4 goes black, drags 5 with it
    forced, anchors = forced_and_anchors(c, levels)
    assert (1, 2) in forced
    assert c.white == 0b1001001
    assert c.black == 0b0110110
    assert c.partner(4) == 5
    assert anchors == [4]


def test_off_center_trial_on_path_refutes():
    status, reason = trial_facts(path_graph(7), 2, 3)
    assert status == "infeasible"
    assert "black-unmatchable" in reason


def test_square_trial_refutes():
    status, reason = trial_facts(cycle_graph(4), 0, 1)
    assert status == "infeasible"
    assert "white-white" in reason


def test_radius_guard_raises():
    g = path_graph(8)
    with pytest.raises(RadiusExceeded) as exc:
        build_levels(g, g.full_mask(), 0, 1)
    assert exc.value.vertex == 6
    # a path filling level 0 plus exactly MAX_RADIUS rings still fits
    g = path_graph(2 + MAX_RADIUS)
    assert len(build_levels(g, g.full_mask(), 0, 1)) == 1 + MAX_RADIUS


def test_adjacent_second_level_pair_is_forced():
    # x=0,y=1; first level 2,3; second level 4-5 joined by an edge with no
    # other second-level neighbors: that edge must be matched
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
    status, payload = trial_facts(g, 0, 1)
    assert status == "ok"
    forced, white, black = payload
    assert (4, 5) in forced
    assert white == 0b001100


def test_propagation_whitens_a_third_level_vertex_of_two_anchors():
    # two isolated second-level anchors 4,5 with a common third-level
    # neighbor 6: 6 is an unknown vertex with two black neighbors, so the
    # root pair's propagation whitens it, and the anchors take their
    # private neighbors 7 and 8 instead
    g = Graph.from_edges(9, [
        (0, 1), (0, 2), (1, 3), (2, 4), (3, 5),
        (4, 6), (5, 6), (4, 7), (5, 8),
    ])
    c = Coloring(g)
    levels, bad = trial_stage(c, g.full_mask(), 0, 1)
    assert bad is None
    assert forced_and_anchors(c, levels)[1] == [4, 5]
    assert c.white >> 6 & 1
    assert c.partner(4) == 7 and c.partner(5) == 8


# -- soundness harness -------------------------------------------------------


def test_trial_facts_sound_on_small_corpus(corpus7):
    confirmed = 0
    for g in corpus7:
        if g.n < 2:
            continue
        x = central_vertex(g)
        for y in bits(g.rows[x]):
            confirmed += assert_trial_facts_sound(g, x, y)
    assert confirmed > 1000


def test_pair_clashes_past_the_radius_are_checked():
    # the harness runs the trial's own order, so a pair that clashes is a
    # refutation checked against the oracle even where some vertex lies
    # past four levels, as on the path's end edge; only a surviving pair
    # whose levels run too deep is skipped
    assert trial_facts(path_graph(7), 0, 1) == ("infeasible", "black-unmatchable at 6")
    assert assert_trial_facts_sound(path_graph(7), 0, 1)
    rng = random.Random(3909)
    checked = skipped = 0
    for _ in range(300):
        n = rng.randint(9, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        g = Graph.from_edges(n, edges)
        for u, v in edges:
            try:
                build_levels(g, g.full_mask(), u, v)
            except RadiusExceeded:
                status, _ = trial_facts(g, u, v)
                checked += status == "infeasible"
                skipped += status == "skip"
            assert_trial_facts_sound(g, u, v)
    assert (checked, skipped) == (202, 53)


# (n, edges) for the trial (0, 1): two level shapes the pair's propagation
# meets
WHITENING_GADGETS = (
    # anchors 4 and 5 share the third-level vertex 6 and have private
    # neighbors 7 and 8: propagation whitens 6 (rule (e))
    (9, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (4, 7), (5, 8)]),
    # anchor 3 with family {4, 5}, each member holding a private fourth-level
    # neighbor 6 and 7 with no fourth-level neighbor: the facts leave 6 and
    # 7 unknown, and the piece search settles them
    (8, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 7)]),
)


def test_trial_facts_sound_on_random_graphs():
    rng = random.Random(55155)
    ran = 0
    for _ in range(600):
        n = rng.randint(4, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        u, v = edges[rng.randrange(len(edges))]
        assert_trial_facts_sound(g, u, v)
        ran += 1
    assert ran > 500
    # the gadgets plus random edges at up to four extra vertices
    for _ in range(400):
        base, edges = rng.choice(WHITENING_GADGETS)
        n = rng.randint(base, base + 4)
        extra = [(u, v) for v in range(base, n) for u in range(v) if rng.random() < 0.15]
        assert_trial_facts_sound(Graph.from_edges(n, edges + extra), 0, 1)


def test_trial_facts_leave_no_unknown_beside_a_white(corpus7):
    # After the facts no unknown vertex of the scope has a white neighbor:
    # the pair's propagation runs to its fixpoint.  Unknown L4 vertices are
    # rare in G(n, p) at n <= 14, so gadgets with random extra vertices
    # join the corpus: the lone-L4 gadget, and the same with its
    # fourth-level vertices 6 and 7 joined.
    rng = random.Random(2626)
    graphs = list(corpus7)
    for _ in range(1000):
        n = rng.randint(2, 14)
        p = rng.choice((0.15, 0.2, 0.25))
        graphs.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        ))
    far = WHITENING_GADGETS[1][1]
    for _ in range(400):
        edges = rng.choice((far, far + [(6, 7)]))
        n = rng.randint(8, 12)
        extra = [(u, v) for v in range(8, n) for u in range(v) if rng.random() < 0.15]
        graphs.append(Graph.from_edges(n, edges + extra))
    checked = with_l4 = 0
    for g in graphs:
        for comp in connected_components(g):
            for x in bits(comp):
                for y in bits(g.rows[x] >> (x + 1) << (x + 1)):
                    c = Coloring(g)
                    try:
                        levels, bad = trial_stage(c, comp, x, y)
                    except RadiusExceeded:
                        continue
                    if bad is not None:
                        continue
                    l4 = levels[4] if len(levels) > 4 else 0
                    unknown = c.unknown_mask(comp)
                    for v in bits(unknown):
                        assert not g.rows[v] & c.white, (g.edges(), x, y, v)
                    checked += 1
                    with_l4 += bool(unknown & l4)
    assert checked > 2000 and with_l4 > 50, (checked, with_l4)
