import random
import sys

import pytest

from dimkit.coloring import Coloring
from dimkit.decomposition import (
    MAX_RADIUS,
    RadiusExceeded,
    apply_initial_facts,
    build_levels,
)
from dimkit.graph import Graph, bits, central_vertex, connected_components
from conftest import cycle_graph, path_graph
from naive_reference import assert_trial_facts_sound, trial_facts


def test_levels_on_middle_edge_of_path():
    g = path_graph(7)
    c = Coloring(g)
    dec = build_levels(g, g.full_mask(), 1, 2, c)
    assert dec.levels[0] == 0b0000110
    assert dec.l1 == 0b0001001
    assert dec.l2 == 0b0010000
    assert dec.l3 == 0b0100000
    assert dec.l4 == 0b1000000


def test_initial_facts_on_middle_edge_of_path():
    g = path_graph(7)
    c = Coloring(g)
    dec = build_levels(g, g.full_mask(), 1, 2, c)
    assert apply_initial_facts(dec) is None
    # the trial pair itself is committed, the far end resolves by forcing:
    # lone second-level vertex 4 goes black, drags 5 with it
    assert (1, 2) in dec.forced
    assert c.white == 0b1001001
    assert c.black == 0b0110110
    assert c.partner(4) == 5
    assert dec.anchors == [4]


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
        build_levels(g, g.full_mask(), 0, 1, Coloring(g))
    assert exc.value.vertex == 6
    # a path filling level 0 plus exactly MAX_RADIUS rings still fits
    g = path_graph(2 + MAX_RADIUS)
    dec = build_levels(g, g.full_mask(), 0, 1, Coloring(g))
    assert len(dec.levels) == 1 + MAX_RADIUS


def test_adjacent_second_level_pair_is_forced():
    # x=0,y=1; first level 2,3; second level 4-5 joined by an edge with no
    # other second-level neighbors: that edge must be matched
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
    status, payload = trial_facts(g, 0, 1)
    assert status == "ok"
    forced, white, black = payload
    assert (4, 5) in forced
    assert white == 0b001100


def test_shared_third_level_vertex_of_two_anchors_is_white():
    # two isolated second-level anchors 4,5 with a common third-level
    # neighbor 6: 6 cannot be matched, so the anchors take their private
    # neighbors 7 and 8 instead
    g = Graph.from_edges(9, [
        (0, 1), (0, 2), (1, 3), (2, 4), (3, 5),
        (4, 6), (5, 6), (4, 7), (5, 8),
    ])
    c = Coloring(g)
    dec = build_levels(g, g.full_mask(), 0, 1, c)
    assert apply_initial_facts(dec) is None
    assert sorted(dec.anchors) == [4, 5]
    assert dec.s3_mask == 1 << 6
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


# (n, edges) for the trial (0, 1), one per whitening rule
WHITENING_GADGETS = (
    # anchors 4 and 5 share the third-level vertex 6 and have private
    # neighbors 7 and 8: shared-L3 whitening
    (9, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (4, 7), (5, 8)]),
    # anchor 3 with family {4, 5}, each member holding a private fourth-level
    # neighbor 6 and 7 with no fourth-level neighbor: far-layer whitening
    (8, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 7)]),
)


def test_trial_facts_sound_on_random_graphs(monkeypatch):
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
    # the gadgets plus random edges at up to four extra vertices reach both
    # whitening rules; a rule fired when apply_initial_facts itself called
    # Coloring.extend with some whites in L3 (shared) or in L4 (far layer)
    fired = set()
    real_extend = Coloring.extend

    def spy(self, white=0, black=0):
        caller = sys._getframe(1)
        if caller.f_code is apply_initial_facts.__code__:
            dec = caller.f_locals["dec"]
            if white & dec.l3:
                fired.add("shared")
            if white & dec.l4:
                fired.add("far")
        return real_extend(self, white, black)

    monkeypatch.setattr(Coloring, "extend", spy)
    shared = far = 0
    for _ in range(400):
        base, edges = rng.choice(WHITENING_GADGETS)
        n = rng.randint(base, base + 4)
        extra = [(u, v) for v in range(base, n) for u in range(v) if rng.random() < 0.15]
        fired.clear()
        assert_trial_facts_sound(Graph.from_edges(n, edges + extra), 0, 1)
        shared += "shared" in fired
        far += "far" in fired
    assert shared >= 5 and far >= 5, (shared, far)


def test_one_lone_l4_sweep_reaches_the_fixpoint(corpus7):
    # After the facts no unknown vertex of the scope has a white neighbor,
    # and every unknown L4 vertex keeps a non-white L4 neighbor: a second
    # lone-L4 sweep would whiten nothing.  Unknown L4 vertices are rare in
    # G(n, p) at n <= 14, so gadgets with random extra vertices join the
    # corpus: the far-layer gadget, and the same with its fourth-level
    # vertices 6 and 7 joined, which leaves both unknown.
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
                        dec = build_levels(g, comp, x, y, c)
                    except RadiusExceeded:
                        continue
                    if apply_initial_facts(dec) is not None:
                        continue
                    unknown = c.unknown_mask(comp)
                    for v in bits(unknown):
                        assert not g.rows[v] & c.white, (g.edges(), x, y, v)
                    for v in bits(unknown & dec.l4):
                        assert g.rows[v] & dec.l4 & ~c.white, (g.edges(), x, y, v)
                    checked += 1
                    with_l4 += bool(unknown & dec.l4)
    assert checked > 2000 and with_l4 > 50, (checked, with_l4)
