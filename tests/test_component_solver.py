"""Focused tests for the engine's xy-trial.  End-to-end behavior is
covered by the driver tests; here we freeze a few instances whose trials
survive the level facts with real work left, and run them through
`try_edge` or through `search` on the prepared pieces."""

import dimkit.component_solver
from dimkit.coloring import Coloring, branch_pick, extract_matching, search
from dimkit.component_solver import try_edge
from dimkit.decomposition import apply_initial_facts, build_levels
from dimkit.graph import Graph, connected_components, degree_classes
from dimkit.oracle import all_dims
from conftest import cycle_graph
from naive_reference import coloring_is_complete_dim

# trial (4,5) leaves one undecided component that needs one branch
BRANCHY = Graph.from_edges(11, [
    (0, 1), (0, 6), (0, 8), (1, 4), (2, 6), (2, 10), (3, 10),
    (4, 5), (4, 7), (7, 10), (9, 10),
])

# trial (6,7) has no completion; the level facts refute it
DOOMED = Graph.from_edges(9, [
    (0, 3), (0, 5), (0, 8), (1, 2), (1, 5), (2, 8), (3, 6), (4, 5), (4, 8), (6, 7),
])

# two anchors whose families hang an L4 path between them; the search
# branches on member 6 of anchor 4's family first, and 6 black colors
# the rest
BRIDGED = Graph.from_edges(13, [
    (0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 7), (5, 8), (5, 9),
    (6, 10), (7, 11), (8, 12), (10, 11), (11, 12),
])


def _prepared_trial(g, x, y):
    c = Coloring(g)
    dec = build_levels(g, g.full_mask(), x, y, c)
    assert apply_initial_facts(dec) is None
    active = c.unknown_mask(dec.scope) | c.unmated_black_mask(dec.scope)
    return dec, c, connected_components(g, active)


def _searched(g, dec, piece, budget):
    return search(dec.coloring, branch_pick(g, piece, degree_classes(g, piece, piece)), budget)


def _trial(g, x, y):
    c = Coloring(g)
    stats = {"branches": 0, "forced_edges": 0}
    return try_edge(g, g.full_mask(), x, y, c, stats), c, stats


def test_branching_piece_colored():
    dec, c, pieces = _prepared_trial(BRANCHY, 4, 5)
    assert len(pieces) == 1
    assert _searched(BRANCHY, dec, pieces[0], 512) == ("colored", 1)
    assert coloring_is_complete_dim(c, dec.scope)
    got = extract_matching(c, dec.scope)
    assert got in [m for m in all_dims(BRANCHY) if (4, 5) in m]
    assert got == ((0, 8), (2, 10), (4, 5))  # black-first branching order
    (status, _), c, stats = _trial(BRANCHY, 4, 5)
    assert status == "dim" and stats == {"branches": 1, "forced_edges": 1}
    assert extract_matching(c) == got


def test_branch_budget_reports_budget(monkeypatch):
    dec, _, pieces = _prepared_trial(BRANCHY, 4, 5)
    assert _searched(BRANCHY, dec, pieces[0], 0) == ("budget", 1)
    # through the trial, whose cap for this 7-vertex piece is 64 branches
    real_search = dimkit.component_solver.search
    monkeypatch.setattr(
        dimkit.component_solver, "search", lambda c, pick, budget: real_search(c, pick, 0)
    )
    (status, reason), c, _ = _trial(BRANCHY, 4, 5)
    assert (status, reason) == ("undecided", "branch budget 64 exhausted")
    assert c.snapshot() == Coloring(BRANCHY).snapshot()


def test_doomed_piece_reports_infeasible():
    assert not [m for m in all_dims(DOOMED) if (6, 7) in m]
    c = Coloring(DOOMED)
    dec = build_levels(DOOMED, DOOMED.full_mask(), 6, 7, c)
    assert str(apply_initial_facts(dec)) == "two-black-neighbors at 0,5,8"
    (status, reason), c, stats = _trial(DOOMED, 6, 7)
    assert (status, reason) == ("infeasible", "two-black-neighbors at 0,5,8")
    assert c.snapshot() == Coloring(DOOMED).snapshot()
    assert stats == {"branches": 0, "forced_edges": 0}


def test_bridged_families_colored_by_first_branch():
    assert [m for m in all_dims(BRIDGED) if (0, 1) in m] == [
        ((0, 1), (4, 6), (5, 9), (11, 12))
    ]
    dec, c, pieces = _prepared_trial(BRIDGED, 0, 1)
    assert len(pieces) == 1
    assert _searched(BRIDGED, dec, pieces[0], 512) == ("colored", 1)
    assert extract_matching(c, dec.scope) == ((0, 1), (4, 6), (5, 9), (11, 12))


def test_interchangeable_family_members():
    # anchor 4 can take either of 5,6; one try suffices
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)])
    dec, c, pieces = _prepared_trial(g, 0, 1)
    assert pieces == [0b1110000]
    assert _searched(g, dec, pieces[0], 256) == ("colored", 1)
    assert coloring_is_complete_dim(c, dec.scope)
    assert c.partner(4) in (5, 6)


def test_fully_propagated_trial_leaves_no_work():
    g = cycle_graph(9)
    dec, c, pieces = _prepared_trial(g, 0, 1)
    assert pieces == []
    assert coloring_is_complete_dim(c, dec.scope)
    assert extract_matching(c) == ((0, 1), (3, 4), (6, 7))
    (status, _), _, stats = _trial(g, 0, 1)
    assert status == "dim" and stats == {"branches": 0, "forced_edges": 1}


def _comb(teeth):
    """Edge 01 with 0-2-3 hanging off it; vertex 3 sees every tooth 4+i,
    each tooth holds one vertex of an induced path: the path fills L4."""
    edges = [(0, 1), (0, 2), (2, 3)]
    for i in range(teeth):
        edges += [(3, 4 + i), (4 + i, 4 + teeth + i)]
    edges += [(4 + teeth + i, 5 + teeth + i) for i in range(teeth - 1)]
    return Graph.from_edges(4 + 2 * teeth, edges)


def test_long_l4_path_refuted_without_recursion():
    # the trial (0,1) has no completion: 3's partner is one tooth, every
    # other tooth is white, so the path is black but for one vertex
    assert not [m for m in all_dims(_comb(6)) if (0, 1) in m]
    for teeth in (6, 1200):
        g = _comb(teeth)
        dec, _, pieces = _prepared_trial(g, 0, 1)
        assert dec.l4 == sum(1 << (4 + teeth + i) for i in range(teeth))
        assert len(pieces) == 1
        assert _searched(g, dec, pieces[0], (4 + 2 * teeth) ** 2) == ("infeasible", 2)
        (status, reason), _, _ = _trial(g, 0, 1)
        assert (status, reason) == ("infeasible", "every branch failed")
