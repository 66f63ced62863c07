"""Focused tests for the engine's xy-trial.  End-to-end behavior is
covered by the driver tests; here we freeze a few instances whose trials
survive the pair's propagation with real work left, and run them through
`try_edge` or through `search` on the prepared pieces."""

from dimkit.coloring import Coloring, branch_pick, extract_matching, search
from dimkit.component_solver import try_edge
from dimkit.decomposition import trial_facts
from dimkit.graph import Graph, connected_components, degree_classes, members
from dimkit.oracle import all_dims
from conftest import cycle_graph
from equivalence import deg3_graph
from naive_reference import coloring_is_complete_dim

# trial (4,5) leaves one undecided component that needs one branch
BRANCHY = Graph.from_edges(11, [
    (0, 1), (0, 6), (0, 8), (1, 4), (2, 6), (2, 10), (3, 10),
    (4, 5), (4, 7), (7, 10), (9, 10),
])

# trial (6,7) has no completion; the pair's propagation survives and the
# piece search refutes it in two branches
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
    levels, bad = trial_facts(c, g.full_mask(), x, y)
    assert bad is None
    active = c.unknown_mask() | c.black & ~c.mated
    return levels, c, connected_components(g, active)


def _searched(g, c, piece, budget):
    return search(c, branch_pick(g, piece, degree_classes(g, members(piece), piece)), budget)


def _trial(g, x, y, budget=4096):
    c = Coloring(g)
    stats = {"branches": 0, "forced_edges": 0}
    return try_edge(g, g.full_mask(), x, y, c, stats, budget), c, stats


def test_branching_piece_colored():
    _, c, pieces = _prepared_trial(BRANCHY, 4, 5)
    assert len(pieces) == 1
    assert _searched(BRANCHY, c, pieces[0], 512) == ("colored", 1)
    assert coloring_is_complete_dim(c, BRANCHY.full_mask())
    got = extract_matching(c)
    assert got in [m for m in all_dims(BRANCHY) if (4, 5) in m]
    assert got == ((0, 8), (2, 10), (4, 5))  # black-first branching order
    (status, _), c, stats = _trial(BRANCHY, 4, 5)
    assert status == "dim" and stats == {"branches": 1, "forced_edges": 1}
    assert extract_matching(c) == got


def test_branch_budget_reports_budget():
    _, c, pieces = _prepared_trial(BRANCHY, 4, 5)
    assert _searched(BRANCHY, c, pieces[0], 0) == ("budget", 0)
    # through the trial, which hands its piece what the caller gave it
    (status, reason), c, stats = _trial(BRANCHY, 4, 5, budget=0)
    assert (status, reason) == ("undecided", None)
    assert c.snapshot() == Coloring(BRANCHY).snapshot()
    assert stats == {"branches": 0, "forced_edges": 0}


def test_small_budget_leaves_a_branching_piece_undecided():
    # deg3_graph(0) (n = 400) at its central vertex 17: the pair (17, 92)
    # leaves one 394-vertex piece, which the search colours in 8 branches.
    # Any budget below that gives up, spends no more than it was given,
    # and restores the master; 8 is enough.
    g = deg3_graph(0)
    for budget in (1, 5, 7):
        (status, reason), c, stats = _trial(g, 17, 92, budget)
        assert (status, reason) == ("undecided", None)
        assert stats["branches"] <= budget and stats["forced_edges"] == 0
        assert c.snapshot() == Coloring(g).snapshot()
    (status, _), c, stats = _trial(g, 17, 92, 8)
    assert status == "dim" and stats == {"branches": 8, "forced_edges": 1}
    assert coloring_is_complete_dim(c, g.full_mask())


def test_doomed_piece_reports_infeasible():
    assert not [m for m in all_dims(DOOMED) if (6, 7) in m]
    levels, bad = trial_facts(Coloring(DOOMED), DOOMED.full_mask(), 6, 7)
    assert bad is None and levels[4] == 1 << 1 | 1 << 2 | 1 << 4
    (status, reason), c, stats = _trial(DOOMED, 6, 7)
    assert (status, reason) == ("infeasible", "every branch failed")
    assert c.snapshot() == Coloring(DOOMED).snapshot()
    assert stats == {"branches": 2, "forced_edges": 0}


def test_bridged_families_colored_by_first_branch():
    assert [m for m in all_dims(BRIDGED) if (0, 1) in m] == [
        ((0, 1), (4, 6), (5, 9), (11, 12))
    ]
    _, c, pieces = _prepared_trial(BRIDGED, 0, 1)
    assert len(pieces) == 1
    assert _searched(BRIDGED, c, pieces[0], 512) == ("colored", 1)
    assert extract_matching(c) == ((0, 1), (4, 6), (5, 9), (11, 12))


def test_interchangeable_family_members():
    # anchor 4 can take either of 5,6; one try suffices
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)])
    _, c, pieces = _prepared_trial(g, 0, 1)
    assert pieces == [0b1110000]
    assert _searched(g, c, pieces[0], 256) == ("colored", 1)
    assert coloring_is_complete_dim(c, g.full_mask())
    assert c.partner(4) in (5, 6)


def test_fully_propagated_trial_leaves_no_work():
    g = cycle_graph(9)
    _, c, pieces = _prepared_trial(g, 0, 1)
    assert pieces == []
    assert coloring_is_complete_dim(c, g.full_mask())
    assert extract_matching(c) == ((0, 1), (3, 4), (6, 7))
    # forced_edges counts the three pairs the pair's propagation mated
    (status, _), _, stats = _trial(g, 0, 1)
    assert status == "dim" and stats == {"branches": 0, "forced_edges": 3}


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
        levels, c, pieces = _prepared_trial(g, 0, 1)
        assert levels[4] == sum(1 << (4 + teeth + i) for i in range(teeth))
        assert len(pieces) == 1
        assert _searched(g, c, pieces[0], 4096) == ("infeasible", 2)
        (status, reason), _, _ = _trial(g, 0, 1)
        assert (status, reason) == ("infeasible", "every branch failed")
