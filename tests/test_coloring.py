import random

import pytest

from dimkit.coloring import (
    BLACK,
    UNKNOWN,
    WHITE,
    Coloring,
    Contradiction,
    assign_and_propagate,
    extract_matching,
    force_pair,
    is_complete_feasible,
    parse_matching,
    search,
    serialize_matching,
)
from dimkit.graph import Graph, bits
from conftest import cycle_graph, path_graph, star_graph


def test_white_forces_neighbors_black():
    g = star_graph(4)  # center 0, leaves 1..3
    c = Coloring(g)
    assert assign_and_propagate(c, 1, WHITE) is None
    # center must be black; it then needs a partner among the other leaves,
    # but with two candidates nothing more is forced
    assert c.color_of(0) == BLACK
    assert c.color_of(2) == UNKNOWN
    assert c.color_of(3) == UNKNOWN


def test_adjacent_blacks_partner_and_whiten():
    g = cycle_graph(6)
    c = Coloring(g)
    assert assign_and_propagate(c, 2, BLACK) is None
    assert assign_and_propagate(c, 1, BLACK) is None
    assert c.partner(1) == 2 and c.partner(2) == 1
    # neighbors of the pair whiten, and the whitening cascades around
    # the cycle to the opposite pair
    assert c.color_of(0) == WHITE
    assert c.color_of(3) == WHITE
    assert c.partner(4) == 5
    assert is_complete_feasible(c)


def test_black_pair_on_path_five_refutes():
    # committing edge (1,2) on a five-path strands vertex 4
    g = path_graph(5)
    c = Coloring(g)
    assert assign_and_propagate(c, 2, BLACK) is None
    bad = assign_and_propagate(c, 1, BLACK)
    assert bad is not None and bad.rule == "black-unmatchable"
    assert bad.witnesses == (4,)


def test_p4_middle_pair_completes():
    g = path_graph(4)
    c = Coloring(g)
    assert force_pair(c, 1, 2) is None
    assert c.white == 0b1001
    assert is_complete_feasible(c)
    assert extract_matching(c) == ((1, 2),)


def test_two_black_neighbors_contradiction():
    g = path_graph(3)
    c = Coloring(g)
    c._set(0, BLACK)
    c._set(1, BLACK)
    c._set(2, BLACK)
    bad = c.propagate()
    assert bad is not None
    assert bad.rule == "two-black-neighbors"


def test_white_white_contradiction():
    g = path_graph(2)
    c = Coloring(g)
    c._set(0, WHITE)
    c._set(1, WHITE)
    bad = c.propagate()
    assert bad is not None and bad.rule == "white-white-edge"


def test_black_unmatchable_contradiction():
    g = path_graph(3)
    c = Coloring(g)
    c._set(0, WHITE)
    c._set(2, WHITE)
    bad = c.propagate()
    # middle vertex turns black with both neighbors white
    assert bad is not None and bad.rule == "black-unmatchable"
    assert bad.witnesses == (1,)


def test_conflicting_assignment():
    g = path_graph(3)
    c = Coloring(g)
    assert assign_and_propagate(c, 0, WHITE) is None
    bad = c._set(0, BLACK)
    assert bad is not None and bad.rule == "conflict"


def test_single_candidate_partner_forced():
    # deg-1 black vertex: its only neighbor must be its partner,
    # and the forcing chains down the whole path
    g = path_graph(5)
    c = Coloring(g)
    assert assign_and_propagate(c, 0, BLACK) is None
    assert c.partner(0) == 1
    assert c.color_of(2) == WHITE
    assert c.partner(3) == 4
    assert is_complete_feasible(c)
    assert extract_matching(c) == ((0, 1), (3, 4))


def test_snapshot_restore():
    g = star_graph(5)
    c = Coloring(g)
    assert assign_and_propagate(c, 1, WHITE) is None
    assert c.color_of(0) == BLACK
    snap = c.snapshot()
    assert assign_and_propagate(c, 2, WHITE) is None
    assert c.color_of(2) == WHITE
    # the centre pairs with leaf 3 only after the snapshot
    assert assign_and_propagate(c, 3, BLACK) is None
    assert c.mated == 0b1001 and c.unmated_black_mask() == 0
    assert c.partner(0) == 3
    c.restore(snap)
    assert c.color_of(2) == UNKNOWN
    assert c.color_of(0) == BLACK
    assert c.mated == 0
    assert c.unmated_black_mask() == 0b1
    assert not c.dirty


def _random_graph(rng):
    n = rng.randint(2, 30)
    p = rng.choice((0.1, 0.2, 0.3, 0.5))
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_fixpoint_unknowns_see_only_unmated_blacks():
    # The complete search ranks unknown vertices by unmated black neighbors
    # alone; that equals their colored-neighbor count only because a
    # propagation fixpoint leaves no unknown vertex beside a white or a
    # mated black.  `mated` is what the colors say it is: the blacks with
    # exactly one black neighbor, paired off by `partner`.
    rng = random.Random(13)
    checked = 0
    for _ in range(400):
        g = _random_graph(rng)
        c = Coloring(g)
        for _ in range(2 * g.n):
            unknown = list(bits(c.unknown_mask()))
            if not unknown:
                break
            v = rng.choice(unknown)
            snap = c.snapshot()
            if g.rows[v] and rng.random() < 0.3:
                bad = force_pair(c, v, rng.choice(g.neighbors(v)))
            else:
                bad = assign_and_propagate(c, v, rng.choice((WHITE, BLACK)))
            if bad is not None:
                c.restore(snap)
                continue
            assert c.mated == sum(
                1 << u for u in bits(c.black) if (g.rows[u] & c.black).bit_count() == 1
            )
            for u in bits(c.mated):
                w = c.partner(u)
                assert g.rows[u] & c.black == 1 << w and c.partner(w) == u, (g.edges(), u)
            for u in bits(c.unknown_mask()):
                assert not g.rows[u] & c.white, (g.edges(), u)
                assert not g.rows[u] & c.black & c.mated, (g.edges(), u)
            checked += 1
    assert checked > 1000


def test_partner_clash_on_diamond():
    # Diamond with spine 0-3 and tips 1, 2.  Whitening 0 blackens the rest;
    # tip 1 pairs with 3 first, so tip 2 finds its only black neighbor
    # already taken.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    c = Coloring(g)
    bad = assign_and_propagate(c, 0, WHITE)
    assert bad == Contradiction("partner-clash", (2, 3))
    assert c.mated == 0b1010 and c.partner(3) == 1
    # With tip 2 black first, 2 pairs with 3 and tip 1 clashes.  Vertex 3
    # is left with two black neighbors; its partner is still 2, the mated
    # one, not its lowest black neighbor 1.
    c = Coloring(g)
    assert assign_and_propagate(c, 2, BLACK) is None
    bad = assign_and_propagate(c, 0, WHITE)
    assert bad == Contradiction("partner-clash", (1, 3))
    assert c.mated == 0b1100 and c.partner(3) == 2 and c.partner(2) == 3


def test_force_pair_requires_edge():
    g = path_graph(3)
    with pytest.raises(ValueError):
        force_pair(Coloring(g), 0, 2)


def test_force_pair_contradicts_on_square():
    g = cycle_graph(4)
    c = Coloring(g)
    assert force_pair(c, 0, 1) is not None


def test_incomplete_not_feasible():
    g = star_graph(4)
    c = Coloring(g)
    assert assign_and_propagate(c, 1, WHITE) is None
    # center black, two leaves still undecided
    assert c.unknown_mask() == 0b1100
    assert not is_complete_feasible(c)


def test_scoped_feasibility_ignores_outside():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    c = Coloring(g)
    assert force_pair(c, 0, 1) is None
    assert is_complete_feasible(c, scope=0b00011)
    assert extract_matching(c, scope=0b00011) == ((0, 1),)


def _first_unknown(c):
    return next(bits(c.unknown_mask()), -1)


def test_search_colors_a_path():
    g = path_graph(5)  # its only d.i.m. is (0,1), (3,4)
    c = Coloring(g)
    assert search(c, g.full_mask(), _first_unknown, 100) == ("colored", 1)
    assert is_complete_feasible(c)
    assert extract_matching(c) == ((0, 1), (3, 4))


def test_search_exhausts_a_square():
    g = cycle_graph(4)
    c = Coloring(g)
    status, branches = search(c, g.full_mask(), _first_unknown, 100)
    assert status == "infeasible"
    assert branches >= 2  # both colors of the first vertex were tried


def test_search_stops_past_the_budget():
    g = path_graph(5)
    assert search(Coloring(g), g.full_mask(), _first_unknown, 0) == ("budget", 1)


def test_matching_roundtrip():
    m = ((1, 2), (5, 9))
    assert parse_matching(serialize_matching(m)) == m
    assert parse_matching("# comment\n\n9 5\n2 1\n") == m


@pytest.mark.parametrize("text", ["1\n", "1 2 3\n", "a b\n"])
def test_matching_parse_errors(text):
    with pytest.raises(ValueError):
        parse_matching(text)
