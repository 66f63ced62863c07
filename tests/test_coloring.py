import random

import pytest

from dimkit.coloring import (
    Coloring,
    Contradiction,
    branch_pick,
    extract_matching,
    parse_matching,
    search,
    serialize_matching,
)
from dimkit.generator import gen_c4_augmented, gen_planted
from dimkit.graph import Graph, bits, connected_components, degree_classes
from conftest import cycle_graph, path_graph, star_graph
from equivalence import deg3_graph
from naive_reference import (
    coloring_is_complete_dim,
    extend_waves_reference,
    pick_unknown_naive,
    propagate_naive,
    search_chronological_reference,
)


def test_white_forces_neighbors_black():
    g = star_graph(4)  # center 0, leaves 1..3
    c = Coloring(g)
    assert c.extend(white=1 << 1) is None
    # center must be black; it then needs a partner among the other leaves,
    # but with two candidates nothing more is forced
    assert (c.white, c.black) == (0b0010, 0b0001)


def test_adjacent_blacks_partner_and_whiten():
    g = cycle_graph(6)
    c = Coloring(g)
    assert c.extend(black=1 << 2) is None
    assert c.extend(black=1 << 1) is None
    assert c.partner(1) == 2 and c.partner(2) == 1
    # neighbors of the pair whiten, and the whitening cascades around
    # the cycle to the opposite pair
    assert c.white >> 0 & 1
    assert c.white >> 3 & 1
    assert c.partner(4) == 5
    assert coloring_is_complete_dim(c)


def test_black_pair_on_path_five_refutes():
    # committing edge (1,2) on a five-path strands vertex 4
    g = path_graph(5)
    c = Coloring(g)
    assert c.extend(black=1 << 2) is None
    bad = c.extend(black=1 << 1)
    assert bad is not None and bad.rule == "black-unmatchable"
    assert bad.witnesses == (4,)


def test_p4_middle_pair_completes():
    g = path_graph(4)
    c = Coloring(g)
    assert c.extend(black=0b0110) is None
    assert c.white == 0b1001
    assert coloring_is_complete_dim(c)
    assert extract_matching(c) == ((1, 2),)


def test_two_black_neighbors_contradiction():
    g = path_graph(3)
    c = Coloring(g)
    bad = c.extend(black=0b111)
    assert bad == Contradiction("two-black-neighbors", (1, 0, 2))


def test_white_white_contradiction():
    g = path_graph(2)
    c = Coloring(g)
    bad = c.extend(white=0b11)
    assert bad == Contradiction("white-white-edge", (0, 1))


def test_black_unmatchable_contradiction():
    g = path_graph(3)
    c = Coloring(g)
    bad = c.extend(white=0b101)
    # middle vertex turns black with both neighbors white
    assert bad is not None and bad.rule == "black-unmatchable"
    assert bad.witnesses == (1,)


def test_conflicting_assignment():
    g = path_graph(3)
    c = Coloring(g)
    assert c.extend(white=0b001) is None
    assert c.extend(black=0b001) == Contradiction("conflict", (0,))
    # one call that asks for both colors at a vertex conflicts too
    c = Coloring(g)
    assert c.extend(white=0b110, black=0b011) == Contradiction("conflict", (1,))


def test_single_candidate_partner_forced():
    # deg-1 black vertex: its only neighbor must be its partner,
    # and the forcing chains down the whole path
    g = path_graph(5)
    c = Coloring(g)
    assert c.extend(black=1 << 0) is None
    assert c.partner(0) == 1
    assert c.white >> 2 & 1
    assert c.partner(3) == 4
    assert coloring_is_complete_dim(c)
    assert extract_matching(c) == ((0, 1), (3, 4))


def test_unknown_vertex_beside_two_blacks_turns_white():
    # Vertex 1 is shared by 0 and 2, each with two more candidates (3, 5
    # and 4, 6).  Black, 1 would have two black neighbors, so rule (e)
    # whitens it; the blacks keep two candidates each and stay unpaired.
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (0, 5), (2, 4), (2, 6)])
    c = Coloring(g)
    assert c.extend(black=1 << 0 | 1 << 2) is None
    assert (c.white, c.black, c.mated) == (1 << 1, 1 << 0 | 1 << 2, 0)
    # one black at a time: the new black whitens what it shares with the
    # old one
    c = Coloring(g)
    assert c.extend(black=1 << 0) is None
    assert (c.white, c.black) == (0, 1 << 0)
    assert c.extend(black=1 << 2) is None
    assert (c.white, c.black, c.mated) == (1 << 1, 1 << 0 | 1 << 2, 0)


def test_snapshot_restore():
    g = star_graph(5)
    c = Coloring(g)
    assert c.extend(white=1 << 1) is None
    assert (c.white, c.black) == (0b00010, 0b00001)
    snap = c.snapshot()
    assert c.extend(white=1 << 2) is None
    assert c.white >> 2 & 1
    # the centre pairs with leaf 3 only after the snapshot
    assert c.extend(black=1 << 3) is None
    assert c.mated == 0b1001 and c.black & ~c.mated == 0
    assert c.partner(0) == 3
    c.restore(snap)
    assert (c.white, c.black) == (0b00010, 0b00001)
    assert c.mated == 0
    assert c.black & ~c.mated == 0b1
    assert c.snapshot() == snap


def _random_graph(rng):
    n = rng.randint(2, 30)
    p = rng.choice((0.1, 0.2, 0.3, 0.5))
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_fixpoint_unknowns_see_only_unmated_blacks():
    # The complete search ranks unknown vertices by the parity of their
    # unmated black neighbors alone; that equals their colored-neighbor
    # count only because a propagation fixpoint leaves no unknown vertex
    # beside a white, a mated black or two blacks.  `mated` is what the
    # colors say it is: the blacks with exactly one black neighbor, paired
    # off by `partner`.
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
                bad = c.extend(black=1 << v | 1 << rng.choice(g.neighbors(v)))
            else:
                bad = c.extend(*rng.choice(((1 << v, 0), (0, 1 << v))))
            # the leftover set, also of a state a contradiction left
            assert c.active_mask(g.full_mask()) == c.unknown_mask() | c.black & ~c.mated
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
                assert (g.rows[u] & c.black).bit_count() <= 1, (g.edges(), u)
            checked += 1
    assert checked > 1000


def test_diamond_tips_clash_at_the_spine():
    # Diamond with spine 0-3 and tips 1, 2.  Whitening 0 blackens the rest
    # in one wave; tip 1's only black neighbor 3 also sees tip 2, so
    # nothing pairs.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    c = Coloring(g)
    bad = c.extend(white=1 << 0)
    assert bad == Contradiction("two-black-neighbors", (3, 1, 2))
    assert (c.white, c.black, c.mated) == (0b0001, 0b1110, 0)
    # With tip 2 black first, whitening 0 also leaves 3 as 2's only
    # candidate; 3 and tip 1 turn black in the same wave, and 3 again sees
    # two black tips.
    c = Coloring(g)
    assert c.extend(black=1 << 2) is None
    bad = c.extend(white=1 << 0)
    assert bad == Contradiction("two-black-neighbors", (3, 1, 2))
    assert (c.white, c.black, c.mated) == (0b0001, 0b1110, 0)


def test_extend_reaches_the_naive_fixpoint(corpus7):
    # Waves of masks must end where the rules applied one vertex at a time
    # end: the same contradiction-or-not, and the same state when none.
    # Each random partial coloring goes in as two calls, so the second
    # starts from the fixpoint of the first.
    rng = random.Random(1818)
    graphs = list(corpus7)
    for _ in range(300):
        n, p = rng.randint(8, 40), rng.choice((0.05, 0.1, 0.2, 0.4))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    contradictions = fixpoints = 0
    for g in graphs:
        p = rng.choice((0.05, 0.1, 0.2))
        white, black = (sum(1 << v for v in range(g.n) if rng.random() < p) for _ in "wb")
        first = rng.getrandbits(g.n)
        want = propagate_naive(g, white, black)
        c = Coloring(g)
        bad = c.extend(white & first, black & first) or c.extend(white, black)
        if want is None:
            assert bad is not None, g.edges()
            contradictions += 1
        else:
            assert bad is None and (c.white, c.black, c.mated) == want, g.edges()
            fixpoints += 1
    assert contradictions >= 200 and fixpoints >= 200, (contradictions, fixpoints)


def test_extend_reports_what_the_frozen_waves_report(corpus7):
    # Which contradiction is reported, and the partly extended state it
    # leaves, depend on the order of work; root-fact and engine reasons
    # print them.  So `extend` must match the frozen wave loop call by
    # call: the same rule and witnesses, the same (white, black, mated)
    # after each call.  Each partial coloring goes in as two calls, so the
    # second starts from the state the first left.
    rng = random.Random(3232)
    graphs = list(corpus7)
    for _ in range(400):
        n, p = rng.randint(8, 60), rng.choice((0.05, 0.08, 0.12, 0.2, 0.4))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    rules = {}
    for g in graphs:
        for _ in range(3):
            p = rng.choice((0.05, 0.1, 0.2, 0.3))
            white, black = (sum(1 << v for v in range(g.n) if rng.random() < p) for _ in "wb")
            first = rng.getrandbits(g.n)
            c, ref = Coloring(g), Coloring(g)
            for w, b in ((white & first, black & first), (white, black)):
                got, want = c.extend(w, b), extend_waves_reference(ref, w, b)
                assert got == want, (g.edges(), w, b)
                assert (c.white, c.black, c.mated) == (ref.white, ref.black, ref.mated), g.edges()
                if got is not None:
                    rules[got.rule] = rules.get(got.rule, 0) + 1
                    break
    assert min(rules.values()) >= 100 and len(rules) == 4, rules


def test_black_pair_contradicts_on_square():
    g = cycle_graph(4)
    c = Coloring(g)
    assert c.extend(black=0b11) is not None


def test_incomplete_not_feasible():
    g = star_graph(4)
    c = Coloring(g)
    assert c.extend(white=1 << 1) is None
    # center black, two leaves still undecided
    assert c.unknown_mask() == 0b1100
    assert not coloring_is_complete_dim(c)


def test_scoped_feasibility_ignores_outside():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    c = Coloring(g)
    assert c.extend(black=0b00011) is None
    assert coloring_is_complete_dim(c, scope=0b00011)
    assert extract_matching(c, scope=0b00011) == ((0, 1),)


def _first_unknown(c):
    return next(bits(c.unknown_mask()), -1)


def test_search_colors_a_path():
    g = path_graph(5)  # its only d.i.m. is (0,1), (3,4)
    c = Coloring(g)
    assert search(c, _first_unknown, 100) == ("colored", 1)
    assert coloring_is_complete_dim(c)
    assert extract_matching(c) == ((0, 1), (3, 4))


def test_search_exhausts_a_square():
    g = cycle_graph(4)
    c = Coloring(g)
    status, branches = search(c, _first_unknown, 100)
    assert status == "infeasible"
    assert branches >= 2  # both colors of the first vertex were tried


def test_search_stops_past_the_budget():
    # the count holds only the branches run: a cap below the 4 branches
    # that refute C4, or the 1 that solves P5, reports the cap itself
    g = path_graph(5)
    assert search(Coloring(g), _first_unknown, 0) == ("budget", 0)
    assert search(Coloring(g), _first_unknown, 1) == ("colored", 1)
    g = cycle_graph(4)
    for budget in range(4):
        assert search(Coloring(g), _first_unknown, budget) == ("budget", budget)
    assert search(Coloring(g), _first_unknown, 4) == ("infeasible", 4)


# -- the search against its chronological reference ----------------------------


def _in_order(order):
    """A pick that names the first unknown vertex of `order`."""
    def pick(c):
        return next((v for v in order if c.unknown_mask(1 << v)), -1)
    return pick


def _both_searches(g, make_pick):
    """(status, branches, colors) of `search` and of the chronological
    reference, each from an uncolored g under a fresh pick; colors only on
    "colored", the one status that leaves c meaningful."""
    out = []
    for run in (search, search_chronological_reference):
        c = Coloring(g)
        status, branches = run(c, make_pick(), 10**6)
        out.append((status, branches, c.snapshot() if status == "colored" else None))
    return out


def _search_families(corpus7):
    yield from corpus7
    rng = random.Random(35)
    for _ in range(400):
        n = rng.randint(8, 40)
        p = rng.choice((0.05, 0.1, 0.15, 0.25, 0.4))
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    for seed in range(60):
        n = rng.randint(20, 150)
        k = rng.randint(max(1, n // 8), n // 3)
        extra = rng.randint(k, min(2 * k * (n - 2 * k), 2 * n))
        yield gen_planted(n, k, extra, seed).graph
        yield gen_c4_augmented(n, k, extra, seed)
    for i in range(60):
        yield deg3_graph(i)  # n <= 400


def test_search_matches_the_chronological_reference(corpus7):
    # Each component is searched alone under branch_pick, as the complete
    # search does, from an uncolored state: the same status, branches and,
    # when colored, colors as the frozen reference.
    for g in _search_families(corpus7):
        for comp in connected_components(g):
            by_degree = degree_classes(g, comp)
            got, want = _both_searches(g, lambda: branch_pick(g, comp, by_degree))
            assert got == want, g.edges()


# The three cases below hold alternatives that a jump over a dead piece
# (both colors of a vertex failing at once) must keep, should a backjump
# return to `search`.


def test_search_keeps_an_alternative_whose_state_has_the_dead_piece_open():
    # b is black first; w black then whitens u (an unknown beside two
    # blacks), so b keeps only p1 and p2, and p1 fails both ways at once
    # (the square b-p1-q-p2: either pairing whitens two adjacent
    # vertices).  u, on the dead piece's border, was colored after w's
    # decision, so w's white alternative stays: there u pairs with b, and
    # q with its leaf s.  A jump that checked only the piece's own colors
    # would drop it and report "infeasible".
    b, u, p1, p2, q, s, w, w2, w3 = range(9)
    g = Graph.from_edges(9, [(b, u), (b, p1), (b, p2), (p1, q), (p2, q), (q, s), (u, w), (w, w2), (w2, w3)])
    order = [b, w, p1, u, p2, q, s, w2, w3]
    (status, branches, colors), want = _both_searches(g, lambda: _in_order(order))
    assert (status, branches, colors) == want
    c = Coloring(g)
    c.restore(colors)
    assert extract_matching(c) == ((b, u), (q, s), (w2, w3))


def test_search_keeps_an_alternative_whose_decision_joined_the_dead_piece():
    # The path 3-1-0-2-4, its centre 0 decided first.  0 black leaves it
    # unmated, two steps from the leaf 3, and 3 then fails both ways at
    # once: black forces 1 black beside two blacks, white pairs 1 with 0,
    # which whitens 2 and strands 4.  The dead piece holds 0 as an unmated
    # black where 0's alternative had it unknown, so that alternative
    # stays, and there the path's d.i.m. {1-3, 2-4} lies.  A jump that
    # checked only the piece's border would drop it.
    g = Graph.from_edges(5, [(3, 1), (1, 0), (0, 2), (2, 4)])
    (status, branches, colors), want = _both_searches(g, lambda: _in_order([0, 3, 1, 2, 4]))
    assert (status, branches, colors) == want
    c = Coloring(g)
    c.restore(colors)
    assert extract_matching(c) == ((1, 3), (2, 4))

def test_search_takes_no_piece_from_a_failure_below_a_subtree():
    # A diamond with tips t and 4 and spine 2-6, a path t-1-3-5, and a
    # separate edge 7-8.  The only d.i.m. whitens t.  t black, then 7
    # black (pairing 7-8), then 1 black fails at once and 1 white leaves
    # the diamond dead at 2; the jump stops at 7's alternative, since 1
    # was colored after it.  7 white then fails at once, but its black
    # branch had a subtree, and the failure there lies in the diamond,
    # not in {7, 8}: a jump over t's alternative would lose the d.i.m.
    t = 0
    g = Graph.from_edges(9, [(t, 1), (t, 2), (t, 6), (1, 3), (2, 4), (2, 6), (3, 5), (4, 6), (7, 8)])
    order = [t, 7, 1, 2, 3, 4, 5, 6, 8]
    (status, branches, colors), want = _both_searches(g, lambda: _in_order(order))
    assert (status, branches, colors) == want
    c = Coloring(g)
    c.restore(colors)
    assert extract_matching(c) == ((1, 3), (2, 6), (7, 8))

def test_branch_pick_carries_its_counters_across_restores():
    # Seeded walks of extend and restore on planted and pendant-C4 graphs,
    # with restores to much earlier snapshots, as a backtrack to a shallow
    # stack entry does.
    # Every pick must name the naive scan's vertex, whether few rows of
    # unmated blacks changed since the last call ("carry") or more than
    # the mask now holds ("recount": the case, after a restore to a much
    # earlier snapshot, that the pick once met by counting afresh; XOR-ing
    # in the changed rows must give the same parity there too).
    rng = random.Random(4)
    paths = {"carry": 0, "recount": 0}
    for i in range(6):
        n = rng.randint(200, 600)
        k = rng.randint(n // 8, n // 4)
        extra = rng.randint(n // 2, n)
        if i % 2:
            g = gen_c4_augmented(n, k, extra, i)
        else:
            g = gen_planted(n, k, extra, i).graph
        comp = max(connected_components(g), key=int.bit_count)
        c = Coloring(g)
        pick = branch_pick(g, comp, degree_classes(g, comp))
        counted = 0  # mask of the last call that found an unknown vertex
        snaps = [c.snapshot()]
        for _ in range(250):
            v = pick(c)
            assert v == pick_unknown_naive(comp, c), (i, len(snaps))
            if v >= 0:
                blacks = c.black & ~c.mated & comp
                changed = (blacks ^ counted).bit_count()
                paths["recount" if changed > blacks.bit_count() else "carry"] += 1
                counted = blacks
            roll = rng.random()
            if v < 0 or roll < 0.1:
                del snaps[rng.randrange(1 + len(snaps) // 4) + 1:]
            elif roll < 0.25:
                del snaps[max(1, len(snaps) - 3):]
            elif c.extend(*rng.choice(((1 << v, 0), (0, 1 << v)))) is None:
                snaps.append(c.snapshot())
            c.restore(snaps[-1])
    assert paths["carry"] >= 20 and paths["recount"] >= 20, paths


def test_matching_roundtrip():
    m = ((1, 2), (5, 9))
    assert parse_matching(serialize_matching(m)) == m
    assert parse_matching("# comment\n\n9 5\n2 1\n") == m


@pytest.mark.parametrize("text", ["1\n", "1 2 3\n", "a b\n"])
def test_matching_parse_errors(text):
    with pytest.raises(ValueError):
        parse_matching(text)
