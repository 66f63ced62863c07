"""Black/white vertex coloring with constraint propagation.

Colors encode matching membership: black vertices are matched (each needs
exactly one black neighbor, its partner), white vertices are unmatched
(no two adjacent whites, or the edge between them would go undominated).
A complete feasible coloring is exactly a dominating induced matching:
read the matching off the black partner pairs.

Propagation rules, all applied by `Coloring.extend`:
  (a) a white vertex forces all its neighbors black;
  (b) two adjacent blacks become partners and force every other neighbor
      of either endpoint white;
  (c) an unpartnered black with exactly one non-white candidate neighbor
      left forces that neighbor black;
  (d) contradictions: white-white edge, black with two black neighbors,
      black with no candidate partner left, conflicting assignment;
  (e) an unknown vertex with two black neighbors is white (black, it
      would have two partners).  It runs from the side of a new black
      that ends its wave with no black neighbor; a paired black's other
      neighbors are already white by (b).

`extend` runs them to a fixpoint in waves of masks: a wave colors a set of
vertices at once, applies the rules to them and to the unpartnered blacks
beside its whites, and ORs what those force into the next wave, until a
wave forces nothing new.  Every rule only adds colors, so whether a
contradiction occurs, and the fixpoint when none does, do not depend on
the order of work; only which contradiction is reported first does.  On a
contradiction the state is left partly extended, and callers restore a
snapshot.

The state is three bitmasks: `white`, `black` and `mated`, the blacks
that have a partner, so the unpartnered blacks are `black ^ mated` with
no loop.  The colors fix every partner: pairing whitens every other
uncolored neighbor of both ends, so a mated vertex has exactly one mated
neighbor, and `partner` reads it off.  At a fixpoint rules (a), (b) and
(e) leave no unknown vertex next to a white or a partnered black, nor
next to two blacks: an unknown vertex's colored neighbors are at most one
unpartnered black.

Callers drive the state by masks alone: a decision is a vertex bit and a
color, `extend(black=bit)` or `extend(white=bit)`, and a query is a mask
read (`unknown_mask(bit)` is nonzero while the vertex is uncolored).

`search` backtracks over vertex colors under one pick rule,
`branch_pick`, shared by the complete search and the engine's pieces.
Each of its leaves is a contradiction or the solution: at a fixpoint with
nothing left unknown the rules have paired every black, so the coloring
is not rescanned; `driver.solve` checks the finished matching once,
against the definition (`oracle.verify_dim`).
The pick carries one mask from one call to the next, the parity of each
vertex's unmated-black neighbors, XOR-ing in the rows of the blacks that
changed.

The search backtracks chronologically except where a dead piece dooms
pending alternatives.  Call a vertex's piece at a state its component
among the unknowns and unmated blacks.  At a fixpoint an unknown has no
white or mated neighbor and an unmated black none but whites and
unknowns, so a piece P is bordered by whites alone; propagation from a
vertex v of P colors only P and reads only the colors of P's closed
neighborhood N[P].  If both colors of v fail at once at a state S, and a
pending alternative's state A, an ancestor of S, already colored every
vertex of N[P] that S colors, then A holds P with the same unknowns and
unmated blacks, closed in A's active set, behind the same white border,
and both colors of v fail at A as well.  Since propagation is sound, A
has no completion in which P is colored, and a search whose scope holds
all of P drops the alternative unexplored.  Only subtrees without a
solution go, so the first solution found and the status are those of
plain chronological backtracking.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .graph import Edge, Graph, bits


class Contradiction(NamedTuple):
    rule: str
    witnesses: tuple[int, ...]

    def __str__(self) -> str:
        verts = ",".join(str(v) for v in self.witnesses)
        return f"{self.rule} at {verts}"


Snapshot = tuple[int, int, int]


class Coloring:
    """Mutable coloring state over a fixed graph."""

    __slots__ = ("g", "white", "black", "mated")

    def __init__(self, g: Graph):
        self.g = g
        self.white = 0
        self.black = 0
        self.mated = 0

    def snapshot(self) -> Snapshot:
        return (self.white, self.black, self.mated)

    def restore(self, snap: Snapshot) -> None:
        self.white, self.black, self.mated = snap

    # -- queries -----------------------------------------------------------

    def unknown_mask(self, scope: int | None = None) -> int:
        full = self.g.full_mask() if scope is None else scope
        return full ^ full & (self.white | self.black)

    def active_mask(self, scope: int) -> int:
        """Unknowns of scope plus its unpartnered blacks (mated is in black)."""
        return scope ^ scope & (self.white | self.mated)

    def partner(self, v: int) -> int:
        """The partner of mated v: its one mated neighbor, which at a
        fixpoint is also its one black neighbor."""
        mates = self.g.rows[v] & self.mated
        return (mates & -mates).bit_length() - 1

    # -- mutation ----------------------------------------------------------

    def extend(self, white: int = 0, black: int = 0) -> Contradiction | None:
        """Color the vertices of `white` white and those of `black` black,
        then propagate to a fixpoint in waves: each wave applies the rules
        to the vertices it colors and to the unpartnered blacks beside its
        whites, and collects what those force into the next wave.  On a
        contradiction the state is left partly extended; callers restore
        a snapshot.

        The state lives in locals W, B and M while the waves run and is
        written back on every exit.  No mask is complemented (see `graph`);
        mated lies in black, so the unpartnered blacks are ``B ^ M``."""
        rows = self.g.rows
        W, B, M = self.white, self.black, self.mated
        try:
            while white or black:
                clash = white & black | white & B | black & W
                if clash:
                    return Contradiction("conflict", (next(bits(clash)),))
                white ^= white & W
                black ^= black & B
                W |= white
                B |= black
                forced_white = forced_black = 0
                # the whites' rows, ORed in any order; a white-white edge is
                # rare, so only then are the whites rescanned in id order for
                # the first witness
                rest = white
                while rest:
                    v = rest.bit_length() - 1
                    rest ^= 1 << v
                    forced_black |= rows[v]
                # an old black beside a new one is settled from the new one's
                # side: it pairs with it or shows up as its two-black witness
                touched = black
                if forced_black:
                    if forced_black & W:
                        for v in bits(white):
                            ww = rows[v] & W
                            if ww:
                                return Contradiction("white-white-edge", (v, next(bits(ww))))
                    # unpartnered black neighbors lost a candidate
                    touched |= forced_black & (B ^ M)
                # in id order, which fixes the contradiction reported
                while touched:
                    low = touched & -touched
                    touched ^= low
                    v = low.bit_length() - 1
                    row = rows[v]
                    nb_black = row & B
                    k = nb_black.bit_count()
                    if k >= 2:
                        return _two_black(v, nb_black)
                    if k == 0:
                        # colors only grow, so v is unmated; with no black
                        # neighbor its candidates are its unknown neighbors
                        cand = row ^ row & W
                        if not cand:
                            return Contradiction("black-unmatchable", (v,))
                        if cand.bit_count() == 1:
                            forced_black |= cand
                        elif low & black:
                            # rule (e), from the new black's side; a lone
                            # candidate with another black neighbor clashes
                            # as a black
                            while cand:
                                u = cand.bit_length() - 1
                                w = 1 << u
                                cand ^= w
                                if rows[u] & B != low:
                                    forced_white |= w
                    elif not M >> v & 1:
                        # v pairs with its one black neighbor u; a mated u would
                        # have its partner as a second black neighbor
                        u = nb_black.bit_length() - 1
                        if rows[u] & B != low:
                            return _two_black(u, rows[u] & B)
                        pair = low | nb_black
                        M |= pair
                        # the pair lies in the union of its two rows
                        forced_white |= (row | rows[u]) ^ pair
                white, black = forced_white, forced_black
        finally:
            self.white, self.black, self.mated = W, B, M
        return None


def _two_black(v: int, nb_black: int) -> Contradiction:
    it = bits(nb_black)
    return Contradiction("two-black-neighbors", (v, next(it), next(it)))


def branch_pick(g: Graph, comp: int, by_degree: list[int]) -> Callable[[Coloring], int]:
    """Pick for the search over `comp`: an unknown vertex with an unmated
    black neighbor if there is one, then the highest degree in comp, then
    the smallest id; -1 when nothing is unknown.  `by_degree` holds comp's
    degree classes (`graph.degree_classes`).

    `search` calls the pick only at a propagation fixpoint, where an
    unknown vertex's colored neighbors are at most one unpartnered black;
    so this ranks the unknowns exactly as counting all colored neighbors
    would.

    The count is 0 or 1, so its parity is enough: bit v of `parity` is the
    parity of v's unmated-black neighbors, kept by XOR-ing in the row of
    each black that joined or left the unmated-black mask since the last
    call.  The parity is a function of the mask alone, so backtracking and
    restores need nothing more.  The loop walks set bits by hand: a `bits`
    generator per call shows on graphs of a dozen vertices, where the whole
    search takes tens of microseconds.
    """
    rows = g.rows
    classes = [cls for cls in reversed(by_degree) if cls]
    parity = 0
    counted = 0  # the unmated-black mask that `parity` counts

    def pick(c: Coloring) -> int:
        nonlocal parity, counted
        unknown = c.unknown_mask(comp)
        if not unknown:
            return -1
        blacks = comp & (c.black ^ c.mated)
        changed = blacks ^ counted
        counted = blacks
        while changed:
            v = changed.bit_length() - 1
            changed ^= 1 << v
            parity ^= rows[v]
        best = unknown & parity or unknown
        for cls in classes:
            if best & cls:
                best &= cls
                break
        return (best & -best).bit_length() - 1

    return pick


def search(c: Coloring, pick: Callable[[Coloring], int], budget: int) -> tuple[str, int]:
    """Backtracking over vertex colors, black tried first.

    `pick` names the next vertex to branch on, or -1 when its scope holds
    no unknown vertex.  A stack entry is (snapshot, vertex bit, black): the
    decision is `extend(black=bit)` or `extend(white=bit)` on the restored
    snapshot.  Every leaf is a contradiction or the solution: -1 after an
    `extend` that found no contradiction leaves the scope complete at a
    fixpoint, and there no white touches a white and every black has its
    one black partner, or the rules would have reported it.  Returns
    (status, branches) with status "colored" (c holds the completion),
    "infeasible" (every branch failed) or "budget" (more than `budget`
    branches were needed), and the number of branches it ran.

    When both colors of a vertex fail at once, with no subtree below
    either, its piece is dead and the pending alternatives whose states
    still hold that piece are dropped (`_drop_doomed`; the module
    docstring gives the argument).  A failure below a subtree may lie in
    another piece, so it drops nothing.  The argument needs the root
    state to be a fixpoint without contradiction and the scope to hold the
    whole piece of each of its unknowns there: a connected component of
    the graph, as in the complete search, or a piece of
    `component_solver.try_edge`.  The first solution, the colors it leaves
    and the status are then those of chronological backtracking, in no
    more branches.
    """
    v = pick(c)
    if v < 0:
        return "colored", 0
    branches = 0
    stack = [(c.snapshot(), 1 << v, True)]
    # the number of the last black branch that failed at once: the entry
    # popped right after it is its white sibling on the same snapshot
    black_failed = 0
    while stack:
        if branches >= budget:
            return "budget", branches
        snap, bit, black = stack.pop()
        c.restore(snap)
        if black:
            stack.append((snap, bit, False))
        branches += 1
        bad = c.extend(black=bit) if black else c.extend(white=bit)
        if bad is None:
            u = pick(c)
            if u < 0:
                return "colored", branches
            stack.append((c.snapshot(), 1 << u, True))
        elif black:
            black_failed = branches
        elif black_failed == branches - 1 and stack:
            # the top entry's vertex was colored after that entry's state,
            # so if it touches the dead vertex nothing can go (nearly every
            # dead end on small graphs)
            rows = c.g.rows
            if not stack[-1][1] & rows[bit.bit_length() - 1]:
                _drop_doomed(stack, rows, snap, bit)
    return "infeasible", branches


def _drop_doomed(stack: list, rows: list[int], snap: Snapshot, bit: int) -> None:
    """Pop every pending entry, from the top down, whose state colored the
    same vertices of N[P] as `snap`, where P is the piece of `bit` at
    `snap` and both colors of `bit` failed at once there.

    The states down the stack are ancestors of one another, so the colored
    part of N[P] only shrinks with depth and the first entry that differs
    ends the walk.  The BFS over P gives up at the first vertex of N[P]
    colored since the top entry's state, which then differs.
    """
    white, black, mated = snap
    colored = white | black
    top_white, top_black, _ = stack[-1][0]
    fresh = colored ^ (top_white | top_black)  # colored since the top entry
    closed = frontier = bit
    inactive = white | mated
    while frontier:
        reach = 0
        while frontier:
            u = frontier.bit_length() - 1
            frontier ^= 1 << u
            reach |= rows[u]
        if reach & fresh:
            return
        frontier = reach ^ reach & (closed | inactive)
        closed |= reach
    held = colored & closed
    stack.pop()
    while stack:
        w, b, _ = stack[-1][0]
        if (w | b) & closed != held:
            return
        stack.pop()


def extract_matching(c: Coloring, scope: int | None = None) -> tuple[Edge, ...]:
    """Pairs (v, partner(v)), v < partner(v), over the mated v of scope; a
    coloring left by a contradiction may pair asymmetrically."""
    rows = c.g.rows
    mated = c.mated
    rest = mated if scope is None else mated & scope
    out = []
    while rest:  # top-down, so the pairs are reversed at the end
        v = rest.bit_length() - 1
        rest ^= 1 << v
        mates = rows[v] & mated
        u = (mates & -mates).bit_length() - 1
        if u > v:
            out.append((v, u))
    out.reverse()
    return tuple(out)


def parse_matching(text: str) -> tuple[Edge, ...]:
    """Matching file format: one 'u v' pair per line, '#' comments allowed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer pair {line!r}") from None
        out.append((u, v) if u < v else (v, u))
    return tuple(sorted(out))


def serialize_matching(matching: tuple[Edge, ...]) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(matching))
