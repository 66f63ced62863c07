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
that have a partner, so the unpartnered blacks are `black & ~mated` with
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
        return full & ~self.white & ~self.black

    def active_mask(self, scope: int) -> int:
        """Unknowns of scope plus its unpartnered blacks (mated is in black)."""
        return scope & ~self.white & ~self.mated

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
        a snapshot."""
        rows = self.g.rows
        while white or black:
            clash = white & black | white & self.black | black & self.white
            if clash:
                return Contradiction("conflict", (next(bits(clash)),))
            white &= ~self.white
            black &= ~self.black
            self.white |= white
            self.black |= black
            forced_white = forced_black = 0
            # an old black beside a new one is settled from the new one's
            # side: it pairs with it or shows up as its two-black witness
            touched = black
            rest = white
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                row = rows[v]
                ww = row & self.white
                if ww:
                    return Contradiction("white-white-edge", (v, next(bits(ww))))
                forced_black |= row
                # unpartnered black neighbors lost a candidate
                touched |= row & self.black & ~self.mated
            while touched:
                low = touched & -touched
                touched ^= low
                v = low.bit_length() - 1
                row = rows[v]
                nb_black = row & self.black
                k = nb_black.bit_count()
                if k >= 2:
                    return _two_black(v, nb_black)
                if k == 0:
                    # colors only grow, so v is unmated; with no black
                    # neighbor its candidates are its unknown neighbors
                    cand = row & ~self.white
                    if not cand:
                        return Contradiction("black-unmatchable", (v,))
                    if cand.bit_count() == 1:
                        forced_black |= cand
                    elif low & black:
                        # rule (e), from the new black's side; a lone
                        # candidate with another black neighbor clashes
                        # as a black
                        while cand:
                            w = cand & -cand
                            cand ^= w
                            if rows[w.bit_length() - 1] & self.black != low:
                                forced_white |= w
                elif not self.mated >> v & 1:
                    # v pairs with its one black neighbor u; a mated u would
                    # have its partner as a second black neighbor
                    u = nb_black.bit_length() - 1
                    if rows[u] & self.black != 1 << v:
                        return _two_black(u, rows[u] & self.black)
                    pair = 1 << v | nb_black
                    self.mated |= pair
                    forced_white |= (row | rows[u]) & ~pair
            white, black = forced_white, forced_black
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
        blacks = c.black & c.active_mask(comp)
        changed = blacks ^ counted
        counted = blacks
        while changed:
            low = changed & -changed
            changed ^= low
            parity ^= rows[low.bit_length() - 1]
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
    branches were needed).
    """
    v = pick(c)
    if v < 0:
        return "colored", 0
    branches = 0
    stack = [(c.snapshot(), 1 << v, True)]
    while stack:
        snap, bit, black = stack.pop()
        c.restore(snap)
        if black:
            stack.append((snap, bit, False))
        branches += 1
        if branches > budget:
            return "budget", branches
        bad = c.extend(black=bit) if black else c.extend(white=bit)
        if bad is not None:
            continue
        u = pick(c)
        if u < 0:
            return "colored", branches
        stack.append((c.snapshot(), 1 << u, True))
    return "infeasible", branches


def extract_matching(c: Coloring, scope: int | None = None) -> tuple[Edge, ...]:
    """Pairs (v, partner(v)), v < partner(v), over the mated v of scope; a
    coloring left by a contradiction may pair asymmetrically."""
    rows = c.g.rows
    mated = c.mated
    rest = mated if scope is None else mated & scope
    out = []
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        mates = rows[v] & mated
        u = (mates & -mates).bit_length() - 1
        if u > v:
            out.append((v, u))
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
