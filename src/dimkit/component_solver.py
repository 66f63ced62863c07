"""Per-component search run inside an xy-trial.

After the level decomposition and family normalization, the still-active
vertices (unknowns plus unpartnered blacks) split into independent
components.  Each is shrunk further by cycle-pattern forcings on the
anchor/L3 part and local rules on the L4 part, then finished by the
backtracking search of `coloring.search`:

  * short induced cycles through anchors pin colors (an anchor's partner
    must sit on any odd cycle through it whose other edges cannot match);
  * an L4 vertex with no live L4 neighbor is white; an isolated live L4
    edge is matched; a five-cycle in L3/L4 with a single L4-L4 edge forces
    that edge;
  * with long-induced-path freedom verified, two extra rules apply (L4
    degree >= 3 means white; a four-cycle with one L3 corner pins that
    corner as its anchor's partner) and surviving L4 components must be
    short paths or cycles of length 3, 6 or 9;
  * one pick rule steers the branching: the first live L4 component is
    colored first, then one family at a time (the tightest first, its
    members with outside contacts before the rest); a branch budget caps
    the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .coloring import BLACK, WHITE, Coloring, force_pair, search
from .decomposition import XyDecomposition
from .graph import bits, connected_components
from .patterns import ScanBudget, enumerate_short_induced_cycles

# DFS steps allowed to each short-cycle scan
CYCLE_SCAN_LIMIT = 50_000


@dataclass
class ComponentResult:
    status: str  # "colored" | "infeasible" | "budget" | "assumption"
    detail: str | None = None
    branches: int = 0


def _anchor_mask(dec: XyDecomposition) -> int:
    mask = 0
    for u in dec.anchors:
        mask |= 1 << u
    return mask


def _collect_cycles(dec: XyDecomposition, scan: int) -> list[tuple[int, ...]]:
    found: list[tuple[int, ...]] = []
    try:
        for cyc in enumerate_short_induced_cycles(dec.g, scan, 9, CYCLE_SCAN_LIMIT):
            found.append(cyc)
    except ScanBudget:
        pass  # partial scan only weakens the reductions, never soundness
    return found


def reduce_cycles_anchor_l3(
    dec: XyDecomposition, comp: int, p9_trusted: bool
) -> tuple[str, str | None]:
    """Forcings from short induced cycles in the anchor/L3 part.

    On any such cycle, edges inside L3 cannot match, so matching edges on
    the cycle touch anchors only.  An odd cycle needs a matching edge,
    an even one here cannot carry exactly one; counting anchors settles
    what is forced.
    """
    g, c = dec.g, dec.coloring
    amask = _anchor_mask(dec) & comp
    scan = amask | (dec.l3 & comp)
    if not scan:
        return "ok", None
    for cyc in _collect_cycles(dec, scan):
        size = len(cyc)
        apos = [i for i, v in enumerate(cyc) if amask >> v & 1]
        if len(apos) == 1:
            p = apos[0]
            u = cyc[p]
            n1, n2 = cyc[(p - 1) % size], cyc[(p + 1) % size]
            if size % 2 == 0:
                # no matching edge fits: both anchor edges stay out
                targets = ((1 << n1) | (1 << n2)) & c.unknown_mask()
            else:
                # the partner is one of the two cycle neighbors
                fam = dec.families[dec.fam_of[u]]
                targets = fam.members & ~(1 << n1) & ~(1 << n2) & c.unknown_mask()
            for v in bits(targets):
                bad = c._set(v, WHITE)
                if bad:
                    return "infeasible", str(bad)
        elif len(apos) == 2 and size in (7, 9):
            p, q = apos
            gap = (q - p) % size
            forced = -1
            if size == 7 and {gap, size - gap} == {3, 4}:
                # unique vertex two steps from both anchors must be black
                for i, v in enumerate(cyc):
                    d1 = min((i - p) % size, (p - i) % size)
                    d2 = min((i - q) % size, (q - i) % size)
                    if d1 >= 2 and d2 >= 2:
                        forced = v
            elif size == 9 and {gap, size - gap} == {4, 5}:
                forced = cyc[(p + 2) % size] if gap == 4 else cyc[(q + 2) % size]
            if forced >= 0:
                bad = c._set(forced, BLACK)
                if bad:
                    return "infeasible", str(bad)
        elif len(apos) == 3 and size == 9 and p9_trusted:
            gaps = {(apos[1] - apos[0]) % 9, (apos[2] - apos[1]) % 9, (apos[0] - apos[2]) % 9}
            if gaps == {3}:
                # the anchor/L3 component must be exactly the three families
                allowed = 0
                for i in apos:
                    u = cyc[i]
                    allowed |= (1 << u) | dec.families[dec.fam_of[u]].members
                comp3 = 0
                for piece in connected_components(g, scan):
                    if piece >> cyc[0] & 1:
                        comp3 = piece
                        break
                active3 = comp3 & (c.unknown_mask() | c.unmated_black_mask(comp3))
                if active3 & ~allowed:
                    return (
                        "assumption",
                        "three-anchor nine-cycle with vertices outside its families",
                    )
        bad = c.propagate()
        if bad:
            return "infeasible", str(bad)
    return "ok", None


def reduce_l4(
    dec: XyDecomposition, comp: int, p9_trusted: bool
) -> tuple[str, str | None]:
    """Local rules on the L4 part, run to a fixpoint."""
    g, c = dec.g, dec.coloring
    l3c = dec.l3 & comp
    l4c = dec.l4 & comp

    # structural one-shot rules first: five-cycles with a single L4-L4 edge
    if l3c | l4c:
        for cyc in _collect_cycles(dec, l3c | l4c):
            if len(cyc) != 5:
                continue
            inner = [
                (a, b)
                for a, b in zip(cyc, cyc[1:] + cyc[:1])
                if dec.l4 >> a & 1 and dec.l4 >> b & 1
            ]
            if len(inner) == 1:
                a, b = inner[0]
                bad = force_pair(c, a, b)
                if bad:
                    return "infeasible", str(bad)
                dec.forced.append((a, b) if a < b else (b, a))
                bad = c.propagate()
                if bad:
                    return "infeasible", str(bad)

    if p9_trusted and l4c:
        # four-cycle with one L3 corner: that corner is its anchor's partner
        amask = _anchor_mask(dec)
        for b in bits(l4c):
            row_b = g.rows[b] & l4c
            for a in bits(row_b):
                for d in bits(row_b >> (a + 1) << (a + 1)):
                    if g.has_edge(a, d):
                        continue
                    for t in bits(g.rows[a] & g.rows[d] & l3c & ~g.rows[b]):
                        anchors_t = g.rows[t] & amask
                        if anchors_t.bit_count() == 1:
                            u = next(bits(anchors_t))
                            bad = force_pair(c, u, t)
                            if bad:
                                return "infeasible", str(bad)
                            dec.forced.append((u, t) if u < t else (t, u))
                            bad = c.propagate()
                            if bad:
                                return "infeasible", str(bad)

    for _ in range(g.n + 1):
        changed = False
        unknown4 = l4c & c.unknown_mask()
        for v in bits(unknown4):
            cand = g.rows[v] & dec.l4 & ~c.white
            if not cand:
                bad = c._set(v, WHITE)
                if bad:
                    return "infeasible", str(bad)
                changed = True
            elif p9_trusted and cand.bit_count() >= 3:
                # high degree in the live L4 graph rules out matching here
                bad = c._set(v, WHITE)
                if bad:
                    return "infeasible", str(bad)
                changed = True
            elif cand.bit_count() == 1:
                u = next(bits(cand))
                if c.color_of(u) == 0 and g.rows[u] & dec.l4 & ~c.white == 1 << v:
                    # isolated live edge: one endpoint black forces the other
                    bad = force_pair(c, v, u)
                    if bad:
                        return "infeasible", str(bad)
                    dec.forced.append((v, u) if v < u else (u, v))
                    changed = True
        bad = c.propagate()
        if bad:
            return "infeasible", str(bad)
        if not changed:
            return "ok", None
    return "ok", None


def validate_l4_shape(dec: XyDecomposition, comp: int) -> tuple[bool, str | None]:
    """Surviving live L4 components must be short paths (3..8 vertices) or
    cycles of length 3, 6 or 9; anything else breaks the structure the
    long-path-free guarantee promises."""
    g, c = dec.g, dec.coloring
    active4 = dec.l4 & comp & (c.unknown_mask() | c.unmated_black_mask(comp))
    for piece in connected_components(g, active4):
        size = piece.bit_count()
        degs = [(g.rows[v] & piece).bit_count() for v in bits(piece)]
        if any(d > 2 for d in degs):
            return False, f"L4 component with branching vertex (size {size})"
        ends = sum(1 for d in degs if d < 2)
        if ends == 0:
            if size not in (3, 6, 9):
                return False, f"L4 cycle of length {size}"
        else:
            if not 3 <= size <= 8:
                return False, f"L4 path on {size} vertices"
    return True, None


def _family_state(dec: XyDecomposition, comp: int, c: Coloring):
    """Families of this component still awaiting a partner, with live masks."""
    out = []
    for fam in dec.families:
        if not comp >> fam.anchor & 1:
            continue
        if c.mate[fam.anchor] >= 0:
            continue
        alive = fam.members & c.unknown_mask()
        if alive:
            out.append((fam, alive))
    return out


def _pick_branch_vertex(dec: XyDecomposition, comp: int, c: Coloring) -> int:
    """The one branching rule: the lowest unknown vertex of the first live
    L4 component; else a member of the family with the fewest live members
    (families with two or more live members in outside contact first,
    anchor id on ties), its lowest pinned member if any; else the lowest
    unknown vertex of the component, or -1 when none is left."""
    unknown = c.unknown_mask()
    active4 = dec.l4 & comp & (unknown | c.unmated_black_mask(comp))
    if active4:
        first = connected_components(dec.g, active4)[0] & unknown
        if first:
            return next(bits(first))
    fams = _family_state(dec, comp, c)
    if fams:
        strong = [
            (fam, alive)
            for fam, alive in fams
            if (alive & fam.out_mask).bit_count() >= 2
        ]
        fam, alive = min(strong or fams, key=lambda fa: (fa[1].bit_count(), fa[0].anchor))
        pinned = alive & (fam.out_mask | fam.internal_edge)
        return next(bits(pinned or alive))
    rest = unknown & comp
    if rest:
        return next(bits(rest))
    return -1


def solve_component(
    dec: XyDecomposition, comp: int, branch_budget: int, p9_trusted: bool
) -> ComponentResult:
    """Color one active component completely, or report why not; a
    component left uncolored keeps the coloring it came with."""
    c = dec.coloring

    status, detail = reduce_cycles_anchor_l3(dec, comp, p9_trusted)
    if status != "ok":
        return ComponentResult(status, detail)
    status, detail = reduce_l4(dec, comp, p9_trusted)
    if status != "ok":
        return ComponentResult(status, detail)

    if not c.unknown_mask(comp) and not c.unmated_black_mask(comp):
        return ComponentResult("colored")

    if p9_trusted:
        ok, detail = validate_l4_shape(dec, comp)
        if not ok:
            return ComponentResult("assumption", detail)

    base = c.snapshot()
    status, branches = search(c, comp, partial(_pick_branch_vertex, dec, comp), branch_budget)
    if status == "colored":
        return ComponentResult("colored", branches=branches)
    c.restore(base)
    if status == "budget":
        return ComponentResult("budget", f"branch budget {branch_budget} exhausted", branches)
    return ComponentResult("infeasible", "every branch failed", branches)
