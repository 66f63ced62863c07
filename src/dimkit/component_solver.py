"""Per-component search run inside an xy-trial.

After the level decomposition and family normalization, the still-active
vertices (unknowns plus unpartnered blacks) split into independent
components.  Each is finished in two steps, both valid on every graph:

  * an L4 vertex with no live L4 neighbor is white (its partner would
    have to sit in L4), run to a fixpoint with propagation;
  * the backtracking search of `coloring.search`, steered by one pick
    rule: the first live L4 component is colored first, then one family
    at a time (the fewest live members first, its members with outside
    contacts or on an internal edge before the rest); a branch budget
    caps the search.

The search is exact within its budget, so "infeasible" is a proof that no
completion matches the trial edge and "budget" only gives up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .coloring import WHITE, Coloring, search
from .decomposition import XyDecomposition
from .graph import bits, connected_components


@dataclass
class ComponentResult:
    status: str  # "colored" | "infeasible" | "budget"
    detail: str | None = None
    branches: int = 0


def reduce_l4(dec: XyDecomposition, comp: int) -> tuple[str, str | None]:
    """Whiten the L4 vertices with no live L4 neighbor, to a fixpoint."""
    g, c = dec.g, dec.coloring
    l4c = dec.l4 & comp
    for _ in range(g.n + 1):
        changed = False
        unknown4 = l4c & c.unknown_mask()
        for v in bits(unknown4):
            if not g.rows[v] & dec.l4 & ~c.white:
                bad = c._set(v, WHITE)
                if bad:
                    return "infeasible", str(bad)
                changed = True
        bad = c.propagate()
        if bad:
            return "infeasible", str(bad)
        if not changed:
            return "ok", None
    return "ok", None


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
    (anchor id on ties), its lowest pinned member if any; else the lowest
    unknown vertex of the component, or -1 when none is left."""
    unknown = c.unknown_mask()
    active4 = dec.l4 & comp & (unknown | c.unmated_black_mask(comp))
    if active4:
        first = connected_components(dec.g, active4)[0] & unknown
        if first:
            return next(bits(first))
    fams = _family_state(dec, comp, c)
    if fams:
        fam, alive = min(fams, key=lambda fa: (fa[1].bit_count(), fa[0].anchor))
        pinned = alive & (fam.out_mask | fam.internal_edge)
        return next(bits(pinned or alive))
    rest = unknown & comp
    if rest:
        return next(bits(rest))
    return -1


def solve_component(dec: XyDecomposition, comp: int, branch_budget: int) -> ComponentResult:
    """Color one active component completely, or report why not; a
    component left uncolored keeps the coloring it came with."""
    c = dec.coloring

    status, detail = reduce_l4(dec, comp)
    if status != "ok":
        return ComponentResult(status, detail)

    if not c.unknown_mask(comp) and not c.unmated_black_mask(comp):
        return ComponentResult("colored")

    base = c.snapshot()
    status, branches = search(c, comp, partial(_pick_branch_vertex, dec, comp), branch_budget)
    if status == "colored":
        return ComponentResult("colored", branches=branches)
    c.restore(base)
    if status == "budget":
        return ComponentResult("budget", f"branch budget {branch_budget} exhausted", branches)
    return ComponentResult("infeasible", "every branch failed", branches)
