"""Per-component search run inside an xy-trial.

After the level decomposition and its initial facts, the still-active
vertices (unknowns plus unpartnered blacks) split into independent
components.  Each is finished in two steps, both valid on every graph:

  * an L4 vertex with no live L4 neighbor is white (its partner would
    have to sit in L4); each pass whitens every such vertex in one
    `Coloring.extend` call, which propagates, until a pass finds none;
  * the backtracking search of `coloring.search` under the same pick as
    the complete search (`coloring.branch_pick`), capped by a branch
    budget that the caller derives from the component's size.

The search is exact within its budget, so "infeasible" is a proof that no
completion matches the trial edge and "budget" only gives up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import branch_pick, search
from .decomposition import XyDecomposition
from .graph import bits


@dataclass
class ComponentResult:
    status: str  # "colored" | "infeasible" | "budget"
    detail: str | None = None
    branches: int = 0


def reduce_l4(dec: XyDecomposition, comp: int) -> tuple[str, str | None]:
    """Whiten the L4 vertices with no live L4 neighbor, to a fixpoint.

    Each pass whitens all such vertices in one call: two adjacent unknown
    L4 vertices are live L4 neighbors of each other, so no two vertices of
    a pass are adjacent."""
    g, c = dec.g, dec.coloring
    while True:
        lone = 0
        for v in bits(dec.l4 & comp & c.unknown_mask()):
            if not g.rows[v] & dec.l4 & ~c.white:
                lone |= 1 << v
        if not lone:
            return "ok", None
        bad = c.extend(white=lone)
        if bad:
            return "infeasible", str(bad)


def solve_component(dec: XyDecomposition, comp: int, branch_budget: int) -> ComponentResult:
    """Color one active component completely, or report why not; on
    failure the coloring may be left partly extended, and the caller
    restores it."""
    c = dec.coloring

    status, detail = reduce_l4(dec, comp)
    if status != "ok":
        return ComponentResult(status, detail)

    if not c.unknown_mask(comp) and not c.unmated_black_mask(comp):
        return ComponentResult("colored")

    status, branches = search(c, comp, branch_pick(dec.g, comp), branch_budget)
    if status == "colored":
        return ComponentResult("colored", branches=branches)
    if status == "budget":
        return ComponentResult("budget", f"branch budget {branch_budget} exhausted", branches)
    return ComponentResult("infeasible", "every branch failed", branches)
