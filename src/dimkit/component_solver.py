"""The engine's xy-trial: an edge probe, then one search per piece.

Fixing xy as a matching edge, the trial propagates the pair alone, which
derives every level fact and refutes nearly every trial that fails.  It
builds no levels (`decomposition` keeps them for `dimkit explain`).  A
surviving pair's still-active vertices (unknowns plus unpartnered blacks)
then split into independent pieces, and each is finished by the
backtracking search of `coloring.search` under the same pick as the
complete search (`coloring.branch_pick`), against what is left of the
trial's branch budget.  No active vertex outside the scope touches one
inside (`driver` splits its work along the same components), so each
piece is a whole component of the master's active vertices.

Every rule holds in any graph and the search is exact within its budget,
so "infeasible" is a proof that no completion matches the trial edge and
"undecided" only means the budget ran out.
"""

from __future__ import annotations

from .coloring import Coloring, branch_pick, search
from .graph import Graph, connected_components, degree_classes, members


def try_edge(
    g: Graph,
    scope: int,
    x: int,
    y: int,
    master: Coloring,
    stats: dict,
    budget: int,
) -> tuple[str, str | None]:
    """Decide whether some completion matches the edge xy, coloring the
    master as it goes; on failure the master is restored.  Returns
    ("dim", None), ("infeasible", reason) or ("undecided", None) when the
    piece searches need more than `budget` branches between them.  On
    "dim", `forced_edges` counts the pairs the pair's propagation mated,
    xy included.
    """
    snap = master.snapshot()
    mated = master.mated
    bad = master.extend(black=1 << x | 1 << y)
    if bad:
        master.restore(snap)
        return "infeasible", str(bad)
    forced = (master.mated & ~mated).bit_count() // 2

    for piece in connected_components(g, master.active_mask(scope)):
        pick = branch_pick(g, piece, degree_classes(g, members(piece), piece))
        status, branches = search(master, pick, budget)
        stats["branches"] += branches
        budget -= branches
        if status != "colored":
            master.restore(snap)
            if status == "budget":
                return "undecided", None
            return "infeasible", "every branch failed"

    stats["forced_edges"] += forced
    return "dim", None
