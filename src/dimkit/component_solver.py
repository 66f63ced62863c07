"""The engine's xy-trial: an edge probe, the levels, one search per piece.

Fixing xy as a matching edge, the trial first runs the fact stage
`decomposition.trial_facts`: it propagates the pair alone, which derives
every level fact and refutes nearly every trial that fails.  Only a
survivor has `build_levels` lay the component out in distance levels
L1..L4, for the radius guard and the `forced_edges` counter.  `dimkit
explain` runs the same stage and stops where it stops.  The still-active
vertices (unknowns plus unpartnered blacks) then split into independent
pieces, and each is finished by the backtracking search of
`coloring.search` under the same pick as the complete search
(`coloring.branch_pick`), capped at max(64, size**2) branches.  No active
vertex outside the scope touches one inside (`driver` splits its work
along the same components), so each piece is a whole component of the
master's active vertices.

The search is exact within its budget, so "infeasible" is a proof that no
completion matches the trial edge and "undecided" only gives up.
"""

from __future__ import annotations

from .coloring import Coloring, branch_pick, search
from .decomposition import RadiusExceeded, forced_and_anchors, trial_facts
from .graph import Graph, connected_components, degree_classes


def try_edge(
    g: Graph,
    scope: int,
    x: int,
    y: int,
    master: Coloring,
    stats: dict,
) -> tuple[str, str | None]:
    """Decide whether some completion matches the edge xy, coloring the
    master as it goes; on failure the master is restored.  Returns
    ("dim", None), ("infeasible", reason) or ("undecided", reason).

    A pair whose propagation survives while some vertex of scope lies
    more than four levels from xy leaves the trial undecided: the radius
    rules nothing out.  At a central x of a connected scope free of
    induced nine-vertex paths that never happens.
    """
    snap = master.snapshot()
    try:
        levels, bad = trial_facts(master, scope, x, y)
    except RadiusExceeded as exc:
        master.restore(snap)
        return "undecided", str(exc)
    if bad:
        master.restore(snap)
        return "infeasible", str(bad)

    active = master.active_mask(scope)
    for piece in connected_components(g, active):
        budget = max(64, piece.bit_count() ** 2)
        pick = branch_pick(g, piece, degree_classes(g, piece, piece))
        status, branches = search(master, pick, budget)
        stats["branches"] += branches
        if status != "colored":
            master.restore(snap)
            if status == "budget":
                return "undecided", f"branch budget {budget} exhausted"
            return "infeasible", "every branch failed"

    stats["forced_edges"] += len(forced_and_anchors(master, levels)[0])
    return "dim", None
