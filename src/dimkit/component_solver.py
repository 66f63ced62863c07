"""The engine's xy-trial: levels, facts, one search per piece.

Fixing xy as a matching edge, `decomposition.build_levels` lays the
component out in distance levels L1..L4 and `apply_initial_facts` fires
the level facts, the lone-L4 whitening among them.  The still-active
vertices (unknowns plus unpartnered blacks) then split into independent
pieces, and each is finished by the backtracking search of
`coloring.search` under the same pick as the complete search
(`coloring.branch_pick`), capped at max(64, size**2) branches.

The search is exact within its budget, so "infeasible" is a proof that no
completion matches the trial edge and "undecided" only gives up.
"""

from __future__ import annotations

from .coloring import Coloring, branch_pick, search
from .decomposition import RadiusExceeded, apply_initial_facts, build_levels
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

    A vertex of scope more than four levels from xy leaves the trial
    undecided: it rules nothing out.  At a central x of a connected scope
    free of induced nine-vertex paths that never happens.
    """
    snap = master.snapshot()
    try:
        dec = build_levels(g, scope, x, y, master)
    except RadiusExceeded as exc:
        return "undecided", str(exc)
    bad = apply_initial_facts(dec)
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

    stats["forced_edges"] += len(dec.forced)
    return "dim", None
