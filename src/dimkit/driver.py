"""Top-level solver: decide whether a graph has a dominating induced matching.

Outline per connected component: one pass sorts its vertices into degree
classes (`graph.degree_classes`), which the next steps share.
Refute on a four-clique (a K4 kills the whole graph) among the vertices
of degree three or more; look for a single dominating edge; then run a
complete search that branches on vertex colors and lets propagation
prune.  Both exact routes start from one root state, the root facts
(`root_facts`: a pendant's neighbour is black, false twins of degree two
or more are white) colored once, and a clash among them refutes the
component in 0 branches.  The search decides the component unless it
runs out of branches; its cap, `SolveConfig.branch_budget`, is the only
budget a caller sets.  Only then does the paper's engine run, as the
backstop, from the same root state: it repeatedly picks a central vertex
x of a piece of the still-active part (its unknowns and unmated blacks)
and trials every edge xy at it (`component_solver.try_edge`: the pair's
propagation, then one search per leftover piece).  A successful trial
colors the whole part.  If every edge at x is proven infeasible, x is
unmatched in any solution, so x turns white and the loop continues on
the shrunken remainder.  All of a component's trials share one fixed
budget of max(4096, 8 * size) branches, the search's default cap.  A
trial that finds it spent ends undecided and makes the component
inconclusive: that is the engine's only give-up, and its verdict is
final.

Verdict soundness: "dim" and "no-dim" are certificates.  Every rule used
is valid in any graph.  The trial builds no distance levels, so it never
leans on the paper's bound of four on their depth (for graphs without an
induced nine-vertex path), and the P9 scan decides nothing: it fills
`p9_checked`.  A solved component is kept
only in the master coloring (each search leaf is a contradiction or the
solution, see `coloring.search`); `solve` reads the matching off it
once and checks it once, against the definition (`verify_dim`)."""

from __future__ import annotations

import json
from typing import Callable

from .coloring import Coloring, branch_pick, extract_matching, search
from .component_solver import try_edge
from .graph import Edge, Graph, bits, central_vertex, connected_components, degree_classes
from .oracle import VerifyResult, verify_dim
from .patterns import P9_UNCHECKED, classify_p9, find_k4


class SolveConfig:
    __slots__ = ("check_p9", "branch_budget")

    def __init__(self, check_p9: bool = True, branch_budget: int | None = None):
        self.check_p9 = check_p9
        # branches of the exact search per component; default max(4096, 8*size),
        # which is also the engine's own fixed cap after it
        self.branch_budget = branch_budget


class SolveOutcome:
    __slots__ = ("status", "matching", "reason", "stats", "p9_checked")

    def __init__(self, status: str, matching: tuple[Edge, ...] | None, reason: str | None,
                 stats: dict, p9_checked: bool):
        self.status = status        # "dim" | "no-dim" | "inconclusive"
        self.matching = matching
        self.reason = reason
        self.stats = stats
        self.p9_checked = p9_checked

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "matching": [list(e) for e in self.matching] if self.matching is not None else [],
            "reason": self.reason,
            "stats": {
                "edges_tried": self.stats["edges_tried"],
                "forced_edges": self.stats["forced_edges"],
                "branches": self.stats["branches"],
                "millis": 0,  # pinned so repeated runs serialize identically
            },
            "p9_checked": self.p9_checked,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def trivial_dim(g: Graph, comp: int, by_degree: list[int]) -> Edge | None:
    """An edge whose endpoints touch every edge of the component, if any;
    `by_degree` holds the component's degree classes (`degree_classes`)."""
    top = len(by_degree) - 1
    m_comp = sum(d * cls.bit_count() for d, cls in enumerate(by_degree)) // 2
    # such an edge uv touches deg(u) + deg(v) - 1 edges, so both ends have
    # degree at least m + 1 - top; past top (2 * top - 1 < m) there is none
    least = m_comp + 1 - top
    if least > top:
        return None
    ends = sum(by_degree[least:])  # the classes are disjoint masks
    for u in bits(ends):
        deg_u = (g.rows[u] & comp).bit_count()
        for v in bits(g.rows[u] & ends >> (u + 1) << (u + 1)):
            if deg_u + (g.rows[v] & comp).bit_count() - 1 == m_comp:
                return (u, v)
    return None


def root_facts(g: Graph, by_degree: list[int]) -> tuple[int, int]:
    """(white, black): colors every d.i.m. of the component gives, read
    off its degree classes (`degree_classes`) by two facts that hold in
    any graph.

    Pendant: the neighbour u of a degree-1 vertex v is matched.  If v is
    unmatched it forces u black; if v is matched, u is its partner.

    False twins: vertices of degree >= 2 with equal rows (so not adjacent)
    are unmatched.  Were a matched, its partner p would be a neighbour of
    its twin a'; a' black would give p a second black neighbour, and a'
    white would force all of N(a') = N(a) black, a second black neighbour
    of a.
    """
    rows = g.rows
    black = 0
    if len(by_degree) > 1:
        rest = by_degree[1]
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            black |= rows[v]
    classes: dict[int, int] = {}
    rest = sum(by_degree[2:])  # the classes are disjoint masks
    while rest:
        v = rest.bit_length() - 1
        low = 1 << v
        rest ^= low
        row = rows[v]
        classes[row] = classes.get(row, 0) | low
    white = 0
    for cls in classes.values():
        if cls & (cls - 1):  # two or more vertices share the row
            white |= cls
    return white, black


def _complete_search(
    master: Coloring, pick: Callable[[Coloring], int], facts: tuple[int, int], budget: int,
    stats: dict
) -> tuple[str, str | None]:
    """Exact decision for one uncolored component by branching on vertex
    colors, from the root facts (white, black) (`root_facts`) colored with
    one `extend`; a clash among them refutes the component in 0 branches.
    So exhaustion is a true negative and any completion is a certificate.
    Returns (status, reason).  On "dim" the master holds the component's
    coloring; on "budget" it holds the root facts' state again, the
    engine's start.  On "no-dim" `solve` stops, so nothing is restored.
    """
    white, black = facts
    bad = master.extend(white=white, black=black)
    if bad:
        return "no-dim", f"root facts: {bad}"
    snap = master.snapshot()
    status, spent = search(master, pick, budget)
    stats["branches"] += spent
    if status == "colored":
        return "dim", None
    if status == "budget":
        master.restore(snap)
        return "budget", None
    return "no-dim", "exhaustive color search over the component"


def solve_top_component(
    g: Graph,
    comp: int,
    master: Coloring,
    cfg: SolveConfig,
    stats: dict,
) -> tuple[str, str | None]:
    """Returns (status, reason) for one component of g; on "dim" the
    master holds the component's coloring."""
    if comp.bit_count() == 1:
        master.extend(white=comp)
        return "dim", None

    by_degree = degree_classes(g, comp)
    # a K4 vertex has degree at least three
    hit = find_k4(g, sum(by_degree[3:]))
    if hit is not None:
        return "no-dim", f"complete subgraph on vertices {hit.vertices}"

    e = trivial_dim(g, comp, by_degree)
    if e is not None:
        # every edge touches e, so propagation whitens the rest of the
        # component without a clash
        master.extend(black=1 << e[0] | 1 << e[1])
        stats["forced_edges"] += 1
        return "dim", None

    total = max(4096, 8 * comp.bit_count())
    budget = total if cfg.branch_budget is None else cfg.branch_budget
    pick = branch_pick(g, comp, by_degree)
    status, reason = _complete_search(master, pick, root_facts(g, by_degree), budget, stats)
    if status != "budget":
        return status, reason

    # the search ran out, so the engine decides from the root state, with
    # `total` branches for all of its trials.  Each sub is either colored
    # whole by a successful trial or whitened at x and split again, so
    # comp ends colored.
    limit = stats["branches"] + total
    work = connected_components(g, master.active_mask(comp))
    while work:
        sub = work.pop(0)
        x = central_vertex(g, sub)
        undecided = False
        for y in bits(g.rows[x] & sub):
            stats["edges_tried"] += 1
            status, _ = try_edge(g, sub, x, y, master, stats, limit - stats["branches"])
            if status == "dim":
                break
            undecided |= status == "undecided"
        else:
            if undecided:
                return "inconclusive", f"engine branch budget {total} exhausted"
            # every edge at x is impossible, so x stays unmatched
            bad = master.extend(white=1 << x)
            if bad:
                return "no-dim", f"no matching edge fits at vertex {x}: {bad}"
            work.extend(connected_components(g, master.active_mask(sub)))
    return "dim", None


def solve(g: Graph, cfg: SolveConfig | None = None) -> SolveOutcome:
    cfg = cfg or SolveConfig()
    stats = {"edges_tried": 0, "forced_edges": 0, "branches": 0}

    p9_checked = cfg.check_p9 and classify_p9(g)[0] != P9_UNCHECKED

    master = Coloring(g)
    for comp in connected_components(g):
        status, reason = solve_top_component(g, comp, master, cfg, stats)
        if status != "dim":
            return SolveOutcome(status, None, reason, stats, p9_checked)

    matching = extract_matching(master)
    check = verify_dim(g, matching)
    if not check.ok:
        raise AssertionError(f"internal error: produced matching fails verification: {check.reason}")
    return SolveOutcome("dim", matching, None, stats, p9_checked)


def verify_outcome(g: Graph, outcome: SolveOutcome):
    """Re-check a solve result; only a "dim" verdict carries a certificate."""
    if outcome.status == "dim":
        return verify_dim(g, outcome.matching or ())
    return VerifyResult(True, None)
