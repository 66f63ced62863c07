"""Top-level solver: decide whether a graph has a dominating induced matching.

Outline per connected component: one pass sorts its vertices into degree
classes (`graph.degree_classes`), which the next three steps share.
Refute on a four-clique (a K4 kills the whole graph) among the vertices
of degree three or more; look for a single dominating edge; then run a
complete search that branches on vertex colors and lets propagation
prune.  The search runs in three stages: PROBE_AFTER branches from the
root; if that runs out, one pass of failed-vertex probing at the root (a
vertex where one color fails under propagation takes the other, and one
where both fail refutes the component); then the search again from the
probed coloring.  It decides the component unless it runs out of branches; its cap,
`SolveConfig.branch_budget`, covers all three stages (a probe trial
counts as a branch) and is the only budget a caller sets.  Only then
does the paper's engine run, as the backstop: it repeatedly picks a
central vertex x of the still-active part and trials every edge xy at it
(`component_solver.try_edge`: levels, level facts, one search per
leftover piece, capped by the piece's size).  A successful trial colors
the whole part.  If every edge at x is proven infeasible, x is unmatched
in any solution, so x turns white and the loop continues on the shrunken
remainder.  Trials that end undecided (budget or radius) make the
component inconclusive; the engine's verdict is final.

Verdict soundness: "dim" and "no-dim" are certificates.  Every rule used
is valid in any graph.  A trial whose levels run deeper than four (the
paper's bound for graphs without an induced nine-vertex path) only ends
undecided, so the P9 scan decides nothing: it fills `p9_checked`.  A
solved component is kept only in the master coloring (each search leaf
is a contradiction or the solution, see `coloring.search`); `solve`
reads the matching off it once and checks it once, against the
definition (`verify_dim`)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .coloring import Coloring, branch_pick, extract_matching, search
from .component_solver import try_edge
from .graph import Edge, Graph, bits, central_vertex, connected_components, degree_classes
from .oracle import VerifyResult, verify_dim
from .patterns import P9_UNCHECKED, classify_p9, find_k4

# branches of the first search before the root is probed (see `probe`)
PROBE_AFTER = 256


@dataclass
class SolveConfig:
    check_p9: bool = True
    # branches of the exact search per component, probe trials included;
    # default max(4096, 8*size)
    branch_budget: int | None = None


@dataclass
class SolveOutcome:
    status: str                     # "dim" | "no-dim" | "inconclusive"
    matching: tuple[Edge, ...] | None
    reason: str | None
    stats: dict
    p9_checked: bool

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "matching": [list(e) for e in self.matching] if self.matching is not None else [],
            "reason": self.reason,
            "stats": {
                "edges_tried": self.stats.get("edges_tried", 0),
                "forced_edges": self.stats.get("forced_edges", 0),
                "branches": self.stats.get("branches", 0),
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


def probe(c: Coloring, scope: int, budget: int) -> tuple[str, int, str | None]:
    """Failed-vertex probing at the root, in one pass over the unknown
    vertices of scope in id order (one that an earlier fix colored is
    skipped): each is tried black, then white.  When one color fails the
    vertex takes the other, keeping the successful trial's coloring; when
    neither fails c is restored.  Every fix holds in every completion, so a
    search may resume from the probed coloring.

    Returns (status, trials, reason): "infeasible" with the reason when both
    colors fail at a vertex, "budget" on trial budget + 1, else "probed"
    with c after the pass.  Only "probed" leaves c meaningful.
    """
    trials = 0
    for v in bits(c.unknown_mask(scope)):
        bit = 1 << v
        if not c.unknown_mask(bit):
            continue
        snap = c.snapshot()
        trials += 1
        if trials > budget:
            return "budget", trials, None
        black_bad = c.extend(black=bit)
        black = c.snapshot()
        c.restore(snap)
        trials += 1
        if trials > budget:
            return "budget", trials, None
        white_bad = c.extend(white=bit)
        if black_bad and white_bad:
            return "infeasible", trials, (
                f"no color fits at vertex {v}: black gives {black_bad}; "
                f"white gives {white_bad}"
            )
        if white_bad:
            c.restore(black)
        elif not black_bad:
            c.restore(snap)
    return "probed", trials, None


def _complete_search(
    comp: int, master: Coloring, pick: Callable[[Coloring], int], budget: int, stats: dict
) -> tuple[str, str | None]:
    """Exact decision for one component by branching on vertex colors.

    Starts from the uncolored component, so exhaustion is a true negative
    and any completion is a certificate.  A search that runs out of its
    first PROBE_AFTER branches restarts from a probed root (see `probe`)
    with what is left of the budget; each probe trial counts as a branch.
    Returns (status, reason).  On "dim" the master holds the component's
    coloring; on "no-dim", or on "budget" when cut short, it is restored.
    """
    snap = master.snapshot()
    status, spent = search(master, pick, min(budget, PROBE_AFTER))
    reason = None
    if status == "budget" and budget > PROBE_AFTER:
        master.restore(snap)
        status, trials, reason = probe(master, comp, budget - spent)
        spent += trials
        if status == "probed":
            status, branches = search(master, pick, budget - spent)
            spent += branches
    stats["branches"] += spent
    if status == "colored":
        return "dim", None
    master.restore(snap)
    if status == "budget":
        return "budget", None
    return "no-dim", reason or "exhaustive color search over the component"


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

    budget = cfg.branch_budget
    if budget is None:
        budget = max(4096, 8 * comp.bit_count())
    pick = branch_pick(g, comp, by_degree)
    status, reason = _complete_search(comp, master, pick, budget, stats)
    if status != "budget":
        return status, reason

    # the search ran out, so the engine decides; nothing in comp is
    # colored yet, so the work starts from comp itself.  Each sub is
    # either colored whole by a successful trial or whitened at x and
    # split again, so comp ends colored.
    work = [comp]
    while work:
        sub = work.pop(0)
        x = central_vertex(g, sub)
        undecided: str | None = None
        found = False
        for y in bits(g.rows[x] & sub):
            stats["edges_tried"] += 1
            status, detail = try_edge(g, sub, x, y, master, stats)
            if status == "dim":
                found = True
                break
            if status == "undecided" and undecided is None:
                undecided = detail
        if found:
            continue
        if undecided is not None:
            return "inconclusive", undecided
        # every edge at x is impossible, so x stays unmatched
        bad = master.extend(white=1 << x)
        if bad:
            return "no-dim", f"no matching edge fits at vertex {x}: {bad}"
        active = master.active_mask(sub)
        work.extend(connected_components(g, active))
    return "dim", None


def solve(g: Graph, cfg: SolveConfig | None = None) -> SolveOutcome:
    cfg = cfg or SolveConfig()
    stats = {"edges_tried": 0, "forced_edges": 0, "branches": 0, "millis": 0}

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
