"""Distance-level decomposition around a candidate matching edge.

Fixing an edge xy as a matching edge splits the rest of its component into
BFS layers L1..L4 (a suitable center keeps the radius at four).  The layer
structure forces a cascade of facts:

  * L1 is all white (neighbors of a matched pair are unmatched), so L2 is
    all black; L2's internal edges are matched pairs, its isolated vertices
    (the anchors) must find their partner in L3;
  * no edge inside L3 and no L3-L4 edge can be a matching edge, so those
    edges propagate colors across (one endpoint black, the other white);
  * an L3 vertex seeing two or more anchors must be white;
  * a triangle with one vertex in L3 and two in L4 forces its L4 edge.

Each anchor u owns a family T(u): the L3 vertices whose only anchor
neighbor is u.  Exactly one member of each family is black (u's partner),
which drives both the normalization rules here and the component solver's
choice of branching vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coloring import BLACK, WHITE, Coloring, Contradiction, force_pair
from .graph import Edge, Graph, bfs_layers, bits

MAX_RADIUS = 4


class RadiusExceeded(Exception):
    """Some vertex of the component sits at distance > 4 from the edge."""

    def __init__(self, x: int, y: int, vertex: int):
        super().__init__(f"vertex {vertex} is farther than {MAX_RADIUS} from edge ({x},{y})")
        self.edge = (x, y)
        self.vertex = vertex


class AssumptionViolated(Exception):
    """A structural guarantee the reduction relies on failed to hold."""


@dataclass
class Family:
    anchor: int          # black L2 vertex whose partner lives in the family
    members: int         # mask of its private L3 neighbors
    out_mask: int = 0    # members with structural contacts outside the family
    internal_edge: int = 0  # mask of the <=1 internal edge's endpoints


@dataclass
class NormalizeOutcome:
    status: str  # "ok" | "infeasible"
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class XyDecomposition:
    g: Graph
    x: int
    y: int
    scope: int                 # active component mask the trial runs in
    levels: list[int]          # masks; levels[0] == {x,y}
    coloring: Coloring
    forced: list[Edge] = field(default_factory=list)
    anchors: list[int] = field(default_factory=list)
    families: list[Family] = field(default_factory=list)
    s3_mask: int = 0

    @property
    def l1(self) -> int:
        return self.levels[1] if len(self.levels) > 1 else 0

    @property
    def l2(self) -> int:
        return self.levels[2] if len(self.levels) > 2 else 0

    @property
    def l3(self) -> int:
        return self.levels[3] if len(self.levels) > 3 else 0

    @property
    def l4(self) -> int:
        return self.levels[4] if len(self.levels) > 4 else 0


def build_levels(g: Graph, scope: int, x: int, y: int, coloring: Coloring) -> XyDecomposition:
    """BFS layers of the component from {x, y}; raises RadiusExceeded when
    the structure theorem's radius bound fails (the input was not within
    the solver's graph class, or the center was not central)."""
    seed = (1 << x) | (1 << y)
    levels = [seed]
    for layer in bfs_layers(g, seed, scope):
        if len(levels) > MAX_RADIUS:
            raise RadiusExceeded(x, y, next(bits(layer)))
        levels.append(layer)
    return XyDecomposition(g=g, x=x, y=y, scope=scope, levels=levels, coloring=coloring)


def _attach_exclusions(dec: XyDecomposition) -> None:
    """Mark edges inside L3 and between L3 and L4 as never-matching."""
    g = dec.g
    l3, l4 = dec.l3, dec.l4
    excl: list[int] = [0] * g.n
    for v in bits(l3):
        excl[v] = g.rows[v] & (l3 | l4)
    for v in bits(l4):
        excl[v] = g.rows[v] & l3
    dec.coloring.excluded = excl
    # pre-colored blacks in those layers must feel the new exclusions
    for v in bits((l3 | l4) & dec.coloring.black):
        dec.coloring.dirty.append(v)


def apply_initial_facts(dec: XyDecomposition) -> Contradiction | None:
    """Root pair, layer colors, L2 pair edges, anchor blacks, multi-anchor
    whites, and forced L4 triangle edges; propagated to a fixpoint."""
    g, c = dec.g, dec.coloring
    bad = force_pair(c, dec.x, dec.y)
    if bad:
        return bad
    dec.forced.append((dec.x, dec.y) if dec.x < dec.y else (dec.y, dec.x))
    _attach_exclusions(dec)
    bad = c.propagate()
    if bad:
        return bad

    for v in bits(dec.l1 & c.unknown_mask()):
        bad = c._set(v, WHITE)
        if bad:
            return bad
    bad = c.propagate()
    if bad:
        return bad

    l2 = dec.l2
    anchor_mask = 0
    for v in bits(l2):
        inner = g.rows[v] & l2
        if inner:
            for u in bits(inner >> (v + 1) << (v + 1)):
                bad = force_pair(c, v, u)
                if bad:
                    return bad
                dec.forced.append((v, u))
        else:
            anchor_mask |= 1 << v
    for v in bits(anchor_mask & c.unknown_mask()):
        bad = c._set(v, BLACK)
        if bad:
            return bad
    bad = c.propagate()
    if bad:
        return bad
    dec.anchors = list(bits(anchor_mask))

    # L3 vertices seeing two or more anchors cannot be matched
    s3 = 0
    for v in bits(dec.l3):
        if (g.rows[v] & anchor_mask).bit_count() >= 2:
            s3 |= 1 << v
    dec.s3_mask = s3
    for v in bits(s3 & c.unknown_mask()):
        bad = c._set(v, WHITE)
        if bad:
            return bad
    bad = c.propagate()
    if bad:
        return bad

    # triangle with one L3 vertex and an L4 edge: the L4 edge is forced
    l3, l4 = dec.l3, dec.l4
    for v in bits(l4):
        for u in bits(g.rows[v] & l4 >> (v + 1) << (v + 1)):
            if g.rows[v] & g.rows[u] & l3:
                bad = force_pair(c, v, u)
                if bad:
                    return bad
                dec.forced.append((v, u))
    return c.propagate()


def _build_families(dec: XyDecomposition) -> None:
    g = dec.g
    anchor_mask = 0
    for u in dec.anchors:
        anchor_mask |= 1 << u
    dec.families = []
    for u in dec.anchors:
        members = 0
        for t in bits(g.rows[u] & dec.l3):
            if g.rows[t] & anchor_mask == (1 << u):
                members |= 1 << t
        dec.families.append(Family(anchor=u, members=members))
    for fam in dec.families:
        out = 0
        foreign = (dec.l3 & ~fam.members) | dec.l4
        for t in bits(fam.members):
            if g.rows[t] & foreign:
                out |= 1 << t
        fam.out_mask = out
        internal = 0
        edges = 0
        for t in bits(fam.members):
            link = g.rows[t] & fam.members
            internal |= link | ((1 << t) if link else 0)
            edges += (link >> (t + 1) << (t + 1)).bit_count() if link else 0
        if edges > 1:
            raise AssumptionViolated(
                f"family of anchor {fam.anchor} holds {edges} internal edges"
            )
        fam.internal_edge = internal


def normalize_T(dec: XyDecomposition) -> NormalizeOutcome:
    """Family-level forcings, run to a fixpoint with propagation.

    * empty family: the anchor has no candidate partner, infeasible;
    * singleton family: that member is the partner, forced;
    * a member adjacent to two vertices of another family is the partner
      of its own anchor, forced;
    * three structural edges between two families: infeasible;
    * exactly two: every non-endpoint member of both families is white;
    * an internal family edge: every other member of that family is white.
    """
    g, c = dec.g, dec.coloring
    _build_families(dec)

    for _ in range(4 * len(dec.families) + 4):
        changed = False
        for fam in dec.families:
            u = fam.anchor
            if c.mate[u] >= 0:
                continue
            alive = fam.members & ~c.white
            if not alive:
                return NormalizeOutcome(
                    "infeasible", f"anchor {u} has no remaining partner candidate"
                )
            if alive.bit_count() == 1:
                t = next(bits(alive))
                if c.color_of(t) != BLACK or c.mate[t] != u:
                    bad = force_pair(c, u, t)
                    if bad:
                        return NormalizeOutcome("infeasible", str(bad))
                    dec.forced.append((u, t) if u < t else (t, u))
                    changed = True

        # member seeing two vertices of a foreign family: forced partner
        for fam in dec.families:
            u = fam.anchor
            for t in bits(fam.members):
                if c.color_of(t) == BLACK:
                    continue
                for other in dec.families:
                    if other is fam:
                        continue
                    if (g.rows[t] & other.members).bit_count() >= 2:
                        bad = force_pair(c, u, t)
                        if bad:
                            return NormalizeOutcome("infeasible", str(bad))
                        dec.forced.append((u, t) if u < t else (t, u))
                        changed = True
                        break

        # structural edge budget between family pairs; the bound and the
        # two-edge whitening are only valid for pairwise disjoint edges
        for i, fam in enumerate(dec.families):
            for other in dec.families[i + 1:]:
                cross = 0
                touched = 0
                far_union = 0
                endpoints = 0
                for t in bits(fam.members):
                    link = g.rows[t] & other.members
                    if not link:
                        continue
                    cross += link.bit_count()
                    touched += 1
                    far_union |= link
                    endpoints |= (1 << t) | link
                if cross != touched or far_union.bit_count() != cross:
                    continue  # shared endpoint: the two-of-a-family rule owns it
                if cross >= 3:
                    return NormalizeOutcome(
                        "infeasible",
                        f"three edges between families of anchors {fam.anchor} and {other.anchor}",
                    )
                if cross == 2:
                    rest = (fam.members | other.members) & ~endpoints & c.unknown_mask()
                    for v in bits(rest):
                        bad = c._set(v, WHITE)
                        if bad:
                            return NormalizeOutcome("infeasible", str(bad))
                        changed = True

        # internal family edge pins the partner to its endpoints
        for fam in dec.families:
            if fam.internal_edge:
                rest = fam.members & ~fam.internal_edge & c.unknown_mask()
                for v in bits(rest):
                    bad = c._set(v, WHITE)
                    if bad:
                        return NormalizeOutcome("infeasible", str(bad))
                    changed = True

        bad = c.propagate()
        if bad:
            return NormalizeOutcome("infeasible", str(bad))
        if not changed:
            return NormalizeOutcome("ok")
    raise AssumptionViolated("family normalization failed to stabilize")
