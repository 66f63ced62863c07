"""Distance-level decomposition around a candidate matching edge.

Fixing an edge xy as a matching edge splits the rest of its component into
BFS layers L1..L4 (a suitable center keeps the radius at four).  The layer
structure forces a cascade of facts:

  * propagating the root pair alone makes L1 all white (neighbors of a
    matched pair are unmatched) and so L2 all black; L2's internal edges
    become matched pairs, its isolated vertices (the anchors) must find
    their partner in L3;
  * no edge inside L3 and no L3-L4 edge can be a matching edge: every L3
    vertex sees a black L2 vertex, so propagation pairs a black L3 vertex
    with that neighbor and needs no rule of its own;
  * an L3 vertex seeing two or more anchors must be white: it is an
    unknown vertex with two black neighbors, which propagation whitens
    anywhere in the graph (`coloring`, rule (e));
  * an L4 vertex with no non-white L4 neighbor must be white (its partner
    would have to sit in L4).  At a fixpoint no unknown vertex has a white
    neighbor, so one sweep whitens the unknowns with no L4 neighbor; an
    unknown left after it has an L4 neighbor, none of them white.

These are facts of the whole trial: they run over the whole scope before
its leftover vertices are split into pieces.
"""

from __future__ import annotations

from .coloring import Coloring, Contradiction
from .graph import Edge, Graph, bfs_layers, bits

MAX_RADIUS = 4


class RadiusExceeded(Exception):
    """Some vertex of the component sits at distance > 4 from the edge."""

    def __init__(self, x: int, y: int, vertex: int):
        super().__init__(f"vertex {vertex} is farther than {MAX_RADIUS} from edge ({x},{y})")
        self.edge = (x, y)
        self.vertex = vertex


class XyDecomposition:
    __slots__ = ("g", "x", "y", "scope", "levels", "coloring", "forced", "anchors")

    def __init__(self, g: Graph, x: int, y: int, scope: int, levels: list[int],
                 coloring: Coloring, forced: list[Edge] | None = None,
                 anchors: list[int] | None = None):
        self.g = g
        self.x = x
        self.y = y
        self.scope = scope          # active component mask the trial runs in
        self.levels = levels        # masks; levels[0] == {x,y}
        self.coloring = coloring
        self.forced = [] if forced is None else forced
        self.anchors = [] if anchors is None else anchors

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
    some vertex lies more than four levels out.  Callers read that as
    an undecided trial, never as a refutation: a connected graph of radius
    r has an induced path on 2r - 1 vertices, so at a central x of a
    P9-free scope it cannot happen, and elsewhere it proves nothing."""
    seed = (1 << x) | (1 << y)
    levels = [seed]
    for layer in bfs_layers(g, seed, scope):
        if len(levels) > MAX_RADIUS:
            raise RadiusExceeded(x, y, next(bits(layer)))
        levels.append(layer)
    return XyDecomposition(g=g, x=x, y=y, scope=scope, levels=levels, coloring=coloring)


def apply_initial_facts(dec: XyDecomposition) -> Contradiction | None:
    """Root pair (which colors L1 and L2, pairs L2's edges and whitens
    the L3 vertices shared by two anchors) and lone-L4 whites, propagated
    to a fixpoint."""
    g, c = dec.g, dec.coloring
    bad = c.extend(black=dec.levels[0])
    if bad:
        return bad
    dec.forced.append((dec.x, dec.y) if dec.x < dec.y else (dec.y, dec.x))

    l2 = dec.l2
    anchor_mask = 0
    for v in bits(l2):
        if g.rows[v] & l2:
            u = c.partner(v)
            if v < u:
                dec.forced.append((v, u))
        else:
            anchor_mask |= 1 << v
    dec.anchors = list(bits(anchor_mask))

    # lone L4 unknowns, in one sweep (see the module docstring)
    l4 = dec.l4
    lone = 0
    for v in bits(l4 & c.unknown_mask()):
        if not g.rows[v] & l4:
            lone |= 1 << v
    return c.extend(white=lone)
