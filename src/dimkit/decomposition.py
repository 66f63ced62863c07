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
    anywhere in the graph (`coloring`, rule (e)).

Every fact comes from the root pair's propagation, which needs no levels
and runs over the whole scope before its leftovers split into pieces.
The engine's trial (`component_solver.try_edge`) runs that propagation
alone and builds no levels; they serve only `dimkit explain` and the
soundness harness, which show a trial's facts laid out by distance.

`trial_facts` is their stage, written once: the pair, then the levels.
`dimkit explain` and the soundness harness both run it.
"""

from __future__ import annotations

from .coloring import Coloring, Contradiction
from .graph import Edge, Graph, bfs_layers, bits, members

MAX_RADIUS = 4


class RadiusExceeded(Exception):
    """Some vertex of the component sits at distance > 4 from the edge."""

    def __init__(self, x: int, y: int, vertex: int):
        super().__init__(f"vertex {vertex} is farther than {MAX_RADIUS} from edge ({x},{y})")
        self.vertex = vertex


def build_levels(g: Graph, scope: int, x: int, y: int) -> list[int]:
    """Masks of the BFS layers of the component from levels[0] = {x, y};
    raises RadiusExceeded when some vertex lies more than four levels out.
    That proves nothing about the trial: a connected graph of radius r has
    an induced path on 2r - 1 vertices, so at a central x of a P9-free
    scope it cannot happen, and elsewhere the levels only stop there."""
    levels = [(1 << x) | (1 << y)]
    for layer in bfs_layers(g, levels[0], scope):
        if len(levels) > MAX_RADIUS:
            raise RadiusExceeded(x, y, next(bits(layer)))
        levels.append(layer)
    return levels


def trial_facts(c: Coloring, scope: int, x: int, y: int) -> tuple[list[int], Contradiction | None]:
    """The facts of the xy trial on c: propagate the pair, then build the
    levels of scope.  Returns (levels, None), or ([], the clash) when the
    pair's propagation clashes, before any level is built.  A surviving
    pair whose levels run past four raises RadiusExceeded.  On a clash or
    a raise c is left partly extended; callers restore a snapshot."""
    bad = c.extend(black=1 << x | 1 << y)
    if bad:
        return [], bad
    return build_levels(c.g, scope, x, y), None


def forced_and_anchors(c: Coloring, levels: list[int]) -> tuple[list[Edge], list[int]]:
    """The matched edges the root pair forces (the pair, then L2's
    internal edges) and the anchors (L2's vertices with no L2 neighbor);
    the pair must already be propagated without a clash."""
    rows = c.g.rows
    x, y = members(levels[0])
    forced = [(x, y)]
    l2 = levels[2] if len(levels) > 2 else 0
    anchors = []
    for v in members(l2):
        if rows[v] & l2:
            u = c.partner(v)
            if v < u:
                forced.append((v, u))
        else:
            anchors.append(v)
    return forced, anchors
