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

Every fact but the last comes from the root pair's propagation, which
needs no levels, so a trial builds them only when the pair survives.  The
facts run over the whole scope before its leftovers split into pieces.
"""

from __future__ import annotations

from .coloring import Coloring, Contradiction
from .graph import Edge, Graph, bfs_layers, bits

MAX_RADIUS = 4


class RadiusExceeded(Exception):
    """Some vertex of the component sits at distance > 4 from the edge."""

    def __init__(self, x: int, y: int, vertex: int):
        super().__init__(f"vertex {vertex} is farther than {MAX_RADIUS} from edge ({x},{y})")
        self.vertex = vertex


def build_levels(g: Graph, scope: int, x: int, y: int) -> list[int]:
    """Masks of the BFS layers of the component from levels[0] = {x, y};
    raises RadiusExceeded when some vertex lies more than four levels out.
    Callers read that as an undecided trial, never as a refutation: a
    connected graph of radius r has an induced path on 2r - 1 vertices, so
    at a central x of a P9-free scope it cannot happen, and elsewhere it
    proves nothing."""
    levels = [(1 << x) | (1 << y)]
    for layer in bfs_layers(g, levels[0], scope):
        if len(levels) > MAX_RADIUS:
            raise RadiusExceeded(x, y, next(bits(layer)))
        levels.append(layer)
    return levels


def apply_initial_facts(c: Coloring, levels: list[int]) -> Contradiction | None:
    """Root pair (which colors L1 and L2, pairs L2's edges and whitens
    the L3 vertices shared by two anchors) and lone-L4 whites, propagated
    to a fixpoint.  A root pair already black costs nothing."""
    bad = c.extend(black=levels[0])
    if bad:
        return bad
    # lone L4 unknowns, in one sweep (see the module docstring)
    rows = c.g.rows
    l4 = levels[4] if len(levels) > 4 else 0
    lone = 0
    for v in bits(c.unknown_mask(l4)):
        if not rows[v] & l4:
            lone |= 1 << v
    return c.extend(white=lone)


def forced_and_anchors(c: Coloring, levels: list[int]) -> tuple[list[Edge], list[int]]:
    """The matched edges the root pair forces (the pair, then L2's
    internal edges) and the anchors (L2's vertices with no L2 neighbor);
    the pair must already be propagated without a clash."""
    rows = c.g.rows
    x, y = bits(levels[0])
    forced = [(x, y)]
    l2 = levels[2] if len(levels) > 2 else 0
    anchors = []
    for v in bits(l2):
        if rows[v] & l2:
            u = c.partner(v)
            if v < u:
                forced.append((v, u))
        else:
            anchors.append(v)
    return forced, anchors
