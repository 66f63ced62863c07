"""dimkit: decide whether a graph has a dominating induced matching.

An edge set M dominates an edge e when e shares an endpoint with a member
of M.  M is a dominating induced matching when every edge of the graph is
dominated by exactly one member.  The solver decides existence (and
produces the matching) by a budgeted exact search per component, backed
by the paper's engine (polynomial without long induced paths) when that
search runs out; a brute-force oracle (which the solver never consults)
and a certificate verifier keep it honest.
"""

from .coloring import Coloring, extract_matching, parse_matching, serialize_matching
from .driver import SolveConfig, SolveOutcome, solve, verify_outcome
from .generator import (
    PlantedInstance,
    RandomDraw,
    emit_small_corpus,
    gen_c4_augmented,
    gen_planted,
    gen_random,
    iter_small_corpus,
)
from .graph import Graph, GraphFormatError, load_graph, parse_graph, save_graph, serialize_graph
from .oracle import all_dims, count_dims, enumerate_dims, oracle_dim, verify_dim

__all__ = [
    "Coloring",
    "Graph",
    "GraphFormatError",
    "PlantedInstance",
    "RandomDraw",
    "SolveConfig",
    "SolveOutcome",
    "all_dims",
    "count_dims",
    "emit_small_corpus",
    "enumerate_dims",
    "extract_matching",
    "gen_c4_augmented",
    "gen_planted",
    "gen_random",
    "iter_small_corpus",
    "load_graph",
    "oracle_dim",
    "parse_graph",
    "parse_matching",
    "save_graph",
    "serialize_graph",
    "serialize_matching",
    "solve",
    "verify_dim",
    "verify_outcome",
]
