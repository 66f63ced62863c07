"""Certificate check written from the definition alone.

A set M of edges is a dominating induced matching when every edge of the
graph touches exactly one member of M (an edge of M touches itself).
"""

from __future__ import annotations

from typing import Iterable

Edge = tuple[int, int]


def is_dim(edges: Iterable[Edge], matching: Iterable[Edge]) -> bool:
    graph = {(min(u, v), max(u, v)) for u, v in edges}
    chosen = {(min(u, v), max(u, v)) for u, v in matching}
    if not chosen <= graph:
        return False
    touching: dict[int, int] = {}
    for u, v in chosen:
        touching[u] = touching.get(u, 0) + 1
        touching[v] = touching.get(v, 0) + 1
    for u, v in graph:
        # members through u plus members through v, counting uv itself once
        if touching.get(u, 0) + touching.get(v, 0) - ((u, v) in chosen) != 1:
            return False
    return True
