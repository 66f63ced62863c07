"""Instance generators for differential testing and benchmarking.

Three sources of test graphs:

* ``gen_planted``     -- yes-instances built around a known dominating
                         induced matching, arbitrary size.
* ``gen_random``      -- G(n, p) rejection sampling with optional
                         structural filters.
* ``iter_small_corpus`` / ``emit_small_corpus`` -- every connected graph
                         on up to eight vertices, one representative per
                         isomorphism class (told apart by an exact
                         canonical form, no isomorphism library needed),
                         written out with oracle labels.

All generators are deterministic in (parameters, seed): the same call
produces byte-identical graph files on every run.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from .graph import Edge, Graph, members, serialize_graph
from .oracle import oracle_dim, verify_dim
from .patterns import P9_VERIFIED, RANDOM_FILTERS, classify_p9, find_k4, iter_butterflies, iter_diamonds


# ---------------------------------------------------------------------------
# Planted yes-instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedInstance:
    graph: Graph
    planted: tuple[Edge, ...]
    seed: int
    p9_free: str


def check_planted(n: int, k: int, extra: int) -> None:
    """Raise ValueError unless `gen_planted` can draw (n, k, extra): all
    three nonnegative, 2k <= n, and extra within the cross-edge capacity
    2k(n - 2k)."""
    if n < 0 or k < 0 or extra < 0:
        raise ValueError("n, k and extra must be nonnegative")
    if 2 * k > n:
        raise ValueError(f"need 2*k <= n, got n={n} k={k}")
    capacity = 2 * k * (n - 2 * k)
    if extra > capacity:
        raise ValueError(f"extra={extra} exceeds cross-edge capacity {capacity}")


def gen_planted(n: int, k: int, extra: int, seed: int) -> PlantedInstance:
    """Graph on n vertices with a planted dominating induced matching of k edges.

    Vertices 2i and 2i+1 are matched for i < k; the rest are unmatched.
    Every additional edge joins an unmatched vertex to a matched one, which
    preserves the planted matching: unmatched vertices stay pairwise
    non-adjacent and each matched vertex keeps exactly one matched neighbor.
    The first extra edges are spent making the graph connected (as far as
    the budget and the vertex mix allow), the rest are placed uniformly.
    Parameters `check_planted` refuses raise ValueError.
    """
    check_planted(n, k, extra)
    rng = random.Random(seed)
    planted = tuple((2 * i, 2 * i + 1) for i in range(k))
    edges: list[Edge] = list(planted)
    matched = list(range(2 * k))
    unmatched = list(range(2 * k, n))

    # Initial components: k matched pairs plus n-2k isolated vertices. Chain
    # the pairs together through distinct unmatched vertices, then hang every
    # remaining unmatched vertex off a random matched one. That spans all
    # components whenever the budget and the vertex mix allow.
    budget = extra
    if matched and unmatched:
        pair_order = list(range(k))
        rng.shuffle(pair_order)
        ws = unmatched[:]
        rng.shuffle(ws)
        repair: list[Edge] = []
        chain = min(k - 1, len(ws))
        for i in range(chain):
            w = ws[i]
            repair.append((w, 2 * pair_order[i] + rng.randrange(2)))
            repair.append((w, 2 * pair_order[i + 1] + rng.randrange(2)))
        for w in ws[chain:]:
            repair.append((w, 2 * pair_order[rng.randrange(k)] + rng.randrange(2)))
        for w, b in repair:
            if budget == 0:
                break
            edges.append((min(w, b), max(w, b)))
            budget -= 1

    if budget > 0:
        # The free (unmatched, matched) pairs in row-major order, drawn by
        # index so that they are never listed: row u holds the matched
        # vertices minus those of its repair edges, and `starts` holds each
        # row's first index.
        taken: dict[int, list[int]] = {u: [] for u in unmatched}
        for m, u in edges[k:]:
            taken[u].append(m)
        starts = list(accumulate((2 * k - len(taken[u]) for u in unmatched), initial=0))
        for i in rng.sample(range(starts[-1]), budget):
            r = bisect_right(starts, i) - 1
            u, m = unmatched[r], i - starts[r]
            for t in sorted(taken[u]):
                if t <= m:
                    m += 1
            edges.append((m, u))

    g = Graph.from_edges(n, edges)
    check = verify_dim(g, planted)
    assert check.ok, f"planted matching failed verification: {check.reason}"
    return PlantedInstance(graph=g, planted=planted, seed=seed, p9_free=classify_p9(g)[0])


def gen_c4_augmented(n: int, k: int, extra: int, seed: int) -> Graph:
    """Planted instance plus a pendant four-cycle, which has no solution.

    A four-cycle never contributes a matching edge, so all four of its edges
    need endpoints matched elsewhere; the corner opposite the attachment
    point has no elsewhere.  Useful as a guaranteed-rejection benchmark
    family.  The four cycle vertices take the ids n, n+1, n+2, n+3.
    """
    base = gen_planted(n, k, extra, seed)
    rng = random.Random(seed ^ 0x5EED)
    attach = rng.randrange(n) if n else 0
    c = [n, n + 1, n + 2, n + 3]
    edges = base.graph.edges()
    edges += [(c[0], c[1]), (c[1], c[2]), (c[2], c[3]), (c[0], c[3])]
    if n:
        edges.append((attach, c[0]))
    return Graph.from_edges(n + 4, edges)


# ---------------------------------------------------------------------------
# Filtered random graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomDraw:
    """Outcome of rejection sampling; graph is None when the cap ran out."""

    graph: Graph | None
    attempts: int
    seed: int
    rejections: dict[str, int]


def _erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def _first_failed_filter(g: Graph, filters: tuple[str, ...]) -> str | None:
    for f in filters:
        if f == "k4_free":
            if find_k4(g) is not None:
                return f
        elif f == "diamond_butterfly_free":
            if next(iter_diamonds(g), None) is not None:
                return f
            if next(iter_butterflies(g), None) is not None:
                return f
        elif f == "p9_free":
            if classify_p9(g)[0] != P9_VERIFIED:
                return f
    return None


def check_random(p: float, filters: tuple[str, ...] = (), attempt_cap: int = 200) -> None:
    """Raise ValueError unless `gen_random` can sample with these
    parameters: p in [0, 1] (NaN is not), known filters, a positive cap."""
    unknown = set(filters) - set(RANDOM_FILTERS)
    if unknown:
        raise ValueError(f"unknown filters: {sorted(unknown)}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if attempt_cap < 1:
        raise ValueError("attempt_cap must be positive")


def gen_random(
    n: int,
    p: float,
    seed: int,
    filters: tuple[str, ...] = (),
    attempt_cap: int = 200,
) -> RandomDraw:
    """Sample G(n, p) until every requested filter passes or the cap is hit.
    Parameters `check_random` refuses raise ValueError."""
    check_random(p, filters, attempt_cap)
    rng = random.Random(seed)
    rejections = {f: 0 for f in filters}
    for attempt in range(1, attempt_cap + 1):
        g = _erdos_renyi(n, p, rng)
        failed = _first_failed_filter(g, tuple(filters))
        if failed is None:
            return RandomDraw(graph=g, attempts=attempt, seed=seed, rejections=rejections)
        rejections[failed] += 1
    return RandomDraw(graph=None, attempts=attempt_cap, seed=seed, rejections=rejections)


# ---------------------------------------------------------------------------
# Exhaustive small-graph corpus
# ---------------------------------------------------------------------------


def _refine(nbrs: list[list[int]], col: list[int]) -> list[int]:
    """Recolor every vertex by the rank of (its color, its sorted neighbor
    colors) until no cell splits.  Ranks keep the old cell order."""
    cells = len(set(col))
    while True:
        sig = [(col[v], tuple(sorted(col[u] for u in nb))) for v, nb in enumerate(nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        col = [rank[s] for s in sig]
        if len(rank) == cells:
            return col
        cells = len(rank)


def _canonical_form(g: Graph) -> tuple[int, ...]:
    """Exact canonical code: equal for two graphs iff they are isomorphic.

    Individualization-refinement: refine the coloring to a fixpoint, then
    branch on each vertex of the first non-singleton cell, given a color of
    its own, and refine again.  Each leaf is a discrete coloring, i.e. a
    relabeling, and the code is the smallest relabeled adjacency-row tuple
    over all leaves.  Only one vertex per twin class is tried in a cell:
    swapping two twins is an automorphism that keeps the coloring, so
    their subtrees give the same codes.
    """
    rows = g.rows
    nbrs = [members(row) for row in rows]

    def visit(col: list[int]) -> tuple[int, ...]:
        col = _refine(nbrs, col)
        cells = len(set(col))
        if cells == g.n:
            code = [0] * g.n
            for v, nb in enumerate(nbrs):
                code[col[v]] = sum(1 << col[u] for u in nb)
            return tuple(code)
        target = min(c for c in range(cells) if col.count(c) > 1)
        tried: list[int] = []
        codes = []
        for v in range(g.n):
            if col[v] != target or any(rows[v] & ~(1 << u) == rows[u] & ~(1 << v) for u in tried):
                continue
            tried.append(v)
            split = [2 * c for c in col]
            split[v] -= 1  # v alone, just below the rest of its cell
            codes.append(visit(split))
        return min(codes)

    return visit([0] * g.n)


def _extend(parent: Graph, mask: int) -> Graph:
    edges = parent.edges()
    v_new = parent.n
    edges.extend((u, v_new) for u in members(mask))
    return Graph.from_edges(parent.n + 1, edges)


def iter_small_corpus(max_n: int):
    """An iterator over one representative per isomorphism class of
    connected graphs on 2..max_n vertices, in a deterministic order.  A
    max_n outside 2..8 raises ValueError at the call, before any graph.

    Every connected graph on n >= 3 vertices has a vertex whose removal
    leaves it connected, so extending each (n-1)-vertex representative by
    one vertex with every nonempty neighborhood reaches every class.  A
    candidate is kept when its canonical form is new to its layer, so the
    representative of a class is its first candidate in that order.
    """
    if not 2 <= max_n <= 8:
        raise ValueError(f"max_n must be in 2..8, got {max_n}")
    return _grow_small_corpus(max_n)


def _grow_small_corpus(max_n: int):
    layer = [Graph.from_edges(2, [(0, 1)])]
    yield layer[0]
    for n in range(3, max_n + 1):
        nxt: list[Graph] = []
        seen: set[tuple[int, ...]] = set()
        for parent in layer:
            for mask in range(1, 1 << (n - 1)):
                cand = _extend(parent, mask)
                code = _canonical_form(cand)
                if code in seen:
                    continue
                seen.add(code)
                nxt.append(cand)
                yield cand
        layer = nxt


def emit_small_corpus(out_dir: str | Path, max_n: int) -> list[dict]:
    """Write the corpus plus a JSON-lines manifest; returns the manifest rows.

    Graphs on at most eight vertices cannot contain an induced nine-vertex
    path, so p9_free is verified by construction.
    """
    graphs = iter_small_corpus(max_n)  # checks max_n before anything is written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    counter: dict[int, int] = {}
    for g in graphs:
        idx = counter.get(g.n, 0)
        counter[g.n] = idx + 1
        name = f"n{g.n}_{idx:04d}.graph"
        (out / name).write_text(serialize_graph(g))
        report = oracle_dim(g)
        assert report.status in ("dim", "no-dim")
        rows.append(
            {
                "path": name,
                "n": g.n,
                "m": g.m,
                "label": report.status,
                "p9_free": P9_VERIFIED,
                "seed": None,
            }
        )
    write_manifest(out, rows)
    return rows


def write_manifest(out: Path, rows: list[dict]) -> None:
    """One run's JSON-lines manifest, written whole; with no rows an
    existing manifest is left as it was."""
    if rows:
        (out / "manifest.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
