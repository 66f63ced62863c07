"""Seeded inputs for the benchmark, with verdicts known from construction.

Nothing here calls the solver or ``dimkit.generator``: a change to the
program's own generators cannot change what the benchmark measures.  Every
instance carries the verdict its construction implies:

* ``planted``  -- a planted matching (yes), and the same graph with a
  pendant four-cycle (no: see ``pendant_c4``).
* ``inclass``  -- graphs free of an induced nine-vertex path, built by
  substitution from 14-vertex hosts that the exhaustive search below finds
  P9-free.  A path on four or more vertices is prime, so an induced P9 of
  a substitution composite would lie inside one piece or induce a P9 in
  the quotient: false twins (edgeless pieces) and disjoint unions (an
  edgeless quotient) keep every member P9-free.  False twins of degree
  >= 2 are unmatched in every d.i.m., so an expansion has a d.i.m. exactly
  when its host has one that leaves every expanded vertex unmatched, which
  ``dimkit.oracle.enumerate_dims`` settles on the host.
* ``small``    -- G(n, p) graphs with n <= 12, labelled by
  ``dimkit.oracle.oracle_dim``.

Run as a script to (re)make one workload's files::

    python3 perfbench/workloads.py --workload inclass --seed 3 --out DIR

It writes ``<name>.graph`` files in dimkit's text format plus
``manifest.json`` listing each file with its size, expected verdict and
make-up.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

Edge = tuple[int, int]

# Bumped whenever a construction changes, so stale cached files are not reused.
INPUT_VERSION = 9

PLANTED_SIZES = (300, 400, 600, 800, 1000, 1200, 1600, 2000)
INCLASS_TWIN_SIZES = tuple(range(40, 161, 8))
INCLASS_UNION_HOSTS = (4, 5, 6)
INCLASS_LONG_PATH_SIZES = (300,)
INCLASS_FAMILY_SEED = 0
PLANTED_FAMILY_SEED = 0
HOST_N = 14
SMALL_SIZES = tuple(range(3, 13))
SMALL_PER_CELL = 50
SMALL_PROBS = (0.1, 0.2, 0.3, 0.5)


def _src_on_path() -> None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- graph text -------------------------------------------------------------


def graph_text(n: int, edges: list[Edge]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _relabel(n: int, edges: list[Edge], rng: random.Random) -> list[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [_norm(perm[u], perm[v]) for u, v in edges]


# -- planted ----------------------------------------------------------------


def planted_graph(n: int, k: int, extra: int, rng: random.Random) -> tuple[list[Edge], list[Edge]]:
    """Edges of a connected graph on n vertices with a planted d.i.m. of k
    edges, plus that matching.  Vertices 2i, 2i+1 (i < k) are the matched
    pairs; every other edge joins an unmatched vertex to a matched one,
    which keeps the planted matching dominating and induced."""
    if not (0 < 2 * k < n):
        raise ValueError(f"need 0 < 2k < n, got n={n} k={k}")
    matching = [(2 * i, 2 * i + 1) for i in range(k)]
    unmatched = list(range(2 * k, n))
    rng.shuffle(unmatched)
    order = list(range(k))
    rng.shuffle(order)
    cross: set[Edge] = set()
    # chain the pairs through distinct unmatched vertices, then hang the
    # remaining unmatched vertices off random matched ones
    chain = min(k - 1, len(unmatched))
    for i in range(chain):
        w = unmatched[i]
        cross.add(_norm(w, 2 * order[i] + rng.randrange(2)))
        cross.add(_norm(w, 2 * order[i + 1] + rng.randrange(2)))
    for w in unmatched[chain:]:
        cross.add(_norm(w, rng.randrange(2 * k)))
    if chain < k - 1:
        raise ValueError("too few unmatched vertices to connect the pairs")
    while len(cross) < extra:
        cross.add(_norm(rng.choice(unmatched), rng.randrange(2 * k)))
    return matching + sorted(cross), matching


def pendant_c4(n: int, edges: list[Edge], rng: random.Random) -> tuple[int, list[Edge]]:
    """Attach a four-cycle n, n+1, n+2, n+3 to a random vertex by one edge.

    The cycle's edges cannot be matched, so n+1 and n+3 (degree 2, both
    neighbours on the cycle) stay unmatched, and the edge (n+1, n+2) is
    dominated only if n+2 is matched -- but n+2's neighbours are n+1 and
    n+3.  No d.i.m. exists.
    """
    c = [n, n + 1, n + 2, n + 3]
    out = list(edges) + [(c[0], c[1]), (c[1], c[2]), (c[2], c[3]), (c[0], c[3])]
    out.append(_norm(rng.randrange(n), c[0]))
    return n + 4, out


def make_planted(seed: int) -> list[dict]:
    """A fixed corpus from PLANTED_FAMILY_SEED; `seed` only orders the
    instances.  Drawing the graphs per seed moved p75 of the solve times by
    20% (IQR over median, ten seeds): the complete search on a pendant-C4
    instance ran up to twice as long on some draws."""
    rng = random.Random(f"planted-family:{PLANTED_FAMILY_SEED}")
    out = []
    for n in PLANTED_SIZES:
        edges, _ = planted_graph(n, n // 4, n, rng)
        edges = _relabel(n, edges, rng)
        out.append(_item(f"yes-{n}", n, edges, "dim", kind="planted"))
        n4, edges4 = pendant_c4(n, edges, rng)
        out.append(_item(f"no-{n}", n4, edges4, "no-dim", kind="pendant-c4"))
    random.Random(f"planted:{seed}").shuffle(out)
    return out


# -- substitution -----------------------------------------------------------


def compose(base_n: int, base_edges: list[Edge], pieces: list[tuple[int, list[Edge]]]) -> tuple[int, list[Edge]]:
    """Substitute pieces[b] for base vertex b: the pieces keep their own
    edges, and pieces of adjacent base vertices are joined completely.  An
    edgeless base gives the disjoint union of the pieces."""
    offset = []
    total = 0
    for pn, _ in pieces:
        offset.append(total)
        total += pn
    edges = []
    for b, (pn, pe) in enumerate(pieces):
        edges.extend((offset[b] + u, offset[b] + v) for u, v in pe)
    for a, b in base_edges:
        for i in range(pieces[a][0]):
            for j in range(pieces[b][0]):
                edges.append(_norm(offset[a] + i, offset[b] + j))
    return total, edges


def _rows(n: int, edges: list[Edge]) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def find_induced_path(n: int, edges: list[Edge], k: int) -> list[int] | None:
    """Some k vertices inducing a path, or None, by extending induced paths
    one vertex at a time: a new end may touch no path vertex but the old end."""
    rows = _rows(n, edges)

    def extend(path: list[int], on_path: int, touched: int) -> list[int] | None:
        if len(path) == k:
            return path
        tip = path[-1]
        cand = rows[tip] & ~touched & ~on_path
        touched |= rows[tip]
        while cand:
            low = cand & -cand
            cand ^= low
            found = extend(path + [low.bit_length() - 1], on_path | low, touched)
            if found:
                return found
        return None

    for s in range(n):
        found = extend([s], 1 << s, 0)
        if found:
            return found
    return None


def draw_host(rng: random.Random) -> tuple[int, list[Edge]]:
    """A connected 14-vertex host with a planted d.i.m. of four edges and ten
    more edges, drawn until the exhaustive search finds no induced P9 (on
    15 or more vertices such draws almost never come out P9-free)."""
    while True:
        edges, _ = planted_graph(HOST_N, 4, 10, rng)
        if find_induced_path(HOST_N, edges, 9) is None:
            return HOST_N, edges


def host_dims(n: int, edges: list[Edge]) -> list[frozenset[int]]:
    """Matched-vertex sets of every d.i.m. of the host, from the oracle."""
    _src_on_path()
    from dimkit.graph import Graph
    from dimkit.oracle import enumerate_dims

    g = Graph.from_edges(n, edges)
    return [frozenset(v for e in m for v in e) for m in enumerate_dims(g)]


def twin_label(dims: list[frozenset[int]], expanded: set[int]) -> str:
    """Verdict of the expansion: false twins of degree >= 2 are unmatched in
    every d.i.m., so some host d.i.m. must leave all expanded vertices out."""
    return "dim" if any(not (m & expanded) for m in dims) else "no-dim"


def twin_piece(n: int | None, want: str, max_classes: int, rng: random.Random) -> tuple[int, list[Edge], str, dict]:
    """A host grown to n vertices (one more when n is None) by false twins
    of 1..max_classes pairwise non-adjacent vertices of degree >= 2, drawn
    until its verdict is `want`."""
    while True:
        nh, hedges = draw_host(rng)
        extra = n - nh if n is not None else 1
        rows = _rows(nh, hedges)
        dims = host_dims(nh, hedges)
        pool = [v for v in range(nh) if rows[v].bit_count() >= 2]
        if want == "dim":
            matched = rng.choice(dims)
            pool = [v for v in pool if v not in matched]
        rng.shuffle(pool)
        classes = rng.randint(1, max_classes)
        chosen: list[int] = []
        for v in pool:
            if len(chosen) < classes and not any(rows[v] >> u & 1 for u in chosen):
                chosen.append(v)
        if not chosen or extra < len(chosen):
            continue
        label = twin_label(dims, set(chosen))
        if label != want:
            continue
        # spread the twins evenly, so no single class dominates by chance
        counts = {v: 1 + extra // len(chosen) for v in chosen}
        for v in chosen[: extra % len(chosen)]:
            counts[v] += 1
        pieces = [(counts.get(v, 1), []) for v in range(nh)]
        n, edges = compose(nh, hedges, pieces)
        return n, edges, label, {"host_n": nh, "twin_classes": len(chosen)}


def long_path_member(n: int, rng: random.Random) -> tuple[int, list[Edge], str, dict]:
    """A host with an induced eight-vertex path, every second inner vertex
    of which is expanded into false twins up to n vertices in all.  Induced paths through several twin
    classes multiply, which is what runs the program's P9 scan out of its
    step budget today."""
    while True:
        nh, hedges = draw_host(rng)
        path = find_induced_path(nh, hedges, 8)
        if path is None:
            continue
        chosen = path[1:-1:2]  # inner path vertices, so of degree >= 2
        counts = {v: 1 + (n - nh) // len(chosen) for v in chosen}
        for v in chosen[: (n - nh) % len(chosen)]:
            counts[v] += 1
        label = twin_label(host_dims(nh, hedges), set(chosen))
        gn, edges = compose(nh, hedges, [(counts.get(v, 1), []) for v in range(nh)])
        return gn, edges, label, {"host_n": nh, "twin_classes": len(chosen)}


def union_member(hosts: int, want: str, rng: random.Random) -> tuple[int, list[Edge], str, dict]:
    """Disjoint union (substitution into an edgeless base) of P9-free hosts,
    each with at most one vertex doubled, so that few vertices are twins.
    The union has a d.i.m. exactly when every part has one."""
    wants = ["dim"] * hosts
    if want == "no-dim":
        wants[rng.randrange(hosts)] = "no-dim"
    parts = [twin_piece(None, w, 1, rng) for w in wants]
    n, edges = compose(hosts, [], [(pn, pe) for pn, pe, _, _ in parts])
    label = "no-dim" if any(lab == "no-dim" for _, _, lab, _ in parts) else "dim"
    return n, edges, label, {"host_n": [info["host_n"] for *_, info in parts], "twin_classes": hosts}


def make_inclass(seed: int) -> list[dict]:
    """A fixed corpus: shapes and vertex labels come from the family seed, and
    `seed` only orders the instances within a pass.  Relabelling the same
    shapes per seed moved the median solve time between seeds by 15-24%
    (IQR over median, six seeds), because centre ties and trial order follow
    the labels; that is more than a change worth detecting."""
    rng = random.Random(f"inclass-family:{INCLASS_FAMILY_SEED}")
    out = []
    for want in ("dim", "no-dim"):
        for n in INCLASS_TWIN_SIZES:
            gn, edges, label, info = twin_piece(n, want, 2, rng)
            out.append(_item(f"twins-{want}-{n}", gn, _relabel(gn, edges, rng), label,
                             kind="twin-expansion", **info))
        for hosts in INCLASS_UNION_HOSTS:
            gn, edges, label, info = union_member(hosts, want, rng)
            out.append(_item(f"union-{want}-{hosts}", gn, _relabel(gn, edges, rng), label,
                             kind="host-union", **info))
    for i, n in enumerate(INCLASS_LONG_PATH_SIZES):
        gn, edges, label, info = long_path_member(n, rng)
        out.append(_item(f"longpath-{i}-{n}", gn, _relabel(gn, edges, rng), label,
                         kind="long-path-twins", **info))
    random.Random(f"inclass:{seed}").shuffle(out)
    return out


# -- small ------------------------------------------------------------------


def make_small(seed: int) -> list[dict]:
    """SMALL_PER_CELL graphs for every (n, p) with 3 <= n <= 12 and p in
    SMALL_PROBS, so the mix of sizes and densities is the same for every seed."""
    _src_on_path()
    from dimkit.graph import Graph
    from dimkit.oracle import oracle_dim

    rng = random.Random(f"small:{seed}")
    out = []
    for i in range(SMALL_PER_CELL):
        for n in SMALL_SIZES:
            for p in SMALL_PROBS:
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                report = oracle_dim(Graph.from_edges(n, edges))
                out.append(_item(f"g{len(out):05d}", n, edges, report.status, kind="gnp", p=p))
    return out


# -- files ------------------------------------------------------------------


def _item(name: str, n: int, edges: list[Edge], expect: str, **info) -> dict:
    return {"name": name, "n": n, "edges": edges, "expect": expect, **info}


MAKERS = {"planted": make_planted, "inclass": make_inclass, "small": make_small}


def write_workload(workload: str, seed: int, out: Path) -> list[dict]:
    """Make the workload's instances and write them under `out`."""
    items = MAKERS[workload](seed)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for it in items:
        fname = f"{it['name']}.graph"
        (out / fname).write_text(graph_text(it["n"], it["edges"]), encoding="ascii")
        entry = {k: v for k, v in it.items() if k != "edges"}
        entry["file"] = fname
        entry["m"] = len(it["edges"])
        manifest.append(entry)
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps({"workload": workload, "seed": seed, "version": INPUT_VERSION,
                               "instances": manifest}, indent=1))
    os.replace(tmp, out / "manifest.json")
    return manifest


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(MAKERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_workload(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
