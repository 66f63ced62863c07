"""Command-line front door.

Verbs: solve, verify, oracle, check, explain, gen (planted / random /
corpus), cross-check.  Exit codes: solve and oracle use 0 =
solution found, 1 = provably none, 2 = undecided; verify uses 0 = valid,
1 = invalid; cross-check returns 1 on any solver/oracle disagreement;
every input problem (unreadable file, bad flag, malformed matching, a
graph header above ``graph.MAX_VERTICES``) exits 3; any other failure,
out-of-memory included, exits 4 (internal error) with its traceback on
standard error, so a crash never reads as a verdict.

cross-check solves and oracle-checks its instances one after another in
this process.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import click

from .coloring import Coloring, extract_matching, parse_matching, serialize_matching
from .decomposition import RadiusExceeded, apply_initial_facts, build_levels
from .driver import SolveConfig, solve
from .generator import (
    emit_small_corpus,
    gen_planted,
    gen_random,
    RANDOM_FILTERS,
)
from .graph import MAX_VERTICES, Graph, GraphFormatError, bits, connected_components, load_graph, serialize_graph
from .oracle import oracle_dim, verify_dim
from .patterns import classify_p9, find_k4, iter_butterflies, iter_diamonds


class InputError(click.ClickException):
    exit_code = 3


def _load_graph(path: str) -> Graph:
    try:
        return load_graph(path)
    except (OSError, GraphFormatError, ValueError) as exc:
        raise InputError(f"cannot load graph {path}: {exc}") from exc


def _load_matching(path: str):
    try:
        return parse_matching(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load matching {path}: {exc}") from exc


@click.group()
def cli():
    """Dominating-induced-matching toolkit."""


# -- solve ------------------------------------------------------------------


@cli.command("solve")
@click.argument("graph_path")
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
@click.option("--check-p9/--no-check-p9", default=True, show_default=True,
              help="report whether the graph is free of induced nine-vertex paths "
                   "(the scan decides no verdict)")
@click.option("--budget-branches", type=click.IntRange(min=0), default=None,
              help="branch cap of the exact search of each component, root probe "
                   "trials included [default: max(4096, 8*size)]; at 0 the engine "
                   "runs alone")
def solve_cmd(graph_path, as_json, check_p9, budget_branches):
    """Decide whether GRAPH_PATH has a dominating induced matching."""
    g = _load_graph(graph_path)
    cfg = SolveConfig(check_p9=check_p9, branch_budget=budget_branches)
    out = solve(g, cfg)
    if as_json:
        click.echo(out.to_json())
    else:
        click.echo(f"status: {out.status}")
        if out.matching is not None:
            click.echo("matching: " + " ".join(f"{u}-{v}" for u, v in out.matching))
        if out.reason:
            click.echo(f"reason: {out.reason}")
        s = out.stats
        click.echo(
            f"stats: edges_tried={s['edges_tried']} forced_edges={s['forced_edges']} "
            f"branches={s['branches']}"
        )
        click.echo(f"p9_checked: {str(out.p9_checked).lower()}")
    return {"dim": 0, "no-dim": 1, "inconclusive": 2}[out.status]


# -- verify -----------------------------------------------------------------


@cli.command("verify")
@click.argument("graph_path")
@click.argument("matching_path")
def verify_cmd(graph_path, matching_path):
    """Check that MATCHING_PATH is a dominating induced matching of GRAPH_PATH."""
    g = _load_graph(graph_path)
    m = _load_matching(matching_path)
    try:
        res = verify_dim(g, m)
    except ValueError as exc:
        raise InputError(f"malformed matching: {exc}") from exc
    if res.ok:
        click.echo("ok")
        return 0
    click.echo(f"invalid: {res.reason}")
    return 1


# -- oracle -----------------------------------------------------------------


@cli.command("oracle")
@click.argument("graph_path")
@click.option("--json", "as_json", is_flag=True)
@click.option("--node-limit", type=click.IntRange(min=0), default=2_000_000, show_default=True)
def oracle_cmd(graph_path, as_json, node_limit):
    """Exact exhaustive search (small graphs only)."""
    g = _load_graph(graph_path)
    rep = oracle_dim(g, node_limit=node_limit)
    if as_json:
        click.echo(json.dumps({
            "status": rep.status,
            "matching": [list(e) for e in rep.matching] if rep.matching else [],
            "nodes": rep.nodes,
        }))
    else:
        click.echo(f"status: {rep.status}")
        if rep.matching:
            click.echo("matching: " + " ".join(f"{u}-{v}" for u, v in rep.matching))
        click.echo(f"nodes: {rep.nodes}")
    return {"dim": 0, "no-dim": 1, "limit": 2}[rep.status]


# -- check ------------------------------------------------------------------


@cli.command("check")
@click.argument("graph_path")
@click.option("--json", "as_json", is_flag=True)
def check_cmd(graph_path, as_json):
    """Report structural features relevant to solvability."""
    g = _load_graph(graph_path)
    k4 = find_k4(g)
    diamonds = sum(1 for _ in iter_diamonds(g))
    butterflies = sum(1 for _ in iter_butterflies(g))
    p9_state, p9 = classify_p9(g)
    info = {
        "n": g.n,
        "m": g.m,
        "k4": list(k4.vertices) if k4 else None,
        "diamonds": diamonds,
        "butterflies": butterflies,
        "p9_free": p9_state,
        "p9_witness": list(p9) if p9 else None,
    }
    if as_json:
        click.echo(json.dumps(info))
    else:
        for key, val in info.items():
            click.echo(f"{key}: {val}")
    return 0


# -- explain ----------------------------------------------------------------


def _verts(mask: int) -> list[int]:
    return list(bits(mask))


@cli.command("explain")
@click.argument("graph_path")
@click.argument("x", type=int)
@click.argument("y", type=int)
def explain_cmd(graph_path, x, y):
    """Dump the distance-level decomposition rooted at matched edge (X, Y).

    JSON on stdout: BFS levels, colors and forced edges after the level
    facts (lone-L4 whitening included), the anchors and the L3 vertices
    they share, and the leftover pieces the trial would search.  Exit 0
    when the decomposition stands, 1 when the rules prove the edge in no
    solution (the first contradiction, with rule id and witnesses, is
    included), 2 when some vertex sits farther than four levels from the
    edge.
    """
    g = _load_graph(graph_path)
    if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise InputError(f"({x}, {y}) is not an edge of the graph")
    scope = next(c for c in connected_components(g) if c >> x & 1)
    info = {"edge": [x, y], "status": "ok"}
    try:
        dec = build_levels(g, scope, x, y, Coloring(g))
    except RadiusExceeded as exc:
        info["status"] = "radius-exceeded"
        info["vertex"] = exc.vertex
        click.echo(json.dumps(info))
        return 2
    c = dec.coloring
    bad = apply_initial_facts(dec)
    active = c.active_mask(dec.scope)
    info.update({
        "levels": [_verts(m) for m in dec.levels],
        "white": _verts(c.white & dec.scope),
        "black": _verts(c.black & dec.scope),
        "matched": [list(e) for e in extract_matching(c, dec.scope)],
        "forced": [list(e) for e in dec.forced],
        "anchors": dec.anchors,
        "shared_l3": _verts(dec.s3_mask),
        "pieces": [_verts(m) for m in connected_components(g, active)],
    })
    if bad is not None:
        info["status"] = "infeasible"
        info["contradiction"] = {"rule": bad.rule, "witnesses": list(bad.witnesses)}
    click.echo(json.dumps(info))
    return 0 if info["status"] == "ok" else 1


# -- gen --------------------------------------------------------------------


def _write_instance(out: Path, stem: str, g: Graph, row: dict, matching=None) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.graph").write_text(serialize_graph(g))
    if matching is not None:
        (out / f"{stem}.matching").write_text(serialize_matching(matching))
    with (out / "manifest.jsonl").open("a") as fh:
        fh.write(json.dumps(row) + "\n")


@cli.group("gen")
def gen_group():
    """Write test instances plus a manifest.jsonl to a directory."""


@gen_group.command("planted")
@click.option("--n", type=click.IntRange(min=0, max=MAX_VERTICES), required=True)
@click.option("--k", type=int, default=None, help="matched pairs [default: n//4]")
@click.option("--extra", type=int, default=None,
              help="cross edges [default: n, capped at the cross-edge capacity 2k(n-2k)]")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--out", "out_dir", default="instances", show_default=True)
def gen_planted_cmd(n, k, extra, seed, count, out_dir):
    """Instances carrying a known solution (written alongside as .matching)."""
    k = n // 4 if k is None else k
    extra = min(n, 2 * k * max(0, n - 2 * k)) if extra is None else extra
    out = Path(out_dir)
    for i in range(count):
        s = seed + i
        try:
            inst = gen_planted(n, k, extra, s)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        stem = f"planted_n{n}_k{k}_x{extra}_s{s}"
        row = {"path": f"{stem}.graph", "n": n, "m": inst.graph.m, "label": "dim",
               "p9_free": inst.p9_free, "seed": s}
        _write_instance(out, stem, inst.graph, row, matching=inst.planted)
        click.echo(f"wrote {stem}.graph ({inst.graph.m} edges, p9_free={inst.p9_free})")
    return 0


@gen_group.command("random")
@click.option("--n", type=click.IntRange(min=0, max=MAX_VERTICES), required=True)
@click.option("--p", type=float, default=0.2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--filter", "filters", multiple=True, type=click.Choice(RANDOM_FILTERS))
@click.option("--attempt-cap", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--out", "out_dir", default="instances", show_default=True)
def gen_random_cmd(n, p, seed, count, filters, attempt_cap, out_dir):
    """Erdos-Renyi draws, rejection-sampled through the chosen filters."""
    out = Path(out_dir)
    failures = 0
    for i in range(count):
        s = seed + i
        try:
            draw = gen_random(n, p, s, filters=tuple(filters), attempt_cap=attempt_cap)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if draw.graph is None:
            failures += 1
            click.echo(
                f"seed {s}: no graph within {draw.attempts} attempts "
                f"(rejections: {draw.rejections})"
            )
            continue
        stem = f"random_n{n}_p{p}_s{s}"
        row = {"path": f"{stem}.graph", "n": n, "m": draw.graph.m, "label": None,
               "p9_free": classify_p9(draw.graph)[0], "seed": s}
        _write_instance(out, stem, draw.graph, row)
        click.echo(f"wrote {stem}.graph ({draw.graph.m} edges, {draw.attempts} attempts)")
    return 1 if failures == count and count > 0 else 0


@gen_group.command("corpus")
@click.option("--max-n", type=click.IntRange(2, 8), default=7, show_default=True)
@click.option("--out", "out_dir", default="corpus", show_default=True)
def gen_corpus_cmd(max_n, out_dir):
    """Every connected graph up to max-n vertices, labeled by the oracle."""
    rows = emit_small_corpus(out_dir, max_n)
    dims = sum(1 for r in rows if r["label"] == "dim")
    click.echo(f"wrote {len(rows)} graphs to {out_dir} ({dims} dim, {len(rows) - dims} no-dim)")
    return 0


# -- cross-check ------------------------------------------------------------


def _xcheck_one(job):
    n, p, seed = job
    draw = gen_random(n, p, seed)
    g = draw.graph
    out = solve(g)
    rep = oracle_dim(g)
    verified = True
    if out.status == "dim":
        verified = verify_dim(g, out.matching).ok
    agree = out.status == rep.status or out.status == "inconclusive"
    return (n, p, seed, out.status, rep.status, verified, agree)


@cli.command("cross-check")
@click.option("--max-n", type=click.IntRange(min=2, max=MAX_VERTICES), default=12, show_default=True)
@click.option("--count", type=click.IntRange(min=0), default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cross_check_cmd(max_n, count, seed):
    """Differential run: solver vs exhaustive oracle on random graphs."""
    ps = (0.1, 0.2, 0.3, 0.5)
    jobs = []
    for i in range(count):
        n = 2 + (seed + i) % (max_n - 1)
        jobs.append((n, ps[i % len(ps)], seed + i))
    results = [_xcheck_one(job) for job in jobs]
    disagreements = [r for r in results if not r[6] or not r[5]]
    inconclusive = sum(1 for r in results if r[3] == "inconclusive")
    for n, p, s, st, ost, verified, agree in disagreements:
        click.echo(f"DISAGREE n={n} p={p} seed={s}: solve={st} oracle={ost} verified={verified}")
    click.echo(
        f"checked={len(results)} disagreements={len(disagreements)} inconclusive={inconclusive}"
    )
    return 1 if disagreements else 0


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 3
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 3
    except Exception:
        traceback.print_exc()
        click.echo("internal error", err=True)
        return 4
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
