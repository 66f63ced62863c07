"""Command-line front door.

Verbs: solve, verify, oracle, check, explain, gen (planted / random /
corpus), cross-check.  Exit codes: solve and oracle use 0 =
solution found, 1 = provably none, 2 = undecided; verify uses 0 = valid,
1 = invalid; explain, which lays out the engine's own xy-trial in
distance levels up to its pieces, uses 0 = the trial's facts stand, 1 =
they refute the edge, 2 = the pair survives but some vertex lies past
four levels; cross-check
returns 1 on any solver/oracle disagreement;
every input problem (unreadable file, bad flag, malformed matching, a
graph header above ``graph.MAX_VERTICES``) exits 3; any other failure,
out-of-memory included, exits 4 (internal error) with its traceback on
standard error, so a crash never reads as a verdict.

cross-check solves and oracle-checks its instances one after another in
this process.

Start-up is part of every verdict's cost, so the parser is the standard
library's argparse and the lazy verbs, gen and cross-check, import
`dimkit.generator` only when they run; a solve never loads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coloring import Coloring, extract_matching, parse_matching, serialize_matching
from .decomposition import RadiusExceeded, forced_and_anchors, trial_facts
from .driver import SolveConfig, solve
from .graph import (
    MAX_VERTICES, Graph, GraphFormatError, connected_components, load_graph, members, serialize_graph,
)
from .oracle import oracle_dim, verify_dim
from .patterns import RANDOM_FILTERS, classify_p9, find_k4, iter_butterflies, iter_diamonds


class InputError(Exception):
    """Bad input or a bad flag: exit 3, with the message on standard error."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 like every other input problem; only --help
    (no -h) is added, and long options must be spelled out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _int_range(lo: int, hi: int | None = None):
    """A `type=` for integer flags in lo..hi (no cap when hi is None)."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < lo or (hi is not None and value > hi):
            bound = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bound}")
        return value
    return integer


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


# -- solve ------------------------------------------------------------------


def solve_cmd(args) -> int:
    """Decide whether GRAPH_PATH has a dominating induced matching."""
    g = _load_graph(args.graph_path)
    cfg = SolveConfig(check_p9=args.check_p9, branch_budget=args.budget_branches)
    out = solve(g, cfg)
    if args.as_json:
        print(out.to_json())
    else:
        print(f"status: {out.status}")
        if out.matching is not None:
            print("matching: " + " ".join(f"{u}-{v}" for u, v in out.matching))
        if out.reason:
            print(f"reason: {out.reason}")
        s = out.stats
        print(
            f"stats: edges_tried={s['edges_tried']} forced_edges={s['forced_edges']} "
            f"branches={s['branches']}"
        )
        print(f"p9_checked: {str(out.p9_checked).lower()}")
    return {"dim": 0, "no-dim": 1, "inconclusive": 2}[out.status]


# -- verify -----------------------------------------------------------------


def verify_cmd(args) -> int:
    """Check that MATCHING_PATH is a dominating induced matching of GRAPH_PATH."""
    g = _load_graph(args.graph_path)
    m = _load_matching(args.matching_path)
    try:
        res = verify_dim(g, m)
    except ValueError as exc:
        raise InputError(f"malformed matching: {exc}") from exc
    if res.ok:
        print("ok")
        return 0
    print(f"invalid: {res.reason}")
    return 1


# -- oracle -----------------------------------------------------------------


def oracle_cmd(args) -> int:
    """Exact exhaustive search (small graphs only)."""
    g = _load_graph(args.graph_path)
    rep = oracle_dim(g, node_limit=args.node_limit)
    if args.as_json:
        print(json.dumps({
            "status": rep.status,
            "matching": [list(e) for e in rep.matching] if rep.matching else [],
            "nodes": rep.nodes,
        }))
    else:
        print(f"status: {rep.status}")
        if rep.matching:
            print("matching: " + " ".join(f"{u}-{v}" for u, v in rep.matching))
        print(f"nodes: {rep.nodes}")
    return {"dim": 0, "no-dim": 1, "limit": 2}[rep.status]


# -- check ------------------------------------------------------------------


def check_report(g: Graph) -> dict:
    """Structural features relevant to solvability, as `dimkit check`
    prints them: size, the first K4, diamond and butterfly counts, and the
    P9 scan's state and witness."""
    k4 = find_k4(g)
    p9_state, p9 = classify_p9(g)
    return {
        "n": g.n,
        "m": g.m,
        "k4": list(k4.vertices) if k4 else None,
        "diamonds": sum(1 for _ in iter_diamonds(g)),
        "butterflies": sum(1 for _ in iter_butterflies(g)),
        "p9_free": p9_state,
        "p9_witness": list(p9) if p9 else None,
    }


def check_cmd(args) -> int:
    """Report structural features relevant to solvability."""
    info = check_report(_load_graph(args.graph_path))
    if args.as_json:
        print(json.dumps(info))
    else:
        for key, val in info.items():
            print(f"{key}: {val}")
    return 0


# -- explain ----------------------------------------------------------------


def explain_report(g: Graph, x: int, y: int) -> dict:
    """The engine's xy-trial of g up to its pieces, laid out in distance
    levels, as `dimkit explain` prints it.  On a fresh coloring it
    propagates the pair as the trial does, then builds the levels, which
    the trial does not (`decomposition.trial_facts`):

      * the pair's propagation clashes: `status` "infeasible" and the
        `contradiction` (rule id and witnesses), nothing else; the trial
        stops there too;
      * the pair survives and some vertex sits farther than four levels
        from the edge: `status` "radius-exceeded" and that `vertex`; the
        trial goes on to search its pieces;
      * otherwise `status` "ok", the BFS levels, the colors and matched
        edges after the facts, the forced edges, the anchors and the L3
        vertices they share, and the leftover pieces the trial would
        search."""
    scope = next(c for c in connected_components(g) if c >> x & 1)
    c = Coloring(g)
    try:
        levels, bad = trial_facts(c, scope, x, y)
    except RadiusExceeded as exc:
        return {"edge": [x, y], "status": "radius-exceeded", "vertex": exc.vertex}
    if bad is not None:
        return {"edge": [x, y], "status": "infeasible",
                "contradiction": {"rule": bad.rule, "witnesses": list(bad.witnesses)}}
    forced, anchors = forced_and_anchors(c, levels)
    l3 = levels[3] if len(levels) > 3 else 0
    anchor_mask = sum(1 << v for v in anchors)
    shared = [v for v in members(l3) if (g.rows[v] & anchor_mask).bit_count() >= 2]
    return {
        "edge": [x, y],
        "status": "ok",
        "levels": [members(m) for m in levels],
        "white": members(c.white & scope),
        "black": members(c.black & scope),
        "matched": [list(e) for e in extract_matching(c, scope)],
        "forced": [list(e) for e in forced],
        "anchors": anchors,
        "shared_l3": shared,
        "pieces": [members(m) for m in connected_components(g, c.active_mask(scope))],
    }


def explain_cmd(args) -> int:
    """Dump the engine's trial of matched edge (X, Y) up to its pieces.

    JSON on stdout (`explain_report`).  Exit 0 when the facts stand, 1
    when they prove the edge in no solution, 2 when the pair survives and
    some vertex sits farther than four levels from the edge.
    """
    g = _load_graph(args.graph_path)
    x, y = args.x, args.y
    if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise InputError(f"({x}, {y}) is not an edge of the graph")
    info = explain_report(g, x, y)
    print(json.dumps(info))
    return {"ok": 0, "infeasible": 1, "radius-exceeded": 2}[info["status"]]


# -- gen --------------------------------------------------------------------


def _out_dir(path: str) -> Path:
    """The --out directory, created if missing, once the parameters are
    checked and before anything is drawn; a path that cannot be a
    directory is an input problem."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"argument --out: {exc}") from exc
    return out


def _write_instance(out: Path, stem: str, g: Graph, matching=None) -> None:
    (out / f"{stem}.graph").write_text(serialize_graph(g))
    if matching is not None:
        (out / f"{stem}.matching").write_text(serialize_matching(matching))


def gen_planted_cmd(args) -> int:
    """Instances carrying a known solution (written alongside as .matching)."""
    from .generator import check_planted, gen_planted, write_manifest

    n = args.n
    k = n // 4 if args.k is None else args.k
    extra = min(n, 2 * k * max(0, n - 2 * k)) if args.extra is None else args.extra
    try:
        check_planted(n, k, extra)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = _out_dir(args.out_dir)
    rows = []
    for i in range(args.count):
        s = args.seed + i
        inst = gen_planted(n, k, extra, s)
        stem = f"planted_n{n}_k{k}_x{extra}_s{s}"
        rows.append({"path": f"{stem}.graph", "n": n, "m": inst.graph.m, "label": "dim",
                     "p9_free": inst.p9_free, "seed": s})
        _write_instance(out, stem, inst.graph, matching=inst.planted)
        print(f"wrote {stem}.graph ({inst.graph.m} edges, p9_free={inst.p9_free})")
    write_manifest(out, rows)
    return 0


def gen_random_cmd(args) -> int:
    """Erdos-Renyi draws, rejection-sampled through the chosen filters."""
    from .generator import check_random, gen_random, write_manifest

    n, p, count = args.n, args.p, args.count
    filters = tuple(args.filters)
    try:
        check_random(p, filters, args.attempt_cap)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = _out_dir(args.out_dir)
    rows = []
    for i in range(count):
        s = args.seed + i
        draw = gen_random(n, p, s, filters=filters, attempt_cap=args.attempt_cap)
        if draw.graph is None:
            print(
                f"seed {s}: no graph within {draw.attempts} attempts "
                f"(rejections: {draw.rejections})"
            )
            continue
        stem = f"random_n{n}_p{p}_s{s}"
        rows.append({"path": f"{stem}.graph", "n": n, "m": draw.graph.m, "label": None,
                     "p9_free": classify_p9(draw.graph)[0], "seed": s})
        _write_instance(out, stem, draw.graph)
        print(f"wrote {stem}.graph ({draw.graph.m} edges, {draw.attempts} attempts)")
    write_manifest(out, rows)
    return 1 if not rows and count > 0 else 0


def gen_corpus_cmd(args) -> int:
    """Every connected graph up to max-n vertices, labeled by the oracle."""
    from .generator import emit_small_corpus

    rows = emit_small_corpus(_out_dir(args.out_dir), args.max_n)
    dims = sum(1 for r in rows if r["label"] == "dim")
    print(f"wrote {len(rows)} graphs to {args.out_dir} ({dims} dim, {len(rows) - dims} no-dim)")
    return 0


# -- cross-check ------------------------------------------------------------


def _xcheck_one(job):
    from .generator import gen_random

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


def cross_check_cmd(args) -> int:
    """Differential run: solver vs exhaustive oracle on random graphs."""
    max_n, count, seed = args.max_n, args.count, args.seed
    ps = (0.1, 0.2, 0.3, 0.5)
    jobs = []
    for i in range(count):
        n = 2 + (seed + i) % (max_n - 1)
        jobs.append((n, ps[i % len(ps)], seed + i))
    results = [_xcheck_one(job) for job in jobs]
    disagreements = [r for r in results if not r[6] or not r[5]]
    inconclusive = sum(1 for r in results if r[3] == "inconclusive")
    for n, p, s, st, ost, verified, agree in disagreements:
        print(f"DISAGREE n={n} p={p} seed={s}: solve={st} oracle={ost} verified={verified}")
    print(
        f"checked={len(results)} disagreements={len(disagreements)} inconclusive={inconclusive}"
    )
    return 1 if disagreements else 0


# -- the parser -------------------------------------------------------------


def _parser() -> _Parser:
    root = _Parser(prog="dimkit", description="Dominating-induced-matching toolkit.")
    verbs = root.add_subparsers(dest="verb", metavar="COMMAND", required=True)

    def verb(parent, name, run, doc=None):
        doc = doc or run.__doc__ or ""  # the verb's docstring is its help
        p = parent.add_parser(name, help=doc.split("\n")[0], description=doc)
        p.set_defaults(run=run)
        return p

    p = verb(verbs, "solve", solve_cmd)
    p.add_argument("graph_path", metavar="GRAPH_PATH")
    p.add_argument("--json", dest="as_json", action="store_true", help="machine-readable report")
    p.add_argument("--check-p9", action=argparse.BooleanOptionalAction, default=True,
                   help="run the induced nine-vertex path scan; p9_checked reports whether "
                        "it finished within its budget, P9 found or not ('dimkit check' "
                        "gives the state and witness; the scan decides no verdict)")
    p.add_argument("--budget-branches", type=_int_range(0), default=None, metavar="N",
                   help="branch cap of the first, exact search of each component "
                        "[default: max(4096, 8*size)]; at 0 only the root facts run "
                        "before the engine, which has its own fixed cap of "
                        "max(4096, 8*size) branches")

    p = verb(verbs, "verify", verify_cmd)
    p.add_argument("graph_path", metavar="GRAPH_PATH")
    p.add_argument("matching_path", metavar="MATCHING_PATH")

    p = verb(verbs, "oracle", oracle_cmd)
    p.add_argument("graph_path", metavar="GRAPH_PATH")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.add_argument("--node-limit", type=_int_range(0), default=2_000_000, metavar="N",
                   help="[default: %(default)s]")

    p = verb(verbs, "check", check_cmd)
    p.add_argument("graph_path", metavar="GRAPH_PATH")
    p.add_argument("--json", dest="as_json", action="store_true")

    p = verb(verbs, "explain", explain_cmd)
    p.add_argument("graph_path", metavar="GRAPH_PATH")
    p.add_argument("x", metavar="X", type=int)
    p.add_argument("y", metavar="Y", type=int)

    gen = verb(verbs, "gen", None, "Write test instances plus a manifest.jsonl to a directory.")
    kinds = gen.add_subparsers(dest="kind", metavar="COMMAND", required=True)
    vertices = _int_range(0, MAX_VERTICES)

    p = verb(kinds, "planted", gen_planted_cmd)
    p.add_argument("--n", type=vertices, required=True)
    p.add_argument("--k", type=int, default=None, help="matched pairs [default: n//4]")
    p.add_argument("--extra", type=int, default=None,
                   help="cross edges [default: n, capped at the cross-edge capacity 2k(n-2k)]")
    p.add_argument("--seed", type=int, default=0, help="[default: %(default)s]")
    p.add_argument("--count", type=_int_range(0), default=1, help="[default: %(default)s]")
    p.add_argument("--out", dest="out_dir", metavar="DIR", default="instances",
                   help="[default: %(default)s]")

    p = verb(kinds, "random", gen_random_cmd)
    p.add_argument("--n", type=vertices, required=True)
    p.add_argument("--p", type=float, default=0.2, help="[default: %(default)s]")
    p.add_argument("--seed", type=int, default=0, help="[default: %(default)s]")
    p.add_argument("--count", type=_int_range(0), default=1, help="[default: %(default)s]")
    p.add_argument("--filter", dest="filters", action="append", default=[], metavar="NAME",
                   choices=RANDOM_FILTERS, help="one of %(choices)s; repeatable")
    p.add_argument("--attempt-cap", type=_int_range(1), default=200,
                   help="[default: %(default)s]")
    p.add_argument("--out", dest="out_dir", metavar="DIR", default="instances",
                   help="[default: %(default)s]")

    p = verb(kinds, "corpus", gen_corpus_cmd)
    p.add_argument("--max-n", type=_int_range(2, 8), default=7, help="[default: %(default)s]")
    p.add_argument("--out", dest="out_dir", metavar="DIR", default="corpus",
                   help="[default: %(default)s]")

    p = verb(verbs, "cross-check", cross_check_cmd)
    p.add_argument("--max-n", type=_int_range(2, MAX_VERTICES), default=12,
                   help="[default: %(default)s]")
    p.add_argument("--count", type=_int_range(0), default=200, help="[default: %(default)s]")
    p.add_argument("--seed", type=int, default=0, help="[default: %(default)s]")
    return root


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help; a usage error raises InputError
        return exc.code
    except InputError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # an interrupted run reads as no verdict
        return 3
    except Exception:
        import traceback

        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
