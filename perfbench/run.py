"""Benchmark for dimkit: time to verdict on one workload, from one seed.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 10 --trace 0

Runs in one process on one thread, pinned with its children to one CPU.
The inputs are made from the seed by
``workloads.py`` (in a child process, cached under ``perfbench/.cache``);
the program only ever sees the graph files.  Every verdict is checked
against the construction's label and every certificate against the
definition.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, timed with no
tracing and reported at the reference pace of ``pace.py``.  With ``--trace 1`` dimkit's module-level functions are wrapped
(see ``spans.py``) and the per-layer metrics are reported per pass over
the workload's instance set; the spans are written to
``perfbench/.out/trace-<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import certificate  # noqa: E402
import pace as pace_mod  # noqa: E402
import workloads  # noqa: E402

# Each instance's time is the median over its solves in the run; min_passes
# keeps at least 40 timed solves per run, and tail_pct is the highest of
# p75/p80/p90/p95/p99 over the instances whose slower instances still hold
# ten timed solves at that minimum.
SPEC = {
    "planted": {"min_passes": 3, "tail_pct": 75, "cli": ("yes-300", "no-300", "yes-400")},
    "inclass": {"min_passes": 2, "tail_pct": 75, "cli": ("union-dim-4", "union-no-dim-4", "twins-dim-40")},
    "small": {"min_passes": 1, "tail_pct": 99, "cli": ("g00000", "g00001", "g00002")},
}
SETUP_RUNS = 5
CLI_REPS = 8
IMPORT_RUNS = 5
EXIT_CODES = {"dim": 0, "no-dim": 1}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def ensure_inputs(workload: str, seed: int) -> Path:
    out = HERE / ".cache" / f"{workload}-seed{seed}-v{workloads.INPUT_VERSION}"
    if not (out / "manifest.json").exists():
        tmp = out.with_name(out.name + f".tmp{os.getpid()}")
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(tmp)],
                       env=child_env(), check=True, timeout=600)
        os.replace(tmp, out)
    return out


def read_edges(path: Path) -> list[tuple[int, int]]:
    lines = path.read_text(encoding="ascii").split("\n")
    return [(int(u), int(v)) for u, v in (ln.split() for ln in lines[1:] if ln)]


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)


def check_outcome(out, item: dict, edges) -> bool:
    if out.status != item["expect"]:
        return False
    return out.status != "dim" or certificate.is_dim(edges, out.matching or ())


def timed_passes(solve, graphs, items, edges, seconds: float, min_passes: int, tally: Tally,
                 pace: pace_mod.Pace, tracer=None):
    """Whole passes over the instance set until `seconds` have gone by;
    returns each instance's (start, end) solve intervals, the pass count and
    the summed solver stats."""
    intervals: list[list[tuple[float, float]]] = [[] for _ in items]
    stats = {"branches": 0, "edges_tried": 0}
    clock = time.perf_counter
    passes = 0
    deadline = clock() + seconds
    while passes < min_passes or clock() < deadline:
        for i, (g, item, es) in enumerate(zip(graphs, items, edges)):
            pace.maybe_sample()
            if tracer is not None:
                tracer.solve_id += 1
            t0 = clock()
            try:
                out = solve(g)
            except Exception as exc:  # a crash is a failed solve, not the end of the run
                tally.record(False, f"{item['name']}: {type(exc).__name__}: {exc}")
                continue
            intervals[i].append((t0, clock()))
            tally.record(check_outcome(out, item, es), f"{item['name']}: got {out.status}")
            stats["branches"] += out.stats.get("branches", 0)
            stats["edges_tried"] += out.stats.get("edges_tried", 0)
        passes += 1
    pace.sample()
    return intervals, passes, stats


def fresh_process_s(args: list[str], pace: pace_mod.Pace) -> float:
    """Seconds (at the reference pace) from starting a probe process until
    it reports done."""
    pace.sample()
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], env=child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    t1 = float(done.stdout.strip().splitlines()[-1])
    pace.sample()
    return pace.normalise(t0, t1)


def cli_solves(cache: Path, items: dict, names, tally: Tally, pace: pace_mod.Pace) -> list[float]:
    """Median wall seconds (at the reference pace) of fresh `dimkit solve
    --json` processes on each named file, checking exit code, verdict and
    certificate."""
    walls: dict[str, list[float]] = {name: [] for name in names}
    for i in range(CLI_REPS * len(names)):
        item = items[names[i % len(names)]]
        path = cache / item["file"]
        pace.sample()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "dimkit.cli", "solve", "--json", str(path)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        pace.sample()
        walls[item["name"]].append(pace.normalise(t0, t1))
        ok = done.returncode == EXIT_CODES[item["expect"]]
        if ok:
            report = json.loads(done.stdout)
            ok = report["status"] == item["expect"] and (
                report["status"] != "dim" or certificate.is_dim(read_edges(path), map(tuple, report["matching"])))
        tally.record(ok, f"cli {item['name']}: exit {done.returncode}")
    return [statistics.median(w) for w in walls.values()]


def per_layer(tracer, passes: int, stats: dict, load_s: float, import_s: list[float]) -> dict:
    """Per-layer metrics per pass over the instance set (the graphs are
    loaded once, which is one pass of load_graph)."""
    import spans

    self_s, calls, total_s = tracer.self_times()
    m = {}
    for name in spans.CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
    for name in spans.SELF:
        value = load_s if name == "graph.load_graph" else self_s.get(name, 0.0) / passes
        m[f"{name}.self_s"] = (value, "s")
    for key in ("patterns.p9_scan.budget_exhausted", "patterns.forced_pattern_hits",
                "decomposition.radius_exceeded"):
        m[key] = (tracer.counts.get(key, 0) / passes, "count")
    for outcome in spans.OUTCOMES:
        key = f"component_solver.outcome.{outcome}"
        m[key] = (tracer.counts.get(key, 0) / passes, "count")
    trials = calls.get("driver.try_edge", 0)
    m["driver.try_edge.useful_ratio"] = (tracer.counts["driver.try_edge.useful"] / trials if trials else 0.0, "ratio")
    m["driver.branches"] = (stats["branches"] / passes, "count")
    m["driver.edges_tried"] = (stats["edges_tried"] / passes, "count")
    for route in spans.ROUTES:
        m[f"driver.route.{route}"] = (tracer.counts.get(f"driver.route.{route}", 0) / passes, "count")
    m["cli.import_ms"] = (statistics.median(import_s) * 1000, "ms")
    solve_total = total_s.get("driver.solve", 0.0)
    if solve_total:
        print("self time as a share of solve time:", file=sys.stderr)
        for name in sorted(self_s, key=self_s.get, reverse=True):
            print(f"  {name:36s} {self_s[name] / solve_total:7.2%}  calls/pass {calls[name] / passes:10.1f}",
                  file=sys.stderr)
    return m


def run(workload: str, cache: Path, seconds: float, trace: int, out_dir: Path) -> int:
    """Time (or trace) one workload whose inputs are under `cache`; prints
    the result line and returns the exit code."""
    spec = SPEC[workload]
    items = json.loads((cache / "manifest.json").read_text())["instances"]
    edges = [read_edges(cache / it["file"]) for it in items]

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        import dimkit.cli  # noqa: F401  (every dimkit module is loaded before wrapping)

        tracer.install()
    try:
        from dimkit import graph as dk_graph
        from dimkit.driver import solve

        graphs = [dk_graph.load_graph(str(cache / it["file"])) for it in items]
        load_s = tracer.self_times()[0]["graph.load_graph"] if tracer is not None else 0.0
        tally = Tally()
        # warm-up outside the timed passes: lazy imports and first-call costs
        for g in graphs[:3]:
            solve(g)
        if tracer is not None:
            tracer.reset()
        gc.collect()
        pace = pace_mod.Pace()
        intervals, passes, stats = timed_passes(solve, graphs, items, edges, seconds,
                                                spec["min_passes"], tally, pace, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # each instance's median solve time over the passes, at the reference pace
    per_instance = [statistics.median(pace.normalise(a, b) for a, b in iv) for iv in intervals if iv]
    pass_s = sum(per_instance)
    if tracer is None:
        setup = [fresh_process_s(["setup", str(cache)], pace) for _ in range(SETUP_RUNS)]
        walls = cli_solves(cache, {it["name"]: it for it in items}, spec["cli"], tally, pace)
        metrics = {
            "verdict_ms.p50": (percentile(per_instance, 50) * 1000, "ms"),
            "verdict_ms.tail": (percentile(per_instance, spec["tail_pct"]) * 1000, "ms"),
            "instances_per_s": (len(per_instance) / pass_s, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_solve_ms.p50": (statistics.median(walls) * 1000, "ms"),
        }
    else:
        import_s = [fresh_process_s(["import"], pace) for _ in range(IMPORT_RUNS)]
        metrics = per_layer(tracer, passes, stats, load_s, import_s)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{workload}.tsv.gz")
    raw_kernel = statistics.median(pace.took)
    print(f"{workload}: {passes} passes, {sum(map(len, intervals))} timed solves, "
          f"{tally.attempted} attempted, {tally.failed} failed; summed solve time per pass "
          f"{pass_s:.4f} s at the reference pace (kernel {raw_kernel * 1e3:.4f} ms, "
          f"reference {pace_mod.REFERENCE_S * 1e3:.4f} ms){' traced' if tracer else ''}",
          file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="dimkit benchmark")
    ap.add_argument("--workload", choices=sorted(SPEC), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dimkit" / "__init__.py").is_file():
        print(f"error: no dimkit sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child it starts: the reference
    # kernel then paces the same core the measured work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned ({exc})", file=sys.stderr)
    cache = ensure_inputs(args.workload, args.seed)
    return run(args.workload, cache, args.seconds, args.trace, HERE / ".out")


if __name__ == "__main__":
    sys.exit(main())
