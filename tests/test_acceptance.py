"""Acceptance gate: the eight shipped guarantees, one verdict line each.

Every test prints PASS/FAIL straight to the terminal (past the capture)
so a full run reads as a checklist; the thresholds live in the asserts.
"""

import json
import math
import random
import time

from dimkit.cli import main as cli_main
from dimkit.coloring import Coloring, extract_matching
from dimkit.driver import solve
from dimkit.generator import gen_planted, gen_random
from dimkit.graph import bits, central_vertex, connected_components, save_graph
from dimkit.oracle import all_dims, count_dims, oracle_dim, verify_dim
from dimkit.patterns import (
    find_induced_path,
    find_k4,
    iter_butterflies,
    iter_diamonds,
)
from conftest import cycle_graph, disjoint_union, feasible_black_masks, path_graph
from naive_reference import (
    assert_trial_facts_sound,
    butterfly_hits_naive,
    diamond_hits_naive,
    induced_paths_naive,
    k4_sets_naive,
)


def _verdict(capsys, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_acceptance_1_exhaustive_small_graph_agreement(corpus7, capsys):
    """Solver decision == oracle decision on every connected graph with
    n <= 7; none of them (all trivially free of nine-vertex paths) may
    come back undecided."""
    mismatches = undecided = 0
    for g in corpus7:
        out = solve(g)
        rep = oracle_dim(g)
        if out.status == "inconclusive":
            undecided += 1
        elif out.status != rep.status:
            mismatches += 1
        if out.status == "dim":
            assert verify_dim(g, out.matching).ok
    _verdict(
        capsys, "acceptance 1/8 exhaustive small-graph agreement",
        mismatches == 0 and undecided == 0,
        f"{len(corpus7)} connected graphs n<=7, {mismatches} mismatches, "
        f"{undecided} undecided",
    )


def test_acceptance_2_randomized_agreement_with_oracle(capsys):
    """>= 10^4 seeded random graphs, n <= 12, densities 0.1/0.2/0.3:
    every decision matches the oracle and every certificate verifies."""
    total = 10_000
    mismatches = certified = 0
    for i in range(total):
        n = 2 + i % 11
        p = (0.1, 0.2, 0.3)[i % 3]
        g = gen_random(n, p, 1_000_000 + i).graph
        out = solve(g)
        rep = oracle_dim(g)
        if out.status != rep.status:
            mismatches += 1
        if out.status == "dim":
            assert verify_dim(g, out.matching).ok
            certified += 1
    _verdict(
        capsys, "acceptance 2/8 randomized oracle agreement",
        mismatches == 0,
        f"{total} random graphs n<=12 p in (0.1,0.2,0.3), {mismatches} mismatches, "
        f"{certified} certificates verified",
    )


def test_acceptance_3_cycle_and_path_laws(capsys):
    """Rings have a solution exactly when their length is divisible by 3
    (3 <= n <= 12); every path on 2..12 vertices has one.  Both the
    solver and the oracle must reproduce the laws."""
    checked = 0
    for n in range(3, 13):
        want = "dim" if n % 3 == 0 else "no-dim"
        g = cycle_graph(n)
        assert solve(g).status == want, f"solver breaks the ring law at n={n}"
        assert oracle_dim(g).status == want, f"oracle breaks the ring law at n={n}"
        checked += 1
    for n in range(2, 13):
        g = path_graph(n)
        assert solve(g).status == "dim", f"solver breaks the path law at n={n}"
        assert oracle_dim(g).status == "dim", f"oracle breaks the path law at n={n}"
        checked += 1
    _verdict(
        capsys, "acceptance 3/8 ring and path laws",
        True, f"{checked} sizes, solver and oracle agree with both laws",
    )


def test_acceptance_4_forced_rule_soundness(corpus7, capsys):
    """Every fact a forcing rule derives holds in every enumerated
    solution, on every graph where the rule fires: the edges an induced
    diamond or butterfly pins (which `check` reports and `solve()` does
    not force) and the trial's level facts, all of them from the pair's
    propagation."""
    pattern_checks = trial_confirmations = 0
    for g in corpus7:
        dims = all_dims(g)
        for hit in [*iter_diamonds(g), *iter_butterflies(g)]:
            for e in hit.forced_edges:
                for m in dims:
                    assert e in m, f"forced edge {e} missing from {m}"
                    pattern_checks += 1
        comp = connected_components(g)[0]
        x = central_vertex(g, comp)
        for y in bits(g.rows[x]):
            trial_confirmations += assert_trial_facts_sound(g, x, y)
    rng = random.Random(424242)
    random_trials = 0
    for i in range(600):
        n = rng.randint(4, 8)
        g = gen_random(n, rng.choice([0.2, 0.3, 0.4]), 50_000 + i).graph
        for u, v in g.edges():
            assert_trial_facts_sound(g, u, v)
            random_trials += 1
    _verdict(
        capsys, "acceptance 4/8 forced-rule soundness",
        True,
        f"{pattern_checks} pattern-forced edge checks, {trial_confirmations} "
        f"trial-fact confirmations on the corpus, {random_trials} random-graph "
        f"trials, 0 violations",
    )


def _assert_coloring_bijection(g):
    full = g.full_mask()
    matchings = set()
    masks = 0
    for black in feasible_black_masks(g):
        c = Coloring(g)
        for v in bits(black):
            assert c.extend(black=1 << v) is None
        for w in bits(full & ~black):
            if c.unknown_mask(1 << w):
                assert c.extend(white=1 << w) is None
        assert c.black == black  # propagation may fill, never flip
        matchings.add(extract_matching(c, full))
        masks += 1
    dims = set(all_dims(g))
    assert matchings == dims
    assert masks == count_dims(g) == len(dims)
    return masks


def test_acceptance_5_coloring_matching_bijection(corpus8, capsys):
    """Complete feasible colorings correspond one-to-one (via
    extract_matching) with the solutions the counter enumerates, over
    every connected graph with n <= 8 plus disconnected composites."""
    graphs = list(corpus8)
    connected = len(graphs)
    graphs += [
        disjoint_union(cycle_graph(3), cycle_graph(3)),
        disjoint_union(cycle_graph(3), cycle_graph(4)),
        disjoint_union(cycle_graph(6), path_graph(2)),
        disjoint_union(path_graph(4), path_graph(4)),
        disjoint_union(cycle_graph(4), path_graph(3)),
    ]
    rng = random.Random(5150)
    for i in range(300):
        n = rng.randint(2, 8)
        graphs.append(gen_random(n, rng.choice([0.1, 0.2, 0.35]), 70_000 + i).graph)
    total = 0
    for g in graphs:
        total += _assert_coloring_bijection(g)
    _verdict(
        capsys, "acceptance 5/8 coloring-solution bijection",
        True,
        f"{connected} connected graphs n<=8 plus {len(graphs) - connected} "
        f"composite/random graphs, {total} colorings matched one-to-one",
    )


def test_acceptance_6_planted_scaling(capsys):
    """Planted instances at n = 250/500/1000/2000 each solve with a
    verified certificate inside 60 s, and the log-log runtime slope stays
    under 5 (a fixed-degree polynomial)."""
    sizes = (250, 500, 1000, 2000)
    times = []
    for n in sizes:
        inst = gen_planted(n, n // 4, n, 42)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            out = solve(inst.graph)
            best = min(best, time.perf_counter() - t0)
        assert out.status == "dim", f"planted instance unsolved at n={n}"
        assert verify_dim(inst.graph, out.matching).ok
        assert best < 60.0, f"n={n} took {best:.1f}s"
        times.append(max(best, 1e-4))
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    shown = ", ".join(f"n={n}: {t * 1000:.0f}ms" for n, t in zip(sizes, times))
    _verdict(
        capsys, "acceptance 6/8 planted scale and scaling",
        slope < 5.0, f"{shown}; log-log slope {slope:.2f} < 5",
    )


def test_acceptance_7_detector_agreement(capsys):
    """The pattern detectors agree with naive subset enumeration on 1000
    seeded random graphs with n <= 8: clique-of-4 presence, every diamond
    and butterfly with its forced edges, and induced paths of 2..9
    vertices."""
    counts = {"k4": 0, "diamond": 0, "butterfly": 0, "path": 0}
    for i in range(1000):
        n = 3 + i % 6
        p = (0.15, 0.3, 0.45, 0.6)[i % 4]
        g = gen_random(n, p, 88_000 + i).graph

        naive_k4 = k4_sets_naive(g)
        hit = find_k4(g)
        assert (hit is not None) == bool(naive_k4)
        if hit:
            assert frozenset(hit.vertices) in naive_k4
        counts["k4"] += 1

        got = {(frozenset(h.vertices), h.forced_edges[0]) for h in iter_diamonds(g)}
        assert got == diamond_hits_naive(g)
        counts["diamond"] += 1

        got = {(frozenset(h.vertices), frozenset(h.forced_edges)) for h in iter_butterflies(g)}
        assert got == butterfly_hits_naive(g)
        counts["butterfly"] += 1

        for k in range(2, 10):
            naive = induced_paths_naive(g, k)
            found = find_induced_path(g, k)
            assert (found is not None) == bool(naive)
            if found:
                canon = found if found[0] < found[-1] else tuple(reversed(found))
                assert canon in naive
            counts["path"] += 1

    shown = ", ".join(f"{k}: {v}" for k, v in counts.items())
    _verdict(
        capsys, "acceptance 7/8 detector agreement",
        True, f"1000 random graphs n<=8, all checks agree ({shown})",
    )


def test_acceptance_8_deterministic_json_reports(tmp_path, capsys):
    """Identical inputs, flags, and seeds give byte-identical JSON, both
    through the library and through the command line."""
    cases = [
        ("planted.graph", gen_planted(40, 10, 40, 3).graph, []),
        ("random.graph", gen_random(12, 0.3, 5).graph, []),
        ("ring9.graph", cycle_graph(9), []),
        ("ring9b.graph", cycle_graph(9), ["--no-check-p9"]),
        ("square.graph", cycle_graph(4), []),
    ]
    pairs = 0
    for name, g, flags in cases:
        path = tmp_path / name
        save_graph(g, str(path))
        runs = []
        for _ in range(2):
            cli_main(["solve", str(path), "--json"] + flags)
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], f"cli report drifted for {name}"
        json.loads(runs[0])
        assert solve(g).to_json() == solve(g).to_json()
        pairs += 1
    for verb in (["oracle"], ["check"]):
        path = tmp_path / "ring9.graph"
        runs = []
        for _ in range(2):
            cli_main(verb + [str(path), "--json"])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        pairs += 1
    _verdict(
        capsys, "acceptance 8/8 deterministic reports",
        True, f"{pairs} report pairs byte-identical across consecutive runs",
    )