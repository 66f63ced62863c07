"""Tests of the benchmark itself: labels, certificate check, end-to-end runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random

import pytest

import certificate
import run
import spans
import workloads

workloads._src_on_path()

from dimkit.graph import Graph  # noqa: E402
from dimkit.oracle import oracle_dim  # noqa: E402


def oracle_label(n: int, edges) -> str:
    return oracle_dim(Graph.from_edges(n, edges)).status


@pytest.mark.parametrize("seed", range(4))
def test_planted_and_pendant_c4_labels_match_the_oracle(seed):
    rng = random.Random(seed)
    edges, matching = workloads.planted_graph(16, 4, 16, rng)
    assert certificate.is_dim(edges, matching)
    assert oracle_label(16, edges) == "dim"
    n4, edges4 = workloads.pendant_c4(16, edges, rng)
    assert oracle_label(n4, edges4) == "no-dim"


def test_pendant_c4_alone_on_a_single_edge_is_no_dim():
    n, edges = workloads.pendant_c4(2, [(0, 1)], random.Random(0))
    assert oracle_label(n, edges) == "no-dim"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("want", ["dim", "no-dim"])
def test_twin_expansion_label_matches_the_oracle(seed, want):
    n, edges, label, _ = workloads.twin_piece(20, want, 2, random.Random(seed))
    assert n == 20 and label == want
    assert oracle_label(n, edges) == label
    assert workloads.find_induced_path(n, edges, 9) is None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("want", ["dim", "no-dim"])
def test_union_label_matches_the_oracle(seed, want):
    n, edges, label, _ = workloads.union_member(2, want, random.Random(seed))
    assert label == want
    assert oracle_label(n, edges) == label
    assert workloads.find_induced_path(n, edges, 9) is None


@pytest.mark.parametrize("seed", range(3))
def test_long_path_member_label_matches_the_oracle(seed):
    n, edges, label, info = workloads.long_path_member(22, random.Random(seed))
    assert oracle_label(n, edges) == label
    assert workloads.find_induced_path(n, edges, 9) is None
    assert workloads.find_induced_path(n, edges, 8) is not None


def test_own_path_search_finds_long_paths():
    path9 = [(i, i + 1) for i in range(8)]
    assert workloads.find_induced_path(9, path9, 9) is not None
    cycle9 = path9 + [(0, 8)]
    assert workloads.find_induced_path(9, cycle9, 9) is None
    assert workloads.find_induced_path(9, cycle9, 8) is not None


def test_certificate_check_rejects_broken_matchings():
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    assert certificate.is_dim(ring, [(0, 1), (3, 4)])
    assert not certificate.is_dim(ring, [(0, 1)])                  # (3,4) undominated
    assert not certificate.is_dim(ring, [(0, 1), (1, 2), (3, 4)])  # (0,1) dominated twice
    assert not certificate.is_dim(ring, [(0, 1), (2, 3)])          # (1,2) dominated twice
    assert not certificate.is_dim(ring, [(0, 3), (1, 4)])          # not edges of the ring


def test_traced_routes_follow_the_deciding_boundary():
    import dimkit.cli  # noqa: F401  (load every module before wrapping)
    import dimkit.driver

    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    star = Graph.from_edges(3, [(0, 1), (0, 2)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        for g in (Graph.from_edges(1, []), k4, star):
            dimkit.driver.solve(g)
    finally:
        tracer.uninstall()
    assert not hasattr(dimkit.driver.solve, "__wrapped__")  # uninstalled
    routes = {k: v for k, v in tracer.counts.items() if k.startswith("driver.route.")}
    assert routes == {"driver.route.singleton": 1, "driver.route.k4": 1, "driver.route.trivial_edge": 1}
    _, calls, _ = tracer.self_times()
    assert calls["driver.solve"] == 3 and calls["patterns.find_k4"] == 2


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "PLANTED_SIZES", (40, 60))
    monkeypatch.setattr(workloads, "INCLASS_TWIN_SIZES", (30,))
    monkeypatch.setattr(workloads, "INCLASS_UNION_HOSTS", (2,))
    monkeypatch.setattr(workloads, "INCLASS_LONG_PATH_SIZES", (30,))
    monkeypatch.setattr(workloads, "SMALL_PER_CELL", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "CLI_REPS", 1)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)
    for spec in run.SPEC.values():
        monkeypatch.setitem(spec, "min_passes", 1)


TINY_CLI = {"planted": ("yes-40", "no-60"), "inclass": ("twins-dim-30", "union-no-dim-2"),
            "small": ("g00000", "g00001", "g00002")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.SPEC))
def test_workload_runs_end_to_end_at_a_tiny_size(tiny, monkeypatch, tmp_path, capsys, workload, trace):
    items = workloads.write_workload(workload, 7, tmp_path / "inputs")
    monkeypatch.setitem(run.SPEC[workload], "cli", TINY_CLI[workload])
    assert run.run(workload, tmp_path / "inputs", 0.1, trace, tmp_path / "out") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(items)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
