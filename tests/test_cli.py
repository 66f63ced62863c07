"""CLI contract: exit codes, report shapes, and the files gen writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dimkit import cli
from dimkit.cli import main
from dimkit.coloring import parse_matching
from dimkit.driver import SolveOutcome
from dimkit.generator import gen_c4_augmented
from dimkit.graph import MAX_VERTICES, load_graph, save_graph
from dimkit.oracle import verify_dim
from conftest import complete_graph, cycle_graph, path_graph

SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.graph"):
        p = tmp_path / name
        save_graph(g, str(p))
        return str(p)
    return write


# -- solve --------------------------------------------------------------


def test_solve_dim_exit_zero(graph_file, capsys):
    rc = main(["solve", graph_file(cycle_graph(6))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: dim" in out
    assert "matching: " in out
    assert "stats: edges_tried=" in out
    assert "p9_checked: true" in out


def test_solve_no_dim_exit_one(graph_file, capsys):
    rc = main(["solve", graph_file(cycle_graph(4))])
    out = capsys.readouterr().out
    assert rc == 1
    assert "status: no-dim" in out
    assert "reason: " in out


def test_solve_undecided_exit_two(graph_file, capsys, monkeypatch):
    # the exact search that runs first decides every graph small enough
    # for a test fixture within its default budget, so none stays
    # undecided; stub the driver to pin the status -> exit-code mapping
    canned = SolveOutcome(
        "inconclusive", None, "branch budget exhausted",
        {"edges_tried": 3, "forced_edges": 0, "branches": 9}, False,
    )
    monkeypatch.setattr(cli, "solve", lambda g, cfg: canned)
    rc = main(["solve", graph_file(cycle_graph(6))])
    assert rc == 2
    assert "status: inconclusive" in capsys.readouterr().out


def test_solve_json_schema_and_byte_stability(graph_file, capsys):
    path = graph_file(cycle_graph(9))
    assert main(["solve", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", path, "--json"]) == 0
    assert capsys.readouterr().out == first
    rep = json.loads(first)
    assert list(rep) == ["status", "matching", "reason", "stats", "p9_checked"]
    assert list(rep["stats"]) == ["edges_tried", "forced_edges", "branches", "millis"]
    assert rep["stats"]["millis"] == 0
    assert len(rep["matching"]) == 3


def test_solve_flag_plumbing(graph_file, capsys):
    rc = main(["solve", graph_file(cycle_graph(6)), "--no-check-p9",
               "--budget-branches", "64"])
    assert rc == 0
    assert "p9_checked: false" in capsys.readouterr().out


def test_solve_negative_branch_budget_exit_three(graph_file, capsys):
    assert main(["solve", graph_file(cycle_graph(6)), "--budget-branches", "-1"]) == 3
    assert "--budget-branches" in capsys.readouterr().err


def test_gen_negative_count_exit_three(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["gen", "planted", "--n", "12", "--count", "-2", "--out", out]) == 3
    assert main(["gen", "random", "--n", "8", "--count", "-1", "--out", out]) == 3
    assert main(["gen", "random", "--n", "8", "--attempt-cap", "0", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "--count" in err and "--attempt-cap" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["planted", "random"])
@pytest.mark.parametrize("n", [MAX_VERTICES + 1, -3])
def test_gen_vertex_count_out_of_range_exit_three(tmp_path, capsys, verb, n):
    # a graph above MAX_VERTICES could not be loaded back, so gen refuses
    # the flag before it draws anything
    out = tmp_path / "out"
    assert main(["gen", verb, "--n", str(n), "--out", str(out)]) == 3
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


def test_cross_check_negative_count_exit_three(capsys):
    assert main(["cross-check", "--count", "-3"]) == 3
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert "checked=" not in captured.out


def test_budget_branches_caps_the_first_search(graph_file, capsys):
    # a pendant-C4 no-instance holding a P9: a cap below the probe stage
    # leaves it to the engine, whose trial ends on the radius; at the
    # default cap and above, 257 search branches and 248 probe trials
    # refute it
    path = graph_file(gen_c4_augmented(214, 47, 119, 1107))
    assert main(["solve", path, "--budget-branches", "100"]) == 2
    out = capsys.readouterr().out
    assert "status: inconclusive" in out and "edges_tried=2" in out and "branches=101" in out
    for flags in ([], ["--budget-branches", "20000"]):
        assert main(["solve", path, *flags]) == 1
        out = capsys.readouterr().out
        assert "status: no-dim" in out and "edges_tried=0" in out and "branches=505" in out


def test_oracle_negative_node_limit_exit_three(graph_file, capsys):
    assert main(["oracle", graph_file(cycle_graph(6)), "--node-limit", "-5"]) == 3
    assert "--node-limit" in capsys.readouterr().err


def test_solve_oversized_header_exit_three(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("100000000000 0\n")
    assert main(["solve", str(path)]) == 3
    assert "exceed the limit" in capsys.readouterr().err


def test_solve_internal_error_exit_four(graph_file, capsys, monkeypatch):
    def crash(g, cfg):
        raise MemoryError("simulated")

    monkeypatch.setattr(cli, "solve", crash)
    assert main(["solve", graph_file(cycle_graph(6))]) == 4
    assert "internal error" in capsys.readouterr().err


def test_import_leaves_networkx_and_multiprocessing_unloaded():
    # the corpus builder too: networkx is a test-only dependency; and no
    # verb needs a process pool, so solve does not pay for importing one
    code = ("import sys, dimkit.cli; list(dimkit.generator.iter_small_corpus(5)); "
            "print('networkx' in sys.modules, 'multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"


def test_solve_missing_file_exit_three(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.graph")])
    assert rc == 3
    assert "cannot load graph" in capsys.readouterr().err


def test_unknown_flag_exit_three(graph_file, capsys):
    assert main(["solve", graph_file(cycle_graph(6)), "--frobnicate"]) == 3
    assert main(["dance"]) == 3
    capsys.readouterr()


# -- verify -------------------------------------------------------------


def test_verify_valid_matching(graph_file, tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("0 1\n3 4\n")
    rc = main(["verify", graph_file(cycle_graph(6)), str(m)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_verify_invalid_matching(graph_file, tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("0 1\n2 3\n")  # edge (1,2) ends up doubly dominated
    rc = main(["verify", graph_file(cycle_graph(6)), str(m)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("invalid:")


@pytest.mark.parametrize("text", ["0 1 2\n", "0 3\n"])  # bad line / non-edge
def test_verify_malformed_matching_exit_three(graph_file, tmp_path, capsys, text):
    m = tmp_path / "m.txt"
    m.write_text(text)
    assert main(["verify", graph_file(cycle_graph(6)), str(m)]) == 3
    capsys.readouterr()


# -- oracle -------------------------------------------------------------


def test_oracle_reports(graph_file, capsys):
    rc = main(["oracle", graph_file(path_graph(4))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "matching: 1-2" in out
    assert "nodes: " in out

    rc = main(["oracle", graph_file(cycle_graph(4), "c4.graph")])
    assert rc == 1
    assert "status: no-dim" in capsys.readouterr().out


def test_oracle_node_limit_exit_two(graph_file, capsys):
    rc = main(["oracle", graph_file(cycle_graph(9)), "--node-limit", "3"])
    assert rc == 2
    assert "status: limit" in capsys.readouterr().out


def test_oracle_json(graph_file, capsys):
    assert main(["oracle", graph_file(cycle_graph(6)), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "dim"
    assert len(rep["matching"]) == 2
    assert rep["nodes"] > 0


# -- check --------------------------------------------------------------


def test_check_flags_clique_and_long_path(graph_file, capsys):
    assert main(["check", graph_file(complete_graph(5)), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["k4"] == [0, 1, 2, 3]
    assert rep["p9_free"] == "verified"

    assert main(["check", graph_file(path_graph(9), "p9.graph"), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["k4"] is None
    assert rep["p9_free"] == "violated"
    assert rep["p9_witness"] == list(range(9))


def test_check_text_report(graph_file, capsys):
    assert main(["check", graph_file(cycle_graph(6))]) == 0
    out = capsys.readouterr().out
    assert "n: 6" in out and "m: 6" in out
    assert "diamonds: 0" in out


# -- explain ------------------------------------------------------------


def test_explain_ok(graph_file, capsys):
    rc = main(["explain", graph_file(path_graph(7)), "1", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["status"] == "ok"
    assert rep["levels"][0] == [1, 2]
    assert rep["anchors"] == [4]
    assert rep["matched"] == [[1, 2], [4, 5]]
    assert rep["pieces"] == []


def test_explain_infeasible_exit_one(graph_file, capsys):
    rc = main(["explain", graph_file(path_graph(7)), "2", "3"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert rep["status"] == "infeasible"
    assert rep["contradiction"]["rule"] == "black-unmatchable"


def test_explain_radius_exit_two(graph_file, capsys):
    rc = main(["explain", graph_file(path_graph(8)), "0", "1"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert rep["status"] == "radius-exceeded"
    assert rep["vertex"] == 6


def test_explain_non_edge_exit_three(graph_file, capsys):
    assert main(["explain", graph_file(path_graph(7)), "0", "2"]) == 3
    capsys.readouterr()


# -- gen ----------------------------------------------------------------


def test_gen_planted_writes_instance_and_certificate(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(["gen", "planted", "--n", "12", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert "wrote planted_n12_k3_x12_s7.graph" in capsys.readouterr().out
    g = load_graph(str(out / "planted_n12_k3_x12_s7.graph"))
    m = parse_matching((out / "planted_n12_k3_x12_s7.matching").read_text())
    assert verify_dim(g, m).ok
    rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["label"] == "dim"
    assert rows[0]["n"] == 12 and rows[0]["seed"] == 7
    assert rows[0]["path"] == "planted_n12_k3_x12_s7.graph"


@pytest.mark.parametrize("args, stem", [
    (["--n", "3"], "planted_n3_k0_x0_s0"),
    (["--n", "10", "--k", "5"], "planted_n10_k5_x0_s0"),
    (["--n", "7", "--k", "1"], "planted_n7_k1_x7_s0"),
])
def test_gen_planted_default_extra_fits_the_capacity(tmp_path, capsys, args, stem):
    # the default extra is n, capped at the cross-edge capacity 2k(n - 2k)
    out = tmp_path / "inst"
    assert main(["gen", "planted", *args, "--out", str(out)]) == 0
    assert f"wrote {stem}.graph" in capsys.readouterr().out
    g = load_graph(str(out / f"{stem}.graph"))
    m = parse_matching((out / f"{stem}.matching").read_text())
    assert verify_dim(g, m).ok


def test_gen_planted_bad_params_exit_three(tmp_path, capsys):
    rc = main(["gen", "planted", "--n", "5", "--k", "3", "--out", str(tmp_path / "x")])
    assert rc == 3
    capsys.readouterr()


def test_gen_random_writes_instances(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(["gen", "random", "--n", "10", "--seed", "3", "--count", "2",
               "--out", str(out)])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert row["label"] is None
        assert (out / row["path"]).exists()


def test_gen_random_exhausted_filters_exit_one(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(["gen", "random", "--n", "6", "--p", "1.0", "--filter", "k4_free",
               "--attempt-cap", "3", "--out", str(out)])
    assert rc == 1
    assert "no graph within 3 attempts" in capsys.readouterr().out
    assert not list(out.glob("*.graph")) if out.exists() else True


def test_gen_random_unknown_filter_exit_three(tmp_path, capsys):
    rc = main(["gen", "random", "--n", "6", "--filter", "shiny",
               "--out", str(tmp_path / "x")])
    assert rc == 3
    capsys.readouterr()


def test_gen_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["gen", "corpus", "--max-n", "4", "--out", str(out)])
    assert rc == 0
    assert "wrote 9 graphs" in capsys.readouterr().out
    rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(rows) == 9  # 1 + 2 + 6 connected graphs on 2..4 vertices


@pytest.mark.parametrize("max_n", ["9", "1"])
def test_gen_corpus_max_n_out_of_range_exit_three(tmp_path, capsys, max_n):
    out = tmp_path / "corpus"
    assert main(["gen", "corpus", "--max-n", max_n, "--out", str(out)]) == 3
    assert "--max-n" in capsys.readouterr().err
    assert not out.exists()


# -- cross-check --------------------------------------------------------


def test_cross_check_serial(capsys):
    rc = main(["cross-check", "--max-n", "6", "--count", "12", "--seed", "0"])
    assert rc == 0
    assert "checked=12 disagreements=0" in capsys.readouterr().out


def test_cross_check_worker_pool(monkeypatch, capsys):
    # there is no pool: every job runs through this process's _xcheck_one
    seen = []
    real = cli._xcheck_one
    monkeypatch.setattr(cli, "_xcheck_one", lambda job: seen.append(job) or real(job))
    rc = main(["cross-check", "--max-n", "5", "--count", "6", "--seed", "1"])
    assert rc == 0
    assert "checked=6 disagreements=0" in capsys.readouterr().out
    assert len(seen) == 6


def test_cross_check_flags_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "_xcheck_one",
        lambda job: (job[0], job[1], job[2], "dim", "no-dim", True, False),
    )
    rc = main(["cross-check", "--max-n", "5", "--count", "3"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "DISAGREE" in out
    assert "disagreements=3" in out


@pytest.mark.parametrize("max_n", ["1", "100000"])
def test_cross_check_max_n_out_of_range_exit_three(monkeypatch, capsys, max_n):
    # a graph above MAX_VERTICES could not be loaded back, so cross-check
    # refuses the flag before it runs a job
    seen = []
    monkeypatch.setattr(cli, "_xcheck_one", seen.append)
    assert main(["cross-check", "--max-n", max_n, "--seed", "70000", "--count", "1"]) == 3
    captured = capsys.readouterr()
    assert "--max-n" in captured.err
    assert "checked=" not in captured.out
    assert seen == []
