"""CLI contract: exit codes, report shapes, and the files gen writes."""

import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimkit.component_solver
from dimkit import cli
from dimkit.cli import main
from dimkit.coloring import Coloring, Contradiction, parse_matching
from dimkit.component_solver import try_edge
from dimkit.driver import SolveOutcome, solve
from dimkit.generator import gen_c4_augmented
from dimkit.graph import MAX_VERTICES, Graph, connected_components, load_graph, save_graph
from dimkit.oracle import enumerate_dims, verify_dim
from conftest import complete_graph, cubic_no_dim, cycle_graph, path_graph

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
    # a cubic no-instance holding a P9, with no root fact: a cap below the
    # 8 branches its refutation needs leaves it to the engine, which refutes
    # it in 4 branches of its own after the 7 the search ran; at a cap of 8,
    # the default cap and above, the search refutes it
    path = graph_file(cubic_no_dim(40, 1))
    assert main(["solve", path, "--budget-branches", "7"]) == 1
    out = capsys.readouterr().out
    assert "reason: no matching edge fits at vertex 1: black-unmatchable at 31\n" in out
    assert "status: no-dim" in out and "edges_tried=3 forced_edges=0 branches=11\n" in out
    for flags in ([], ["--budget-branches", "8"], ["--budget-branches", "20000"]):
        assert main(["solve", path, *flags]) == 1
        out = capsys.readouterr().out
        assert "status: no-dim" in out and "edges_tried=0 forced_edges=0 branches=8\n" in out
    # a pendant-C4 no-instance: the root facts refute it in 0 branches
    # under any cap, 0 included
    path = graph_file(gen_c4_augmented(214, 47, 119, 1107), "c4.graph")
    for flags in (["--budget-branches", "0"], ["--budget-branches", "100"], []):
        assert main(["solve", path, *flags]) == 1
        out = capsys.readouterr().out
        assert "reason: root facts: black-unmatchable at 216" in out
        assert "edges_tried=0 forced_edges=0 branches=0\n" in out


def test_solve_inconclusive_exit_two(graph_file, capsys, monkeypatch):
    # no input on record leaves the engine's budget spent, so a piece
    # search that always runs out stands in: after the 7 branches of the
    # first search, the engine's first trial spends its whole budget of
    # max(4096, 8 * size) and the two after it find nothing left
    monkeypatch.setattr(dimkit.component_solver, "search",
                        lambda c, pick, budget: ("budget", budget))
    path = graph_file(cubic_no_dim(40, 1))
    assert main(["solve", path, "--budget-branches", "7"]) == 2
    assert capsys.readouterr().out == (
        "status: inconclusive\n"
        "reason: engine branch budget 4096 exhausted\n"
        "stats: edges_tried=3 forced_edges=0 branches=4103\n"
        "p9_checked: true\n"
    )


def test_oracle_negative_node_limit_exit_three(graph_file, capsys):
    assert main(["oracle", graph_file(cycle_graph(6)), "--node-limit", "-5"]) == 3
    assert "--node-limit" in capsys.readouterr().err


def test_solve_oversized_header_exit_three(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("100000000000 0\n")
    assert main(["solve", str(path)]) == 3
    assert "exceed the limit" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("3 -1\n", "line 1: negative counts in header"),
    ("3 2\n0 1\n1 2 0\n", "line 3: expected 'u v' edge line"),
    ("# two edges\n3 2\n0 x\n1 2\n", "line 3: non-integer edge line"),
])
def test_solve_malformed_graph_exit_three_with_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_solve_internal_error_exit_four(graph_file, capsys, monkeypatch):
    def crash(g, cfg):
        raise MemoryError("simulated")

    monkeypatch.setattr(cli, "solve", crash)
    assert main(["solve", graph_file(cycle_graph(6))]) == 4
    assert "internal error" in capsys.readouterr().err


def test_solve_interrupted_exit_three(graph_file, monkeypatch):
    def interrupt(g, cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "solve", interrupt)
    assert main(["solve", graph_file(cycle_graph(6))]) == 3


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


def test_usage_errors_exit_three(graph_file, tmp_path, capsys):
    assert main([]) == 3
    assert "usage" in capsys.readouterr().err.lower()
    assert main(["solve"]) == 3
    assert main(["solve", graph_file(cycle_graph(6)), "--budget-branches", "abc"]) == 3
    assert main(["gen"]) == 3
    out = tmp_path / "out"
    assert main(["gen", "random", "--n", "5", "--filter", "bogus", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "--budget-branches" in captured.err and "--filter" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exit_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage" in capsys.readouterr().out.lower()


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def test_solve_json_subprocess_matches_in_process(graph_file, tmp_path):
    # the path the benchmark times: a fresh `python -m dimkit.cli solve --json`
    for g, rc in ((cycle_graph(6), 0), (cycle_graph(4), 1)):
        done = _python("-m", "dimkit.cli", "solve", "--json", graph_file(g, f"c{g.n}.graph"))
        assert done.returncode == rc, done.stderr
        assert done.stdout == solve(g).to_json() + "\n"
    done = _python("-m", "dimkit.cli", "solve", "--json", str(tmp_path / "nope.graph"))
    assert done.returncode == 3
    assert done.stdout == "" and "cannot load graph" in done.stderr


def test_cold_solve_loads_no_builder_modules(graph_file):
    # a solve process imports only what the solve path needs (run as
    # `python -m` runs it); `import dimkit.cli` still loads every module the
    # benchmark's tracer wraps, and the generator still resolves as an
    # attribute of the package
    cold = ("import runpy, sys\n"
            f"sys.argv = ['dimkit', 'solve', '--json', {graph_file(cycle_graph(6))!r}]\n"
            "try:\n"
            "    runpy.run_module('dimkit.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print([m for m in ('click', 'dataclasses', 'inspect', 'dimkit.generator')\n"
            "       if m in sys.modules])\n")
    done = _python("-c", cold)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"

    spans = ast.parse((Path(SRC).parent / "perfbench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in spans.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BOUNDARIES")
    warm = ("import sys, dimkit.cli\n"
            f"print([m for m in {sorted({f'dimkit.{mod}' for mod, _, _ in traced})!r}\n"
            "       if m not in sys.modules])\n"
            "print(dimkit.generator.iter_small_corpus.__name__)\n"
            "namespace = {}\n"
            "exec('from dimkit import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == sorted(dimkit.__all__))\n")
    done = _python("-c", warm)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "iter_small_corpus", "True"]


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


def test_explain_pair_clash_beyond_the_radius_exit_one(graph_file, capsys):
    # vertex 6 lies five levels from (0, 1), but the trial propagates the
    # pair first, and that already refutes the edge: 2 turns white, 3-4 a
    # matched pair, 5 white, so 6 is black with no neighbor left to match
    rc = main(["explain", graph_file(path_graph(7)), "0", "1"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert rep == {
        "edge": [0, 1], "status": "infeasible",
        "contradiction": {"rule": "black-unmatchable", "witnesses": [6]},
    }


def test_explain_forced_and_anchors(graph_file, capsys):
    # the square's root pair clashes: the trial stops there, before any
    # level is built, so the report names no level, forced edge or anchor
    assert main(["explain", graph_file(cycle_graph(4)), "0", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {
        "edge": [0, 1], "status": "infeasible",
        "contradiction": {"rule": "white-white-edge", "witnesses": [2, 3]},
    }
    # here the pair survives: anchor 0 and the L3 and L4 vertices behind it
    # stay unknown and form the one piece the trial would search
    g = Graph.from_edges(7, [(0, 1), (0, 3), (0, 5), (1, 6), (2, 3), (2, 5), (4, 6)])
    assert main(["explain", graph_file(g), "4", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "ok" and "contradiction" not in rep
    assert rep["levels"] == [[4, 6], [1], [0], [3, 5], [2]]
    assert (rep["forced"], rep["anchors"], rep["shared_l3"]) == ([[4, 6]], [0], [])
    assert (rep["white"], rep["black"], rep["pieces"]) == ([1], [0, 4, 6], [[0, 2, 3, 5]])


def test_explain_stops_where_the_trial_stops(corpus7, monkeypatch):
    # explain propagates the pair as the engine's trial does, so on every
    # edge its status says how try_edge on a fresh coloring goes on:
    # infeasible is the same contradiction, and ok or radius-exceeded a
    # trial that splits its leftovers into pieces.  The trial builds no
    # levels, so past four levels it decides as well, and agrees with the
    # oracle (on all six such edges here, dim).  Corpus7 has no radius
    # report of its own, so two longer paths join it.
    reached = []
    real = dimkit.component_solver.connected_components
    monkeypatch.setattr(dimkit.component_solver, "connected_components",
                        lambda g, mask: reached.append(mask) or real(g, mask))
    statuses = collections.Counter()
    for g in [*corpus7, path_graph(8), path_graph(9)]:
        for x, y in g.edges():
            rep = cli.explain_report(g, x, y)
            scope = next(c for c in connected_components(g) if c >> x & 1)
            stats = {"branches": 0, "forced_edges": 0}
            reached.clear()
            trial = try_edge(g, scope, x, y, Coloring(g), stats, 4096)
            where = (g.edges(), x, y, rep, trial)
            if rep["status"] == "radius-exceeded":
                with_xy = any((x, y) in m for m in enumerate_dims(g))
                assert trial[0] == ("dim" if with_xy else "infeasible"), where
            elif rep["status"] == "infeasible":
                bad = Contradiction(rep["contradiction"]["rule"], tuple(rep["contradiction"]["witnesses"]))
                assert trial == ("infeasible", str(bad)), where
            assert trial[0] != "undecided", where
            assert bool(reached) == (rep["status"] != "infeasible"), where
            statuses[rep["status"]] += 1
    assert statuses == {"ok": 407, "infeasible": 10_266, "radius-exceeded": 6}, statuses


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
    # the generator's own check refuses them before --out is created, with
    # any --count
    out = tmp_path / "x"
    for args in (["--n", "5", "--k", "3"], ["--n", "5", "--k", "3", "--count", "0"],
                 ["--n", "8", "--k", "-1"], ["--n", "8", "--extra", "-1"],
                 ["--n", "6", "--k", "1", "--extra", "9"]):
        assert main(["gen", "planted", *args, "--out", str(out)]) == 3, args
        assert capsys.readouterr().err.startswith("Error: "), args
        assert not out.exists(), args


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("count", ["1", "0"])
def test_gen_random_bad_p_exit_three_before_out(tmp_path, capsys, p, count):
    out = tmp_path / "x"
    assert main(["gen", "random", "--n", "5", "--p", p, "--count", count,
                 "--out", str(out)]) == 3
    assert "edge probability must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("verb", ["planted", "random"])
def test_gen_rerun_lists_its_own_instances_once(tmp_path, capsys, verb):
    # the manifest is the last run's, written whole; a run that writes no
    # instance leaves it as it was
    out = tmp_path / "inst"
    argv = ["gen", verb, "--n", "12", "--count", "2", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 0
    manifest = out / "manifest.jsonl"
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert sorted(row["path"] for row in rows) == sorted(p.name for p in out.glob("*.graph"))
    assert len(rows) == 2
    before = manifest.read_text()
    assert main(["gen", verb, "--n", "12", "--count", "0", "--out", str(out)]) == 0
    assert main(["gen", "planted", "--n", "5", "--k", "3", "--out", str(out)]) == 3
    assert main(["gen", "random", "--n", "6", "--p", "1.0", "--filter", "k4_free",
                 "--attempt-cap", "1", "--out", str(out)]) == 1
    assert manifest.read_text() == before
    capsys.readouterr()


def test_gen_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["gen", "corpus", "--max-n", "4", "--out", str(out)])
    assert rc == 0
    assert "wrote 9 graphs" in capsys.readouterr().out
    rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(rows) == 9  # 1 + 2 + 6 connected graphs on 2..4 vertices


@pytest.mark.parametrize("args", [
    ["planted", "--n", "10"],
    ["random", "--n", "10"],
    ["corpus", "--max-n", "3"],
])
@pytest.mark.parametrize("below", [False, True])
def test_gen_out_that_cannot_be_a_directory_exit_three(tmp_path, capsys, args, below):
    # --out names a file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out = blocker / "x" if below else blocker
    assert main(["gen", *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--out" in err and "internal error" not in err
    assert blocker.read_text() == "keep\n"


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
