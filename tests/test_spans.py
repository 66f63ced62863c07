"""The benchmark's tracer imports each dimkit module it wraps by name, and a
module that no longer imports ends a traced run (`perfbench/run.py
--trace 1`) with a crash.  Its list is read here without running it.  It
also credits each component's route from the first item of the results of
`driver.solve_top_component` and `driver._complete_search`, which is
checked by installing it."""

import ast
import importlib
import importlib.util
from pathlib import Path

from conftest import cycle_graph, path_graph

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _boundaries():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no BOUNDARIES")


def test_every_traced_module_imports():
    modules = {mod for mod, _, _ in _boundaries()}
    assert {"component_solver", "decomposition", "driver"} <= modules
    for mod in sorted(modules):
        importlib.import_module(f"dimkit.{mod}")


def test_traced_routes_of_the_complete_search_and_the_engine():
    import dimkit.cli  # noqa: F401  (load every module before wrapping)
    import dimkit.driver

    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the hexagon has no dominating edge, so the complete search decides
        # it; with no search budget the engine decides the seven-path
        assert dimkit.driver.solve(cycle_graph(6)).status == "dim"
        engine_only = dimkit.driver.SolveConfig(branch_budget=0)
        assert dimkit.driver.solve(path_graph(7), engine_only).status == "dim"
    finally:
        tracer.uninstall()
    routes = {k: v for k, v in tracer.counts.items() if k.startswith("driver.route.")}
    assert routes == {"driver.route.complete_search": 1, "driver.route.engine": 1}
