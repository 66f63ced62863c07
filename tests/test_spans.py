"""The benchmark's tracer imports each dimkit module it wraps by name, and a
module that no longer imports ends a traced run (`perfbench/run.py
--trace 1`) with a crash.  Its list is read here without running it."""

import ast
import importlib
from pathlib import Path

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
