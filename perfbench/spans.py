"""Spans around dimkit's module-level functions, recorded from outside.

``Tracer.install`` looks each boundary up by name in its dimkit module and
rebinds every dimkit module attribute that holds the same function, so
calls made through ``from .graph import central_vertex`` are caught too.
Nothing under ``src/`` is edited.  A name that no longer exists is
reported as absent with a warning and its metrics read 0.

Each span keeps its name, start, end, parent span and solve id, in flat
arrays; ``write`` saves them at the end.  A span's self time is its
duration minus the durations of its child spans.  Per-solve routes are
worked out from which boundaries ran for each top-level component.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); the oracle fallback is only the binding
# of oracle_dim in dimkit.driver, not the oracle itself
BOUNDARIES = (
    ("graph", "load_graph", "graph.load_graph"),
    ("graph", "central_vertex", "graph.central_vertex"),
    ("graph", "connected_components", "graph.connected_components"),
    ("patterns", "find_induced_path", "patterns.find_induced_path"),
    ("patterns", "scan_forced_patterns", "patterns.scan_forced_patterns"),
    ("patterns", "find_k4", "patterns.find_k4"),
    ("decomposition", "build_levels", "decomposition.build_levels"),
    ("decomposition", "apply_initial_facts", "decomposition.apply_initial_facts"),
    ("decomposition", "normalize_T", "decomposition.normalize_T"),
    ("component_solver", "solve_component", "component_solver.solve_component"),
    ("driver", "solve", "driver.solve"),
    ("driver", "solve_top_component", "driver.solve_top_component"),
    ("driver", "trivial_dim", "driver.trivial_dim"),
    ("driver", "try_edge", "driver.try_edge"),
    ("driver", "_complete_search", "driver.complete_search"),
    ("oracle", "verify_dim", "oracle.verify_dim"),
)
DRIVER_ONLY = (("driver", "oracle_dim", "driver.oracle_fallback"),)

ROUTES = ("singleton", "k4", "trivial_edge", "pattern", "engine", "complete_search", "oracle")
OUTCOMES = ("colored", "infeasible", "budget", "assumption")

# span name -> per-layer metrics "<name>.calls" / "<name>.self_s" reported
CALLS = ("graph.central_vertex", "patterns.find_induced_path", "decomposition.build_levels",
         "component_solver.solve_component", "driver.try_edge", "driver.complete_search",
         "driver.oracle_fallback")
SELF = ("graph.central_vertex", "graph.connected_components", "graph.load_graph",
        "patterns.find_induced_path", "patterns.scan_forced_patterns", "patterns.find_k4",
        "decomposition.build_levels", "decomposition.apply_initial_facts",
        "decomposition.normalize_T", "component_solver.solve_component", "driver.try_edge",
        "driver.complete_search", "driver.oracle_fallback", "oracle.verify_dim")


class _Component:
    __slots__ = ("size", "mask", "k4", "trivial", "trials", "top", "fallback")

    def __init__(self, mask: int):
        self.mask = mask
        self.size = mask.bit_count()
        self.k4 = False
        self.trivial = None  # result of the first trivial_dim on the whole component
        self.trials = 0
        self.top = None
        self.fallback = None

    def route(self) -> str | None:
        if self.fallback is not None:
            return self.fallback
        if self.top not in ("dim", "no-dim"):
            return None
        if self.size == 1:
            return "singleton"
        if self.k4:
            return "k4"
        if self.trivial:
            return "trivial_edge"
        return "engine" if self.trials else "pattern"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.solve = array("l")
        self._stack: list[int] = []
        self.solve_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._component: _Component | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("dimkit")
        modules = [m for k, m in sys.modules.items() if k == "dimkit" or k.startswith("dimkit.")]
        for modname, attr, span in BOUNDARIES + DRIVER_ONLY:
            home = importlib.import_module(f"dimkit.{modname}")
            original = getattr(home, attr, None)
            if not callable(original):
                print(f"warning: dimkit.{modname}.{attr} is absent; {span} reads 0", file=sys.stderr)
                continue
            wrapped = self._wrap(span, original)
            targets = [home] if (modname, attr, span) in DRIVER_ONLY else modules + [pkg]
            for mod in targets:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        sid = self._name_id.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        observe = getattr(self, "_on_" + span.replace(".", "_"), None)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(sid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.solve.append(tracer.solve_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            if observe is not None:
                observe("enter", args, None)
            exc = None
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
                if observe is not None:
                    observe("exit", args, exc if exc is not None else result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken at the boundaries ---------------------------------

    def _on_patterns_find_induced_path(self, phase, args, result):
        if phase == "exit" and type(result).__name__ == "ScanBudget":
            self.counts["patterns.p9_scan.budget_exhausted"] += 1

    def _on_patterns_scan_forced_patterns(self, phase, args, result):
        if phase == "exit" and isinstance(result, list):
            self.counts["patterns.forced_pattern_hits"] += len(result)

    def _on_decomposition_build_levels(self, phase, args, result):
        if phase == "exit" and type(result).__name__ == "RadiusExceeded":
            self.counts["decomposition.radius_exceeded"] += 1

    def _on_component_solver_solve_component(self, phase, args, result):
        status = getattr(result, "status", None)
        if phase == "exit" and status is not None:
            self.counts[f"component_solver.outcome.{status}"] += 1

    def _on_driver_try_edge(self, phase, args, result):
        if phase != "exit":
            return
        if isinstance(result, tuple) and result and result[0] in ("dim", "infeasible"):
            self.counts["driver.try_edge.useful"] += 1
        if self._component is not None:
            self._component.trials += 1

    def _on_driver_solve(self, phase, args, result):
        self._finish_component()

    def _on_driver_solve_top_component(self, phase, args, result):
        if phase == "enter":
            self._finish_component()
            self._component = _Component(args[1])
        elif isinstance(result, tuple):
            self._component.top = result[0]

    def _on_patterns_find_k4(self, phase, args, result):
        if phase == "exit" and result is not None and not isinstance(result, BaseException):
            if self._in_top_component():
                self._component.k4 = True

    def _on_driver_trivial_dim(self, phase, args, result):
        comp = self._component
        if phase == "exit" and self._in_top_component() and comp.trivial is None and args[1] == comp.mask:
            comp.trivial = result is not None and not isinstance(result, BaseException)

    def _on_driver_oracle_fallback(self, phase, args, result):
        if phase == "exit" and getattr(result, "status", None) in ("dim", "no-dim"):
            self._component.fallback = "oracle"

    def _on_driver_complete_search(self, phase, args, result):
        if phase == "exit" and isinstance(result, tuple) and result[0] in ("dim", "no-dim"):
            self._component.fallback = "complete_search"

    def _in_top_component(self) -> bool:
        # the span just popped was called directly by solve_top_component
        if self._component is None or len(self._stack) == 0:
            return False
        return self.names[self.name[self._stack[-1]]] == "driver.solve_top_component"

    def _finish_component(self) -> None:
        comp, self._component = self._component, None
        if comp is not None:
            route = comp.route()
            self.counts[f"driver.route.{route or 'undecided'}"] += 1

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and count so far (the wrappers stay)."""
        for arr in (self.name, self.start, self.end, self.parent, self.solve):
            del arr[:]
        self.counts.clear()
        self._component = None

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self seconds, calls and inclusive seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_s[name] += dur - child[i]
            total_s[name] += dur
            calls[name] += 1
        return self_s, calls, total_s

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tsolve\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.solve[i]}\n")
