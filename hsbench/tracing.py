"""Spans and counts at the package's layer boundaries, installed from outside.

Wrappers replace each public function under every name a hazardsignal module
binds it to (so ``hazardsignal.design.solve_equilibrium`` is traced as well
as ``hazardsignal.equilibrium.solve_equilibrium``), and each curve class's
``__call__`` and ``inverse``. Nothing in the package changes.

A span records (op id, span id, parent span id, name, start, end). Self
time is a span's duration minus the time its child spans cover. Every
layer metric is a count or a total, so each is a number on every workload:
a layer the traced ops never call has count 0 and self time 0. A layer
whose public name no longer exists is named in ``Tracer.absent`` and its
metrics are 0 as well.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from clicases import SUBCOMMANDS

FAMILY_CLASSES = {"affine": "AffineHazard", "power": "PowerHazard", "table": "TableHazard"}
REGIONS = ("NCVC", "NCVI", "NCVR", "NIVR", "NRVR")

#: (span name, defining module, function name)
FUNCTIONS = (
    ("consistency.solve_profile_P", "hazardsignal.consistency", "solve_profile_P"),
    ("consistency.posterior_no_signal", "hazardsignal.consistency", "posterior_no_signal"),
    ("consistency.group_costs", "hazardsignal.consistency", "group_costs"),
    ("equilibrium.classify_region", "hazardsignal.equilibrium", "classify_region"),
    ("equilibrium.solve_equilibrium", "hazardsignal.equilibrium", "solve_equilibrium"),
    ("design.sweep_beta", "hazardsignal.design", "sweep_beta"),
    ("design.optimal_beta_social", "hazardsignal.design", "optimal_beta_social"),
    ("design.optimal_beta_accidents", "hazardsignal.design", "optimal_beta_accidents"),
    ("oracle.epsilon_equilibria", "hazardsignal.oracle", "epsilon_equilibria"),
    ("scenario.load_scenario", "hazardsignal.scenario", "load_scenario"),
    ("cli.main", "hazardsignal.cli", "main"),
)

#: (span name, defining module, class name, method name)
METHODS = tuple(
    (f"model.{fam}.{kind}", "hazardsignal.model", cls, meth)
    for fam, cls in FAMILY_CLASSES.items()
    for kind, meth in (("call", "__call__"), ("inverse", "inverse"))
) + (
    ("model.SignalingGame", "hazardsignal.model", "SignalingGame", "__init__"),
    ("scenario.canonical_text", "hazardsignal.scenario", "Scenario", "canonical_text"),
)

#: units of the layer metrics; the traced run reports every one of them
LAYER_METRICS: dict[str, str] = {}
for _fam in FAMILY_CLASSES:
    LAYER_METRICS |= {
        f"model.{_fam}.call.count": "count",
        f"model.{_fam}.call.elements": "count",
        f"model.{_fam}.call.self_ms": "ms",
        f"model.{_fam}.inverse.count": "count",
        f"model.{_fam}.inverse.self_ms": "ms",
    }
LAYER_METRICS |= {
    "model.SignalingGame.count": "count",
    "model.SignalingGame.self_ms": "ms",
    "consistency.solve_profile_P.count": "count",
    "consistency.solve_profile_P.self_ms": "ms",
    "consistency.solve_profile_P.hazard_calls": "count",
    "consistency.solve_profile_P.max_residual": "1",
    "consistency.posterior_no_signal.count": "count",
    "consistency.posterior_no_signal.self_ms": "ms",
    "consistency.group_costs.count": "count",
    "consistency.group_costs.self_ms": "ms",
    "equilibrium.classify_region.count": "count",
    "equilibrium.classify_region.self_ms": "ms",
}
for _r in REGIONS:
    LAYER_METRICS |= {
        f"equilibrium.solve_equilibrium.{_r}.count": "count",
        f"equilibrium.solve_equilibrium.{_r}.self_ms": "ms",
    }
LAYER_METRICS |= {
    "design.sweep_beta.count": "count",
    "design.sweep_beta.self_ms": "ms",
    "design.optimal_beta_social.count": "count",
    "design.optimal_beta_social.self_ms": "ms",
    "design.optimal_beta_social.solves": "count",
    "design.optimal_beta_social.refined": "count",
    "design.optimal_beta_accidents.count": "count",
    "design.optimal_beta_accidents.self_ms": "ms",
    "oracle.epsilon_equilibria.count": "count",
    "oracle.epsilon_equilibria.self_ms": "ms",
    "oracle.epsilon_equilibria.hazard_elements": "count",
    "oracle.epsilon_equilibria.members": "count",
    "oracle.agree_rows": "count",
    "oracle.empty_rows": "count",
    "scenario.load_scenario.count": "count",
    "scenario.load_scenario.self_ms": "ms",
    "scenario.canonical_text.count": "count",
    "scenario.canonical_text.self_ms": "ms",
    "cli.main.count": "count",
    "cli.main.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.stdout_bytes": "bytes",
}
LAYER_METRICS |= {f"cli.main.{sub}.ms": "ms" for sub in SUBCOMMANDS}
LAYER_METRICS |= {"trace.ops": "count", "trace.spans": "count", "trace.overhead_pct": "%"}


def _lookup(modname: str, attr: str):
    """modname.attr, or None once a refactor has removed either."""
    try:
        return getattr(importlib.import_module(modname), attr, None)
    except ImportError:
        return None


class _Frame:
    __slots__ = ("name", "id", "start", "child", "solves", "elements")

    def __init__(self, name, span_id, start, solves, elements):
        self.name, self.id, self.start = name, span_id, start
        self.child = 0.0
        self.solves, self.elements = solves, elements


class Tracer:
    """Installs the wrappers, keeps spans in memory and derives layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[_Frame] = []
        self._count: dict[str, int] = defaultdict(int)
        self._self_s: dict[str, float] = defaultdict(float)
        self._extra: dict[str, float] = defaultdict(float)
        self._solves = 0  # solve_equilibrium calls so far
        self._elements = 0  # hazard-curve elements evaluated so far
        self._undo: list[tuple] = []
        self.absent: list[str] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hazardsignal"]
        for name, modname, attr in FUNCTIONS:
            original = _lookup(modname, attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, bound, original))
                        setattr(module, bound, wrapper)
        for name, modname, clsname, meth in METHODS:
            cls = _lookup(modname, clsname)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        on_exit = self._hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = _Frame(name, span_id, perf_counter(), tracer._solves, tracer._elements)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer._close(frame, parent, name, perf_counter())
                raise
            end = perf_counter()
            stack.pop()
            label = on_exit(frame, parent, args, kwargs, out) if on_exit else None
            tracer._close(frame, parent, label or name, end)
            return out

        return wrapper

    def _close(self, frame: _Frame, parent: _Frame | None, label: str, end: float) -> None:
        duration = end - frame.start
        if parent is not None:
            parent.child += duration
        self._count[label] += 1
        self._self_s[label] += duration - frame.child
        self.spans[frame.id] = (
            self.op, frame.id, parent.id if parent else -1, label, frame.start, end
        )

    def _hooks(self) -> dict:
        """Per-layer counts taken at the span boundary, keyed by span name."""
        extra = self._extra

        def hazard_call(frame, parent, args, kwargs, out):
            n = int(np.size(args[1]))
            extra[f"{frame.name}.elements"] += n
            self._elements += n
            if parent is not None and parent.name == "consistency.solve_profile_P":
                extra["consistency.solve_profile_P.hazard_calls"] += 1

        def solve_profile(frame, parent, args, kwargs, out):
            key = "consistency.solve_profile_P.max_residual"
            extra[key] = max(extra[key], out.residual)

        def solve(frame, parent, args, kwargs, out):
            self._solves += 1
            return f"equilibrium.solve_equilibrium.{out.region.value}"

        def social(frame, parent, args, kwargs, out):
            grid_n = args[1] if len(args) > 1 else kwargs.get("grid_n", 101)
            solves = self._solves - frame.solves
            extra["design.optimal_beta_social.solves"] += solves
            extra["design.optimal_beta_social.refined"] += solves > grid_n

        def oracle(frame, parent, args, kwargs, out):
            extra["oracle.epsilon_equilibria.hazard_elements"] += self._elements - frame.elements
            extra["oracle.epsilon_equilibria.members"] += len(out.members)

        def cli_main(frame, parent, args, kwargs, out):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.main.{argv[0]}" if argv else None

        hooks = {f"model.{fam}.call": hazard_call for fam in FAMILY_CLASSES}
        hooks |= {
            "consistency.solve_profile_P": solve_profile,
            "equilibrium.solve_equilibrium": solve,
            "design.optimal_beta_social": social,
            "oracle.epsilon_equilibria": oracle,
            "cli.main": cli_main,
        }
        return hooks

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, totals and self times of every layer; 0 where the traced
        ops never reached the layer. Per-call figures are a total divided by
        its layer's count."""
        count, self_ms, extra = self._count, self._self_s, self._extra
        out: dict[str, float] = {}
        for name in [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]:
            if name == "equilibrium.solve_equilibrium":
                for r in REGIONS:
                    label = f"{name}.{r}"
                    out[f"{label}.count"] = count[label]
                    out[f"{label}.self_ms"] = self_ms[label] * 1e3
            elif name == "cli.main":
                labels = [name] + [f"{name}.{sub}" for sub in SUBCOMMANDS]
                out["cli.main.count"] = sum(count[label] for label in labels)
                out["cli.main.self_ms"] = sum(self_ms[label] for label in labels) * 1e3
            else:
                out[f"{name}.count"] = count[name]
                out[f"{name}.self_ms"] = self_ms[name] * 1e3
        for fam in FAMILY_CLASSES:
            out[f"model.{fam}.call.elements"] = int(extra[f"model.{fam}.call.elements"])
        for key in ("consistency.solve_profile_P.hazard_calls",
                    "design.optimal_beta_social.solves",
                    "design.optimal_beta_social.refined",
                    "oracle.epsilon_equilibria.hazard_elements",
                    "oracle.epsilon_equilibria.members"):
            out[key] = int(extra[key])
        key = "consistency.solve_profile_P.max_residual"
        out[key] = float(extra[key])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{start:.9f},{end:.9f}\n")
