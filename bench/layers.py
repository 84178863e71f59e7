"""Span tracing of fairthresh layers from outside the package.

The tracer wraps public functions of the package's modules and records one
span per call: layer name, start, end, parent span and operation id. Spans
stay in memory until the run ends. Nothing inside ``src/fairthresh`` is
changed; the wrappers are installed by rebinding module globals and are
removed again by ``Tracer.uninstall``.

Package modules bind functions with ``from .x import name`` and sometimes
store them in module-level tables (the CLI's method table), so a patch
replaces every binding of the original object across ``fairthresh.*``
modules, not only the one in the defining module.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, layer). A layer is named after the module that owns
# the timed call; its metrics are <layer>.calls, <layer>.ms, <layer>.self_ms.
TRACED_FUNCTIONS = (
    ("cli", "ingest_csv", "cli.ingest_csv"),
    ("estimators", "fit_logistic", "estimators.fit"),
    ("estimators", "fit_group_models", "estimators.fit"),
    ("estimators", "predict_proba", "estimators.predict_proba"),
    ("fair_algorithms", "run_fuds", "fair_algorithms.run"),
    ("fair_algorithms", "run_fcsc", "fair_algorithms.run"),
    ("fair_algorithms", "run_fpir", "fair_algorithms.run"),
    ("fair_algorithms", "fuds_resample", "fair_algorithms.fuds_resample"),
    ("fair_algorithms", "evaluate", "fair_algorithms.evaluate"),
    ("core", "empirical_disparity_arrays", "core.empirical_disparity"),
    ("solver", "solve_threshold", "solver"),
    ("gaussian", "sample", "gaussian.sample"),
    ("gaussian", "theoretical_fair_classifier", "gaussian.reference"),
    ("discrete", "solve_randomized", "discrete.solve_randomized"),
    ("discrete", "brute_force_oracle", "discrete.brute_force_oracle"),
    ("extensions", "solve_eqodds", "extensions.solve_eqodds"),
    ("extensions", "eqodds_disparities", "extensions.eqodds_eval"),
    ("extensions", "eqodds_risk", "extensions.eqodds_eval"),
)
CURVE_LAYER = "solver.curve_eval"

LAYERS = tuple(dict.fromkeys([layer for _, _, layer in TRACED_FUNCTIONS] + [CURVE_LAYER]))
# The solver layer counts solves rather than generic calls.
_COUNT_NAME = {"solver": "solves"}


def layer_metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs: list[tuple[str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer}.{_COUNT_NAME.get(layer, 'calls')}", "count"))
        specs.append((f"{layer}.ms", "ms"))
        specs.append((f"{layer}.self_ms", "ms"))
    specs += [
        ("estimators.fit.grad_norm_max", "norm"),
        ("solver.evaluations", "count"),
        ("solver.evals_per_solve", "evals/solve"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return specs


class Tracer:
    """In-memory span recorder with patch-based instrumentation.

    Time spent in the tracer's own bookkeeping hooks (the gradient-norm
    check on each fit) is subtracted from the span clock, so it never shows
    up as layer time.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._excluded = 0.0
        self._restore: list = []
        self.op: str | None = None
        self.evaluations = 0
        self.grad_norm_max = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    @contextmanager
    def _excluded_time(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Record one span; with op, it also starts a new operation id."""
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, self.now(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.now()

    def _wrap(self, layer: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A layer calling into itself (fit_group_models -> fit_logistic)
            # stays one span, so call counts mean outermost calls.
            if self._stack and self.spans[self._stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            with self.span(layer):
                result = fn(*args, **kwargs)
            if after is not None:
                with self._excluded_time():
                    after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function in every loaded fairthresh module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fairthresh" or name.startswith("fairthresh."))]
        for module_name, attr, layer in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(f"fairthresh.{module_name}"), attr)
            wrapper = self._wrap(layer, original, self._hook_for(module_name, attr, original))
            for module in modules:
                self._rebind(module, original, wrapper)
        solver = importlib.import_module("fairthresh.solver")
        curve_cls = solver.DisparityCurve
        original_call = curve_cls.__dict__["__call__"]
        curve_cls.__call__ = self._wrap(CURVE_LAYER, original_call)
        self._restore.append((setattr, (curve_cls, "__call__", original_call)))

    def _rebind(self, module, original, wrapper) -> None:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                self._restore.append((setattr, (module, name, original)))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        self._restore.append((dict.__setitem__, (value, key, original)))

    def uninstall(self) -> None:
        while self._restore:
            fn, args = self._restore.pop()
            fn(*args)

    def _hook_for(self, module_name: str, attr: str, original):
        if (module_name, attr) == ("solver", "solve_threshold"):
            def count_evaluations(args, kwargs, result) -> None:
                self.evaluations += result.evaluations

            return count_evaluations
        if module_name == "estimators" and attr.startswith("fit_"):
            signature = inspect.signature(original)

            def record_grad_norm(args, kwargs, result) -> None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                norm = _grad_norm(bound.arguments["dataset"], result, bound.arguments["config"])
                self.grad_norm_max = max(self.grad_norm_max, norm)

            return record_grad_norm
        return None

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Counts, busy time and self time per layer, plus solver counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in calls:
                calls[name] += 1
                busy[name] += end - start
                own[name] += end - start - child_time[index]
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.{_COUNT_NAME.get(layer, 'calls')}"] = calls[layer]
            metrics[f"{layer}.ms"] = 1e3 * busy[layer]
            metrics[f"{layer}.self_ms"] = 1e3 * own[layer]
        solves = calls["solver"]
        metrics["estimators.fit.grad_norm_max"] = self.grad_norm_max
        metrics["solver.evaluations"] = self.evaluations
        metrics["solver.evals_per_solve"] = self.evaluations / solves if solves else 0.0
        metrics["trace.spans"] = len(self.spans)
        metrics["trace.overhead_s"] = overhead_s
        return metrics

    def write(self, path: Path) -> None:
        """Write spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start": start - origin, "end": end - origin,
                          "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")


def _grad_norm(dataset, model, config) -> float:
    """Norm of the objective's gradient at a returned fit (0 at the optimum)."""
    from fairthresh import estimators

    if model.mode == estimators.MODE_AWARE:
        parts = [
            (dataset.subset(dataset.a == a), model.group_params(a), None) for a in (0, 1)
        ]
    elif model.mode == estimators.MODE_BLIND_A:
        parts = [(dataset, model.single_params(), dataset.a)]
    else:
        parts = [(dataset, model.single_params(), None)]
    worst = 0.0
    for data, params, target in parts:
        grad_b, grad_w = estimators.nll_gradient(data, params, target, config.l2)
        worst = max(worst, math.sqrt(grad_b * grad_b + float(grad_w @ grad_w)))
    return worst
