"""The library names that the benchmark reaches still exist.

``bench/run.py`` drives the package through attribute paths such as
``ft.gaussian.sample`` and ``ft.cli._CLI_LEARNER``, and ``bench/layers.py``
patches the functions it traces by module and name. No other test reads
those paths, so a name that only the benchmark uses could be deleted with
every other test passing, and every benchmark run would then fail. These
checks read ``bench/`` and change nothing there.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import math
import re
from pathlib import Path

import pytest

from fairthresh.estimators import MODE_AWARE, MODE_BLIND_A
from fairthresh.gaussian import default_model, sample

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_layers()


def attribute_paths(path: Path) -> set[str]:
    """Every dotted attribute read in a bench file, as written."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def run_references() -> list[tuple[str, str]]:
    """(module, name) of each ``ft.<module>.<name>`` and ``fa.<name>`` in
    run.py, where ``fa`` is ``ft.fair_algorithms``, plus ``cli.main``."""
    refs = {("cli", "main")}
    for dotted in attribute_paths(BENCH / "run.py"):
        match = re.fullmatch(r"(?:self\.)?ft\.(\w+)\.(\w+)", dotted)
        if match and match.group(1) != "np":
            refs.add((match.group(1), match.group(2)))
        match = re.fullmatch(r"fa\.(\w+)", dotted)
        if match:
            refs.add(("fair_algorithms", match.group(1)))
    return sorted(refs)


def layers_references() -> list[tuple[str, str]]:
    """(module, name) of the traced functions and of the ``estimators``
    names that the gradient-norm hook reads."""
    refs = {(module, name) for module, name, _ in LAYERS.TRACED_FUNCTIONS}
    for dotted in attribute_paths(BENCH / "layers.py"):
        match = re.fullmatch(r"estimators\.(\w+)", dotted)
        if match:
            refs.add(("estimators", match.group(1)))
    return sorted(refs)


TRACED_FITS = sorted(
    name for module, name, _ in LAYERS.TRACED_FUNCTIONS
    if module == "estimators" and name.startswith("fit_")
)


def test_run_binds_fa_to_the_pipelines_module():
    assert re.search(r"\bfa = ft\.fair_algorithms\b", (BENCH / "run.py").read_text())


BENCH_REFERENCES = sorted({*run_references(), *layers_references()})


@pytest.mark.parametrize(
    "module, name", [pytest.param(m, n, id=f"{m}.{n}") for m, n in BENCH_REFERENCES]
)
def test_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"fairthresh.{module}"), name)


def test_traced_fits_are_found():
    assert TRACED_FITS == ["fit_group_models", "fit_logistic"]


@pytest.mark.parametrize("name", TRACED_FITS)
def test_traced_fit_takes_a_config(name):
    fit = getattr(importlib.import_module("fairthresh.estimators"), name)
    assert "dataset" in inspect.signature(fit).parameters
    assert "config" in inspect.signature(fit).parameters


@pytest.mark.parametrize(
    "name, extra",
    [
        ("fit_logistic", ()),
        ("fit_group_models", (MODE_AWARE,)),
        ("fit_group_models", (MODE_BLIND_A,)),
    ],
    ids=["fit_logistic", "fit_group_models-aware", "fit_group_models-blind_a"],
)
def test_gradient_norm_hook_runs_on_a_fit(name, extra):
    # The hook binds the fit's arguments by name and recomputes the
    # gradient at the returned parameters, which is near 0 at the optimum.
    fit = getattr(importlib.import_module("fairthresh.estimators"), name)
    tracer = LAYERS.Tracer()
    hook = tracer._hook_for("estimators", name, fit)
    data = sample(default_model(), 300, 5)
    hook((data, *extra), {}, fit(data, *extra))
    assert math.isfinite(tracer.grad_norm_max)
    assert tracer.grad_norm_max < 1e-6
