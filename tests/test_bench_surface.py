"""The library names that the benchmark reaches still exist, and its calls
and command lines still fit them.

``bench/run.py`` drives the package through attribute paths such as
``ft.gaussian.sample`` and ``ft.cli._CLI_LEARNER``, and ``bench/layers.py``
patches the functions it traces by module and name. No other test reads
those paths, so a name that only the benchmark uses could be deleted with
every other test passing, and every benchmark run would then fail. The
same holds for a parameter that ``run.py`` passes and for a CLI option in
the command lines it builds. These checks read ``bench/`` and change
nothing there.
"""
from __future__ import annotations

import argparse
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


def run_calls() -> list[tuple[int, str, str, ast.Call]]:
    """(line, module, name, call) of each call in run.py to an
    ``ft.<module>.<name>`` or ``fa.<name>``."""
    calls = []
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        dotted = re.sub(r"^fa\.", "ft.fair_algorithms.", ast.unparse(node.func))
        match = re.fullmatch(r"(?:self\.)?ft\.(\w+)\.(\w+)", dotted)
        if match and match.group(1) != "np":
            calls.append((node.lineno, *match.groups(), node))
    return sorted(calls, key=lambda c: (c[0], c[1], c[2]))


RUN_CALLS = run_calls()


def test_run_calls_are_found():
    assert len(RUN_CALLS) >= 19
    assert {("fair_algorithms", "FairFitConfig"), ("fair_algorithms", "run_fpir")} <= {
        (module, name) for _, module, name, _ in RUN_CALLS
    }


@pytest.mark.parametrize(
    "module, name, call",
    [pytest.param(m, n, c, id=f"{line}-{m}.{n}") for line, m, n, c in RUN_CALLS],
)
def test_run_call_binds_to_its_signature(module, name, call):
    # A removed parameter or a changed positional count fails here, not in
    # the first benchmark run after the change.
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(keyword.arg is not None for keyword in call.keywords)
    callee = getattr(importlib.import_module(f"fairthresh.{module}"), name)
    inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})


def run_option_literals() -> list[str]:
    """Every ``"--option"`` string in run.py that is not one of the
    benchmark's own options (the first argument of its add_argument calls)."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    own = {
        id(node.args[0]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".add_argument")
    }
    return sorted({
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.fullmatch(r"--[a-z][a-z-]*", node.value) and id(node) not in own
    })


def cli_options() -> set[str]:
    """The option strings of every fairthresh subcommand."""
    from fairthresh import cli

    [commands] = (
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {option for sub in commands.choices.values() for option in sub._option_string_actions}


def test_run_option_literals_are_found():
    assert {"--data", "--delta-grid", "--out"} <= set(run_option_literals())


@pytest.mark.parametrize("option", run_option_literals())
def test_run_option_is_a_cli_option(option):
    assert option in cli_options()
