"""The boundary of the oracle-check suites.

``fairthresh.oracles`` holds the three suites, their oracles and their
constants. Its imports are everything the suites share with the code they
check, so they must bring in public names only. The CLI runs the suites and
keeps none of their code, and the package does not load the module.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import fairthresh.cli
import fairthresh.oracles

ORACLES_PATH = Path(fairthresh.oracles.__file__)
MOVED_FUNCTIONS = (
    "_random_finite_instance",
    "_check_discrete_suite",
    "_suite_disparity",
    "_grid_threshold_oracle",
    "_check_grid_suite",
    "_eqodds_grid_oracle",
    "_check_eqodds_suite",
)
CONSTANT_PREFIXES = ("_DISCRETE_", "_GRID_", "_EQODDS_")


def oracles_tree() -> ast.Module:
    return ast.parse(ORACLES_PATH.read_text(encoding="utf-8"))


def package_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of every name imported from the fairthresh package."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("fairthresh")
        ):
            out += [(node.module or ".", alias.name) for alias in node.names]
    return out


def test_package_imports_are_public_names():
    imports = package_imports(oracles_tree())
    assert imports, "oracles imports nothing from the package"
    assert [pair for pair in imports if pair[1].startswith("_")] == []


def test_imported_modules_are_read_through_public_names():
    # ``from . import core`` is allowed; ``core._anything`` is not.
    tree = oracles_tree()
    modules = {name for module, name in package_imports(tree) if module == "."}
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert private == []


def test_only_the_three_suites_are_public():
    assert fairthresh.oracles.__all__ == [
        "check_discrete_suite",
        "check_grid_suite",
        "check_eqodds_suite",
    ]
    defined = []
    for node in oracles_tree().body:
        if isinstance(node, ast.FunctionDef):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
    public = [name for name in defined if not name.startswith("_")]
    assert public == fairthresh.oracles.__all__


def test_cli_keeps_none_of_the_moved_names():
    names = vars(fairthresh.cli)
    assert [name for name in MOVED_FUNCTIONS if name in names] == []
    assert [name for name in names if name.startswith(CONSTANT_PREFIXES)] == []
    for name in MOVED_FUNCTIONS:
        assert hasattr(fairthresh.oracles, name.replace("_check_", "check_"))


def test_cli_runs_the_suites_of_the_oracles_module():
    for name in fairthresh.oracles.__all__:
        assert getattr(fairthresh.cli, name) is getattr(fairthresh.oracles, name)


def test_package_import_does_not_load_the_oracles():
    src = str(ORACLES_PATH.parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, fairthresh; "
        "print(sorted(m for m in sys.modules if m.startswith('fairthresh.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip())
    assert "fairthresh.oracles" not in loaded
    assert "fairthresh.cli" not in loaded
    assert "fairthresh.discrete" in loaded
