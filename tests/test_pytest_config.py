"""The suite's own pytest settings: a failing test is reported, never an abort.

pyproject.toml turns DeprecationWarnings into errors. When a hypothesis test
fails, hypothesis's report hook imports a third-party module that warns, and
under that filter the hook raised: pytest printed INTERNALERROR and exited 3
after the first failure, so no later test ran.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 5


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_failing_property_test_fails_the_run(tmp_path):
    # Run in a scratch directory, so the .hypothesis/ that a failing property
    # writes lands there.
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_FILE)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout[-2000:]
    lines = proc.stdout.splitlines()
    for name in ("test_property_fails", "test_plain_fails"):
        assert any(line.startswith(f"FAILED {path.name}::{name}") for line in lines)
    assert "2 failed, 1 passed" in lines[-1]
