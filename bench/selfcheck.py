"""Smoke run of every benchmark workload at a tenth of its input size.

The file name keeps it out of a plain ``pytest`` run from the repository
root, so tier-1 timings stay comparable. Run it explicitly:

    python3 -m pytest -q bench/selfcheck.py

One more test records a known defect of the program that posthoc-sweep's
budget grid steps around, as a strict expected failure: it turns into a
failure once the defect is fixed.

oracle-audit has no size knob (oracle-check is fixed-size), so the whole
check takes a minute or two.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# End-to-end metrics each workload prints besides the gated ones.
WORKLOAD_METRICS = {
    "cli-fit": ("fit_ms.fuds", "fit_ms.fcsc", "fit_ms.fpir", "frontier_ms"),
    "posthoc-sweep": ("budgets_per_s",),
    "oracle-audit": ("oracle_check_s", "closed_frontier_ms"),
}
PRINTED_BY_ALL = ("setup_s", "pass_s", "peak_rss_mb", "setup_wall_s", "pass_wall_s",
                  "kernel_ms", "fail_rate")
METRIC_LINE = re.compile(r"metric (\S+) = (\S+) (\S+)$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    printed = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            printed[match[1]] = (float(match[2]), match[3])
    return proc, printed


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_METRICS)


@pytest.mark.parametrize("workload", list(WORKLOAD_METRICS))
def test_untraced_run_prints_every_metric(workload):
    proc, printed = _run(workload, trace=0)
    result = _result(proc)
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == gated
    for name in PRINTED_BY_ALL + WORKLOAD_METRICS[workload]:
        assert name in printed, f"{name} not printed"
    for name, unit in gated.items():
        assert printed[name] == (result["metrics"][name]["value"], unit)
        assert result["metrics"][name]["value"] > 0
    assert printed["fail_rate"][0] == 0.0, proc.stdout
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", list(WORKLOAD_METRICS))
def test_traced_run_prints_every_layer_metric(workload):
    proc, printed = _run(workload, trace=1)
    result = _result(proc)
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == layer
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["solver.evaluations"]["value"] > 0
    assert set(layer) <= set(printed)


def test_traced_counts_repeat_on_the_same_seed():
    counts = []
    for _ in range(2):
        proc, _ = _run("posthoc-sweep", trace=1)
        metrics = _result(proc)["metrics"]
        counts.append({name: metrics[name]["value"] for name in
                       ("solver.solves", "solver.evaluations", "estimators.predict_proba.calls")})
    assert counts[0] == counts[1]


@pytest.mark.xfail(strict=True, reason="known defect: at delta = 0 the bisected fpir "
                   "threshold lands one row past zero, so |D| > delta; posthoc-sweep's "
                   "grid leaves 0 out for this reason")
def test_fpir_meets_a_zero_budget():
    sys.path.insert(0, str(ROOT / "src"))
    from fairthresh import core, estimators, fair_algorithms, gaussian

    train = gaussian.sample(gaussian.default_model(), 5_000, 3)
    prefit = estimators.fit_group_models(train, estimators.MODE_AWARE)
    config = fair_algorithms.FairFitConfig(kind=core.DisparityKind("dd"), delta=0.0, seed=3)
    _, _, report = fair_algorithms.run_fpir(train, config, model=prefit)
    assert abs(report["disparity_at_t_hat"]) <= 0.0


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _run("oracle-audit", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
