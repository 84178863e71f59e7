"""Command-line front end tests.

CSV ingestion and validation, the four commands end to end on small
deterministic inputs, byte-level reproducibility, the consistency suites
with an injected formula fault, and a fuzz test of malformed inputs.
"""
from __future__ import annotations

import copy
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairthresh.cli
import fairthresh.core
import fairthresh.fair_algorithms
from fairthresh.cli import (
    ExperimentSpec,
    IngestError,
    cmd_fit,
    cmd_frontier,
    cmd_oracle_check,
    cmd_synthetic,
    ingest_csv,
    main,
    _check_grid_suite,
)
from fairthresh.core import BlindKind, DisparityKind
from fairthresh.estimators import fit_group_models
from fairthresh.fair_algorithms import evaluate, run_fpir
from fairthresh.gaussian import (
    default_model,
    disparity_curve_closed,
    risk_closed,
    sample,
    save_model,
    theoretical_fair_classifier,
)
from fairthresh.solver import trace_pareto


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, model):
    """Fixture files: a tiny CSV, two Gaussian CSVs, and a saved model."""
    root = tmp_path_factory.mktemp("cli-data")
    write_rows(
        root / "tiny.csv",
        ["x0", "x1", "x2", "y", "a"],
        [
            [0.5, 1.25, -0.75, 1, 1],
            [-0.25, 0.0, 2.0, 0, 0],
            [1.5, -1.0, 0.25, 1, 0],
        ],
    )
    for n, name in ((2000, "g2000.csv"), (6000, "g6000.csv")):
        ds = sample(model, n, seed=314)
        rows = [
            [repr(float(ds.x[i, 0])), repr(float(ds.x[i, 1])), int(ds.y[i]), int(ds.a[i])]
            for i in range(n)
        ]
        write_rows(root / name, ["x0", "x1", "y", "a"], rows)
    save_model(model, root / "model.json")
    return root


class TestIngestCsv:
    def test_tiny_fixture_shape(self, data_dir):
        ds = ingest_csv(data_dir / "tiny.csv", "y", "a")
        assert len(ds) == 3
        assert ds.dim == 3  # five columns minus label and protected
        assert ds.x[0].tolist() == [0.5, 1.25, -0.75]
        assert ds.a.tolist() == [1, 0, 0]
        assert ds.y.tolist() == [1, 0, 1]

    def test_label_and_protected_can_sit_anywhere(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_rows(path, ["y", "f1", "a", "f2"], [[1, 0.5, 0, 2.5], [0, 1.5, 1, 3.5]])
        ds = ingest_csv(path, "y", "a")
        assert ds.x.tolist() == [[0.5, 2.5], [1.5, 3.5]]

    def test_round_trip_is_exact(self, data_dir, model):
        ds = sample(model, 500, seed=99)
        path = data_dir / "roundtrip.csv"
        write_rows(
            path,
            ["x0", "x1", "y", "a"],
            [
                [repr(float(ds.x[i, 0])), repr(float(ds.x[i, 1])), int(ds.y[i]), int(ds.a[i])]
                for i in range(500)
            ],
        )
        back = ingest_csv(path, "y", "a")
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.y, ds.y)

    def test_nonbinary_label_names_the_line(self, tmp_path):
        path = tmp_path / "bad_label.csv"
        write_rows(path, ["x0", "y", "a"], [[0.5, 1, 0], [0.25, 2, 1]])
        with pytest.raises(IngestError, match=r"line 3.*'y'.*not binary"):
            ingest_csv(path, "y", "a")

    def test_nonbinary_protected_names_the_line(self, tmp_path):
        path = tmp_path / "bad_group.csv"
        write_rows(path, ["x0", "y", "a"], [[0.5, 1, 2]])
        with pytest.raises(IngestError, match=r"line 2.*'a'.*not binary"):
            ingest_csv(path, "y", "a")

    def test_non_numeric_features_list_lines(self, tmp_path):
        path = tmp_path / "bad_feats.csv"
        write_rows(
            path,
            ["x0", "x1", "y", "a"],
            [[0.5, 1.0, 1, 0], ["oops", 1.0, 0, 1], [0.5, "inf", 1, 0], [0.25, 2.0, 0, 1]],
        )
        with pytest.raises(IngestError, match=r"lines 3, 4"):
            ingest_csv(path, "y", "a")

    def test_missing_column(self, data_dir):
        with pytest.raises(IngestError, match="missing column 'label'"):
            ingest_csv(data_dir / "tiny.csv", "label", "a")

    def test_empty_and_headerless_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(IngestError, match="empty file"):
            ingest_csv(empty, "y", "a")
        header_only = tmp_path / "header.csv"
        header_only.write_text("x0,y,a\n")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(header_only, "y", "a")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            ingest_csv(tmp_path / "nope.csv", "y", "a")

    def test_structural_rejections(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x0,y,y,a\n0.5,1,1,0\n")
        with pytest.raises(IngestError, match="duplicate column"):
            ingest_csv(path, "y", "a")
        with pytest.raises(IngestError, match="must differ"):
            ingest_csv(path, "y", "y")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("x0,y,a\n0.5,1,0\n0.5,1\n")
        with pytest.raises(IngestError, match="line 3: expected 3 fields"):
            ingest_csv(ragged, "y", "a")
        no_feats = tmp_path / "nofeat.csv"
        no_feats.write_text("y,a\n1,0\n")
        with pytest.raises(IngestError, match="no feature columns"):
            ingest_csv(no_feats, "y", "a")

    def test_non_utf8_bytes_are_an_ingest_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"x0,y,a\n0.5,1,0\n0.\xff5,0,1\n")
        with pytest.raises(IngestError, match="not UTF-8 text"):
            ingest_csv(path, "y", "a")

    def test_oversized_field_is_an_ingest_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x0,y,a\n0.5,1,0\n" + "1" * 131_073 + ",0,1\n")
        with pytest.raises(IngestError, match="line 3: malformed CSV.*field limit"):
            ingest_csv(path, "y", "a")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("x0,y,a\n0.5,1,0\n\n ,,\n0.25,0,1\n")
        ds = ingest_csv(path, "y", "a")
        assert len(ds) == 2


class TestExperimentSpec:
    def test_kind_resolution(self):
        spec = ExperimentSpec(command="fit", kind_name="do")
        assert spec.kind is DisparityKind.DO
        blind = ExperimentSpec(command="fit", kind_name="do", blind=True)
        assert blind.kind is BlindKind.DO_X

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(command="train"), "command"),
            (dict(command="fit", method="svm"), "method"),
            (dict(command="fit", kind_name="eo"), "disparity"),
            (dict(command="fit", delta=-0.1), "delta"),
            (dict(command="fit", split=0.0), "split"),
            (dict(command="fit", split=1.0), "split"),
            (dict(command="fit", tol=0.0), "tol"),
            (dict(command="fit", seed=-1), "seed"),
            (dict(command="fit", delta=float("nan")), "delta"),
            (dict(command="frontier", delta_grid=(0.2, 0.1)), "sorted"),
            (dict(command="frontier", delta_grid=()), "nonempty"),
            (dict(command="frontier", delta_grid=(-0.1,)), "nonnegative"),
        ],
    )
    def test_rejections(self, kwargs, message):
        with pytest.raises(IngestError, match=message):
            ExperimentSpec(**kwargs)


class TestCmdFit:
    def test_slack_budget_keeps_half_thresholds(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_dir / "g2000.csv"),
                "--method",
                "fpir",
                "--disparity",
                "do",
                "--delta",
                "0.95",
                "--tol",
                "0.00024",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["run"]["thresholds"] == {"group0": 0.5, "group1": 0.5}
        assert doc["t_hat"] == 0.0
        assert doc["n_train"] == 1400
        assert doc["n_test"] == 600

    def test_identical_invocations_identical_bytes(self, data_dir, tmp_path):
        args = [
            "fit",
            "--data",
            str(data_dir / "g2000.csv"),
            "--method",
            "fcsc",
            "--disparity",
            "dd",
            "--delta",
            "0.1",
            "--tol",
            "0.001",
            "--seed",
            "4",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_budget_bound_on_gaussian_csv(self, data_dir, tmp_path, model):
        out = tmp_path / "fuds.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_dir / "g6000.csv"),
                "--method",
                "fuds",
                "--disparity",
                "dd",
                "--delta",
                "0.1",
                "--tol",
                "0.00024",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # the report's achieved training disparity binds the budget from
        # inside; the held-out figure carries sampling noise on 1800 rows
        assert abs(doc["run"]["disparity_at_t_hat"] - 0.1) <= 0.03
        assert abs(doc["test_metrics"]["dd"] - 0.1) <= 0.05
        theory = 1.0 - risk_closed(model, DisparityKind.DD, 0.11707763632849122)
        assert doc["test_metrics"]["accuracy"] >= theory - 0.015

    def test_blind_fit_reports_blind_mode(self, data_dir, tmp_path):
        out = tmp_path / "blind.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_dir / "g6000.csv"),
                "--method",
                "fcsc",
                "--disparity",
                "dd",
                "--blind",
                "--delta",
                "0.0",
                "--tol",
                "0.00024",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["blind"] is True
        assert doc["run"]["mode"] == "blind"
        assert abs(doc["test_metrics"]["dd"]) <= 0.05

    @pytest.mark.parametrize("method", ["fcsc", "fuds"])
    def test_separable_rows_meet_a_zero_budget_at_the_plain_fit(self, tmp_path, method):
        # The label is a threshold of x0, so the plain blind fit accepts
        # exactly the label-1 rows: both true-positive rates are 1 and the
        # train DO gap is exactly 0 at t = 0.
        rng = np.random.default_rng(0)
        a, y = rng.integers(0, 2, size=(2, 200))
        x = 4.0 * y - 2.0 + rng.normal(0.0, 0.3, 200)
        path = tmp_path / "separable.csv"
        write_rows(path, ["x0", "y", "a"], [[repr(float(v)), *cells] for v, *cells in zip(x, y, a)])
        out = tmp_path / "separable.json"
        argv = ["fit", "--data", str(path), "--method", method, "--disparity", "do", "--blind",
                "--delta", "0", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["t_hat"] == 0.0
        assert doc["run"]["disparity_at_t_hat"] == 0.0

    def test_model_source_samples_study_sizes(self, data_dir, tmp_path):
        out = tmp_path / "model_fit.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_dir / "model.json"),
                "--method",
                "fpir",
                "--disparity",
                "dd",
                "--delta",
                "0.2",
                "--tol",
                "0.001",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["source"] == "model"
        assert doc["n_train"] == 10_000
        assert doc["n_test"] == 5_000
        assert abs(doc["test_metrics"]["dd"] - 0.2) <= 0.05

    def test_stdout_report_when_no_out(self, data_dir, capsys):
        code = main(
            [
                "fit",
                "--data",
                str(data_dir / "g2000.csv"),
                "--method",
                "fpir",
                "--disparity",
                "dd",
                "--delta",
                "0.9",
                "--tol",
                "0.001",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "fit"

    def test_env_seed_default_and_override(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("FAIRTHRESH_SEED", "5")
        out = tmp_path / "env.json"
        base = [
            "fit",
            "--data",
            str(data_dir / "g2000.csv"),
            "--method",
            "fpir",
            "--disparity",
            "dd",
            "--delta",
            "0.9",
            "--tol",
            "0.001",
            "--out",
            str(out),
        ]
        assert main(base) == 0
        assert json.loads(out.read_text())["seed"] == 5
        assert main(base + ["--seed", "9"]) == 0
        assert json.loads(out.read_text())["seed"] == 9
        monkeypatch.setenv("FAIRTHRESH_SEED", "not-a-number")
        assert main(base) == 1

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        code = main(
            ["fit", "--data", str(tmp_path / "missing.csv"), "--delta", "0.1"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        code = main(
            ["fit", "--data", str(tmp_path / "missing.csv"), "--split", "1.5"]
        )
        assert code == 1
        assert "split" in capsys.readouterr().err


class TestCmdFrontier:
    def test_twenty_point_closed_frontier(self, data_dir, tmp_path):
        grid = np.round(np.linspace(0.0, 0.38, 20), 4)
        out = tmp_path / "frontier.csv"
        code = main(
            [
                "frontier",
                "--data",
                str(data_dir / "model.json"),
                "--disparity",
                "dd",
                "--delta-grid",
                ",".join(str(g) for g in grid),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        raw = out.read_bytes()
        assert raw.count(b"\r\n") == 21  # header + 20 rows, CRLF line ends
        rows = read_rows(out)
        assert rows[0] == ["delta", "t", "accuracy", "dd", "do", "pd"]
        assert len(rows) == 21
        accuracies = [float(r[2]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(accuracies, accuracies[1:]))

    def test_closed_rows_equal_frontier_trace(self, data_dir, tmp_path, model):
        deltas = [0.0, 0.05, 0.1, 0.2]
        out = tmp_path / "match.csv"
        assert (
            main(
                [
                    "frontier",
                    "--data",
                    str(data_dir / "model.json"),
                    "--disparity",
                    "do",
                    "--delta-grid",
                    ",".join(str(d) for d in deltas),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        curve = disparity_curve_closed(model, DisparityKind.DO)
        expected = trace_pareto(
            curve, lambda t: risk_closed(model, DisparityKind.DO, t), deltas
        )
        rows = read_rows(out)[1:]
        for row, ref in zip(rows, expected):
            assert float(row[0]) == ref.delta
            assert float(row[1]) == ref.t
            assert float(row[2]) == 1.0 - ref.risk
            assert float(row[4]) == ref.disparity  # the do column

    def test_zero_and_baseline_budgets_bracket_the_frontier(self, data_dir, tmp_path, model):
        baseline = disparity_curve_closed(model, DisparityKind.DD)(0.0)
        assert baseline == pytest.approx(0.4826, abs=5e-4)
        out = tmp_path / "bracket.csv"
        assert (
            main(
                [
                    "frontier",
                    "--data",
                    str(data_dir / "model.json"),
                    "--disparity",
                    "dd",
                    "--delta-grid",
                    f"0,{baseline + 0.01}",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = read_rows(out)[1:]
        assert len(rows) == 2
        assert float(rows[0][1]) > 0.0  # binding budget moves the parameter
        assert float(rows[1][1]) == 0.0  # slack budget keeps the plain rule
        assert float(rows[1][2]) >= float(rows[0][2])

    def test_empirical_frontier_on_csv(self, data_dir, tmp_path):
        out = tmp_path / "emp.csv"
        args = [
            "frontier",
            "--data",
            str(data_dir / "g6000.csv"),
            "--method",
            "fpir",
            "--disparity",
            "dd",
            "--delta-grid",
            "0,0.1,0.3",
            "--tol",
            "0.00024",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 3
        accuracies = [float(r[2]) for r in rows]
        assert accuracies[0] <= accuracies[2] + 0.02  # tighter budget costs accuracy
        gaps = [abs(float(r[3])) for r in rows]
        assert gaps[0] < gaps[2]  # looser budget leaves a wider group gap
        out2 = tmp_path / "emp2.csv"
        assert main(args[:-1] + [str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_aware_fpir_frontier_fits_the_group_model_once(
        self, data_dir, tmp_path, monkeypatch
    ):
        grid = "0,0.05,0.1,0.15,0.2,0.25,0.3"
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return fit_group_models(*args, **kwargs)

        for module in (fairthresh.cli, fairthresh.fair_algorithms):
            monkeypatch.setattr(module, "fit_group_models", counting_fit)
        out = tmp_path / "once.csv"
        argv = ["frontier", "--data", str(data_dir / "g2000.csv"), "--method", "fpir",
                "--delta-grid", grid, "--seed", "2", "--out", str(out)]
        assert main(argv) == 0
        assert len(fits) == 1
        # Same rows as letting run_fpir fit its own model at every budget.
        monkeypatch.undo()
        cli = fairthresh.cli
        spec = cli._spec_from_args(cli._build_parser().parse_args(argv))
        train, test, _ = cli._load_source(spec)
        rows = read_rows(out)[1:]
        for index, (delta, row) in enumerate(zip(spec.delta_grid, rows, strict=True)):
            config = cli._pipeline_config(spec, delta, cli._frontier_child_seed(spec.seed, index))
            classifier, t_hat, _ = run_fpir(train, config)
            metrics = evaluate(classifier, test)
            assert row == [str(v) for v in (delta, t_hat, *metrics.values())]

    def test_blind_empirical_frontier_runs(self, data_dir, tmp_path):
        out = tmp_path / "blind.csv"
        code = main(
            [
                "frontier",
                "--data",
                str(data_dir / "g2000.csv"),
                "--method",
                "fpir",
                "--disparity",
                "do",
                "--blind",
                "--delta-grid",
                "0.1",
                "--tol",
                "0.001",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2

    def test_blind_closed_frontier_rejected(self, data_dir, capsys):
        code = main(
            [
                "frontier",
                "--data",
                str(data_dir / "model.json"),
                "--disparity",
                "dd",
                "--blind",
                "--delta-grid",
                "0,0.1",
            ]
        )
        assert code == 1
        assert "group-aware" in capsys.readouterr().err

    def test_unsorted_grid_rejected(self, data_dir, capsys):
        code = main(
            [
                "frontier",
                "--data",
                str(data_dir / "model.json"),
                "--disparity",
                "dd",
                "--delta-grid",
                "0.2,0.1",
            ]
        )
        assert code == 1
        assert "sorted" in capsys.readouterr().err

    def test_malformed_grid_is_a_usage_error(self, data_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "frontier",
                    "--data",
                    str(data_dir / "model.json"),
                    "--delta-grid",
                    "0,zebra",
                ]
            )


class TestCmdSynthetic:
    def test_desk_scale_study(self, tmp_path, model):
        out = tmp_path / "study.json"
        code = main(
            ["synthetic", "--tol", "0.001", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        rows = doc["rows"]
        assert len(rows) == 36  # 3 methods x 3 measures x 4 budgets
        combos = {(r["method"], r["disparity"], r["delta"]) for r in rows}
        assert len(combos) == 36
        deviations = [abs(r["achieved"] - r["delta"]) for r in rows]
        # single-sample study: each row within 3 standard errors, the
        # column as a whole at the reported-noise scale
        assert max(deviations) <= 0.05
        assert sum(deviations) / len(deviations) <= 0.03
        for r in rows:
            assert r["accuracy"] >= r["theory_accuracy"] - 0.015
        for r in rows[:3]:
            rule = theoretical_fair_classifier(
                model, DisparityKind(r["disparity"]), r["delta"]
            )
            assert r["theory_accuracy"] == 1.0 - rule.risk
            assert r["theory_t"] == rule.t_star

    def test_blind_flag_rejected(self):
        # the subcommand takes no --blind flag; the guard covers direct calls
        with pytest.raises(IngestError, match="group-aware"):
            cmd_synthetic(
                ExperimentSpec(command="synthetic", blind=True, kind_name="dd")
            )


class TestCmdOracleCheck:
    def test_healthy_build_passes_all_suites(self, capsys):
        code = cmd_oracle_check(ExperimentSpec(command="oracle-check", seed=0))
        out = capsys.readouterr().out
        assert code == 0
        assert "all suites passed" in out
        assert "FAIL" not in out
        risk_gap = float(re.search(r"worst risk gap (\S+),", out).group(1))
        t_diff = float(re.search(r"worst \|t difference\| (\S+)", out).group(1))
        eq_gap = float(re.search(r"worst risk gap (\S+)\n", out).group(1))
        assert risk_gap <= 1e-9
        assert t_diff <= 1e-4
        assert eq_gap <= 1e-4
        assert re.search(r"discrete: 1800 checks", out)
        assert re.search(r"bisect-grid: 30 curves", out)

    def test_perturbed_threshold_formula_fails_named(self, monkeypatch):
        true_threshold = fairthresh.core.threshold

        def skewed(kind, stats, a, t):
            return min(1.0, max(0.0, true_threshold(kind, stats, a, t) + 0.01 * t))

        monkeypatch.setattr(fairthresh.core, "threshold", skewed)
        failures: list[str] = []
        _check_grid_suite(failures)
        assert failures
        assert re.search(r"model seed \d+ kind=\w+ delta=", failures[0])


_MODEL_COMMANDS = (["fit"], ["frontier", "--delta-grid", "0,0.1"], ["synthetic"])


class TestMainDispatch:
    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["train", "--data", "x.csv"])

    def test_fit_spec_roundtrip(self, data_dir, tmp_path):
        # cmd_fit is callable directly with a validated ExperimentSpec
        doc = cmd_fit(
            ExperimentSpec(
                command="fit",
                data=str(data_dir / "g2000.csv"),
                method="fpir",
                kind_name="dd",
                delta=0.9,
                tol=1e-3,
                out=str(tmp_path / "direct.json"),
            )
        )
        assert doc["source"] == "csv"
        assert doc["t_hat"] == 0.0

    @staticmethod
    def run_fresh(argv):
        """Run the console-script entry point in a fresh interpreter, so an
        uncaught exception shows up as a traceback on stderr."""
        src = str(Path(fairthresh.core.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        entry = "import sys; from fairthresh.cli import main; sys.exit(main(sys.argv[1:]))"
        return subprocess.run(
            [sys.executable, "-c", entry, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )

    @pytest.mark.parametrize(
        "argv", [["fit"], ["frontier", "--delta-grid", "0,0.1"], ["synthetic"]]
    )
    def test_truncated_model_file_is_one_error_line(self, data_dir, tmp_path, argv):
        truncated = tmp_path / "truncated.json"
        truncated.write_text((data_dir / "model.json").read_text()[:40])
        proc = self.run_fresh([argv[0], "--data", str(truncated), *argv[1:]])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: malformed model document")

    @pytest.mark.parametrize("field", ["sigma", "seed"])
    @pytest.mark.parametrize("command", ["fit", "synthetic"])
    def test_non_numeric_model_value_is_one_error_line(self, data_dir, tmp_path, command, field):
        doc = json.loads((data_dir / "model.json").read_text())
        doc[field] = "abc"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = self.run_fresh([command, "--data", str(bad)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: malformed model document: bad value")

    @staticmethod
    def write_model_with(data_dir, tmp_path, field, literal):
        """The saved model with one field's value replaced by a raw JSON literal."""
        doc = json.loads((data_dir / "model.json").read_text())
        doc[field] = "@@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@@"', literal))
        return bad

    @staticmethod
    def run_in_process(argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue().splitlines()

    @pytest.mark.parametrize("argv", _MODEL_COMMANDS)
    def test_seed_beyond_int_range_is_one_error_line(self, data_dir, tmp_path, argv):
        # JSON 1e400 decodes to inf, which int() cannot take
        bad = self.write_model_with(data_dir, tmp_path, "seed", "1e400")
        code, lines = self.run_in_process([argv[0], "--data", str(bad), *argv[1:]])
        assert code == 1
        assert lines == ["error: malformed model document: bad value "
                         "(cannot convert float infinity to integer)"]

    @pytest.mark.parametrize("argv", _MODEL_COMMANDS)
    def test_sigma_beyond_float_range_is_one_error_line(self, data_dir, tmp_path, argv):
        bad = self.write_model_with(data_dir, tmp_path, "sigma", "9" * 401)
        code, lines = self.run_in_process([argv[0], "--data", str(bad), *argv[1:]])
        assert code == 1
        assert lines == ["error: malformed model document: bad value "
                         "(int too large to convert to float)"]

    @pytest.mark.parametrize("argv", _MODEL_COMMANDS)
    def test_deeply_nested_model_file_is_one_error_line(self, tmp_path, argv):
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000)
        code, lines = self.run_in_process([argv[0], "--data", str(bad), *argv[1:]])
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: malformed model document: maximum recursion depth")

    @pytest.mark.parametrize("value", ["1e154", "-1e200"])
    def test_feature_beyond_magnitude_bound_is_one_error_line(self, tmp_path, value):
        # Squares of such features overflow the learner's standardization.
        rng = np.random.default_rng(5)
        rows = [
            [value if i % 10 == 0 else repr(float(rng.normal())), i % 2, (i // 2) % 2]
            for i in range(200)
        ]
        write_rows(tmp_path / "huge.csv", ["x0", "y", "a"], rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lines = self.run_in_process(["fit", "--data", str(tmp_path / "huge.csv")])
        assert code == 1
        assert lines == ["error: features must be finite and within +-1e+150"]

    def test_module_entry_point_runs_without_runpy_warning(self):
        src = str(Path(fairthresh.core.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fairthresh.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_frontier_requires_grid(self, data_dir):
        with pytest.raises(IngestError, match="delta-grid"):
            cmd_frontier(
                ExperimentSpec(command="frontier", data=str(data_dir / "model.json"))
            )


_DAMAGE = ("single group", "constant feature", "empty cell", "bad cell", "bad byte")
_BAD_CELLS = ("", " ", "nan", "inf", "-inf", "1e999", "-1", "2", "0.5", "abc", '"', "\x00")
_BAD_BYTES = (b"\xff", b"\xc3", b"\n", b",", b'"', b"\x00", b"-")


@st.composite
def fuzzed_csv(draw):
    """Bytes of a small CSV, left intact or damaged in one or two ways."""
    n = draw(st.integers(4, 40))
    # Every (group, label) cell starts nonempty; flipped labels unbalance them.
    a = [i % 2 for i in range(n)]
    y = [(i // 2) % 2 for i in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
        y[i] = 1 - y[i]
    feats = draw(
        st.lists(st.lists(st.floats(-5, 5), min_size=2, max_size=2), min_size=n, max_size=n)
    )
    damage = draw(st.lists(st.sampled_from(_DAMAGE), max_size=2))
    if "single group" in damage:
        a = [a[0]] * n
    if "constant feature" in damage:
        for row in feats:
            row[0] = 1.0
    rows = [[repr(f0), repr(f1), str(yi), str(ai)] for (f0, f1), yi, ai in zip(feats, y, a)]
    if "empty cell" in damage:
        cell = draw(st.sampled_from(["00", "01", "10", "11"]))
        rows = [r for r in rows if r[3] + r[2] != cell] or rows[:1]
    if "bad cell" in damage:
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        rows[row][col] = draw(st.sampled_from(_BAD_CELLS))
    data = bytearray(("x0,x1,y,a\n" + "".join(",".join(r) + "\n" for r in rows)).encode())
    if "bad byte" in damage:
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from(_BAD_BYTES))
    return bytes(data)


_MODEL_PATHS = (
    (), ("p",), ("p", "11"), ("p", "00"), ("mu",), ("mu", "10"), ("mu", "01", 0),
    ("sigma",), ("seed",),
)
_BAD_VALUES = (
    "abc", "", [], [0.5], {}, True, False, None, math.nan, math.inf, -math.inf,
    1e308, -1.0, 0, 10**400, 1e-300,
)


@st.composite
def fuzzed_model_json(draw):
    """Text of the saved default model, left intact or damaged in one or two ways."""
    doc = default_model().to_dict()
    for action in draw(st.lists(st.sampled_from(("drop", "swap")), max_size=2)):
        path = draw(st.sampled_from(_MODEL_PATHS[1:] if action == "drop" else _MODEL_PATHS))
        value = None if action == "drop" else copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
        if not path:
            doc = value
            continue
        try:
            parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
            if action == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed the path
    text = json.dumps(doc, indent=2, sort_keys=True)
    # One in four examples nests the document, one in four truncates it.
    depth = draw(st.sampled_from((0, 0, 3, 100_000)))
    text = "[" * depth + text + "]" * depth
    if draw(st.sampled_from((False, False, False, True))):
        text = text[: draw(st.integers(0, len(text)))]
    return text


_GOOD_FLAGS = {
    "--delta": ("0", "0.1", "0.3"),
    "--delta-grid": ("0,0.1", "0.2"),
    "--tol": ("0.001", "0.01"),
    "--split": ("0.7", "0.5"),
    "--seed": ("0", "3"),
}
_BAD_FLAGS = (
    ("--delta", "nan"), ("--delta", "-1"), ("--delta", "inf"),
    ("--delta-grid", "nan"), ("--delta-grid", "-1,0.1"), ("--delta-grid", "0.2,0.1"),
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
    ("--split", "nan"), ("--split", "-0.5"), ("--split", "1.5"),
    ("--seed", "-1"),
)


class TestCliBoundaryFuzz:
    """main on damaged CSVs and flag values: exit 0, or exit 1 with one error line."""

    @given(
        data=fuzzed_csv(),
        command=st.sampled_from(["fit", "frontier"]),
        method=st.sampled_from(["fuds", "fcsc", "fpir"]),
        disparity=st.sampled_from(["dd", "do", "pd"]),
        blind=st.booleans(),
        flags=st.fixed_dictionaries(
            {flag: st.sampled_from(values) for flag, values in _GOOD_FLAGS.items()}
        ),
        # Two of three examples keep valid flags, so most reach the data.
        bad_flag=st.one_of(st.none(), st.none(), st.sampled_from(_BAD_FLAGS)),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_code_and_one_error_line(
        self, data, command, method, disparity, blind, flags, bad_flag
    ):
        if bad_flag is not None:
            flags = {**flags, bad_flag[0]: bad_flag[1]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(data)
            argv = [command, "--data", str(path), "--method", method, "--disparity", disparity,
                    "--out", str(Path(tmp) / "out")]
            budget = "--delta" if command == "fit" else "--delta-grid"
            # "--flag=value", so that argparse reads "-1,0.1" as a value
            argv += [f"{flag}={flags[flag]}" for flag in (budget, "--tol", "--split", "--seed")]
            if blind:
                argv.append("--blind")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @given(
        text=fuzzed_model_json(),
        argv=st.sampled_from([
            ["fit", "--method", "fpir"],
            ["fit", "--method", "fpir", "--blind"],
            ["frontier", "--delta-grid", "0,0.1,0.2"],
        ]),
        disparity=st.sampled_from(["dd", "do", "pd"]),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_model_file_exit_code_and_one_error_line(self, text, argv, disparity):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.json"
            path.write_text(text)
            argv = [argv[0], "--data", str(path), "--disparity", disparity, *argv[1:],
                    "--out", str(Path(tmp) / "out")]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
