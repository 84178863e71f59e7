"""Command-line front end tests.

CSV ingestion and validation, the four commands end to end on small
deterministic inputs, byte-level reproducibility, the consistency suites
with an injected formula fault, and a fuzz test of malformed inputs.
"""
from __future__ import annotations

import copy
import csv
import dataclasses
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
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairthresh.cli
import fairthresh.core
import fairthresh.extensions
import fairthresh.fair_algorithms
import fairthresh.oracles
from fairthresh.cli import (
    ExperimentSpec,
    IngestError,
    cmd_fit,
    cmd_frontier,
    cmd_oracle_check,
    cmd_synthetic,
    ingest_csv,
    main,
)
from fairthresh.core import BlindKind, DisparityKind, GroupStats, threshold
from fairthresh.discrete import RandomizedClassifier
from fairthresh.estimators import FitError, LabeledDataset, fit_group_models
from fairthresh.extensions import eqodds_risk, solve_eqodds
from fairthresh.fair_algorithms import evaluate, run_fpir
from fairthresh.gaussian import (
    default_model,
    disparity_curve_closed,
    risk_closed,
    sample,
    save_model,
    theoretical_fair_classifier,
)
from fairthresh.oracles import _eqodds_grid_oracle, check_discrete_suite, check_grid_suite
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

    def test_finite_oversized_field_is_an_ingest_error(self, tmp_path):
        # Zero padding keeps the value finite and parsable, so only the csv
        # module's field size limit, read at call time, rejects the line.
        limit = csv.field_size_limit()
        cell = "0." + "0" * (limit + 8) + "1"
        path = tmp_path / "padded.csv"
        path.write_text("x0,y,a\n0.5,1,0\n" + cell + ",0,1\n")
        message = f"line 3: malformed CSV (field larger than field limit ({limit}))"
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest_csv(path, "y", "a")
        assert_ingest_matches_reference(path)
        short = tmp_path / "short.csv"
        short.write_text("x0,y,a\n0.5,1,0\n0.00000001,0,1\n")
        csv.field_size_limit(8)
        try:
            with pytest.raises(IngestError, match=re.escape("line 3: malformed CSV")):
                ingest_csv(short, "y", "a")
        finally:
            csv.field_size_limit(limit)

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,a,x0,x1\n1,0,0.5,1.5\n0,1,-0.25,2.0\n")
        ds = ingest_csv(path, "y", "a")
        assert ds.y.tolist() == [1, 0]
        assert ds.a.tolist() == [0, 1]
        assert ds.x.tolist() == [[0.5, 1.5], [-0.25, 2.0]]

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

    @staticmethod
    def separated_csv(tmp_path):
        """200 rows whose label separates them: blind refits cannot reach a
        zero pd budget on them, and the blind plug-in rule can."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 200)
        y = rng.integers(0, 2, 200)
        x = 3.0 * y + 1.5 * a + rng.normal(size=200)
        path = tmp_path / "separated.csv"
        write_rows(path, ["x", "a", "y"], [[repr(float(v)), *cells] for v, *cells in zip(x, a, y)])
        return path

    def test_blind_fpir_meets_a_zero_budget_that_blind_refits_miss(self, tmp_path):
        out = tmp_path / "separated.json"
        argv = ["fit", "--data", str(self.separated_csv(tmp_path)), "--method", "fpir",
                "--disparity", "pd", "--blind", "--delta", "0", "--out", str(out)]
        assert main(argv) == 0
        assert abs(json.loads(out.read_text())["run"]["disparity_at_t_hat"]) <= 0.0

    @pytest.mark.parametrize(
        "method, ending",
        [
            ("fuds", "the fuds bracket ends where a resampled (group, label) cell would empty, "
                     "and a blind refit thresholds one logistic score at 1/2, so here it "
                     "cannot reach the budget (try --method fcsc or fpir)"),
            ("fcsc", "a blind refit thresholds one logistic score at 1/2, so here it cannot "
                     "reach the budget (try --method fpir)"),
        ],
        ids=["fuds", "fcsc"],
    )
    def test_blind_refit_says_why_it_misses_a_zero_budget(self, tmp_path, method, ending):
        argv = ["fit", "--data", str(self.separated_csv(tmp_path)), "--method", method,
                "--disparity", "pd", "--blind", "--delta", "0", "--out", str(tmp_path / "o.json")]
        proc = TestMainDispatch.run_fresh(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: D(") and "target unreachable inside bracket" in line
        assert line.endswith(ending)

    @staticmethod
    def assert_fuds_misses_a_zero_budget(tmp_path, model, blind):
        # fuds's clamped bracket stops short of a zero dd budget on these rows;
        # fcsc's and fpir's reach it, blind ones too.
        ds = sample(model, 94, seed=2)
        path = tmp_path / "s94.csv"
        write_rows(path, ["x0", "x1", "y", "a"],
                   [[repr(float(u)), repr(float(v)), y, a] for (u, v), y, a in zip(ds.x, ds.y, ds.a)])
        argv = ["fit", "--data", str(path), "--disparity", "dd", "--delta", "0", "--seed", "2",
                "--out", str(tmp_path / "o.json"), *(["--blind"] if blind else [])]
        proc = TestMainDispatch.run_fresh([*argv, "--method", "fuds"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: D(") and "target unreachable inside bracket" in line
        cause = "the fuds bracket ends where a resampled (group, label) cell would empty"
        if blind:
            cause += ", and a blind refit thresholds one logistic score at 1/2"
        assert line.endswith(f"{cause}, so here it cannot reach the budget (try --method fcsc or fpir)")
        for method in ("fcsc", "fpir"):
            assert main([*argv, "--method", method]) == 0

    def test_fuds_says_why_it_misses_a_zero_budget(self, tmp_path, model):
        self.assert_fuds_misses_a_zero_budget(tmp_path, model, blind=False)

    def test_blind_fuds_names_its_bracket_before_the_blind_score(self, tmp_path, model):
        self.assert_fuds_misses_a_zero_budget(tmp_path, model, blind=True)

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

    @pytest.mark.parametrize("kind", list(DisparityKind))
    def test_every_gap_column_scores_the_rule_on_its_row(self, data_dir, tmp_path, model, kind):
        # The rule on a row accepts group a where eta_a > H_a(t) at the
        # row's t; all three gaps are that rule's, from direct survival rates.
        out = tmp_path / "gaps.csv"
        argv = ["frontier", "--data", str(data_dir / "model.json"), "--disparity", kind.value]
        assert main(argv + ["--delta-grid", "0,0.1,0.2", "--out", str(out)]) == 0
        stats = model.stats
        curve = disparity_curve_closed(model, kind)
        expected = trace_pareto(curve, lambda t: risk_closed(model, kind, t), [0.0, 0.1, 0.2])
        rows = read_rows(out)[1:]
        assert len(rows) == len(expected)
        for row, ref in zip(rows, expected):
            delta, t, accuracy, *gaps = map(float, row)
            assert (delta, t, accuracy) == (ref.delta, ref.t, 1.0 - ref.risk)
            assert gaps[list(DisparityKind).index(kind)] == ref.disparity
            thr = [threshold(kind, stats, a, t) for a in (0, 1)]
            s = {(a, y): model.survival(a, y, thr[a]) for a in (0, 1) for y in (0, 1)}
            rate = [sum(stats.p(a, y) / stats.p_group(a) * s[a, y] for y in (0, 1)) for a in (0, 1)]
            want = [rate[1] - rate[0], s[1, 1] - s[0, 1], s[1, 0] - s[0, 0]]
            assert gaps == pytest.approx(want, abs=1e-12, rel=0)

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
        # The references are the default-tolerance rules, whatever --tol is.
        for r in rows:
            rule = theoretical_fair_classifier(
                model, DisparityKind(r["disparity"]), r["delta"]
            )
            assert r["theory_accuracy"] == 1.0 - rule.risk
            assert r["theory_t"] == rule.t_star
            assert r["theory_disparity"] == rule.disparity

    def test_fpir_fits_the_group_model_once(self, tmp_path, monkeypatch):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return fit_group_models(*args, **kwargs)

        cli = fairthresh.cli
        monkeypatch.setattr(cli, "_METHOD_RUNNERS", {"fpir": run_fpir})
        for module in (cli, fairthresh.fair_algorithms):
            monkeypatch.setattr(module, "fit_group_models", counting_fit)
        spec = ExperimentSpec(
            command="synthetic", seed=4, delta_grid=(0.0, 0.1), out=str(tmp_path / "s.json")
        )
        rows = cmd_synthetic(spec)["rows"]
        assert len(rows) == 6 and len(fits) == 1
        # Same rows as letting run_fpir fit its own model at every budget.
        def refitting_sweep(method, blind, train, test, configs):
            for config in configs:
                classifier, t_hat, report = run_fpir(train, config)
                yield t_hat, report, evaluate(classifier, test)

        monkeypatch.setattr(cli, "_sweep", refitting_sweep)
        assert cmd_synthetic(spec)["rows"] == rows
        assert len(fits) == 7

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
        check_grid_suite(failures)
        assert failures
        assert re.search(r"model seed \d+ kind=\w+ delta=", failures[0])

    def test_perturbed_exact_solver_fails_named(self, monkeypatch):
        # A solver that rejects its boundary atoms instead of randomizing
        # them misses budgets and optima that the oracle reaches.
        true_solve = fairthresh.oracles.solve_randomized

        def unrandomized(dist, kind, delta):
            f = true_solve(dist, kind, delta)
            accept = tuple(Fraction(0) if 0 < a < 1 else a for a in f.accept)
            return RandomizedClassifier(accept=accept, t_star=f.t_star)

        monkeypatch.setattr(fairthresh.oracles, "solve_randomized", unrandomized)
        failures: list[str] = []
        summary = check_discrete_suite(0, failures)
        assert summary.startswith("discrete: 1800 checks")
        assert failures
        for line in failures:
            assert re.fullmatch(
                r"discrete instance \d+ kind=\w+ delta=[\d.]+: "
                r"(risk gap|constraint excess) \S+",
                line,
            ), line
        assert any("risk gap" in line for line in failures)
        assert any("constraint excess" in line for line in failures)

    @pytest.mark.parametrize("kind", list(DisparityKind), ids=lambda k: k.value)
    def test_grid_oracle_searches_negative_t(self, model, kind):
        # With the groups swapped every gap starts below zero (D(0) is
        # -0.48, -0.39 and -0.37 for dd, do and pd), so the oracle walks
        # its grid toward negative t, which no suite curve does.
        s = model.stats
        swapped = dataclasses.replace(
            model,
            stats=GroupStats(p11=s.p01, p10=s.p00, p01=s.p11, p00=s.p10),
            mu_11=model.mu_01,
            mu_10=model.mu_00,
            mu_01=model.mu_11,
            mu_00=model.mu_10,
        )
        for delta in (0.0, 0.05, 0.1):
            assert fairthresh.oracles._suite_disparity(swapped, kind, 0.0) < -delta
            t_grid = fairthresh.oracles._grid_threshold_oracle(
                swapped, kind, delta, fairthresh.oracles._GRID_STEP
            )
            t_bisect = theoretical_fair_classifier(swapped, kind, delta, tol=1e-6).t_star
            assert t_grid < 0.0
            assert abs(t_grid - t_bisect) <= fairthresh.oracles._GRID_T_TOL

    def test_eqodds_oracle_agrees_with_the_solver(self, model):
        stats = model.stats
        for delta in fairthresh.oracles._EQODDS_DELTAS:
            solution = solve_eqodds(model, stats, delta)
            solver_risk = eqodds_risk(model, stats, solution.t1, solution.t2)
            grid_risk = _eqodds_grid_oracle(model, stats, delta)
            # A grid point is a feasible rule, so it cannot beat the optimum.
            assert grid_risk >= solver_risk - 1e-9
            assert grid_risk - solver_risk <= 1e-5

    def test_eqodds_oracle_is_independent_of_the_solver_map(self, model, monkeypatch):
        want = _eqodds_grid_oracle(model, model.stats, 0.05)

        def unreachable(*args, **kwargs):
            raise AssertionError("the oracle reached the solver's threshold map")

        for name in ("_group_threshold", "eqodds_group_threshold", "eqodds_disparities",
                     "eqodds_risk"):
            monkeypatch.setattr(fairthresh.extensions, name, unreachable)
        monkeypatch.setattr(fairthresh.oracles, "eqodds_risk", unreachable)
        assert _eqodds_grid_oracle(model, model.stats, 0.05) == want

    def test_perturbed_eqodds_threshold_map_fails_named(self, monkeypatch, capsys):
        # Group 1's threshold moved off the optimal rule: the solver still
        # meets the budget, at a risk the group-threshold grid undercuts.
        true_map = fairthresh.extensions._group_threshold

        def shifted(stats, a, t1, t2):
            thr = true_map(stats, a, t1, t2)
            return min(1.0, max(0.0, thr + 0.03)) if a == 1 else thr

        monkeypatch.setattr(fairthresh.extensions, "_group_threshold", shifted)
        code = cmd_oracle_check(ExperimentSpec(command="oracle-check", seed=0))
        out = capsys.readouterr().out
        assert code == 1
        assert re.search(r"^FAIL eqodds delta=[\d.]+: risk gap \S+ versus grid$", out, re.M)


_MODEL_COMMANDS = (["fit"], ["frontier", "--delta-grid", "0,0.1"], ["synthetic"])


class TestMainDispatch:
    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["train", "--data", "x.csv"])

    def test_oracle_check_takes_no_tol(self, capsys):
        # oracle-check solves exactly and never bisects, so it has no
        # tolerance to take.
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--tol", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

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

    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize("body", ["", "\n\n\n"], ids=["header-only", "empty-lines"])
    def test_csv_without_data_rows_is_one_error_line(self, tmp_path, body, action):
        # numpy warns "input contained no data" on an empty body; the warning
        # must neither escape nor turn into a traceback.
        path = tmp_path / "norows.csv"
        path.write_text("x0,x1,y,a\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code, lines = self.run_in_process(["fit", "--data", str(path)])
        assert code == 1
        assert lines == [f"error: {path}: no data rows"]
        assert caught == []

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


_DAMAGE = (
    "single group", "constant feature", "empty cell", "bad cell", "bad byte",
    "short row", "long row", "blank row",
)
_BAD_CELLS = (
    "", " ", "nan", "inf", "-inf", "1e999", "-1", "2", "0.5", "abc", '"', "\x00",
    "1e154", "-1e200", "1e150",
)
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
    if "short row" in damage:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        del row[draw(st.integers(0, len(row) - 1))]
    if "long row" in damage:
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(st.sampled_from(("0", "1", ""))))
    if "blank row" in damage:
        blank = draw(st.sampled_from(([""], ["  "], ["", "", "", ""])))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    data = bytearray(("x0,x1,y,a\n" + "".join(",".join(r) + "\n" for r in rows)).encode())
    if "bad byte" in damage:
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from(_BAD_BYTES))
    return bytes(data)


def _reference_binary(raw, column, what, lineno, path):
    try:
        parsed = float(raw.strip())
    except ValueError:
        raise IngestError(
            f"{path} line {lineno}: {what} column {column!r} has non-numeric value {raw!r}"
        ) from None
    if parsed not in (0.0, 1.0):
        raise IngestError(
            f"{path} line {lineno}: {what} column {column!r} value {raw!r} is not binary"
        )
    return int(parsed)


def _reference_ingest(path, label_col, protected_col):
    """The independent reference for ingest_csv: one csv.reader over the whole file.

    It validates each row before it reads the next, so its first error is the
    first bad record in file order by construction. It opens the file as plain
    UTF-8, so it keeps a byte-order mark in the first header name.
    """
    path_str = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _reference_read_rows(reader, path_str, label_col, protected_col)
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path_str}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise IngestError(f"{path_str} line {reader.line_num}: malformed CSV ({exc})") from None


def _reference_read_rows(reader, path_str, label_col, protected_col):
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise IngestError(f"{path_str}: empty file (no header row)") from None
    for col in (label_col, protected_col):
        if header.count(col) == 0:
            raise IngestError(f"{path_str}: missing column {col!r} (header: {header})")
        if header.count(col) > 1:
            raise IngestError(f"{path_str}: duplicate column {col!r}")
    label_ix = header.index(label_col)
    group_ix = header.index(protected_col)
    feature_ix = [i for i in range(len(header)) if i not in (label_ix, group_ix)]
    if not feature_ix:
        raise IngestError(f"{path_str}: no feature columns besides label and protected")

    features, groups, labels, bad_lines = [], [], [], []
    start = reader.line_num + 1
    for row in reader:
        # Errors name the physical line where the record starts.
        lineno, start = start, reader.line_num + 1
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise IngestError(
                f"{path_str} line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        label = _reference_binary(row[label_ix], label_col, "label", lineno, path_str)
        group = _reference_binary(row[group_ix], protected_col, "protected", lineno, path_str)
        row_feats = []
        for i in feature_ix:
            try:
                v = float(row[i].strip())
            except ValueError:
                v = math.nan
            row_feats.append(v)
        if not all(math.isfinite(v) for v in row_feats):
            bad_lines.append(lineno)
            continue
        features.append(row_feats)
        groups.append(group)
        labels.append(label)
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        more = "" if len(bad_lines) <= 20 else f" (+{len(bad_lines) - 20} more)"
        raise IngestError(
            f"{path_str}: non-numeric or non-finite feature values on lines {shown}{more}"
        )
    if not labels:
        raise IngestError(f"{path_str}: no data rows")
    return LabeledDataset(
        x=np.asarray(features, dtype=float),
        a=np.asarray(groups, dtype=int),
        y=np.asarray(labels, dtype=int),
    )


def _ingest_outcome(ingest, path):
    """The dataset an ingest returns, or the (type name, text) of its error."""
    try:
        return ingest(path, "y", "a")
    except (IngestError, FitError) as exc:
        return type(exc).__name__, str(exc)


def _chunked_ingest(path, label_col, protected_col):
    """ingest_csv with every chunk left to the row parser."""
    with mock.patch.object(fairthresh.cli, "_plain_block", lambda *args: None):
        return ingest_csv(path, label_col, protected_col)


@contextmanager
def plain_chunks_taken():
    """A list that records, for each chunk the numpy pass sees, whether it took it."""
    taken = []
    real = fairthresh.cli._plain_block

    def plain_block(*args):
        block = real(*args)
        taken.append(block is not None)
        return block

    with mock.patch.object(fairthresh.cli, "_plain_block", plain_block):
        yield taken


def assert_ingest_matches_reference(path, ingest=ingest_csv):
    got, want = _ingest_outcome(ingest, path), _ingest_outcome(_reference_ingest, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for name in ("x", "a", "y", "weight"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), name
        assert mine.tobytes() == theirs.tobytes(), name
    assert got.x.flags.c_contiguous


def write_feature_rows(path, rows, header="x0,x1,y,a"):
    """A CSV of the header and the given rows, each one line of text."""
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    return path


def good_rows(n, start=0):
    return [f"{0.25 * i},{-0.5 * i},{(i // 2) % 2},{i % 2}" for i in range(start, start + n)]


def _spelled_file(*rows, newline="\n", final_newline=True):
    text = newline.join(("x0,x1,y,a", *rows))
    return text + newline if final_newline else text


def _quoted(rows):
    return [",".join(f'"{cell}"' for cell in row.split(",")) for row in rows]


# Valid CSVs (text, whether the numpy pass takes them) that float and the
# csv module read in ways a plain numeric tokenizer may not.
_SPELLED_FILES = {
    "crlf": (_spelled_file("0.5,1.5,1,0", "-0.25,2,0,1", newline="\r\n"), True),
    "no-final-newline": (_spelled_file("0.5,1.5,1,0", "-0.25,2,0,1", final_newline=False), True),
    "space-and-tab-padding": (_spelled_file(" 0.5 , 1.5,1 , 0 ", "\t-0.25\t,2,\t0\t,1"), True),
    "nbsp-vt-ff-padding": (
        _spelled_file("\xa00.5\xa0,1.5,1,\xa00", "-0.25,\x0b2\x0b,\x0c0\x0c,1"), True
    ),
    "spellings": (_spelled_file("1.,+1,1.,-0", "1E3,1e-400,0e0,+1"), True),
    "underscore": (_spelled_file("1_0,0.5,1,0", "0.5,0.5,0,1"), False),
    "arabic-indic-digits": (
        _spelled_file("\u0662.\u0665,0.5,\u0661,0", "0.5,0.5,0,\u0661"), False
    ),
    "quoted-number": (_spelled_file('"0.5",1.5,1,0', "-0.25,2,0,1"), True),
    "all-quoted-past-two-chunks": (
        _spelled_file(*_quoted(good_rows(2 * fairthresh.cli._CHUNK_ROWS + 1))), True
    ),
    "spaces-only-line": (_spelled_file("   ", *good_rows(3)), False),
    "commas-only-row": (_spelled_file(",,,", *good_rows(3)), False),
}


class TestIngestMatchesRowParser:
    """ingest_csv against the row-at-a-time reference: same arrays, same error text."""

    @given(data=fuzzed_csv(), chunk=st.sampled_from((1, 2, 3, 7, fairthresh.cli._CHUNK_ROWS)))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_csv(self, data, chunk):
        # Small chunks put the fuzzed damage on both sides of chunk boundaries.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", chunk):
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(data)
            assert_ingest_matches_reference(path)
            # Intact files never reach the row parser, so check it on them
            # too.
            assert_ingest_matches_reference(path, _chunked_ingest)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0.5,1,0", "0.5,0.5,2,0"], "line 3: expected 4 fields, got 3"),
            (["0.5,0.5,2,0", "0.5,1,0"], "line 3: label column 'y' value '2' is not binary"),
            (["abc,0.5,2,0"], "line 3: label column 'y' value '2' is not binary"),
            (["0.5,0.5,x,2"], "line 3: label column 'y' has non-numeric value 'x'"),
            (["0.5,0.5,1,2"], "line 3: protected column 'a' value '2' is not binary"),
            (["abc,0.5,1,0", "0.5,0.5,1,0", "0.5,0.5,7,1"], "line 5: label column 'y'"),
            (["abc,0.5,1,0", "1,2,3"], "line 4: expected 4 fields, got 3"),
            (["0.5,0.5,1,0,9"], "line 3: expected 4 fields, got 5"),
        ],
        ids=[
            "width-then-label", "label-then-width", "feature-and-label-on-one-line",
            "non-numeric-label", "protected", "feature-line-then-label-line",
            "feature-line-then-short-line", "long-line",
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, rows, message):
        path = write_feature_rows(tmp_path / "bad.csv", good_rows(1) + rows + good_rows(2))
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest_csv(path, "y", "a")
        assert_ingest_matches_reference(path)

    def test_binary_cells_parse_as_floats(self, tmp_path):
        rows = ["0.5,0.5,1.0,0", "0.5,0.5, 1 ,-0", "0.5,0.5,0e0,1.", "0.5,0.5,+1,0"]
        path = write_feature_rows(tmp_path / "spelled.csv", rows)
        ds = ingest_csv(path, "y", "a")
        assert ds.y.tolist() == [1, 1, 0, 1]
        assert ds.a.tolist() == [0, 0, 1, 0]
        assert_ingest_matches_reference(path)

    @pytest.mark.parametrize("blank", ["", "  ", ",,,", " , ,\t,"])
    def test_blank_row_shapes_are_skipped(self, tmp_path, blank):
        path = write_feature_rows(tmp_path / "blank.csv", [blank, *good_rows(2), blank])
        assert len(ingest_csv(path, "y", "a")) == 2
        assert_ingest_matches_reference(path)
        only_blank = write_feature_rows(tmp_path / "only.csv", [blank, blank])
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(only_blank, "y", "a")

    @pytest.mark.parametrize("text, plain", _SPELLED_FILES.values(), ids=_SPELLED_FILES.keys())
    def test_spellings_and_line_endings(self, tmp_path, text, plain):
        path = tmp_path / "spelled.csv"
        path.write_bytes(text.encode("utf-8"))
        with plain_chunks_taken() as taken:
            assert isinstance(ingest_csv(path, "y", "a"), LabeledDataset)
        # The numpy pass takes every chunk of a plain table, and refuses the
        # one chunk of any other.
        assert all(taken) is plain
        assert taken.count(False) == (not plain)
        assert_ingest_matches_reference(path)

    @pytest.mark.parametrize("header", ["y,a,x0", "y,a,x0,x1,x2"])
    def test_every_row_off_the_header_width(self, tmp_path, header):
        path = write_feature_rows(tmp_path / "off.csv", ["1,0,0.5,0.5", "0,1,0.5,0.5"], header)
        width = header.count(",") + 1
        with pytest.raises(IngestError, match=re.escape(f"line 2: expected {width} fields, got 4")):
            ingest_csv(path, "y", "a")
        assert_ingest_matches_reference(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd paths")
    @pytest.mark.parametrize("name", ["crlf", "quoted-number"])
    def test_pipe_is_read_once(self, tmp_path, name):
        # A pipe cannot be read a second time; neither pass needs to.
        path = tmp_path / "source.csv"
        path.write_bytes(_SPELLED_FILES[name][0].encode("utf-8"))
        read_end, write_end = os.pipe()
        try:
            with open(write_end, "wb") as sink:
                sink.write(path.read_bytes())
            got = ingest_csv(f"/dev/fd/{read_end}", "y", "a")
        finally:
            os.close(read_end)
        want = _reference_ingest(path, "y", "a")
        for field in ("x", "a", "y", "weight"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.parametrize(
        "late_row, late_error",
        [
            ("0.\udcff5,0.5,1,0", "not UTF-8 text"),
            ("1" * 131_073 + ",0.5,1,0", "malformed CSV"),
        ],
        ids=["bad-byte", "oversized-field"],
    )
    def test_earlier_bad_label_beats_a_later_read_error(self, tmp_path, late_row, late_error):
        # 600 rows put the late row past the first 8 KB that the text layer decodes.
        rows = [*good_rows(1), *good_rows(600, start=1), late_row]
        for bad_label, expected in ((None, late_error), (2, "line 3: label column 'y'")):
            if bad_label is not None:
                rows[1] = f"0.5,0.5,{bad_label},0"
            path = tmp_path / "late.csv"
            text = "x0,x1,y,a\n" + "".join(row + "\n" for row in rows)
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            with pytest.raises(IngestError, match=expected):
                ingest_csv(path, "y", "a")
            assert_ingest_matches_reference(path)

    @pytest.mark.parametrize(
        "late_row, message",
        [
            ('"0.5",0.5,1,0', None),
            ("0.5,0.5,2,0", "line 252: label column 'y' value '2' is not binary"),
            ("nan,0.5,1,0", "non-numeric or non-finite feature values on lines 252"),
            ("1" * 131_073 + ",0.5,1,0", "line 252: malformed CSV"),
        ],
        ids=["quoted-cell", "bad-label", "nan-feature", "oversized-field"],
    )
    def test_late_row_is_left_to_the_row_parser_with_its_chunk(self, tmp_path, late_row, message):
        # In chunks of 100 lines, lines 2-201 are plain and line 252 is in the third chunk.
        rows = good_rows(300)
        rows[250] = late_row
        path = write_feature_rows(tmp_path / "late.csv", rows)
        with mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", 100):
            with plain_chunks_taken() as taken:
                if message is None:
                    assert len(ingest_csv(path, "y", "a")) == 300
                else:
                    with pytest.raises(IngestError, match=re.escape(message)):
                        ingest_csv(path, "y", "a")
            # numpy reads the quoted cell; each bad row's chunk is refused.
            assert taken == [True, True, message is None]
            assert_ingest_matches_reference(path)

    def test_empty_line_in_a_chunk_keeps_later_line_numbers(self, tmp_path):
        # loadtxt skips empty lines, so a chunk holding one goes to the row
        # parser; the next chunk goes to numpy again.
        rows = good_rows(300)
        rows[50] = ""
        rows[250] = "0.5,0.5,2,0"
        path = write_feature_rows(tmp_path / "gap.csv", rows)
        with mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", 100):
            with plain_chunks_taken() as taken:
                with pytest.raises(IngestError, match=re.escape("line 252: label column 'y'")):
                    ingest_csv(path, "y", "a")
            assert taken == [False, True, False]
            assert_ingest_matches_reference(path)

    @pytest.mark.parametrize(
        "chunk, plain",
        [
            (1, "TTTTFTTTFTTTF"), (2, "TTFTFTF"), (3, "TFTFTF"), (4, "TFFF"), (5, "FFF"),
            (7, "FFF"),
        ],
    )
    def test_quoted_newlines_keep_record_numbers_across_chunks(self, tmp_path, chunk, plain):
        # rows[4] spans lines 6-7 and rows[8] lines 11-13, so the bad label is
        # the 14th record and starts on physical line 17, the line reported.
        # rows[4]'s last cell stays open to the end of line 6, where a
        # one-line chunk would end it.
        rows = good_rows(12)
        x0, x1, y, a = rows[4].split(",")
        rows[4] = f'{x0},{x1},{y},"{a}\n"'
        x0, x1, y, a = rows[8].split(",")
        rows[8] = f'{x0},"{x1}\n\n",{y},{a}'
        path = write_feature_rows(tmp_path / "spans.csv", [*rows, "0.5,0.5,2,0"])
        with mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", chunk):
            with plain_chunks_taken() as taken:
                with pytest.raises(IngestError, match=re.escape("line 17: label column 'y'")):
                    ingest_csv(path, "y", "a")
            # A chunk after a refused one goes to numpy again; it is refused
            # only if it holds a quoted newline or the bad label.
            assert "".join("T" if t else "F" for t in taken) == plain
            assert_ingest_matches_reference(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    @pytest.mark.parametrize(
        "late_row, message",
        [
            ("0.5,0.5,1", "line 9: expected 4 fields, got 3"),
            ("0.5,inf,1,0", "non-numeric or non-finite feature values on lines 9"),
        ],
        ids=["field-count", "bad-feature"],
    )
    def test_errors_after_a_quoted_newline_name_physical_lines(
        self, tmp_path, chunk, late_row, message
    ):
        # rows[2] spans lines 4-6, so rows[5], the 7th record, starts on line 9.
        rows = good_rows(7)
        x0, x1, y, a = rows[2].split(",")
        rows[2] = f'"{x0}\n\n",{x1},{y},{a}'
        rows[5] = late_row
        path = write_feature_rows(tmp_path / "spans.csv", rows)
        with mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", chunk):
            with pytest.raises(IngestError, match=re.escape(message) + "$"):
                ingest_csv(path, "y", "a")
        assert_ingest_matches_reference(path)

    def test_numpy_takes_the_chunks_after_a_refused_one(self, tmp_path):
        rows = good_rows(500)
        rows[150] = "1_0,0.5,1,0"  # float reads it, numpy does not
        path = write_feature_rows(tmp_path / "handoff.csv", rows)
        with mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", 100):
            with plain_chunks_taken() as taken:
                assert len(ingest_csv(path, "y", "a")) == 500
            assert taken == [True, False, True, True, True]
            assert_ingest_matches_reference(path)

    @pytest.mark.parametrize(
        "line, earlier, message",
        [
            (None, None, "not UTF-8 text"),
            (152, "0.5,0.5,2,0", "line 152: label column 'y' value '2' is not binary"),
            # A quoted field that runs on into the bytes that do not decode,
            # from a whole chunk and from the chunk the bad bytes cut short.
            (152, '0.5,0.5,1,"1', "not UTF-8 text"),
            (212, '0.5,0.5,1,"1', "not UTF-8 text"),
        ],
        ids=["none", "bad-label", "open-quote", "open-quote-in-cut-chunk"],
    )
    def test_bad_byte_in_a_late_chunk(self, tmp_path, line, earlier, message):
        # About 35 bytes a row: lines 1-212 fall in the first 8 KB that the
        # text layer decodes, and the bad byte on line 352 (chunk 4) does not.
        rows = [f"{0.1 * i:.12f},{-0.3 * i:.12f},{(i // 2) % 2},{i % 2}" for i in range(500)]
        if earlier is not None:
            rows[line - 2] = earlier
        text = "x0,x1,y,a\n" + "".join(row + "\n" for row in rows)
        at = text.index(rows[350])
        assert len("".join(text.splitlines(keepends=True)[:212])) < 8192 < at
        path = tmp_path / "late-byte.csv"
        path.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
        with mock.patch.object(fairthresh.cli, "_CHUNK_ROWS", 100):
            with pytest.raises(IngestError, match=re.escape(message)):
                ingest_csv(path, "y", "a")
            assert_ingest_matches_reference(path)

    def test_more_than_twenty_bad_feature_lines(self, tmp_path):
        rows = [f"bad{i},0.5,1,0" if i % 2 else row for i, row in enumerate(good_rows(60))]
        path = write_feature_rows(tmp_path / "many.csv", rows)
        shown = ", ".join(str(n) for n in range(3, 43, 2))
        with pytest.raises(IngestError, match=re.escape(f"lines {shown} (+10 more)")):
            ingest_csv(path, "y", "a")
        assert_ingest_matches_reference(path)

    @pytest.mark.parametrize("label_error", [False, True])
    def test_bad_lines_across_chunk_boundaries(self, tmp_path, label_error):
        rows = good_rows(9_000)
        # Line L holds rows[L - 2]; the first chunk ends on line _CHUNK_ROWS + 1.
        edge = fairthresh.cli._CHUNK_ROWS + 1
        for line in (edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge):
            rows[line - 2] = "nan,0.5,1,0"
        rows[edge + 2 - 2] = ",,,"
        if label_error:
            rows[2 * edge + 3 - 2] = "0.5,0.5,0.5,0"
        path = write_feature_rows(tmp_path / "big.csv", rows)
        expected = (
            f"line {2 * edge + 3}: label column 'y' value '0.5' is not binary"
            if label_error
            else f"lines {edge - 1}, {edge}, {edge + 1}, {2 * edge - 1}, {2 * edge}"
        )
        with pytest.raises(IngestError, match=re.escape(expected)):
            ingest_csv(path, "y", "a")
        assert_ingest_matches_reference(path)
        rows = [row for row in rows if not row.startswith(("nan", "0.5,0.5,0.5"))]
        path = write_feature_rows(tmp_path / "big.csv", rows)
        assert len(ingest_csv(path, "y", "a")) == len(rows) - 1
        assert_ingest_matches_reference(path)


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
