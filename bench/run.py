"""fairthresh benchmark: three closed-loop workloads against the public API.

Usage (from the repository root):

    python3 bench/run.py --workload cli-fit --seed 1 --seconds 25 --trace 0

Workloads (one process, one operation at a time, no thread or process pool;
the next operation starts when the previous one returns):

- ``cli-fit``: 18 ``fairthresh fit`` commands (fuds/fcsc/fpir x dd/do/pd x
  aware/blind, delta 0.05) and one empirical ``frontier --method fpir`` over
  a 7-point grid, driven through ``fairthresh.cli.main`` on a generated CSV
  of 14,286 rows (10,000 train rows after the 0.7 split). Learner refits
  dominate it.
- ``posthoc-sweep``: ``run_fpir`` with a prefit group model, then
  ``evaluate``, for 40 budgets (0.0075 to 0.3) x dd/do/pd on 50,000
  train / 25,000 test rows. No learner work in the timed phase: bisection
  evaluations and prediction dominate it.
- ``oracle-audit``: ``oracle-check`` and three closed-form ``frontier``
  commands on a saved model over a 301-point grid. Exact-rational,
  closed-form and solver layers, no sampled data and no learner. Its inputs
  are fixed and do not follow the seed (see OracleAudit).

Inputs of the other two come from ``gaussian.sample(default_model(), ...)``
under the given seed; the program sees only the generated CSV, model JSON
or dataset.

Each run sets up its inputs five times (``setup_s`` is the import time plus
the median set-up), then repeats passes over the workload's operation list
for ``--seconds`` seconds (at least two passes); ``pass_s`` sums each
operation's median time over the passes. Both gated times are in
reference-speed seconds, scaled by the machine speed that a separate probe
process (probe.py, no part of the load) measures while the run goes on; see
KERNEL_NOMINAL_S. The raw wall times are printed as ``setup_wall_s`` and
``pass_wall_s``. Every operation's output is checked, and compared byte for
byte with the same operation in the previous pass. With ``--trace 1`` the
run instead makes one untraced and one traced pass and reports per-layer
counts, busy time and self time (see layers.py); spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the environment, the output fingerprint and every metric by name and unit.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from layers import Tracer, layer_metric_specs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
MIN_PASSES = 2

# Accuracy check for group-aware fits: test accuracy may fall at most
# ACC_MARGIN_SQRT_N / sqrt(n_test) below the closed-form optimum at the same
# budget. The constant was set from observed spread: over seeds 1-20 the
# worst shortfall times sqrt(n_test) was 1.16 on cli-fit and 1.34 on
# posthoc-sweep (0.008 accuracy at 25,000 test rows); 4.0 leaves three
# times that. The 1/sqrt(n) form keeps the check alike at smoke sizes.
ACC_MARGIN_SQRT_N = 4.0

# Rounding allowance when a closed-form frontier row is compared with the
# bands OracleAudit.prepare_checks computes: the CSV prints full repr
# floats, so only evaluation-order rounding separates equal values.
_BAND_SLACK = 1e-12

# Gated times are in reference-speed seconds. On the shared 2-core machine
# this benchmark was tuned on, CPU speed drifted by tens of percent within
# seconds to minutes, in process CPU time as much as in wall time, which gave
# raw wall times a run-to-run quartile spread of 12-34%. A separate process
# (probe.py) tracks that drift: every PROBE_PERIOD_S it times a fixed kernel
# of about 2 ms. A timed block's wall time is scaled by KERNEL_NOMINAL_S over
# the median kernel time measured within PROBE_WINDOW_S of the block, or of
# the PROBE_MIN_SAMPLES samples nearest to it. The kernel never runs in this
# process, so it adds nothing to timed blocks or spans; kernel runs in this
# process right before and after each block tracked long blocks worse than
# no scaling at all. KERNEL_NOMINAL_S is the kernel's median time on that
# machine, so reference seconds read close to its wall seconds; raw wall
# times are printed too.
KERNEL_NOMINAL_S = 0.0019
PROBE_PERIOD_S = 0.05
PROBE_WINDOW_S = 0.25
PROBE_MIN_SAMPLES = 5
PROBE = Path(__file__).resolve().parent / "probe.py"

KINDS = ("dd", "do", "pd")


@dataclass
class Outcome:
    """Checked result of one operation."""

    problems: list[str]
    digest: str | None = None
    fingerprint: list[Any] = field(default_factory=list)


@dataclass
class Op:
    """One closed-loop operation: a timed call and an untimed output check."""

    key: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Block:
    """Start and end of one timed block, in perf_counter seconds."""

    start: float
    end: float = math.nan

    @property
    def wall(self) -> float:
        return self.end - self.start


@contextlib.contextmanager
def timed():
    """Time the enclosed block; the yielded Block gets its end on exit."""
    block = Block(time.perf_counter())
    try:
        yield block
    finally:
        block.end = time.perf_counter()


class SpeedProbe:
    """The probe.py process and the kernel times it recorded.

    Used as a context manager: entering starts the process and waits for its
    first samples; leaving, or stop(), ends it and loads every sample.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._proc: subprocess.Popen | None = None
        self.samples: list[tuple[float, float]] = []  # (clock, kernel seconds)

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(self._path), str(PROBE_PERIOD_S)],
            stdin=subprocess.PIPE)
        deadline = time.perf_counter() + 60.0
        while self._count() < PROBE_MIN_SAMPLES:
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("the speed probe did not start")
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _count(self) -> int:
        if not self._path.exists():
            return 0
        return self._path.read_text(encoding="utf-8").count("\n")

    def stop(self) -> None:
        """End the process and load its samples; later calls do nothing."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        proc.stdin.close()  # end of file tells the probe to exit
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        if code != 0:
            raise RuntimeError(f"the speed probe exited with code {code}")
        lines = self._path.read_text(encoding="utf-8").splitlines()
        self.samples = [tuple(map(float, line.split())) for line in lines]

    def reference(self, block: Block) -> float:
        """The block's wall time in reference-speed seconds."""
        near = [k for t, k in self.samples
                if block.start - PROBE_WINDOW_S <= t <= block.end + PROBE_WINDOW_S]
        if len(near) < PROBE_MIN_SAMPLES:
            middle = 0.5 * (block.start + block.end)
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            near = [k for _, k in nearest[:PROBE_MIN_SAMPLES]]
        return block.wall * KERNEL_NOMINAL_S / statistics.median(near)

    def kernel_s(self) -> float:
        return statistics.median(k for _, k in self.samples)


# ---------------------------------------------------------------------------
# Helpers


def _derived_seed(np, seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` in-process, capturing its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _command_problems(code: int, out: str, err: str) -> list[str]:
    problems = []
    if code != 0:
        tail = (err.strip().splitlines() or ["(no message)"])[-1]
        problems.append(f"exit code {code}: {tail}")
    if "Traceback (most recent call last)" in out + err:
        problems.append("printed a traceback")
    return problems


def _accuracy_margin(n_test: int) -> float:
    return ACC_MARGIN_SQRT_N / math.sqrt(n_test)


def _write_csv(path: Path, dataset) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x0,x1,a,y\n")
        for (x0, x1), a, y in zip(dataset.x.tolist(), dataset.a.tolist(), dataset.y.tolist()):
            fh.write(f"{x0!r},{x1!r},{a},{y}\n")


def _read_frontier(path: Path) -> list[dict[str, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _crossing(curve, delta: float) -> float:
    """Smallest |t| with |D(t)| <= delta on a non-increasing curve.

    Bisects until the bracket cannot be split in floating point.
    """
    d0 = curve(0.0)
    if abs(d0) <= delta:
        return 0.0
    # Walk away from 0 on the side where D breaks the budget.
    sign = 1.0 if d0 > delta else -1.0
    infeasible, feasible = 0.0, curve.t_hi if sign > 0 else curve.t_lo
    while True:
        mid = 0.5 * (infeasible + feasible)
        if mid in (infeasible, feasible):
            return feasible
        if sign * curve(mid) <= delta:
            feasible = mid
        else:
            infeasible = mid


def _grid(step: float, count: int) -> list[str]:
    return [f"{round(i * step, 10):g}" for i in range(count)]


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs, operations and summary metrics of one workload."""

    name = ""

    def __init__(self, ft, seed: int, scale: float, work: Path) -> None:
        self.ft = ft
        self.seed = seed
        self.scale = scale
        self.work = work
        self.references: dict[tuple[str, float], float] = {}
        self.notes: list[str] = []  # printed with the fingerprint

    def setup(self) -> None:
        """Generate the inputs the program sees (timed as set-up)."""

    def prepare_checks(self) -> None:
        """Closed-form references for the output checks.

        Computed before the timed and traced phases, so that checking adds
        no gaussian.reference spans.
        """

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def summary(self, rows: list[tuple[Op, float]]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end metrics from (operation, seconds) rows."""
        raise NotImplementedError

    def _reference_accuracy(self, kind_name: str, delta: float) -> float:
        key = (kind_name, delta)
        if key not in self.references:
            ft = self.ft
            kind = ft.core.DisparityKind(kind_name)
            rule = ft.gaussian.theoretical_fair_classifier(ft.gaussian.default_model(), kind, delta)
            self.references[key] = 1.0 - rule.risk
        return self.references[key]

    def _accuracy_problem(self, kind_name: str, delta: float, accuracy: float,
                          n_test: int) -> list[str]:
        floor = self._reference_accuracy(kind_name, delta) - _accuracy_margin(n_test)
        if accuracy < floor:
            return [f"accuracy {accuracy:.4f} below {floor:.4f} ({kind_name}, delta {delta})"]
        return []


class CliFit(Workload):
    name = "cli-fit"
    ROWS = 14_286
    SPLIT = 0.7
    DELTA = 0.05
    FRONTIER_GRID = _grid(0.05, 7)

    def setup(self) -> None:
        ft = self.ft
        rows = max(20, round(self.ROWS * self.scale))
        data = ft.gaussian.sample(ft.gaussian.default_model(), rows,
                                  _derived_seed(ft.np, self.seed, 0))
        self.csv = self.work / "data.csv"
        _write_csv(self.csv, data)
        self.n_test = rows - int(self.SPLIT * rows)

    def prepare_checks(self) -> None:
        for kind in KINDS:
            self._reference_accuracy(kind, self.DELTA)
        for delta in self.FRONTIER_GRID:
            self._reference_accuracy("dd", float(delta))

    def operations(self) -> list[Op]:
        ops = []
        for method in ("fuds", "fcsc", "fpir"):
            for kind in KINDS:
                for blind in (False, True):
                    ops.append(self._fit_op(method, kind, blind))
        ops.append(self._frontier_op())
        return ops

    def _base_args(self, command: str, method: str, kind: str, out: Path) -> list[str]:
        return [command, "--data", str(self.csv), "--method", method, "--disparity", kind,
                "--seed", str(self.seed), "--out", str(out)]

    def _fit_op(self, method: str, kind: str, blind: bool) -> Op:
        mode = "blind" if blind else "aware"
        out = self.work / f"fit-{method}-{kind}-{mode}.json"
        argv = self._base_args("fit", method, kind, out) + ["--delta", str(self.DELTA)]
        if blind:
            argv.append("--blind")

        def check(result) -> Outcome:
            problems = _command_problems(*result)
            if problems:
                return Outcome(problems)
            raw = out.read_bytes()
            doc = json.loads(raw)
            disparity = doc["run"]["disparity_at_t_hat"]
            if abs(disparity) > self.DELTA:
                problems.append(f"train disparity {disparity!r} exceeds delta {self.DELTA}")
            accuracy = doc["test_metrics"]["accuracy"]
            if not blind:
                problems += self._accuracy_problem(kind, self.DELTA, accuracy, self.n_test)
            return Outcome(problems, _digest(raw), [doc["t_hat"], accuracy])

        return Op(f"fit {method} {kind} {mode}", f"fit_ms.{method}",
                  lambda: _invoke(self.ft.cli, argv), check)

    def _frontier_op(self) -> Op:
        out = self.work / "frontier.csv"
        argv = self._base_args("frontier", "fpir", "dd", out)
        argv += ["--delta-grid", ",".join(self.FRONTIER_GRID)]

        def check(result) -> Outcome:
            problems = _command_problems(*result)
            if problems:
                return Outcome(problems)
            rows = _read_frontier(out)
            if len(rows) != len(self.FRONTIER_GRID):
                problems.append(f"{len(rows)} frontier rows, expected {len(self.FRONTIER_GRID)}")
            for row in rows:
                problems += self._accuracy_problem("dd", row["delta"], row["accuracy"], self.n_test)
            values = [v for row in rows for v in (row["t"], row["accuracy"])]
            return Outcome(problems, _digest(out.read_bytes()), values)

        return Op("frontier fpir dd", "frontier_ms", lambda: _invoke(self.ft.cli, argv), check)

    def summary(self, rows):
        by_group: dict[str, list[float]] = {}
        for op, seconds in rows:
            by_group.setdefault(op.group, []).append(seconds)
        metrics = {
            f"fit_ms.{m}": (1e3 * statistics.fmean(by_group[f"fit_ms.{m}"]), "ms")
            for m in ("fuds", "fcsc", "fpir")
        }
        metrics["frontier_ms"] = (1e3 * sum(by_group["frontier_ms"]), "ms")
        return metrics


class PosthocSweep(Workload):
    name = "posthoc-sweep"
    TRAIN = 50_000
    TEST = 25_000
    # The grid starts one step above 0. At delta = 0 the bisected threshold
    # on a step curve lands one row past zero (|D| about 1e-5 here), which
    # breaks the |D| <= delta contract; the workload times operations that
    # work, and selfcheck.py::test_fpir_meets_a_zero_budget keeps that defect
    # in view.
    DELTAS = [round(i * 0.0075, 6) for i in range(1, 41)]

    def setup(self) -> None:
        ft = self.ft
        model = ft.gaussian.default_model()
        np = ft.np
        self.train = ft.gaussian.sample(model, max(20, round(self.TRAIN * self.scale)),
                                        _derived_seed(np, self.seed, 1))
        self.test = ft.gaussian.sample(model, max(20, round(self.TEST * self.scale)),
                                       _derived_seed(np, self.seed, 2))
        self.prefit = ft.estimators.fit_group_models(self.train, ft.estimators.MODE_AWARE,
                                                     ft.cli._CLI_LEARNER)

    def prepare_checks(self) -> None:
        for kind in KINDS:
            for delta in self.DELTAS:
                self._reference_accuracy(kind, delta)

    def operations(self) -> list[Op]:
        return [self._op(kind, delta) for kind in KINDS for delta in self.DELTAS]

    def _op(self, kind_name: str, delta: float) -> Op:
        ft = self.ft

        def run():
            fa = ft.fair_algorithms
            config = fa.FairFitConfig(kind=ft.core.DisparityKind(kind_name), delta=delta,
                                      seed=self.seed)
            classifier, t_hat, report = fa.run_fpir(self.train, config, model=self.prefit)
            return t_hat, report, fa.evaluate(classifier, self.test)

        def check(result) -> Outcome:
            t_hat, report, metrics = result
            problems = []
            disparity = report["disparity_at_t_hat"]
            if abs(disparity) > delta:
                problems.append(f"train disparity {disparity!r} exceeds delta {delta}")
            problems += self._accuracy_problem(kind_name, delta, metrics["accuracy"],
                                               len(self.test))
            raw = json.dumps([t_hat, report, metrics], sort_keys=True).encode()
            return Outcome(problems, _digest(raw), [t_hat, metrics["accuracy"]])

        return Op(f"fpir {kind_name} delta={delta}", "budget", run, check)

    def summary(self, rows):
        return {"budgets_per_s": (len(rows) / sum(s for _, s in rows), "1/s")}


class OracleAudit(Workload):
    """Fixed inputs: the oracle-check seed and the saved model do not follow
    --seed. The seed picks oracle-check's 200 random instances, whose sizes
    moved the command's cost by 5-8% from seed to seed, so a seeded input
    would blur the timings across runs. Output checks are unaffected."""

    name = "oracle-audit"
    GRID = _grid(0.001, 301)
    ORACLE_SEED = 0

    def setup(self) -> None:
        ft = self.ft
        self.model_path = self.work / "model.json"
        ft.gaussian.save_model(ft.gaussian.default_model(), self.model_path)

    def prepare_checks(self) -> None:
        """Bands each closed-form frontier row must fall in, per (kind, delta).

        The reference is the curve's own crossing t*, the smallest |t| with
        |D(t)| <= delta, bisected here to float precision without
        solve_threshold. The frontier command bisects to tol, so its t must
        lie within tol of t*, and its disparity and accuracy within their
        ranges over [t* - tol, t* + tol].
        """
        ft = self.ft
        model = ft.gaussian.default_model()
        tol = ft.solver.DEFAULT_TOL
        self.bands: dict[tuple[str, float], tuple] = {}
        for kind_name in KINDS:
            kind = ft.core.DisparityKind(kind_name)
            curve = ft.gaussian.disparity_curve_closed(model, kind)
            for delta in map(float, self.GRID):
                root = _crossing(curve, delta)
                ends = [min(max(t, curve.t_lo), curve.t_hi) for t in (root - tol, root + tol)]
                disparity = [curve(t) for t in ends]
                accuracy = [1.0 - ft.gaussian.risk_closed(model, kind, t) for t in [root, *ends]]
                self.bands[kind_name, delta] = (
                    (root - tol, root + tol),
                    (min(disparity), max(disparity)),
                    (min(accuracy), max(accuracy)),
                )

    def operations(self) -> list[Op]:
        cli = self.ft.cli
        argv = ["oracle-check", "--seed", str(self.ORACLE_SEED)]

        def check_oracle(result) -> Outcome:
            code, out, err = result
            problems = _command_problems(code, out, err)
            lines = out.splitlines()
            problems += [line for line in lines if line.startswith("FAIL")]
            if "oracle-check: all suites passed" not in lines:
                problems.append("no pass summary line")
            self.notes = lines
            return Outcome(problems, _digest(out.encode()), lines)

        ops = [Op("oracle-check", "oracle_check_s", lambda: _invoke(cli, argv), check_oracle)]
        ops += [self._frontier_op(kind) for kind in KINDS]
        return ops

    def _frontier_op(self, kind: str) -> Op:
        out = self.work / f"frontier-{kind}.csv"
        argv = ["frontier", "--data", str(self.model_path), "--disparity", kind,
                "--delta-grid", ",".join(self.GRID), "--out", str(out)]

        def check(result) -> Outcome:
            problems = _command_problems(*result)
            if problems:
                return Outcome(problems)
            rows = _read_frontier(out)
            if len(rows) != len(self.GRID):
                problems.append(f"{len(rows)} frontier rows, expected {len(self.GRID)}")
            for row in rows:
                bands = zip(("t", kind, "accuracy"), self.bands[kind, row["delta"]])
                problems += [
                    f"delta {row['delta']}: {name} {row[name]!r} outside [{lo!r}, {hi!r}]"
                    for name, (lo, hi) in bands
                    if not lo - _BAND_SLACK <= row[name] <= hi + _BAND_SLACK
                ]
            values = [v for row in rows for v in (row["t"], row["accuracy"])]
            return Outcome(problems, _digest(out.read_bytes()), values)

        return Op(f"frontier closed {kind}", "closed_frontier_ms",
                  lambda: _invoke(self.ft.cli, argv), check)

    def summary(self, rows):
        by_group: dict[str, float] = {}
        for op, seconds in rows:
            by_group[op.group] = by_group.get(op.group, 0.0) + seconds
        return {
            "oracle_check_s": (by_group["oracle_check_s"], "s"),
            "closed_frontier_ms": (1e3 * by_group["closed_frontier_ms"], "ms"),
        }


WORKLOADS = {cls.name: cls for cls in (CliFit, PosthocSweep, OracleAudit)}


# ---------------------------------------------------------------------------
# Runner


class Ledger:
    """Failure accounting and byte-identity checks across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.previous: dict[str, str | None] = {}
        self.fingerprint: list[Any] | None = None

    def record(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        problems = list(outcome.problems)
        if op.key in self.previous and outcome.digest != self.previous[op.key]:
            problems.append("output bytes differ from the previous pass")
        self.previous[op.key] = outcome.digest
        if problems:
            self.failed += 1
            print(f"FAILED {op.key}: {'; '.join(problems)}")


def run_pass(ops: list[Op], ledger: Ledger, tracer=None, pass_no: int = 0):
    """Run every operation once, in order; returns (op, Block) rows."""
    rows = []
    values: list[Any] = []
    for op in ops:
        scope = (tracer.span("op", op=f"pass{pass_no}:{op.key}") if tracer
                 else contextlib.nullcontext())
        try:
            with timed() as block, scope:
                result = op.run()
        except Exception:  # the program raised: count it and go on
            error = f"raised {_last_line(traceback.format_exc())}"
        else:
            error = None
        rows.append((op, block))
        if error is None:
            try:
                outcome = op.check(result)
            except Exception:  # output the check cannot read is wrong output
                error = f"unreadable output: {_last_line(traceback.format_exc())}"
        if error is not None:
            outcome = Outcome([error])
        ledger.record(op, outcome)
        values.extend(outcome.fingerprint)
    if ledger.fingerprint is None:
        ledger.fingerprint = values
    return rows


def _timed_setup(workload: Workload) -> Block:
    with timed() as block:
        workload.setup()
    return block


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def _import_package():
    """Import fairthresh from this checkout's src/ and time the import."""
    sys.path.insert(0, str(SRC))
    try:
        with timed() as block:
            import numpy as np
            import fairthresh
    except ImportError as exc:
        raise SystemExit(f"error: cannot import fairthresh from {SRC}: {exc}") from None
    if SRC not in Path(fairthresh.__file__).resolve().parents:
        raise SystemExit(f"error: fairthresh imported from {fairthresh.__file__}, not {SRC}")
    ft = SimpleNamespace(np=np, **{name: getattr(fairthresh, name) for name in (
        "cli", "core", "estimators", "fair_algorithms", "gaussian", "solver")})
    return ft, block


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor in (0, 1]; below 1 only for smoke runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        # The probe runs before the import, so that the import's time is
        # scaled by the speed measured while it ran.
        with SpeedProbe(work / "probe.txt") as probe:
            ft, import_block = _import_package()
            print(
                f"env python={sys.version.split()[0]} numpy={ft.np.__version__} "
                f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
                f"nproc={len(os.sched_getaffinity(0))}"
            )
            workload = WORKLOADS[args.workload](ft, args.seed, args.scale, work)
            run = _traced_run if args.trace else _measured_run
            metrics, ledger = run(workload, args, import_block, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprint = _digest(repr(ledger.fingerprint).encode())[:16]
    print(f"fingerprint {args.workload} seed={args.seed} {fingerprint}")
    for line in workload.notes:
        print(f"note {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in _REPORTED[args.trace]},
    }
    print(json.dumps(result))
    return 0


def _measured_run(workload: Workload, args, import_block: Block, probe: SpeedProbe):
    setups = [_timed_setup(workload) for _ in range(SETUP_REPEATS)]
    workload.prepare_checks()
    ops = workload.operations()
    ledger = Ledger()
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(ops, ledger, pass_no=len(passes)))
    probe.stop()

    # Each operation's median over the passes damps a slow pass.
    wall: dict[str, list[float]] = {}
    ref: dict[str, list[float]] = {}
    for rows in passes:
        for op, block in rows:
            wall.setdefault(op.key, []).append(block.wall)
            ref.setdefault(op.key, []).append(probe.reference(block))
    median_wall = [(op, statistics.median(wall[op.key])) for op in ops]
    metrics = {
        "setup_s": (probe.reference(import_block)
                    + statistics.median(probe.reference(b) for b in setups), "s"),
        "pass_s": (sum(statistics.median(ref[op.key]) for op in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_wall_s": (import_block.wall + statistics.median(b.wall for b in setups), "s"),
        "pass_wall_s": (sum(s for _, s in median_wall), "s"),
        "kernel_ms": (1e3 * probe.kernel_s(), "ms"),
    }
    metrics.update(workload.summary(median_wall))
    metrics["fail_rate"] = (ledger.failed / ledger.attempted, "ratio")
    print(f"passes {len(passes)} operations {ledger.attempted} failed {ledger.failed}")
    return metrics, ledger


def _traced_run(workload: Workload, args, import_block: Block, probe: SpeedProbe):
    ledger = Ledger()
    untraced = [_timed_setup(workload)]
    workload.prepare_checks()
    untraced += [block for _, block in run_pass(workload.operations(), ledger, pass_no=0)]

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup", op="setup"):
            traced = [_timed_setup(workload)]
        traced += [block for _, block in run_pass(workload.operations(), ledger, tracer,
                                                  pass_no=1)]
    finally:
        tracer.uninstall()
    probe.stop()
    overhead_s = sum(map(probe.reference, traced)) - sum(map(probe.reference, untraced))
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    units = dict(layer_metric_specs())
    metrics = {name: (value, units[name])
               for name, value in tracer.layer_metrics(overhead_s).items()}
    return metrics, ledger


# Metrics in the final JSON line, per --trace value; the other printed
# metrics are the workload's own and are reported, not gated.
_REPORTED = {
    0: ("setup_s", "pass_s", "peak_rss_mb"),
    1: tuple(name for name, _ in layer_metric_specs()),
}


if __name__ == "__main__":
    raise SystemExit(main())
