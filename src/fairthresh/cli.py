"""Command-line front end for training, sweeping, and checking the solvers.

Commands:

- ``fit``: train one pipeline (fuds, fcsc, or fpir) on a dataset, evaluate
  on a held-out split, and write a JSON report.
- ``frontier``: sweep a budget grid and write one CSV row per budget with
  the achieved accuracy and all three disparity measures.
- ``synthetic``: run the bundled Gaussian study at desk scale (all three
  pipelines on a sampled train/test pair, with closed-form reference
  columns) and write a JSON report.
- ``oracle-check``: run the consistency suites of ``fairthresh.oracles``
  and exit nonzero if any check fails.

Data sources: a CSV file with a header row, numeric feature columns, and
binary label/protected columns, or a saved synthetic model (a ``.json``
path). Every command is deterministic for a fixed argument list and seed;
re-running an invocation reproduces its output byte for byte. The default
seed can be set through the FAIRTHRESH_SEED environment variable.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from . import core
from .core import BlindKind, DisparityError, DisparityKind
from .estimators import MODE_AWARE, FitError, LabeledDataset, LogisticConfig, fit_group_models
from .fair_algorithms import FairFitConfig, evaluate, run_fcsc, run_fpir, run_fuds
from .gaussian import (
    default_model,
    disparity_curve_closed,
    load_model,
    risk_closed,
    sample,
    threshold_disparity,
)
from .oracles import check_discrete_suite, check_eqodds_suite, check_grid_suite
from .solver import DEFAULT_TOL, SolverError, trace_pareto

__all__ = [
    "ExperimentSpec",
    "IngestError",
    "ingest_csv",
    "cmd_fit",
    "cmd_frontier",
    "cmd_synthetic",
    "cmd_oracle_check",
    "main",
]

SEED_ENV = "FAIRTHRESH_SEED"

_COMMANDS = ("fit", "frontier", "synthetic", "oracle-check")
_METHOD_RUNNERS = {"fuds": run_fuds, "fcsc": run_fcsc, "fpir": run_fpir}
_KIND_NAMES = {"dd": DisparityKind.DD, "do": DisparityKind.DO, "pd": DisparityKind.PD}
_BLIND_NAMES = {"dd": BlindKind.DD_X, "do": BlindKind.DO_X, "pd": BlindKind.PD_X}

# Learner of a sweep's prefit fpir group model: the library default, which
# the pipelines use for every fit. The Newton learner converges on every fit
# with no budget to tune.
_CLI_LEARNER = LogisticConfig()

# Desk-scale study shape used when the data source is a model file.
_MODEL_TRAIN_N = 10_000
_MODEL_TEST_N = 5_000
_SYNTHETIC_DELTAS = (0.0, 0.1, 0.2, 0.3)


class IngestError(DisparityError):
    """Raised when an input file or command configuration is unusable."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one CLI invocation; its defaults are the CLI's."""

    command: str
    data: str | None = None
    label_col: str = "y"
    protected_col: str = "a"
    method: str = "fpir"
    kind_name: str = "dd"
    blind: bool = False
    delta: float = 0.1
    delta_grid: tuple[float, ...] | None = None
    seed: int = 0
    split: float = 0.7
    tol: float = DEFAULT_TOL
    out: str | None = None

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise IngestError(f"command must be one of {_COMMANDS}, got {self.command!r}")
        if self.method not in _METHOD_RUNNERS:
            raise IngestError(
                f"method must be one of {tuple(_METHOD_RUNNERS)}, got {self.method!r}"
            )
        if self.kind_name not in _KIND_NAMES:
            raise IngestError(
                f"disparity must be one of {tuple(_KIND_NAMES)}, got {self.kind_name!r}"
            )
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise IngestError(f"delta must be finite and nonnegative, got {self.delta!r}")
        if not 0.0 < self.split < 1.0:
            raise IngestError(f"split fraction must lie in (0, 1), got {self.split!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise IngestError(f"tol must be positive, got {self.tol!r}")
        if self.seed < 0:
            raise IngestError(f"seed must be nonnegative, got {self.seed}")
        if self.delta_grid is not None:
            grid = tuple(float(d) for d in self.delta_grid)
            if not grid:
                raise IngestError("delta grid must be nonempty when given")
            if any(not (math.isfinite(d) and d >= 0.0) for d in grid):
                raise IngestError(f"delta grid values must be finite and nonnegative: {grid}")
            if any(b < a for a, b in zip(grid, grid[1:])):
                raise IngestError(f"delta grid must be sorted ascending, got {grid}")
            object.__setattr__(self, "delta_grid", grid)

    @property
    def kind(self) -> DisparityKind | BlindKind:
        return (_BLIND_NAMES if self.blind else _KIND_NAMES)[self.kind_name]


# ---------------------------------------------------------------------------
# Dataset ingestion


# Lines read per chunk. Each chunk becomes arrays before the next is read,
# so the peak memory stays near that of the finished arrays.
_CHUNK_ROWS = 4096


def _parse_binary(raw: str, column: str, what: str, lineno: int, path: str) -> int:
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


def ingest_csv(path: str | Path, label_col: str, protected_col: str) -> LabeledDataset:
    """Read a UTF-8 header CSV into a dataset.

    All columns other than the label and protected columns are features and
    must parse as finite reals; rows violating that are reported together.
    Label and protected values must be 0 or 1. Blank rows are skipped. A
    leading UTF-8 byte-order mark is dropped.

    The body is read ``_CHUNK_ROWS`` lines at a time. numpy's tokenizer and
    float parser read every chunk they can (``_plain_block``), quoted cells
    included. A chunk numpy refuses goes to a row-at-a-time ``csv.reader``
    (``_read_rows``), and the chunk after it goes to numpy again. Both read
    the same numbers.

    Errors are those of one row-at-a-time read of the whole file: the first
    bad record raises, checked for its field count, then its label, then its
    protected value; bad features are listed once the file is read. Every
    error names a physical line, the header's first being line 1: a record's
    error the line where the record starts, also after a quoted field that
    spans lines, and a ``malformed CSV`` error the line the reader stopped on.
    """
    path_str = str(path)
    if not Path(path).exists():
        raise IngestError(f"no such file: {path_str}")
    if label_col == protected_col:
        raise IngestError("label and protected columns must differ")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 0  # physical lines before the current chunk
        try:
            columns = _read_header(reader, path_str, label_col, protected_col)
            line = reader.line_num
            blocks, bad_lines = [], []
            failure: list[Exception] = []
            lines_in = _lines_until_error(fh, failure)
            while lines := list(islice(lines_in, _CHUNK_ROWS)):
                block = _plain_block(lines, *columns)
                if block is not None:
                    line += len(lines)
                else:
                    reader = csv.reader(chain(lines, _lines_after(fh, failure)))
                    block, bad = _read_rows(
                        reader, len(lines), line, path_str, label_col, protected_col, columns
                    )
                    line += reader.line_num
                    bad_lines += bad
                blocks.append(block)
            if failure:
                raise failure[0]
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path_str}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise IngestError(
                f"{path_str} line {line + reader.line_num}: malformed CSV ({exc})"
            ) from None
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        more = "" if len(bad_lines) <= 20 else f" (+{len(bad_lines) - 20} more)"
        raise IngestError(
            f"{path_str}: non-numeric or non-finite feature values on lines {shown}{more}"
        )
    if not any(len(labels) for _, _, labels in blocks):
        raise IngestError(f"{path_str}: no data rows")
    x, groups, labels = (np.concatenate(parts) for parts in zip(*blocks))
    return LabeledDataset(x=x, a=groups.astype(int), y=labels.astype(int))


def _read_header(reader, path_str: str, label_col: str, protected_col: str):
    """(width, label index, protected index, feature indices) of the header row."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise IngestError(f"{path_str}: empty file (no header row)") from None
    for col in (label_col, protected_col):
        if header.count(col) == 0:
            raise IngestError(f"{path_str}: missing column {col!r} (header: {header})")
        if header.count(col) > 1:
            raise IngestError(f"{path_str}: duplicate column {col!r}")
    width = len(header)
    label_ix = header.index(label_col)
    group_ix = header.index(protected_col)
    feature_ix = [i for i in range(width) if i not in (label_ix, group_ix)]
    if not feature_ix:
        raise IngestError(f"{path_str}: no feature columns besides label and protected")
    return width, label_ix, group_ix, feature_ix


def _lines_until_error(fh, failure: list[Exception]) -> Iterator[str]:
    """Yield the lines of ``fh``. On a read error, keep it in ``failure`` and stop."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        failure.append(exc)


def _lines_after(fh, failure: list[Exception]) -> Iterator[str]:
    """The lines left in ``fh``, read on demand, for a quoted field that runs
    past the end of a chunk. If a read error cut that chunk short, raise it.
    """
    if failure:
        raise failure[0]
    # Not ``yield from fh``: closing this generator would close ``fh``.
    yield from iter(fh.readline, "")


def _plain_block(
    lines: list[str], width: int, label_ix: int, group_ix: int, feature_ix: list[int]
):
    """(x, a, y) of a chunk of numeric lines, or None.

    The lines go through numpy's tokenizer and float parser, with the csv
    module's double quote and no comments. A blank-shaped row other than an
    empty line, a spelling that ``float`` reads and numpy does not (``1_0``,
    non-ASCII digits) and any unparsable cell make loadtxt raise. The chunk
    is kept only if each line gives one row as wide as the header, labels
    and groups are 0 or 1, features are finite, and no line is longer than
    the csv module's field size limit. On such a chunk numpy and ``float``
    read the same doubles.
    """
    # loadtxt skips empty lines and warns when it finds no row at all, so a
    # chunk that opens with one never reaches it.
    if not lines[0].strip() or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    # A quoted field spanning lines joins them into one row. One left open on
    # the last line would run into the next chunk, where loadtxt ends it; in
    # a chunk of numeric cells it leaves that line an odd number of quotes.
    if table.shape != (len(lines), width) or lines[-1].count('"') % 2:
        return None
    # Copies, so that the chunk's table is freed.
    labels, groups = table[:, label_ix].copy(), table[:, group_ix].copy()
    x = table.take(feature_ix, axis=1)
    binary = np.isin(labels, (0.0, 1.0)) & np.isin(groups, (0.0, 1.0))
    if not (binary.all() and np.isfinite(x).all()):
        return None
    return x, groups, labels


def _read_rows(
    reader, n_lines: int, line: int, path_str: str, label_col: str, protected_col: str, columns
):
    """(x, a, y) and the start lines of bad feature records of a chunk numpy refused.

    ``reader`` reads the chunk's ``n_lines`` lines, then the file after them;
    ``line`` physical lines come before the chunk. It stops after the last
    record that starts on the chunk. Each record is checked before the next
    is read: its field count, then its label, then its protected value.
    """
    width, label_ix, group_ix, feature_ix = columns
    features, groups, labels, bad = [], [], [], []  # ``features``: the rows back to back
    start = line + 1  # the physical line where the next record starts
    for row in reader:
        if "".join(row).strip():
            if len(row) != width:
                raise IngestError(
                    f"{path_str} line {start}: expected {width} fields, got {len(row)}"
                )
            label = _parse_binary(row[label_ix], label_col, "label", start, path_str)
            group = _parse_binary(row[group_ix], protected_col, "protected", start, path_str)
            try:
                values = [float(row[i]) for i in feature_ix]
            except ValueError:
                values = [math.nan]
            if all(map(math.isfinite, values)):
                features += values
                groups.append(group)
                labels.append(label)
            else:
                bad.append(start)
        if reader.line_num >= n_lines:
            break
        start = line + reader.line_num + 1
    x = np.array(features, dtype=float).reshape(-1, len(feature_ix))
    return (x, np.array(groups, dtype=float), np.array(labels, dtype=float)), bad


def _split_dataset(
    dataset: LabeledDataset, split: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    n = len(dataset)
    n_train = int(split * n)
    if n_train < 1 or n_train >= n:
        raise IngestError(f"split {split} leaves an empty side for {n} rows")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    perm = rng.permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def _model_samples(model, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The desk-scale train/test pair drawn from a model for a seed."""
    train_seed, test_seed = map(int, np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64))
    return sample(model, _MODEL_TRAIN_N, train_seed), sample(model, _MODEL_TEST_N, test_seed)


def _load_source(spec: ExperimentSpec) -> tuple[LabeledDataset, LabeledDataset, str]:
    """Resolve --data into a train/test pair.

    A ``.json`` path is a saved synthetic model: a fresh desk-scale sample
    pair is drawn from it. Anything else is read as CSV and split by the
    seeded permutation.
    """
    if spec.data is None:
        raise IngestError(f"command {spec.command!r} needs --data")
    if spec.data.endswith(".json"):
        return (*_model_samples(load_model(spec.data), spec.seed), "model")
    dataset = ingest_csv(spec.data, spec.label_col, spec.protected_col)
    train, test = _split_dataset(dataset, spec.split, spec.seed)
    return train, test, "csv"


def _pipeline_config(spec: ExperimentSpec, delta: float, seed: int) -> FairFitConfig:
    return FairFitConfig(kind=spec.kind, delta=delta, tol=spec.tol, seed=seed)


def _write(out: str | None, emit: Callable[[TextIO], object]) -> None:
    """Call emit on stdout, or on the file out, opened for writing."""
    if out is None:
        emit(sys.stdout)
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            emit(fh)


def _write_json(document: dict, out: str | None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    _write(out, lambda fh: fh.write(text))


def _sweep(method: str, blind: bool, train: LabeledDataset, test: LabeledDataset,
           configs: Iterable[FairFitConfig]) -> Iterator[tuple[float, dict, dict]]:
    """(t_hat, report, test metrics) of the method fitted on train, per config.

    fpir's group model does not depend on the budget, so an aware fpir sweep
    fits it once, not once per config, and the later configs read the
    plug-in slots of the train and test sets.  Blind runs fit their own
    regressions.
    """
    run = _METHOD_RUNNERS[method]
    if method == "fpir" and not blind:
        run = functools.partial(run, model=fit_group_models(train, MODE_AWARE, _CLI_LEARNER))
    for config in configs:
        classifier, t_hat, report = run(train, config)
        yield t_hat, report, evaluate(classifier, test)


# ---------------------------------------------------------------------------
# Commands


def cmd_fit(spec: ExperimentSpec) -> dict:
    """Train the chosen pipeline and report train diagnostics + test metrics."""
    train, test, source = _load_source(spec)
    config = _pipeline_config(spec, spec.delta, spec.seed)
    [(t_hat, report, metrics)] = _sweep(spec.method, spec.blind, train, test, [config])
    document = {
        "command": "fit",
        "data": spec.data,
        "source": source,
        "method": spec.method,
        "disparity": spec.kind_name,
        "blind": spec.blind,
        "delta": spec.delta,
        "seed": spec.seed,
        "split": spec.split,
        "tol": spec.tol,
        "n_train": len(train),
        "n_test": len(test),
        "dim": train.dim,
        "t_hat": t_hat,
        "run": report,
        "test_metrics": metrics,
    }
    _write_json(document, spec.out)
    return document


def _frontier_child_seed(base_seed: int, index: int) -> int:
    """Independent per-point seed derived from the base seed by index."""
    return int(np.random.SeedSequence([base_seed, 2, index]).generate_state(1)[0])


def _closed_frontier(model, kind: DisparityKind, deltas, tol: float):
    """The closed-form optimum at each budget, from one memoized sweep of D."""
    curve = disparity_curve_closed(model, kind)
    return trace_pareto(curve, lambda t: risk_closed(model, kind, t), deltas, tol=tol)


def _closed_frontier_rows(spec: ExperimentSpec) -> list[list[object]]:
    """Closed-form rows; each row's three gaps are those of its own rule."""
    if spec.blind:
        raise IngestError("closed-form frontiers cover the group-aware measures only")
    model = load_model(spec.data)
    kind = _KIND_NAMES[spec.kind_name]
    gaps = [threshold_disparity(model, k) for k in _KIND_NAMES.values()]
    out_rows = []
    for row in _closed_frontier(model, kind, spec.delta_grid, spec.tol):
        thr = [core.threshold(kind, model.stats, a, row.t) for a in (0, 1)]
        out_rows.append([row.delta, row.t, 1.0 - row.risk, *(gap(thr) for gap in gaps)])
    return out_rows


def _empirical_frontier_rows(spec: ExperimentSpec) -> list[list[object]]:
    train, test, _ = _load_source(spec)
    # Each point has its own index-derived seed, so a point's output does
    # not depend on the other points in the grid.
    configs = [
        _pipeline_config(spec, delta, _frontier_child_seed(spec.seed, index))
        for index, delta in enumerate(spec.delta_grid)
    ]
    sweep = _sweep(spec.method, spec.blind, train, test, configs)
    return [[c.delta, t, m["accuracy"], m["dd"], m["do"], m["pd"]]
            for c, (t, _, m) in zip(configs, sweep)]


def cmd_frontier(spec: ExperimentSpec) -> list[list[object]]:
    """One CSV row per budget: delta, t, accuracy, and the three gaps."""
    if spec.delta_grid is None:
        raise IngestError("frontier needs --delta-grid")
    if spec.data is None:
        raise IngestError("frontier needs --data")
    if spec.data.endswith(".json"):
        rows = _closed_frontier_rows(spec)
    else:
        rows = _empirical_frontier_rows(spec)

    def emit(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["delta", "t", "accuracy", "dd", "do", "pd"])
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])

    _write(spec.out, emit)
    return rows


def cmd_synthetic(spec: ExperimentSpec) -> dict:
    """Desk-scale study on the bundled (or a saved) synthetic model.

    Runs every pipeline on one sampled train/test pair for each group-aware
    measure and budget, next to the closed-form reference values.
    """
    if spec.blind:
        raise IngestError("synthetic runs the group-aware study")
    model = default_model() if spec.data is None else load_model(spec.data)
    deltas = spec.delta_grid if spec.delta_grid is not None else _SYNTHETIC_DELTAS
    train, test = _model_samples(model, spec.seed)
    # The references solve at the default tolerance, whatever --tol is.
    references = [(name, ref) for name, kind in _KIND_NAMES.items()
                  for ref in _closed_frontier(model, kind, deltas, DEFAULT_TOL)]
    configs = [FairFitConfig(_KIND_NAMES[name], ref.delta, spec.tol, spec.seed)
               for name, ref in references]
    rows = []
    for method in _METHOD_RUNNERS:
        sweep = _sweep(method, False, train, test, configs)
        for (name, ref), (t_hat, _, metrics) in zip(references, sweep):
            rows.append({
                "method": method, "disparity": name, "delta": ref.delta, "t_hat": t_hat,
                "accuracy": metrics["accuracy"], "achieved": metrics[name], "theory_t": ref.t,
                "theory_accuracy": 1.0 - ref.risk, "theory_disparity": ref.disparity,
            })
    document = {
        "command": "synthetic",
        "seed": spec.seed,
        "tol": spec.tol,
        "n_train": _MODEL_TRAIN_N,
        "n_test": _MODEL_TEST_N,
        "deltas": list(deltas),
        "sigma": model.sigma,
        "dim": model.dim,
        "rows": rows,
    }
    _write_json(document, spec.out)
    return document


def cmd_oracle_check(spec: ExperimentSpec) -> int:
    """Run the consistency suites; print summaries; nonzero exit on failure."""
    failures: list[str] = []
    print(check_discrete_suite(spec.seed, failures))
    print(check_grid_suite(failures))
    print(check_eqodds_suite(failures))
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        print(f"oracle-check: {len(failures)} failure(s)")
        return 1
    print("oracle-check: all suites passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _env_seed() -> int:
    value = os.environ.get(SEED_ENV)
    if value is None:
        return 0
    try:
        return int(value)
    except ValueError:
        raise IngestError(f"{SEED_ENV} must be an integer, got {value!r}") from None


def _parse_delta_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairthresh",
        description="Disparity-controlled classification: fit, sweep, and check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_out: bool = True, with_tol: bool = True) -> None:
        p.add_argument("--seed", type=int, help=f"base seed (default: ${SEED_ENV} or 0)")
        if with_tol:
            p.add_argument(
                "--tol",
                type=float,
                help="bisection tolerance of fuds, fcsc and closed-form frontiers "
                "(fpir solves exactly)",
            )
        if with_out:
            p.add_argument("--out", help="output path (default: stdout)")

    def add_data(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True, help="CSV dataset or saved model (.json)")
        p.add_argument("--label-col", help="label column name (CSV)")
        p.add_argument("--protected-col", help="protected column name (CSV)")
        p.add_argument("--split", type=float, help="train fraction for CSV sources")

    def add_method(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", choices=tuple(_METHOD_RUNNERS))
        p.add_argument("--disparity", dest="kind_name", choices=tuple(_KIND_NAMES))
        p.add_argument(
            "--blind",
            action="store_true",
            help="control the measure without using the group at prediction time",
        )

    # Absent options stay out of the namespace: ExperimentSpec holds the defaults.
    add_parser = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    fit = add_parser("fit", help="train one pipeline and write a JSON report")
    add_data(fit)
    add_method(fit)
    fit.add_argument("--delta", type=float, help="disparity budget")
    add_common(fit)

    frontier = add_parser("frontier", help="sweep budgets into a CSV frontier")
    add_data(frontier)
    add_method(frontier)
    frontier.add_argument(
        "--delta-grid",
        type=_parse_delta_grid,
        required=True,
        help="comma-separated ascending budgets, e.g. 0,0.1,0.2",
    )
    add_common(frontier)

    synthetic = add_parser("synthetic", help="desk-scale study on the bundled synthetic model")
    synthetic.add_argument("--data", help="saved model (.json); default bundled")
    synthetic.add_argument(
        "--delta-grid",
        type=_parse_delta_grid,
        help="comma-separated ascending budgets (default 0,0.1,0.2,0.3)",
    )
    add_common(synthetic)

    oracle = add_parser("oracle-check", help="run solver-versus-oracle suites")
    add_common(oracle, with_out=False, with_tol=False)

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    seed = args.seed if "seed" in args else _env_seed()
    return ExperimentSpec(**{**vars(args), "seed": seed})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if spec.command == "oracle-check":
            return cmd_oracle_check(spec)
        {"fit": cmd_fit, "frontier": cmd_frontier, "synthetic": cmd_synthetic}[spec.command](spec)
        return 0
    except (DisparityError, SolverError, FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
