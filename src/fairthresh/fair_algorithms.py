"""Fairness pipelines: resampling, cost reweighting, and plug-in thresholding.

All three pipelines look for the smallest |t| at which an empirical
disparity curve meets the budget.  The curve at t scores the classifier for
t on the original training rows, where the group ids and labels are
observed, so the same plug-in estimate drives aware and blind runs alike.
The pipelines differ in how the classifier at t is produced:

- the resampling (fuds) and cost-reweighting (fcsc) pipelines bisect t on
  one refit curve: an unconstrained learner refit with each (group, label)
  cell's rows reweighted at t, by their multiplicities in a draw at tilted
  cell proportions (fuds) or by the cell's misclassification cost (fcsc);
- the plug-in pipeline fits regression estimates once and only moves
  decision thresholds.  Its curve is a step function with one step per
  row, so it is solved exactly from the sorted steps, with no bisection or
  tolerance, and the rows on the boundary are randomized to land the
  budget exactly.  A dataset keeps the per-row inputs of the last plug-in
  rule scored on it (its plug-in slot), so a budget sweep predicts each
  row set once and sorts once per measure.

Aware runs read the group id at decision time.  Blind runs fit rules on
features alone; the group id is still used during training to measure the
disparity being controlled.  A blind plug-in rule reads the same
group-aware regression as an aware one, mixed over the groups by a fitted
group posterior P(A=1|x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .core import (
    BlindKind,
    DisparityError,
    DisparityKind,
    DomainError,
    EstimationError,
    GroupStats,
    bilinear_coeffs,
    cost_weights,
    natural_domain,
    threshold,
)
from .estimators import (
    MODE_AWARE,
    MODE_BLIND_A,
    LabeledDataset,
    ProbModel,
    _WarmStart,
    fit_group_models,
    fit_logistic,
    fitted_decisions,
    predict_proba,
)
from .discrete import Breakpoints
from .solver import DEFAULT_TOL, BracketError, DisparityCurve, bisect, solve_threshold

__all__ = [
    "FairFitConfig",
    "FairClassifier",
    "fuds_proportions",
    "fuds_cell_counts",
    "fuds_resample",
    "run_fuds",
    "run_fcsc",
    "run_fpir",
    "evaluate",
]

_CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))
# Smallest per-cell row count a refit can digest; the resampling bracket is
# clamped so no evaluation produces an emptier cell.
_MIN_CELL_ROWS = 1
# Absorbs product round-off when n * proportion is an exact integer, as at
# the baseline t = 0 where the targets must recover the original counts.
_FLOOR_NUDGE = 1e-9


@dataclass(frozen=True)
class FairFitConfig:
    """Settings shared by the three pipeline runners.

    kind selects the disparity measure; a blind kind makes a blind run, whose
    fitted rule reads features only.  delta is the disparity budget; fuds
    and fcsc bisect t to solver.DEFAULT_TOL, and fpir solves exactly.  seed
    fixes the row ordering fuds draws each cell from, the same at every t.
    Every fit uses the default learner and runs to convergence.  The t = 0
    fit starts from zero; every other refit starts one Newton step from it,
    taken for the cell weights at t (estimators._WarmStart).  So a refit at
    t depends only on t and the data.
    """

    kind: DisparityKind | BlindKind
    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, (DisparityKind, BlindKind)):
            raise DisparityError(f"kind must be a disparity kind, got {self.kind!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise DisparityError(f"delta must be finite and nonnegative, got {self.delta!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DisparityError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def mode(self) -> str:
        """The run's mode: "blind" for a blind kind, else "aware"."""
        return "blind" if isinstance(self.kind, BlindKind) else "aware"

    @property
    def base_kind(self) -> DisparityKind:
        """The group-aware measure the run controls."""
        return self.kind.base if isinstance(self.kind, BlindKind) else self.kind


@dataclass(frozen=True)
class FairClassifier:
    """Thresholded plug-in rule, randomized on its boundary.

    A row with score eta and disparity weight w is accepted when
    2*eta - 1 > t*w: when its flip point r = (2*eta - 1) / w lies above t
    (w > 0) or below t (w < 0), with probability tau_plus or tau_minus when
    r == t, and when eta > 1/2 if w == 0.  Aware rules route eta by group
    and weigh by s_a*eta + b_a, so they need the group vector to decide.
    Blind rules ignore the group vector: they mix the group regressions
    eta_groups by the group posterior eta_a (_blind_inputs).
    """

    kind: DisparityKind | BlindKind
    t: float
    stats: GroupStats
    eta_groups: ProbModel
    eta_a: ProbModel | None = None
    tau_plus: float = 0.0
    tau_minus: float = 0.0

    def inputs(self, x: np.ndarray, a: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Score and disparity weight of each row."""
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        if isinstance(self.kind, BlindKind):
            return _blind_inputs(self.kind, self.stats, x2, self.eta_a, self.eta_groups)
        if a is None:
            raise DisparityError("aware rule needs the group id vector to decide")
        a_arr = np.asarray(a)
        score = np.asarray(predict_proba(self.eta_groups, x2, a_arr), dtype=float)
        one = a_arr == 1
        s, b = (np.where(one, c[1], c[0]) for c in bilinear_coeffs(self.kind, self.stats))
        return score, s * score + b

    def decide(self, x: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        return _decide(_RuleInputs.build(*self.inputs(x, a)), self.t, self.tau_plus, self.tau_minus)

    __call__ = decide


@dataclass(eq=False)
class _RuleInputs:
    """What a plug-in rule's decisions on a row set read at any t: each row's
    flip point r = (2*score - 1) / w (0 where w == 0), whether w > 0, the
    w == 0 rows and whether each is accepted (score > 1/2).  decide builds
    them without a rule and keeps nothing.  In a dataset's plug-in slot,
    rule is the key: its models and kind by identity, its stats by value.
    On training rows run_fpir adds the sorted steps and their unit."""

    flips: np.ndarray
    positive: np.ndarray
    inert: np.ndarray
    kept: np.ndarray
    rule: FairClassifier | None = None
    steps: Breakpoints | None = None
    scale: int = 0

    @classmethod
    def build(cls, score: np.ndarray, w: np.ndarray, rule: FairClassifier | None = None):
        inert = np.flatnonzero(w == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            flips = (2.0 * score - 1.0) / w
        flips[inert] = 0.0
        return cls(flips, w > 0, inert, score[inert] > 0.5, rule)

    def holds(self, rule: FairClassifier) -> bool:
        key = self.rule
        return key.kind is rule.kind and key.stats == rule.stats and all(
            getattr(key, m) is getattr(rule, m) for m in ("eta_groups", "eta_a")
        )


def _decide(
    inputs: _RuleInputs, t: float, tau_plus: float = 0.0, tau_minus: float = 0.0
) -> np.ndarray:
    """The decision kernel: accept where r lies above t (w > 0) or below it
    (w < 0), with tau_plus or tau_minus where r == t; w == 0 rows are set last."""
    r, positive = inputs.flips, inputs.positive
    f = np.where(positive, r > t, r < t).astype(float)
    tie = np.flatnonzero(r == t)
    f[tie] = np.where(positive[tie], tau_plus, tau_minus)
    f[inputs.inert] = inputs.kept
    return f


def _slot_inputs(rule: FairClassifier, data: LabeledDataset) -> _RuleInputs:
    """rule's inputs on data's rows, read from data's plug-in slot when it
    holds them; otherwise computed, read-only, into the slot's one entry."""
    slot = data._plug_in
    if slot and slot[0].holds(rule):
        return slot[0]
    slot.clear()  # freed before its replacement is built
    entry = _RuleInputs.build(*rule.inputs(data.x, data.a), rule)
    for array in (entry.flips, entry.positive, entry.inert, entry.kept):
        array.setflags(write=False)
    slot.append(entry)
    return entry


def fuds_proportions(
    stats: GroupStats, kind: DisparityKind | BlindKind, t: float
) -> dict[tuple[int, int], float]:
    """Tilted cell proportions whose unconstrained Bayes rule is fair at t.

    Each cell's mass is scaled by its cost at t (cost_weights, the costs
    fcsc fits with), then renormalized within each group for aware kinds,
    keeping the group marginals, and over all cells for blind kinds.  Keys
    are (group, label) pairs; values sum to 1.
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return {cell: stats.p(*cell) for cell in _CELLS}
    mass = {cell: cost_weights(kind, stats, *cell, t) * stats.p(*cell) for cell in _CELLS}
    for (a, y), m in mass.items():
        if m < 0.0:
            lo, hi = natural_domain(kind, stats)
            raise DomainError(
                f"cell (a={a}, y={y}) mass {m!r} < 0 for {kind.name}: t={t!r} is outside "
                f"the valid bracket [{lo!r}, {hi!r}]"
            )
    if isinstance(kind, BlindKind):
        total = math.fsum(mass.values())
        return {cell: m / total for cell, m in mass.items()}
    scale = {a: stats.p_group(a) / (mass[a, 1] + mass[a, 0]) for a in (1, 0)}
    return {(a, y): m * scale[a] for (a, y), m in mass.items()}


def fuds_cell_counts(
    n: int, proportions: Mapping[tuple[int, int], float]
) -> dict[tuple[int, int], int]:
    """Floor cell sizes floor(n * proportion) of an n-row resample."""
    if n < 1:
        raise DisparityError(f"resample size must be at least one row, got {n}")
    counts = {}
    for cell in _CELLS:
        p = proportions[cell]
        if not (math.isfinite(p) and p >= 0.0):
            raise DisparityError(f"proportion for cell {cell} must be nonnegative, got {p!r}")
        counts[cell] = int(math.floor(n * p + _FLOOR_NUDGE))
    return counts


def fuds_resample(
    dataset: LabeledDataset, targets: Mapping[tuple[int, int], int], seed: int
) -> np.ndarray:
    """How many times a resample with exact per-cell row counts draws each row.

    A pure function of its arguments.  Each cell takes the first k rows of
    one seeded ordering of its source rows, from a dedicated child stream of
    the seed: up to the cell's size, a permutation; past it, every source
    row followed by a with-replacement stream.  So the multiplicities at a
    smaller count are at most those at a larger one, row by row, and counts
    equal to the cell sizes draw every row once.  Fitting with the weights
    scaled by the multiplicities fits the resample without copying rows.
    """
    drawn = []
    for child, cell in zip(np.random.SeedSequence(seed).spawn(len(_CELLS)), _CELLS):
        target = int(targets[cell])
        if target < 0:
            raise DisparityError(f"target count for cell {cell} must be nonnegative, got {target}")
        source = dataset.rows(*cell)
        if target > 0 and source.size == 0:
            raise EstimationError(
                f"cell (a={cell[0]}, y={cell[1]}) has no source rows but a target count of {target}"
            )
        rng = np.random.default_rng(child)
        if target <= source.size:
            # permutation refuses an empty read-only array; there is nothing to draw.
            drawn.append(rng.permutation(source)[:target] if source.size else source)
        else:
            drawn.append(np.concatenate([source, rng.choice(source, size=target - source.size)]))
    return np.bincount(np.concatenate(drawn), minlength=len(dataset))


def _blind_inputs(
    kind: BlindKind, stats: GroupStats, x: np.ndarray, eta_a: ProbModel, eta_groups: ProbModel
) -> tuple[np.ndarray, np.ndarray]:
    """Score and disparity weight of blind threshold rules: the mixtures
    sum_a P(A=a|x) * eta_a(x), which is P(Y=1|x) by total probability, and
    sum_a P(A=a|x) * w(eta_a(x), a), w the base measure's weight."""
    s, b = bilinear_coeffs(kind.base, stats)
    ga = np.asarray(predict_proba(eta_a, x), dtype=float)
    score = weight = 0.0
    for a, pa in ((1, ga), (0, 1.0 - ga)):
        eta = predict_proba(eta_groups, x, a)
        score = score + pa * eta
        weight = weight + pa * (s[a] * eta + b[a])
    return score, weight


# The label of the rows each measure compares across groups (None: all rows).
_MEASURE_LABEL = {DisparityKind.DD: None, DisparityKind.DO: 1, DisparityKind.PD: 0}


def _measure_cells(kind: DisparityKind, data: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the two cells a measure compares, group 1 then group 0:
    DD compares whole groups, DO their label-1 rows, PD their label-0 rows;
    the measure is the first cell's acceptance rate minus the second's."""
    y = _MEASURE_LABEL[kind]
    return data.rows(1, y), data.rows(0, y)


def _tally(f: np.ndarray, rows: np.ndarray) -> tuple[float, int]:
    """f's sum over the ascending rows, the pairwise sum np.mean takes, and their count."""
    return np.add.reduce(f[rows]), rows.size


def _gap(one: tuple[float, int], zero: tuple[float, int]) -> float | None:
    """k1/n1 - k0/n0 of two tallies; None if a cell is empty."""
    (k1, n1), (k0, n0) = one, zero
    return float(k1 / n1 - k0 / n0) if n1 and n0 else None


def _rate_gap(kind: DisparityKind, data: LabeledDataset, f: np.ndarray) -> float | None:
    """The measure as a gap of two masked-mean acceptance rates; None if a cell is empty."""
    return _gap(*(_tally(f, rows) for rows in _measure_cells(kind, data)))


def _cells_json(values: Mapping[tuple[int, int], float | int]) -> dict[str, float | int]:
    return {f"{a}{y}": values[(a, y)] for a, y in _CELLS}


def _cell_values(dataset: LabeledDataset, values: Mapping[tuple[int, int], float]) -> np.ndarray:
    """Each row's value of its (group, label) cell."""
    w = np.empty(len(dataset))
    for cell, c in values.items():
        w[dataset.rows(*cell)] = c
    return w


class _RefitCurve:
    """D at t of the learner refit on the training rows with each (group,
    label) cell's weights scaled at t: by its resample count over its size
    for fuds (the rows weighted by their draw multiplicities), by its cost
    for fcsc.  Each call adds a trace entry.  fits keeps each fit and its D
    by the cell multipliers, with the t = 0 fit made here; every other fit
    starts from warm's Newton step for its multipliers.  So no value
    depends on the points evaluated before it, and at(t) reads back the fit
    at an evaluated t.
    """

    def __init__(self, dataset: LabeledDataset, config: FairFitConfig, method: str) -> None:
        self.dataset, self.config, self.method = dataset, config, method
        self.sizes = [len(dataset.rows(*cell)) for cell in _CELLS]
        self.stats = GroupStats.from_counts(*self.sizes)
        self.trace: list[dict] = []
        multipliers, factor, _ = self._weights(0.0)
        origin = self._fit(factor())
        self.fits = {tuple(multipliers.values()): origin}
        self.warm = _WarmStart(dataset, origin[0])

    def _counts(self, t: float) -> dict[tuple[int, int], int]:
        return fuds_cell_counts(len(self.dataset), fuds_proportions(self.stats, self.config.kind, t))

    def _weights(self, t: float) -> tuple[dict, Callable[[], np.ndarray], dict]:
        """The cell multipliers at t, a function making the rows' weight
        factors (called only for a new fit) and the report's entry for t."""
        if self.method == "fcsc":
            table = {cell: cost_weights(self.config.kind, self.stats, *cell, t) for cell in _CELLS}
            factor = partial(_cell_values, self.dataset, table)
            return table, factor, {"cost_table": _cells_json(table)}
        targets = self._counts(t)
        scale = {cell: k / size for (cell, k), size in zip(targets.items(), self.sizes)}
        factor = partial(fuds_resample, self.dataset, targets, self.config.seed)
        return scale, factor, {"cell_counts": _cells_json(targets)}

    def viable(self, t: float) -> bool:
        """Whether every cell of the resample at t keeps _MIN_CELL_ROWS rows."""
        try:
            return min(self._counts(t).values()) >= _MIN_CELL_ROWS
        except DomainError:
            return False

    def _fit(self, factor: np.ndarray, start: ProbModel | None = None):
        """The fit on the training rows with their weights times factor, and its D."""
        data = self.dataset.with_weights(self.dataset.weight * factor)
        if isinstance(self.config.kind, BlindKind):
            model = fit_logistic(data, start=start)
        else:
            model = fit_group_models(data, MODE_AWARE, start=start)
        return model, _rate_gap(self.config.base_kind, self.dataset, fitted_decisions(model, data))

    def __call__(self, t: float) -> float:
        multipliers, factor, entry = self._weights(t)
        key = tuple(multipliers.values())
        if key not in self.fits:
            self.fits[key] = self._fit(factor(), self.warm.start(multipliers))
        d = self.fits[key][1]
        traced = entry if self.method == "fuds" else {}
        self.trace.append({"call": len(self.trace), "t": t, "disparity": d, **traced})
        return d

    def at(self, t: float) -> tuple[ProbModel, dict]:
        """The fit at an evaluated t and its report entry: no refit, no trace."""
        multipliers, _, entry = self._weights(t)
        return self.fits[tuple(multipliers.values())][0], entry


def _build_curve(dataset: LabeledDataset, config: FairFitConfig, method: str) -> DisparityCurve:
    """The refit curve a pipeline bisects, with its t = 0 fit made.  fcsc's
    bracket is the natural domain, edges shrunk.  fuds's is clamped to where
    every resampled cell stays viable, which moves both edges (at each, one
    cell's tilted cost is 0); viability is monotone from the always viable
    t = 0 toward either edge, so one 60-step bisection finds each end."""
    refit = _RefitCurve(dataset, config, method)
    dom = natural_domain(config.base_kind, refit.stats)
    if method == "fcsc":
        return DisparityCurve.from_domain(refit, dom)
    lo, hi = (bisect(refit.viable, 0.0, edge, steps=60)[0] for edge in dom)
    return DisparityCurve(fn=refit, t_lo=lo, t_hi=hi)


def _fpir_prepare(
    dataset: LabeledDataset, config: FairFitConfig, stats: GroupStats, model: ProbModel | None
) -> FairClassifier:
    """The plug-in rule on the prefit group-aware model, or on one fitted
    here; a blind rule also fits the group posterior P(A=1|x).  A slot rule on
    the same model, kind and stats is reused, posterior included, t ignored."""
    if model is None:
        model = fit_group_models(dataset, MODE_AWARE)
    elif model.mode != MODE_AWARE:
        raise DisparityError(f"plug-in rule needs a group-aware model, got mode {model.mode!r}")
    for key in (entry.rule for entry in dataset._plug_in):
        if key.eta_groups is model and key.kind is config.kind and key.stats == stats:
            return key
    eta_a = fit_group_models(dataset, MODE_BLIND_A) if isinstance(config.kind, BlindKind) else None
    return FairClassifier(kind=config.kind, t=0.0, stats=stats, eta_groups=model, eta_a=eta_a)


def _fpir_steps(inputs: _RuleInputs, dataset: LabeledDataset, kind: DisparityKind) -> Breakpoints:
    """The sorted steps of the training rows' D, in units of 1/inputs.scale.

    Train disparity is a difference of two cell acceptance rates,
    k_A/n_A - k_B/n_B, so a row adds n_B (cell A) or -n_A (cell B) to
    n_A*n_B*D and every sum is an integer.  The rows are sorted unless the
    inputs already hold the sort, which then stays with them.
    """
    if inputs.steps is None:
        rows_a, rows_b = _measure_cells(kind, dataset)
        n_a, n_b = len(rows_a), len(rows_b)
        units = np.zeros(len(dataset), dtype=int)
        units[rows_a], units[rows_b] = n_b, -n_a
        # A row with w == 0 never flips (accepted when score > 1/2): it joins
        # the base and enters the sort as an inert item at 0.
        base = int(units[inputs.inert[inputs.kept]].sum())
        units[inputs.inert] = 0
        inputs.steps = Breakpoints.sort(inputs.flips, inputs.positive, units, base)
        inputs.scale = n_a * n_b
    return inputs.steps


def _report(
    method: str,
    dataset: LabeledDataset,
    config: FairFitConfig,
    stats: GroupStats,
    solve: Mapping,
    decisions: np.ndarray,
    trace: list[dict],
) -> dict:
    """The run's report.  solve holds the search's fields, bracket to
    at_bracket_edge.  Train metrics score the decisions the caller already
    holds for the training rows (fpir: from the solve's own scores), so no
    rule predicts those rows a second time."""
    report = {
        "method": method,
        "kind": config.kind.value,
        "mode": config.mode,
        "delta": float(config.delta),
        "seed": config.seed,
        "n_train": len(dataset),
        "stats": _cells_json({cell: stats.p(*cell) for cell in _CELLS}),
        **solve,
        "train_metrics": _metrics(decisions, dataset),
        "trace": list(trace),
    }
    if not isinstance(config.kind, BlindKind):
        report["thresholds"] = {
            "group0": threshold(config.kind, stats, 0, solve["t_hat"]),
            "group1": threshold(config.kind, stats, 1, solve["t_hat"]),
        }
    return report


def _run_refit(method: str, dataset: LabeledDataset, config: FairFitConfig):
    curve = _build_curve(dataset, config, method)
    try:
        result = solve_threshold(curve, config.delta)
    except BracketError as exc:
        blind = "a blind refit thresholds one logistic score at 1/2"
        if method == "fuds":
            cause = "the fuds bracket ends where a resampled (group, label) cell would empty"
            if config.mode == "blind":
                cause += f", and {blind}"
            other = "fcsc or fpir"
        elif config.mode == "blind":
            cause, other = blind, "fpir"
        else:
            raise
        raise BracketError(
            f"{exc}; {cause}, so here it cannot reach the budget (try --method {other})"
        ) from exc
    t_hat = result.t_star
    model, report_extra = curve.fn.at(t_hat)
    margin = 4.0 * DEFAULT_TOL
    solve = {
        "bracket": {"lo": curve.t_lo, "hi": curve.t_hi, "clamped": method == "fuds"},
        "t_hat": t_hat,
        "disparity_at_t_hat": result.d_at_t,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "at_bracket_edge": t_hat != 0.0 and min(curve.t_hi - t_hat, t_hat - curve.t_lo) <= margin,
    }
    decisions = fitted_decisions(model, dataset)
    report = _report(method, dataset, config, curve.fn.stats, solve, decisions, curve.fn.trace)
    report.update(report_extra)
    return model, t_hat, report


def run_fuds(dataset: LabeledDataset, config: FairFitConfig) -> tuple[ProbModel, float, dict]:
    """Resampling pipeline: bisect t to solver.DEFAULT_TOL, refitting on tilted
    resamples (the training rows weighted by their draw multiplicities).

    Returns the model fitted at the solved t (decisions threshold its
    predictions at 1/2), the solved t, and a report.  When delta already
    holds at t = 0 the baseline fit is returned without bisection.  Its
    bracket stops short of both domain edges, where a cell would empty.
    A run whose bracket cannot reach the budget raises BracketError, which
    names the cause.
    """
    return _run_refit("fuds", dataset, config)


def run_fcsc(dataset: LabeledDataset, config: FairFitConfig) -> tuple[ProbModel, float, dict]:
    """Cost-reweighting pipeline: bisect t to DEFAULT_TOL, refitting with per-cell costs.

    Returns the model fitted at the solved t, the solved t, and a report
    that includes the final cost table.  At t = 0 every cost is 1/2 and
    the fit coincides with the unconstrained one.  Unreachable budgets
    raise BracketError, which names the cause on blind runs.
    """
    return _run_refit("fcsc", dataset, config)


def run_fpir(
    dataset: LabeledDataset,
    config: FairFitConfig,
    model: ProbModel | None = None,
) -> tuple[FairClassifier, float, dict]:
    """Plug-in pipeline: fit regressions once, then solve the thresholds exactly.

    Every run reads a group-aware model, prefit or fitted here when absent;
    a blind run also fits the group posterior P(A=1|x) and mixes the
    group regressions by it, so its rule reads features alone.  The
    solve returns the smallest-|t| rule meeting the budget on the training
    rows, randomizing the rows on its boundary (tau_plus, tau_minus) so the
    train disparity lands on the budget; no tolerance applies.  The report's
    bracket is the range the solve searched, from the least to the greatest
    flip point (0 included); at_bracket_edge flags a nonzero t_hat on one of
    its ends, where the budget was met only at the last flip point.  Its
    train metrics score the solve's own flip points, not a second
    prediction on the training rows, and give the measured kind's gap as
    the solve's exact D, rounded once (a float mean of the fractional
    decisions can round past delta).

    Every call, blind ones included, reads the training rows' flip points,
    weight signs, inert rows and sorted steps from the dataset's plug-in
    slot or fills it with them; they stay, read-only, until a rule with
    other models, kind or stats is scored on those rows, or the dataset is
    freed.  A call without a model fits a new one, so it replaces the entry;
    a later call with the same prefit model and kind reuses the entry's rule,
    a blind one's posterior included, and only searches the sorted sums and
    compares flip points with t_hat.
    """
    stats = GroupStats.from_counts(*(len(dataset.rows(*cell)) for cell in _CELLS))
    rule = _fpir_prepare(dataset, config, stats, model)
    inputs = _slot_inputs(rule, dataset)
    steps = _fpir_steps(inputs, dataset, config.base_kind)
    t, tau_plus, tau_minus, d = steps.solve(Fraction(config.delta) * inputs.scale)
    t_hat = float(t)
    classifier = replace(rule, t=t_hat, tau_plus=float(tau_plus), tau_minus=float(tau_minus))
    lo, hi = float(steps.ratios[0]), float(steps.ratios[-1])
    solve = {
        "bracket": {"lo": lo, "hi": hi, "clamped": False},
        "t_hat": t_hat,
        "disparity_at_t_hat": float(d / inputs.scale),
        "iterations": 0,
        "evaluations": 0,
        "converged": True,
        "at_bracket_edge": t_hat != 0.0 and t_hat in (lo, hi),
    }
    decisions = _decide(inputs, t_hat, classifier.tau_plus, classifier.tau_minus)
    report = _report("fpir", dataset, config, stats, solve, decisions, [])
    report["train_metrics"][config.base_kind.value] = solve["disparity_at_t_hat"]
    report["tau_plus"], report["tau_minus"] = classifier.tau_plus, classifier.tau_minus
    return classifier, t_hat, report


def _decision_values(classifier, test: LabeledDataset) -> np.ndarray:
    if isinstance(classifier, FairClassifier):
        inputs = _slot_inputs(classifier, test)
        f = _decide(inputs, classifier.t, classifier.tau_plus, classifier.tau_minus)
    elif isinstance(classifier, ProbModel):
        # Blind models ignore the group vector.
        f = (np.asarray(predict_proba(classifier, test.x, test.a), dtype=float) > 0.5).astype(float)
    elif callable(classifier):
        f = np.asarray(classifier(test.x, test.a), dtype=float)
    else:
        raise DisparityError(f"cannot score classifier of type {type(classifier).__name__}")
    if f.shape != (len(test),):
        raise DisparityError(f"classifier returned shape {f.shape}, expected ({len(test)},)")
    if not np.all(np.isfinite(f)) or np.any((f < 0.0) | (f > 1.0)):
        raise DisparityError("decisions must lie in [0, 1]")
    return f


def evaluate(classifier, test: LabeledDataset) -> dict[str, float | None]:
    """Accuracy and the three disparity gaps of a classifier on a test set.

    Rates are plug-in conditional frequencies of the test rows, read from
    sums of the decisions over each (group, label) cell and group: every gap
    is the same float as a difference of masked means, and accuracy is
    exact for 0/1 decisions.  A metric whose conditioning cell is empty is
    None, not 0.  Fractional decisions are acceptance probabilities.

    A FairClassifier's flip points on the test rows are kept in test's
    plug-in slot (see run_fpir), so evaluating rules that differ only in t
    and the tau, as a budget sweep does, predicts those rows once.
    """
    if len(test) == 0:
        raise EstimationError("empty test set: metrics undefined")
    return _metrics(_decision_values(classifier, test), test)


def _metrics(f: np.ndarray, data: LabeledDataset) -> dict[str, float | None]:
    """Accuracy and the three disparity gaps of decisions f on data's rows,
    from f's tallies over the four (group, label) cells and the two groups:
    accuracy is the label-1 sums plus the label-0 sizes minus sums, over n."""
    tally = {(a, y): _tally(f, data.rows(a, y)) for a in (1, 0) for y in (1, 0, None)}
    correct = sum(k if y else n - k for (_, y), (k, n) in tally.items() if y is not None)
    return {
        "accuracy": float(correct / len(data)),
        **{kind.value: _gap(tally[1, y], tally[0, y]) for kind, y in _MEASURE_LABEL.items()},
    }
