"""Fairness pipelines: resampling, cost reweighting, and plug-in thresholding.

All three pipelines look for the smallest |t| at which an empirical
disparity curve meets the budget.  The curve at t scores the classifier for
t on the original training rows, where the group ids and labels are
observed, so the same plug-in estimate drives aware and blind runs alike.
The pipelines differ in how the classifier at t is produced:

- the resampling pipeline redraws the training set to tilted cell
  proportions and refits an unconstrained learner, bisecting t;
- the cost-reweighting pipeline refits on the original rows with per-cell
  misclassification costs, bisecting t;
- the plug-in pipeline fits regression estimates once and only moves
  decision thresholds.  Its curve is a step function with one step per
  row, so it is solved exactly from the sorted steps, and the rows on the
  boundary are randomized to land the budget exactly.

Aware runs read the group id at decision time.  Blind runs fit rules on
features alone; the group id is still used during training to measure the
disparity being controlled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

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
    fit_group_models,
    fit_logistic,
    predict_proba,
)
from .discrete import solve_breakpoints
from .solver import DEFAULT_TOL, DisparityCurve, SolveResult, bisect, solve_threshold

__all__ = [
    "FairFitConfig",
    "FairClassifier",
    "fuds_proportions",
    "fuds_cell_counts",
    "fuds_resample",
    "blind_cost_weights",
    "empirical_curve",
    "run_fuds",
    "run_fcsc",
    "run_fpir",
    "evaluate",
]

_CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))
_METHODS = ("fuds", "fcsc", "fpir")
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
    fitted rule reads features only.  delta is the disparity budget and tol
    the fuds/fcsc bisection resolution (fpir, solved exactly, uses it only
    for its bracket-edge margin).  seed fixes the row ordering fuds draws
    each cell from, the same at every t.  Every fit uses the default learner;
    each refit starts afresh and runs to convergence, so a refit at t depends
    only on the data the pipeline builds for t.
    """

    kind: DisparityKind | BlindKind
    delta: float
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, (DisparityKind, BlindKind)):
            raise DisparityError(f"kind must be a disparity kind, got {self.kind!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise DisparityError(f"delta must be finite and nonnegative, got {self.delta!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DisparityError(f"tol must be positive, got {self.tol!r}")
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
    Blind rules use the label regression and a feature-level weight built
    from the estimated group posterior, and ignore the group vector.
    """

    kind: DisparityKind | BlindKind
    t: float
    stats: GroupStats
    eta_groups: ProbModel | None = None
    eta_y: ProbModel | None = None
    eta_a: ProbModel | None = None
    tau_plus: float = 0.0
    tau_minus: float = 0.0

    def inputs(self, x: np.ndarray, a: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Score and disparity weight of each row."""
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        if isinstance(self.kind, BlindKind):
            score = np.asarray(predict_proba(self.eta_y, x2), dtype=float)
            return score, _blind_weight_values(self.kind, self.stats, x2, self.eta_a, self.eta_groups)
        if a is None:
            raise DisparityError("aware rule needs the group id vector to decide")
        a_arr = np.asarray(a)
        score = np.asarray(predict_proba(self.eta_groups, x2, a_arr), dtype=float)
        spec = bilinear_coeffs(self.kind, self.stats)
        s, b = (np.where(a_arr == 1, coeff[1], coeff[0]) for coeff in (spec.s, spec.b))
        return score, s * score + b

    def decide(self, x: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        score, w = self.inputs(x, a)
        return _plug_in_decisions(score, w, self.t, self.tau_plus, self.tau_minus)

    __call__ = decide


def _flip_points(score: np.ndarray, w: np.ndarray) -> np.ndarray:
    """t at which each row's decision flips: (2*score - 1) / w (not finite where w == 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (2.0 * score - 1.0) / w


def _plug_in_decisions(
    score: np.ndarray, w: np.ndarray, t: float, tau_plus: float = 0.0, tau_minus: float = 0.0
) -> np.ndarray:
    r = _flip_points(score, w)
    f = np.where(w > 0, np.where(r == t, tau_plus, r > t), np.where(r == t, tau_minus, r < t))
    return np.where(w == 0, score > 0.5, f).astype(float)


def _blind_tilt(kind: BlindKind, stats: GroupStats, a: int, y: int, t: float) -> float:
    """Relative mass change of cell (a, y) under the blind tilt at t."""
    sign = 2 * a - 1
    if kind is BlindKind.DD_X:
        return sign * (1 - 2 * y) * t / stats.p_group(a)
    if kind is BlindKind.DO_X:
        return -sign * y * t / stats.p(a, y)
    if kind is BlindKind.PD_X:
        return sign * (1 - y) * t / stats.p(a, y)
    raise DisparityError(f"unknown blind kind: {kind!r}")


def fuds_proportions(
    stats: GroupStats, kind: DisparityKind | BlindKind, t: float
) -> dict[tuple[int, int], float]:
    """Tilted cell proportions whose unconstrained Bayes rule is fair at t.

    Aware kinds rescale the two cells of each group by the acceptance
    threshold split and renormalize within the group, preserving group
    marginals.  Blind kinds tilt every cell and renormalize globally.
    Keys are (group, label) pairs; values sum to 1.
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return {cell: stats.p(*cell) for cell in _CELLS}
    if isinstance(kind, BlindKind):
        raw = {}
        for a, y in _CELLS:
            mass = (1.0 + _blind_tilt(kind, stats, a, y, t)) * stats.p(a, y)
            if mass < 0.0:
                lo, hi = natural_domain(kind, stats)
                raise DomainError(
                    f"cell (a={a}, y={y}) mass {mass!r} < 0 for {kind.name} at t={t!r}; "
                    f"valid bracket is [{lo!r}, {hi!r}]"
                )
            raw[(a, y)] = mass
        total = math.fsum(raw.values())
        return {cell: raw[cell] / total for cell in _CELLS}
    out: dict[tuple[int, int], float] = {}
    for a in (1, 0):
        h = threshold(kind, stats, a, t)
        if not 0.0 <= h <= 1.0:
            lo, hi = natural_domain(kind, stats)
            raise DomainError(
                f"group-{a} threshold {h!r} outside [0, 1] for {kind.name} at t={t!r}; "
                f"valid bracket is [{lo!r}, {hi!r}]"
            )
        keep1 = (1.0 - h) * stats.p(a, 1)
        keep0 = h * stats.p(a, 0)
        scale = stats.p_group(a) / (keep1 + keep0)
        out[(a, 1)] = keep1 * scale
        out[(a, 0)] = keep0 * scale
    return out


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
) -> LabeledDataset:
    """Resampled dataset with exact per-cell row counts, cells in fixed order.

    A pure function of its arguments.  Each cell takes the first k rows of
    one seeded ordering of its source rows, from a dedicated child stream of
    the seed: up to the cell's size, a permutation (the rows come back
    sorted); past it, every source row followed by a with-replacement
    stream.  So the rows drawn at a smaller count are a sub-multiset of
    those drawn at a larger one, and counts equal to the cell sizes return
    the training rows themselves, grouped by cell.
    """
    parts = []
    for child, cell in zip(np.random.SeedSequence(seed).spawn(len(_CELLS)), _CELLS):
        target = int(targets[cell])
        if target < 0:
            raise DisparityError(f"target count for cell {cell} must be nonnegative, got {target}")
        source = np.flatnonzero(dataset.cell_mask(*cell))
        if target > 0 and source.size == 0:
            raise EstimationError(
                f"cell (a={cell[0]}, y={cell[1]}) has no source rows but a target count of {target}"
            )
        rng = np.random.default_rng(child)
        if target <= source.size:
            parts.append(np.sort(rng.permutation(source)[:target]))
        else:
            parts.append(np.concatenate([source, rng.choice(source, size=target - source.size)]))
    return dataset.subset(np.concatenate(parts))


def blind_cost_weights(kind: BlindKind, stats: GroupStats, a: int, y: int, t: float) -> float:
    """Misclassification cost of cell (a, y) for blind cost-sensitive fits.

    Every cost is 1/2 at t = 0; tilted cells move in opposite directions
    across groups, shifting the minimizer's acceptance boundary without
    using the group id as a predictor.
    """
    if not isinstance(kind, BlindKind):
        raise DisparityError(f"expected a blind kind, got {kind!r}")
    return 0.5 + 0.5 * _blind_tilt(kind, stats, a, y, t)


def _blind_weight_values(
    kind: BlindKind,
    stats: GroupStats,
    x: np.ndarray,
    eta_a: ProbModel,
    eta_groups: ProbModel | None,
) -> np.ndarray:
    """Feature-level disparity weights for blind threshold rules."""
    ga = np.asarray(predict_proba(eta_a, x), dtype=float)
    if kind is BlindKind.DD_X:
        return ga / stats.p_group(1) - (1.0 - ga) / stats.p_group(0)
    n = len(np.atleast_2d(x))
    e1 = np.asarray(predict_proba(eta_groups, x, np.ones(n, dtype=int)), dtype=float)
    e0 = np.asarray(predict_proba(eta_groups, x, np.zeros(n, dtype=int)), dtype=float)
    if kind is BlindKind.DO_X:
        return e1 * ga / stats.p(1, 1) - e0 * (1.0 - ga) / stats.p(0, 1)
    if kind is BlindKind.PD_X:
        return (1.0 - e1) * ga / stats.p(1, 0) - (1.0 - e0) * (1.0 - ga) / stats.p(0, 0)
    raise DisparityError(f"unknown blind kind: {kind!r}")


class _CurveState:
    """Companion of an empirical curve: its inputs, the fits it made and a trace.

    Evaluations only record what they computed; no value depends on the
    points evaluated before it.
    """

    def __init__(self, dataset: LabeledDataset, config: FairFitConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.stats = GroupStats.from_labels(dataset.a, dataset.y)
        self.clamped = False
        self.trace: list[dict] = []
        self.payload: dict[float, tuple] = {}
        self.rule: FairClassifier | None = None
        self.score: np.ndarray | None = None
        self.w: np.ndarray | None = None


def _fit_learner(state: _CurveState, data: LabeledDataset) -> ProbModel:
    if isinstance(state.config.kind, BlindKind):
        return fit_logistic(data)
    return fit_group_models(data, MODE_AWARE)


def _measure_cells(
    kind: DisparityKind, a: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row masks of the two cells a measure compares, group 1 then group 0.

    DD compares whole groups, DO their label-1 rows, PD their label-0 rows;
    the measure is the first cell's acceptance rate minus the second's.
    """
    rows = True if kind is DisparityKind.DD else y == int(kind is DisparityKind.DO)
    return rows & (a == 1), rows & (a == 0)


def _rate_gap(kind: DisparityKind, data: LabeledDataset, f: np.ndarray) -> float | None:
    """The measure as a gap of two acceptance rates; None if a cell is empty."""
    cell_1, cell_0 = _measure_cells(kind, data.a, data.y)
    if not (cell_1.any() and cell_0.any()):
        return None
    return float(np.mean(f[cell_1]) - np.mean(f[cell_0]))


def _train_disparity(state: _CurveState, decisions: np.ndarray) -> float:
    return _rate_gap(state.config.base_kind, state.dataset, decisions)


def _cells_json(values: Mapping[tuple[int, int], float | int]) -> dict[str, float | int]:
    return {f"{a}{y}": values[(a, y)] for a, y in _CELLS}


def _fuds_eval(state: _CurveState, t: float) -> float:
    props = fuds_proportions(state.stats, state.config.kind, t)
    targets = fuds_cell_counts(len(state.dataset), props)
    data = fuds_resample(state.dataset, targets, state.config.seed)
    model = _fit_learner(state, data)
    d = _train_disparity(state, _decision_values(model, state.dataset))
    state.payload[t] = (model, targets)
    state.trace.append(
        {"call": len(state.trace), "t": t, "disparity": d, "cell_counts": _cells_json(targets)}
    )
    return d


def _fcsc_eval(state: _CurveState, t: float) -> float:
    kind = state.config.kind
    cost = blind_cost_weights if isinstance(kind, BlindKind) else cost_weights
    table = {(a, y): cost(kind, state.stats, a, y, t) for a, y in _CELLS}
    w = np.empty(len(state.dataset), dtype=float)
    for (a, y), c in table.items():
        w[state.dataset.cell_mask(a, y)] = c
    data = state.dataset.with_weights(state.dataset.weight * w)
    model = _fit_learner(state, data)
    d = _train_disparity(state, _decision_values(model, state.dataset))
    state.payload[t] = (model, table)
    state.trace.append({"call": len(state.trace), "t": t, "disparity": d})
    return d


def _fpir_prepare(state: _CurveState, model: ProbModel | None) -> None:
    ds = state.dataset
    cfg = state.config
    if isinstance(cfg.kind, BlindKind):
        if model is not None:
            raise DisparityError("blind plug-in rules fit their own regressions; pass model=None")
        models = {
            "eta_y": fit_logistic(ds),
            "eta_a": fit_group_models(ds, MODE_BLIND_A),
            "eta_groups": None if cfg.kind is BlindKind.DD_X else fit_group_models(ds, MODE_AWARE),
        }
    elif model is None:
        models = {"eta_groups": fit_group_models(ds, MODE_AWARE)}
    elif model.mode != MODE_AWARE:
        raise DisparityError(f"aware plug-in rule needs a group-aware model, got mode {model.mode!r}")
    else:
        models = {"eta_groups": model}
    state.rule = FairClassifier(kind=cfg.kind, t=0.0, stats=state.stats, **models)
    state.score, state.w = state.rule.inputs(ds.x, ds.a)


def _fpir_eval(state: _CurveState, t: float) -> float:
    d = _train_disparity(state, _plug_in_decisions(state.score, state.w, t))
    state.trace.append({"call": len(state.trace), "t": t, "disparity": d})
    return d


def _fpir_solve(state: _CurveState) -> tuple[float, Fraction, Fraction, Fraction]:
    """Exact smallest-|t| plug-in rule meeting the budget on the training rows.

    Train disparity is a difference of two cell acceptance rates,
    k_A/n_A - k_B/n_B, so a row adds n_B (cell A) or -n_A (cell B) to
    n_A*n_B*D and every sum is an integer.  Returns t, the two boundary
    fractions and D, exactly.
    """
    ds = state.dataset
    cell_a, cell_b = _measure_cells(state.config.base_kind, ds.a, ds.y)
    n_a, n_b = int(cell_a.sum()), int(cell_b.sum())
    # A row with w == 0 never flips (accepted when score > 1/2): it joins
    # the base and enters the solve as an inert item at 0.
    fixed = state.w == 0
    kept = fixed & (state.score > 0.5)
    t, tau_plus, tau_minus, d = solve_breakpoints(
        np.where(fixed, 0.0, _flip_points(state.score, state.w)),
        state.w > 0,
        np.where(fixed, 0, np.where(cell_a, n_b, 0) - np.where(cell_b, n_a, 0)),
        Fraction(state.config.delta) * n_a * n_b,
        base=n_b * int((kept & cell_a).sum()) - n_a * int((kept & cell_b).sum()),
    )
    return float(t), tau_plus, tau_minus, d / (n_a * n_b)


def _resample_feasible(state: _CurveState, t: float) -> bool:
    try:
        props = fuds_proportions(state.stats, state.config.kind, t)
    except DomainError:
        return False
    counts = fuds_cell_counts(len(state.dataset), props)
    return min(counts.values()) >= _MIN_CELL_ROWS


def _clamp_edge(state: _CurveState, outside: float) -> float:
    """Pull a domain endpoint inward until every resampled cell stays viable.

    Feasibility is monotone from 0 toward either endpoint (each cell's
    tilted mass is monotone in t), so a binary search from the always
    feasible baseline finds the boundary.
    """
    if _resample_feasible(state, outside):
        return outside
    good, _ = bisect(lambda t: _resample_feasible(state, t), 0.0, outside, steps=60)
    return good


def _build_curve(
    dataset: LabeledDataset,
    config: FairFitConfig,
    method: str,
    model: ProbModel | None = None,
) -> tuple[DisparityCurve, _CurveState]:
    if method not in _METHODS:
        raise DisparityError(f"method must be one of {_METHODS}, got {method!r}")
    if method != "fpir" and model is not None:
        raise DisparityError(f"method {method!r} refits per evaluation; pass model=None")
    state = _CurveState(dataset, config)
    dom = natural_domain(config.base_kind, state.stats)
    name = f"{method}-{config.kind.value}"
    evaluate_at = {"fuds": _fuds_eval, "fcsc": _fcsc_eval, "fpir": _fpir_eval}[method]

    def fn(t: float) -> float:
        return evaluate_at(state, t)

    if method == "fuds":
        lo = _clamp_edge(state, dom[0])
        hi = _clamp_edge(state, dom[1])
        state.clamped = lo > dom[0] or hi < dom[1]
        return DisparityCurve(fn=fn, t_lo=lo, t_hi=hi, name=name), state
    if method == "fpir":
        _fpir_prepare(state, model)
    return DisparityCurve.from_domain(fn, dom, name=name), state


def empirical_curve(
    dataset: LabeledDataset,
    config: FairFitConfig,
    method: str,
    model: ProbModel | None = None,
) -> DisparityCurve:
    """The disparity-versus-t curve a pipeline solves, for audits and plots.

    Every method's value depends on t alone, not on the points evaluated
    before it: fuds redraws its resample from the configured seed at each
    t, fcsc refits from scratch, and fpir moves thresholds on fixed scores.
    """
    return _build_curve(dataset, config, method, model=model)[0]


def _at_edge(result: SolveResult, curve: DisparityCurve, tol: float) -> bool:
    if result.t_star == 0.0:
        return False
    margin = max(4.0 * tol, 1e-6)
    return curve.t_hi - result.t_star <= margin or result.t_star - curve.t_lo <= margin


def _report(
    method: str,
    state: _CurveState,
    curve: DisparityCurve,
    result: SolveResult,
    decisions: np.ndarray,
) -> dict:
    """The run's report.  Train metrics score the decisions the caller
    already holds for the training rows (fpir: from the solve's own scores),
    so no rule predicts those rows a second time."""
    cfg = state.config
    report = {
        "method": method,
        "kind": cfg.kind.value,
        "mode": cfg.mode,
        "delta": float(cfg.delta),
        "tol": float(cfg.tol),
        "seed": cfg.seed,
        "n_train": len(state.dataset),
        "stats": _cells_json({cell: state.stats.p(*cell) for cell in _CELLS}),
        "bracket": {"lo": curve.t_lo, "hi": curve.t_hi, "clamped": state.clamped},
        "t_hat": result.t_star,
        "disparity_at_t_hat": result.d_at_t,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "exact": result.exact,
        "at_bracket_edge": _at_edge(result, curve, cfg.tol),
        "train_metrics": _metrics(decisions, state.dataset),
        "trace": list(state.trace),
    }
    if not isinstance(cfg.kind, BlindKind):
        report["thresholds"] = {
            "group0": threshold(cfg.kind, state.stats, 0, result.t_star),
            "group1": threshold(cfg.kind, state.stats, 1, result.t_star),
        }
    return report


def run_fuds(dataset: LabeledDataset, config: FairFitConfig) -> tuple[ProbModel, float, dict]:
    """Resampling pipeline: bisect t, refitting on tilted resamples.

    Returns the model fitted at the solved t (decisions threshold its
    predictions at 1/2), the solved t, and a report.  When delta already
    holds at t = 0 the baseline fit is returned without bisection.
    """
    curve, state = _build_curve(dataset, config, "fuds")
    result = solve_threshold(curve, config.delta, config.tol)
    model, targets = state.payload[result.t_star]
    report = _report("fuds", state, curve, result, _decision_values(model, dataset))
    report["cell_counts"] = _cells_json(targets)
    return model, result.t_star, report


def run_fcsc(dataset: LabeledDataset, config: FairFitConfig) -> tuple[ProbModel, float, dict]:
    """Cost-reweighting pipeline: bisect t, refitting with per-cell costs.

    Returns the model fitted at the solved t, the solved t, and a report
    that includes the final cost table.  At t = 0 every cost is 1/2 and
    the fit coincides with the unconstrained one.
    """
    curve, state = _build_curve(dataset, config, "fcsc")
    result = solve_threshold(curve, config.delta, config.tol)
    model, table = state.payload[result.t_star]
    report = _report("fcsc", state, curve, result, _decision_values(model, dataset))
    report["cost_table"] = _cells_json(table)
    return model, result.t_star, report


def run_fpir(
    dataset: LabeledDataset,
    config: FairFitConfig,
    model: ProbModel | None = None,
) -> tuple[FairClassifier, float, dict]:
    """Plug-in pipeline: fit regressions once, then solve the thresholds exactly.

    Aware runs accept a prefit group-aware model (fitted here when absent);
    blind runs fit label and group regressions from the same data.  The
    solve returns the smallest-|t| rule meeting the budget on the training
    rows, randomizing the rows on its boundary (tau_plus, tau_minus) so the
    train disparity lands on the budget; no tolerance applies.  The report's
    train metrics score the solve's own scores and weights, not a second
    prediction on the training rows.
    """
    curve, state = _build_curve(dataset, config, "fpir", model=model)
    t_hat, tau_plus, tau_minus, d = _fpir_solve(state)
    classifier = replace(state.rule, t=t_hat, tau_plus=float(tau_plus), tau_minus=float(tau_minus))
    result = SolveResult(t_hat, float(d), iterations=0, evaluations=0, converged=True, exact=True)
    decisions = _plug_in_decisions(
        state.score, state.w, t_hat, classifier.tau_plus, classifier.tau_minus
    )
    report = _report("fpir", state, curve, result, decisions)
    report["tau_plus"], report["tau_minus"] = classifier.tau_plus, classifier.tau_minus
    return classifier, t_hat, report


def _decision_values(classifier, test: LabeledDataset) -> np.ndarray:
    if isinstance(classifier, ProbModel):
        # Blind models ignore the group vector.
        f = (np.asarray(predict_proba(classifier, test.x, test.a), dtype=float) > 0.5).astype(float)
    elif callable(classifier):
        f = np.asarray(classifier(test.x, test.a), dtype=float)
    else:
        raise DisparityError(f"cannot score classifier of type {type(classifier).__name__}")
    f = np.asarray(f, dtype=float)
    if f.shape != (len(test),):
        raise DisparityError(f"classifier returned shape {f.shape}, expected ({len(test)},)")
    if not np.all(np.isfinite(f)) or np.any((f < 0.0) | (f > 1.0)):
        raise DisparityError("decisions must lie in [0, 1]")
    return f


def evaluate(classifier, test: LabeledDataset) -> dict[str, float | None]:
    """Accuracy and the three disparity gaps of a classifier on a test set.

    Rates are plug-in conditional frequencies of the test rows themselves.
    A metric whose conditioning cell is empty comes back as None, not 0.
    Fractional decisions are treated as acceptance probabilities.
    """
    if len(test) == 0:
        raise EstimationError("empty test set: metrics undefined")
    return _metrics(_decision_values(classifier, test), test)


def _metrics(f: np.ndarray, data: LabeledDataset) -> dict[str, float | None]:
    """Accuracy and the three disparity gaps of decisions f on data's rows."""
    y = data.y.astype(float)
    return {
        "accuracy": float(np.mean(f * y + (1.0 - f) * (1.0 - y))),
        **{kind.value: _rate_gap(kind, data, f) for kind in DisparityKind},
    }
