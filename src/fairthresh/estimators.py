"""Probability estimators: weighted logistic regression on labeled rows.

The fairness pipelines plug fitted regression functions into thresholding
rules, and their cost-sensitive variant reweighs individual rows, so the
learner here is a deterministic weighted logistic regression fitted by
damped Newton steps (iteratively reweighted least squares). Features are
standardized internally and an intercept is always included. Every fit
starts from zero and runs to the maximum-likelihood point of its own data,
so a refit inside a bisection loop depends on nothing but that data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "FitError",
    "LabeledDataset",
    "LogisticConfig",
    "LogisticParams",
    "ProbModel",
    "fit_logistic",
    "fit_group_models",
    "predict_proba",
    "nll",
    "nll_gradient",
    "MODE_AWARE",
    "MODE_BLIND_Y",
    "MODE_BLIND_A",
]


class FitError(RuntimeError):
    """Raised when a fit cannot proceed."""


# Largest feature magnitude (and Gaussian model mean entry or sigma) the
# package accepts: squares of such values, and their sums over a sample,
# stay finite, so standardization and sampling never overflow.
_MAX_MAGNITUDE = 1e150


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of (feature vector, group id, binary label, sample weight)."""

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    weight: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise FitError(f"features must be a 2-D array, got shape {x.shape}")
        # Checked as floats, so a fractional group id or label is rejected
        # rather than truncated.
        a = np.asarray(self.a, dtype=float)
        y = np.asarray(self.y, dtype=float)
        w = (
            np.ones(len(x), dtype=float)
            if self.weight is None
            else np.asarray(self.weight, dtype=float)
        )
        if not (len(x) == len(a) == len(y) == len(w)):
            raise FitError("feature, group, label, and weight lengths differ")
        # min and max propagate NaN, which fails both comparisons.
        if x.size and not (-_MAX_MAGNITUDE <= x.min() and x.max() <= _MAX_MAGNITUDE):
            raise FitError(f"features must be finite and within +-{_MAX_MAGNITUDE:g}")
        if np.any((y != 0) & (y != 1)):
            raise FitError("labels must be 0 or 1")
        if np.any((a != 0) & (a != 1)):
            raise FitError("group ids must be 0 or 1")
        if np.any(w < 0) or not np.isfinite(w).all():
            raise FitError("weights must be finite and nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a.astype(int))
        object.__setattr__(self, "y", y.astype(int))
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def cell_mask(self, a: int, y: int) -> np.ndarray:
        return (self.a == a) & (self.y == y)

    def cell_count(self, a: int, y: int) -> int:
        return int(self.cell_mask(a, y).sum())

    def subset(self, index: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            x=self.x[index], a=self.a[index], y=self.y[index], weight=self.weight[index]
        )

    def with_weights(self, weight: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(x=self.x, a=self.a, y=self.y, weight=weight)


@dataclass(frozen=True)
class LogisticConfig:
    """Learner settings: the ridge penalty l2 on the standardized coefficients.

    The objective is the weight-mean negative log-likelihood plus
    0.5 * l2 * |coef|^2; the intercept is not penalized.  The fit has no
    iteration budget: it takes Newton steps until the gradient vanishes or
    the objective stops decreasing.
    """

    l2: float = 1e-6


@dataclass(frozen=True)
class LogisticParams:
    """Coefficients in the standardized frame plus the standardization."""

    intercept: float
    coef: np.ndarray
    mean: np.ndarray
    scale: np.ndarray

    def raw(self) -> tuple[float, np.ndarray]:
        """Equivalent (intercept, coefficients) acting on raw features."""
        w = self.coef / self.scale
        return self.intercept - float(w @ self.mean), w

    def scores(self, x: np.ndarray) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        if x2.shape[1] != len(self.coef):
            raise FitError(
                f"x has {x2.shape[1]} features, the model was fitted on {len(self.coef)}"
            )
        xs = (x2 - self.mean) / self.scale
        # A row-wise sum, not a BLAS product: a row's score must not depend on
        # how many rows share the call.
        return self.intercept + (xs * self.coef).sum(axis=1)


MODE_AWARE = "aware"
MODE_BLIND_Y = "blind_y"
MODE_BLIND_A = "blind_a"


@dataclass(frozen=True)
class ProbModel:
    """A fitted regression function.

    ``aware`` holds one parameter set per group and predicts P(Y=1 | x, a);
    ``blind_y`` predicts P(Y=1 | x) and ``blind_a`` predicts P(A=1 | x),
    both ignoring the group at prediction time. history carries the
    objective at the start and after each Newton step (single-fit modes
    only).
    """

    mode: str
    params: Mapping[int, LogisticParams] | LogisticParams
    history: tuple[float, ...] | None = None

    def group_params(self, a: int) -> LogisticParams:
        if self.mode != MODE_AWARE:
            raise FitError(f"model mode {self.mode!r} has no per-group parameters")
        try:
            return self.params[a]  # type: ignore[index]
        except KeyError:
            raise FitError(f"no parameters fitted for group {a}") from None

    def single_params(self) -> LogisticParams:
        if not isinstance(self.params, LogisticParams):
            raise FitError(f"model mode {self.mode!r} has per-group parameters")
        return self.params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # The tanh form never overflows and needs no masking by sign.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale


def _design(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Standardized features with a leading intercept column."""
    return np.hstack([np.ones((len(x), 1)), (x - mean) / scale])


def _ridge(l2: float, dim: int) -> np.ndarray:
    """Per-parameter penalty of (intercept, coef): the intercept is free."""
    ridge = np.full(dim + 1, float(l2))
    ridge[0] = 0.0
    return ridge


def nll(
    dataset: LabeledDataset, params: LogisticParams, target: np.ndarray | None = None, l2: float = 0.0
) -> float:
    """Weight-mean negative log-likelihood plus the l2 penalty.

    target defaults to the labels; pass dataset.a to score a group model.
    """
    t = dataset.y if target is None else np.asarray(target, dtype=float)
    wn = dataset.weight / float(dataset.weight.sum())
    z = np.asarray(params.scores(dataset.x))
    per_row = np.logaddexp(0.0, z) - t * z
    return float(wn @ per_row + 0.5 * l2 * float(params.coef @ params.coef))


def nll_gradient(
    dataset: LabeledDataset, params: LogisticParams, target: np.ndarray | None = None, l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Gradient of nll with respect to (intercept, coef) in params' frame."""
    t = dataset.y if target is None else np.asarray(target, dtype=float)
    wn = dataset.weight / float(dataset.weight.sum())
    design = _design(dataset.x, params.mean, params.scale)
    theta = np.concatenate([[params.intercept], params.coef])
    resid = wn * (_sigmoid(design @ theta) - t)
    grad = design.T @ resid + _ridge(l2, dataset.dim) * theta
    return float(grad[0]), grad[1:]


# Newton stops once the gradient norm is below _GRAD_TOL, or once even a
# backtracked step fails to lower the objective strictly: it then sits on
# its float floor, and steps that only tie let near-separable fits wander
# along that floor up to the cap.
_GRAD_TOL = 1e-10
_MAX_STEPS = 100
_MAX_HALVINGS = 40


def _fit_params(
    x: np.ndarray, target: np.ndarray, weight: np.ndarray, config: LogisticConfig
) -> tuple[LogisticParams, tuple[float, ...]]:
    """Damped Newton (IRLS) fit in the standardized frame.

    Each step solves the (d+1)x(d+1) Hessian system and is halved until
    the objective strictly decreases.
    """
    wsum = float(weight.sum())
    if wsum <= 0:
        raise FitError("total sample weight must be positive")
    mean, scale = _standardize(x)
    design = _design(x, mean, scale)
    wn = weight / wsum
    t = target.astype(float)
    ridge = _ridge(config.l2, x.shape[1])

    theta = np.zeros(design.shape[1])
    z = np.zeros(len(x))
    softplus = np.logaddexp(0.0, z)
    loss = float(wn @ softplus)
    history = [loss]
    for _ in range(_MAX_STEPS):
        p = _sigmoid(z)
        grad = design.T @ (wn * (p - t)) + ridge * theta
        if math.sqrt(float(grad @ grad)) <= _GRAD_TOL:
            break
        hess = (design.T * (wn * p * (1.0 - p))) @ design + np.diag(ridge)
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        for _ in range(_MAX_HALVINGS):
            cand = theta - step
            z_cand = design @ cand
            softplus_cand = np.logaddexp(0.0, z_cand)
            # The change is summed from per-row differences: near the optimum
            # it lies far below the rounding error of the objective's sum.
            change = float(wn @ (softplus_cand - softplus - t * (z_cand - z)))
            change += 0.5 * float(ridge @ (cand * cand - theta * theta))
            if change < 0.0:
                break
            step *= 0.5
        else:
            break
        theta, z, softplus = cand, z_cand, softplus_cand
        loss += change
        history.append(loss)
    params = LogisticParams(intercept=float(theta[0]), coef=theta[1:], mean=mean, scale=scale)
    return params, tuple(history)


def fit_logistic(dataset: LabeledDataset, config: LogisticConfig = LogisticConfig()) -> ProbModel:
    """Weighted logistic regression of the label on the features."""
    if len(dataset) == 0:
        raise FitError("cannot fit on an empty dataset")
    params, history = _fit_params(dataset.x, dataset.y, dataset.weight, config)
    return ProbModel(mode=MODE_BLIND_Y, params=params, history=history)


def fit_group_models(
    dataset: LabeledDataset,
    mode: str = MODE_AWARE,
    config: LogisticConfig = LogisticConfig(),
) -> ProbModel:
    """Fit the regression function a pipeline needs.

    ``aware`` fits one logistic model per group for P(Y=1 | x, a) and needs
    every (a, y) cell populated; ``blind_a`` fits P(A=1 | x) with the group
    id as the target.  fit_logistic fits the label regression P(Y=1 | x).
    """
    if len(dataset) == 0:
        raise FitError("cannot fit on an empty dataset")
    if mode == MODE_AWARE:
        for a in (0, 1):
            for y in (0, 1):
                if dataset.cell_count(a, y) == 0:
                    raise FitError(f"group-aware fit needs rows in cell (a={a}, y={y})")
        per_group: dict[int, LogisticParams] = {}
        for a in (0, 1):
            pick = dataset.a == a
            per_group[a], _ = _fit_params(
                dataset.x[pick], dataset.y[pick], dataset.weight[pick], config
            )
        return ProbModel(mode=MODE_AWARE, params=per_group)
    if mode == MODE_BLIND_A:
        for a in (0, 1):
            if not (dataset.a == a).any():
                raise FitError(f"group regression needs rows with a={a}")
        params, history = _fit_params(dataset.x, dataset.a.astype(int), dataset.weight, config)
        return ProbModel(mode=MODE_BLIND_A, params=params, history=history)
    raise FitError(f"unknown estimator mode {mode!r}")


def predict_proba(
    model: ProbModel, x: np.ndarray, a: int | np.ndarray | None = None
) -> np.ndarray | float:
    """Predicted probability in (0, 1) for each row of x."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    if model.mode == MODE_AWARE:
        if a is None:
            raise FitError("group-aware model needs the group id to predict")
        a_arr = np.broadcast_to(np.asarray(a, dtype=int), (len(x2),))
        picks = (a_arr == 0, a_arr == 1)
        other = ~(picks[0] | picks[1])
        if other.any():
            raise FitError(f"no parameters fitted for group {int(a_arr[other].min())}")
        z = np.empty(len(x2))
        for g, pick in enumerate(picks):
            if pick.any():
                z[pick] = model.group_params(g).scores(x2[pick])
    else:
        z = np.asarray(model.single_params().scores(x2))
    p = np.clip(_sigmoid(z), 1e-12, 1.0 - 1e-12)
    return p if np.asarray(x).ndim > 1 else float(p[0])
