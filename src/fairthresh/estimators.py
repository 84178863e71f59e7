"""Probability estimators: weighted logistic regression on labeled rows.

The fairness pipelines plug fitted regression functions into thresholding
rules, and their cost-sensitive variant reweighs individual rows, so the
learner here is a deterministic weighted logistic regression fitted by
damped Newton steps (iteratively reweighted least squares). Features are
standardized internally and an intercept is always included. A fit starts
from zero, or from a start in its frame, and runs to the maximum-likelihood
point of its own data.  The pipelines start each refit one Newton step from
their curve's t = 0 fit (_WarmStart), so a refit inside a bisection loop
depends on nothing but its data, and the start on t alone.  A dataset
caches its standardized designs ("frames"), the row indices of its groups and
cells, and the inputs of the last plug-in rule scored on its rows (every plug-in
run, and every evaluation of a plug-in rule, reads them or replaces them with
its own).  Reweighted copies share all three; subsets do not.
The frame is stored column by column, so the Newton loop's gradient, Hessian
and scores run over contiguous n-vectors, and its line search evaluates the
softplus with vectorized exp and log1p.  nll and nll_gradient compute the same
objective the plain way (np.logaddexp, a row-major product) as a reference.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
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


def _check_weights(w: np.ndarray) -> None:
    if np.any(w < 0) or not np.isfinite(w).all():
        raise FitError("weights must be finite and nonnegative")


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of (feature vector, group id, binary label, sample weight).  The
    frames (_frame) and row indices (rows) are built on first use, kept, and
    shared with with_weights copies, which differ only in weight.  So is
    _plug_in, fair_algorithms' one-entry slot: the flip points, weight signs
    and inert rows of the last plug-in rule that run_fpir or evaluate scored
    on these rows, and on training rows its sorted steps.  None of them
    reads the weights.  Groups and cells are read through rows alone."""

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    weight: np.ndarray = field(default=None)  # type: ignore[assignment]
    _frames: dict = field(default_factory=dict, repr=False, compare=False)
    _rows: dict = field(default_factory=dict, repr=False, compare=False)
    _plug_in: list = field(default_factory=list, repr=False, compare=False)

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
        _check_weights(w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a.astype(int))
        object.__setattr__(self, "y", y.astype(int))
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def rows(self, a: int | None = None, y: int | None = None) -> np.ndarray:
        """Ascending, read-only indices of the rows with group a and label y
        (None matches any), built once per (a, y)."""
        if (a, y) not in self._rows:
            mask = (True if a is None else self.a == a) & (True if y is None else self.y == y)
            index = np.flatnonzero(np.broadcast_to(mask, len(self)))
            index.setflags(write=False)
            self._rows[a, y] = index
        return self._rows[a, y]

    def subset(self, index: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            x=self.x[index], a=self.a[index], y=self.y[index], weight=self.weight[index]
        )

    def with_weights(self, weight: np.ndarray) -> "LabeledDataset":
        """A copy with new weights; only they are checked, and the caches
        are passed on, so shared."""
        w = np.asarray(weight, dtype=float)
        if w.shape != self.weight.shape:
            raise FitError("feature, group, label, and weight lengths differ")
        _check_weights(w)
        reweighted = copy.copy(self)
        object.__setattr__(reweighted, "weight", w)
        return reweighted

    def _frame(self, group: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The frame of all rows (group None) or of one group's rows, built once."""
        if group not in self._frames:
            rows = slice(None) if group is None else self.rows(group)
            self._frames[group] = _standardize(self.x[rows])
        return self._frames[group]


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

    def theta(self) -> np.ndarray:
        """(intercept, coef) as one vector, the order the Newton fit uses."""
        return np.concatenate([[self.intercept], self.coef])

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
        return self.standardized_scores((x2 - self.mean) / self.scale)

    def standardized_scores(self, xs: np.ndarray) -> np.ndarray:
        # Columns are added one by one in feature order, then the intercept:
        # n-vector adds are many times faster than a reduction along the short
        # row axis.  Unlike a BLAS product, each row's score is still summed
        # from that row alone, in the same order however many rows share the call.
        z = np.zeros(len(xs))
        for column, c in zip(xs.T, self.coef):
            z += column * c
        return self.intercept + z


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


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) by the formula of np.logaddexp(0, z), whose exp and
    # log1p run element by element; these two run vectorized.
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means and scales of x, and x's design in that frame."""
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale, _design(x, mean, scale)


def _design(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Standardized features with a leading intercept column.

    The (n, d+1) result is the transpose of a C-contiguous (d+1, n) array,
    so each column, the intercept's included, is one contiguous n-vector.
    """
    # The frame is allocated after its temporaries, so the cached array sits
    # above them on the heap. Allocated first, it left the heap top free in
    # some processes, and later predictions trimmed and refaulted it per call.
    xs = (x - mean) / scale
    cols = np.empty((len(mean) + 1, len(x)))
    cols[0] = 1.0
    cols[1:] = xs.T
    return cols.T


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
    frame: tuple[np.ndarray, ...],
    target: np.ndarray,
    weight: np.ndarray,
    config: LogisticConfig,
    start: LogisticParams | None = None,
) -> tuple[LogisticParams, tuple[float, ...]]:
    """Damped Newton (IRLS) fit in a standardized frame, from zero or from
    start, parameters in the same frame.

    Each step solves the (d+1)x(d+1) Hessian system and is halved until
    the objective strictly decreases.
    """
    wsum = float(weight.sum())
    if wsum <= 0:
        raise FitError("total sample weight must be positive")
    mean, scale, design = frame
    cols = design.T  # (d+1, n), one contiguous row per parameter
    wn = weight / wsum
    t = target.astype(float)
    ridge = _ridge(config.l2, len(mean))
    ridge_matrix = np.diag(ridge)

    if start is not None and not (
        np.array_equal(start.mean, mean) and np.array_equal(start.scale, scale)
    ):
        raise FitError("start was not fitted in this dataset's frame")
    theta = np.zeros(len(cols)) if start is None else start.theta()
    z = theta @ cols
    softplus = _softplus(z)
    loss = float(wn @ (softplus - t * z)) + 0.5 * float(ridge @ (theta * theta))
    history = [loss]
    for _ in range(_MAX_STEPS):
        p = _sigmoid(z)
        grad = cols @ (wn * (p - t)) + ridge * theta
        if math.sqrt(float(grad @ grad)) <= _GRAD_TOL:
            break
        hess = (cols * (wn * p * (1.0 - p))) @ cols.T + ridge_matrix
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        for _ in range(_MAX_HALVINGS):
            cand = theta - step
            z_cand = cand @ cols
            softplus_cand = _softplus(z_cand)
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


def fit_logistic(
    dataset: LabeledDataset,
    config: LogisticConfig = LogisticConfig(),
    start: ProbModel | None = None,
) -> ProbModel:
    """Weighted logistic regression of the label on the features.

    Newton starts from zero, or from start: a label regression in this
    dataset's frame (a _WarmStart.start, say).  Either way it runs to the
    same convergence test.
    """
    if len(dataset) == 0:
        raise FitError("cannot fit on an empty dataset")
    begin = None if start is None else start.single_params()
    params, history = _fit_params(dataset._frame(), dataset.y, dataset.weight, config, begin)
    return ProbModel(mode=MODE_BLIND_Y, params=params, history=history)


def fit_group_models(
    dataset: LabeledDataset,
    mode: str = MODE_AWARE,
    config: LogisticConfig = LogisticConfig(),
    start: ProbModel | None = None,
) -> ProbModel:
    """Fit the regression function a pipeline needs.

    ``aware`` fits one logistic model per group for P(Y=1 | x, a) and needs
    every (a, y) cell populated; ``blind_a`` fits P(A=1 | x) with the group
    id as the target.  fit_logistic fits the label regression P(Y=1 | x).
    start, a model of the same mode in this dataset's frames, is where
    Newton starts instead of zero.
    """
    if len(dataset) == 0:
        raise FitError("cannot fit on an empty dataset")
    if mode == MODE_AWARE:
        for a in (0, 1):
            for y in (0, 1):
                if not len(dataset.rows(a, y)):
                    raise FitError(f"group-aware fit needs rows in cell (a={a}, y={y})")
        per_group: dict[int, LogisticParams] = {}
        for a in (0, 1):
            pick = dataset.rows(a)
            begin = None if start is None else start.group_params(a)
            per_group[a], _ = _fit_params(
                dataset._frame(a), dataset.y[pick], dataset.weight[pick], config, begin
            )
        return ProbModel(mode=MODE_AWARE, params=per_group)
    if mode == MODE_BLIND_A:
        for a in (0, 1):
            if not len(dataset.rows(a)):
                raise FitError(f"group regression needs rows with a={a}")
        begin = None if start is None else start.single_params()
        params, history = _fit_params(dataset._frame(), dataset.a, dataset.weight, config, begin)
        return ProbModel(mode=MODE_BLIND_A, params=params, history=history)
    raise FitError(f"unknown estimator mode {mode!r}")


class _WarmStart:
    """Newton starts for refits that scale a dataset's weights cell by cell.

    origin is a label regression (aware or blind) that the default learner
    fitted on the dataset at its own weights.  The gradient and Hessian of
    each fit at origin are summed per (group, label) cell once.
    start(multipliers) weighs those sums by one multiplier per cell and
    takes one Newton step from origin, a (d+1)x(d+1) solve per fit: the
    step of the objective whose weights are the dataset's times the
    multiplier of each row's cell.  A start is a function of the
    multipliers and the data alone.
    """

    def __init__(self, dataset: LabeledDataset, origin: ProbModel) -> None:
        self.origin = origin
        self.ridge = _ridge(LogisticConfig().l2, dataset.dim)
        self.ridge_matrix = np.diag(self.ridge)
        self.parts = []
        for g in (0, 1) if origin.mode == MODE_AWARE else (None,):
            params = origin.single_params() if g is None else origin.group_params(g)
            theta = params.theta()
            cols = dataset._frame(g)[2].T
            rows = dataset.rows(g)
            p = _sigmoid(theta @ cols)
            weight = dataset.weight[rows]
            resid = weight * (p - dataset.y[rows])
            curvature = weight * p * (1.0 - p)
            cells = [(a, y) for a in ((1, 0) if g is None else (g,)) for y in (1, 0)]
            mass, grads, hessians = [], [], []
            for cell in cells:
                at = np.searchsorted(rows, dataset.rows(*cell))
                part = cols[:, at]
                mass.append(float(weight[at].sum()))
                grads.append(part @ resid[at])
                hessians.append(((part * curvature[at]) @ part.T).ravel())
            self.parts.append((g, params, cells, np.array(mass), np.array(grads), np.array(hessians)))

    def start(self, multipliers: Mapping[tuple[int, int], float]) -> ProbModel:
        """The Newton step from origin for weights scaled by multipliers[(a, y)]."""
        fitted: dict[int | None, LogisticParams] = {}
        for g, params, cells, mass, grads, hessians in self.parts:
            m = np.array([multipliers[cell] for cell in cells], dtype=float)
            total = float(m @ mass)
            theta = params.theta()
            grad = m @ grads / total + self.ridge * theta
            hess = (m @ hessians).reshape(len(theta), -1) / total + self.ridge_matrix
            theta = theta - np.linalg.lstsq(hess, grad, rcond=None)[0]
            fitted[g] = replace(params, intercept=float(theta[0]), coef=theta[1:])
        params = fitted if self.origin.mode == MODE_AWARE else fitted[None]
        return replace(self.origin, params=params, history=None)


def predict_proba(
    model: ProbModel, x: np.ndarray, a: int | np.ndarray | None = None
) -> np.ndarray | float:
    """Predicted probability in (0, 1) for each row of x."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    if model.mode == MODE_AWARE:
        if a is None:
            raise FitError("group-aware model needs the group id to predict")
        # Compared as floats, so a fractional group id is rejected rather
        # than truncated onto a group.
        a_arr = np.asarray(a, dtype=float)
        if a_arr.ndim == 0:
            a_arr = np.broadcast_to(a_arr, (len(x2),))
        elif a_arr.shape != (len(x2),):
            raise FitError(
                f"group vector must be a scalar or hold one id per row: "
                f"got shape {a_arr.shape} for {len(x2)} rows"
            )
        other = (a_arr != 0) & (a_arr != 1)
        if other.any():
            raise FitError(f"no parameters fitted for group {a_arr[other][0]:g}")
        z = np.empty(len(x2))
        for g in (0, 1):
            rows = np.flatnonzero(a_arr == g)
            if rows.size:
                z[rows] = model.group_params(g).scores(x2[rows])
    else:
        z = np.asarray(model.single_params().scores(x2))
    p = np.clip(_sigmoid(z), 1e-12, 1.0 - 1e-12)
    return p if np.asarray(x).ndim > 1 else float(p[0])


def fitted_decisions(model: ProbModel, dataset: LabeledDataset) -> np.ndarray:
    """predict_proba(model, dataset.x, dataset.a) > 0.5 as floats, scored from
    the cached frame of dataset (or a reweighted copy) that model was fitted in."""
    z = np.empty(len(dataset))
    for g in (0, 1) if model.mode == MODE_AWARE else (None,):
        mean, _, design = dataset._frame(g)
        params = model.single_params() if g is None else model.group_params(g)
        if params.mean is not mean:
            raise FitError("model was not fitted in this dataset's frame")
        rows = slice(None) if g is None else dataset.rows(g)
        z[rows] = params.standardized_scores(design[:, 1:])
    return (_sigmoid(z) > 0.5).astype(float)
