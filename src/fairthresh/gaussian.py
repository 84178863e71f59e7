"""Synthetic label-conditional Gaussian model with closed-form evaluation.

Features in cell (a, y) are drawn from N(mu_ay, sigma^2 I_d). Under this
family the group-conditional regression function eta_a(x) is a sigmoid of a
linear score, and the cell-conditional distribution of eta_a(X) is known
through the standard normal CDF. Disparity curves and misclassification
risks of threshold rules are therefore available in closed form, which makes
the model a ground-truth engine: pipelines fitted on finite samples can be
compared against exact targets.

Conventions: thresholds act as "accept when eta_a(x) > threshold", survival
values are P(eta_a(X) > tau | A=a, Y=y), and group thresholds come from the
same bilinear reduction as everywhere else in the package.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlindKind,
    DisparityError,
    DisparityKind,
    DomainError,
    GroupStats,
    bilinear_coeffs,
    natural_domain,
    threshold,
)
from .estimators import (
    _MAX_MAGNITUDE,
    LabeledDataset,
    _sigmoid,
)
from .extensions import _threshold_risk
from .solver import DEFAULT_TOL, DisparityCurve, SolveResult, solve_threshold

__all__ = [
    "GaussianModel",
    "FairThresholdRule",
    "eta",
    "psi",
    "norm_cdf",
    "disparity_curve_closed",
    "threshold_disparity",
    "risk_closed",
    "sample",
    "theoretical_fair_classifier",
    "model_from_seed",
    "default_model",
    "save_model",
    "load_model",
]


def norm_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class GaussianModel:
    """Cell probabilities, per-cell mean vectors, and a shared noise scale.

    The optional seed records how the means were generated; it is carried
    through serialization but never consumed by model evaluation.
    """

    stats: GroupStats
    mu_11: tuple[float, ...]
    mu_10: tuple[float, ...]
    mu_01: tuple[float, ...]
    mu_00: tuple[float, ...]
    sigma: float
    seed: int | None = None
    # separation(a) per group, computed once; kept out of eq, hash and repr.
    _separation: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("mu_11", "mu_10", "mu_01", "mu_00"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) == 0 or not all(abs(v) <= _MAX_MAGNITUDE for v in vec):
                raise DomainError(
                    f"{name} must be a nonempty vector of finite entries within "
                    f"+-{_MAX_MAGNITUDE:g}"
                )
            object.__setattr__(self, name, vec)
        dims = {len(self.mu_11), len(self.mu_10), len(self.mu_01), len(self.mu_00)}
        if len(dims) != 1:
            raise DomainError(f"mean vectors must share one dimension, got {sorted(dims)}")
        if not 0.0 < self.sigma <= _MAX_MAGNITUDE:
            raise DomainError(
                f"sigma must be positive and at most {_MAX_MAGNITUDE:g}, got {self.sigma!r}"
            )
        separation = {
            a: float(np.linalg.norm(self.mu(a, 1) - self.mu(a, 0))) for a in (0, 1)
        }
        object.__setattr__(self, "_separation", separation)
        for a in (0, 1):
            if separation[a] == 0.0:
                raise DomainError(f"group {a} has identical class means; eta is constant")

    @property
    def dim(self) -> int:
        return len(self.mu_11)

    def mu(self, a: int, y: int) -> np.ndarray:
        return np.asarray(getattr(self, f"mu_{a}{y}"), dtype=float)

    def separation(self, a: int) -> float:
        """Distance between the two class means of group a."""
        try:
            return self._separation[a]
        except (KeyError, TypeError):
            raise DomainError(f"no group {a!r}: groups are 0 and 1") from None

    def survival(self, a: int, y: int, tau: float) -> float:
        """P(eta_a(X) > tau | A=a, Y=y), defined on the closed unit interval."""
        if tau <= 0.0:
            return 1.0
        if tau >= 1.0:
            return 0.0
        return 1.0 - psi(self, a, y, tau)

    def to_dict(self) -> dict:
        return {
            "p": {f"{a}{y}": self.stats.p(a, y) for a in (1, 0) for y in (1, 0)},
            "mu": {f"{a}{y}": list(self.mu(a, y)) for a in (1, 0) for y in (1, 0)},
            "sigma": self.sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianModel":
        cells = ("11", "10", "01", "00")
        try:
            p = {key: float(data["p"][key]) for key in cells}
            mus = {key: tuple(float(v) for v in data["mu"][key]) for key in cells}
            sigma = float(data["sigma"])
            seed = None if data.get("seed") is None else int(data["seed"])
            if seed is not None and type(data["seed"]) is not int:  # 1.5, "2", true
                raise TypeError(f"seed must be null or an integer, got {data['seed']!r}")
        except KeyError as exc:
            raise DomainError(f"malformed model document: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed model document: bad value ({exc})") from exc
        return cls(
            stats=GroupStats(p11=p["11"], p10=p["10"], p01=p["01"], p00=p["00"]),
            mu_11=mus["11"],
            mu_10=mus["10"],
            mu_01=mus["01"],
            mu_00=mus["00"],
            sigma=sigma,
            seed=seed,
        )


def save_model(model: GaussianModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> GaussianModel:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DomainError(f"malformed model document: {exc}") from exc
    return GaussianModel.from_dict(data)


def eta(model: GaussianModel, a: int, x: np.ndarray) -> float | np.ndarray:
    """P(Y=1 | X=x, A=a): a sigmoid of the log density ratio plus log prior odds.

    Accepts a single d-vector (returns a float) or an (n, d) batch.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    x2 = np.atleast_2d(arr)
    if x2.shape[1] != model.dim:
        raise DomainError(f"x has dimension {x2.shape[1]}, model has {model.dim}")
    stats = model.stats
    d1 = np.sum((x2 - model.mu(a, 1)) ** 2, axis=1)
    d0 = np.sum((x2 - model.mu(a, 0)) ** 2, axis=1)
    z = math.log(stats.p(a, 1) / stats.p(a, 0)) + (d0 - d1) / (2.0 * model.sigma**2)
    # The sigmoid saturates to exactly 0/1 in floats for |z| beyond ~37;
    # clamp to keep the open-interval contract for far-field points.
    vals = np.clip(_sigmoid(z), 1e-12, 1.0 - 1e-12)
    return float(vals[0]) if single else vals


def psi(model: GaussianModel, a: int, y: int, t: float) -> float:
    """CDF of eta_a(X) at t, conditional on (A, Y) = (a, y); strict on (0, 1).

    psi_ay(t) = Phi(sigma * log(q_a(t)) / ||dmu_a|| + (1 - 2y) * ||dmu_a|| / (2 sigma))
    with q_a(t) = t p_a0 / ((1 - t) p_a1), the odds change that maps the
    threshold on eta back to a threshold on the linear score.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"psi is defined on the open unit interval, got t={t!r}")
    stats = model.stats
    sep = model.separation(a)
    q = t * stats.p(a, 0) / ((1.0 - t) * stats.p(a, 1))
    z = model.sigma * math.log(q) / sep + (1.0 - 2.0 * y) * sep / (2.0 * model.sigma)
    return norm_cdf(z)


def _require_aware(kind: DisparityKind) -> DisparityKind:
    if isinstance(kind, BlindKind):
        raise DisparityError(
            f"{kind} has feature-dependent weights; closed forms cover the aware measures"
        )
    return kind


def threshold_disparity(
    model: GaussianModel, kind: DisparityKind
) -> Callable[[Sequence[float]], float]:
    """Exact disparity of any group-threshold rule, as a function of [T_0, T_1].

    D = sum_a sum_y p(a, y) * w(y, a) * S_ay(T_a), the rule accepting group a
    where eta_a > T_a.  Cells of weight zero are skipped; each group's terms
    are summed before the two groups are added.
    """
    _require_aware(kind)
    stats = model.stats
    s, b = bilinear_coeffs(kind, stats)
    weights = {a: [(y, stats.p(a, y) * (s[a] * y + b[a])) for y in (0, 1)] for a in (1, 0)}

    def fn(thresholds: Sequence[float]) -> float:
        total = 0.0
        for a, cells in weights.items():
            total += sum(c * model.survival(a, y, thresholds[a]) for y, c in cells if c != 0.0)
        return total

    return fn


def disparity_curve_closed(model: GaussianModel, kind: DisparityKind) -> DisparityCurve:
    """Exact disparity of the group-threshold rule as a function of t: the
    threshold_disparity of the group thresholds (H_0(t), H_1(t))."""
    at = threshold_disparity(model, kind)
    stats = model.stats
    return DisparityCurve.from_domain(
        lambda t: at([threshold(kind, stats, a, t) for a in (0, 1)]),
        natural_domain(kind, stats),
    )


def risk_closed(model: GaussianModel, kind: DisparityKind, t: float) -> float:
    """Exact misclassification rate of the group-threshold rule at parameter t."""
    _require_aware(kind)
    stats = model.stats
    lo, hi = natural_domain(kind, stats)
    if not lo <= t <= hi:
        raise DomainError(f"t={t!r} outside the {kind.name} bracket [{lo!r}, {hi!r}]")
    return _threshold_risk(model, stats, [threshold(kind, stats, a, t) for a in (0, 1)])


def sample(model: GaussianModel, n: int, seed: int) -> LabeledDataset:
    """Draw n i.i.d. rows: cell (a, y) from the cell probabilities, then
    x ~ N(mu_ay, sigma^2 I). Deterministic per seed.

    The generator is consumed in a fixed order (one cell draw, then one
    standard normal block), so equal seeds give bit-identical datasets.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got n={n}")
    stats = model.stats
    rng = np.random.default_rng(seed)
    cells = ((1, 1), (1, 0), (0, 1), (0, 0))
    probs = np.array([stats.p(a, y) for a, y in cells])
    idx = rng.choice(len(cells), size=n, p=probs / probs.sum())
    mu_stack = np.stack([model.mu(a, y) for a, y in cells])
    x = mu_stack[idx] + model.sigma * rng.standard_normal((n, model.dim))
    a = np.array([c[0] for c in cells])[idx]
    y = np.array([c[1] for c in cells])[idx]
    return LabeledDataset(x=x, a=a, y=y)


@dataclass(frozen=True)
class FairThresholdRule:
    """A solved group-threshold rule on the model, with its exact scores."""

    kind: DisparityKind
    delta: float
    t_star: float
    thresholds: tuple[float, float]
    risk: float
    disparity: float
    solve: SolveResult


def theoretical_fair_classifier(
    model: GaussianModel, kind: DisparityKind, delta: float, tol: float = DEFAULT_TOL
) -> FairThresholdRule:
    """Solve |D(t)| <= delta on the closed curve and package the rule."""
    curve = disparity_curve_closed(model, kind)
    result = solve_threshold(curve, delta, tol=tol)
    thr = tuple(threshold(kind, model.stats, a, result.t_star) for a in (0, 1))
    return FairThresholdRule(
        kind=kind,
        delta=delta,
        t_star=result.t_star,
        thresholds=(thr[0], thr[1]),
        risk=risk_closed(model, kind, result.t_star),
        disparity=result.d_at_t,
        solve=result,
    )


#: Cell probabilities shared by the synthetic study: P(A=1,Y=1)=0.49,
#: P(A=1,Y=0)=0.21, P(A=0,Y=1)=0.12, P(A=0,Y=0)=0.18.
DEFAULT_STATS = GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)

DEFAULT_DIM = 2
DEFAULT_SIGMA = 0.45


def model_from_seed(
    seed: int,
    stats: GroupStats = DEFAULT_STATS,
    dim: int = DEFAULT_DIM,
    sigma: float = DEFAULT_SIGMA,
) -> GaussianModel:
    """Model with mean entries drawn Unif(0, 1) from the given seed.

    Means are drawn as one (4, dim) block in cell order (1,1), (1,0),
    (0,1), (0,0), so the construction is reproducible from the seed alone.
    """
    rng = np.random.default_rng(seed)
    vals = rng.uniform(size=(4, dim))
    return GaussianModel(
        stats=stats,
        mu_11=tuple(vals[0]),
        mu_10=tuple(vals[1]),
        mu_01=tuple(vals[2]),
        mu_00=tuple(vals[3]),
        sigma=sigma,
        seed=seed,
    )


def default_model() -> GaussianModel:
    """The package's reference synthetic model.

    Seed 22 is the first seed of model_from_seed whose model met four
    criteria:

    1. strong baseline unfairness: |D(0)| > 0.35 for DD, DO and PD;
    2. delta=0 fair accuracies in [0.68, 0.80] for all three kinds;
    3. equalized odds solutions at delta in {0.05, 0.1, 0.2} with
       max(|DO|, |PD|) <= delta + 10 * DEFAULT_TOL (delta=0 is left out:
       there the equalized-odds dual ends at the excluded corner
       (p_{1,1}, -p_{1,0}), where the optimal rule randomizes a group);
    4. at delta in {0.05, 0.1}, solver risk within 1e-4 of a grid oracle.

    Criterion 4 was judged by an earlier oracle that gridded the solver's
    (t1, t2) parameters; the present group-threshold oracle would take seed
    9, which that one rejected with no feasible grid point. The mean
    literals are frozen; model_from_seed(22) reproduces them.
    """
    return GaussianModel(
        stats=DEFAULT_STATS,
        mu_11=(0.3663469154320761, 0.1992953793750829),
        mu_10=(0.08855837326127891, 0.65319168760092),
        mu_01=(0.45933704474394677, 0.9876756188802016),
        mu_00=(0.8515680698511308, 0.8369613232370445),
        sigma=DEFAULT_SIGMA,
        seed=22,
    )
