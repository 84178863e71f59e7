"""Disparity-measure algebra for group-fair threshold classification.

A disparity measure here is a linear functional of a randomized classifier
f(x, a) whose weighting function is affine in the regression value eta per
group: w(eta, a) = s_a * eta + b_a.  Three named measures are supported,
all signed group 1 minus group 0:

- DD: difference of acceptance rates (demographic disparity)
- DO: difference of true-positive rates (opportunity)
- PD: difference of false-positive rates (predictive equality)

Attribute-blind counterparts (DD_X, DO_X, PD_X) describe the same targets
for predictors without access to the group at decision time; their weights
depend on feature-level group posteriors and are handled by the pipeline
layer, so the bilinear operations below reject them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "DisparityError",
    "DomainError",
    "EstimationError",
    "DisparityKind",
    "BlindKind",
    "GroupStats",
    "BilinearSpec",
    "bilinear_coeffs",
    "threshold",
    "natural_domain",
    "cost_weights",
    "empirical_disparity_arrays",
]

_PROB_TOL = 1e-12


class DisparityError(ValueError):
    """Base error for disparity-measure operations."""


class DomainError(DisparityError):
    """Parameter lies outside the measure's valid bracket."""


class EstimationError(DisparityError):
    """Empirical quantity is undefined on the given records."""


class DisparityKind(enum.Enum):
    """Group-aware disparity measures."""

    DD = "dd"
    DO = "do"
    PD = "pd"


class BlindKind(enum.Enum):
    """Attribute-blind disparity targets (decision cannot read the group)."""

    DD_X = "dd_x"
    DO_X = "do_x"
    PD_X = "pd_x"

    @property
    def base(self) -> DisparityKind:
        """The group-aware measure this blind target controls."""
        return DisparityKind(self.value[:2])


@dataclass(frozen=True)
class GroupStats:
    """Joint cell probabilities P(A=a, Y=y) for binary group and label."""

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self) -> None:
        cells = (self.p11, self.p10, self.p01, self.p00)
        if not all(math.isfinite(p) and p > 0.0 for p in cells):
            raise DisparityError(f"all four cell probabilities must be positive, got {cells}")
        total = math.fsum(cells)
        if abs(total - 1.0) > _PROB_TOL:
            raise DisparityError(f"cell probabilities must sum to 1 within {_PROB_TOL}, got {total!r}")

    def p(self, a: int, y: int) -> float:
        """Cell probability P(A=a, Y=y)."""
        return getattr(self, f"p{a}{y}")

    def p_group(self, a: int) -> float:
        """Marginal P(A=a)."""
        return self.p(a, 1) + self.p(a, 0)

    @classmethod
    def from_counts(cls, n11: int, n10: int, n01: int, n00: int) -> "GroupStats":
        """Plug-in estimate n_ay / n.  Rejects empty cells rather than smoothing."""
        n = n11 + n10 + n01 + n00
        if min(n11, n10, n01, n00) <= 0:
            raise EstimationError(
                f"every (group, label) cell needs at least one observation, got counts "
                f"n11={n11} n10={n10} n01={n01} n00={n00}"
            )
        return cls(p11=n11 / n, p10=n10 / n, p01=n01 / n, p00=n00 / n)

    @classmethod
    def from_labels(cls, a: Iterable[int], y: Iterable[int]) -> "GroupStats":
        a_arr = np.asarray(list(a) if not isinstance(a, np.ndarray) else a)
        y_arr = np.asarray(list(y) if not isinstance(y, np.ndarray) else y)
        return cls.from_counts(
            n11=int(np.sum((a_arr == 1) & (y_arr == 1))),
            n10=int(np.sum((a_arr == 1) & (y_arr == 0))),
            n01=int(np.sum((a_arr == 0) & (y_arr == 1))),
            n00=int(np.sum((a_arr == 0) & (y_arr == 0))),
        )


@dataclass(frozen=True)
class BilinearSpec:
    """Per-group affine weight coefficients: w(eta, a) = s[a]*eta + b[a]."""

    s: tuple[float, float]  # indexed by group a in {0, 1}
    b: tuple[float, float]

    def weight(self, eta: float, a: int) -> float:
        return self.s[a] * eta + self.b[a]


def bilinear_coeffs(kind: DisparityKind, stats: GroupStats) -> BilinearSpec:
    """Affine weight coefficients (s_a, b_a) of the given measure.

    Blind kinds are rejected: their weights depend on feature-level group
    posteriors, not on (eta, a) alone.
    """
    if isinstance(kind, BlindKind):
        raise DisparityError(f"{kind} weights are feature-dependent, not bilinear in (eta, a)")
    if kind is DisparityKind.DD:
        s = (0.0, 0.0)
        b = (-1.0 / stats.p_group(0), 1.0 / stats.p_group(1))
    elif kind is DisparityKind.DO:
        s = (-1.0 / stats.p(0, 1), 1.0 / stats.p(1, 1))
        b = (0.0, 0.0)
    elif kind is DisparityKind.PD:
        s = (1.0 / stats.p(0, 0), -1.0 / stats.p(1, 0))
        b = (-1.0 / stats.p(0, 0), 1.0 / stats.p(1, 0))
    else:
        raise DisparityError(f"unknown disparity kind: {kind!r}")
    return BilinearSpec(s=s, b=b)


def natural_domain(kind: DisparityKind, stats: GroupStats) -> tuple[float, float]:
    """Interval of t on which both group thresholds stay inside [0, 1]."""
    if isinstance(kind, BlindKind):
        kind = kind.base  # blind variants share the aware brackets
    if kind is DisparityKind.DD:
        m = min(stats.p_group(0), stats.p_group(1))
        return (-m, m)
    if kind is DisparityKind.DO:
        return (-stats.p(0, 1), stats.p(1, 1))
    if kind is DisparityKind.PD:
        return (-stats.p(1, 0), stats.p(0, 0))
    raise DisparityError(f"unknown disparity kind: {kind!r}")


def threshold(kind: DisparityKind, stats: GroupStats, a: int, t: float) -> float:
    """Group-a acceptance threshold H_a(t) = (1 + t*b_a) / (2 - t*s_a)."""
    spec = bilinear_coeffs(kind, stats)
    denom = 2.0 - t * spec.s[a]
    if denom <= 0.0:
        lo, hi = natural_domain(kind, stats)
        raise DomainError(
            f"threshold denominator {denom!r} <= 0 for {kind.name} group {a} at t={t!r}; "
            f"valid bracket is [{lo!r}, {hi!r}]"
        )
    return (1.0 + t * spec.b[a]) / denom


def cost_weights(kind: DisparityKind, stats: GroupStats, a: int, y: int, t: float) -> float:
    """Misclassification cost c_{a,y}(t) = (1 - 2y) * H_a(t) + y.

    The label-0 and label-1 costs of a group sum to 1, so thresholding the
    regression value at H_a(t) minimizes the expected cost.
    """
    h = threshold(kind, stats, a, t)
    return (1 - 2 * y) * h + y


def empirical_disparity_arrays(
    kind: DisparityKind,
    stats: GroupStats,
    a: np.ndarray,
    eta_hat: np.ndarray,
    f: np.ndarray,
) -> float:
    """Plug-in disparity estimate (1/n) * sum_i f_i * w(eta_hat_i, a_i).

    With plug-in stats from the rows' own group counts, the DD case reduces
    algebraically to the difference of group acceptance means.
    """
    a = np.asarray(a)
    if a.size == 0:
        raise EstimationError("no records: disparity undefined")
    mask1 = a == 1
    if not mask1.any() or mask1.all():
        raise EstimationError("both groups must be present: disparity undefined")
    spec = bilinear_coeffs(kind, stats)
    s = np.where(mask1, spec.s[1], spec.s[0])
    b = np.where(mask1, spec.b[1], spec.b[0])
    terms = np.asarray(f, dtype=float) * (s * np.asarray(eta_hat, dtype=float) + b)
    return float(np.sum(terms) / a.size)
