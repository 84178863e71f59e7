"""Disparity-measure algebra for group-fair threshold classification.

A disparity measure here is a linear functional of a randomized classifier
f(x, a) whose weighting function is affine in the regression value eta per
group: w(eta, a) = s_a * eta + b_a.  Three named measures are supported,
all signed group 1 minus group 0:

- DD: difference of acceptance rates (demographic disparity)
- DO: difference of true-positive rates (opportunity)
- PD: difference of false-positive rates (predictive equality)

Attribute-blind counterparts (DD_X, DO_X, PD_X) describe the same targets
for predictors without access to the group at decision time.  Their
formulas are written over the base measure's weight; the threshold map,
which reads the group, rejects them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DisparityError",
    "DomainError",
    "EstimationError",
    "DisparityKind",
    "BlindKind",
    "GroupStats",
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
    # Lookup table of p(a, y), built once; kept out of eq, hash and repr.
    _cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = (self.p11, self.p10, self.p01, self.p00)
        if not all(math.isfinite(p) and p > 0.0 for p in cells):
            raise DisparityError(f"all four cell probabilities must be positive, got {cells}")
        total = math.fsum(cells)
        if abs(total - 1.0) > _PROB_TOL:
            raise DisparityError(f"cell probabilities must sum to 1 within {_PROB_TOL}, got {total!r}")
        table = {(1, 1): self.p11, (1, 0): self.p10, (0, 1): self.p01, (0, 0): self.p00}
        object.__setattr__(self, "_cells", table)

    def p(self, a: int, y: int) -> float:
        """Cell probability P(A=a, Y=y); a and y are integers 0 or 1."""
        # Booleans hash like 0 and 1, so they are turned away before the lookup.
        if not (a is True or a is False or y is True or y is False):
            try:
                return self._cells[a, y]
            except (KeyError, TypeError):
                pass
        raise DisparityError(f"no cell (a={a!r}, y={y!r}): group and label must be 0 or 1")

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


def bilinear_coeffs(kind: DisparityKind, stats: GroupStats) -> tuple[tuple, tuple]:
    """((s_0, s_1), (b_0, b_1)) of the measure's weight w(eta, a) = s[a]*eta + b[a].

    Blind kinds are rejected: their weights depend on feature-level group
    posteriors, not on (eta, a) alone.
    """
    if isinstance(kind, BlindKind):
        raise DisparityError(f"{kind} weights are feature-dependent, not bilinear in (eta, a)")
    return _coeff_table(kind, stats.p11, stats.p10, stats.p01, stats.p00)


def _coeff_table(kind: DisparityKind, p11, p10, p01, p00) -> tuple[tuple, tuple]:
    """((s_0, s_1), (b_0, b_1)) of the measure, by plain arithmetic on the four
    cell values: floats give floats and Fractions give exact rationals."""
    zero = 0 * p11
    if kind is DisparityKind.DD:
        return (zero, zero), (-1 / (p01 + p00), 1 / (p11 + p10))
    if kind is DisparityKind.DO:
        return (-1 / p01, 1 / p11), (zero, zero)
    if kind is DisparityKind.PD:
        return (1 / p00, -1 / p10), (-1 / p00, 1 / p10)
    raise DisparityError(f"unknown disparity kind: {kind!r}")


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
    s, b = bilinear_coeffs(kind, stats)
    try:
        return _affine_threshold(s[a], b[a], t)
    except DomainError as exc:
        lo, hi = natural_domain(kind, stats)
        raise DomainError(
            f"{exc} for {kind.name} group {a} at t={t!r}; valid bracket is [{lo!r}, {hi!r}]"
        ) from None


def _affine_threshold(s: float, b: float, t: float) -> float:
    """The threshold of the weight w(eta) = s*eta + b at parameter t; the
    caller names the rule in the error."""
    denom = 2.0 - t * s
    if denom <= 0.0:
        raise DomainError(f"threshold denominator {denom!r} <= 0")
    return (1.0 + t * b) / denom


def cost_weights(
    kind: DisparityKind | BlindKind, stats: GroupStats, a: int, y: int, t: float
) -> float:
    """Misclassification cost c_{a,y}(t) of cell (a, y).

    Aware kinds: (1 - 2y) * H_a(t) + y.  A group's two costs sum to 1, so
    thresholding the regression value at H_a(t) minimizes the expected cost.
    Blind kinds: (1 + (1 - 2y) * t * w(y, a)) / 2, w the base measure's
    weight; every cost is 1/2 at t = 0.
    """
    if isinstance(kind, BlindKind):
        s, b = bilinear_coeffs(kind.base, stats)
        return 0.5 * (1.0 + (1 - 2 * y) * t * (s[a] * y + b[a]))
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
    s, b = (np.where(mask1, coeff[1], coeff[0]) for coeff in bilinear_coeffs(kind, stats))
    terms = np.asarray(f, dtype=float) * (s * np.asarray(eta_hat, dtype=float) + b)
    return float(np.sum(terms) / a.size)
