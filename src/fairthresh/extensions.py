"""Solvers for composite fairness targets.

Two extensions of the single-measure machinery:

- equalized odds: control opportunity and predictive-equality differences
  simultaneously with a two-parameter family of group thresholds whose
  multipliers maximize the Lagrangian dual, by nested one-dimensional searches;
- perfect demographic parity for a K-group protected attribute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .core import DisparityKind, DomainError, GroupStats, bilinear_coeffs, natural_domain
from .core import _affine_threshold
from .solver import SolverError, bisect

__all__ = [
    "GroupLabelSurvival",
    "EqOddsThresholds",
    "MulticlassThresholds",
    "eqodds_group_threshold",
    "eqodds_disparities",
    "eqodds_risk",
    "solve_eqodds",
    "solve_multiclass_dp",
]


# Disparity slack over delta allowed to the final equalized-odds pair.
_FEASIBLE_SLACK = 1e-9
# Acceptance gap beyond which the multi-group solve calls a group degenerate.
_ACCEPTANCE_TOL = 1e-6


class GroupLabelSurvival(Protocol):
    """Provider of cell-conditional survival values of the regression score.

    solve_eqodds needs a calibrated score, eta_a(x) = P(Y=1 | X=x, A=a): only
    then does the rule at (t1, t2) minimize risk + t1 * DO + t2 * PD in the
    rectangle. Survivals set cell by cell, with no such score behind them, may fail.
    """

    def survival(self, a: int, y: int, tau: float) -> float:
        """P(eta_a(X) > tau | A=a, Y=y)."""
        ...


@dataclass(frozen=True)
class EqOddsThresholds:
    """Two-parameter solution with its achieved disparities.

    t1 and t2 are the dual multipliers of the opportunity and
    predictive-equality constraints; do_value and pd_value are the achieved
    differences at (t1, t2). A nonzero multiplier holds its difference at
    delta, with the multiplier's sign.
    """

    t1: float
    t2: float
    do_value: float
    pd_value: float


@dataclass(frozen=True)
class MulticlassThresholds:
    """Per-group offsets t_a (summing to 0) with the common acceptance rate."""

    t: tuple[float, ...]
    thresholds: tuple[float, ...]
    acceptance: tuple[float, ...]
    s_star: float


def _eqodds_domain(stats: GroupStats) -> tuple[tuple[float, float], tuple[float, float]]:
    return natural_domain(DisparityKind.DO, stats), natural_domain(DisparityKind.PD, stats)


def eqodds_group_threshold(stats: GroupStats, a: int, t1: float, t2: float) -> float:
    """Group-a threshold of the two-parameter equalized-odds family.

    The threshold of the combined weight t1*w_DO + t2*w_PD at parameter 1,
    so it equals the opportunity-only threshold at t2=0 and the
    predictive-equality-only threshold at t1=0.
    """
    _check_eqodds_point(stats, t1, t2)
    return _group_threshold(stats, a, t1, t2)


def _check_eqodds_point(stats: GroupStats, t1: float, t2: float) -> None:
    (lo1, hi1), (lo2, hi2) = _eqodds_domain(stats)
    if not (lo1 <= t1 <= hi1 and lo2 <= t2 <= hi2):
        raise DomainError(
            f"(t1, t2) = ({t1!r}, {t2!r}) outside [{lo1!r}, {hi1!r}] x [{lo2!r}, {hi2!r}]"
        )
    # The two rectangle corners where a group denominator vanishes are excluded.
    if (t1, t2) == (hi1, lo2) or (t1, t2) == (lo1, hi2):
        raise DomainError(f"corner point ({t1!r}, {t2!r}) excluded from the parameter domain")


def _group_threshold(stats: GroupStats, a: int, t1: float, t2: float) -> float:
    """eqodds_group_threshold at a point already checked by _check_eqodds_point."""
    s_do, b_do = bilinear_coeffs(DisparityKind.DO, stats)
    s_pd, b_pd = bilinear_coeffs(DisparityKind.PD, stats)
    try:
        h = _affine_threshold(t1 * s_do[a] + t2 * s_pd[a], t1 * b_do[a] + t2 * b_pd[a], 1.0)
    except DomainError as exc:
        raise DomainError(f"{exc} for group {a} at ({t1!r}, {t2!r})") from None
    # Mathematically the ratio lies in [0, 1] on the admissible rectangle;
    # clamp away boundary rounding spill of a few ulps.
    return min(1.0, max(0.0, h))


def eqodds_disparities(
    dists: GroupLabelSurvival, stats: GroupStats, t1: float, t2: float
) -> tuple[float, float]:
    """Signed (opportunity, predictive-equality) differences of the rule at (t1, t2).

    Both components are group 1 minus group 0 and monotone non-increasing in
    each parameter.
    """
    _check_eqodds_point(stats, t1, t2)
    thr1 = _group_threshold(stats, 1, t1, t2)
    thr0 = _group_threshold(stats, 0, t1, t2)
    do = dists.survival(1, 1, thr1) - dists.survival(0, 1, thr0)
    pd = dists.survival(1, 0, thr1) - dists.survival(0, 0, thr0)
    return do, pd


def _threshold_risk(dists: GroupLabelSurvival, stats: GroupStats, thresholds) -> float:
    """Misclassification rate of the rule accepting group a when eta_a > thresholds[a]."""
    risk = 0.0
    for a in (0, 1):
        risk += stats.p(a, 1) * (1.0 - dists.survival(a, 1, thresholds[a]))
        risk += stats.p(a, 0) * dists.survival(a, 0, thresholds[a])
    return risk


def eqodds_risk(dists: GroupLabelSurvival, stats: GroupStats, t1: float, t2: float) -> float:
    """Misclassification rate of the two-threshold rule."""
    _check_eqodds_point(stats, t1, t2)
    return _threshold_risk(dists, stats, [_group_threshold(stats, a, t1, t2) for a in (0, 1)])


def _dual_argmax(slope: Callable[[float], float], lo: float, hi: float, delta: float) -> float:
    """Maximizer on [lo, hi] of a concave function with derivative slope(t) - delta * sign(t),
    slope non-increasing: 0 when |slope(0)| <= delta, else the point on slope(0)'s side
    where |slope| comes down to delta, or that side's end when it never does."""
    s0 = slope(0.0)
    if abs(s0) <= delta:
        return 0.0
    sign, edge = (1.0, hi) if s0 > delta else (-1.0, lo)
    if sign * slope(edge) >= delta:
        return edge
    good, bad = bisect(lambda t: sign * slope(t) > delta, 0.0, edge, steps=80)
    return 0.5 * (good + bad)


def solve_eqodds(dists: GroupLabelSurvival, stats: GroupStats, delta: float) -> EqOddsThresholds:
    """Joint thresholds controlling both error-rate differences at level delta.

    The rule at (t1, t2) minimizes risk + t1 * DO + t2 * PD (for calibrated
    dists, see GroupLabelSurvival), so the multipliers maximize the concave dual
    g(t1, t2) = min_f [R + t1 * DO + t2 * PD] - delta * (|t1| + |t2|). An inner
    search finds the best t1 for a given t2; an outer one finds t2 on the slope
    PD(best_t1(t2), t2) - delta * sign(t2) of the partial maximum (Danskin).
    """
    if not (math.isfinite(delta) and delta >= 0.0):
        raise SolverError(f"disparity budget {delta!r} must be finite and nonnegative")
    (lo1, hi1), (lo2, hi2) = _eqodds_domain(stats)
    eps1, eps2 = 1e-9 * (hi1 - lo1), 1e-9 * (hi2 - lo2)
    lo1, hi1 = lo1 + eps1, hi1 - eps1
    lo2, hi2 = lo2 + eps2, hi2 - eps2

    def best_t1(t2: float) -> float:
        return _dual_argmax(
            lambda t1: eqodds_disparities(dists, stats, t1, t2)[0], lo1, hi1, delta
        )

    t2 = _dual_argmax(
        lambda t2: eqodds_disparities(dists, stats, best_t1(t2), t2)[1], lo2, hi2, delta
    )
    t1 = best_t1(t2)
    do, pd = eqodds_disparities(dists, stats, t1, t2)
    if max(abs(do), abs(pd)) > delta + _FEASIBLE_SLACK:
        raise SolverError(
            f"no feasible threshold pair found: the dual ends at ({t1!r}, {t2!r}) with "
            f"disparities ({do!r}, {pd!r}) at level {delta!r}. When it ends at an excluded "
            f"corner of the rectangle, where a group's weight denominator vanishes, the "
            f"optimal rule randomizes that group, which no threshold pair does"
        )
    return EqOddsThresholds(t1=t1, t2=t2, do_value=do, pd_value=pd)


def solve_multiclass_dp(
    group_curves: Sequence[Callable[[float], float]],
    p_groups: Sequence[float],
) -> MulticlassThresholds:
    """Thresholds equalizing acceptance rates across K groups exactly.

    Group a accepts above core's threshold at its offset t_a, for the
    constant weight 1/p_a; the offsets are parametrized by a common
    acceptance rate s (per-group quantile of the score distribution), and
    s is solved so the offsets sum to zero.
    group_curves[a](tau) must return P(eta_a > tau | A=a), non-increasing
    in tau.
    """
    k = len(group_curves)
    if k < 2:
        raise SolverError(f"need at least two groups, got {k}")
    if len(p_groups) != k:
        raise SolverError("one marginal probability per group required")
    if any(p <= 0.0 for p in p_groups):
        raise SolverError("group marginals must be positive")
    if abs(math.fsum(p_groups) - 1.0) > 1e-9:
        raise SolverError(f"group marginals must sum to 1, got {math.fsum(p_groups)!r}")

    def quantile(a: int, s: float) -> float:
        # Threshold where group a's acceptance crosses s.
        lo, hi = bisect(lambda tau: group_curves[a](tau) > s, 0.0, 1.0, steps=100)
        return 0.5 * (lo + hi)

    def offsets(s: float) -> list[float]:
        return [2.0 * p_groups[a] * (quantile(a, s) - 0.5) for a in range(k)]

    # Sum of offsets decreases from ~+1 (s near 0) to ~-1 (s near 1).
    s_lo, s_hi = 1e-9, 1.0 - 1e-9
    sum_lo = math.fsum(offsets(s_lo))
    sum_hi = math.fsum(offsets(s_hi))
    if not (sum_lo >= 0.0 >= sum_hi):
        raise SolverError(
            f"offset sum does not cross zero on ({s_lo}, {s_hi}): "
            f"endpoints {sum_lo!r}, {sum_hi!r}"
        )
    s_lo, s_hi = bisect(lambda s: math.fsum(offsets(s)) > 0.0, s_lo, s_hi, steps=100)
    s_star = 0.5 * (s_lo + s_hi)

    t = offsets(s_star)
    for a in range(k):
        tau = _affine_threshold(0.0, 1.0 / p_groups[a], t[a])
        achieved = group_curves[a](tau)
        if abs(achieved - s_star) > _ACCEPTANCE_TOL:
            raise SolverError(
                f"group {a} cannot attain the common acceptance rate {s_star!r} "
                f"(achieved {achieved!r}); its score distribution is degenerate"
            )
    # Redistribute the tiny bisection residual so the offsets sum to zero
    # exactly; each group threshold moves by residual/2, far below tolerance.
    residual = math.fsum(t)
    t = [t_a - residual * p_a for t_a, p_a in zip(t, p_groups)]
    thresholds = tuple(_affine_threshold(0.0, 1.0 / p_a, t_a) for t_a, p_a in zip(t, p_groups))
    acceptance = tuple(group_curves[a](thresholds[a]) for a in range(k))
    return MulticlassThresholds(
        t=tuple(t), thresholds=thresholds, acceptance=acceptance, s_star=s_star
    )
