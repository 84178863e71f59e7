"""Solvers for composite fairness targets.

Two extensions of the single-measure machinery:

- equalized odds: control opportunity and predictive-equality differences
  simultaneously with a two-parameter family of group thresholds;
- perfect demographic parity for a K-group protected attribute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .core import DisparityKind, DomainError, GroupStats, bilinear_coeffs, natural_domain
from .core import _affine_threshold
from .solver import DEFAULT_TOL, BracketError, SolverError, bisect

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


# Absolute slack for the dispatcher's residual comparisons, above equality
# solve float noise and far below any meaningful disparity difference.
_DISPATCH_SLACK = 1e-9

# Slack over delta allowed to the final equalized-odds pair.
_FEASIBLE_SLACK = 10.0 * DEFAULT_TOL
# Acceptance gap beyond which the multi-group solve calls a group degenerate.
_ACCEPTANCE_TOL = 1e-6


class GroupLabelSurvival(Protocol):
    """Provider of cell-conditional survival values of the regression score."""

    def survival(self, a: int, y: int, tau: float) -> float:
        """P(eta_a(X) > tau | A=a, Y=y)."""
        ...


@dataclass(frozen=True)
class EqOddsThresholds:
    """Two-parameter solution with its achieved disparities.

    case is the dispatcher branch (1..7) that produced the pair; do_value
    and pd_value are the achieved opportunity / predictive-equality
    differences at (t1, t2).
    """

    t1: float
    t2: float
    case: int
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


def _solve_equality(fn: Callable[[float], float], lo: float, hi: float, target: float):
    """Root of the monotone non-increasing fn(t) = target, clamped to [lo, hi], and
    whether target lies strictly outside fn's range there (the end is then no root)."""
    d_lo = fn(lo)
    if target >= d_lo:
        return lo, target > d_lo
    d_hi = fn(hi)
    if target <= d_hi:
        return hi, target < d_hi
    lo, hi = bisect(lambda t: fn(t) > target, lo, hi, steps=80)
    return 0.5 * (lo + hi), False


def solve_eqodds(dists: GroupLabelSurvival, stats: GroupStats, delta: float) -> EqOddsThresholds:
    """Joint thresholds controlling both error-rate differences at level delta.

    Dispatcher: solve each single constraint alone (acute parameters); if the
    cross residuals already satisfy the other constraint, a single-axis fix
    (or none) suffices; otherwise solve the 2x2 equality system with signed
    targets by nested bisection (outer parameter t2, inner t1), justified by
    coordinatewise monotonicity of both disparity components.
    """
    if delta < 0.0:
        raise SolverError(f"delta must be nonnegative, got {delta!r}")
    (lo1, hi1), (lo2, hi2) = _eqodds_domain(stats)
    eps1 = 1e-9 * (hi1 - lo1)
    eps2 = 1e-9 * (hi2 - lo2)
    lo1, hi1 = lo1 + eps1, hi1 - eps1
    lo2, hi2 = lo2 + eps2, hi2 - eps2

    def d_do(t1: float, t2: float) -> float:
        return eqodds_disparities(dists, stats, t1, t2)[0]

    def d_pd(t1: float, t2: float) -> float:
        return eqodds_disparities(dists, stats, t1, t2)[1]

    # Acute parameters: each constraint solved alone along its own axis,
    # clamped to the axis ends when the level is unreachable there.
    do00, pd00 = eqodds_disparities(dists, stats, 0.0, 0.0)

    def acute(axis_fn: Callable[[float], float], d0: float, lo: float, hi: float) -> float:
        if abs(d0) <= delta:
            return 0.0
        return _solve_equality(axis_fn, lo, hi, delta if d0 > delta else -delta)[0]

    acute_do = acute(lambda t: d_do(t, 0.0), do00, lo1, hi1)
    acute_pd = acute(lambda t: d_pd(0.0, t), pd00, lo2, hi2)

    r_do = d_do(0.0, acute_pd)  # opportunity difference at the PD-only fix
    r_pd = d_pd(acute_do, 0.0)  # predictive-equality difference at the DO-only fix

    def finish(t1: float, t2: float, case: int) -> EqOddsThresholds:
        do, pd = eqodds_disparities(dists, stats, t1, t2)
        if max(abs(do), abs(pd)) > delta + _FEASIBLE_SLACK:
            raise SolverError(
                f"no feasible pair found: best candidate ({t1!r}, {t2!r}) reaches "
                f"disparities ({do!r}, {pd!r}) at level {delta!r}"
            )
        return EqOddsThresholds(t1=t1, t2=t2, case=case, do_value=do, pd_value=pd)

    # Residual comparisons carry the equality solves' float noise; an
    # absolute slack keeps degenerately coupled models (where both
    # disparities coincide) from falling through to the equality system
    # on 1-ulp differences.
    pass_do = abs(r_do) <= delta + _DISPATCH_SLACK
    pass_pd = abs(r_pd) <= delta + _DISPATCH_SLACK
    if pass_do and pass_pd:
        # Both cross residuals pass.  The unconstrained point is the answer
        # when it is itself feasible; otherwise fall back to the cheaper
        # feasible single-axis fix (possible when both axes move both rates).
        if max(abs(do00), abs(pd00)) <= delta + _DISPATCH_SLACK:
            return finish(0.0, 0.0, case=1)
        best = min(
            [(acute_do, 0.0), (0.0, acute_pd)],
            key=lambda c: eqodds_risk(dists, stats, c[0], c[1]),
        )
        return finish(best[0], best[1], case=1)
    if pass_pd:
        return finish(acute_do, 0.0, case=2)
    if pass_do:
        return finish(0.0, acute_pd, case=3)

    sign_do = 1 if r_do > delta else -1
    sign_pd = 1 if r_pd > delta else -1
    target_do = sign_do * delta + 0.0  # +0.0 avoids signed zeros at delta=0
    target_pd = sign_pd * delta + 0.0
    case = {(1, 1): 4, (1, -1): 5, (-1, 1): 6, (-1, -1): 7}[(sign_do, sign_pd)]

    def inner_t1(t2: float) -> tuple[float, bool]:
        # Solve D_DO(t1, t2) = target_do over the t1 range, flagging an
        # out-of-reach target (endpoint returned): near the excluded
        # rectangle corners the inner equation becomes unreachable and
        # crossings involving clamped points are artifacts.
        return _solve_equality(lambda t1: d_do(t1, t2), lo1, hi1, target_do)

    def outer_residual(t2: float) -> tuple[float, bool]:
        t1, clamped = inner_t1(t2)
        return d_pd(t1, t2) - target_pd, clamped

    bracket = None
    if sign_do == sign_pd and acute_pd != 0.0:
        # Same-signed targets: by coordinatewise monotonicity the crossing
        # lies on the segment between 0 and the PD-side acute parameter,
        # where the inner target is always reachable.
        r0, c0 = outer_residual(0.0)
        r1, c1 = outer_residual(acute_pd)
        if not c0 and not c1 and (r0 > 0.0) != (r1 > 0.0):
            bracket = (min(0.0, acute_pd), max(0.0, acute_pd))
    if bracket is None:
        # Mixed signs (or degenerate anchors): scan the t2 range.  The set
        # of t2 with a reachable inner target is an interval, so unclamped
        # probes form one contiguous run and a sign change between
        # consecutive ones is a genuine crossing.  The run's edges are
        # refined up to the clamp boundary so a crossing just before the
        # interval ends is not stepped over.
        n_scan = 65
        grid = [lo2 + (hi2 - lo2) * i / (n_scan - 1) for i in range(n_scan)]
        probes = [(t2, *outer_residual(t2)) for t2 in grid]
        clean = [(t2, r) for t2, r, clamped in probes if not clamped]

        def clamp_edge(t_clean: float, t_clamped: float) -> tuple[float, float]:
            t2, _ = bisect(lambda t: not outer_residual(t)[1], t_clean, t_clamped, steps=60)
            return t2, outer_residual(t2)[0]

        if clean:
            first_idx = next(i for i, p in enumerate(probes) if not p[2])
            last_idx = n_scan - 1 - next(
                i for i, p in enumerate(reversed(probes)) if not p[2]
            )
            if first_idx > 0:
                clean.insert(0, clamp_edge(probes[first_idx][0], probes[first_idx - 1][0]))
            if last_idx < n_scan - 1:
                clean.append(clamp_edge(probes[last_idx][0], probes[last_idx + 1][0]))
            clean.sort(key=lambda p: p[0])
        for (ta, ra), (tb, rb) in zip(clean, clean[1:]):
            if ra == 0.0:
                bracket = (ta, ta)
                break
            if (ra > 0.0) != (rb > 0.0) or rb == 0.0:
                bracket = (ta, tb)
                break
        if bracket is None:
            raise BracketError(
                f"joint targets ({target_do!r}, {target_pd!r}) unreachable: no sign change "
                f"of the system residual over the parameter rectangle"
            )
    b_lo, b_hi = bracket
    lo_positive = outer_residual(b_lo)[0] > 0.0

    b_lo, b_hi = bisect(
        lambda t2: (outer_residual(t2)[0] > 0.0) == lo_positive, b_lo, b_hi, steps=80
    )
    t2 = 0.5 * (b_lo + b_hi)
    t1, _ = inner_t1(t2)
    return finish(t1, t2, case=case)


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
