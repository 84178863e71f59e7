"""Suites of ``fairthresh oracle-check``: the exact solver against
``discrete.brute_force_oracle``, closed-form bisection against a grid in t,
and the equalized-odds solver against a grid over both group thresholds. The
imports below are all that the suites share with the code they check.
``brute_force_oracle`` stays in ``discrete``, where the benchmark traces it,
and could not be re-exported from here without an import cycle. The uniform
equalized-odds grid misses optima on steep survival curves, as on
``model_from_seed(126)`` and ``(116)`` (see ROADMAP.md).
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import core
from .core import DisparityKind, natural_domain
from .discrete import (
    FiniteDistribution,
    brute_force_oracle,
    disparity_exact,
    risk_exact,
    solve_randomized,
)
from .extensions import eqodds_risk, solve_eqodds
from .gaussian import default_model, model_from_seed, theoretical_fair_classifier

__all__ = ["check_discrete_suite", "check_grid_suite", "check_eqodds_suite"]

_DISCRETE_INSTANCES = 200
_DISCRETE_ATOMS_MAX = 6
_DISCRETE_DELTAS = (0.0, 0.1, 0.3)
_DISCRETE_RISK_TOL = 1e-9
_GRID_STEP = 1e-5
_GRID_T_TOL = 1e-4
_GRID_MODEL_SEEDS = tuple(range(101, 111))
_GRID_DELTAS_CYCLE = (0.0, 0.05, 0.1, 0.15)
_EQODDS_DELTAS = (0.05, 0.1)
_EQODDS_TOL = 1e-4
# Equalized-odds oracle grid: points per axis at each level, the number of
# levels, and the half-width in cells of each level's window.
_EQODDS_GRID = 121
_EQODDS_LEVELS = 3
_EQODDS_WINDOW = 4


def _random_finite_instance(rng: random.Random) -> FiniteDistribution:
    n = rng.randint(2, _DISCRETE_ATOMS_MAX)
    groups = [0, 1] + [rng.randint(0, 1) for _ in range(n - 2)]
    raw = [rng.uniform(0.2, 1.0) for _ in range(n)]
    total = sum(raw)
    masses = [r / total for r in raw]
    scores = [rng.uniform(0.05, 0.95) for _ in range(n)]
    return FiniteDistribution(list(zip(groups, masses, scores)))


def check_discrete_suite(seed: int, failures: list[str]) -> str:
    """Exact solver against the brute-force oracle; returns the summary line."""
    rng = random.Random(seed)
    worst_gap = worst_excess = 0.0
    for index in range(_DISCRETE_INSTANCES):
        dist = _random_finite_instance(rng)
        for kind in DisparityKind:
            for delta in _DISCRETE_DELTAS:
                solution = solve_randomized(dist, kind, delta)
                oracle_risk, _ = brute_force_oracle(dist, kind, delta)
                gap = abs(float(risk_exact(dist, solution) - oracle_risk))
                excess = float(abs(disparity_exact(dist, kind, solution)) - Fraction(delta))
                worst_gap = max(worst_gap, gap)
                worst_excess = max(worst_excess, excess)
                for what, value, bound in (
                    ("risk gap", gap, _DISCRETE_RISK_TOL), ("constraint excess", excess, 0.0)
                ):
                    if value > bound:
                        failures.append(
                            f"discrete instance {index} kind={kind.value} delta={delta}: "
                            f"{what} {value:.3e}"
                        )
    checks = _DISCRETE_INSTANCES * len(DisparityKind) * len(_DISCRETE_DELTAS)
    return (
        f"discrete: {checks} checks, worst risk gap {worst_gap:.3e}, "
        f"worst constraint excess {worst_excess:.3e}"
    )


def _suite_disparity(model, kind: DisparityKind, t: float) -> float:
    """Disparity of the group-threshold rule, recomputed inside the suite.

    The threshold map is looked up through the core module at call time, so
    the comparison below exercises the formula actually in use rather than
    a copy bound at import.
    """
    stats = model.stats
    thr1 = core.threshold(kind, stats, 1, t)
    thr0 = core.threshold(kind, stats, 0, t)
    if kind is DisparityKind.DD:

        def rate(a: int, thr: float) -> float:
            return sum(
                stats.p(a, y) / stats.p_group(a) * model.survival(a, y, thr) for y in (0, 1)
            )

        return rate(1, thr1) - rate(0, thr0)
    y = 1 if kind is DisparityKind.DO else 0
    return model.survival(1, y, thr1) - model.survival(0, y, thr0)


def _grid_threshold_oracle(model, kind: DisparityKind, delta: float, step: float) -> float:
    """Smallest-magnitude grid point whose suite disparity meets the budget.

    The curves are non-increasing, so the first feasible point along the
    (sign-mirrored) search direction is found by bisecting grid indices; the
    result equals a full scan's answer at a fraction of the evaluations.
    """
    lo, hi = natural_domain(kind, model.stats)
    shrink = 1e-9 * (hi - lo)
    d0 = _suite_disparity(model, kind, 0.0)
    if abs(d0) <= delta:
        return 0.0
    sign = 1.0 if d0 > delta else -1.0
    steps = int(math.floor(((hi if sign > 0 else -lo) - shrink) / step))

    def feasible(i: int) -> bool:
        return sign * _suite_disparity(model, kind, sign * i * step) <= delta

    if not feasible(steps):
        return sign * steps * step
    low, high = 0, steps
    while high - low > 1:
        mid = (low + high) // 2
        if feasible(mid):
            high = mid
        else:
            low = mid
    return sign * high * step


def check_grid_suite(failures: list[str]) -> str:
    """Closed-form bisection against the grid oracle; returns the summary line."""
    worst = 0.0
    for j, model_seed in enumerate(_GRID_MODEL_SEEDS):
        model = model_from_seed(model_seed)
        for k, kind in enumerate(DisparityKind):
            delta = _GRID_DELTAS_CYCLE[(j + k) % len(_GRID_DELTAS_CYCLE)]
            t_bisect = theoretical_fair_classifier(model, kind, delta, tol=1e-6).t_star
            t_grid = _grid_threshold_oracle(model, kind, delta, _GRID_STEP)
            diff = abs(t_bisect - t_grid)
            worst = max(worst, diff)
            if diff > _GRID_T_TOL:
                failures.append(
                    f"bisect-grid model seed {model_seed} kind={kind.value} "
                    f"delta={delta}: |t difference| {diff:.3e}"
                )
    curves = len(_GRID_MODEL_SEEDS) * len(DisparityKind)
    return f"bisect-grid: {curves} curves, worst |t difference| {worst:.3e}"


def _eqodds_grid_oracle(model, stats, delta: float) -> float | None:
    """Least risk of a group-threshold pair (T0, T1) on a grid, with |DO| and
    |PD| at most delta; None when no grid point meets the budget.

    The rule accepts group a where eta > T_a. DO, PD and the risk are sums of
    one term per group, each depending on that group's threshold alone, so
    one survival call per grid value and cell gives the whole grid as numpy
    broadcasts. Each level grids a window of a few cells around the previous
    level's argmin. The grid never passes through the solver's (t1, t2) map.
    """
    spans = [(0.0, 1.0), (0.0, 1.0)]
    best = math.inf
    for _ in range(_EQODDS_LEVELS):
        axes = [np.linspace(lo, hi, _EQODDS_GRID) for lo, hi in spans]
        surv = {
            (a, y): np.array([model.survival(a, y, T) for T in axes[a].tolist()])
            for a in (0, 1)
            for y in (0, 1)
        }
        risk_terms = [
            stats.p(a, 1) * (1.0 - surv[a, 1]) + stats.p(a, 0) * surv[a, 0] for a in (0, 1)
        ]
        # Rows index T0, columns T1; both differences are group 1 minus group 0.
        do = surv[1, 1][None, :] - surv[0, 1][:, None]
        pd = surv[1, 0][None, :] - surv[0, 0][:, None]
        risk = risk_terms[0][:, None] + risk_terms[1][None, :]
        risk[np.maximum(np.abs(do), np.abs(pd)) > delta + 1e-12] = math.inf
        i, j = np.unravel_index(np.argmin(risk), risk.shape)
        if risk[i, j] == math.inf:
            break
        best = min(best, float(risk[i, j]))
        spans = []
        for axis, k in zip(axes, (i, j)):
            width = _EQODDS_WINDOW * (axis[-1] - axis[0]) / (_EQODDS_GRID - 1)
            spans.append((max(0.0, axis[k] - width), min(1.0, axis[k] + width)))
    return best if best < math.inf else None


def check_eqodds_suite(failures: list[str]) -> str:
    """Equalized-odds solver against the threshold-pair grid; returns the summary line."""
    model = default_model()
    stats = model.stats
    worst_excess = -math.inf
    worst_gap = 0.0
    for delta in _EQODDS_DELTAS:
        solution = solve_eqodds(model, stats, delta)
        excess = max(abs(solution.do_value), abs(solution.pd_value)) - delta
        solver_risk = eqodds_risk(model, stats, solution.t1, solution.t2)
        grid_risk = _eqodds_grid_oracle(model, stats, delta)
        worst_excess = max(worst_excess, excess)
        if excess > _EQODDS_TOL:
            failures.append(f"eqodds delta={delta}: constraint excess {excess:.3e}")
        if grid_risk is None:
            failures.append(f"eqodds delta={delta}: no feasible grid point")
            continue
        gap = abs(solver_risk - grid_risk)
        worst_gap = max(worst_gap, gap)
        if gap > _EQODDS_TOL:
            failures.append(f"eqodds delta={delta}: risk gap {gap:.3e} versus grid")
    return (
        f"eqodds-grid: {len(_EQODDS_DELTAS)} budgets, worst constraint excess "
        f"{worst_excess:.3e}, worst risk gap {worst_gap:.3e}"
    )
