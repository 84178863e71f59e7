"""Tests for the composite-target solvers.

Oracles come first and are independent of the implementation: the
two-parameter threshold is re-derived by root-finding its defining
acceptance identity, survival families provide exact closed-form cell
survivals, multi-class offsets are cross-checked against an explicitly
derived scalar equation, and a 2-D grid search bounds the joint solver's
risk from above.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairthresh.core import (
    DisparityKind,
    DomainError,
    GroupStats,
    bilinear_coeffs,
    threshold,
)
from fairthresh.extensions import (
    EqOddsThresholds,
    _dual_argmax,
    eqodds_disparities,
    eqodds_group_threshold,
    eqodds_risk,
    solve_eqodds,
    solve_multiclass_dp,
)
from fairthresh.gaussian import default_model, model_from_seed
from fairthresh.oracles import _eqodds_grid_oracle
from fairthresh.solver import DisparityCurve, SolverError, solve_threshold

from conftest import random_stats, stats_strategy


# ---------------------------------------------------------------------------
# Oracles


def defining_equation_root(stats: GroupStats, a: int, t1: float, t2: float) -> float:
    """Root of 2*eta - 1 = t1*w_DO(eta,a) + t2*w_PD(eta,a).

    The two-parameter group threshold is defined by this acceptance
    identity; solving it directly with the affine weight definitions is
    independent of the closed-form ratio.
    """
    s_do, b_do = bilinear_coeffs(DisparityKind.DO, stats)
    s_pd, b_pd = bilinear_coeffs(DisparityKind.PD, stats)

    def phi(eta: float) -> float:
        return (
            2.0 * eta
            - 1.0
            - t1 * (s_do[a] * eta + b_do[a])
            - t2 * (s_pd[a] * eta + b_pd[a])
        )

    lo, hi = -50.0, 51.0
    assert phi(lo) < 0.0 < phi(hi)
    for _ in range(250):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_cdf_int(tau: float, a: int, b: int) -> float:
    """Regularized incomplete beta for integer parameters, via the exact
    binomial tail identity."""
    n = a + b - 1
    return math.fsum(
        math.comb(n, j) * tau**j * (1.0 - tau) ** (n - j) for j in range(a, n + 1)
    )


class BetaGroupModel:
    """Score distributed Beta(alpha_a, beta_a) per group with cell laws
    obtained by exact probability tilting, so the cell survivals have the
    closed forms S_{a,1} = 1 - I(tau; alpha+1, beta) and
    S_{a,0} = 1 - I(tau; alpha, beta+1)."""

    def __init__(self, params: dict[int, tuple[int, int]]):
        self.params = params

    def survival(self, a: int, y: int, tau: float) -> float:
        if tau <= 0.0:
            return 1.0
        if tau >= 1.0:
            return 0.0
        alpha, beta = self.params[a]
        if y == 1:
            return 1.0 - beta_cdf_int(tau, alpha + 1, beta)
        return 1.0 - beta_cdf_int(tau, alpha, beta + 1)


def stats_for_beta(params: dict[int, tuple[int, int]], p1: float) -> GroupStats:
    a1, b1 = params[1]
    a0, b0 = params[0]
    m1 = a1 / (a1 + b1)
    m0 = a0 / (a0 + b0)
    return GroupStats(
        p11=p1 * m1, p10=p1 * (1.0 - m1), p01=(1.0 - p1) * m0, p00=(1.0 - p1) * (1.0 - m0)
    )


class PowerSurvival:
    """Independent per-cell power-law survivals (1 - tau)**k_{a,y}."""

    def __init__(self, k: dict[tuple[int, int], float]):
        self.k = k

    def survival(self, a: int, y: int, tau: float) -> float:
        if tau <= 0.0:
            return 1.0
        if tau >= 1.0:
            return 0.0
        return (1.0 - tau) ** self.k[(a, y)]


class ConstantSurvival:
    """Degenerate flat survivals; breaks the continuity the solver needs."""

    def __init__(self, v: dict[int, float]):
        self.v = v

    def survival(self, a: int, y: int, tau: float) -> float:
        if tau <= 0.0:
            return 1.0
        if tau >= 1.0:
            return 0.0
        return self.v[a]


def power_curve(g: float):
    def acc(tau: float) -> float:
        if tau <= 0.0:
            return 1.0
        if tau >= 1.0:
            return 0.0
        return (1.0 - tau) ** g

    return acc


def parameter_box(stats: GroupStats) -> tuple[tuple[float, float], tuple[float, float]]:
    """The admissible rectangle, derived directly from cell probabilities."""
    return (-stats.p(0, 1), stats.p(1, 1)), (-stats.p(1, 0), stats.p(0, 0))


def grid_best_risk(dists, stats: GroupStats, delta: float, n: int = 81):
    """Exhaustive risk minimum over an n*n parameter grid, restricted to
    grid points satisfying the joint constraint.  Returns None when no grid
    point is feasible."""
    (l1, h1), (l2, h2) = parameter_box(stats)
    e1, e2 = 1e-6 * (h1 - l1), 1e-6 * (h2 - l2)
    best = None
    for i in range(n):
        t1 = (l1 + e1) + (h1 - l1 - 2 * e1) * i / (n - 1)
        for j in range(n):
            t2 = (l2 + e2) + (h2 - l2 - 2 * e2) * j / (n - 1)
            do, pd = eqodds_disparities(dists, stats, t1, t2)
            if max(abs(do), abs(pd)) <= delta:
                risk = eqodds_risk(dists, stats, t1, t2)
                if best is None or risk < best[0]:
                    best = (risk, t1, t2)
    return best


# Frozen survival scenarios for the joint solver.
SEP_PARAMS = {1: (3, 2), 0: (2, 3)}
SEP_STATS = stats_for_beta(SEP_PARAMS, 0.7)
TABLE_STATS = GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)


# ---------------------------------------------------------------------------
# Two-parameter group thresholds


class TestEqOddsGroupThreshold:
    def test_unconstrained_center(self, table_stats):
        for a in (0, 1):
            assert eqodds_group_threshold(table_stats, a, 0.0, 0.0) == 0.5

    def test_reduces_to_single_measure_thresholds_frozen(self, table_stats):
        got = eqodds_group_threshold(table_stats, 1, 0.14, 0.0)
        assert got == pytest.approx(0.49 / 0.84, abs=1e-15)
        assert got == pytest.approx(
            threshold(DisparityKind.DO, table_stats, 1, 0.14), abs=1e-14
        )

    def test_reductions_random(self, rng):
        for _ in range(1000):
            stats = random_stats(rng)
            u = rng.uniform(-0.9, 0.9)
            t1 = u * (stats.p(1, 1) if u >= 0 else stats.p(0, 1))
            t2 = u * (stats.p(0, 0) if u >= 0 else stats.p(1, 0))
            for a in (0, 1):
                assert eqodds_group_threshold(stats, a, t1, 0.0) == threshold(
                    DisparityKind.DO, stats, a, t1
                )
                assert eqodds_group_threshold(stats, a, 0.0, t2) == threshold(
                    DisparityKind.PD, stats, a, t2
                )

    def test_group1_saturates_at_its_boundary(self, table_stats):
        # At t1 = p_{1,1} group 1's threshold reaches 1 for any admissible t2
        # above the excluded corner.
        for t2 in (-0.15, -0.05, 0.0, 0.1, 0.18):
            got = eqodds_group_threshold(table_stats, 1, table_stats.p(1, 1), t2)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_group0_saturates_at_its_boundary(self, table_stats):
        for t1 in (-0.1, 0.0, 0.2, 0.49):
            got = eqodds_group_threshold(table_stats, 0, t1, table_stats.p(0, 0))
            assert got == pytest.approx(0.0, abs=1e-12)

    @given(stats=stats_strategy, u1=st.floats(0.08, 0.92), u2=st.floats(0.08, 0.92))
    @settings(max_examples=150, deadline=None)
    def test_matches_defining_equation(self, stats, u1, u2):
        (l1, h1), (l2, h2) = parameter_box(stats)
        t1 = l1 + u1 * (h1 - l1)
        t2 = l2 + u2 * (h2 - l2)
        for a in (0, 1):
            got = eqodds_group_threshold(stats, a, t1, t2)
            assert got == pytest.approx(defining_equation_root(stats, a, t1, t2), abs=1e-8)

    @given(stats=stats_strategy, u1=st.floats(0.0, 1.0), u2=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_within_unit_interval(self, stats, u1, u2):
        (l1, h1), (l2, h2) = parameter_box(stats)
        t1 = l1 + u1 * (h1 - l1)
        t2 = l2 + u2 * (h2 - l2)
        if (t1, t2) in {(h1, l2), (l1, h2)}:
            return
        for a in (0, 1):
            try:
                got = eqodds_group_threshold(stats, a, t1, t2)
            except DomainError:
                continue
            assert 0.0 <= got <= 1.0

    def test_corner_points_rejected(self, table_stats):
        (l1, h1), (l2, h2) = parameter_box(table_stats)
        with pytest.raises(DomainError, match="corner"):
            eqodds_group_threshold(table_stats, 1, h1, l2)
        with pytest.raises(DomainError, match="corner"):
            eqodds_group_threshold(table_stats, 0, l1, h2)

    def test_outside_rectangle_rejected(self, table_stats):
        with pytest.raises(DomainError):
            eqodds_group_threshold(table_stats, 1, 0.6, 0.0)
        with pytest.raises(DomainError):
            eqodds_group_threshold(table_stats, 0, 0.0, -0.3)


# ---------------------------------------------------------------------------
# Joint disparities


class TestEqOddsDisparities:
    def test_identical_cell_distributions_at_center(self, table_stats):
        dists = PowerSurvival({(1, 1): 1.3, (0, 1): 1.3, (1, 0): 2.0, (0, 0): 2.0})
        do, pd = eqodds_disparities(dists, table_stats, 0.0, 0.0)
        assert do == 0.0
        assert pd == 0.0

    def test_boundary_sign(self, table_stats):
        # With group 1's threshold saturated at 1, its survivals vanish and
        # the opportunity difference cannot be positive.
        dists = PowerSurvival({(1, 1): 0.8, (0, 1): 1.7, (1, 0): 1.1, (0, 0): 2.4})
        do, _ = eqodds_disparities(dists, table_stats, table_stats.p(1, 1) - 1e-9, 0.0)
        assert do <= 0.0

    def test_monotone_lattice(self):
        dists = BetaGroupModel(SEP_PARAMS)
        (l1, h1), (l2, h2) = parameter_box(SEP_STATS)
        m1, m2 = 0.1 * (h1 - l1), 0.1 * (h2 - l2)
        t1s = [l1 + m1 + (h1 - l1 - 2 * m1) * i / 6 for i in range(7)]
        t2s = [l2 + m2 + (h2 - l2 - 2 * m2) * j / 6 for j in range(7)]
        values = {
            (i, j): eqodds_disparities(dists, SEP_STATS, t1s[i], t2s[j])
            for i in range(7)
            for j in range(7)
        }
        for i in range(7):
            for j in range(7):
                do, pd = values[(i, j)]
                assert -1.0 <= do <= 1.0 and -1.0 <= pd <= 1.0
                if i + 1 < 7:
                    nxt = values[(i + 1, j)]
                    assert nxt[0] <= do + 1e-12
                    assert nxt[1] <= pd + 1e-12
                if j + 1 < 7:
                    nxt = values[(i, j + 1)]
                    assert nxt[0] <= do + 1e-12
                    assert nxt[1] <= pd + 1e-12


# ---------------------------------------------------------------------------
# Joint solver


class TestSolveEqOdds:
    def test_equality_solve_flags_unreachable_targets(self):
        # slope(t) = c - t on [-1, 1], shrunk to +-(1 - 1e-9), at budget
        # 0.25: inside the budget only slope(0) is read; a root past the end
        # returns that end; otherwise the root of |slope| = 0.25 on the side
        # where slope(0) exceeds it, from its feasible side.
        calls = []

        def line(c):
            def slope(t):
                calls.append(t)
                return c - t

            return slope

        end = 1.0 - 1e-9
        assert _dual_argmax(line(0.2), (-1.0, 1.0), 0.25) == 0.0
        assert calls == [0.0]
        assert _dual_argmax(line(1.5), (-1.0, 1.0), 0.25) == end
        assert _dual_argmax(line(-1.5), (-1.0, 1.0), 0.25) == -end
        assert calls[1:] == [0.0, end, 0.0, -end]  # the far end only on that side
        for c, root in ((0.75, 0.5), (-0.75, -0.5)):
            del calls[:]
            t = _dual_argmax(line(c), (-1.0, 1.0), 0.25)
            assert t == pytest.approx(root, abs=1e-15) and abs(c - t) <= 0.25
            assert calls[:2] == [0.0, math.copysign(end, c)]
            assert len(set(calls)) == len(calls)  # no point evaluated twice

    def test_slack_constraint_returns_origin(self):
        dists = BetaGroupModel(SEP_PARAMS)
        res = solve_eqodds(dists, SEP_STATS, 0.5)
        assert res == EqOddsThresholds(
            t1=0.0, t2=0.0, do_value=res.do_value, pd_value=res.pd_value
        )
        assert abs(res.do_value) <= 0.5 and abs(res.pd_value) <= 0.5

    def test_identical_groups_stay_at_origin(self, table_stats):
        dists = PowerSurvival({(1, 1): 1.3, (0, 1): 1.3, (1, 0): 2.0, (0, 0): 2.0})
        for delta in (0.0, 0.1):
            res = solve_eqodds(dists, table_stats, delta)
            assert (res.t1, res.t2) == (0.0, 0.0)

    def test_single_axis_opportunity_fix(self, table_stats):
        # Group 1 dominates both cells, but the dependence is weak enough
        # that the opportunity fix alone also controls predictive equality.
        dists = PowerSurvival({(1, 1): 0.6, (1, 0): 0.8, (0, 1): 2.0, (0, 0): 2.6})
        res = solve_eqodds(dists, table_stats, 0.05)
        assert res.t2 == 0.0 and res.t1 > 0.0
        assert res.do_value == pytest.approx(0.05, abs=1e-9)
        assert abs(res.pd_value) <= 0.05 + 1e-9

    def test_single_axis_predictive_fix(self):
        dists = BetaGroupModel(SEP_PARAMS)
        res = solve_eqodds(dists, SEP_STATS, 0.05)
        assert res.t1 == 0.0 and res.t2 > 0.0
        assert res.pd_value == pytest.approx(0.05, abs=1e-9)
        assert abs(res.do_value) <= 0.05 + 1e-9

    def test_coupled_model_uses_one_axis(self):
        # At the origin both gaps (0.25 and 0.125) are over the budget, yet
        # the opportunity fix alone brings predictive equality inside it.
        params = {1: (1, 1), 0: (1, 2)}
        dists = BetaGroupModel(params)
        res = solve_eqodds(dists, stats_for_beta(params, 0.5), 0.05)
        assert res.t1 == 0.0 or res.t2 == 0.0
        assert (res.t1, res.t2) != (0.0, 0.0)
        assert max(abs(res.do_value), abs(res.pd_value)) <= 0.05 + 1e-9

    def test_equality_system_both_negative(self, table_stats):
        dists = PowerSurvival({(1, 1): 3.0, (1, 0): 0.8, (0, 1): 1.5, (0, 0): 0.4})
        res = solve_eqodds(dists, table_stats, 0.01)
        assert res.do_value == pytest.approx(-0.01, abs=1e-7)
        assert res.pd_value == pytest.approx(-0.01, abs=1e-7)

    def test_equality_system_mixed_signs(self):
        # Calibrated laws whose two multipliers take opposite signs, each
        # holding its gap at the budget with that sign.
        params = {1: (2, 1), 0: (5, 3)}
        res = solve_eqodds(BetaGroupModel(params), stats_for_beta(params, 0.62), 0.05)
        assert res.t1 > 0.0 > res.t2
        assert res.do_value == pytest.approx(0.05, abs=1e-7)
        assert res.pd_value == pytest.approx(-0.05, abs=1e-7)

        params = {1: (3, 4), 0: (1, 2)}
        res = solve_eqodds(BetaGroupModel(params), stats_for_beta(params, 0.32), 0.05)
        assert res.t1 < 0.0 < res.t2
        assert res.do_value == pytest.approx(-0.05, abs=1e-7)
        assert res.pd_value == pytest.approx(0.05, abs=1e-7)

    def test_unreachable_targets_reported(self, table_stats):
        dists = PowerSurvival({(1, 1): 0.4, (1, 0): 0.4, (0, 1): 0.4, (0, 0): 0.8})
        with pytest.raises(SolverError):
            solve_eqodds(dists, table_stats, 0.01)

    def test_degenerate_distributions_reported(self, table_stats):
        dists = ConstantSurvival({1: 0.9, 0: 0.1})
        with pytest.raises(SolverError):
            solve_eqodds(dists, table_stats, 0.1)

    def test_negative_delta_rejected(self, table_stats):
        dists = PowerSurvival({(1, 1): 1.0, (1, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0})
        with pytest.raises(SolverError):
            solve_eqodds(dists, table_stats, -0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # A NaN budget once returned the unconstrained gaps, and inf (0, 0).
        model = default_model()
        with pytest.raises(SolverError, match="finite and nonnegative"):
            solve_eqodds(model, model.stats, delta)

    def test_risk_matches_grid_oracle(self):
        dists = BetaGroupModel(SEP_PARAMS)
        delta = 0.05
        res = solve_eqodds(dists, SEP_STATS, delta)
        solver_risk = eqodds_risk(dists, SEP_STATS, res.t1, res.t2)
        best = grid_best_risk(dists, SEP_STATS, delta, n=81)
        assert best is not None
        assert solver_risk <= best[0] + 2e-3

    def test_kkt_signs_and_grid_bound_on_gaussian_models(self):
        # Calibrated Gaussian laws reach every dual outcome, the two-sided
        # equality answers included. At the returned pair a nonzero
        # multiplier holds its gap at the budget with the multiplier's
        # sign, a zero one leaves its gap inside the budget, and no
        # feasible group-threshold pair on the oracle's grid is cheaper.
        solved = 0
        for seed in range(101, 131):
            model = model_from_seed(seed)
            stats = model.stats
            for delta in (0.05, 0.1, 0.15, 0.2):
                try:
                    res = solve_eqodds(model, stats, delta)
                except SolverError:
                    continue
                solved += 1
                for t, gap in ((res.t1, res.do_value), (res.t2, res.pd_value)):
                    assert abs(gap) <= delta
                    if t != 0.0:
                        assert gap == pytest.approx(math.copysign(delta, t), abs=1e-9)
                grid_risk = _eqodds_grid_oracle(model, stats, delta)
                assert grid_risk is not None
                assert eqodds_risk(model, stats, res.t1, res.t2) <= grid_risk + 1e-9
        assert solved >= 90

    @given(
        a1=st.integers(1, 5),
        b1=st.integers(1, 5),
        a0=st.integers(1, 5),
        b0=st.integers(1, 5),
        p1=st.floats(0.3, 0.7),
        delta=st.sampled_from([0.05, 0.1, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_feasible_whenever_it_returns(self, a1, b1, a0, b0, p1, delta):
        params = {1: (a1, b1), 0: (a0, b0)}
        dists = BetaGroupModel(params)
        stats = stats_for_beta(params, p1)
        try:
            res = solve_eqodds(dists, stats, delta)
        except SolverError:
            return
        assert max(abs(res.do_value), abs(res.pd_value)) <= delta


# ---------------------------------------------------------------------------
# Multi-class demographic parity


class TestSolveMulticlassDP:
    def test_identical_groups(self):
        res = solve_multiclass_dp([power_curve(1.5)] * 3, [0.2, 0.3, 0.5])
        assert all(abs(t) <= 1e-9 for t in res.t)
        assert res.s_star == pytest.approx(0.5**1.5, abs=1e-9)
        assert max(res.acceptance) - min(res.acceptance) <= 1e-9

    def test_three_groups_against_scalar_oracle(self):
        # For power-law acceptance curves the common rate s solves the
        # explicit equation sum_a p_a * s**(1/g_a) = 1/2, derived by
        # substituting the closed-form quantile 1 - s**(1/g_a).
        p = [0.25, 0.35, 0.40]
        g = [0.5, 1.0, 2.0]

        def residual(s: float) -> float:
            return math.fsum(pa * s ** (1.0 / ga) for pa, ga in zip(p, g)) - 0.5

        lo, hi = 1e-12, 1.0 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if residual(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        s_oracle = 0.5 * (lo + hi)
        t_oracle = [2.0 * pa * (0.5 - s_oracle ** (1.0 / ga)) for pa, ga in zip(p, g)]

        res = solve_multiclass_dp([power_curve(ga) for ga in g], p)
        assert res.s_star == pytest.approx(s_oracle, abs=1e-9)
        for got, want in zip(res.t, t_oracle):
            assert got == pytest.approx(want, abs=1e-9)
        # Heavier-tailed groups need higher cutoffs to hold the same rate.
        assert res.thresholds[0] > res.thresholds[1] > res.thresholds[2]

    def test_two_groups_match_binary_solver(self):
        stats = GroupStats(p11=0.35, p10=0.35, p01=0.15, p00=0.15)
        acc0, acc1 = power_curve(2.0), power_curve(0.8)

        def rate_difference(t: float) -> float:
            return acc1(threshold(DisparityKind.DD, stats, 1, t)) - acc0(
                threshold(DisparityKind.DD, stats, 0, t)
            )

        binary = solve_threshold(
            DisparityCurve.from_domain(rate_difference, (-0.3, 0.3)), 0.0, tol=1e-12
        )
        res = solve_multiclass_dp([acc0, acc1], [0.3, 0.7])
        assert res.t[1] == pytest.approx(binary.t_star, abs=1e-8)
        assert res.t[0] == pytest.approx(-binary.t_star, abs=1e-8)

    @given(
        gs=st.lists(st.floats(0.3, 4.0), min_size=2, max_size=5),
        raw_p=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_offsets_sum_to_zero_and_rates_agree(self, gs, raw_p):
        k = min(len(gs), len(raw_p))
        gs, raw_p = gs[:k], raw_p[:k]
        total = math.fsum(raw_p)
        p = [x / total for x in raw_p]
        res = solve_multiclass_dp([power_curve(g) for g in gs], p)
        assert abs(math.fsum(res.t)) <= 1e-10
        assert max(res.acceptance) - min(res.acceptance) < 1e-8
        for t_a, p_a, tau in zip(res.t, p, res.thresholds):
            assert tau == pytest.approx(0.5 + t_a / (2.0 * p_a), abs=1e-15)

    def test_degenerate_group_named(self):
        def flat(tau: float) -> float:
            if tau <= 0.0:
                return 1.0
            if tau >= 1.0:
                return 0.0
            return 0.7

        with pytest.raises(SolverError, match="group 1"):
            solve_multiclass_dp([power_curve(1.0), flat], [0.5, 0.5])

    def test_validation_errors(self):
        with pytest.raises(SolverError):
            solve_multiclass_dp([power_curve(1.0)], [1.0])
        with pytest.raises(SolverError):
            solve_multiclass_dp([power_curve(1.0)] * 2, [0.5, 0.3, 0.2])
        with pytest.raises(SolverError):
            solve_multiclass_dp([power_curve(1.0)] * 2, [0.0, 1.0])
        with pytest.raises(SolverError):
            solve_multiclass_dp([power_curve(1.0)] * 2, [0.6, 0.6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_marginal_fails_the_marginal_check(self, bad):
        # Every comparison with NaN is false, so only a finiteness test stops
        # it before the offset search, which would report nan endpoints.
        with pytest.raises(SolverError, match="must be finite and positive"):
            solve_multiclass_dp([power_curve(1.0)] * 3, [0.5, bad, 0.5])
