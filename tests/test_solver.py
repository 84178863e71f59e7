"""Tests for the monotone bisection solver and frontier tools."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairthresh.core import DisparityKind
from fairthresh.gaussian import default_model, disparity_curve_closed, risk_closed
from fairthresh.solver import (
    DEFAULT_TOL,
    BracketError,
    DisparityCurve,
    FrontierRow,
    SolverError,
    bisect,
    check_tradeoff_bounds,
    solve_threshold,
    trace_pareto,
)

from conftest import is_monotone_nonincreasing


def linear_curve(d0: float, slope: float, lo: float = -1.0, hi: float = 1.0) -> DisparityCurve:
    return DisparityCurve(fn=lambda t: d0 - slope * t, t_lo=lo, t_hi=hi)


class CountingCurve:
    """Wraps a curve function and counts evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t: float) -> float:
        self.calls += 1
        return self.fn(t)


class TestSolveThreshold:
    def test_identity_shortcut(self):
        res = solve_threshold(linear_curve(0.0, 1.0), delta=0.25)
        assert res.t_star == 0.0
        assert res.iterations == 0
        assert res.converged

    def test_linear_positive_branch(self):
        res = solve_threshold(linear_curve(0.8, 1.0), delta=0.3, tol=2.0 ** -15)
        assert res.t_star == pytest.approx(0.5, abs=2.0 ** -15)
        assert abs(res.d_at_t) <= 0.3 + 1e-12
        assert res.converged

    def test_linear_negative_branch(self):
        res = solve_threshold(linear_curve(-0.8, 1.0), delta=0.3)
        assert res.t_star == pytest.approx(-0.5, abs=2.0 ** -15)
        assert abs(res.d_at_t) <= 0.3 + 1e-10
        assert res.converged

    def test_constraint_always_satisfied_at_return(self):
        # Two-sided bound carries curve-evaluation noise of slope * tol;
        # the binding side is satisfied exactly by loop invariant.
        for d0 in (0.9, -0.9):
            for delta in (0.0, 0.1, 0.5):
                res = solve_threshold(linear_curve(d0, 1.0), delta=delta)
                assert abs(res.d_at_t) <= delta + DEFAULT_TOL

    def test_bracket_error_positive(self):
        with pytest.raises(BracketError):
            solve_threshold(linear_curve(0.8, 0.1), delta=0.3)  # D(1) = 0.7 > delta

    def test_bracket_error_negative(self):
        with pytest.raises(BracketError):
            solve_threshold(linear_curve(-0.8, 0.1), delta=0.3)

    def test_rejects_negative_delta(self):
        with pytest.raises(SolverError):
            solve_threshold(linear_curve(0.5, 1.0), delta=-0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        curve = disparity_curve_closed(default_model(), DisparityKind.DD)
        with pytest.raises(SolverError, match="must be finite and nonnegative"):
            solve_threshold(curve, delta)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_tol_other_than_positive_finite(self, tol):
        curve = disparity_curve_closed(default_model(), DisparityKind.DD)
        with pytest.raises(SolverError, match="tol must be positive"):
            solve_threshold(curve, 0.1, tol=tol)

    def test_rejects_bracket_without_zero(self):
        curve = DisparityCurve(fn=lambda t: -t, t_lo=0.5, t_hi=1.0)
        with pytest.raises(BracketError):
            solve_threshold(curve, delta=0.1)

    def test_evaluation_budget(self):
        for tol in (1e-3, 1e-6, 2.0 ** -15):
            counting = CountingCurve(lambda t: 0.8 - t)
            curve = DisparityCurve(fn=counting, t_lo=-1.0, t_hi=1.0)
            solve_threshold(curve, delta=0.3, tol=tol)
            budget = math.ceil(math.log2(2.0 / tol)) + 2
            assert counting.calls <= budget

    def test_deterministic(self):
        curve = linear_curve(0.8, 1.0)
        r1 = solve_threshold(curve, 0.3)
        r2 = solve_threshold(curve, 0.3)
        assert r1 == r2

    def test_step_curve_smallest_t_past_the_target(self):
        # Step curve: jumps from 0.8 straight past the target band.
        def step(t):
            return 0.8 if t < 0.5 else -0.6

        curve = DisparityCurve(fn=step, t_lo=-1.0, t_hi=1.0)
        res = solve_threshold(curve, delta=0.3)
        assert res.t_star == pytest.approx(0.5, abs=2.0 ** -15)
        assert res.d_at_t == -0.6
        # A coarse tolerance stops at the bracket edge without a midpoint.
        res = solve_threshold(curve, delta=0.3, tol=10.0)
        assert (res.t_star, res.d_at_t, res.iterations) == (1.0, -0.6, 0)
        res = solve_threshold(curve, delta=0.3, tol=0.01)
        assert res.d_at_t == -0.6

    def test_delta_zero_root(self):
        res = solve_threshold(linear_curve(0.64, 2.0), delta=0.0)
        assert res.t_star == pytest.approx(0.32, abs=2.0 ** -15)
        assert res.d_at_t <= 0.0

    @given(
        d0=st.floats(-0.95, 0.95),
        slope=st.floats(1.0, 5.0),
        delta=st.floats(0.0, 0.5),
    )
    @settings(max_examples=200)
    def test_solution_feasible_and_minimal_sign(self, d0, slope, delta):
        res = solve_threshold(linear_curve(d0, slope), delta=delta)
        assert abs(res.d_at_t) <= delta + slope * DEFAULT_TOL
        # Smallest-|t| solution shares the sign of the violated side.
        if abs(d0) <= delta:
            assert res.t_star == 0.0
        elif d0 > delta:
            assert res.t_star > 0.0
            analytic = (d0 - delta) / slope
            assert res.t_star == pytest.approx(analytic, abs=2.0 ** -14)
        else:
            assert res.t_star < 0.0
            analytic = (d0 + delta) / slope
            assert res.t_star == pytest.approx(analytic, abs=2.0 ** -14)


class TestBisect:
    @staticmethod
    def recording(predicate):
        """predicate wrapped to record every point it is called at."""
        calls = []

        def inside(t: float) -> bool:
            calls.append(t)
            return predicate(t)

        return inside, calls

    def test_good_end_above_bad_end(self):
        # The negative side of a solve walks from 0 down: good > bad.
        inside, calls = self.recording(lambda t: t > -0.3)
        good, bad = bisect(inside, 0.0, -1.0, width=2.0 ** -20)
        assert bad <= -0.3 < good
        assert good - bad <= 2.0 ** -20
        assert all(-1.0 < t < 0.0 for t in calls)

    def test_width_stop(self):
        inside, calls = self.recording(lambda t: t >= 0.3)
        good, bad = bisect(inside, 1.0, 0.0, width=2.0 ** -10)
        assert len(calls) == 10
        assert good - bad == 2.0 ** -10
        assert bad < 0.3 <= good

    def test_steps_cap(self):
        inside, calls = self.recording(lambda t: t >= 0.3)
        assert bisect(inside, 1.0, 0.0, steps=5) == (0.3125, 0.28125)
        assert len(calls) == 5
        assert bisect(inside, 1.0, 0.0, steps=0) == (1.0, 0.0)
        assert len(calls) == 5

    def test_float_exhaustion_returns_adjacent_floats(self):
        inside, calls = self.recording(lambda t: t > -0.3)
        good, bad = bisect(inside, 0.0, -1.0)
        assert bad == -0.3
        assert good == math.nextafter(-0.3, 0.0)
        assert len(calls) < 100

    @given(
        a=st.floats(-1e6, 1e6),
        b=st.floats(-1e6, 1e6),
        cut=st.floats(0.0, 1.0),
        steps=st.one_of(st.none(), st.integers(0, 80)),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_called_at_either_end(self, a, b, cut, steps):
        if a == b:
            return
        boundary = a + cut * (b - a)
        if a < b:
            inside, calls = self.recording(lambda t: t < boundary)
        else:
            inside, calls = self.recording(lambda t: t > boundary)
        good, bad = bisect(inside, a, b, steps=steps)
        assert a not in calls and b not in calls
        assert min(a, b) <= min(good, bad) < max(good, bad) <= max(a, b)
        assert good == a or inside(good)
        assert bad == b or not inside(bad)


class TestTracePareto:
    def test_linear_curve_quadratic_risk_rows(self):
        curve = linear_curve(1.0, 2.0, lo=-1.0, hi=1.0)
        rows = trace_pareto(curve, risk_eval=lambda t: t * t, deltas=[0.0, 0.5, 1.0])
        want = [
            (0.0, 0.5, 0.25, 0.0),
            (0.5, 0.25, 0.0625, 0.5),
            (1.0, 0.0, 0.0, 1.0),
        ]
        for row, (d, t, r, dis) in zip(rows, want):
            assert row.delta == d
            assert row.t == pytest.approx(t, abs=2.0 ** -15)
            assert row.risk == pytest.approx(r, abs=2.0 ** -13)
            assert row.disparity == pytest.approx(dis, abs=2.0 ** -13)

    def test_constraint_inactive_row(self):
        curve = linear_curve(0.4, 1.0)
        rows = trace_pareto(curve, risk_eval=lambda t: 1.0 + t * t, deltas=[0.4])
        assert rows[0].t == 0.0
        assert rows[0].risk == 1.0

    def test_risk_column_nonincreasing_in_delta(self):
        curve = linear_curve(0.9, 1.5)
        rows = trace_pareto(curve, risk_eval=lambda t: t * t, deltas=[0.0, 0.2, 0.4, 0.6, 0.9])
        risks = [r.risk for r in rows]
        assert all(risks[i + 1] <= risks[i] + 1e-12 for i in range(len(risks) - 1))

    def test_unsorted_grid_rejected(self):
        curve = linear_curve(0.5, 1.0)
        with pytest.raises(SolverError):
            trace_pareto(curve, risk_eval=lambda t: t, deltas=[0.3, 0.1])

    @pytest.mark.parametrize("deltas", [[0.1, math.nan], [-0.1, 0.1]])
    def test_budget_other_than_finite_nonnegative_rejected(self, deltas):
        curve = disparity_curve_closed(default_model(), DisparityKind.DD)
        with pytest.raises(SolverError, match="must be finite and nonnegative"):
            trace_pareto(curve, risk_eval=lambda t: t, deltas=deltas)

    @pytest.mark.parametrize("kind", list(DisparityKind))
    def test_shared_frontier_matches_one_solve_per_budget(self, kind):
        # The solves of a sweep share one memo of D; each row is still the
        # one a solve on a fresh curve gives, and each t is evaluated once.
        model = default_model()
        closed = disparity_curve_closed(model, kind)
        deltas = [round(0.001 * i, 10) for i in range(301)]
        counting = CountingCurve(closed.fn)
        rows = trace_pareto(
            DisparityCurve(counting, closed.t_lo, closed.t_hi),
            lambda t: risk_closed(model, kind, t),
            deltas,
        )
        want = []
        for delta in deltas:
            res = solve_threshold(disparity_curve_closed(model, kind), delta)
            want.append(FrontierRow(delta, res.t_star, risk_closed(model, kind, res.t_star), res.d_at_t))
        assert repr(rows) == repr(want)
        assert counting.calls <= 1600

    def test_repeated_budget_keeps_one_row_per_entry(self):
        curve = linear_curve(0.8, 1.0)
        rows = trace_pareto(curve, risk_eval=lambda t: t * t, deltas=[0.1, 0.3, 0.3, 0.5])
        assert [row.delta for row in rows] == [0.1, 0.3, 0.3, 0.5]
        assert rows[1] == rows[2] == trace_pareto(curve, lambda t: t * t, [0.3])[0]


class TestTradeoffBounds:
    def test_constant_risk_holds(self):
        rows = [
            FrontierRow(delta=0.0, t=0.0, risk=1.0, disparity=0.0),
            FrontierRow(delta=0.5, t=0.0, risk=1.0, disparity=0.0),
        ]
        check = check_tradeoff_bounds(rows)
        assert check.ok
        assert check.worst_violation == 0.0

    def test_linear_frontier_holds(self):
        # T(d) = (1-d)^2 / 4 from the D(t)=1-2t, risk=t^2 construction.
        deltas = [i / 10 for i in range(11)]
        rows = [
            FrontierRow(delta=d, t=(1 - d) / 2, risk=((1 - d) / 2) ** 2, disparity=d)
            for d in deltas
        ]
        assert check_tradeoff_bounds(rows).ok

    def test_violating_pair_located(self):
        rows = [
            FrontierRow(delta=0.0, t=0.5, risk=0.25, disparity=0.0),
            FrontierRow(delta=0.1, t=0.45, risk=0.26, disparity=0.1),  # risk increased
            FrontierRow(delta=0.2, t=0.40, risk=0.20, disparity=0.2),
        ]
        check = check_tradeoff_bounds(rows)
        assert not check.ok
        assert check.worst_pair == 0
        assert check.worst_violation > 1e-3

    def test_negative_t_rejected(self):
        rows = [
            FrontierRow(delta=0.0, t=-0.5, risk=0.25, disparity=0.0),
            FrontierRow(delta=0.1, t=-0.4, risk=0.2, disparity=0.1),
        ]
        with pytest.raises(SolverError):
            check_tradeoff_bounds(rows)


class TestMonotoneAudit:
    def test_monotone_curve_passes(self):
        assert is_monotone_nonincreasing(linear_curve(0.5, 1.0))

    def test_increasing_curve_fails(self):
        curve = DisparityCurve(fn=lambda t: t, t_lo=-1.0, t_hi=1.0)
        assert not is_monotone_nonincreasing(curve)

    @pytest.mark.parametrize("n_points", [1, 0])
    def test_fewer_than_two_points_rejected(self, n_points):
        # One point cannot span the bracket and none audits nothing; both
        # are errors, reached before the curve is evaluated.
        calls = []
        curve = DisparityCurve(fn=lambda t: calls.append(t) or -t, t_lo=-1.0, t_hi=1.0)
        with pytest.raises(SolverError, match="at least two"):
            is_monotone_nonincreasing(curve, n_points)
        assert calls == []


class TestFromDomain:
    def test_wide_domain_shrunk_not_cut(self):
        curve = DisparityCurve.from_domain(lambda t: -t, (-3.0, 0.4))
        assert curve.t_lo == -3.0 + 1e-9
        assert curve.t_hi == 0.4 - 1e-9

    def test_narrow_domain_shrunk(self):
        curve = DisparityCurve.from_domain(lambda t: -t, (-0.12, 0.49))
        assert curve.t_lo == pytest.approx(-0.12 + 1e-9)
        assert curve.t_hi == pytest.approx(0.49 - 1e-9)
