"""Tests for the weighted logistic estimators.

Oracles: central finite differences for the gradient, generating parameters
for recovery, the closed-form Gaussian regression function, and independence
constructions for the group regression.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from fairthresh.estimators import (
    MODE_AWARE,
    MODE_BLIND_A,
    MODE_BLIND_Y,
    FitError,
    LabeledDataset,
    LogisticConfig,
    LogisticParams,
    ProbModel,
    _WarmStart,
    fit_group_models,
    fit_logistic,
    fitted_decisions,
    nll,
    nll_gradient,
    predict_proba,
)
from fairthresh.estimators import _fit_params, _softplus
from fairthresh.gaussian import default_model, eta, sample


def random_dataset(rng, n=40, d=3, weighted=True) -> LabeledDataset:
    x = rng.normal(size=(n, d))
    a = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    w = rng.uniform(0.2, 2.0, size=n) if weighted else None
    return LabeledDataset(x=x, a=a, y=y, weight=w)


def random_params(rng, d=3) -> LogisticParams:
    return LogisticParams(
        intercept=float(rng.normal()),
        coef=rng.normal(size=d),
        mean=rng.normal(scale=0.5, size=d),
        scale=rng.uniform(0.5, 2.0, size=d),
    )


def logistic_rows(rng, n, beta, intercept) -> LabeledDataset:
    x = rng.normal(size=(n, len(beta)))
    p = 1.0 / (1.0 + np.exp(-(intercept + x @ np.asarray(beta))))
    y = (rng.uniform(size=n) < p).astype(int)
    a = rng.integers(0, 2, size=n)
    return LabeledDataset(x=x, a=a, y=y)


class TestDatasetValidation:
    def test_default_weights_are_ones(self, rng):
        ds = random_dataset(rng, weighted=False)
        assert np.all(ds.weight == 1.0)

    def test_rejects_flat_features(self):
        with pytest.raises(FitError, match="2-D"):
            LabeledDataset(x=np.zeros(4), a=np.zeros(4), y=np.zeros(4))

    def test_rejects_length_mismatch(self):
        with pytest.raises(FitError, match="lengths"):
            LabeledDataset(x=np.zeros((4, 2)), a=np.zeros(3), y=np.zeros(4))

    def test_rejects_bad_labels(self):
        for label in (2, 0.5):
            with pytest.raises(FitError, match="labels"):
                LabeledDataset(x=np.zeros((2, 1)), a=np.zeros(2), y=np.array([0, label]))

    @pytest.mark.parametrize("group", [2, -1, 0.5, np.nan])
    def test_rejects_group_ids_other_than_0_and_1(self, group):
        with pytest.raises(FitError, match="group ids must be 0 or 1"):
            LabeledDataset(x=np.zeros((3, 1)), a=np.array([0, 1, group]), y=np.zeros(3))

    def test_rejects_negative_weights(self):
        with pytest.raises(FitError, match="weights"):
            LabeledDataset(
                x=np.zeros((2, 1)), a=np.zeros(2), y=np.zeros(2), weight=np.array([1.0, -0.5])
            )

    def test_rejects_non_finite_features(self):
        with pytest.raises(FitError, match="finite"):
            LabeledDataset(x=np.array([[np.inf]]), a=np.zeros(1), y=np.zeros(1))

    def test_rejects_features_beyond_magnitude_bound(self):
        LabeledDataset(x=np.array([[1e150], [-1e150]]), a=np.zeros(2), y=np.zeros(2))
        for value in (2e150, -1e200, np.nan):
            with pytest.raises(FitError, match=r"finite and within \+-1e\+150"):
                LabeledDataset(x=np.array([[0.0], [value]]), a=np.zeros(2), y=np.zeros(2))

    def test_cell_helpers(self, rng):
        ds = random_dataset(rng, n=30)
        total = sum(len(ds.rows(a, y)) for a in (0, 1) for y in (0, 1))
        assert total == len(ds)
        sub = ds.subset(np.arange(5))
        assert len(sub) == 5 and sub.dim == ds.dim
        reweighted = ds.with_weights(np.full(len(ds), 3.0))
        assert np.all(reweighted.weight == 3.0)
        assert np.array_equal(reweighted.x, ds.x)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        # 100 random parameter points: 25 datasets x 4 parameter draws.
        checked = 0
        for _ in range(25):
            ds = random_dataset(rng)
            for _ in range(4):
                params = random_params(rng)
                l2 = float(rng.choice([0.0, 1e-3]))
                gb, gw = nll_gradient(ds, params, l2=l2)
                step = 1e-6

                def loss_at(intercept, coef):
                    p = LogisticParams(intercept, coef, params.mean, params.scale)
                    return nll(ds, p, l2=l2)

                fd_b = (
                    loss_at(params.intercept + step, params.coef)
                    - loss_at(params.intercept - step, params.coef)
                ) / (2 * step)
                assert abs(gb - fd_b) <= 1e-5 * max(abs(fd_b), 1e-3)
                for j in range(len(params.coef)):
                    bump = np.zeros_like(params.coef)
                    bump[j] = step
                    fd_j = (
                        loss_at(params.intercept, params.coef + bump)
                        - loss_at(params.intercept, params.coef - bump)
                    ) / (2 * step)
                    assert abs(gw[j] - fd_j) <= 1e-5 * max(abs(fd_j), 1e-3)
                checked += 1
        assert checked == 100

    def test_zero_at_stationary_point(self):
        # A symmetric two-point dataset with balanced labels: zero is a
        # stationary point of the unpenalized objective.
        ds = LabeledDataset(
            x=np.array([[1.0], [-1.0]]), a=np.array([0, 1]), y=np.array([1, 0])
        )
        params = LogisticParams(0.0, np.zeros(1), np.zeros(1), np.ones(1))
        gb, gw = nll_gradient(ds, params)
        assert gb == pytest.approx(0.0, abs=1e-15)
        assert gw[0] == pytest.approx(-0.5, abs=1e-15)  # informative direction


class TestSoftplus:
    """The Newton loop's softplus against numpy's logaddexp(0, z)."""

    def test_within_two_ulp_of_logaddexp_on_a_dense_grid(self):
        z = np.linspace(-740.0, 740.0, 2_000_001)
        reference = np.logaddexp(0.0, z)
        assert np.all(np.abs(_softplus(z) - reference) <= 2.0 * np.spacing(reference))

    def test_exact_at_zero(self):
        assert _softplus(np.zeros(1))[0] == math.log(2.0) == np.logaddexp(0.0, 0.0)

    def test_far_tails_are_exactly_the_positive_part(self):
        z = np.concatenate([np.linspace(1e3, 1e6, 101), [1e300]])
        assert np.array_equal(_softplus(z), z)
        assert np.array_equal(_softplus(-z), np.zeros(len(z)))

    def test_finite_without_warnings_under_the_default_error_state(self):
        z = np.concatenate([np.linspace(-1e4, 1e4, 100_001), [-1e300, 1e300, -5e-324, 5e-324]])
        # numpy's default error state: any warning it lets through fails here.
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = _softplus(z)
        assert np.isfinite(values).all() and np.all(values >= 0.0)


class TestFitLogistic:
    def test_separated_data_stays_finite(self):
        ds = LabeledDataset(
            x=np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]]),
            a=np.zeros(6),
            y=np.array([0, 0, 0, 1, 1, 1]),
        )
        model = fit_logistic(ds, LogisticConfig(l2=1e-4))
        b_raw, w_raw = model.single_params().raw()
        assert math.isfinite(b_raw) and np.isfinite(w_raw).all()
        assert np.all((predict_proba(model, ds.x) > 0.5) == ds.y.astype(bool))

    def test_weight_doubling_is_exact_noop(self, rng):
        ds = random_dataset(rng, n=60)
        config = LogisticConfig(l2=0.0)
        base = fit_logistic(ds, config).single_params()
        doubled = fit_logistic(ds.with_weights(2.0 * ds.weight), config).single_params()
        assert base.intercept == doubled.intercept
        assert np.array_equal(base.coef, doubled.coef)

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(8125)
        beta, intercept = (1.2, -0.8), 0.3
        ds = logistic_rows(rng, n=100_000, beta=beta, intercept=intercept)
        model = fit_logistic(ds)
        b_raw, w_raw = model.single_params().raw()
        assert abs(b_raw - intercept) < 0.05
        assert np.all(np.abs(w_raw - np.asarray(beta)) < 0.05)

    def test_empty_dataset_rejected(self):
        ds = LabeledDataset(x=np.zeros((0, 2)), a=np.zeros(0), y=np.zeros(0))
        with pytest.raises(FitError, match="empty"):
            fit_logistic(ds)

    def test_zero_total_weight_rejected(self, rng):
        ds = random_dataset(rng, n=10).with_weights(np.zeros(10))
        with pytest.raises(FitError, match="weight"):
            fit_logistic(ds)

    def test_loss_history_non_increasing(self, rng):
        ds = random_dataset(rng, n=200)
        model = fit_logistic(ds)
        assert model.history is not None and len(model.history) >= 2
        assert all(math.isfinite(v) for v in model.history)
        assert all(b <= a + 1e-12 for a, b in zip(model.history, model.history[1:]))

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n=80)
        first = fit_logistic(ds).single_params()
        second = fit_logistic(ds).single_params()
        assert first.intercept == second.intercept
        assert np.array_equal(first.coef, second.coef)


class TestFitGroupModels:
    def test_aware_tracks_closed_form_regression(self):
        gm = default_model()
        train = sample(gm, 10_000, seed=4242)
        fitted = fit_group_models(train, MODE_AWARE)
        holdout = sample(gm, 4_000, seed=4243)
        for a in (0, 1):
            rows = holdout.x[holdout.a == a]
            estimate = predict_proba(fitted, rows, a)
            truth = eta(gm, a, rows)
            assert float(np.mean(np.abs(estimate - truth))) < 0.05

    def test_group_regression_constant_under_independence(self):
        rng = np.random.default_rng(5511)
        n = 60_000
        x = rng.normal(size=(n, 2))
        a = (rng.uniform(size=n) < 0.65).astype(int)
        ds = LabeledDataset(x=x, a=a, y=rng.integers(0, 2, size=n))
        fitted = fit_group_models(ds, MODE_BLIND_A)
        share = float(np.mean(a))
        preds = predict_proba(fitted, x)
        assert float(np.max(np.abs(preds - share))) <= 0.02

    def test_missing_cell_named_in_error(self, rng):
        ds = random_dataset(rng, n=40)
        only_group_1 = ds.subset(ds.a == 1)
        with pytest.raises(FitError, match=r"cell \(a=0, y=0\)"):
            fit_group_models(only_group_1, MODE_AWARE)

    def test_single_group_rejected_for_group_mode(self, rng):
        ds = random_dataset(rng, n=40)
        only_group_1 = ds.subset(ds.a == 1)
        with pytest.raises(FitError, match="a=0"):
            fit_group_models(only_group_1, MODE_BLIND_A)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(FitError, match="unknown"):
            fit_group_models(random_dataset(rng), "mystery")

    def test_aware_deterministic(self, rng):
        ds = random_dataset(rng, n=100)
        first = fit_group_models(ds, MODE_AWARE)
        second = fit_group_models(ds, MODE_AWARE)
        for a in (0, 1):
            assert first.group_params(a).intercept == second.group_params(a).intercept
            assert np.array_equal(first.group_params(a).coef, second.group_params(a).coef)


class TestReachesTheOptimum:
    """Every fit ends on the optimum that nll and nll_gradient, computed the
    plain way, find independently of the Newton loop's own arithmetic."""

    @pytest.mark.parametrize("weights", ["unit", "multiplicity"])
    @pytest.mark.parametrize("mode", [MODE_AWARE, MODE_BLIND_Y, MODE_BLIND_A])
    def test_objective_and_gradient_match_the_reference(self, mode, weights):
        train = sample(default_model(), 4_000, seed=4246)
        if weights == "multiplicity":
            # fuds-style: each training row drawn an integer number of times.
            counts = np.random.default_rng(4247).integers(0, 4, size=len(train))
            train = train.with_weights(counts.astype(float))
        config = LogisticConfig()
        if mode == MODE_AWARE:
            model = fit_group_models(train, MODE_AWARE)
            fits = []
            for g in (0, 1):
                pick = np.flatnonzero(train.a == g)
                params, history = _fit_params(
                    train._frame(g), train.y[pick], train.weight[pick], config
                )
                assert np.array_equal(params.coef, model.group_params(g).coef)
                fits.append((g, train.subset(pick), None, params, history))
        else:
            model = fit_logistic(train) if mode == MODE_BLIND_Y else fit_group_models(train, mode)
            target = train.a if mode == MODE_BLIND_A else None
            fits = [(None, train, target, model.single_params(), model.history)]
        for group, rows, target, params, history in fits:
            assert len(history) >= 3
            assert abs(history[-1] - nll(rows, params, target, config.l2)) <= 1e-12
            g0, gw = nll_gradient(rows, params, target, config.l2)
            assert math.hypot(g0, *gw) <= 1e-9
            # The loop reads each parameter's column as one contiguous vector.
            assert train._frame(group)[2].T.flags.c_contiguous


class TestWarmStart:
    """A fit can start from a model in its frame, and _WarmStart's start is
    the Newton step, from the origin fit, of the objective whose weights
    are scaled cell by cell."""

    MULTIPLIERS = {(1, 1): 0.8, (1, 0): 0.3, (0, 1): 1.7, (0, 0): 0.45}

    @staticmethod
    def reweighted(train, multipliers):
        factor = np.empty(len(train))
        for cell, m in multipliers.items():
            factor[train.rows(*cell)] = m
        return train.with_weights(train.weight * factor)

    @pytest.mark.parametrize("mode", [MODE_AWARE, MODE_BLIND_Y])
    def test_start_is_the_newton_step_of_the_reweighted_objective(self, mode):
        train = sample(default_model(), 4_000, seed=4248)
        fit = fit_logistic if mode == MODE_BLIND_Y else fit_group_models
        origin = fit(train)
        start = _WarmStart(train, origin).start(self.MULTIPLIERS)
        data = self.reweighted(train, self.MULTIPLIERS)
        l2 = LogisticConfig().l2
        for g in (0, 1) if mode == MODE_AWARE else (None,):
            base = origin.single_params() if g is None else origin.group_params(g)
            got = start.single_params() if g is None else start.group_params(g)
            rows = data if g is None else data.subset(data.a == g)
            # The gradient and Hessian of the reweighted objective, row by row.
            g0, gw = nll_gradient(rows, base, None, l2)
            design = np.column_stack([np.ones(len(rows)), (rows.x - base.mean) / base.scale])
            p = 1.0 / (1.0 + np.exp(-(design @ base.theta())))
            wn = rows.weight / rows.weight.sum()
            hess = design.T @ (design * (wn * p * (1.0 - p))[:, None])
            hess += np.diag([0.0] + [l2] * rows.dim)
            want = base.theta() - np.linalg.solve(hess, np.concatenate([[g0], gw]))
            assert np.allclose(got.theta(), want, rtol=1e-10, atol=1e-12)
            assert got.mean is base.mean and got.scale is base.scale

    @pytest.mark.parametrize("mode", [MODE_AWARE, MODE_BLIND_Y])
    def test_a_started_fit_reaches_the_same_optimum(self, mode):
        train = sample(default_model(), 4_000, seed=4249)
        fit = fit_logistic if mode == MODE_BLIND_Y else fit_group_models
        data = self.reweighted(train, self.MULTIPLIERS)
        start = _WarmStart(train, fit(train)).start(self.MULTIPLIERS)
        cold, warm = fit(data), fit(data, start=start)
        for g in (0, 1) if mode == MODE_AWARE else (None,):
            c = cold.single_params() if g is None else cold.group_params(g)
            w = warm.single_params() if g is None else warm.group_params(g)
            assert np.allclose(w.theta(), c.theta(), rtol=0.0, atol=1e-8)
        assert np.array_equal(fitted_decisions(warm, data), fitted_decisions(cold, data))

    def test_unit_multipliers_stay_at_the_origin(self):
        train = sample(default_model(), 4_000, seed=4250)
        origin = fit_group_models(train)
        start = _WarmStart(train, origin).start(dict.fromkeys(self.MULTIPLIERS, 1.0))
        for g in (0, 1):
            step = start.group_params(g).theta() - origin.group_params(g).theta()
            assert np.abs(step).max() <= 1e-9

    def test_start_from_another_frame_is_refused(self, rng):
        ds = random_dataset(rng, n=60)
        foreign = fit_logistic(ds.subset(np.arange(50)))
        with pytest.raises(FitError, match="start was not fitted in this dataset's frame"):
            fit_logistic(ds, start=foreign)
        with pytest.raises(FitError, match="per-group parameters"):
            fit_logistic(ds, start=fit_group_models(ds))


class TestFrameCache:
    """A dataset's standardized design is built once and never crosses datasets."""

    def test_frames_never_cross_datasets(self, rng):
        ds = random_dataset(rng, n=60)
        fit_logistic(ds)
        fit_group_models(ds, MODE_AWARE)
        assert set(ds._frames) == {None, 0, 1}
        reweighted = ds.with_weights(rng.uniform(0.5, 1.5, size=len(ds)))
        assert reweighted._frames is ds._frames
        fit_group_models(reweighted, MODE_AWARE)
        assert set(ds._frames) == {None, 0, 1}
        for other in (ds.subset(np.arange(30)), LabeledDataset(x=ds.x, a=ds.a, y=ds.y)):
            assert other._frames == {} and other._frames is not ds._frames
            params = fit_logistic(other).single_params()
            assert set(other._frames) == {None} and set(ds._frames) == {None, 0, 1}
            assert np.array_equal(params.mean, other.x.mean(axis=0))
            assert params.mean is not ds._frame()[0]

    def test_frame_matches_a_fresh_standardization(self, rng):
        ds = random_dataset(rng, n=60)
        for group, rows in ((None, ds.x), (0, ds.x[ds.a == 0]), (1, ds.x[ds.a == 1])):
            mean, scale, design = ds._frame(group)
            assert np.array_equal(mean, rows.mean(axis=0))
            assert np.array_equal(scale, rows.std(axis=0))
            assert np.array_equal(design[:, 0], np.ones(len(rows)))
            assert np.array_equal(design[:, 1:], (rows - mean) / scale)
            assert ds._frame(group) is ds._frame(group)

    @pytest.mark.parametrize("mode", [MODE_AWARE, MODE_BLIND_Y])
    def test_frame_scored_decisions_equal_predict_proba(self, mode):
        train = sample(default_model(), 10_000, seed=4244)
        w = np.random.default_rng(4245).integers(0, 4, size=len(train)).astype(float)
        data = train.with_weights(w)
        model = fit_logistic(data) if mode == MODE_BLIND_Y else fit_group_models(data, mode)
        expected = (predict_proba(model, train.x, train.a) > 0.5).astype(float)
        assert np.array_equal(fitted_decisions(model, data), expected)
        assert np.array_equal(fitted_decisions(model, train), expected)

    def test_decisions_need_the_fitting_frame(self, rng):
        ds = random_dataset(rng, n=60)
        foreign = fit_group_models(ds.subset(np.arange(50)), MODE_AWARE)
        with pytest.raises(FitError, match="not fitted in this dataset's frame"):
            fitted_decisions(foreign, ds)

    def test_reweighted_copy_keeps_weight_checks(self, rng):
        ds = random_dataset(rng, n=40)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(FitError, match="finite and nonnegative"):
                ds.with_weights(np.full(len(ds), bad))
        for length in (len(ds) - 1, len(ds) + 1):
            with pytest.raises(FitError, match="lengths differ"):
                ds.with_weights(np.ones(length))
        with pytest.raises(FitError, match="total sample weight must be positive"):
            fit_group_models(ds.with_weights(np.where(ds.a == 0, 0.0, 1.0)), MODE_AWARE)
        gutted = ds.subset(~((ds.a == 1) & (ds.y == 0)))
        with pytest.raises(FitError, match=r"cell \(a=1, y=0\)"):
            fit_group_models(gutted.with_weights(np.ones(len(gutted))), MODE_AWARE)


class TestRowIndex:
    """A dataset's group and cell row indices are built once, read-only, and
    shared with reweighted copies only."""

    def test_rows_equal_the_matching_mask(self, rng):
        ds = random_dataset(rng, n=60)
        gutted = ds.subset(~((ds.a == 1) & (ds.y == 0)))
        for data in (ds, gutted):
            for a in (0, 1, None):
                for y in (0, 1, None):
                    mask = np.ones(len(data), dtype=bool)
                    if a is not None:
                        mask &= data.a == a
                    if y is not None:
                        mask &= data.y == y
                    rows = data.rows(a, y)
                    assert np.array_equal(rows, np.flatnonzero(mask))
                    assert data.rows(a=a, y=y) is rows
                    with pytest.raises(ValueError, match="read-only"):
                        rows[...] = 0
            assert len(data._rows) == 9
        assert gutted.rows(1, 0).size == 0

    def test_only_reweighted_copies_share_the_rows(self, rng):
        ds = random_dataset(rng, n=60)
        rows = ds.rows(1, 0)
        reweighted = ds.with_weights(rng.uniform(0.5, 1.5, size=len(ds)))
        assert reweighted._rows is ds._rows and reweighted.rows(1, 0) is rows
        fit_group_models(reweighted, MODE_AWARE)
        assert set(ds._rows) == {(a, y) for a in (0, 1) for y in (0, 1, None)}
        for other in (ds.subset(np.arange(len(ds))), LabeledDataset(x=ds.x, a=ds.a, y=ds.y)):
            assert other._rows == {} and other._rows is not ds._rows
            assert np.array_equal(other.rows(1, 0), rows) and other.rows(1, 0) is not rows
            assert set(other._rows) == {(1, 0)}


class TestPredictProba:
    def test_zero_coefficients_give_half(self):
        params = LogisticParams(0.0, np.zeros(2), np.zeros(2), np.ones(2))
        model = ProbModel(mode=MODE_BLIND_Y, params=params)
        assert predict_proba(model, np.zeros(2)) == 0.5
        assert predict_proba(model, np.array([3.0, -1.0])) == 0.5

    def test_monotone_saturation_toward_one(self):
        params = LogisticParams(0.0, np.array([2.0]), np.zeros(1), np.ones(1))
        model = ProbModel(mode=MODE_BLIND_Y, params=params)
        values = [predict_proba(model, np.array([float(k)])) for k in range(7)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99
        assert values[-1] < 1.0

    def test_hand_computed_sigmoid(self):
        params = LogisticParams(0.2, np.array([0.7, -0.4]), np.zeros(2), np.ones(2))
        model = ProbModel(mode=MODE_BLIND_Y, params=params)
        expected = 1.0 / (1.0 + math.exp(-(0.2 + 0.7 - 0.4)))
        assert predict_proba(model, np.array([1.0, 1.0])) == pytest.approx(expected, abs=1e-12)

    def test_aware_requires_group(self, rng):
        model = fit_group_models(random_dataset(rng, n=60), MODE_AWARE)
        with pytest.raises(FitError, match="group id"):
            predict_proba(model, np.zeros(3))

    def test_aware_routes_rows_by_group(self, rng):
        ds = random_dataset(rng, n=60)
        model = fit_group_models(ds, MODE_AWARE)
        xs = rng.normal(size=(8, 3))
        groups = np.array([0, 1] * 4)
        mixed = predict_proba(model, xs, groups)
        for i in range(8):
            assert mixed[i] == predict_proba(model, xs[i], int(groups[i]))

    def test_aware_rejects_other_group_ids(self, rng):
        model = fit_group_models(random_dataset(rng, n=60), MODE_AWARE)
        with pytest.raises(FitError, match="no parameters fitted for group 2"):
            predict_proba(model, rng.normal(size=(3, 3)), np.array([0, 2, 1]))

    @pytest.mark.parametrize(
        "groups, shape", [([0, 1], r"\(2,\)"), ([[0], [1], [0]], r"\(3, 1\)")]
    )
    def test_aware_rejects_a_group_vector_not_one_id_per_row(self, rng, groups, shape):
        model = fit_group_models(random_dataset(rng, n=60), MODE_AWARE)
        message = f"one id per row: got shape {shape} for 3 rows"
        with pytest.raises(FitError, match=message):
            predict_proba(model, rng.normal(size=(3, 3)), np.array(groups))

    @pytest.mark.parametrize("group", [1.5, -0.5])
    def test_aware_rejects_fractional_group_ids(self, rng, group):
        # A fractional id is neither group: it is not truncated onto one.
        model = fit_group_models(random_dataset(rng, n=60), MODE_AWARE)
        xs = rng.normal(size=(3, 3))
        message = f"no parameters fitted for group {group:g}$"
        with pytest.raises(FitError, match=message):
            predict_proba(model, xs, np.array([0.0, group, 1.0]))
        with pytest.raises(FitError, match=message):
            predict_proba(model, xs[0], group)

    def test_batch_scores_equal_single_rows_at_twelve_features(self, rng):
        # Twelve features sum in another order than numpy's row reduction
        # would; a row's score must still not depend on the rows beside it.
        ds = random_dataset(rng, n=400, d=12)
        xs = rng.normal(size=(64, 12))
        groups = rng.permutation(np.tile([0, 1], 32))
        aware = fit_group_models(ds, MODE_AWARE)
        blind = fit_logistic(ds)
        aware_batch = predict_proba(aware, xs, groups)
        blind_batch = predict_proba(blind, xs)
        for i in range(len(xs)):
            assert aware_batch[i] == predict_proba(aware, xs[i], int(groups[i]))
            assert blind_batch[i] == predict_proba(blind, xs[i])

    @pytest.mark.parametrize("group", [0, 1])
    def test_aware_predicts_rows_of_one_group(self, rng, group):
        model = fit_group_models(random_dataset(rng, n=60), MODE_AWARE)
        # The other group's parameters are never looked up.
        single = ProbModel(mode=MODE_AWARE, params={group: model.group_params(group)})
        xs = rng.normal(size=(5, 3))
        groups = np.full(5, group)
        expected = 1.0 / (1.0 + np.exp(-model.group_params(group).scores(xs)))
        assert np.array_equal(predict_proba(single, xs, groups), predict_proba(model, xs, groups))
        assert predict_proba(single, xs, groups) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_wrong_feature_width(self, width):
        train = sample(default_model(), 2_000, seed=11)
        x = np.zeros((4, width))
        aware = fit_group_models(train, MODE_AWARE)
        with pytest.raises(FitError, match=f"x has {width} features, the model was fitted on 2"):
            predict_proba(aware, x, np.zeros(4, dtype=int))
        with pytest.raises(FitError, match=f"x has {width} features, the model was fitted on 2"):
            predict_proba(fit_logistic(train), x)

    def test_outputs_strictly_inside_unit_interval(self):
        params = LogisticParams(0.0, np.array([50.0]), np.zeros(1), np.ones(1))
        model = ProbModel(mode=MODE_BLIND_Y, params=params)
        hi = predict_proba(model, np.array([10.0]))
        lo = predict_proba(model, np.array([-10.0]))
        assert 0.0 < lo < hi < 1.0
