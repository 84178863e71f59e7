"""Tests for the weighted logistic estimators.

Oracles: central finite differences for the gradient, generating parameters
for recovery, the closed-form Gaussian regression function, and independence
constructions for the group regression.
"""
from __future__ import annotations

import math

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
    fit_group_models,
    fit_logistic,
    nll,
    nll_gradient,
    predict_proba,
)
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
        total = sum(ds.cell_count(a, y) for a in (0, 1) for y in (0, 1))
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
