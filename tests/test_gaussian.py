"""Tests for the closed-form Gaussian ground-truth engine.

Oracles: a frozen high-precision normal CDF table, a frozen density-ratio
regression value, direct density computations, and seeded Monte-Carlo
estimates compared at three binomial standard errors.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from fairthresh.core import (
    BlindKind,
    DisparityError,
    DisparityKind,
    DomainError,
    GroupStats,
    natural_domain,
    threshold,
)
from fairthresh.estimators import predict_proba
from fairthresh.gaussian import (
    DEFAULT_STATS,
    GaussianModel,
    default_model,
    disparity_curve_closed,
    eta,
    exact_prob_model,
    load_model,
    model_from_seed,
    norm_cdf,
    psi,
    risk_closed,
    sample,
    save_model,
    theoretical_fair_classifier,
)

# Standard normal CDF reference values, 22 significant digits.
PHI_TABLE = [
    (-8.0, 6.220960574271784123516e-16),
    (-5.0, 2.866515718791939116738e-7),
    (-3.5, 0.0002326290790355250363499),
    (-3.0, 0.001349898031630094526652),
    (-2.5, 0.006209665325776135166978),
    (-2.0, 0.02275013194817920720028),
    (-1.5, 0.06680720126885806600449),
    (-1.0, 0.1586552539314570514148),
    (-0.75, 0.2266273523768681993271),
    (-0.5, 0.3085375387259868963623),
    (-0.25, 0.4012936743170762757591),
    (-0.1, 0.4601721627229710163311),
    (0.0, 0.5),
    (0.1, 0.5398278372770289836689),
    (0.5, 0.6914624612740131036377),
    (1.0, 0.8413447460685429485852),
    (1.75, 0.9599408431361829095812),
    (2.5, 0.993790334674223864833),
    (4.0, 0.9999683287581668800787),
    (6.0, 0.9999999990134123549623),
]

PHI_MINUS_ONE = 0.158655253931457051
PHI_PLUS_ONE = 0.841344746068542949


@pytest.fixture(scope="module")
def model() -> GaussianModel:
    return default_model()


@pytest.fixture(scope="module")
def big_sample(model):
    return sample(model, 10**6, seed=314159)


@pytest.fixture(scope="module")
def big_eta(model, big_sample):
    return rowwise_eta(model, big_sample)


@pytest.fixture(scope="module")
def fresh_sample(model):
    return sample(model, 10**6, seed=271828)


@pytest.fixture(scope="module")
def fresh_eta(model, fresh_sample):
    return rowwise_eta(model, fresh_sample)


def rowwise_eta(model, dataset) -> np.ndarray:
    """Regression value of each row under its own group."""
    e1 = eta(model, 1, dataset.x)
    e0 = eta(model, 0, dataset.x)
    return np.where(dataset.a == 1, e1, e0)


def disparity_masks(dataset, kind):
    """Row masks whose acceptance rates the measure differences."""
    if kind is DisparityKind.DD:
        return dataset.a == 1, dataset.a == 0
    y = 1 if kind is DisparityKind.DO else 0
    return (dataset.a == 1) & (dataset.y == y), (dataset.a == 0) & (dataset.y == y)


def empirical_disparity_mc(dataset, eta_rows, kind, thr0, thr1):
    """Signed empirical disparity of the two-threshold rule and its SE."""
    accept = np.where(dataset.a == 1, eta_rows > thr1, eta_rows > thr0)
    mask1, mask0 = disparity_masks(dataset, kind)
    p1, n1 = accept[mask1].mean(), mask1.sum()
    p0, n0 = accept[mask0].mean(), mask0.sum()
    se = math.sqrt(p1 * (1 - p1) / n1 + p0 * (1 - p0) / n0)
    return p1 - p0, se


class TestNormCdf:
    def test_frozen_table(self):
        for z, expected in PHI_TABLE:
            got = norm_cdf(z)
            assert abs(got - expected) <= 1e-12
            assert abs(got - expected) <= 1e-12 * max(expected, 1e-300)

    def test_symmetry(self):
        for z in (0.3, 1.7, 2.9):
            assert norm_cdf(z) + norm_cdf(-z) == pytest.approx(1.0, abs=1e-15)


class TestModelValidation:
    def test_bad_sigma(self):
        with pytest.raises(DomainError, match="sigma"):
            GaussianModel(DEFAULT_STATS, (0.0,), (1.0,), (0.0,), (1.0,), sigma=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dimension"):
            GaussianModel(DEFAULT_STATS, (0.0, 1.0), (1.0,), (0.0,), (1.0,), sigma=1.0)

    def test_zero_separation(self):
        with pytest.raises(DomainError, match="identical class means"):
            GaussianModel(DEFAULT_STATS, (0.5,), (0.5,), (0.0,), (1.0,), sigma=1.0)

    def test_empty_mean(self):
        with pytest.raises(DomainError, match="nonempty"):
            GaussianModel(DEFAULT_STATS, (), (), (), (), sigma=1.0)

    def test_accessors(self, model):
        assert model.dim == 2
        assert model.separation(1) == pytest.approx(
            float(np.linalg.norm(np.array(model.mu_11) - np.array(model.mu_10)))
        )

    def test_json_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(DomainError, match="malformed"):
            GaussianModel.from_dict({"p": {"11": 0.5}})

    def test_default_model_provenance(self):
        assert model_from_seed(22) == default_model()

    def test_default_model_gates(self, model):
        for kind in DisparityKind:
            curve = disparity_curve_closed(model, kind)
            assert abs(curve(0.0)) > 0.35


class TestEta:
    def test_equidistant_midpoint(self, model):
        for a in (0, 1):
            mid = 0.5 * (model.mu(a, 1) + model.mu(a, 0))
            expected = model.stats.p(a, 1) / model.stats.p_group(a)
            assert eta(model, a, mid) == pytest.approx(expected, abs=1e-12)

    def test_dominance_monotone(self, model):
        # Walk a small circle around mu_11, rotating from the direction
        # toward mu_10 to the direction away: the distance to mu_10 grows
        # while the distance to mu_11 stays fixed, so eta must increase.
        center = model.mu(1, 1)
        toward = model.mu(1, 0) - center
        u = toward / np.linalg.norm(toward)
        v = np.array([-u[1], u[0]])
        values = []
        for angle in np.linspace(0.0, math.pi, 9):
            x = center + 0.1 * (math.cos(angle) * u + math.sin(angle) * v)
            values.append(eta(model, 1, x))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_density_ratio_instance(self):
        m = GaussianModel(
            stats=GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18),
            mu_11=(0.3, 0.7),
            mu_10=(0.9, 0.2),
            mu_01=(0.1, 0.1),
            mu_00=(0.8, 0.9),
            sigma=1.0,
        )
        x = np.array([0.5, 0.5])

        def density(mu):
            d2 = float(np.sum((x - np.asarray(mu)) ** 2))
            return math.exp(-d2 / 2.0) / (2.0 * math.pi)

        num = 0.49 * density((0.3, 0.7))
        oracle = num / (num + 0.21 * density((0.9, 0.2)))
        value = eta(m, 1, x)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(0.717541238922256841, abs=1e-12)

    def test_batch_matches_scalar(self, model, rng):
        xs = rng.normal(size=(16, 2))
        batch = eta(model, 0, xs)
        for i, x in enumerate(xs):
            assert batch[i] == eta(model, 0, x)

    def test_values_in_unit_interval(self, model, rng):
        xs = rng.normal(scale=5.0, size=(200, 2))
        for a in (0, 1):
            vals = eta(model, a, xs)
            assert np.all((vals > 0.0) & (vals < 1.0))

    def test_dimension_mismatch(self, model):
        with pytest.raises(DomainError, match="dimension"):
            eta(model, 0, np.zeros(3))


def separation_scaled_model() -> GaussianModel:
    """Means exactly 2 sigma apart in both groups."""
    return GaussianModel(
        stats=GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18),
        mu_11=(0.9, 0.3),
        mu_10=(0.0, 0.3),
        mu_01=(0.2, 1.0),
        mu_00=(0.2, 0.1),
        sigma=0.45,
    )


class TestPsi:
    def test_unit_quantiles_at_group_base_rate(self):
        # At t equal to the group base rate the odds factor is 1, and with
        # separation 2 sigma the argument collapses to -(2y - 1).
        m = separation_scaled_model()
        for a in (0, 1):
            t = m.stats.p(a, 1) / m.stats.p_group(a)
            assert psi(m, a, 1, t) == pytest.approx(PHI_MINUS_ONE, abs=1e-12)
            assert psi(m, a, 0, t) == pytest.approx(PHI_PLUS_ONE, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.1])
    def test_open_interval_only(self, model, t):
        with pytest.raises(DomainError, match="unit interval"):
            psi(model, 1, 1, t)

    def test_strictly_increasing(self, model, rng):
        for a in (0, 1):
            for y in (0, 1):
                ts = np.sort(rng.uniform(0.01, 0.99, size=12))
                vals = [psi(model, a, y, t) for t in ts]
                assert all(b > a_ for a_, b in zip(vals, vals[1:]))

    def test_matches_eta_cdf_monte_carlo(self, model, big_sample, big_eta):
        for a, y, t in [(1, 1, 0.35), (1, 1, 0.5), (1, 1, 0.65), (0, 0, 0.5)]:
            cell = (big_sample.a == a) & (big_sample.y == y)
            n = cell.sum()
            frac = float((big_eta[cell] <= t).mean())
            expected = psi(model, a, y, t)
            se = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(frac - expected) <= 3.0 * se

    def test_survival_closed_edges(self, model):
        for a in (0, 1):
            for y in (0, 1):
                assert model.survival(a, y, 0.0) == 1.0
                assert model.survival(a, y, -0.5) == 1.0
                assert model.survival(a, y, 1.0) == 0.0
                assert model.survival(a, y, 1.5) == 0.0
                assert model.survival(a, y, 1e-9) >= 1.0 - 1e-6
                assert model.survival(a, y, 1.0 - 1e-9) <= 1e-6

    def test_survival_non_increasing(self, model):
        taus = np.linspace(0.0, 1.0, 41)
        for a in (0, 1):
            for y in (0, 1):
                vals = [model.survival(a, y, t) for t in taus]
                assert all(b <= a_ for a_, b in zip(vals, vals[1:]))


class TestDisparityCurves:
    def test_identical_groups_have_zero_disparity(self):
        m = GaussianModel(
            stats=GroupStats(p11=0.3, p10=0.2, p01=0.3, p00=0.2),
            mu_11=(1.0, 0.2),
            mu_10=(0.1, 0.6),
            mu_01=(1.0, 0.2),
            mu_00=(0.1, 0.6),
            sigma=0.5,
        )
        for kind in DisparityKind:
            assert disparity_curve_closed(m, kind)(0.0) == 0.0

    def test_monotone_non_increasing(self, model):
        for kind in DisparityKind:
            curve = disparity_curve_closed(model, kind)
            ts = np.linspace(curve.t_lo, curve.t_hi, 41)
            vals = [curve(t) for t in ts]
            assert all(b <= a_ + 1e-12 for a_, b in zip(vals, vals[1:]))
            assert curve(curve.t_hi) <= curve(0.0)

    def test_bracket_inside_natural_domain(self, model):
        for kind in DisparityKind:
            curve = disparity_curve_closed(model, kind)
            lo, hi = natural_domain(kind, model.stats)
            assert lo < curve.t_lo < curve.t_hi < hi
            assert curve.t_lo == pytest.approx(lo, abs=1e-6)
            assert curve.t_hi == pytest.approx(hi, abs=1e-6)

    def test_matches_monte_carlo(self, model, big_sample, big_eta):
        for kind in DisparityKind:
            curve = disparity_curve_closed(model, kind)
            for t in np.linspace(curve.t_lo, curve.t_hi, 12)[1:-1]:
                thr0 = threshold(kind, model.stats, 0, t)
                thr1 = threshold(kind, model.stats, 1, t)
                emp, se = empirical_disparity_mc(big_sample, big_eta, kind, thr0, thr1)
                assert abs(emp - curve(t)) <= 3.0 * se

    def test_blind_kinds_rejected(self, model):
        with pytest.raises(DisparityError):
            disparity_curve_closed(model, BlindKind.DD_X)


class TestRiskClosed:
    def test_reduces_to_bayes_risk_at_zero(self, model):
        stats = model.stats
        bayes = sum(
            stats.p(a, 1) * psi(model, a, 1, 0.5)
            + stats.p(a, 0) * (1.0 - psi(model, a, 0, 0.5))
            for a in (0, 1)
        )
        for kind in DisparityKind:
            assert risk_closed(model, kind, 0.0) == pytest.approx(bayes, abs=1e-14)

    def test_matches_monte_carlo(self, model, big_sample, big_eta):
        n = len(big_sample)
        for kind in DisparityKind:
            lo, hi = natural_domain(kind, model.stats)
            for t in (0.5 * lo, 0.0, 0.5 * hi):
                thr0 = threshold(kind, model.stats, 0, t)
                thr1 = threshold(kind, model.stats, 1, t)
                accept = np.where(big_sample.a == 1, big_eta > thr1, big_eta > thr0)
                err = float((accept != big_sample.y).mean())
                expected = risk_closed(model, kind, t)
                se = math.sqrt(expected * (1.0 - expected) / n)
                assert abs(err - expected) <= 3.0 * se

    def test_zero_parameter_is_optimal(self, model, rng):
        for kind in DisparityKind:
            lo, hi = natural_domain(kind, model.stats)
            base = risk_closed(model, kind, 0.0)
            for t in rng.uniform(lo, hi, size=20):
                assert risk_closed(model, kind, float(t)) + 1e-12 >= base

    def test_closed_domain_endpoints_evaluable(self, model):
        for kind in DisparityKind:
            lo, hi = natural_domain(kind, model.stats)
            base = risk_closed(model, kind, 0.0)
            assert risk_closed(model, kind, lo) >= base
            assert risk_closed(model, kind, hi) >= base

    def test_outside_bracket_rejected(self, model):
        lo, hi = natural_domain(DisparityKind.DD, model.stats)
        with pytest.raises(DomainError, match="bracket"):
            risk_closed(model, DisparityKind.DD, hi + 0.1)

    def test_blind_kinds_rejected(self, model):
        with pytest.raises(DisparityError):
            risk_closed(model, BlindKind.DO_X, 0.0)


class TestSample:
    def test_rejects_nonpositive_n(self, model):
        for n in (0, -3):
            with pytest.raises(DomainError, match="at least one"):
                sample(model, n, seed=1)

    def test_single_row(self, model):
        ds = sample(model, 1, seed=5)
        assert ds.x.shape == (1, 2)
        assert ds.a[0] in (0, 1) and ds.y[0] in (0, 1)
        assert ds.weight[0] == 1.0

    def test_deterministic_per_seed(self, model):
        first = sample(model, 1000, seed=97)
        second = sample(model, 1000, seed=97)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.a, second.a)
        assert np.array_equal(first.y, second.y)

    def test_seeds_differ(self, model):
        assert not np.array_equal(sample(model, 100, seed=1).x, sample(model, 100, seed=2).x)

    def test_cell_frequencies(self, model, big_sample):
        n = len(big_sample)
        for a in (0, 1):
            for y in (0, 1):
                p = model.stats.p(a, y)
                p_hat = big_sample.cell_count(a, y) / n
                assert abs(p_hat - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestTheoreticalFairClassifier:
    def test_slack_budget_returns_bayes_rule(self, model):
        for kind in DisparityKind:
            rule = theoretical_fair_classifier(model, kind, delta=0.6)
            assert rule.t_star == 0.0
            assert rule.thresholds == (0.5, 0.5)
            assert rule.risk == risk_closed(model, kind, 0.0)

    def test_zero_budget_kills_disparity(self, model):
        for kind in DisparityKind:
            rule = theoretical_fair_classifier(model, kind, delta=0.0, tol=1e-9)
            assert abs(rule.disparity) <= 1e-6
            assert rule.risk > risk_closed(model, kind, 0.0)

    def test_risk_non_increasing_in_budget(self, model):
        for kind in DisparityKind:
            risks = [
                theoretical_fair_classifier(model, kind, delta=d).risk
                for d in np.linspace(0.0, 0.5, 11)
            ]
            assert all(b <= a_ + 1e-12 for a_, b in zip(risks, risks[1:]))

    def test_thresholds_tighten_the_favored_group(self, model):
        # Baseline disparity is positive (group 1 favored), so the fair rule
        # must raise group 1's bar and lower group 0's.
        rule = theoretical_fair_classifier(model, DisparityKind.DD, delta=0.0)
        assert rule.t_star > 0.0
        assert rule.thresholds[1] > 0.5 > rule.thresholds[0]

    def test_solve_metadata(self, model):
        rule = theoretical_fair_classifier(model, DisparityKind.DO, delta=0.1)
        assert rule.kind is DisparityKind.DO
        assert rule.delta == 0.1
        assert rule.solve.converged

    def test_empirical_disparity_tracks_budget(self, model, fresh_sample, fresh_eta):
        # The rules are computed from closed forms; a fresh test sample must
        # land within 0.005 of the budget for every kind and budget level.
        for kind in DisparityKind:
            for delta in (0.0, 0.1, 0.2, 0.3):
                rule = theoretical_fair_classifier(model, kind, delta)
                emp, _ = empirical_disparity_mc(
                    fresh_sample, fresh_eta, kind, rule.thresholds[0], rule.thresholds[1]
                )
                assert abs(emp - delta) <= 0.005


class TestExactProbModel:
    def test_predictions_equal_label_rate_function(self, model, rng):
        # Within a group the log-odds of Y=1 are affine in x, so a logistic
        # parameter set can represent the true rate with no approximation.
        prob = exact_prob_model(model)
        xs = rng.normal(scale=1.5, size=(400, model.dim))
        for a in (0, 1):
            truth = np.asarray(eta(model, a, xs))
            fitted = predict_proba(prob, xs, np.full(400, a))
            assert np.max(np.abs(fitted - truth)) < 1e-12

    def test_other_models_round_trip(self, rng):
        other = model_from_seed(91, sigma=0.8, dim=3)
        prob = exact_prob_model(other)
        xs = rng.normal(size=(200, 3))
        for a in (0, 1):
            truth = np.asarray(eta(other, a, xs))
            fitted = predict_proba(prob, xs, np.full(200, a))
            assert np.max(np.abs(fitted - truth)) < 1e-12
