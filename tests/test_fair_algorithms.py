"""Pipeline tests: resampling, cost reweighting, plug-in thresholding.

Layout:
- proportion/count unit tests with hand-computed expectations, and the
  resample draw checked row by row on a toy dataset whose feature is the
  row id;
- cost-table checks tying the reweighting construction to the threshold
  rule on finite support;
- end-to-end pipeline runs on the synthetic Gaussian model, compared
  against the closed-form oracle;
- evaluate() against a hand-tabulated fixture.
"""
from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairthresh.core import (
    BlindKind,
    DisparityError,
    DisparityKind,
    DomainError,
    EstimationError,
    GroupStats,
    bilinear_coeffs,
    cost_weights,
    natural_domain,
    threshold,
)
from fairthresh import fair_algorithms
from fairthresh.estimators import (
    MODE_AWARE,
    FitError,
    LabeledDataset,
    LogisticConfig,
    LogisticParams,
    ProbModel,
    fit_group_models,
    fit_logistic,
    nll_gradient,
    predict_proba,
)
from fairthresh.fair_algorithms import (
    FairClassifier,
    FairFitConfig,
    blind_cost_weights,
    empirical_curve,
    evaluate,
    fuds_cell_counts,
    fuds_proportions,
    fuds_resample,
    run_fcsc,
    run_fpir,
    run_fuds,
)
from fairthresh.gaussian import (
    default_model,
    exact_prob_model,
    sample,
    theoretical_fair_classifier,
)

STATS = GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)
ALL_KINDS = (DisparityKind.DD, DisparityKind.DO, DisparityKind.PD)
BLIND_KINDS = (BlindKind.DD_X, BlindKind.DO_X, BlindKind.PD_X)
CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))

LEARNER = LogisticConfig()


def make_config(kind, delta, **kwargs):
    defaults = dict(seed=7, tol=2.0**-12)
    defaults.update(kwargs)
    return FairFitConfig(kind=kind, delta=delta, **defaults)


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def train(model):
    return sample(model, 10_000, seed=906)


@pytest.fixture(scope="module")
def test_set(model):
    return sample(model, 5_000, seed=5906)


def random_stats(rng):
    cells = rng.dirichlet(np.full(4, 2.0))
    total = math.fsum(cells)
    return GroupStats(
        p11=cells[0] / total, p10=cells[1] / total, p01=cells[2] / total, p00=cells[3] / total
    )


def interior_t(stats, kind, u):
    """Map u in (-1, 1) to a point strictly inside the natural bracket."""
    lo, hi = natural_domain(kind, stats)
    return u * hi if u >= 0 else -u * lo


def toy_dataset():
    """40 rows whose single feature doubles as the row id."""
    counts = {(1, 1): 12, (1, 0): 8, (0, 1): 11, (0, 0): 9}
    a = np.concatenate([np.full(counts[c], c[0]) for c in CELLS])
    y = np.concatenate([np.full(counts[c], c[1]) for c in CELLS])
    x = np.arange(len(a), dtype=float).reshape(-1, 1)
    return LabeledDataset(x=x, a=a, y=y), counts


def cell_sources(dataset):
    return {c: np.flatnonzero(dataset.cell_mask(*c)) for c in CELLS}


class TestFudsProportions:
    def test_frozen_two_group_rescale(self):
        # At t = 0.14 the acceptance thresholds are 0.6 and 4/15; rescaling
        # each group's cells by (1 - H, H) and restoring the group marginals
        # gives, in exact arithmetic, (9.8/23, 6.3/23, 3.3/17, 1.8/17).
        assert threshold(DisparityKind.DD, STATS, 1, 0.14) == pytest.approx(0.6, abs=1e-12)
        assert threshold(DisparityKind.DD, STATS, 0, 0.14) == pytest.approx(4 / 15, abs=1e-12)
        props = fuds_proportions(STATS, DisparityKind.DD, 0.14)
        assert props[(1, 1)] == pytest.approx(9.8 / 23, abs=1e-9)
        assert props[(1, 0)] == pytest.approx(6.3 / 23, abs=1e-9)
        assert props[(0, 1)] == pytest.approx(3.3 / 17, abs=1e-9)
        assert props[(0, 0)] == pytest.approx(1.8 / 17, abs=1e-9)
        assert props[(1, 1)] == pytest.approx(0.42609, abs=5e-6)
        assert props[(1, 0)] == pytest.approx(0.27391, abs=5e-6)
        assert props[(0, 1)] == pytest.approx(0.19412, abs=5e-6)
        assert props[(0, 0)] == pytest.approx(0.10588, abs=5e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS + BLIND_KINDS)
    def test_identity_at_zero(self, kind):
        props = fuds_proportions(STATS, kind, 0.0)
        for cell in CELLS:
            assert props[cell] == STATS.p(*cell)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tiny_t_stays_near_identity(self, kind):
        props = fuds_proportions(STATS, kind, 1e-12)
        for cell in CELLS:
            assert props[cell] == pytest.approx(STATS.p(*cell), abs=1e-9)

    @given(
        cells=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        u=st.floats(-0.97, 0.97),
        kind_ix=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_aware_invariants(self, cells, u, kind_ix):
        total = math.fsum(cells)
        stats = GroupStats(*(c / total for c in cells))
        kind = ALL_KINDS[kind_ix]
        t = interior_t(stats, kind, u)
        props = fuds_proportions(stats, kind, t)
        assert math.fsum(props.values()) == pytest.approx(1.0, abs=1e-12)
        for a in (0, 1):
            group_sum = props[(a, 1)] + props[(a, 0)]
            assert group_sum == pytest.approx(stats.p_group(a), abs=1e-12)
            h = threshold(kind, stats, a, t)
            expected_ratio = (1.0 - h) * stats.p(a, 1) / (h * stats.p(a, 0))
            assert props[(a, 1)] / props[(a, 0)] == pytest.approx(expected_ratio, rel=1e-9)

    def test_blind_frozen_tables(self):
        # Label-shift tilt moves t of mass from cell (1,1) to (0,1).
        props = fuds_proportions(STATS, BlindKind.DO_X, 0.1)
        assert props[(1, 1)] == pytest.approx(0.39, abs=1e-12)
        assert props[(0, 1)] == pytest.approx(0.22, abs=1e-12)
        assert props[(1, 0)] == pytest.approx(0.21, abs=1e-12)
        assert props[(0, 0)] == pytest.approx(0.18, abs=1e-12)
        # Rejection tilt moves t of mass from cell (0,0) to (1,0).
        props = fuds_proportions(STATS, BlindKind.PD_X, 0.1)
        assert props[(1, 0)] == pytest.approx(0.31, abs=1e-12)
        assert props[(0, 0)] == pytest.approx(0.08, abs=1e-12)
        assert props[(1, 1)] == pytest.approx(0.49, abs=1e-12)
        assert props[(0, 1)] == pytest.approx(0.12, abs=1e-12)
        # Group tilt rescales cells by 1 -+ t/p_a and renormalizes by the
        # resulting total 0.94.
        props = fuds_proportions(STATS, BlindKind.DD_X, 0.1)
        assert props[(1, 1)] == pytest.approx(0.42 / 0.94, abs=1e-12)
        assert props[(1, 0)] == pytest.approx(0.24 / 0.94, abs=1e-12)
        assert props[(0, 1)] == pytest.approx(0.16 / 0.94, abs=1e-12)
        assert props[(0, 0)] == pytest.approx(0.12 / 0.94, abs=1e-12)

    @given(
        cells=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        u=st.floats(-0.97, 0.97),
        kind_ix=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_blind_invariants(self, cells, u, kind_ix):
        total = math.fsum(cells)
        stats = GroupStats(*(c / total for c in cells))
        kind = BLIND_KINDS[kind_ix]
        t = interior_t(stats, kind, u)
        props = fuds_proportions(stats, kind, t)
        assert math.fsum(props.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in props.values())
        if kind is BlindKind.DO_X:
            # label-0 cells are scaled by the common normalizer only
            assert props[(1, 0)] / props[(0, 0)] == pytest.approx(
                stats.p(1, 0) / stats.p(0, 0), rel=1e-9
            )
        if kind is BlindKind.PD_X:
            assert props[(1, 1)] / props[(0, 1)] == pytest.approx(
                stats.p(1, 1) / stats.p(0, 1), rel=1e-9
            )

    def test_outside_bracket_rejected(self):
        lo, hi = natural_domain(DisparityKind.DD, STATS)
        with pytest.raises(DomainError, match="outside"):
            fuds_proportions(STATS, DisparityKind.DD, hi + 0.05)
        with pytest.raises(DomainError, match="mass"):
            fuds_proportions(STATS, BlindKind.DO_X, STATS.p(1, 1) + 0.05)
        with pytest.raises(DomainError, match="finite"):
            fuds_proportions(STATS, DisparityKind.DD, math.nan)

    def test_closed_endpoint_zeroes_one_cell(self):
        lo, hi = natural_domain(DisparityKind.DD, STATS)
        props = fuds_proportions(STATS, DisparityKind.DD, hi)
        assert min(props.values()) == pytest.approx(0.0, abs=1e-15)
        assert math.fsum(props.values()) == pytest.approx(1.0, abs=1e-12)


class TestFudsCellCounts:
    def test_floor_sizes(self):
        props = {(1, 1): 0.426, (1, 0): 0.274, (0, 1): 0.194, (0, 0): 0.106}
        counts = fuds_cell_counts(100, props)
        assert counts == {(1, 1): 42, (1, 0): 27, (0, 1): 19, (0, 0): 10}
        assert sum(counts.values()) <= 100

    def test_baseline_recovers_original_counts(self):
        dataset, counts = toy_dataset()
        stats = GroupStats.from_labels(dataset.a, dataset.y)
        props = fuds_proportions(stats, DisparityKind.DD, 0.0)
        assert fuds_cell_counts(len(dataset), props) == counts

    def test_bad_inputs(self):
        props = {cell: 0.25 for cell in CELLS}
        with pytest.raises(DisparityError, match="at least one row"):
            fuds_cell_counts(0, props)
        bad = dict(props)
        bad[(1, 1)] = -0.1
        with pytest.raises(DisparityError, match="nonnegative"):
            fuds_cell_counts(10, bad)


def drawn_rows(resampled):
    """Source row ids of a toy-dataset resample, per cell."""
    ids = resampled.x[:, 0].astype(int)
    return {c: ids[resampled.cell_mask(*c)] for c in CELLS}


class TestFudsResample:
    def test_cold_draw_exact_counts(self):
        dataset, _ = toy_dataset()
        sources = cell_sources(dataset)
        targets = {(1, 1): 5, (1, 0): 3, (0, 1): 7, (0, 0): 2}
        resampled = fuds_resample(dataset, targets, seed=3)
        assert len(resampled) == sum(targets.values())
        for cell, drawn in drawn_rows(resampled).items():
            assert len(drawn) == targets[cell]
            assert set(drawn).issubset(set(sources[cell]))
            assert np.array_equal(drawn, np.unique(drawn))  # sorted, no duplicates

    def test_cold_full_recovers_original_rows(self):
        # The toy rows are already in cell order, so the full-count draw
        # (the t = 0 resample) is the dataset itself.
        dataset, counts = toy_dataset()
        resampled = fuds_resample(dataset, counts, seed=3)
        assert np.array_equal(resampled.x, dataset.x)
        assert np.array_equal(resampled.a, dataset.a)
        assert np.array_equal(resampled.y, dataset.y)

    def test_identity_when_targets_unchanged(self):
        dataset, counts = toy_dataset()
        targets = {(1, 1): 6, (1, 0): 12, (0, 1): 2, (0, 0): 9}
        first = drawn_rows(fuds_resample(dataset, targets, seed=3))
        fuds_resample(dataset, counts, seed=3)
        fuds_resample(dataset, {c: 1 for c in CELLS}, seed=99)
        again = drawn_rows(fuds_resample(dataset, targets, seed=3))
        for cell in CELLS:
            assert np.array_equal(first[cell], again[cell])

    def test_grow_prefers_unseen_rows(self):
        dataset, counts = toy_dataset()
        small = drawn_rows(fuds_resample(dataset, {c: 3 for c in CELLS}, seed=4))
        large = drawn_rows(fuds_resample(dataset, {c: counts[c] - 1 for c in CELLS}, seed=4))
        for cell in CELLS:
            # growing within the cell adds rows not drawn yet, keeping the old
            assert set(small[cell]).issubset(set(large[cell]))
            assert len(set(large[cell])) == len(large[cell])

    def test_grow_beyond_source_resamples(self):
        dataset, counts = toy_dataset()
        targets = dict(counts)
        targets[(0, 0)] = 20  # source holds only 9 rows
        resampled = fuds_resample(dataset, targets, seed=3)
        drawn = drawn_rows(resampled)[(0, 0)]
        source = set(cell_sources(dataset)[(0, 0)])
        assert len(drawn) == 20
        assert set(drawn) == source  # every source row is used before repeats
        assert min(Counter(drawn).values()) >= 1
        assert len(resampled) == sum(targets.values())

    def test_shrink_keeps_subset(self):
        dataset, counts = toy_dataset()
        targets = dict(counts)
        targets[(0, 1)] = 4
        kept = drawn_rows(fuds_resample(dataset, targets, seed=6))[(0, 1)]
        assert len(kept) == 4
        assert set(kept).issubset(set(cell_sources(dataset)[(0, 1)]))
        targets[(0, 1)] = 8
        assert set(kept).issubset(set(drawn_rows(fuds_resample(dataset, targets, seed=6))[(0, 1)]))

    def test_shrink_then_regrow_bounded_change(self):
        # Shrinking by five and regrowing by three loses exactly two rows
        # per cell against the full draw: the draw at a count does not
        # depend on the draws made before it.
        dataset, counts = toy_dataset()
        full = drawn_rows(fuds_resample(dataset, counts, seed=3))
        fuds_resample(dataset, {c: counts[c] - 5 for c in CELLS}, seed=3)
        regrown = drawn_rows(fuds_resample(dataset, {c: counts[c] - 2 for c in CELLS}, seed=3))
        for cell in CELLS:
            lost = Counter(full[cell]) - Counter(regrown[cell])
            assert sum(lost.values()) == 2
            assert not Counter(regrown[cell]) - Counter(full[cell])

    def test_empty_source_with_positive_target(self):
        dataset, counts = toy_dataset()
        mask = ~dataset.cell_mask(1, 0)
        gutted = dataset.subset(np.flatnonzero(mask))
        targets = {(1, 1): 2, (1, 0): 1, (0, 1): 2, (0, 0): 2}
        with pytest.raises(EstimationError, match="no source rows"):
            fuds_resample(gutted, targets, seed=3)
        targets[(1, 0)] = 0  # zero target tolerates the empty cell
        resampled = fuds_resample(gutted, targets, seed=3)
        assert not resampled.cell_mask(1, 0).any()
        assert len(resampled) == 6

    def test_deterministic_per_seed(self):
        dataset, _ = toy_dataset()
        targets = {(1, 1): 6, (1, 0): 4, (0, 1): 5, (0, 0): 3}
        s1 = drawn_rows(fuds_resample(dataset, targets, seed=11))
        s2 = drawn_rows(fuds_resample(dataset, targets, seed=11))
        s3 = drawn_rows(fuds_resample(dataset, targets, seed=12))
        for cell in CELLS:
            assert np.array_equal(s1[cell], s2[cell])
        assert any(not np.array_equal(s1[c], s3[c]) for c in CELLS)

    def test_negative_target_rejected(self):
        dataset, counts = toy_dataset()
        targets = dict(counts)
        targets[(1, 1)] = -1
        with pytest.raises(DisparityError, match="nonnegative"):
            fuds_resample(dataset, targets, seed=3)

    @given(
        t11=st.integers(0, 24),
        t10=st.integers(0, 16),
        t01=st.integers(0, 22),
        t00=st.integers(0, 18),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_and_membership(self, t11, t10, t01, t00, seed):
        dataset, _ = toy_dataset()
        sources = cell_sources(dataset)
        targets = {(1, 1): t11, (1, 0): t10, (0, 1): t01, (0, 0): t00}
        resampled = fuds_resample(dataset, targets, seed=seed)
        assert len(resampled) == sum(targets.values())
        for cell, drawn in drawn_rows(resampled).items():
            assert len(drawn) == targets[cell]
            assert set(drawn).issubset(set(sources[cell]))

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=4, max_size=4
        ),
        before=st.lists(st.integers(0, 30), min_size=4, max_size=4),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_smaller_counts_draw_sub_multisets(self, pairs, before, seed):
        # Counts run past every toy cell's size (at most 12), so the
        # with-replacement tail is covered too.
        dataset, _ = toy_dataset()
        small_targets = {c: min(pair) for c, pair in zip(CELLS, pairs)}
        large_targets = {c: max(pair) for c, pair in zip(CELLS, pairs)}
        large = drawn_rows(fuds_resample(dataset, large_targets, seed=seed))
        fuds_resample(dataset, dict(zip(CELLS, before)), seed=seed)
        small = drawn_rows(fuds_resample(dataset, small_targets, seed=seed))
        for cell in CELLS:
            assert not Counter(small[cell]) - Counter(large[cell])


class TestCostTables:
    def test_blind_costs_half_at_zero(self):
        for kind in BLIND_KINDS:
            for a, y in CELLS:
                assert blind_cost_weights(kind, STATS, a, y, 0.0) == 0.5

    def test_blind_frozen_values(self):
        # tilt t/p of the affected cells, halved into the cost scale
        t = 0.1
        assert blind_cost_weights(BlindKind.DO_X, STATS, 1, 1, t) == pytest.approx(
            0.5 - t / (2 * 0.49), abs=1e-12
        )
        assert blind_cost_weights(BlindKind.DO_X, STATS, 0, 1, t) == pytest.approx(
            0.5 + t / (2 * 0.12), abs=1e-12
        )
        assert blind_cost_weights(BlindKind.DO_X, STATS, 1, 0, t) == 0.5
        assert blind_cost_weights(BlindKind.DO_X, STATS, 0, 0, t) == 0.5
        assert blind_cost_weights(BlindKind.DD_X, STATS, 1, 1, t) == pytest.approx(
            0.5 - t / (2 * 0.7), abs=1e-12
        )
        assert blind_cost_weights(BlindKind.PD_X, STATS, 1, 0, t) == pytest.approx(
            0.5 + t / (2 * 0.21), abs=1e-12
        )

    def test_blind_costs_reject_aware_kind(self):
        with pytest.raises(DisparityError, match="blind"):
            blind_cost_weights(DisparityKind.DD, STATS, 1, 1, 0.1)

    def test_blind_costs_match_proportion_tilts(self):
        rng = np.random.default_rng(4241)
        for _ in range(20):
            stats = random_stats(rng)
            for kind in BLIND_KINDS:
                t = interior_t(stats, kind, rng.uniform(-0.95, 0.95))
                props = fuds_proportions(stats, kind, t)
                for a, y in CELLS:
                    cost = blind_cost_weights(kind, stats, a, y, t)
                    tilt = 2.0 * cost - 1.0
                    tilted_mass = (1.0 + tilt) * stats.p(a, y)
                    total = math.fsum(
                        (2.0 * blind_cost_weights(kind, stats, aa, yy, t)) * stats.p(aa, yy)
                        for aa, yy in CELLS
                    )
                    assert props[(a, y)] == pytest.approx(tilted_mass / total, rel=1e-9)

    def test_cost_argmin_matches_threshold_rule(self):
        # On any atom with label rate q in group a, accepting costs
        # c_{a,0} (1 - q) and rejecting costs c_{a,1} q, so the minimizer
        # accepts exactly when q clears the group threshold.
        rng = np.random.default_rng(20240822)
        checked = 0
        for _ in range(50):
            stats = random_stats(rng)
            kind = ALL_KINDS[rng.integers(0, 3)]
            t = interior_t(stats, kind, rng.uniform(-0.95, 0.95))
            for a in (0, 1):
                h = threshold(kind, stats, a, t)
                c1 = cost_weights(kind, stats, a, 1, t)
                c0 = cost_weights(kind, stats, a, 0, t)
                for q in rng.uniform(0.0, 1.0, size=10):
                    if abs(q - h) < 1e-9:
                        continue
                    accept_cost = c0 * (1.0 - q)
                    reject_cost = c1 * q
                    assert (accept_cost < reject_cost) == (q > h)
                    checked += 1
        assert checked >= 900

    def test_resampled_label_posterior_matches_threshold_rule(self):
        # Tilting cell masses by ((1-H), H) turns the within-group label
        # posterior of an atom with rate q into (1-H) q / ((1-H) q + H (1-q));
        # that posterior clears 1/2 exactly when q clears H.
        rng = np.random.default_rng(91825)
        for _ in range(50):
            stats = random_stats(rng)
            kind = ALL_KINDS[rng.integers(0, 3)]
            t = interior_t(stats, kind, rng.uniform(-0.95, 0.95))
            for a in (0, 1):
                h = threshold(kind, stats, a, t)
                for q in rng.uniform(0.0, 1.0, size=10):
                    if abs(q - h) < 1e-9:
                        continue
                    tilted = (1.0 - h) * q / ((1.0 - h) * q + h * (1.0 - q))
                    assert (tilted > 0.5) == (q > h)


class TestFairFitConfig:
    def test_defaults(self):
        cfg = FairFitConfig(kind=DisparityKind.DD, delta=0.1)
        assert cfg.mode == "aware"
        assert cfg.tol == 2.0**-15
        assert cfg.base_kind is DisparityKind.DD

    def test_base_kind_of_blind(self):
        cfg = FairFitConfig(kind=BlindKind.DO_X, delta=0.1)
        assert cfg.base_kind is DisparityKind.DO
        assert cfg.mode == "blind"

    def test_rejections(self):
        with pytest.raises(DisparityError, match="delta"):
            FairFitConfig(kind=DisparityKind.DD, delta=-0.1)
        with pytest.raises(DisparityError, match="tol"):
            FairFitConfig(kind=DisparityKind.DD, delta=0.1, tol=0.0)
        with pytest.raises(DisparityError, match="kind"):
            FairFitConfig(kind="dd", delta=0.1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_rejects_seed_other_than_nonnegative_integer(self, seed):
        with pytest.raises(DisparityError, match="seed must be a nonnegative integer"):
            FairFitConfig(kind=DisparityKind.DD, delta=0.1, seed=seed)


class TestRunFuds:
    def test_slack_budget_returns_plain_fit(self, train):
        cfg = make_config(DisparityKind.DD, 0.95)
        model_out, t_hat, report = run_fuds(train, cfg)
        assert t_hat == 0.0
        assert report["iterations"] == 0
        assert len(report["trace"]) == 1
        plain = fit_group_models(train, MODE_AWARE, LEARNER)
        own = predict_proba(model_out, train.x, train.a) > 0.5
        ref = predict_proba(plain, train.x, train.a) > 0.5
        assert np.array_equal(own, ref)
        for a in (0, 1):
            got = model_out.group_params(a).raw()[1]
            want = plain.group_params(a).raw()[1]
            assert np.allclose(got, want, atol=1e-9)

    def test_budget_and_accuracy_versus_oracle(self, model, train, test_set):
        cfg = make_config(DisparityKind.DD, 0.1)
        model_out, t_hat, report = run_fuds(train, cfg)
        metrics = evaluate(model_out, test_set)
        oracle = theoretical_fair_classifier(model, DisparityKind.DD, 0.1)
        assert abs(metrics["dd"] - 0.1) <= 0.03
        assert abs(metrics["accuracy"] - (1.0 - oracle.risk)) <= 0.01
        assert abs(t_hat - oracle.t_star) <= 0.05
        assert report["bracket"]["clamped"] is True
        assert report["trace"][-1]["cell_counts"].keys() == {"11", "10", "01", "00"}

    def test_deterministic_reports(self, model):
        small = sample(model, 2_000, seed=77)
        cfg = make_config(DisparityKind.DD, 0.1)
        _, t1, r1 = run_fuds(small, cfg)
        _, t2, r2 = run_fuds(small, cfg)
        assert t1 == t2
        assert [(e["t"], e["disparity"]) for e in r1["trace"]] == [
            (e["t"], e["disparity"]) for e in r2["trace"]
        ]

    def test_report_is_json_serializable(self, model):
        small = sample(model, 2_000, seed=77)
        cfg = make_config(DisparityKind.DD, 0.2)
        _, _, report = run_fuds(small, cfg)
        parsed = json.loads(json.dumps(report))
        assert parsed["method"] == "fuds"
        assert parsed["kind"] == "dd"
        assert set(parsed["thresholds"]) == {"group0", "group1"}

    def test_rejects_prefit_model(self, train):
        cfg = make_config(DisparityKind.DD, 0.1)
        with pytest.raises(DisparityError, match="refits"):
            empirical_curve(train, cfg, "fuds", model=exact_prob_model(default_model()))


class TestRunFcsc:
    def test_uniform_costs_match_unweighted_fit(self, train):
        cfg = make_config(DisparityKind.DO, 0.95)
        model_out, t_hat, report = run_fcsc(train, cfg)
        assert t_hat == 0.0
        assert report["cost_table"] == {"11": 0.5, "10": 0.5, "01": 0.5, "00": 0.5}
        plain = fit_group_models(train, MODE_AWARE, LEARNER)
        for a in (0, 1):
            assert model_out.group_params(a).intercept == plain.group_params(a).intercept
            assert np.array_equal(model_out.group_params(a).coef, plain.group_params(a).coef)

    def test_budget_and_accuracy_versus_oracle(self, model):
        train_local = sample(model, 10_000, seed=910)
        test_local = sample(model, 5_000, seed=5910)
        cfg = make_config(DisparityKind.DD, 0.1)
        model_out, t_hat, report = run_fcsc(train_local, cfg)
        metrics = evaluate(model_out, test_local)
        oracle = theoretical_fair_classifier(model, DisparityKind.DD, 0.1)
        assert abs(metrics["dd"] - 0.1) <= 0.03
        assert abs(metrics["accuracy"] - (1.0 - oracle.risk)) <= 0.01
        assert report["cost_table"]["11"] < 0.5 < report["cost_table"]["01"]


class TestRunFpir:
    def test_slack_budget_keeps_half_thresholds(self, train):
        cfg = make_config(DisparityKind.DO, 0.95)
        classifier, t_hat, report = run_fpir(train, cfg)
        assert t_hat == 0.0
        assert report["thresholds"] == {"group0": 0.5, "group1": 0.5}
        assert report["iterations"] == 0

    def test_perfect_regression_recovers_closed_form_t(self, model):
        big = sample(model, 10**6, seed=77)
        prefit = exact_prob_model(model)
        for delta in (0.0, 0.15):
            cfg = FairFitConfig(kind=DisparityKind.DD, delta=delta, seed=7, tol=1e-6)
            _, t_hat, _ = run_fpir(big, cfg, model=prefit)
            oracle = theoretical_fair_classifier(model, DisparityKind.DD, delta, tol=1e-9)
            assert abs(t_hat - oracle.t_star) <= 1e-3

    def test_do_budget_on_test_split(self, model):
        train_local = sample(model, 10_000, seed=901)
        test_local = sample(model, 5_000, seed=5901)
        cfg = make_config(DisparityKind.DO, 0.2)
        classifier, t_hat, report = run_fpir(train_local, cfg)
        metrics = evaluate(classifier, test_local)
        assert abs(metrics["do"] - 0.2) <= 0.05
        assert report["thresholds"]["group1"] > 0.5 > report["thresholds"]["group0"]

    def test_constraint_holds_up_to_curve_steps(self, train):
        # The boundary rows are randomized, so the train disparity lands on
        # the budget itself, not one curve step inside it.
        cfg = make_config(DisparityKind.DO, 0.05)
        classifier, t_hat, report = run_fpir(train, cfg)
        assert report["disparity_at_t_hat"] == 0.05
        assert 0.0 < max(report["tau_plus"], report["tau_minus"]) < 1.0
        assert report["train_metrics"]["do"] == pytest.approx(0.05, abs=1e-12)
        curve = empirical_curve(train, cfg, "fpir")
        assert curve(np.nextafter(t_hat, -np.inf)) > 0.05 >= curve(np.nextafter(t_hat, np.inf))

    def test_zero_budget_is_met_exactly(self, model):
        train_local = sample(model, 5_000, 3)
        prefit = fit_group_models(train_local, MODE_AWARE)
        cfg = FairFitConfig(kind=DisparityKind.DD, delta=0.0, seed=3)
        _, _, report = run_fpir(train_local, cfg, model=prefit)
        assert abs(report["disparity_at_t_hat"]) <= 0.0

    def test_prefit_model_rejects_data_of_another_feature_width(self, model):
        train_local = sample(model, 2_000, seed=11)
        prefit = fit_group_models(train_local, MODE_AWARE)
        one_column = LabeledDataset(x=train_local.x[:, :1], a=train_local.a, y=train_local.y)
        with pytest.raises(FitError, match="x has 1 features, the model was fitted on 2"):
            run_fpir(one_column, FairFitConfig(kind=DisparityKind.DD, delta=0.05), model=prefit)

    def test_rejects_blind_prefit_mix(self, train):
        cfg = make_config(BlindKind.DD_X, 0.1)
        with pytest.raises(DisparityError, match="blind"):
            run_fpir(train, cfg, model=exact_prob_model(default_model()))
        cfg_aware = make_config(DisparityKind.DD, 0.1)
        blind_model = fit_logistic(train, LEARNER)
        with pytest.raises(DisparityError, match="group-aware"):
            run_fpir(train, cfg_aware, model=blind_model)

    def test_bracket_edge_flagged_when_budget_sits_at_bracket_end(self):
        rng = np.random.default_rng(0)
        dataset = LabeledDataset(
            x=rng.normal(size=(8, 1)),
            a=np.array([1, 1, 1, 1, 0, 0, 0, 0]),
            y=np.array([1, 0, 1, 0, 1, 0, 1, 0]),
        )
        tol = 2.0**-15

        def flat(p):
            return LogisticParams(
                intercept=float(np.log(p / (1.0 - p))),
                coef=np.zeros(1),
                mean=np.zeros(1),
                scale=np.ones(1),
            )

        # group-1 scores sit just below the reachable threshold ceiling, so
        # the disparity stays above budget until the last resolvable step
        prefit = ProbModel(MODE_AWARE, {1: flat(1.0 - (1e-9 + 0.5 * tol)), 0: flat(5e-10)})
        cfg = FairFitConfig(kind=DisparityKind.DD, delta=0.5, seed=7, tol=tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, t_hat, report = run_fpir(dataset, cfg, model=prefit)
        assert report["at_bracket_edge"] is True
        assert report["bracket"]["hi"] - t_hat <= 4.0 * tol

    @pytest.mark.parametrize(
        "kind, prefit",
        [(kind, False) for kind in ALL_KINDS + BLIND_KINDS] + [(kind, True) for kind in ALL_KINDS],
        ids=lambda v: v.value if hasattr(v, "value") else ("prefit" if v else "fit"),
    )
    def test_train_metrics_equal_evaluate_on_train(self, model, kind, prefit):
        # The report scores the solve's own scores; the returned rule applied
        # to the training rows must give the same numbers to the last bit.
        small = sample(model, 2_000, seed=31)
        prefit_model = fit_group_models(small, MODE_AWARE) if prefit else None
        classifier, _, report = run_fpir(small, make_config(kind, 0.05), model=prefit_model)
        assert 0.0 < max(classifier.tau_plus, classifier.tau_minus)
        assert report["train_metrics"] == evaluate(classifier, small)


def rate_disparity(kind, dataset, decisions):
    """Acceptance-rate gap of the measure's two cells, group 1 minus group 0."""
    rows = np.ones(len(dataset), dtype=bool)
    if kind is not DisparityKind.DD:
        rows = dataset.y == (1 if kind is DisparityKind.DO else 0)
    return decisions[rows & (dataset.a == 1)].mean() - decisions[rows & (dataset.a == 0)].mean()


class TestFpirExactSolve:
    """The sorted-breakpoint solve against the curve evaluated row by row."""

    @pytest.fixture(scope="class")
    def small(self, model):
        return sample(model, 300, seed=4242)

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("kind", ALL_KINDS + BLIND_KINDS, ids=lambda k: k.value)
    def test_smallest_feasible_t_lands_on_budget(self, small, kind, delta):
        cfg = make_config(kind, delta)
        classifier, t_hat, report = run_fpir(small, cfg)
        base = cfg.base_kind.value
        assert abs(report["disparity_at_t_hat"]) <= delta
        if t_hat != 0.0:  # the budget binds: the boundary rows land D on it
            assert abs(report["disparity_at_t_hat"]) == delta
        assert report["train_metrics"][base] == pytest.approx(
            report["disparity_at_t_hat"], abs=1e-12
        )
        assert json.loads(json.dumps(report)) == report
        # Every row's flip point, and the floats just past it either way.
        score, w = classifier.inputs(small.x, small.a)
        flips = (2.0 * score[w != 0] - 1.0) / w[w != 0]
        points = np.concatenate(
            [[0.0], flips, np.nextafter(flips, np.inf), np.nextafter(flips, -np.inf)]
        )
        assert t_hat == 0.0 or t_hat in flips
        curve = empirical_curve(small, cfg, "fpir")
        for t in points[np.abs(points) < abs(t_hat)]:
            deterministic = replace(classifier, t=float(t), tau_plus=0.0, tau_minus=0.0)
            decisions = deterministic.decide(small.x, small.a)
            assert abs(rate_disparity(cfg.base_kind, small, decisions)) > delta
            assert abs(curve(t)) > delta

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_aware_curves_are_exactly_nonincreasing(self, small, kind):
        # A row leaves the accepted set as t passes its flip point when its
        # score weight is positive, and joins it when negative; its label
        # weight then moves D down (or not at all) in both cases.
        classifier, _, _ = run_fpir(small, make_config(kind, 0.05))
        _, w = classifier.inputs(small.x, small.a)
        spec = bilinear_coeffs(kind, classifier.stats)
        label_w = np.array([spec.weight(float(y), int(a)) for y, a in zip(small.y, small.a)])
        assert np.all((label_w == 0.0) | (np.sign(label_w) == np.sign(w)))


class TestPipelineFamilies:
    def test_accuracies_agree_across_methods(self, model, train, test_set):
        accuracies = []
        for runner in (run_fuds, run_fcsc, run_fpir):
            cfg = make_config(DisparityKind.DD, 0.1)
            classifier, _, _ = runner(train, cfg)
            accuracies.append(evaluate(classifier, test_set)["accuracy"])
        assert max(accuracies) - min(accuracies) <= 0.01

    def test_monotone_audit_on_grid(self, train):
        n1 = int((train.a == 1).sum())
        n0 = len(train) - n1
        se = math.sqrt(0.25 / n1 + 0.25 / n0)
        for method in ("fuds", "fcsc", "fpir"):
            cfg = make_config(DisparityKind.DD, 0.0)
            curve = empirical_curve(train, cfg, method)
            grid = np.linspace(curve.t_lo + 1e-6, curve.t_hi - 1e-6, 10)
            values = [curve(t) for t in grid]
            for prev, nxt in zip(values, values[1:]):
                assert nxt <= prev + se

    def test_every_refit_reaches_a_stationary_point(self, train, monkeypatch):
        fits = []

        def recording_fit(data, mode, config=LEARNER):
            fitted = fit_group_models(data, mode, config)
            fits.append((data, fitted, config.l2))
            return fitted

        monkeypatch.setattr(fair_algorithms, "fit_group_models", recording_fit)
        for runner in (run_fuds, run_fcsc):
            for kind in ALL_KINDS:
                runner(train, FairFitConfig(kind=kind, delta=0.0))
        assert len(fits) > 60
        worst = 0.0
        for data, fitted, l2 in fits:
            for a in (0, 1):
                gb, gw = nll_gradient(data.subset(data.a == a), fitted.group_params(a), l2=l2)
                worst = max(worst, math.hypot(gb, *gw))
        assert worst <= 1e-8

    @pytest.mark.parametrize("method", ["fuds", "fcsc"])
    def test_curve_value_independent_of_call_order(self, train, method):
        cfg = make_config(DisparityKind.DD, 0.0)
        swept = empirical_curve(train, cfg, method)
        for t in np.linspace(swept.t_lo, swept.t_hi, 13)[1:-1]:
            assert swept(t) == empirical_curve(train, cfg, method)(t)

    def test_blind_runs_cut_disparity_of_unconstrained_fit(self, train, test_set):
        base = fit_logistic(train, LEARNER)

        def base_rule(x, a):
            return (predict_proba(base, x) > 0.5).astype(float)

        base_dd = abs(evaluate(base_rule, test_set)["dd"])
        assert base_dd > 0.3  # the features carry strong group signal
        for runner in (run_fuds, run_fcsc):
            cfg = make_config(BlindKind.DD_X, 0.0)
            model_out, _, report = runner(train, cfg)
            assert report["mode"] == "blind"
            fair_dd = abs(evaluate(model_out, test_set)["dd"])
            assert fair_dd <= 0.2 * base_dd

    def test_blind_label_tilts_run_end_to_end(self, train, test_set):
        for kind, metric in ((BlindKind.DO_X, "do"), (BlindKind.PD_X, "pd")):
            cfg = make_config(kind, 0.1)
            classifier, t_hat, report = run_fpir(train, cfg)
            gap = evaluate(classifier, test_set)[metric]
            assert abs(gap - 0.1) <= 0.05
            assert "thresholds" not in report

    def test_invalid_method_name(self, train):
        cfg = make_config(DisparityKind.DD, 0.1)
        with pytest.raises(DisparityError, match="method"):
            empirical_curve(train, cfg, "grid-search")


class TestFairClassifierRule:
    def test_aware_rule_needs_groups(self, model):
        prefit = exact_prob_model(model)
        stats = model.stats
        rule = FairClassifier(kind=DisparityKind.DD, t=0.1, stats=stats, eta_groups=prefit)
        x = sample(model, 50, seed=5).x
        with pytest.raises(DisparityError, match="group"):
            rule.decide(x)
        decisions = rule.decide(x, np.zeros(50, dtype=int))
        assert set(np.unique(decisions)).issubset({0.0, 1.0})

    def test_blind_rule_ignores_group_argument(self, train):
        cfg = make_config(BlindKind.DD_X, 0.2)
        classifier, _, _ = run_fpir(train, cfg)
        x = train.x[:200]
        with_groups = classifier.decide(x, train.a[:200])
        without = classifier.decide(x)
        assert np.array_equal(with_groups, without)


class TestEvaluate:
    def test_always_accept(self, test_set):
        metrics = evaluate(lambda x, a: np.ones(len(x)), test_set)
        assert metrics["dd"] == 0.0
        assert metrics["do"] == 0.0
        assert metrics["pd"] == 0.0
        assert metrics["accuracy"] == pytest.approx(np.mean(test_set.y), abs=1e-12)

    def test_group_indicator_has_unit_group_gap(self, test_set):
        metrics = evaluate(lambda x, a: (a == 1).astype(float), test_set)
        assert metrics["dd"] == 1.0
        assert metrics["do"] == 1.0
        assert metrics["pd"] == 1.0

    def test_hand_tabulated_fixture(self):
        a = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        y = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        f = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        dataset = LabeledDataset(x=np.zeros((8, 1)), a=a, y=y)
        metrics = evaluate(lambda x, a_: f, dataset)
        # group means 3/4 vs 0; label-1 cells 1 vs 0; label-0 cells 1/2 vs 0
        assert metrics["dd"] == pytest.approx(Fraction(3, 4), abs=1e-15)
        assert metrics["do"] == pytest.approx(1.0, abs=1e-15)
        assert metrics["pd"] == pytest.approx(Fraction(1, 2), abs=1e-15)
        # rows 1, 2, 7, 8 and row 6 score correctly
        assert metrics["accuracy"] == pytest.approx(Fraction(5, 8), abs=1e-15)

    def test_empty_cells_report_none(self):
        a = np.array([1, 1, 0, 0])
        y = np.array([1, 0, 0, 0])  # no (group 0, label 1) rows
        dataset = LabeledDataset(x=np.zeros((4, 1)), a=a, y=y)
        metrics = evaluate(lambda x, a_: np.ones(4), dataset)
        assert metrics["do"] is None
        assert metrics["dd"] == 0.0
        assert metrics["pd"] == 0.0
        single = LabeledDataset(x=np.zeros((2, 1)), a=np.array([1, 1]), y=np.array([0, 1]))
        metrics = evaluate(lambda x, a_: np.ones(2), single)
        assert metrics["dd"] is None
        assert metrics["do"] is None
        assert metrics["pd"] is None
        assert metrics["accuracy"] == 0.5

    def test_prob_model_dispatch(self, train, test_set):
        aware = fit_group_models(train, MODE_AWARE, LEARNER)
        blind = fit_logistic(train, LEARNER)
        m_aware = evaluate(aware, test_set)
        m_blind = evaluate(blind, test_set)
        assert 0.5 < m_aware["accuracy"] <= 1.0
        assert 0.5 < m_blind["accuracy"] <= 1.0
        assert m_aware["dd"] != m_blind["dd"]

    def test_bad_inputs(self, test_set):
        with pytest.raises(DisparityError, match="shape"):
            evaluate(lambda x, a: np.ones(3), test_set)
        with pytest.raises(DisparityError, match="lie in"):
            evaluate(lambda x, a: np.full(len(x), 2.0), test_set)
        with pytest.raises(DisparityError, match="classifier"):
            evaluate("not-a-classifier", test_set)
