"""Pipeline tests: resampling, cost reweighting, plug-in thresholding.

Layout:
- proportion/count unit tests with hand-computed expectations, and the
  resample's per-row draw multiplicities checked on a toy dataset whose
  feature is the row id;
- cost-table checks tying the reweighting construction to the threshold
  rule on finite support;
- end-to-end pipeline runs on the synthetic Gaussian model, compared
  against the closed-form oracle;
- evaluate() against a hand-tabulated fixture;
- fuds and fcsc refits against fresh fits on uncached datasets and on
  materialized resamples.
"""
from __future__ import annotations

import gc
import json
import math
import pickle
import warnings
import weakref
from dataclasses import fields, replace
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
from fairthresh.discrete import FiniteDistribution, brute_force_oracle
from fairthresh.estimators import (
    MODE_AWARE,
    FitError,
    LabeledDataset,
    LogisticConfig,
    LogisticParams,
    ProbModel,
    _WarmStart,
    fit_group_models,
    fit_logistic,
    nll_gradient,
    predict_proba,
)
from fairthresh.fair_algorithms import (
    FairClassifier,
    FairFitConfig,
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
    sample,
    theoretical_fair_classifier,
)
from fairthresh.solver import BracketError, DisparityCurve, solve_threshold

from conftest import empirical_curve, exact_prob_model

STATS = GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)
ALL_KINDS = (DisparityKind.DD, DisparityKind.DO, DisparityKind.PD)
BLIND_KINDS = (BlindKind.DD_X, BlindKind.DO_X, BlindKind.PD_X)
CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))

LEARNER = LogisticConfig()


def make_config(kind, delta, **kwargs):
    defaults = dict(seed=7)
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


def cell_mask(dataset, a, y):
    return (dataset.a == a) & (dataset.y == y)


def cell_stats(dataset):
    """Plug-in cell frequencies of a dataset's rows."""
    return GroupStats.from_counts(*(len(dataset.rows(*c)) for c in CELLS))


def cell_sources(dataset):
    return {c: np.flatnonzero(cell_mask(dataset, *c)) for c in CELLS}


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
        stats = cell_stats(dataset)
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


def drawn_rows(dataset, counts):
    """Row ids a resample draws, per cell, each repeated by its multiplicity."""
    return {
        c: np.repeat(np.flatnonzero(cell_mask(dataset, *c)), counts[cell_mask(dataset, *c)])
        for c in CELLS
    }


def reference_fuds_draw(dataset, targets, seed):
    """The resample drawn afresh per call, cell by cell from the seed's
    child streams: a prefix of a permutation up to the cell's size, and
    past it every row once plus a with-replacement draw of the rest."""
    drawn = []
    for child, cell in zip(np.random.SeedSequence(seed).spawn(len(CELLS)), CELLS):
        source = np.flatnonzero(cell_mask(dataset, *cell))
        rng = np.random.default_rng(child)
        if targets[cell] <= source.size:
            drawn.append(rng.permutation(source)[: targets[cell]])
        else:
            extra = rng.choice(source, size=targets[cell] - source.size)
            drawn.append(np.concatenate([source, extra]))
    return np.bincount(np.concatenate(drawn), minlength=len(dataset))


class TestFudsResample:
    """fuds_resample returns per-row draw multiplicities over the training rows."""

    @pytest.mark.parametrize("seed", [0, 3, 17, 906, 2**31 + 5])
    def test_draws_equal_the_per_call_reference(self, model, seed):
        # Targets below, at and above each cell's size.
        rng = np.random.default_rng(seed)
        for dataset in (toy_dataset()[0], sample(model, 2_000, seed=seed % 1000)):
            n = len(dataset)
            sizes = {c: int(cell_mask(dataset, *c).sum()) for c in CELLS}
            for _ in range(12):
                targets = {
                    c: int(rng.choice([rng.integers(0, sizes[c]), sizes[c], rng.integers(sizes[c], n)]))
                    for c in CELLS
                }
                want = reference_fuds_draw(dataset, targets, seed)
                got = fuds_resample(dataset, targets, seed)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_cold_draw_exact_counts(self):
        dataset, _ = toy_dataset()
        targets = {(1, 1): 5, (1, 0): 3, (0, 1): 7, (0, 0): 2}
        counts = fuds_resample(dataset, targets, seed=3)
        assert counts.shape == (len(dataset),)
        assert counts.sum() == sum(targets.values())
        for cell in CELLS:
            mask = cell_mask(dataset, *cell)
            assert counts[mask].sum() == targets[cell]
            assert counts[mask].max() <= 1  # within the cell's size: no repeats

    def test_cold_full_recovers_original_rows(self):
        # The full-count draw (the t = 0 resample) takes every row once.
        dataset, sizes = toy_dataset()
        counts = fuds_resample(dataset, sizes, seed=3)
        assert np.array_equal(counts, np.ones(len(dataset), dtype=int))

    def test_identity_when_targets_unchanged(self):
        dataset, sizes = toy_dataset()
        targets = {(1, 1): 6, (1, 0): 12, (0, 1): 2, (0, 0): 9}
        first = fuds_resample(dataset, targets, seed=3)
        fuds_resample(dataset, sizes, seed=3)
        fuds_resample(dataset, {c: 1 for c in CELLS}, seed=99)
        assert np.array_equal(fuds_resample(dataset, targets, seed=3), first)

    def test_grow_prefers_unseen_rows(self):
        dataset, sizes = toy_dataset()
        small = fuds_resample(dataset, {c: 3 for c in CELLS}, seed=4)
        large = fuds_resample(dataset, {c: sizes[c] - 1 for c in CELLS}, seed=4)
        # growing within the cell adds rows not drawn yet, keeping the old
        assert np.all(small <= large)
        assert large.max() == 1

    def test_grow_beyond_source_resamples(self):
        dataset, sizes = toy_dataset()
        targets = dict(sizes)
        targets[(0, 0)] = 20  # source holds only 9 rows
        counts = fuds_resample(dataset, targets, seed=3)
        drawn = drawn_rows(dataset, counts)[(0, 0)]
        assert len(drawn) == 20
        assert set(drawn) == set(cell_sources(dataset)[(0, 0)])  # all used before repeats
        assert np.all(counts[~cell_mask(dataset, 0, 0)] == 1)
        assert counts.sum() == sum(targets.values())

    def test_shrink_keeps_subset(self):
        dataset, sizes = toy_dataset()
        mask = cell_mask(dataset, 0, 1)
        targets = dict(sizes)
        targets[(0, 1)] = 4
        kept = fuds_resample(dataset, targets, seed=6)
        assert kept[mask].sum() == 4 and kept[mask].max() == 1
        targets[(0, 1)] = 8
        assert np.all(kept <= fuds_resample(dataset, targets, seed=6))

    def test_shrink_then_regrow_bounded_change(self):
        # Shrinking by five and regrowing by three loses exactly two rows
        # per cell against the full draw: the draw at a count does not
        # depend on the draws made before it.
        dataset, sizes = toy_dataset()
        full = fuds_resample(dataset, sizes, seed=3)
        fuds_resample(dataset, {c: sizes[c] - 5 for c in CELLS}, seed=3)
        regrown = fuds_resample(dataset, {c: sizes[c] - 2 for c in CELLS}, seed=3)
        assert np.all(regrown <= full)
        for cell in CELLS:
            mask = cell_mask(dataset, *cell)
            assert (full[mask] - regrown[mask]).sum() == 2

    def test_empty_source_with_positive_target(self):
        dataset, _ = toy_dataset()
        gutted = dataset.subset(np.flatnonzero(~cell_mask(dataset, 1, 0)))
        targets = {(1, 1): 2, (1, 0): 1, (0, 1): 2, (0, 0): 2}
        with pytest.raises(EstimationError, match="no source rows"):
            fuds_resample(gutted, targets, seed=3)
        targets[(1, 0)] = 0  # zero target tolerates the empty cell
        counts = fuds_resample(gutted, targets, seed=3)
        assert counts.shape == (len(gutted),)
        assert counts.sum() == 6

    def test_deterministic_per_seed(self):
        dataset, _ = toy_dataset()
        targets = {(1, 1): 6, (1, 0): 4, (0, 1): 5, (0, 0): 3}
        s1 = fuds_resample(dataset, targets, seed=11)
        s2 = fuds_resample(dataset, targets, seed=11)
        s3 = fuds_resample(dataset, targets, seed=12)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_negative_target_rejected(self):
        dataset, sizes = toy_dataset()
        targets = dict(sizes)
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
        dataset, sizes = toy_dataset()
        targets = {(1, 1): t11, (1, 0): t10, (0, 1): t01, (0, 0): t00}
        counts = fuds_resample(dataset, targets, seed=seed)
        assert counts.min() >= 0
        for cell in CELLS:
            drawn = counts[cell_mask(dataset, *cell)]
            assert drawn.sum() == targets[cell]
            # Every source row is drawn before any row is drawn twice.
            if targets[cell] <= sizes[cell]:
                assert drawn.max() <= 1
            else:
                assert drawn.min() >= 1

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
        large = fuds_resample(dataset, large_targets, seed=seed)
        fuds_resample(dataset, dict(zip(CELLS, before)), seed=seed)
        small = fuds_resample(dataset, small_targets, seed=seed)
        assert np.all(small <= large)


class TestCostTables:
    def test_blind_costs_half_at_zero(self):
        for kind in BLIND_KINDS:
            for a, y in CELLS:
                assert cost_weights(kind, STATS, a, y, 0.0) == 0.5

    def test_blind_frozen_values(self):
        # tilt t/p of the affected cells, halved into the cost scale
        t = 0.1
        assert cost_weights(BlindKind.DO_X, STATS, 1, 1, t) == pytest.approx(
            0.5 - t / (2 * 0.49), abs=1e-12
        )
        assert cost_weights(BlindKind.DO_X, STATS, 0, 1, t) == pytest.approx(
            0.5 + t / (2 * 0.12), abs=1e-12
        )
        assert cost_weights(BlindKind.DO_X, STATS, 1, 0, t) == 0.5
        assert cost_weights(BlindKind.DO_X, STATS, 0, 0, t) == 0.5
        assert cost_weights(BlindKind.DD_X, STATS, 1, 1, t) == pytest.approx(
            0.5 - t / (2 * 0.7), abs=1e-12
        )
        assert cost_weights(BlindKind.PD_X, STATS, 1, 0, t) == pytest.approx(
            0.5 + t / (2 * 0.21), abs=1e-12
        )

    def test_blind_costs_match_proportion_tilts(self):
        rng = np.random.default_rng(4241)
        for _ in range(20):
            stats = random_stats(rng)
            for kind in BLIND_KINDS:
                t = interior_t(stats, kind, rng.uniform(-0.95, 0.95))
                props = fuds_proportions(stats, kind, t)
                for a, y in CELLS:
                    cost = cost_weights(kind, stats, a, y, t)
                    tilt = 2.0 * cost - 1.0
                    tilted_mass = (1.0 + tilt) * stats.p(a, y)
                    total = math.fsum(
                        (2.0 * cost_weights(kind, stats, aa, yy, t)) * stats.p(aa, yy)
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
        assert cfg.base_kind is DisparityKind.DD

    def test_base_kind_of_blind(self):
        cfg = FairFitConfig(kind=BlindKind.DO_X, delta=0.1)
        assert cfg.base_kind is DisparityKind.DO
        assert cfg.mode == "blind"

    def test_rejections(self):
        with pytest.raises(DisparityError, match="delta"):
            FairFitConfig(kind=DisparityKind.DD, delta=-0.1)
        with pytest.raises(DisparityError, match="kind"):
            FairFitConfig(kind="dd", delta=0.1)

    def test_takes_no_tol(self):
        # fuds and fcsc bisect to solver.DEFAULT_TOL; no config sets another.
        assert [f.name for f in fields(FairFitConfig)] == ["kind", "delta", "seed"]
        with pytest.raises(TypeError, match="tol"):
            FairFitConfig(kind=DisparityKind.DD, delta=0.1, tol=1e-3)

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

    def test_names_why_it_misses_a_zero_budget(self, model):
        # The bracket stops where a resampled cell would empty, before the
        # resample's gap reaches 0.  fcsc's bracket reaches past the budget
        # (its step curve jumps over 0) and fpir lands on it.
        small = sample(model, 94, seed=1)
        cfg = FairFitConfig(kind=DisparityKind.PD, delta=0.0, seed=1)
        with pytest.raises(BracketError, match="unreachable inside bracket") as info:
            run_fuds(small, cfg)
        assert str(info.value).endswith(
            "the fuds bracket ends where a resampled (group, label) cell would empty, so here "
            "it cannot reach the budget (try --method fcsc or fpir)"
        )
        assert isinstance(info.value.__cause__, BracketError)
        assert run_fcsc(small, cfg)[2]["disparity_at_t_hat"] < 0.0
        assert run_fpir(small, cfg)[2]["disparity_at_t_hat"] == 0.0


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
            cfg = FairFitConfig(kind=DisparityKind.DD, delta=delta, seed=7)
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

    @staticmethod
    def separated_rows():
        """200 rows whose label separates them."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 200)
        y = rng.integers(0, 2, 200)
        x = 3.0 * y + 1.5 * a + rng.normal(size=200)
        return LabeledDataset(x=x[:, None], a=a, y=y)

    def test_blind_zero_budget_where_blind_refits_cannot_reach_it(self):
        # A blind refit cannot move its rule far enough on these rows (see
        # the next test); the blind plug-in rule reads the group posterior
        # and meets delta = 0.
        _, _, report = run_fpir(self.separated_rows(), make_config(BlindKind.PD_X, 0.0))
        assert abs(report["disparity_at_t_hat"]) <= 0.0

    @pytest.mark.parametrize(
        "runner, ending",
        [
            (run_fuds, "the fuds bracket ends where a resampled (group, label) cell would "
                       "empty, and a blind refit thresholds one logistic score at 1/2, so here "
                       "it cannot reach the budget (try --method fcsc or fpir)"),
            (run_fcsc, "a blind refit thresholds one logistic score at 1/2, so here it cannot "
                       "reach the budget (try --method fpir)"),
        ],
        ids=["fuds", "fcsc"],
    )
    def test_blind_refit_names_why_it_misses_the_budget(self, runner, ending):
        with pytest.raises(BracketError, match="unreachable inside bracket") as info:
            runner(self.separated_rows(), make_config(BlindKind.PD_X, 0.0))
        assert str(info.value).endswith(ending)
        assert isinstance(info.value.__cause__, BracketError)

    def test_prefit_model_rejects_data_of_another_feature_width(self, model):
        train_local = sample(model, 2_000, seed=11)
        prefit = fit_group_models(train_local, MODE_AWARE)
        one_column = LabeledDataset(x=train_local.x[:, :1], a=train_local.a, y=train_local.y)
        with pytest.raises(FitError, match="x has 1 features, the model was fitted on 2"):
            run_fpir(one_column, FairFitConfig(kind=DisparityKind.DD, delta=0.05), model=prefit)

    @pytest.mark.parametrize("kind", [DisparityKind.DD, BlindKind.DD_X], ids=lambda k: k.value)
    def test_rejects_a_model_that_is_not_group_aware(self, train, kind):
        with pytest.raises(DisparityError, match="needs a group-aware model, got mode 'blind_y'"):
            run_fpir(train, make_config(kind, 0.1), model=fit_logistic(train, LEARNER))

    @pytest.mark.parametrize("kind", BLIND_KINDS, ids=lambda k: k.value)
    def test_blind_run_on_the_prefit_model_is_its_own_fit(self, train, kind):
        # A blind rule reads the same group-aware fit as an aware one, so
        # passing that fit changes no byte of the run.
        cfg = make_config(kind, 0.05)
        prefit = fit_group_models(train, MODE_AWARE)
        assert pickle.dumps(run_fpir(train, cfg, model=prefit)) == pickle.dumps(run_fpir(train, cfg))

    def test_bracket_edge_flagged_when_budget_sits_at_bracket_end(self):
        def params(intercept, slope):
            return LogisticParams(
                intercept=intercept, coef=np.array([slope]), mean=np.zeros(1), scale=np.ones(1)
            )

        # Scores clip to 1 - 1e-12 (group 1) and 1e-12 (group 0), whose flip
        # points tie exactly at the greatest one, 0.499999999999; one group-1
        # row scores 0.9 and flips near 0.4.  D is 1, then 0.75, so the budget
        # 0.5 is met only at the last flip point.
        dataset = LabeledDataset(
            x=np.array([[-37.8], [0.0], [0.0], [0.0], [0.0], [0.0], [0.0], [0.0]]),
            a=np.array([1, 1, 1, 1, 0, 0, 0, 0]),
            y=np.array([1, 0, 1, 0, 1, 0, 1, 0]),
        )
        prefit = ProbModel(MODE_AWARE, {1: params(40.0, 1.0), 0: params(-40.0, 0.0)})
        cfg = FairFitConfig(kind=DisparityKind.DD, delta=0.5, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, t_hat, report = run_fpir(dataset, cfg, model=prefit)
        assert report["bracket"] == {"lo": 0.0, "hi": 0.499999999999, "clamped": False}
        assert t_hat == report["bracket"]["hi"] and report["at_bracket_edge"] is True
        curve = empirical_curve(dataset, cfg, "fpir", model=prefit)
        assert curve(0.3) == 1.0 and curve(np.nextafter(t_hat, 0.0)) == 0.75

    @pytest.mark.parametrize(
        "kind, prefit",
        [(kind, False) for kind in ALL_KINDS + BLIND_KINDS] + [(kind, True) for kind in ALL_KINDS],
        ids=lambda v: v.value if hasattr(v, "value") else ("prefit" if v else "fit"),
    )
    def test_train_metrics_equal_evaluate_on_train(self, model, kind, prefit):
        # The report scores the solve's own scores; the returned rule applied
        # to the training rows must give the same numbers to the last bit,
        # apart from the measured gap (see assert_fpir_train_metrics).
        small = sample(model, 2_000, seed=31)
        prefit_model = fit_group_models(small, MODE_AWARE) if prefit else None
        cfg = make_config(kind, 0.05)
        classifier, _, report = run_fpir(small, cfg, model=prefit_model)
        assert 0.0 < max(classifier.tau_plus, classifier.tau_minus)
        assert_fpir_train_metrics(report, evaluate(classifier, small), cfg.base_kind)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_train_gap_within_budget_on_the_sweep_grid(self, model, kind):
        # A float mean of the randomized decisions rounds past delta on 43 of
        # the 120 (kind, budget) pairs of this grid (0.007500000000000062 at
        # dd, delta = 0.0075); the reported gap is the solve's exact D, which
        # meets it.
        small = sample(model, 2_000, 1)
        prefit = fit_group_models(small, MODE_AWARE)
        for delta in [round(i * 0.0075, 6) for i in range(1, 41)]:
            _, _, report = run_fpir(small, make_config(kind, delta), model=prefit)
            gap = report["train_metrics"][kind.value]
            assert abs(gap) <= delta and gap == report["disparity_at_t_hat"], delta


def assert_fpir_train_metrics(report, measured, base_kind):
    """An fpir report's train metrics equal evaluate on the training rows,
    except the measured kind's gap: that is the solve's exact D rounded once,
    within rounding of the float mean of the same decisions."""
    got, want = dict(report["train_metrics"]), dict(measured)
    gap = got.pop(base_kind.value)
    assert gap == report["disparity_at_t_hat"]
    assert gap == pytest.approx(want.pop(base_kind.value), abs=1e-12)
    assert got == want


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
        s, b = bilinear_coeffs(kind, classifier.stats)
        label_w = np.array([s[int(a)] * float(y) + b[int(a)] for y, a in zip(small.y, small.a)])
        assert np.all((label_w == 0.0) | (np.sign(label_w) == np.sign(w)))


def test_fpir_dd_risk_is_the_exhaustive_optimum():
    # For DD the plug-in training problem is a finite distribution, one atom
    # (a_i, 1/n, eta_i) per row: the group masses are the row shares, so the
    # oracle's acceptance-rate gap is the training one.  A prefit model whose
    # feature takes five values puts ties on the boundary.
    rng = np.random.default_rng(14)
    for _ in range(230):
        n = int(rng.integers(4, 13))
        a, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
        a[:4], y[:4] = [1, 1, 0, 0], [1, 0, 1, 0]
        x = rng.integers(-2, 3, size=(n, 1)).astype(float)
        model = ProbModel(MODE_AWARE, {
            g: LogisticParams(float(rng.normal()), rng.normal(size=1), np.zeros(1), np.ones(1))
            for g in (0, 1)
        })
        data = LabeledDataset(x=x, a=a, y=y)
        eta = predict_proba(model, x, a)
        dist = FiniteDistribution([(g, 1.0 / n, e) for g, e in zip(a, eta)])
        for delta in (0.0, 0.05, 0.2):
            classifier, _, _ = run_fpir(data, FairFitConfig(DisparityKind.DD, delta), model=model)
            f = classifier.decide(x, a)
            risk = np.mean(eta * (1.0 - f) + (1.0 - eta) * f)
            oracle_risk, _ = brute_force_oracle(dist, DisparityKind.DD, delta)
            assert abs(risk - float(oracle_risk)) <= 1e-12


def small_random_datasets(count=25, seed=30):
    """Seeded datasets of 8-200 rows, every cell filled, whose two features
    carry random amounts of group and label signal."""
    rng = np.random.default_rng(seed)
    datasets = []
    for _ in range(count):
        n = int(rng.integers(8, 201))
        a, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
        a[:4], y[:4] = [1, 1, 0, 0], [1, 0, 1, 0]
        shift_y, shift_a = rng.normal(scale=2.0, size=(2, 2))
        x = rng.normal(size=(n, 2)) + shift_y * y[:, None] + shift_a * a[:, None]
        datasets.append(LabeledDataset(x=x, a=a, y=y))
    return datasets


def test_fpir_report_follows_its_own_solve():
    # t_hat lies in the range the exact solve searched, and the budget holds.
    for dataset in small_random_datasets():
        for kind in ALL_KINDS + BLIND_KINDS:
            for delta in (0.0, 0.01, 0.1):
                _, t_hat, report = run_fpir(dataset, FairFitConfig(kind, delta))
                assert report["bracket"]["lo"] <= t_hat <= report["bracket"]["hi"]
                assert abs(report["disparity_at_t_hat"]) <= delta


def test_refit_report_follows_its_own_solve():
    # The report of a fuds/fcsc run is that of the fit its bisection
    # returned: t_hat's trace entry, cell counts and cost table, and the
    # train gap of the returned model.  A blind run raises nothing but
    # BracketError.
    model = default_model()
    for seed, n in enumerate(range(60, 401, 40)):
        dataset = sample(model, n, seed=seed)
        stats = cell_stats(dataset)
        for method, runner in (("fuds", run_fuds), ("fcsc", run_fcsc)):
            for kind in ALL_KINDS + BLIND_KINDS:
                for delta in (0.0, 0.01, 0.1):
                    config = make_config(kind, delta, seed=seed)
                    try:
                        _, t_hat, report = runner(dataset, config)
                    except BracketError:
                        assert isinstance(kind, BlindKind)
                        continue
                    bracket, trace = report["bracket"], report["trace"]
                    assert bracket["lo"] <= t_hat <= bracket["hi"]
                    assert bracket["clamped"] is (method == "fuds")
                    assert len(trace) == report["evaluations"]
                    [entry] = [e for e in trace if e["t"] == t_hat]
                    disparity = report["train_metrics"][config.base_kind.value]
                    assert entry["disparity"] == report["disparity_at_t_hat"] == disparity
                    if method == "fuds":
                        assert entry["cell_counts"] == report["cell_counts"]
                    else:
                        costs = {f"{a}{y}": cost_weights(kind, stats, a, y, t_hat) for a, y in CELLS}
                        assert report["cost_table"] == costs


class TestFpirSlot:
    """run_fpir keeps the training rows' flip points and sorted sums in the
    dataset's one-entry plug-in slot, keyed on the rule's models, kind and
    stats; every answer equals a fresh solve."""

    @staticmethod
    def fresh_copy(dataset):
        """An equal dataset object, with an empty slot."""
        return LabeledDataset(dataset.x, dataset.a, dataset.y)

    def test_interleaved_keys_answer_as_fresh_solves(self, model):
        small = sample(model, 2_000, seed=8)
        prefits = [fit_group_models(small, MODE_AWARE, c) for c in (LEARNER, LogisticConfig(l2=1.0))]
        points = [-0.3, -0.01, 0.0, 0.01, 0.3]
        dd, do, pd = ALL_KINDS
        # Each step changes either the kind or the model, never both.
        keys = [(dd, 0), (do, 0), (do, 1), (pd, 1), (dd, 1), (dd, 0)]
        calls, curves, slots = [], [], []
        for kind, m in keys:
            prefit = prefits[m]
            for delta in (0.0, 0.02, 0.1):
                cfg = make_config(kind, delta)
                calls.append((cfg, prefit, run_fpir(small, cfg, model=prefit)))
                assert len(small._plug_in) == 1
                slots.append(small._plug_in[0])
            curve = empirical_curve(small, cfg, "fpir", model=prefit)
            curves.append((cfg, prefit, [curve(t) for t in points]))
            assert small._plug_in[0] is slots[-1] and len(small._plug_in) == 1
        # A slot is built on the first budget of each key and read by the rest.
        assert [slots[i] is slots[i - 1] for i in range(1, len(slots))] == [
            i % 3 != 0 for i in range(1, len(slots))
        ]
        # Replaced entries are freed; the dataset keeps only the last one.
        refs = [weakref.ref(entry) for entry in slots]
        del slots, curve
        gc.collect()
        assert [ref() is not None for ref in refs] == [i >= len(refs) - 3 for i in range(len(refs))]
        entry = small._plug_in[0]
        steps = entry.steps
        for array in (
            entry.flips, entry.positive, entry.inert, entry.kept,
            steps.ratios, steps.plus, steps.minus, steps.zero, steps.least,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = array[1:2]
        for cfg, prefit, got in calls:
            want = run_fpir(self.fresh_copy(small), cfg, model=prefit)
            assert pickle.dumps(got) == pickle.dumps(want)
        for cfg, prefit, values in curves:
            curve = empirical_curve(self.fresh_copy(small), cfg, "fpir", model=prefit)
            assert values == [curve(t) for t in points]

    def test_slot_follows_its_key_and_dies_with_its_dataset(self, model):
        small = sample(model, 1_000, seed=9)
        prefit = fit_group_models(small, MODE_AWARE)
        cfg = make_config(DisparityKind.DO, 0.05)
        want = pickle.dumps(run_fpir(small, cfg, model=prefit))
        [entry] = small._plug_in
        assert entry.rule.eta_groups is prefit and entry.rule.kind is cfg.kind
        # Calls without a prefit model, and blind calls, fit models of their
        # own, which no entry holds, so each replaces the entry.
        run_fpir(small, cfg)
        [own] = small._plug_in
        assert own is not entry and own.rule.eta_groups is not prefit
        run_fpir(small, make_config(BlindKind.DO_X, 0.05))
        [blind] = small._plug_in
        assert blind is not own and blind.rule.kind is BlindKind.DO_X
        del own, blind
        # The next prefit call fills the slot again and answers as a fresh copy.
        got = pickle.dumps(run_fpir(small, cfg, model=prefit))
        assert got == pickle.dumps(run_fpir(self.fresh_copy(small), cfg, model=prefit)) == want
        [entry] = small._plug_in
        assert entry.rule.eta_groups is prefit
        # A blind rule's group posterior reads the weights, so a reweighted
        # copy starts with a slot of its own and leaves the original's alone.
        copy = small.with_weights(np.ones(len(small)))
        assert copy._plug_in == [] and copy._plug_in is not small._plug_in
        assert pickle.dumps(run_fpir(copy, cfg, model=prefit)) == want
        assert small._plug_in[0] is entry and copy._plug_in[0] is not entry
        # A subset is another row set: its slot starts empty.
        assert small.subset(np.arange(500))._plug_in == []
        ref = weakref.ref(entry)
        del entry, small, copy
        gc.collect()
        assert ref() is None

    def test_a_blind_run_on_a_reweighted_copy_fits_its_own_posterior(self, model):
        # The sweep's reuse of a blind rule must not carry a posterior fitted
        # on other weights into a reweighted copy of the same rows.
        small = sample(model, 1_000, seed=10)
        prefit = fit_group_models(small, MODE_AWARE)
        cfg = make_config(BlindKind.DD_X, 0.05)
        run_fpir(small, cfg, model=prefit)
        weight = np.random.default_rng(3).uniform(0.2, 2.0, len(small))
        got = run_fpir(small.with_weights(weight), cfg, model=prefit)
        fresh = LabeledDataset(small.x, small.a, small.y, weight)
        assert pickle.dumps(got) == pickle.dumps(run_fpir(fresh, cfg, model=prefit))


class TestPlugInSlot:
    """evaluate reads a FairClassifier's test-row inputs from the test set's
    plug-in slot; a budget sweep predicts each row set once."""

    def test_a_budget_sweep_predicts_each_row_set_once(self, model, monkeypatch):
        small = sample(model, 2_000, seed=41)
        held_out = sample(model, 1_000, seed=42)
        prefit = fit_group_models(small, MODE_AWARE)
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return predict_proba(*args, **kwargs)

        monkeypatch.setattr(fair_algorithms, "predict_proba", counting)
        for delta in np.linspace(0.0, 0.2, 40):
            classifier, _, _ = run_fpir(small, make_config(DisparityKind.DO, delta), model=prefit)
            evaluate(classifier, held_out)
        assert calls == [len(small), len(held_out)]

    @pytest.mark.parametrize("kind", [DisparityKind.DO, BlindKind.DO_X], ids=lambda k: k.value)
    def test_a_model_less_run_leaves_the_train_inputs_in_the_slot(self, model, monkeypatch, kind):
        small = sample(model, 2_000, seed=48)
        cfg = make_config(kind, 0.05)
        classifier, _, report = run_fpir(small, cfg)
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return predict_proba(*args, **kwargs)

        monkeypatch.setattr(fair_algorithms, "predict_proba", counting)
        assert_fpir_train_metrics(report, evaluate(classifier, small), cfg.base_kind)
        assert calls == []

    def test_interleaved_rules_answer_as_fresh_calls(self, model):
        small = sample(model, 2_000, seed=43)
        tests = [sample(model, 800, seed=44), sample(model, 600, seed=45)]
        prefits = [fit_group_models(small, MODE_AWARE, c) for c in (LEARNER, LogisticConfig(l2=1.0))]
        dd, do, pd = ALL_KINDS
        # Each aware step changes either the kind or the model, but for one.
        rules = [(dd, 0), (do, 0), (do, 1), (pd, 1), (pd, 0), (dd, 1), (BlindKind.DD_X, None)]

        def answer(train, test, kind, m, delta):
            cfg = make_config(kind, delta)
            prefit = None if m is None else prefits[m]
            classifier, t_hat, report = run_fpir(train, cfg, model=prefit)
            return pickle.dumps((t_hat, report, evaluate(classifier, test)))

        # Each test set sees the rules in turn; the train set sees them too.
        steps = [
            (rule, index, delta)
            for delta in (0.0, 0.03)
            for r, rule in enumerate(rules)
            for index in ((0, 1) if r % 2 else (1, 0))
        ]
        warm = [answer(small, tests[i], *rule, delta) for rule, i, delta in steps]
        assert all(len(d._plug_in) == 1 for d in [small, *tests])
        for (rule, i, delta), got in zip(steps, warm):
            fresh = [TestFpirSlot.fresh_copy(d) for d in (small, tests[i])]
            assert answer(*fresh, *rule, delta) == got

    def test_a_rule_with_other_stats_misses_the_slot(self, model):
        small = sample(model, 2_000, seed=46)
        held_out = sample(model, 1_000, seed=47)
        prefit = fit_group_models(small, MODE_AWARE)
        classifier, _, _ = run_fpir(small, make_config(DisparityKind.PD, 0.02), model=prefit)
        evaluate(classifier, held_out)
        assert held_out._plug_in[0].rule is classifier
        other = replace(classifier, stats=STATS)
        got = evaluate(other, held_out)
        assert held_out._plug_in[0].rule is other
        assert got == evaluate(other, TestFpirSlot.fresh_copy(held_out))
        assert got != evaluate(classifier, held_out)
        np.testing.assert_array_equal(
            fair_algorithms._decision_values(other, held_out), other.decide(held_out.x, held_out.a)
        )


class TestRowCache:
    """Answers do not depend on whether a dataset's row indices were built."""

    def test_warm_datasets_answer_as_fresh_copies(self, model):
        small = sample(model, 2_000, seed=12)
        held_out = sample(model, 1_000, seed=13)
        prefit = fit_group_models(small, MODE_AWARE)

        def calls():
            for kind in ALL_KINDS + (BlindKind.DO_X,):
                for delta in (0.0, 0.05):
                    cfg = make_config(kind, delta)
                    yield run_fcsc, cfg, None
                    yield run_fuds, cfg, None
                    yield run_fpir, cfg, None
                    if kind in ALL_KINDS:
                        yield run_fpir, cfg, prefit

        def answer(run, cfg, prefit, train, test):
            classifier, t_hat, report = run(train, cfg) if prefit is None else run(
                train, cfg, model=prefit
            )
            return pickle.dumps((t_hat, report, evaluate(classifier, test)))

        warm = [answer(*call, small, held_out) for call in calls()]
        assert small._rows and held_out._rows
        for call, got in zip(calls(), warm):
            train, test = (LabeledDataset(d.x, d.a, d.y) for d in (small, held_out))
            assert train._rows == {} and test._rows == {}
            assert answer(*call, train, test) == got


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

        def recording_fit(data, mode, config=LEARNER, **kwargs):
            fitted = fit_group_models(data, mode, config, **kwargs)
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

    @pytest.mark.parametrize("kind", [DisparityKind.DD, BlindKind.PD_X], ids=lambda k: k.value)
    def test_fuds_fits_once_per_count_vector(self, train, monkeypatch, kind):
        fits = []

        def recording(fit):
            def wrapped(data, *args, **kwargs):
                fits.append(data)
                return fit(data, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(fair_algorithms, "fit_group_models", recording(fit_group_models))
        monkeypatch.setattr(fair_algorithms, "fit_logistic", recording(fit_logistic))
        _, _, report = run_fuds(train, FairFitConfig(kind=kind, delta=0.0))
        counts = [tuple(entry["cell_counts"].values()) for entry in report["trace"]]
        assert len(set(counts)) < len(counts)  # the solve revisits a count vector
        assert len(fits) == len(set(counts))

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


def materialized_fuds(train, cfg):
    """The resampling pipeline with every resample copied into a dataset of
    its own, as np.repeat of the drawn rows: the reference for run_fuds."""
    stats = cell_stats(train)
    fits = {}

    def disparity(t):
        targets = fuds_cell_counts(len(train), fuds_proportions(stats, cfg.kind, t))
        rows = np.repeat(np.arange(len(train)), fuds_resample(train, targets, cfg.seed))
        data = train.subset(rows)
        fits[t] = fit_logistic(data) if cfg.mode == "blind" else fit_group_models(data, MODE_AWARE)
        return evaluate(fits[t], train)[cfg.base_kind.value]

    bracket = empirical_curve(train, cfg, "fuds")
    curve = DisparityCurve(fn=disparity, t_lo=bracket.t_lo, t_hi=bracket.t_hi)
    result = solve_threshold(curve, cfg.delta)
    return fits[result.t_star], result.t_star


def fitted_params(model):
    groups = [model.single_params()] if model.mode != MODE_AWARE else list(model.params.values())
    return [(p.intercept, p.coef.tolist(), p.mean.tolist(), p.scale.tolist()) for p in groups]


@pytest.mark.parametrize("delta", [0.0, 0.05])
@pytest.mark.parametrize("kind", ALL_KINDS + BLIND_KINDS, ids=lambda k: k.value)
class TestRefitDifferential:
    """fuds and fcsc refit the cached training frame with reweighted rows;
    a fresh dataset built from the same rows and weights gives the same run."""

    def test_fcsc_fit_equals_a_fresh_fit(self, train, test_set, kind, delta):
        model_out, t_hat, report = run_fcsc(train, make_config(kind, delta))
        costs = {(a, y): report["cost_table"][f"{a}{y}"] for a, y in CELLS}
        cost = np.empty(len(train))
        for cell, c in costs.items():
            cost[cell_mask(train, *cell)] = c
        fresh = LabeledDataset(x=train.x, a=train.a, y=train.y, weight=train.weight * cost)
        blind = isinstance(kind, BlindKind)

        def fit(data, start=None):
            if blind:
                return fit_logistic(data, start=start)
            return fit_group_models(data, MODE_AWARE, start=start)

        # Against a fit from zero: the same decisions on test and training rows.
        reference = fit(fresh)
        assert evaluate(model_out, test_set) == evaluate(reference, test_set)
        assert np.array_equal(
            predict_proba(model_out, train.x, train.a) > 0.5,
            predict_proba(reference, train.x, train.a) > 0.5,
        )
        # Against a fit from the same start, the t = 0 fit's Newton step
        # (every cost is 1/2 at t = 0, where the t = 0 fit is returned as is):
        # the same parameters.
        base = LabeledDataset(x=train.x, a=train.a, y=train.y, weight=train.weight)
        origin = fit(base.with_weights(base.weight * 0.5))
        same_start = origin if t_hat == 0.0 else fit(fresh, _WarmStart(base, origin).start(costs))
        assert fitted_params(model_out) == fitted_params(same_start)

    def test_fuds_matches_a_materialized_resample(self, train, test_set, kind, delta):
        cfg = make_config(kind, delta)
        model_out, t_hat, _ = run_fuds(train, cfg)
        reference, reference_t = materialized_fuds(train, cfg)
        assert t_hat == reference_t
        assert evaluate(model_out, test_set) == evaluate(reference, test_set)


def thetas(model):
    """The (intercept, coef) vector of each of a model's parameter sets."""
    if model.mode != MODE_AWARE:
        return [model.single_params().theta()]
    return [model.group_params(g).theta() for g in (0, 1)]


@pytest.fixture(scope="module")
def sample11(model):
    return sample(model, 10_000, seed=11)


@pytest.mark.parametrize("t", [-0.1, 0.05, 0.1, 0.15])
@pytest.mark.parametrize("kind", ALL_KINDS + BLIND_KINDS, ids=lambda k: k.value)
def test_fuds_is_fcsc_plus_a_draw(sample11, kind, t):
    # Weighting each row by its cell's expected fuds multiplier, n * p_ay(t)
    # over the cell's size, in place of its draw multiplicity, gives fcsc's
    # fit at t: the two differ only in a constant per group (aware) or
    # overall (blind), which the weight-mean objective cancels.
    cfg = make_config(kind, 0.1)
    fuds = fair_algorithms._build_curve(sample11, cfg, "fuds")
    assert fuds.t_lo < t < fuds.t_hi
    n = len(sample11)
    multiplier = np.empty(n)
    for cell, p in fuds_proportions(cell_stats(sample11), kind, t).items():
        rows = sample11.rows(*cell)
        multiplier[rows] = n * p / len(rows)
    data = sample11.with_weights(sample11.weight * multiplier)
    blind = isinstance(kind, BlindKind)
    expected = fit_logistic(data) if blind else fit_group_models(data, MODE_AWARE)
    fcsc = fair_algorithms._build_curve(sample11, cfg, "fcsc")
    d = fcsc(t)
    fitted, _ = fcsc.fn.at(t)
    for a, b in zip(thetas(expected), thetas(fitted), strict=True):
        assert np.abs(a - b).max() <= 1e-8
    base = cfg.base_kind.value
    assert evaluate(expected, sample11)[base] == evaluate(fitted, sample11)[base] == d


def nested_where_decisions(score, w, t, tau_plus, tau_minus):
    """The plug-in decision rule written as one nested np.where, as a reference."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (2.0 * score - 1.0) / w
    f = np.where(w > 0, np.where(r == t, tau_plus, r > t), np.where(r == t, tau_minus, r < t))
    return np.where(w == 0, score > 0.5, f).astype(float)


def plug_in_decisions(score, w, t, tau_plus, tau_minus):
    """The decision kernel on inputs built from score and w, as decide builds them."""
    return fair_algorithms._decide(fair_algorithms._RuleInputs.build(score, w), t, tau_plus, tau_minus)


class TestFairClassifierRule:
    @pytest.mark.parametrize("seed", range(4))
    def test_decisions_are_byte_equal_to_the_nested_where(self, seed):
        rng = np.random.default_rng(seed)
        n = 4_000
        score = rng.uniform(size=n)
        w = rng.normal(size=n)
        w[rng.choice(n, 200, replace=False)] = 0.0
        w[rng.choice(n, 200, replace=False)] = -0.0
        score[rng.choice(n, 50, replace=False)] = 0.5
        t = float(rng.uniform(-0.5, 0.5))
        # Scores whose flip point lands exactly on t, on both weight signs.
        tied = (1.0 + t * w) / 2.0
        exact = (w != 0) & ((2.0 * tied - 1.0) / np.where(w != 0, w, 1.0) == t)
        pick = exact & (rng.uniform(size=n) < 0.3)
        score[pick] = tied[pick]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (2.0 * score - 1.0) / w
        assert np.any((r == t) & (w > 0)) and np.any((r == t) & (w < 0))
        assert np.any(np.signbit(w) & (w == 0)) and np.any(~np.signbit(w) & (w == 0))
        for tau_plus, tau_minus in ((0.3, 0.7), (1.0 / 3.0, 0.125), (0.0, 0.0)):
            got = plug_in_decisions(score, w, t, tau_plus, tau_minus)
            want = nested_where_decisions(score, w, t, tau_plus, tau_minus)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rows_with_zero_weight_win_over_ties_at_zero(self):
        # Flip points are stored as 0 where w == 0, so at t = 0 those rows tie;
        # the w == 0 rule must still decide them.
        rng = np.random.default_rng(11)
        score = rng.uniform(size=1_000)
        w = rng.normal(size=1_000)
        w[:100], w[100:200] = 0.0, -0.0
        score[::25] = 0.5
        got = plug_in_decisions(score, w, 0.0, 0.3, 0.7)
        want = nested_where_decisions(score, w, 0.0, 0.3, 0.7)
        assert got.tobytes() == want.tobytes()

    def test_aware_rule_needs_groups(self, model):
        prefit = exact_prob_model(model)
        stats = model.stats
        rule = FairClassifier(kind=DisparityKind.DD, t=0.1, stats=stats, eta_groups=prefit)
        x = sample(model, 50, seed=5).x
        with pytest.raises(DisparityError, match="group"):
            rule.decide(x)
        decisions = rule.decide(x, np.zeros(50, dtype=int))
        assert set(np.unique(decisions)).issubset({0.0, 1.0})

    @pytest.mark.parametrize("group", [1.5, -0.5])
    def test_aware_rule_rejects_fractional_group_ids(self, train, group):
        prefit = fit_group_models(train, MODE_AWARE)
        rule = FairClassifier(kind=DisparityKind.DD, t=0.1, stats=STATS, eta_groups=prefit)
        with pytest.raises(FitError, match=f"no parameters fitted for group {group:g}$"):
            rule.decide(train.x[:3], [0.0, group, 1.0])

    @pytest.mark.parametrize(
        "groups, shape", [([0, 1], r"\(2,\)"), ([[0], [1], [0]], r"\(3, 1\)")]
    )
    def test_aware_rule_rejects_a_group_vector_not_one_id_per_row(self, train, groups, shape):
        prefit = fit_group_models(train, MODE_AWARE)
        rule = FairClassifier(kind=DisparityKind.DD, t=0.1, stats=STATS, eta_groups=prefit)
        with pytest.raises(FitError, match=f"one id per row: got shape {shape} for 3 rows"):
            rule.decide(train.x[:3], np.array(groups))

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

    def test_gaps_equal_a_boolean_mask_reference(self, train, test_set):
        # Fractional decisions: the boundary rows of an fpir rule on its own
        # training rows, and a callable's values in [0, 1].  The last set has
        # no (group 0, label 1) row.
        rule, _, _ = run_fpir(train, make_config(DisparityKind.DO, 0.05))
        boundary = rule.decide(train.x, train.a)
        assert np.any((boundary > 0.0) & (boundary < 1.0))
        uniform = np.random.default_rng(3).uniform(size=len(test_set))
        no_01 = LabeledDataset(
            x=np.zeros((5, 1)), a=np.array([1, 1, 0, 1, 0]), y=np.array([1, 0, 0, 1, 0])
        )
        cases = [(train, boundary), (test_set, uniform), (no_01, np.array([0.3, 1, 0.7, 0, 0.2]))]
        for data, f in cases:
            metrics = evaluate(lambda x, a, f=f: f, data)
            for kind in ALL_KINDS:
                rows = True if kind is DisparityKind.DD else data.y == (kind is DisparityKind.DO)
                mask_1, mask_0 = rows & (data.a == 1), rows & (data.a == 0)
                if mask_1.any() and mask_0.any():
                    assert metrics[kind.value] == np.mean(f[mask_1]) - np.mean(f[mask_0])
                else:
                    assert metrics[kind.value] is None
        assert metrics["do"] is None and metrics["dd"] is not None

    @staticmethod
    def contract_datasets():
        """Eight seeded datasets of 5 to 2,000 rows: the first has no (group 0,
        label 1) row, the second no group-0 row."""
        rng = np.random.default_rng(34)
        sets = [
            (np.array([1, 1, 0, 1, 0]), np.array([1, 0, 0, 1, 0])),
            (np.ones(9, dtype=int), rng.integers(0, 2, 9)),
        ]
        for n in (12, 37, 150, 611, 1_333, 2_000):
            a = rng.integers(0, 2, n)
            sets.append((a, (rng.uniform(size=n) < 0.3 + 0.4 * rng.uniform()).astype(int)))
        return [LabeledDataset(x=np.zeros((len(a), 1)), a=a, y=y) for a, y in sets]

    @staticmethod
    def mask_gaps(data, f):
        """Each measure's masked-mean gap, None where a compared cell is empty."""
        gaps = {}
        for kind in ALL_KINDS:
            rows = True if kind is DisparityKind.DD else data.y == (kind is DisparityKind.DO)
            mask_1, mask_0 = rows & (data.a == 1), rows & (data.a == 0)
            both = mask_1.any() and mask_0.any()
            gaps[kind.value] = np.mean(f[mask_1]) - np.mean(f[mask_0]) if both else None
        return gaps

    def test_metrics_equal_a_mask_reference(self):
        rng = np.random.default_rng(35)
        datasets = self.contract_datasets()
        for data in datasets:
            n = len(data)
            crisp = (rng.uniform(size=n) < rng.uniform()).astype(float)
            metrics = evaluate(lambda x, a, f=crisp: f, data)
            assert metrics == {"accuracy": np.mean(crisp == data.y), **self.mask_gaps(data, crisp)}
            fractional = rng.uniform(size=n)
            fractional[rng.uniform(size=n) < 0.2] = rng.integers(0, 2)
            metrics = evaluate(lambda x, a, f=fractional: f, data)
            accuracy = metrics.pop("accuracy")
            assert metrics == self.mask_gaps(data, fractional)
            exact = sum(Fraction(v) if y else 1 - Fraction(v) for v, y in zip(fractional, data.y))
            assert abs(Fraction(accuracy) - exact / n) <= 1e-15
        assert datasets[0].rows(0, 1).size == 0 and datasets[1].rows(0).size == 0

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
