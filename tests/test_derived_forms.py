"""Differential tests: formulas derived from the bilinear weight against the
per-measure formulas they replaced.

Blind costs, fuds proportions, blind plug-in weights, the closed-form
disparity curve and the equalized-odds group threshold are each written
once over w(y, a) = s_a*y + b_a from core's coefficient table, which the
exact solver also reads in Fractions.  The references below are the
earlier hand-written versions, one branch per measure, kept here as
independent derivations: the derived forms must agree with them to within
1e-15 in the scale of the quantity (its magnitude, or the largest inverse
cell probability for the plug-in weights), and the coefficient tables and
aware fuds proportions must agree exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairthresh.core import (
    BlindKind,
    DisparityKind,
    GroupStats,
    _coeff_table,
    bilinear_coeffs,
    cost_weights,
    natural_domain,
    threshold,
)
from fairthresh.estimators import MODE_AWARE, MODE_BLIND_A, LogisticParams, ProbModel, predict_proba
from fairthresh.extensions import eqodds_group_threshold
from fairthresh.fair_algorithms import _blind_weight_values, fuds_proportions
from fairthresh.gaussian import disparity_curve_closed, model_from_seed

AWARE_KINDS = tuple(DisparityKind)
BLIND_KINDS = tuple(BlindKind)
CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))
TOL = 1e-15

stats_strategy = st.lists(st.floats(0.02, 1.0), min_size=4, max_size=4).map(
    lambda cells: GroupStats(*(c / math.fsum(cells) for c in cells))
)


def interior_t(stats, kind, u):
    """Map u in (-1, 1) to a point strictly inside the natural bracket."""
    lo, hi = natural_domain(kind, stats)
    return u * hi if u >= 0 else -u * lo


# --- references: the per-measure formulas the derived forms replaced -------


def reference_blind_tilt(kind, stats, a, y, t):
    """Relative mass change of cell (a, y) under the blind tilt at t."""
    sign = 2 * a - 1
    if kind is BlindKind.DD_X:
        return sign * (1 - 2 * y) * t / stats.p_group(a)
    if kind is BlindKind.DO_X:
        return -sign * y * t / stats.p(a, y)
    if kind is BlindKind.PD_X:
        return sign * (1 - y) * t / stats.p(a, y)
    raise AssertionError(kind)


def reference_blind_cost(kind, stats, a, y, t):
    return 0.5 + 0.5 * reference_blind_tilt(kind, stats, a, y, t)


def reference_proportions(stats, kind, t):
    """Blind: tilt every cell and renormalize globally.  Aware: split each
    group's mass by its acceptance threshold and renormalize within it."""
    if isinstance(kind, BlindKind):
        raw = {(a, y): (1.0 + reference_blind_tilt(kind, stats, a, y, t)) * stats.p(a, y)
               for a, y in CELLS}
        total = math.fsum(raw.values())
        return {cell: raw[cell] / total for cell in CELLS}
    out = {}
    for a in (1, 0):
        h = threshold(kind, stats, a, t)
        keep1 = (1.0 - h) * stats.p(a, 1)
        keep0 = h * stats.p(a, 0)
        scale = stats.p_group(a) / (keep1 + keep0)
        out[(a, 1)] = keep1 * scale
        out[(a, 0)] = keep0 * scale
    return out


def reference_blind_weights(kind, stats, ga, e1, e0):
    """Feature-level weights from P(A=1|x) and the two group regressions."""
    if kind is BlindKind.DD_X:
        return ga / stats.p_group(1) - (1.0 - ga) / stats.p_group(0)
    if kind is BlindKind.DO_X:
        return e1 * ga / stats.p(1, 1) - e0 * (1.0 - ga) / stats.p(0, 1)
    if kind is BlindKind.PD_X:
        return (1.0 - e1) * ga / stats.p(1, 0) - (1.0 - e0) * (1.0 - ga) / stats.p(0, 0)
    raise AssertionError(kind)


def reference_closed_disparity(model, kind, t):
    """DD compares group acceptance rates, DO the y=1 cells, PD the y=0 cells."""
    stats = model.stats
    thr1 = threshold(kind, stats, 1, t)
    thr0 = threshold(kind, stats, 0, t)
    if kind is DisparityKind.DD:
        rate1 = sum(stats.p(1, y) / stats.p_group(1) * model.survival(1, y, thr1) for y in (0, 1))
        rate0 = sum(stats.p(0, y) / stats.p_group(0) * model.survival(0, y, thr0) for y in (0, 1))
        return rate1 - rate0
    y = 1 if kind is DisparityKind.DO else 0
    return model.survival(1, y, thr1) - model.survival(0, y, thr0)


def reference_exact_coeffs(kind, p11, p10, p01, p00):
    """((s_0, s_1), (b_0, b_1)) per measure, over exact rational cells."""
    zero = Fraction(0)
    if kind is DisparityKind.DD:
        b1, b0 = 1 / (p11 + p10), -1 / (p01 + p00)
        return (zero, zero), (b0, b1)
    if kind is DisparityKind.DO:
        return (-1 / p01, 1 / p11), (zero, zero)
    return (1 / p00, -1 / p10), (-1 / p00, 1 / p10)


def reference_float_coeffs(kind, stats):
    """The float coefficients as first written, from the group and cell masses."""
    if kind is DisparityKind.DD:
        return (0.0, 0.0), (-1.0 / stats.p_group(0), 1.0 / stats.p_group(1))
    if kind is DisparityKind.DO:
        return (-1.0 / stats.p(0, 1), 1.0 / stats.p(1, 1)), (0.0, 0.0)
    return (1.0 / stats.p(0, 0), -1.0 / stats.p(1, 0)), (-1.0 / stats.p(0, 0), 1.0 / stats.p(1, 0))


def reference_eqodds_threshold(stats, a, t1, t2):
    """T_a = (p_a1*p_a0 + (2a-1)*t2*p_a1) / (2*p_a1*p_a0 + (2a-1)*(t2*p_a1 - t1*p_a0))."""
    sign = 2 * a - 1
    pa1, pa0 = stats.p(a, 1), stats.p(a, 0)
    denom = 2.0 * pa1 * pa0 + sign * (t2 * pa1 - t1 * pa0)
    return min(1.0, max(0.0, (pa1 * pa0 + sign * t2 * pa1) / denom))


REFERENCE_SURVIVAL_CELLS = {
    DisparityKind.DD: {(1, 0), (1, 1), (0, 0), (0, 1)},
    DisparityKind.DO: {(1, 1), (0, 1)},
    DisparityKind.PD: {(1, 0), (0, 0)},
}


# --- costs and proportions ------------------------------------------------


class TestCostsAndProportions:
    @given(stats=stats_strategy, u=st.floats(-0.99, 0.99), kind_ix=st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_blind_costs_match_tilts(self, stats, u, kind_ix):
        kind = BLIND_KINDS[kind_ix]
        t = interior_t(stats, kind, u)
        for a, y in CELLS:
            want = reference_blind_cost(kind, stats, a, y, t)
            # A small cell's cost can reach tens: compare in its own scale.
            assert abs(cost_weights(kind, stats, a, y, t) - want) <= TOL * max(1.0, abs(want))

    @given(stats=stats_strategy, u=st.floats(-0.99, 0.99), kind_ix=st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_aware_proportions_equal_threshold_split(self, stats, u, kind_ix):
        kind = AWARE_KINDS[kind_ix]
        t = interior_t(stats, kind, u)
        assert fuds_proportions(stats, kind, t) == reference_proportions(stats, kind, t)

    @given(stats=stats_strategy, u=st.floats(-0.99, 0.99), kind_ix=st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_blind_proportions_match_tilted_masses(self, stats, u, kind_ix):
        kind = BLIND_KINDS[kind_ix]
        t = interior_t(stats, kind, u)
        got = fuds_proportions(stats, kind, t)
        want = reference_proportions(stats, kind, t)
        assert list(got) == list(want)
        assert all(abs(got[cell] - want[cell]) <= TOL for cell in CELLS)


# --- blind plug-in weights ------------------------------------------------


def random_params(rng, dim):
    return LogisticParams(
        intercept=float(rng.normal()),
        coef=rng.normal(size=dim),
        mean=rng.normal(size=dim),
        scale=rng.uniform(0.5, 2.0, size=dim),
    )


@pytest.mark.parametrize("draw", range(40))
def test_blind_weights_match_per_kind_formulas(draw):
    rng = np.random.default_rng(8100 + draw)
    cells = rng.dirichlet(np.full(4, 2.0))
    stats = GroupStats(*(c / math.fsum(cells) for c in cells))
    x = rng.normal(size=(300, 3))
    eta_a = ProbModel(MODE_BLIND_A, random_params(rng, 3))
    eta_groups = ProbModel(MODE_AWARE, {0: random_params(rng, 3), 1: random_params(rng, 3)})
    ga = predict_proba(eta_a, x)
    e1 = predict_proba(eta_groups, x, np.ones(len(x), dtype=int))
    e0 = predict_proba(eta_groups, x, np.zeros(len(x), dtype=int))
    # The weights are bounded by the largest inverse cell probability.
    scale = max(1.0, *(1.0 / stats.p(a, y) for a, y in CELLS))
    for kind in BLIND_KINDS:
        got = _blind_weight_values(kind, stats, x, eta_a, eta_groups)
        want = reference_blind_weights(kind, stats, ga, e1, e0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL * scale


# --- closed-form curves ---------------------------------------------------


class _SurvivalLog:
    """A model stand-in that records which cells the curve reads."""

    def __init__(self, model):
        self.stats = model.stats
        self.model = model
        self.cells = []

    def survival(self, a, y, tau):
        self.cells.append((a, y))
        return self.model.survival(a, y, tau)


@pytest.mark.parametrize("seed", range(1, 31))
def test_closed_curves_match_per_kind_formulas(seed):
    rng = np.random.default_rng(seed)
    cells = rng.dirichlet(np.full(4, 2.0))
    model = model_from_seed(seed, stats=GroupStats(*(c / math.fsum(cells) for c in cells)))
    for kind in AWARE_KINDS:
        curve = disparity_curve_closed(model, kind)
        for t in [0.0, *rng.uniform(curve.t_lo, curve.t_hi, size=20)]:
            assert abs(curve(t) - reference_closed_disparity(model, kind, t)) <= TOL


@pytest.mark.parametrize("kind", AWARE_KINDS)
def test_closed_curve_reads_the_same_cells(kind):
    log = _SurvivalLog(model_from_seed(22))
    curve = disparity_curve_closed(log, kind)
    curve(0.01)
    assert len(log.cells) == len(REFERENCE_SURVIVAL_CELLS[kind])
    assert set(log.cells) == REFERENCE_SURVIVAL_CELLS[kind]



# --- coefficient tables and the equalized-odds threshold -----------------


@given(cells=st.lists(st.fractions(Fraction(1, 10**6), 1), min_size=4, max_size=4))
@settings(max_examples=300, deadline=None)
def test_exact_table_equals_per_kind_rationals(cells):
    for kind in AWARE_KINDS:
        got = _coeff_table(kind, *cells)
        assert got == reference_exact_coeffs(kind, *cells)
        assert all(type(c) is Fraction for pair in got for c in pair)


@given(stats=stats_strategy)
@settings(max_examples=300, deadline=None)
def test_float_table_equals_first_written_coefficients(stats):
    for kind in AWARE_KINDS:
        assert bilinear_coeffs(kind, stats) == reference_float_coeffs(kind, stats)


@given(stats=stats_strategy, u1=st.floats(0.08, 0.92), u2=st.floats(0.08, 0.92))
@settings(max_examples=300, deadline=None)
def test_eqodds_threshold_matches_product_form(stats, u1, u2):
    (l1, h1), (l2, h2) = (natural_domain(kind, stats) for kind in AWARE_KINDS[1:])
    t1, t2 = l1 + u1 * (h1 - l1), l2 + u2 * (h2 - l2)
    for a in (0, 1):
        want = reference_eqodds_threshold(stats, a, t1, t2)
        got = eqodds_group_threshold(stats, a, t1, t2)
        assert abs(got - want) <= TOL * max(1.0, abs(want))
