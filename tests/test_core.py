"""Tests for the disparity-measure algebra."""
from __future__ import annotations

import math
import re

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
    empirical_disparity_arrays,
    natural_domain,
    threshold,
)

from conftest import random_stats, stats_strategy, kind_strategy


def closed_form_threshold(kind: DisparityKind, stats: GroupStats, a: int, t: float) -> float:
    """Independent per-measure threshold formulas (oracle for the affine form)."""
    if kind is DisparityKind.DD:
        pa = stats.p_group(a)
        return (pa + (2 * a - 1) * t) / (2 * pa)
    if kind is DisparityKind.DO:
        pa1 = stats.p(a, 1)
        return pa1 / (2 * pa1 - (2 * a - 1) * t)
    pa0 = stats.p(a, 0)
    return (pa0 + (2 * a - 1) * t) / (2 * pa0 + (2 * a - 1) * t)


def definitional_weight(kind: DisparityKind, stats: GroupStats, eta: float, a: int) -> float:
    """Weighting functions written from their rate-difference definitions."""
    sign = 2 * a - 1
    if kind is DisparityKind.DD:
        return sign / stats.p_group(a)
    if kind is DisparityKind.DO:
        return sign * eta / stats.p(a, 1)
    return sign * (1.0 - eta) / stats.p(a, 0)


class TestGroupStats:
    def test_valid_cells(self, table_stats):
        assert table_stats.p_group(1) == pytest.approx(0.70)
        assert table_stats.p_group(0) == pytest.approx(0.30)

    def test_numpy_integer_cells(self, table_stats):
        assert table_stats.p(np.int64(1), np.int8(0)) == table_stats.p10
        assert table_stats.p(*np.array([0, 1])) == table_stats.p01

    @pytest.mark.parametrize(
        "a, y", [(2, 0), (-1, 0), (True, 1), (1, False), (0, 2), (1, -1), ("1", "1"), ([1], 0)]
    )
    def test_cell_outside_binary_rejected(self, table_stats, a, y):
        with pytest.raises(DisparityError, match=re.escape(f"no cell (a={a!r}, y={y!r})")):
            table_stats.p(a, y)

    def test_lookup_table_out_of_eq_hash_repr(self):
        one, two = GroupStats(0.49, 0.21, 0.12, 0.18), GroupStats(0.49, 0.21, 0.12, 0.18)
        object.__setattr__(two, "_cells", {})
        assert one == two and hash(one) == hash(two)
        assert repr(two) == "GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)"

    def test_rejects_zero_cell(self):
        with pytest.raises(DisparityError):
            GroupStats(p11=0.5, p10=0.5, p01=0.0, p00=0.0)

    def test_rejects_bad_total(self):
        with pytest.raises(DisparityError):
            GroupStats(p11=0.4, p10=0.2, p01=0.2, p00=0.1)

    def test_from_counts_plugin(self):
        s = GroupStats.from_counts(49, 21, 12, 18)
        assert s.p11 == pytest.approx(0.49)

    def test_from_counts_rejects_empty_cell(self):
        with pytest.raises(EstimationError):
            GroupStats.from_counts(10, 10, 0, 10)


class TestBilinearCoeffs:
    def test_dd_values(self, table_stats):
        s, b = bilinear_coeffs(DisparityKind.DD, table_stats)
        assert s == (0.0, 0.0)
        assert b[1] == pytest.approx(1 / 0.7)
        assert b[0] == pytest.approx(-1 / 0.3)

    def test_do_values(self, table_stats):
        s, b = bilinear_coeffs(DisparityKind.DO, table_stats)
        assert s[1] == pytest.approx(1 / 0.49)
        assert s[0] == pytest.approx(-1 / 0.12)
        assert b == (0.0, 0.0)

    def test_pd_values(self, table_stats):
        s, b = bilinear_coeffs(DisparityKind.PD, table_stats)
        assert s[1] == pytest.approx(-1 / 0.21)
        assert b[1] == pytest.approx(1 / 0.21)
        assert s[0] == pytest.approx(1 / 0.18)
        assert b[0] == pytest.approx(-1 / 0.18)

    def test_blind_kinds_rejected(self, table_stats):
        with pytest.raises(DisparityError):
            bilinear_coeffs(BlindKind.DD_X, table_stats)

    @given(stats=stats_strategy, kind=kind_strategy, eta=st.floats(0.0, 1.0), a=st.sampled_from([0, 1]))
    def test_weight_matches_definitional_form(self, stats, kind, eta, a):
        s, b = bilinear_coeffs(kind, stats)
        got = s[a] * eta + b[a]
        want = definitional_weight(kind, stats, eta, a)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


class TestThreshold:
    def test_dd_example(self):
        stats = GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)
        assert threshold(DisparityKind.DD, stats, a=1, t=0.14) == pytest.approx(0.6)

    def test_do_at_zero(self, table_stats):
        assert threshold(DisparityKind.DO, table_stats, a=1, t=0.0) == 0.5

    def test_pd_examples(self, table_stats):
        assert threshold(DisparityKind.PD, table_stats, a=0, t=0.0) == 0.5
        assert threshold(DisparityKind.PD, table_stats, a=0, t=0.09) == pytest.approx(1 / 3)

    @given(stats=stats_strategy, kind=kind_strategy, a=st.sampled_from([0, 1]))
    def test_zero_t_gives_half_exactly(self, stats, kind, a):
        assert threshold(kind, stats, a, 0.0) == 0.5

    def test_matches_closed_forms_inside_bracket(self, rng):
        for _ in range(1000):
            stats = random_stats(rng)
            kind = DisparityKind(rng.choice(["dd", "do", "pd"]))
            lo, hi = natural_domain(kind, stats)
            t = rng.uniform(lo * 0.999, hi * 0.999)
            for a in (0, 1):
                got = threshold(kind, stats, a, t)
                want = closed_form_threshold(kind, stats, a, t)
                assert got == pytest.approx(want, abs=1e-12, rel=1e-12)
                assert 0.0 <= got <= 1.0

    def test_domain_error_names_bracket(self, table_stats):
        # DO group 1 denominator hits 0 at t = 2 * p11.
        with pytest.raises(DomainError, match="bracket"):
            threshold(DisparityKind.DO, table_stats, a=1, t=1.0)


class TestCostWeights:
    def test_uniform_at_zero(self, table_stats):
        for kind in DisparityKind:
            for a in (0, 1):
                assert cost_weights(kind, table_stats, a, 0, 0.0) == 0.5
                assert cost_weights(kind, table_stats, a, 1, 0.0) == 0.5

    def test_dd_example(self, table_stats):
        assert cost_weights(DisparityKind.DD, table_stats, a=1, y=0, t=0.14) == pytest.approx(0.6)
        assert cost_weights(DisparityKind.DD, table_stats, a=1, y=1, t=0.14) == pytest.approx(0.4)

    def test_do_example(self, table_stats):
        # H for group 0 at t=0.12 is p01/(2*p01 + t) = 0.12/0.36 = 1/3,
        # so the label-1 cost is 1 - 1/3 = 2/3.
        got = cost_weights(DisparityKind.DO, table_stats, a=0, y=1, t=0.12)
        assert got == pytest.approx(2 / 3)

    @given(stats=stats_strategy, kind=kind_strategy, a=st.sampled_from([0, 1]), u=st.floats(0.01, 0.99))
    def test_label_costs_sum_to_one_exactly(self, stats, kind, a, u):
        lo, hi = natural_domain(kind, stats)
        t = lo + (hi - lo) * u
        c0 = cost_weights(kind, stats, a, 0, t)
        c1 = cost_weights(kind, stats, a, 1, t)
        assert c0 + c1 == 1.0


def _reference_disparity(kind: DisparityKind, stats: GroupStats, records) -> float:
    """Definitional plug-in sum (1/n) * sum_i f_i * w(eta_hat_i, a_i), term by
    term over (a, eta_hat, f) records."""
    s, b = bilinear_coeffs(kind, stats)
    return math.fsum(f * (s[a] * eta + b[a]) for a, eta, f in records) / len(records)


def array_disparity(kind: DisparityKind, stats: GroupStats, records) -> float:
    a, eta, f = np.array(records, dtype=float).reshape(-1, 3).T
    return empirical_disparity_arrays(kind, stats, a.astype(int), eta, f)


class TestEmpiricalDisparity:
    def test_dd_equal_acceptance_is_zero(self):
        stats = GroupStats(p11=0.25, p10=0.25, p01=0.25, p00=0.25)
        records = [(a, 0.5, 1.0) for a in (0, 1, 0, 1)]
        assert array_disparity(DisparityKind.DD, stats, records) == pytest.approx(0.0)

    def test_dd_maximal_disparity_is_one(self):
        stats = GroupStats(p11=0.25, p10=0.25, p01=0.25, p00=0.25)
        records = [(1, 0.5, 1.0), (1, 0.5, 1.0), (0, 0.5, 0.0), (0, 0.5, 0.0)]
        assert array_disparity(DisparityKind.DD, stats, records) == pytest.approx(1.0)

    def test_do_four_record_value(self):
        # Plug-in label-1 cells from the per-group means of eta_hat:
        # both groups have mean 0.5 and marginal 0.5, so p_a1 = 0.25.
        records = [(1, 0.8, 1.0), (1, 0.2, 0.0), (0, 0.6, 1.0), (0, 0.4, 0.0)]
        stats = GroupStats(p11=0.25, p10=0.25, p01=0.25, p00=0.25)
        oracle = _reference_disparity(DisparityKind.DO, stats, records)
        got = array_disparity(DisparityKind.DO, stats, records)
        assert got == pytest.approx(oracle, abs=1e-15)
        # Frozen value: (0.8/0.25 - 0.6/0.25) / 4.
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_missing_group_rejected(self, table_stats):
        with pytest.raises(EstimationError):
            array_disparity(DisparityKind.DD, table_stats, [(1, 0.5, 1.0)])

    def test_empty_rejected(self, table_stats):
        with pytest.raises(EstimationError):
            array_disparity(DisparityKind.DD, table_stats, [])

    def test_dd_reduces_to_acceptance_mean_difference(self, rng):
        for _ in range(50):
            n1, n0 = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            a = np.concatenate([np.ones(n1, dtype=int), np.zeros(n0, dtype=int)])
            y = (rng.random(n1 + n0) < 0.5).astype(int)
            # Plug-in group marginals must come from the records themselves.
            if len(set(y[a == 1])) < 2 or len(set(y[a == 0])) < 2:
                continue
            counts = [int(np.sum((a == g) & (y == label))) for g in (1, 0) for label in (1, 0)]
            stats = GroupStats.from_counts(*counts)
            f = rng.random(n1 + n0)
            eta = rng.random(n1 + n0)
            got = empirical_disparity_arrays(DisparityKind.DD, stats, a, eta, f)
            want = f[a == 1].mean() - f[a == 0].mean()
            assert got == pytest.approx(want, abs=1e-12)

    def test_record_and_array_forms_agree(self, rng, table_stats):
        n = 64
        a = (rng.random(n) < 0.5).astype(int)
        a[:2] = [0, 1]
        eta = rng.random(n)
        f = rng.random(n)
        records = list(zip(a.tolist(), eta.tolist(), f.tolist()))
        for kind in DisparityKind:
            assert empirical_disparity_arrays(kind, table_stats, a, eta, f) == pytest.approx(
                _reference_disparity(kind, table_stats, records), abs=1e-12
            )


class TestNaturalDomain:
    def test_brackets(self, table_stats):
        assert natural_domain(DisparityKind.DD, table_stats) == pytest.approx((-0.3, 0.3))
        assert natural_domain(DisparityKind.DO, table_stats) == pytest.approx((-0.12, 0.49))
        assert natural_domain(DisparityKind.PD, table_stats) == pytest.approx((-0.21, 0.18))

    @given(stats=stats_strategy, kind=kind_strategy, u=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_thresholds_stay_in_unit_interval_inside_domain(self, stats, kind, u):
        lo, hi = natural_domain(kind, stats)
        t = lo + (hi - lo) * u
        for a in (0, 1):
            h = threshold(kind, stats, a, t)
            assert -1e-12 <= h <= 1.0 + 1e-12

    def test_blind_kinds_share_brackets(self, table_stats):
        for blind in BlindKind:
            assert natural_domain(blind, table_stats) == natural_domain(blind.base, table_stats)
