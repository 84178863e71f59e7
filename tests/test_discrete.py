"""Tests for the exact finite-support solver.

Oracles first: weight coefficients are re-derived from their definitions
in rational arithmetic, optima are cross-checked against the in-package
exhaustive oracle and against large samples of random feasible
classifiers, and every frozen value is asserted as an exact fraction of
the binary inputs.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fairthresh.core import DisparityKind, DomainError, GroupStats
from fairthresh.discrete import (
    FiniteDistribution,
    RandomizedClassifier,
    brute_force_oracle,
    disparity_exact,
    risk_exact,
    solve_breakpoints,
    solve_randomized,
)
from fairthresh.solver import SolverError


# ---------------------------------------------------------------------------
# Oracles


def oracle_coeffs(kind: DisparityKind, stats: GroupStats) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(s, b) per group, re-derived from the weight definitions: the
    demographic measure weighs by signed inverse group mass, the
    opportunity measure by eta over the positive cell, the predictive
    measure by (1 - eta) over the negative cell."""
    p11, p10 = Fraction(stats.p11), Fraction(stats.p10)
    p01, p00 = Fraction(stats.p01), Fraction(stats.p00)
    if kind is DisparityKind.DD:
        return (Fraction(0), Fraction(0)), (-1 / (p01 + p00), 1 / (p11 + p10))
    if kind is DisparityKind.DO:
        return (-1 / p01, 1 / p11), (Fraction(0), Fraction(0))
    return (1 / p00, -1 / p10), (-1 / p00, 1 / p10)


def bayes_risk(dist: FiniteDistribution) -> Fraction:
    return sum(
        (Fraction(m) * min(Fraction(e), 1 - Fraction(e)) for _, m, e in dist.atoms),
        Fraction(0),
    )


def random_instance(rng: random.Random, n_max: int = 6, dyadic: bool = False) -> FiniteDistribution:
    n = rng.randint(2, n_max)
    groups = [0, 1] + [rng.randint(0, 1) for _ in range(n - 2)]
    if dyadic:
        cuts = sorted(rng.sample(range(1, 64), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [64])]
        masses = [part / 64 for part in parts]
    else:
        raw = [rng.uniform(0.2, 1.0) for _ in range(n)]
        total = sum(raw)
        masses = [r / total for r in raw]
    etas = [
        rng.choice([0.25, 0.5, 0.75]) if rng.random() < 0.25 else rng.uniform(0.05, 0.95)
        for _ in range(n)
    ]
    return FiniteDistribution(list(zip(groups, masses, etas)))


TWO_ATOM = FiniteDistribution([(1, 0.5, 0.8), (0, 0.5, 0.4)])
E1, E0 = Fraction(0.8), Fraction(0.4)
# Exact boundary ratio of the group-0 atom under the demographic measure:
# its weight is exactly -2 because the implied group mass is exactly one half.
Q0 = (1 - 2 * E0) / 2


# ---------------------------------------------------------------------------
# Distribution plumbing


class TestFiniteDistribution:
    def test_implied_stats_exact(self):
        stats = TWO_ATOM.implied_stats()
        assert stats.p11 == 0.4
        assert stats.p10 == (1 - 0.8) / 2
        assert stats.p01 == 0.2
        assert stats.p00 == (1 - 0.4) / 2

    def test_validation(self):
        with pytest.raises(DomainError):
            FiniteDistribution([])
        with pytest.raises(DomainError):
            FiniteDistribution([(1, 1.0, 0.5)])
        with pytest.raises(DomainError):
            FiniteDistribution([(2, 0.5, 0.5), (0, 0.5, 0.5)])
        with pytest.raises(DomainError):
            FiniteDistribution([(1, 0.0, 0.5), (0, 1.0, 0.5)])
        with pytest.raises(DomainError):
            FiniteDistribution([(1, 0.5, 1.5), (0, 0.5, 0.5)])
        with pytest.raises(DomainError):
            FiniteDistribution([(1, 0.5, 0.5), (0, 0.4, 0.5)])

    def test_classifier_validation(self):
        with pytest.raises(DomainError):
            RandomizedClassifier(accept=(Fraction(1, 2), Fraction(3, 2)))


# ---------------------------------------------------------------------------
# Exact functionals


class TestRiskExact:
    def test_reject_all(self):
        f = RandomizedClassifier(accept=(Fraction(0), Fraction(0)))
        assert risk_exact(TWO_ATOM, f) == (E1 + E0) / 2

    def test_accept_all(self):
        f = RandomizedClassifier(accept=(Fraction(1), Fraction(1)))
        assert risk_exact(TWO_ATOM, f) == (1 - E1) / 2 + (1 - E0) / 2

    def test_coverage_mismatch(self):
        with pytest.raises(DomainError):
            risk_exact(TWO_ATOM, RandomizedClassifier(accept=(Fraction(1),)))

    def test_random_classifier_matches_hand_sum(self):
        rng = random.Random(71)
        dist = random_instance(rng)
        accept = tuple(Fraction(rng.randint(0, 8), 8) for _ in dist.atoms)
        f = RandomizedClassifier(accept=accept)
        want = sum(
            (
                Fraction(m) * ((1 - 2 * Fraction(e)) * fa + Fraction(e))
                for (_, m, e), fa in zip(dist.atoms, accept)
            ),
            Fraction(0),
        )
        assert risk_exact(dist, f) == want


# ---------------------------------------------------------------------------
# Exact solver


class TestSolveRandomized:
    def test_two_atom_partial_budget(self):
        stats = TWO_ATOM.implied_stats()
        f = solve_randomized(TWO_ATOM, DisparityKind.DD, stats, 0.5)
        assert f.accept == (1, Fraction(1, 2))
        assert f.t_star == Q0
        assert disparity_exact(TWO_ATOM, DisparityKind.DD, stats, f) == Fraction(1, 2)
        risk = risk_exact(TWO_ATOM, f)
        assert risk == (1 - E1) / 2 + Fraction(1, 4)
        assert float(risk) == pytest.approx(0.35, abs=1e-15)

    def test_two_atom_slack_budget(self):
        stats = TWO_ATOM.implied_stats()
        f = solve_randomized(TWO_ATOM, DisparityKind.DD, stats, 1.0)
        assert f.accept == (1, 0)
        assert f.t_star == 0
        assert disparity_exact(TWO_ATOM, DisparityKind.DD, stats, f) == 1
        risk = risk_exact(TWO_ATOM, f)
        assert risk == (1 - E1) / 2 + E0 / 2
        assert float(risk) == pytest.approx(0.3, abs=1e-15)
        assert risk == bayes_risk(TWO_ATOM)

    def test_two_atom_zero_budget(self):
        stats = TWO_ATOM.implied_stats()
        f = solve_randomized(TWO_ATOM, DisparityKind.DD, stats, 0.0)
        assert f.accept == (1, 1)
        assert disparity_exact(TWO_ATOM, DisparityKind.DD, stats, f) == 0
        risk = risk_exact(TWO_ATOM, f)
        assert risk == 1 - (E1 + E0) / 2
        assert float(risk) == pytest.approx(0.4, abs=1e-15)

    def test_matches_oracle_exactly(self):
        rng = random.Random(6211)
        for i in range(60):
            dist = random_instance(rng, dyadic=(i % 2 == 0))
            stats = dist.implied_stats()
            for kind in DisparityKind:
                for delta in (0.0, 0.1, 0.3):
                    f = solve_randomized(dist, kind, stats, delta)
                    for fa in f.accept:
                        assert 0 <= fa <= 1
                    dis = disparity_exact(dist, kind, stats, f)
                    assert abs(dis) <= Fraction(delta)
                    oracle_risk, _ = brute_force_oracle(dist, kind, stats, delta)
                    assert risk_exact(dist, f) == oracle_risk

    def test_risk_nonincreasing_in_budget(self):
        rng = random.Random(777)
        for _ in range(10):
            dist = random_instance(rng)
            stats = dist.implied_stats()
            for kind in DisparityKind:
                risks = [
                    risk_exact(dist, solve_randomized(dist, kind, stats, d))
                    for d in (0.0, 0.05, 0.1, 0.2, 0.4)
                ]
                for a, b in zip(risks, risks[1:]):
                    assert b <= a

    def test_budget_at_unconstrained_disparity_gives_bayes_risk(self):
        rng = random.Random(40)
        for _ in range(20):
            dist = random_instance(rng)
            stats = dist.implied_stats()
            for kind in DisparityKind:
                wide = solve_randomized(dist, kind, stats, 1000.0)
                d0 = abs(disparity_exact(dist, kind, stats, wide))
                budget = math.nextafter(float(d0), math.inf)
                f = solve_randomized(dist, kind, stats, budget)
                assert risk_exact(dist, f) == bayes_risk(dist)

    def test_zero_weight_atoms_stay_deterministic(self):
        # Under the opportunity measure a score of zero has zero weight;
        # such atoms are plain Bayes decisions and never randomized.
        dist = FiniteDistribution([(1, 0.5, 0.7), (0, 0.25, 0.0), (0, 0.25, 0.6)])
        stats = dist.implied_stats()
        for delta in (0.0, 0.1):
            f = solve_randomized(dist, DisparityKind.DO, stats, delta)
            assert f.accept[1] == 0
            assert abs(disparity_exact(dist, DisparityKind.DO, stats, f)) <= Fraction(delta)

    def test_half_scores_absorb_disparity_for_free(self):
        # Atoms at eta = 1/2 cost nothing to flip but carry demographic
        # weight, so a zero budget is met at the unconstrained Bayes risk.
        dist = FiniteDistribution(
            [(1, 0.25, 0.5), (1, 0.25, 0.9), (0, 0.25, 0.5), (0, 0.25, 0.1)]
        )
        stats = dist.implied_stats()
        f = solve_randomized(dist, DisparityKind.DD, stats, 0.0)
        assert disparity_exact(dist, DisparityKind.DD, stats, f) == 0
        assert risk_exact(dist, f) == bayes_risk(dist)

    def test_negative_budget_rejected(self):
        stats = TWO_ATOM.implied_stats()
        with pytest.raises(SolverError):
            solve_randomized(TWO_ATOM, DisparityKind.DD, stats, -0.1)


class TestSolveBreakpoints:
    def test_zero_group_is_named_by_positive_zero(self):
        # A -0.0 flip point (score exactly 1/2, negative weight) shares the
        # t = 0 tie group; whichever member the sort puts first, the solve
        # reports t = +0.0.
        rng = np.random.default_rng(0)
        ratio = np.concatenate([np.full(100, -0.0), np.linspace(-1.0, 1.0, 101)])
        positive = rng.random(ratio.size) < 0.5
        contrib = rng.integers(-3, 4, ratio.size)
        t, tau_plus, tau_minus, d = solve_breakpoints(ratio, positive, contrib, Fraction(10**6))
        assert t == 0.0 and math.copysign(1.0, t) == 1.0


# ---------------------------------------------------------------------------
# Exhaustive oracle


class TestBruteForceOracle:
    def test_two_atom_frozen(self):
        stats = TWO_ATOM.implied_stats()
        risk, f = brute_force_oracle(TWO_ATOM, DisparityKind.DD, stats, 0.5)
        assert risk == (1 - E1) / 2 + Fraction(1, 4)
        assert f.accept == (1, Fraction(1, 2))

    def test_wide_budget_recovers_bayes(self):
        rng = random.Random(52)
        for _ in range(10):
            dist = random_instance(rng)
            stats = dist.implied_stats()
            for kind in DisparityKind:
                risk, _ = brute_force_oracle(dist, kind, stats, 1000.0)
                assert risk == bayes_risk(dist)

    def test_atom_cap(self):
        atoms = [(i % 2, 1 / 13, 0.3 + 0.04 * i) for i in range(13)]
        dist = FiniteDistribution(atoms)
        with pytest.raises(SolverError):
            brute_force_oracle(dist, DisparityKind.DD, dist.implied_stats(), 0.1)

    def test_negative_budget_rejected(self):
        stats = TWO_ATOM.implied_stats()
        with pytest.raises(SolverError):
            brute_force_oracle(TWO_ATOM, DisparityKind.DD, stats, -1e-9)

    def test_beats_random_feasible_classifiers(self):
        # No random-search classifier that clearly satisfies the budget may
        # undercut the oracle: a sampled lower-bound check of optimality.
        rng = random.Random(1203)
        np_rng = np.random.default_rng(998877)
        for _ in range(50):
            dist = random_instance(rng, n_max=5)
            stats = dist.implied_stats()
            kind = rng.choice(list(DisparityKind))
            delta = rng.choice([0.05, 0.1, 0.3])
            oracle_risk, _ = brute_force_oracle(dist, kind, stats, delta)

            m = np.array([a[1] for a in dist.atoms])
            eta = np.array([a[2] for a in dist.atoms])
            (s0, s1), (b0, b1) = oracle_coeffs(kind, stats)
            w = np.array(
                [
                    float((s1 if a == 1 else s0) * Fraction(e) + (b1 if a == 1 else b0))
                    for a, _, e in dist.atoms
                ]
            )
            f = np_rng.uniform(size=(4000, len(dist.atoms)))
            dis = f @ (m * w)
            risk = f @ (m * (1.0 - 2.0 * eta)) + float(np.sum(m * eta))
            feasible = np.abs(dis) <= delta - 1e-9
            if feasible.any():
                assert risk[feasible].min() >= float(oracle_risk) - 1e-9
