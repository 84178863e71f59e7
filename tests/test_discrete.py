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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairthresh import discrete, oracles
from fairthresh.core import DisparityError, DisparityKind, DomainError
from fairthresh.discrete import (
    Breakpoints,
    FiniteDistribution,
    RandomizedClassifier,
    _candidate_positions,
    _candidate_value,
    _prepare,
    brute_force_oracle,
    disparity_exact,
    risk_exact,
    solve_randomized,
)
from fairthresh.solver import SolverError


# ---------------------------------------------------------------------------
# Oracles


def exact_cells(dist: FiniteDistribution) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(p11, p10, p01, p00): sums of m*eta and m*(1 - eta) over each group's
    atoms, in rationals."""
    cells = {(a, y): Fraction(0) for a in (1, 0) for y in (1, 0)}
    for a, m, e in dist.atoms:
        cells[a, 1] += Fraction(m) * Fraction(e)
        cells[a, 0] += Fraction(m) * (1 - Fraction(e))
    return tuple(cells.values())


def oracle_coeffs(kind: DisparityKind, dist: FiniteDistribution) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(s, b) per group, re-derived from the weight definitions: the
    demographic measure weighs by signed inverse group mass, the
    opportunity measure by eta over the positive cell, the predictive
    measure by (1 - eta) over the negative cell."""
    p11, p10, p01, p00 = exact_cells(dist)
    if kind is DisparityKind.DD:
        return (Fraction(0), Fraction(0)), (-1 / (p01 + p00), 1 / (p11 + p10))
    if kind is DisparityKind.DO:
        return (-1 / p01, 1 / p11), (Fraction(0), Fraction(0))
    return (1 / p00, -1 / p10), (-1 / p00, 1 / p10)


def hand_disparity(dist: FiniteDistribution, kind: DisparityKind, accept) -> Fraction:
    """Sum of m*w*f over the atoms, with w from oracle_coeffs."""
    (s0, s1), (b0, b1) = oracle_coeffs(kind, dist)
    return sum(
        (Fraction(m) * ((s1 if a else s0) * Fraction(e) + (b1 if a else b0)) * fa
         for (a, m, e), fa in zip(dist.atoms, accept)),
        Fraction(0),
    )


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


def _reference_candidates(ratios: list[Fraction]) -> list[Fraction]:
    """0, the sentinel below, the sorted distinct ratios, their midpoints,
    the sentinel above."""
    candidates = [Fraction(0)]
    if ratios:
        candidates.append(ratios[0] - 1)
        candidates.extend(ratios)
        candidates.extend((a + b) / 2 for a, b in zip(ratios, ratios[1:]))
        candidates.append(ratios[-1] + 1)
    return candidates


def _reference_brute_force_oracle(
    dist: FiniteDistribution, kind: DisparityKind, delta: float
) -> tuple[Fraction, tuple[Fraction, ...], Fraction, Fraction, Fraction]:
    """The exhaustive oracle in Fraction arithmetic alone, as it stood
    before its sums moved to integers: same candidates, vertices and strict
    tie-break, with the atoms re-derived from oracle_coeffs. Returns
    (risk, accept, t, tau_plus, tau_minus)."""
    deltaf = Fraction(delta)
    half, zero, one = Fraction(1, 2), Fraction(0), Fraction(1)
    (s0, s1), (b0, b1) = oracle_coeffs(kind, dist)
    atoms = []  # mass, eta, w, ratio
    for a, m, e in dist.atoms:
        mf, ef = Fraction(m), Fraction(e)
        w = (s1 * ef + b1) if a == 1 else (s0 * ef + b0)
        atoms.append((mf, ef, w, (2 * ef - 1) / w if w != 0 else None))
    candidates = _reference_candidates(sorted({ratio for *_, ratio in atoms if ratio is not None}))
    fixed_risk = sum((m * e for m, e, _, _ in atoms), zero)
    live = []
    for m, e, w, ratio in atoms:
        slope = m * (1 - 2 * e)
        if w == 0:
            if e > half:
                fixed_risk += slope
        else:
            live.append((w > 0, ratio, m * w, slope))

    best = None  # risk, t, u, v
    for t in candidates:
        base_risk, d0 = fixed_risk, zero
        gain_plus = gain_minus = zero  # disparity slopes of u, -v
        cost_plus = cost_minus = zero  # risk slopes of u, v
        for positive, ratio, mw, slope in live:
            if positive:
                if ratio > t:
                    base_risk += slope
                    d0 += mw
                elif ratio == t:
                    gain_plus += mw
                    cost_plus += slope
            else:
                if ratio < t:
                    base_risk += slope
                    d0 += mw
                elif ratio == t:
                    gain_minus -= mw
                    cost_minus += slope

        vertices = []
        for u in (zero, one):
            for v in (zero, one):
                if abs(d0 + u * gain_plus - v * gain_minus) <= deltaf:
                    vertices.append((u, v))
        for bound in (deltaf, -deltaf):
            if gain_minus != 0:
                for u in (zero, one):
                    v = (d0 + u * gain_plus - bound) / gain_minus
                    if 0 <= v <= 1:
                        vertices.append((u, v))
            if gain_plus != 0:
                for v in (zero, one):
                    u = (bound - d0 + v * gain_minus) / gain_plus
                    if 0 <= u <= 1:
                        vertices.append((u, v))

        for u, v in vertices:
            risk = base_risk + u * cost_plus + v * cost_minus
            if best is None or risk < best[0]:
                best = (risk, t, u, v)

    risk, t, u, v = best
    accept = tuple(
        (one if e > half else zero) if w == 0
        else (one if ratio > t else u if ratio == t else zero) if w > 0
        else (one if ratio < t else v if ratio == t else zero)
        for _, e, w, ratio in atoms
    )
    return risk, accept, t, u, v


def assert_oracle_matches_reference(dist: FiniteDistribution, kind: DisparityKind, delta: float) -> None:
    risk, f = brute_force_oracle(dist, kind, delta)
    got = (risk, f.accept, f.t_star, f.tau_plus, f.tau_minus)
    assert got == _reference_brute_force_oracle(dist, kind, delta), (dist, kind, delta)
    assert all(type(q) is Fraction for q in (risk, *f.accept, f.t_star, f.tau_plus, f.tau_minus))


def instance_from(rng: random.Random, etas: list[float]) -> FiniteDistribution:
    """Dyadic masses over the given scores, both groups present."""
    n = len(etas)
    groups = [0, 1] + [rng.randint(0, 1) for _ in range(n - 2)]
    cuts = sorted(rng.sample(range(1, 64), n - 1))
    masses = [(b - a) / 64 for a, b in zip([0] + cuts, cuts + [64])]
    return FiniteDistribution(list(zip(groups, masses, etas)))


ORACLE_DELTAS = (0.0, 0.05, 0.3, 1000.0)


@st.composite
def finite_instances(draw) -> FiniteDistribution:
    """Up to 8 atoms with integer-ratio masses; scores mix the tie-prone
    and zero-weight values with arbitrary ones."""
    n = draw(st.integers(2, 8))
    groups = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    raw = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
    etas = draw(st.lists(score, min_size=n, max_size=n))
    return FiniteDistribution([(a, r / sum(raw), e) for a, r, e in zip(groups, raw, etas)])


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

    def test_implied_stats_of_masses_inside_the_mass_tolerance(self):
        # The masses sum to 1 + 5e-11, which the distribution accepts; the
        # float view is normalized by the exact total, so GroupStats does too.
        dist = FiniteDistribution(
            [(1, 0.3 + 5e-11, 0.8), (1, 0.2, 0.35), (0, 0.25, 0.6), (0, 0.25, 0.1)]
        )
        stats = dist.implied_stats()
        cells = (stats.p11, stats.p10, stats.p01, stats.p00)
        assert abs(math.fsum(cells) - 1.0) <= 1e-12
        p11, p10, p01, p00 = exact_cells(dist)
        total = p11 + p10 + p01 + p00
        assert total != 1
        assert cells == tuple(float(c / total) for c in (p11, p10, p01, p00))

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

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(DomainError, match="positive and finite"):
            FiniteDistribution([(1, mass, 0.5), (0, 0.5, 0.5)])

    @pytest.mark.parametrize("group", [0.5, 1.9, -0.2, math.nan])
    def test_fractional_group_id_rejected(self, group):
        # int() would truncate 0.5 to 0 and 1.9 to 1.
        with pytest.raises(DomainError, match="group labels must be 0 or 1"):
            FiniteDistribution([(group, 0.5, 0.5), (0, 0.25, 0.5), (1, 0.25, 0.5)])

    def test_integral_group_ids_become_ints(self):
        dist = FiniteDistribution([(1.0, 0.5, 0.5), (np.int64(0), 0.5, 0.5)])
        assert [type(a) for a, _, _ in dist.atoms] == [int, int]
        assert dist == FiniteDistribution([(1, 0.5, 0.5), (0, 0.5, 0.5)])

    def test_prepared_atoms_out_of_eq_hash_repr(self):
        dist = FiniteDistribution([(1, 0.5, 0.8), (0, 0.5, 0.4)])
        before = (hash(dist), repr(dist))
        solve_randomized(dist, DisparityKind.DD, 0.1)
        brute_force_oracle(dist, DisparityKind.PD, 0.1)
        assert dist._prepared and dist._sorted and dist._oracle
        assert dist == TWO_ATOM and (hash(dist), repr(dist)) == before == (hash(TWO_ATOM), repr(TWO_ATOM))

    def test_prepare_runs_once_per_kind_and_stats(self):
        dist = random_instance(random.Random(5))
        atoms = _prepare(dist, DisparityKind.DO)
        assert _prepare(dist, DisparityKind.DO) is atoms
        assert _prepare(dist, DisparityKind.DD) is not atoms
        # Each memo entry answers for its own kind.
        for kind in DisparityKind:
            assert_oracle_matches_reference(dist, kind, 0.05)
            f = solve_randomized(dist, kind, 0.05)
            assert disparity_exact(dist, kind, f) == hand_disparity(dist, kind, f.accept)

    def test_solve_sorts_once_per_kind(self, monkeypatch):
        rng = random.Random(11)
        dist = random_instance(rng)
        budgets = (0.0, 0.05, 0.2)
        want = {
            (kind, delta): solve_randomized(FiniteDistribution(dist.atoms), kind, delta)
            for kind in DisparityKind for delta in budgets
        }
        sorts = []
        original = Breakpoints.sort.__func__

        def counting_sort(cls, *args, **kwargs):
            sorts.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Breakpoints, "sort", classmethod(counting_sort))
        for delta in budgets:  # budgets outermost: each kind is revisited
            for kind in DisparityKind:
                assert solve_randomized(dist, kind, delta) == want[kind, delta]
        assert len(sorts) == len(DisparityKind)

    def test_oracle_tables_once_per_kind(self, monkeypatch):
        # Dyadic scores keep the table's unit small: 0.0 shares it, and the
        # denominators of 0.1 and 0.3 lift it.
        dist = instance_from(random.Random(12), [0.25, 0.75, 0.625, 0.375, 0.5])
        budgets = (0.0, 0.1, 0.3)
        want = {
            (kind, delta): brute_force_oracle(FiniteDistribution(dist.atoms), kind, delta)
            for kind in DisparityKind for delta in budgets
        }
        builds = []
        original = discrete._candidate_positions

        def counting_positions(ratios):
            builds.append(ratios)
            return original(ratios)

        monkeypatch.setattr(discrete, "_candidate_positions", counting_positions)
        for delta in budgets:  # budgets outermost: each kind is revisited
            for kind in DisparityKind:
                risk, f = brute_force_oracle(dist, kind, delta)
                assert (risk, f) == want[kind, delta]
                assert (risk, f.accept, f.t_star, f.tau_plus, f.tau_minus) == (
                    _reference_brute_force_oracle(dist, kind, delta)
                )
        assert len(builds) == len(DisparityKind)

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

    def test_mixed_accept_types_match_hand_sums(self):
        # An int 1 is summed as an integer, the others each as one Fraction;
        # every rotation puts each type on every atom.
        dist = FiniteDistribution(
            [(1, 0.375, 0.8), (1, 0.125, 0.35), (0, 0.25, 0.6), (0, 0.25, 0.1)]
        )
        values = [1, 0.25, Fraction(1, 3), np.float64(0.5)]
        for shift in range(len(values)):
            accept = tuple(values[shift:] + values[:shift])
            f = RandomizedClassifier(accept=accept)
            exact = [Fraction(fa) for fa in accept]
            risk = sum(
                (
                    Fraction(m) * ((1 - 2 * Fraction(e)) * fa + Fraction(e))
                    for (_, m, e), fa in zip(dist.atoms, exact)
                ),
                Fraction(0),
            )
            got = risk_exact(dist, f)
            assert type(got) is Fraction and got == risk
            for kind in DisparityKind:
                got = disparity_exact(dist, kind, f)
                assert type(got) is Fraction and got == hand_disparity(dist, kind, exact)

    def test_oracle_check_cases_match_hand_sum(self):
        # The 1,800 (instance, kind, budget) cases of oracle-check's discrete
        # suite: the memoized terms give the same Fraction as the per-atom sum.
        rng = random.Random(0)
        checked = 0
        for _ in range(oracles._DISCRETE_INSTANCES):
            dist = oracles._random_finite_instance(rng)
            for kind in DisparityKind:
                for delta in oracles._DISCRETE_DELTAS:
                    f = solve_randomized(dist, kind, delta)
                    want = sum(
                        (
                            Fraction(m) * ((1 - 2 * Fraction(e)) * Fraction(fa) + Fraction(e))
                            for (_, m, e), fa in zip(dist.atoms, f.accept)
                        ),
                        Fraction(0),
                    )
                    got = risk_exact(dist, f)
                    assert type(got) is Fraction and got == want
                    checked += 1
        assert checked == 1800


# ---------------------------------------------------------------------------
# Exact solver


class TestSolveRandomized:
    def test_two_atom_partial_budget(self):
        f = solve_randomized(TWO_ATOM, DisparityKind.DD, 0.5)
        assert f.accept == (1, Fraction(1, 2))
        assert f.t_star == Q0
        assert disparity_exact(TWO_ATOM, DisparityKind.DD, f) == Fraction(1, 2)
        risk = risk_exact(TWO_ATOM, f)
        assert risk == (1 - E1) / 2 + Fraction(1, 4)
        assert float(risk) == pytest.approx(0.35, abs=1e-15)

    def test_two_atom_slack_budget(self):
        f = solve_randomized(TWO_ATOM, DisparityKind.DD, 1.0)
        assert f.accept == (1, 0)
        assert f.t_star == 0
        assert disparity_exact(TWO_ATOM, DisparityKind.DD, f) == 1
        risk = risk_exact(TWO_ATOM, f)
        assert risk == (1 - E1) / 2 + E0 / 2
        assert float(risk) == pytest.approx(0.3, abs=1e-15)
        assert risk == bayes_risk(TWO_ATOM)

    def test_two_atom_zero_budget(self):
        f = solve_randomized(TWO_ATOM, DisparityKind.DD, 0.0)
        assert f.accept == (1, 1)
        assert disparity_exact(TWO_ATOM, DisparityKind.DD, f) == 0
        risk = risk_exact(TWO_ATOM, f)
        assert risk == 1 - (E1 + E0) / 2
        assert float(risk) == pytest.approx(0.4, abs=1e-15)

    def test_matches_oracle_exactly(self):
        rng = random.Random(6211)
        for i in range(60):
            dist = random_instance(rng, dyadic=(i % 2 == 0))
            for kind in DisparityKind:
                for delta in (0.0, 0.1, 0.3):
                    f = solve_randomized(dist, kind, delta)
                    for fa in f.accept:
                        assert 0 <= fa <= 1
                    dis = disparity_exact(dist, kind, f)
                    assert abs(dis) <= Fraction(delta)
                    oracle_risk, _ = brute_force_oracle(dist, kind, delta)
                    assert risk_exact(dist, f) == oracle_risk

    def test_risk_nonincreasing_in_budget(self):
        rng = random.Random(777)
        for _ in range(10):
            dist = random_instance(rng)
            for kind in DisparityKind:
                risks = [
                    risk_exact(dist, solve_randomized(dist, kind, d))
                    for d in (0.0, 0.05, 0.1, 0.2, 0.4)
                ]
                for a, b in zip(risks, risks[1:]):
                    assert b <= a

    def test_budget_at_unconstrained_disparity_gives_bayes_risk(self):
        rng = random.Random(40)
        for _ in range(20):
            dist = random_instance(rng)
            for kind in DisparityKind:
                wide = solve_randomized(dist, kind, 1000.0)
                d0 = abs(disparity_exact(dist, kind, wide))
                budget = math.nextafter(float(d0), math.inf)
                f = solve_randomized(dist, kind, budget)
                assert risk_exact(dist, f) == bayes_risk(dist)

    def test_zero_weight_atoms_stay_deterministic(self):
        # Under the opportunity measure a score of zero has zero weight;
        # such atoms are plain Bayes decisions and never randomized.
        dist = FiniteDistribution([(1, 0.5, 0.7), (0, 0.25, 0.0), (0, 0.25, 0.6)])
        for delta in (0.0, 0.1):
            f = solve_randomized(dist, DisparityKind.DO, delta)
            assert f.accept[1] == 0
            assert abs(disparity_exact(dist, DisparityKind.DO, f)) <= Fraction(delta)

    def test_half_scores_absorb_disparity_for_free(self):
        # Atoms at eta = 1/2 cost nothing to flip but carry demographic
        # weight, so a zero budget is met at the unconstrained Bayes risk.
        dist = FiniteDistribution(
            [(1, 0.25, 0.5), (1, 0.25, 0.9), (0, 0.25, 0.5), (0, 0.25, 0.1)]
        )
        f = solve_randomized(dist, DisparityKind.DD, 0.0)
        assert disparity_exact(dist, DisparityKind.DD, f) == 0
        assert risk_exact(dist, f) == bayes_risk(dist)

    def test_negative_budget_rejected(self):
        with pytest.raises(SolverError):
            solve_randomized(TWO_ATOM, DisparityKind.DD, -0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, delta):
        with pytest.raises(SolverError, match="must be finite and nonnegative"):
            solve_randomized(TWO_ATOM, DisparityKind.DD, delta)


class TestExactBudget:
    """The solver's disparity, summed here from the atoms' own rational cell
    masses, meets the budget exactly: the weights are never rounded."""

    def test_oracle_check_instances_meet_budget_exactly(self):
        rng = random.Random(0)
        for index in range(50):
            dist = oracles._random_finite_instance(rng)
            for kind in DisparityKind:
                for delta in (0.0, 0.1, 0.3):
                    f = solve_randomized(dist, kind, delta)
                    dis = hand_disparity(dist, kind, f.accept)
                    assert abs(dis) <= Fraction(delta), (index, kind, delta)
                    if delta == 0.0:
                        assert dis == 0, (index, kind)

    def test_masses_off_one_by_float_noise_solve(self):
        # The masses sum to 1 + 5e-11: inside the distribution's own
        # tolerance, though outside GroupStats' float one.
        dist = FiniteDistribution(
            [(1, 0.3 + 5e-11, 0.8), (1, 0.2, 0.35), (0, 0.25, 0.6), (0, 0.25, 0.1)]
        )
        for kind in DisparityKind:
            for delta in (0.0, 0.1):
                f = solve_randomized(dist, kind, delta)
                oracle_risk, _ = brute_force_oracle(dist, kind, delta)
                assert risk_exact(dist, f) == oracle_risk
                assert abs(hand_disparity(dist, kind, f.accept)) <= Fraction(delta)

    def test_empty_cell_rejected(self):
        # Every group-1 score is 0, so the cell (1, 1) has no mass.
        dist = FiniteDistribution([(1, 0.5, 0.0), (0, 0.5, 0.4)])
        # Every call raises, and none leaves a half-filled cache entry.
        for delta in (0.0, 0.1, 0.1):
            for solve in (solve_randomized, brute_force_oracle):
                with pytest.raises(DisparityError, match="cell masses must be positive"):
                    solve(dist, DisparityKind.DO, delta)
                assert dist._prepared == {} and dist._sorted == {} and dist._oracle == {}


def _reference_landing(steps: Breakpoints, budget: Fraction):
    """Breakpoints.solve in Fraction arithmetic, as it stood before its
    landing moved to integers; None where that raised SolverError."""
    ratios, plus, minus, zero = steps.ratios, steps.plus, steps.minus, steps.zero
    feasible = np.flatnonzero(steps.least <= math.floor(budget))
    if feasible.size == 0:
        return None
    k = int(feasible[np.argmin(np.abs(ratios[feasible]))])
    inner = zero[k] + (plus[k] if ratios[k] > 0 else minus[k] if ratios[k] < 0 else 0)
    target = min(budget, max(-budget, Fraction(int(inner))))
    need = target - int(zero[k])
    taus = []
    for side in (int(plus[k]), int(minus[k])):
        tau = min(Fraction(1), need / side) if need * side > 0 else Fraction(0)
        need -= tau * side
        taus.append(tau)
    assert need == 0
    return ratios[k], taus[0], taus[1], target


@st.composite
def breakpoint_items(draw):
    """Up to 12 items on 7 ratios, so that ties fall on both weight sides and
    at 0, with a base and a budget that is 0, an integer or a fraction."""
    n = draw(st.integers(0, 12))
    ratio = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    contrib = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    base = draw(st.integers(-8, 8))
    budget = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(0, 30).map(Fraction),
        st.builds(Fraction, st.integers(0, 90), st.integers(2, 9)),
    ))
    return ratio, positive, contrib, base, budget


class TestSolveBreakpoints:
    # A tie on both sides where the positive side fills and the negative
    # side takes the rest of a fractional budget: tau_plus 1, tau_minus 3/8.
    @example(items=([2, 2], [True, False], [-1, -4], 5, Fraction(5, 2)), objects=True)
    @example(items=([2, 2], [True, False], [-1, -4], 5, Fraction(5, 2)), objects=False)
    @settings(max_examples=300, deadline=None)
    @given(breakpoint_items(), st.booleans())
    def test_landing_matches_the_fraction_reference(self, items, objects):
        ratio, positive, contrib, base, budget = items
        if objects:  # exact rationals and Python ints, as solve_randomized sorts
            steps = Breakpoints.sort(
                np.array([Fraction(r, 2) for r in ratio], dtype=object),
                np.array(positive, dtype=bool),
                np.array(contrib, dtype=object),
                base,
            )
        else:  # floats and int64, as run_fpir sorts
            steps = Breakpoints.sort(
                np.array(ratio, dtype=float) / 2,
                np.array(positive, dtype=bool),
                np.array(contrib, dtype=np.int64),
                base,
            )
        want = _reference_landing(steps, budget)
        if want is None:
            with pytest.raises(SolverError, match="unreachable"):
                steps.solve(budget)
            return
        got = steps.solve(budget)
        assert got == want
        assert type(got[0]) is type(want[0])
        assert all(type(q) is Fraction for q in got[1:])

    def test_zero_group_is_named_by_positive_zero(self):
        # A -0.0 flip point (score exactly 1/2, negative weight) shares the
        # t = 0 tie group; whichever member the sort puts first, the solve
        # reports t = +0.0.
        rng = np.random.default_rng(0)
        ratio = np.concatenate([np.full(100, -0.0), np.linspace(-1.0, 1.0, 101)])
        positive = rng.random(ratio.size) < 0.5
        contrib = rng.integers(-3, 4, ratio.size)
        steps = Breakpoints.sort(ratio, positive, contrib)
        t, tau_plus, tau_minus, d = steps.solve(Fraction(10**6))
        assert t == 0.0 and math.copysign(1.0, t) == 1.0


# ---------------------------------------------------------------------------
# Exhaustive oracle


class TestBruteForceOracle:
    def test_two_atom_frozen(self):
        risk, f = brute_force_oracle(TWO_ATOM, DisparityKind.DD, 0.5)
        assert risk == (1 - E1) / 2 + Fraction(1, 4)
        assert f.accept == (1, Fraction(1, 2))

    def test_wide_budget_recovers_bayes(self):
        rng = random.Random(52)
        for _ in range(10):
            dist = random_instance(rng)
            for kind in DisparityKind:
                risk, _ = brute_force_oracle(dist, kind, 1000.0)
                assert risk == bayes_risk(dist)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3])
    def test_returned_classifier_attains_its_risk_within_budget(self, delta):
        # The reported risk is the exact risk of the reported classifier,
        # and that classifier meets the budget exactly.
        rng = random.Random(8080)
        # Scores 0 and 1 give the DO and PD measures zero-weight atoms.
        edges = FiniteDistribution([(1, 0.25, 0.7), (1, 0.25, 0.0), (0, 0.25, 1.0), (0, 0.25, 0.3)])
        for dist in [random_instance(rng) for _ in range(25)] + [edges]:
            for kind in DisparityKind:
                risk, f = brute_force_oracle(dist, kind, delta)
                assert risk_exact(dist, f) == risk
                assert abs(disparity_exact(dist, kind, f)) <= Fraction(delta)

    def test_atom_cap(self):
        atoms = [(i % 2, 1 / 13, 0.3 + 0.04 * i) for i in range(13)]
        dist = FiniteDistribution(atoms)
        with pytest.raises(SolverError):
            brute_force_oracle(dist, DisparityKind.DD, 0.1)

    def test_negative_budget_rejected(self):
        with pytest.raises(SolverError):
            brute_force_oracle(TWO_ATOM, DisparityKind.DD, -1e-9)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, delta):
        with pytest.raises(SolverError, match="must be finite and nonnegative"):
            brute_force_oracle(TWO_ATOM, DisparityKind.DD, delta)

    def test_beats_random_feasible_classifiers(self):
        # No random-search classifier that clearly satisfies the budget may
        # undercut the oracle: a sampled lower-bound check of optimality.
        rng = random.Random(1203)
        np_rng = np.random.default_rng(998877)
        for _ in range(50):
            dist = random_instance(rng, n_max=5)
            kind = rng.choice(list(DisparityKind))
            delta = rng.choice([0.05, 0.1, 0.3])
            oracle_risk, _ = brute_force_oracle(dist, kind, delta)

            m = np.array([a[1] for a in dist.atoms])
            eta = np.array([a[2] for a in dist.atoms])
            (s0, s1), (b0, b1) = oracle_coeffs(kind, dist)
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


class TestOracleCandidates:
    @given(
        st.lists(st.integers(-6, 6), unique=True, max_size=8).map(
            lambda xs: [Fraction(x, 3) for x in sorted(xs)]
        )
    )
    def test_positions_order_like_the_reference_candidates(self, ratios):
        # A midpoint is never the oracle's answer: the corner of the ratio
        # before it classifies the same and comes first. Its position is
        # checked here, where a misplaced one shows.
        positions = _candidate_positions(ratios)
        values = [Fraction(0)] + [_candidate_value(ratios, p) for p in positions[1:]]
        assert values == _reference_candidates(ratios)
        for t, p in zip(values, positions):
            for j, r in enumerate(ratios):
                assert ((r > t), (r == t)) == ((2 * j + 1 > p), (2 * j + 1 == p))


class TestOracleMatchesReference:
    """brute_force_oracle sums in integers over one denominator; the
    Fraction-only reference must give the same risk, acceptances, t and
    boundary fractions exactly."""

    @pytest.mark.parametrize("dyadic", [False, True], ids=["plain", "dyadic"])
    def test_random_instances(self, dyadic):
        rng = random.Random(4242 + dyadic)
        for _ in range(40):
            dist = random_instance(rng, n_max=8, dyadic=dyadic)
            for kind in DisparityKind:
                for delta in ORACLE_DELTAS:
                    assert_oracle_matches_reference(dist, kind, delta)

    @pytest.mark.parametrize(
        "scores",
        [(0.25, 0.5, 0.75), (0.5,), (0.0, 1.0), (0.0, 0.5, 1.0, 0.25)],
        ids=["tie-prone", "half", "zero-weight", "mixed"],
    )
    def test_special_scores(self, scores):
        # Scores from a small set tie boundary ratios across atoms and
        # groups; eta = 1/2 puts a ratio at 0, where the t = 0 candidate
        # sits; eta in {0, 1} gives the DO and PD measures zero-weight atoms.
        rng = random.Random(str(scores))
        for _ in range(30):
            n = rng.randint(2, 8)
            etas = [rng.choice(scores) if rng.random() < 0.75 else rng.uniform(0.05, 0.95) for _ in range(n)]
            dist = instance_from(rng, etas)
            if not all(exact_cells(dist)):  # an empty cell, e.g. every score 0
                continue
            for kind in DisparityKind:
                for delta in ORACLE_DELTAS:
                    assert_oracle_matches_reference(dist, kind, delta)

    @given(
        dist=finite_instances(),
        kind=st.sampled_from(list(DisparityKind)),
        delta=st.one_of(st.sampled_from(ORACLE_DELTAS), st.floats(0.0, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_drawn_instances(self, dist, kind, delta):
        assume(all(exact_cells(dist)))
        assert_oracle_matches_reference(dist, kind, delta)
