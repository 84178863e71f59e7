"""Exact fair-optimal randomized classifiers on finite-support scores.

When the score distribution has atoms, group-fair classification may place
positive mass exactly on the decision boundary, and deterministic
thresholding cannot hit the disparity budget. The optimum then randomizes
on the boundary set. This module solves that problem exactly: every float
input is a binary rational, so all decisions (boundary membership, step
levels of the disparity envelope, the interpolated acceptance fractions)
are carried out in ``fractions.Fraction`` arithmetic with zero rounding
error, and reported risks and disparities are exact rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import DisparityKind, DomainError, GroupStats
from .solver import SolverError

__all__ = [
    "FiniteDistribution",
    "RandomizedClassifier",
    "risk_exact",
    "disparity_exact",
    "solve_randomized",
    "brute_force_oracle",
]

_ORACLE_ATOM_CAP = 12

Rational = Fraction


@dataclass(frozen=True)
class FiniteDistribution:
    """A finitely supported joint law of (score eta, group A).

    Each atom is ``(group, mass, eta)`` with unconditional mass: masses sum
    to one over both groups, and the per-group totals play the role of the
    group marginals.
    """

    atoms: tuple[tuple[int, float, float], ...]

    def __init__(self, atoms) -> None:
        object.__setattr__(self, "atoms", tuple((int(a), float(m), float(e)) for a, m, e in atoms))
        groups = {a for a, _, _ in self.atoms}
        if not self.atoms:
            raise DomainError("distribution needs at least one atom")
        if not groups <= {0, 1}:
            raise DomainError(f"group labels must be 0 or 1, got {sorted(groups)}")
        if groups != {0, 1}:
            raise DomainError("every group needs at least one atom")
        for a, m, e in self.atoms:
            if m <= 0.0:
                raise DomainError(f"atom mass {m!r} must be positive")
            if not 0.0 <= e <= 1.0:
                raise DomainError(f"atom score {e!r} outside [0, 1]")
        total = sum(Fraction(m) for _, m, _ in self.atoms)
        if abs(total - 1) > Fraction(1, 10**9):
            raise DomainError(f"atom masses sum to {float(total)!r}, expected 1")

    def implied_stats(self) -> GroupStats:
        """Cell probabilities induced by the atoms: p_{a,1} = sum of m*eta
        over group a. Raises when a cell is empty (degenerate scores)."""
        cells = {(a, y): Fraction(0) for a in (0, 1) for y in (0, 1)}
        for a, m, e in self.atoms:
            mf, ef = Fraction(m), Fraction(e)
            cells[(a, 1)] += mf * ef
            cells[(a, 0)] += mf * (1 - ef)
        return GroupStats(
            p11=float(cells[(1, 1)]),
            p10=float(cells[(1, 0)]),
            p01=float(cells[(0, 1)]),
            p00=float(cells[(0, 0)]),
        )


@dataclass(frozen=True)
class RandomizedClassifier:
    """Per-atom acceptance probabilities, with the threshold parameter and
    boundary fractions that produced them (when built by a solver)."""

    accept: tuple[Rational, ...]
    t_star: Rational | None = None
    tau_plus: Rational = field(default=Fraction(0))
    tau_minus: Rational = field(default=Fraction(0))

    def __post_init__(self) -> None:
        for f in self.accept:
            if not 0 <= f <= 1:
                raise DomainError(f"acceptance probability {f!r} outside [0, 1]")


def _exact_coeffs(kind: DisparityKind, stats: GroupStats) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Bilinear weight coefficients (s, b) per group as exact rationals."""
    p11, p10 = Fraction(stats.p11), Fraction(stats.p10)
    p01, p00 = Fraction(stats.p01), Fraction(stats.p00)
    zero = Fraction(0)
    if kind is DisparityKind.DD:
        b1, b0 = 1 / (p11 + p10), -1 / (p01 + p00)
        return (zero, zero), (b0, b1)
    if kind is DisparityKind.DO:
        return (-1 / p01, 1 / p11), (zero, zero)
    return (1 / p00, -1 / p10), (-1 / p00, 1 / p10)


@dataclass(frozen=True)
class _Atom:
    mass: Fraction
    eta: Fraction
    w: Fraction
    ratio: Fraction | None  # (2*eta - 1) / w, None when w == 0


def _prepare(dist: FiniteDistribution, kind: DisparityKind, stats: GroupStats) -> list[_Atom]:
    (s0, s1), (b0, b1) = _exact_coeffs(kind, stats)
    out = []
    for a, m, e in dist.atoms:
        mf, ef = Fraction(m), Fraction(e)
        w = (s1 * ef + b1) if a == 1 else (s0 * ef + b0)
        ratio = (2 * ef - 1) / w if w != 0 else None
        out.append(_Atom(mass=mf, eta=ef, w=w, ratio=ratio))
    return out


def risk_exact(dist: FiniteDistribution, classifier: RandomizedClassifier) -> Fraction:
    """Misclassification rate sum of m*((1 - 2*eta)*f + eta), exactly."""
    if len(classifier.accept) != len(dist.atoms):
        raise DomainError(
            f"classifier covers {len(classifier.accept)} atoms, distribution has {len(dist.atoms)}"
        )
    total = Fraction(0)
    for (a, m, e), f in zip(dist.atoms, classifier.accept):
        mf, ef = Fraction(m), Fraction(e)
        total += mf * ((1 - 2 * ef) * Fraction(f) + ef)
    return total


def disparity_exact(
    dist: FiniteDistribution, kind: DisparityKind, stats: GroupStats, classifier: RandomizedClassifier
) -> Fraction:
    """Signed disparity sum of m*w*f of a randomized classifier, exactly."""
    if len(classifier.accept) != len(dist.atoms):
        raise DomainError(
            f"classifier covers {len(classifier.accept)} atoms, distribution has {len(dist.atoms)}"
        )
    atoms = _prepare(dist, kind, stats)
    return sum((at.mass * at.w * Fraction(f) for at, f in zip(atoms, classifier.accept)), Fraction(0))


def _accepts(atoms: list[_Atom], t: Fraction, tau_plus: Fraction, tau_minus: Fraction) -> tuple[Fraction, ...]:
    out = []
    for at in atoms:
        if at.w == 0:
            out.append(Fraction(1) if at.eta > Fraction(1, 2) else Fraction(0))
        elif at.w > 0:
            out.append(Fraction(1) if at.ratio > t else tau_plus if at.ratio == t else Fraction(0))
        else:
            out.append(Fraction(1) if at.ratio < t else tau_minus if at.ratio == t else Fraction(0))
    return tuple(out)


def solve_randomized(
    dist: FiniteDistribution, kind: DisparityKind, stats: GroupStats, delta: float
) -> RandomizedClassifier:
    """Risk-minimal classifier with |disparity| <= delta, exactly.

    The threshold parameter is the smallest |t| at which the envelope
    [D_min(t), D_max(t)] meets the budget; the boundary atoms of each
    weight side are then accepted with one common fraction per side, at
    most one of them strictly between 0 and 1, which lands the disparity
    exactly on its target. Finite support makes every budget attainable,
    so this never fails.
    """
    if delta < 0:
        raise SolverError(f"disparity budget {delta!r} must be nonnegative")
    atoms = _prepare(dist, kind, stats)
    live = [at for at in atoms if at.w != 0]
    contrib = [at.mass * at.w for at in live]
    # Integer contributions in units of 1/scale keep the sums cheap and exact.
    scale = math.lcm(*(c.denominator for c in contrib))
    t_star, tau_plus, tau_minus, _ = solve_breakpoints(
        np.array([at.ratio for at in live], dtype=object),
        np.array([at.w > 0 for at in live], dtype=bool),
        np.array([c.numerator * (scale // c.denominator) for c in contrib], dtype=object),
        Fraction(delta) * scale,
    )
    return RandomizedClassifier(
        accept=_accepts(atoms, t_star, tau_plus, tau_minus),
        t_star=Fraction(t_star),
        tau_plus=tau_plus,
        tau_minus=tau_minus,
    )


def solve_breakpoints(
    ratio: np.ndarray,
    positive: np.ndarray,
    contrib: np.ndarray,
    budget: Fraction,
    base: int = 0,
) -> tuple[object, Fraction, Fraction, Fraction]:
    """Smallest-|t| member of a randomized threshold family with |D| <= budget.

    Item i is accepted when its boundary ratio lies above t (positive weight
    side) or below t (negative side), and then adds contrib[i] to
    D = base + the accepted contributions; items whose ratio equals t are
    accepted with the fraction tau_plus or tau_minus of their side. One sort
    and cumulative sums give the envelope of D at every distinct ratio; the
    ratio of least magnitude whose envelope meets the budget wins, and the
    boundary fractions land D on the budget. Returns (t, tau_plus,
    tau_minus, D). Contributions and base are integers, so every sum is
    exact; budget and D are exact rationals in the same units. Used by
    solve_randomized and by the plug-in pipeline's exact solve, which
    passes its arrays without keeping them, so they are freed once sorted.
    """
    # A null item makes t = 0 a candidate. The order inside a tie group is
    # free (its sums are exact integers), so the sort need not be stable.
    # One array at a time, so large inputs are not held twice over.
    ratio = np.concatenate(([0], ratio))
    order = np.argsort(ratio)
    ratio = ratio[order]
    positive = np.concatenate(([True], positive))[order]
    contrib = np.concatenate(([0], contrib))[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], ratio[1:] != ratio[:-1])))
    ratios = ratio[starts]
    del ratio
    # Any member may lead the t = 0 group, -0.0 among them; the null item's
    # 0 names it (0.0 on float inputs).
    ratios[ratios == 0] = 0
    plus = np.add.reduceat(np.where(positive, contrib, 0), starts)
    minus = np.add.reduceat(np.where(positive, 0, contrib), starts)
    del positive, contrib, starts
    # Strictly accepted at each ratio: positive items above it, negative below.
    zero = base + (plus[::-1].cumsum()[::-1] - plus) + (minus.cumsum() - minus)
    bound = math.floor(budget)  # an integer meets the budget iff it meets its floor
    feasible = np.flatnonzero(
        (zero + np.minimum(plus, 0) + np.minimum(minus, 0) <= bound)
        & (zero + np.maximum(plus, 0) + np.maximum(minus, 0) >= -bound)
    )
    if feasible.size == 0:
        raise SolverError(f"disparity budget {float(budget)!r} unreachable at any threshold")
    k = int(feasible[np.argmin(np.abs(ratios[feasible]))])
    # Land as near the budget allows to D just on the side of k facing 0.
    inner = zero[k] + (plus[k] if ratios[k] > 0 else minus[k] if ratios[k] < 0 else 0)
    target = min(budget, max(-budget, Fraction(int(inner))))
    need = target - int(zero[k])
    taus = []
    for side in (int(plus[k]), int(minus[k])):
        tau = min(Fraction(1), need / side) if need * side > 0 else Fraction(0)
        need -= tau * side
        taus.append(tau)
    assert need == 0  # the envelope at k contains the target
    return ratios[k], taus[0], taus[1], target


def brute_force_oracle(
    dist: FiniteDistribution, kind: DisparityKind, stats: GroupStats, delta: float
) -> tuple[Fraction, RandomizedClassifier]:
    """Exhaustive reference optimum over the randomized threshold family.

    Enumerates every distinct boundary ratio, the midpoints between
    consecutive ratios, and sentinels beyond both ends. At each candidate
    parameter the two per-side boundary fractions form a linear program
    over the unit square cut by the band |disparity| <= delta, whose
    optimum sits at a vertex; all vertices are enumerated. Exact rational
    arithmetic end to end.
    """
    if delta < 0:
        raise SolverError(f"disparity budget {delta!r} must be nonnegative")
    if len(dist.atoms) > _ORACLE_ATOM_CAP:
        raise SolverError(
            f"oracle capped at {_ORACLE_ATOM_CAP} atoms, got {len(dist.atoms)}"
        )
    deltaf = Fraction(delta)
    atoms = _prepare(dist, kind, stats)
    ratios = sorted({at.ratio for at in atoms if at.ratio is not None})

    candidates: list[Fraction] = [Fraction(0)]
    if ratios:
        candidates.append(ratios[0] - 1)
        candidates.extend(ratios)
        candidates.extend((a + b) / 2 for a, b in zip(ratios, ratios[1:]))
        candidates.append(ratios[-1] + 1)

    best: tuple[Fraction, Fraction, Fraction, Fraction] | None = None  # risk, t, u, v
    for t in candidates:
        base_risk = sum((at.mass * at.eta for at in atoms), Fraction(0))
        d0 = Fraction(0)
        gain_plus = gain_minus = Fraction(0)  # disparity slopes of u, -v
        cost_plus = cost_minus = Fraction(0)  # risk slopes of u, v
        for at in atoms:
            slope = at.mass * (1 - 2 * at.eta)
            if at.w == 0:
                if at.eta > Fraction(1, 2):
                    base_risk += slope
            elif at.w > 0:
                if at.ratio > t:
                    base_risk += slope
                    d0 += at.mass * at.w
                elif at.ratio == t:
                    gain_plus += at.mass * at.w
                    cost_plus += slope
            else:
                if at.ratio < t:
                    base_risk += slope
                    d0 += at.mass * at.w
                elif at.ratio == t:
                    gain_minus -= at.mass * at.w
                    cost_minus += slope

        vertices: list[tuple[Fraction, Fraction]] = []
        for u in (Fraction(0), Fraction(1)):
            for v in (Fraction(0), Fraction(1)):
                if abs(d0 + u * gain_plus - v * gain_minus) <= deltaf:
                    vertices.append((u, v))
        for bound in (deltaf, -deltaf):
            if gain_minus != 0:
                for u in (Fraction(0), Fraction(1)):
                    v = (d0 + u * gain_plus - bound) / gain_minus
                    if 0 <= v <= 1:
                        vertices.append((u, v))
            if gain_plus != 0:
                for v in (Fraction(0), Fraction(1)):
                    u = (bound - d0 + v * gain_minus) / gain_plus
                    if 0 <= u <= 1:
                        vertices.append((u, v))

        for u, v in vertices:
            risk = base_risk + u * cost_plus + v * cost_minus
            if best is None or risk < best[0]:
                best = (risk, t, u, v)

    if best is None:
        raise SolverError("no feasible randomized classifier found")
    risk, t, u, v = best
    classifier = RandomizedClassifier(
        accept=_accepts(atoms, t, u, v), t_star=t, tau_plus=u, tau_minus=v
    )
    return risk, classifier
