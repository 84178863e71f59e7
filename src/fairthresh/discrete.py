"""Exact fair-optimal randomized classifiers on finite-support scores.

When the score distribution has atoms, group-fair classification may place
positive mass exactly on the decision boundary, and deterministic
thresholding cannot hit the disparity budget. The optimum then randomizes
on the boundary set. This module solves that problem exactly. The solvers
read only the distribution: the disparity weights come from its four cell
masses, summed once from the atoms as exact rationals (``implied_stats``
is a float view of them, not an input). Every float input is a binary
rational, so all decisions (boundary membership, step levels of the
disparity envelope, the interpolated acceptance fractions) are carried out
in ``fractions.Fraction`` arithmetic, or in integers over a common
denominator, with zero rounding error, and reported risks and disparities
are exact rationals.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import DisparityError, DisparityKind, DomainError, GroupStats, _coeff_table
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

_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def _units(q: Fraction, scale: int) -> int:
    """q as an integer count of 1/scale; q's denominator divides scale."""
    return q.numerator * (scale // q.denominator)


@dataclass(frozen=True)
class _Terms:
    """An atom's exact mass and score with its kind-free risk terms."""

    mass: Fraction
    eta: Fraction
    held: Fraction  # mass * eta, its risk when rejected
    slope: Fraction  # mass * (1 - 2*eta), its risk change when accepted

    @classmethod
    def of(cls, m: float, e: float) -> "_Terms":
        mf, ef = Fraction(m), Fraction(e)
        held = mf * ef
        return cls(mf, ef, held, mf - 2 * held)


@dataclass(frozen=True)
class FiniteDistribution:
    """A finitely supported joint law of (score eta, group A).

    Each atom is ``(group, mass, eta)`` with unconditional mass: masses sum
    to one over both groups, and the per-group totals play the role of the
    group marginals.
    """

    atoms: tuple[tuple[int, float, float], ...]
    # Built once here: exact terms per atom, the risk of rejecting every atom,
    # that risk and the slopes as integer counts of 1/scale (risk_exact), and
    # the cell masses (p11, p10, p01, p00).  Built once per kind: the exact
    # atoms and their disparity units (_prepare), the Breakpoints of
    # solve_randomized and the table of brute_force_oracle, each serving
    # every budget.  All kept out of eq, hash and repr.
    _terms: tuple[_Terms, ...] = field(init=False, repr=False, compare=False)
    _reject_risk: Fraction = field(init=False, repr=False, compare=False)
    _risk_units: tuple[int, int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _cells: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _prepared: dict = field(init=False, repr=False, compare=False)
    _sorted: dict = field(init=False, repr=False, compare=False)
    _oracle: dict = field(init=False, repr=False, compare=False)

    def __init__(self, atoms) -> None:
        atoms = tuple((a, float(m), float(e)) for a, m, e in atoms)
        if not atoms:
            raise DomainError("distribution needs at least one atom")
        # Checked before the cast, so that int() cannot truncate 0.5 to 0.
        for a, _, _ in atoms:
            if a not in (0, 1):
                raise DomainError(f"group labels must be 0 or 1, got {a!r}")
        object.__setattr__(self, "atoms", tuple((int(a), m, e) for a, m, e in atoms))
        if {a for a, _, _ in self.atoms} != {0, 1}:
            raise DomainError("every group needs at least one atom")
        for a, m, e in self.atoms:
            if not (math.isfinite(m) and m > 0.0):
                raise DomainError(f"atom mass {m!r} must be positive and finite")
            if not 0.0 <= e <= 1.0:
                raise DomainError(f"atom score {e!r} outside [0, 1]")
        terms = tuple(_Terms.of(m, e) for _, m, e in self.atoms)
        total = sum((t.mass for t in terms), _ZERO)
        if abs(total - 1) > Fraction(1, 10**9):
            raise DomainError(f"atom masses sum to {float(total)!r}, expected 1")
        cells = {(a, y): _ZERO for a in (1, 0) for y in (1, 0)}
        for (a, _, _), t in zip(self.atoms, terms):
            cells[a, 1] += t.held
            cells[a, 0] += t.mass - t.held
        reject_risk = sum((t.held for t in terms), _ZERO)
        scale = math.lcm(reject_risk.denominator, *(t.slope.denominator for t in terms))
        slopes = tuple(_units(t.slope, scale) for t in terms)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_reject_risk", reject_risk)
        object.__setattr__(self, "_risk_units", (scale, _units(reject_risk, scale), slopes))
        object.__setattr__(self, "_cells", tuple(cells.values()))
        object.__setattr__(self, "_prepared", {})
        object.__setattr__(self, "_sorted", {})
        object.__setattr__(self, "_oracle", {})

    def implied_stats(self) -> GroupStats:
        """Float view of the exact cell masses (p_{a,1} = sum of m*eta over group a)
        over their exact total, which may miss 1 by up to 1e-9. Raises when a cell is empty."""
        total = sum(self._cells)
        return GroupStats(*(float(c / total) for c in self._cells))


@dataclass(frozen=True)
class RandomizedClassifier:
    """Per-atom acceptance probabilities, with the threshold parameter and
    boundary fractions that produced them (when built by a solver)."""

    accept: tuple[Fraction, ...]
    t_star: Fraction | None = None
    tau_plus: Fraction = field(default=Fraction(0))
    tau_minus: Fraction = field(default=Fraction(0))

    def __post_init__(self) -> None:
        for f in self.accept:
            # A Fraction (denominator > 0) is checked on its integers.
            if not (0 <= f.numerator <= f.denominator if type(f) is Fraction else 0 <= f <= 1):
                raise DomainError(f"acceptance probability {f!r} outside [0, 1]")


@dataclass(frozen=True)
class _Atom:
    eta: Fraction
    w: Fraction
    mw: Fraction  # mass * w, the atom's disparity contribution when accepted
    slope: Fraction  # mass * (1 - 2*eta), its risk change when accepted
    ratio: Fraction | None  # (2*eta - 1) / w, None when w == 0


def _prepare(dist: FiniteDistribution, kind: DisparityKind) -> tuple:
    """The exact atoms of dist under kind, a scale, and each atom's disparity
    contribution m*w as an integer count of 1/scale, built once per kind."""
    prepared = dist._prepared.get(kind)
    if prepared is None:
        if not all(dist._cells):
            raise DisparityError(f"all four cell masses must be positive, got {dist._cells}")
        (s0, s1), (b0, b1) = _coeff_table(kind, *dist._cells)
        atoms = []
        for (a, _, _), t in zip(dist.atoms, dist._terms):
            w = (s1 * t.eta + b1) if a == 1 else (s0 * t.eta + b0)
            ratio = (2 * t.eta - 1) / w if w != 0 else None
            atoms.append(_Atom(t.eta, w, mw=t.mass * w, slope=t.slope, ratio=ratio))
        scale = math.lcm(*(at.mw.denominator for at in atoms))
        units = tuple(_units(at.mw, scale) for at in atoms)
        prepared = dist._prepared[kind] = tuple(atoms), scale, units
    return prepared


def _sum_units(scale: int, whole: int, units: tuple[int, ...], accept) -> Fraction:
    """(whole + the sum of units[i] * accept[i]) / scale, exactly: an atom
    accepted with 1 adds an integer, a fractional one adds one Fraction."""
    part = _ZERO
    for u, f in zip(units, accept):
        if f == 1:
            whole += u
        elif f:
            part += u * Fraction(f)
    return (part + whole) / scale


def _check_cover(dist: FiniteDistribution, classifier: RandomizedClassifier) -> None:
    if len(classifier.accept) != len(dist.atoms):
        raise DomainError(
            f"classifier covers {len(classifier.accept)} atoms, distribution has {len(dist.atoms)}"
        )


def risk_exact(dist: FiniteDistribution, classifier: RandomizedClassifier) -> Fraction:
    """Misclassification rate sum of m*((1 - 2*eta)*f + eta), exactly, summed
    as integer counts of one common unit made once per distribution."""
    _check_cover(dist, classifier)
    return _sum_units(*dist._risk_units, classifier.accept)


def disparity_exact(
    dist: FiniteDistribution, kind: DisparityKind, classifier: RandomizedClassifier
) -> Fraction:
    """Signed disparity sum of m*w*f of a randomized classifier, exactly,
    summed as integer counts of one common unit made once per kind."""
    _check_cover(dist, classifier)
    _, scale, units = _prepare(dist, kind)
    return _sum_units(scale, 0, units, classifier.accept)


def _accepts(atoms: tuple[_Atom, ...], t: Fraction, tau_plus: Fraction, tau_minus: Fraction) -> tuple[Fraction, ...]:
    out = []
    for at in atoms:
        if at.ratio is None:  # w == 0
            out.append(_ONE if at.eta > _HALF else _ZERO)
        elif at.w > 0:
            out.append(_ONE if at.ratio > t else tau_plus if at.ratio == t else _ZERO)
        else:
            out.append(_ONE if at.ratio < t else tau_minus if at.ratio == t else _ZERO)
    return tuple(out)


def solve_randomized(
    dist: FiniteDistribution, kind: DisparityKind, delta: float
) -> RandomizedClassifier:
    """Risk-minimal classifier with |disparity| <= delta, exactly.

    The threshold parameter is the smallest |t| at which the envelope
    [D_min(t), D_max(t)] meets the budget; the boundary atoms of each
    weight side are then accepted with one common fraction per side, at
    most one of them strictly between 0 and 1, which lands the disparity
    exactly on its target. Finite support makes every budget attainable,
    so this never fails. The flip points are sorted on the first call per
    kind and kept on dist, so later budgets pay only the solve.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise SolverError(f"disparity budget {delta!r} must be finite and nonnegative")
    atoms, scale, units = _prepare(dist, kind)
    if kind not in dist._sorted:
        # Integer contributions in units of 1/scale keep the sums cheap and exact.
        live = [(at, u) for at, u in zip(atoms, units) if at.ratio is not None]
        dist._sorted[kind] = Breakpoints.sort(
            np.array([at.ratio for at, _ in live], dtype=object),
            np.array([at.w > 0 for at, _ in live], dtype=bool),
            np.array([u for _, u in live], dtype=object),
        )
    t_star, tau_plus, tau_minus, _ = dist._sorted[kind].solve(Fraction(delta) * scale)
    return RandomizedClassifier(
        accept=_accepts(atoms, t_star, tau_plus, tau_minus),
        t_star=Fraction(t_star),
        tau_plus=tau_plus,
        tau_minus=tau_minus,
    )


@dataclass(frozen=True)
class Breakpoints:
    """The distinct flip points of a randomized threshold family, ascending,
    with the sums of D that a budget search reads: at ratios[i], plus[i] and
    minus[i] total the contributions of the positive and negative side's
    items there, zero[i] is D with those items rejected, and least[i] is
    the least |D| that accepting any fractions of them reaches.  The arrays
    are read-only, and none depends on a budget."""

    ratios: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    zero: np.ndarray
    least: np.ndarray

    @classmethod
    def sort(
        cls, ratio: np.ndarray, positive: np.ndarray, contrib: np.ndarray, base: int = 0
    ) -> "Breakpoints":
        """Sort the items of a family once, for any number of budgets.

        Item i is accepted when its boundary ratio lies above t (positive
        weight side) or below t (negative side), and then adds contrib[i] to
        D = base + the accepted contributions; items whose ratio equals t are
        accepted with the fraction tau_plus or tau_minus of their side.
        Contributions and base are integers, so every sum is exact.  The
        inputs are not kept.
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
        # D at each ratio ranges over [low, high] as the fractions move.
        low = zero + np.minimum(plus, 0) + np.minimum(minus, 0)
        high = zero + np.maximum(plus, 0) + np.maximum(minus, 0)
        least = np.maximum(np.maximum(low, -high), 0)
        for array in (ratios, plus, minus, zero, least):
            array.setflags(write=False)  # one sort may serve many budgets
        return cls(ratios, plus, minus, zero, least)

    def solve(self, budget: Fraction) -> tuple[object, Fraction, Fraction, Fraction]:
        """Smallest-|t| member of the family with |D| <= budget.

        The ratio of least magnitude whose least |D| meets the budget wins,
        and the boundary fractions land D on the budget.  Returns (t,
        tau_plus, tau_minus, D); budget and D are exact rationals in the
        units of the contributions.  The landing runs in integers over the
        budget's denominator; a Fraction is made only for D and for a
        boundary fraction strictly between 0 and 1.
        """
        ratios, plus, minus = self.ratios, self.plus, self.minus
        n, q = budget.numerator, budget.denominator
        bound = n // q  # an integer meets the budget iff it meets its floor
        feasible = np.flatnonzero(self.least <= bound)
        if feasible.size == 0:
            raise SolverError(f"disparity budget {float(budget)!r} unreachable at any threshold")
        k = int(feasible[np.argmin(np.abs(ratios[feasible]))])
        # Land as near the budget allows to D just on the side of k facing 0;
        # target and need count units of 1/q.
        inner = int(self.zero[k] + (plus[k] if ratios[k] > 0 else minus[k] if ratios[k] < 0 else 0))
        target = min(n, max(-n, inner * q))
        need = target - int(self.zero[k]) * q
        taus = []
        for side in (int(plus[k]), int(minus[k])):
            if need * side <= 0:
                tau = _ZERO
            elif abs(need) >= abs(side) * q:
                tau, need = _ONE, need - side * q
            else:
                tau, need = Fraction(need, side * q), 0
            taus.append(tau)
        assert need == 0  # the envelope at k contains the target
        return ratios[k], taus[0], taus[1], Fraction(target, q)


def brute_force_oracle(
    dist: FiniteDistribution, kind: DisparityKind, delta: float
) -> tuple[Fraction, RandomizedClassifier]:
    """Exhaustive reference optimum over the randomized threshold family.

    Enumerates every distinct boundary ratio, the midpoints between
    consecutive ratios, and sentinels beyond both ends. At each candidate
    parameter the two per-side boundary fractions form a linear program
    over the unit square cut by the band |disparity| <= delta, whose
    optimum sits at a vertex; all vertices are enumerated. Exact end to
    end: candidates are compared by their rank among the ratios, sums are
    integers over one common denominator, and vertex risks are compared by
    cross-multiplication. The candidates and their budget-free sums are
    tabled on the first call per kind and kept on dist (_oracle_table), so
    each budget pays only the vertex scan.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise SolverError(f"disparity budget {delta!r} must be finite and nonnegative")
    if len(dist.atoms) > _ORACLE_ATOM_CAP:
        raise SolverError(
            f"oracle capped at {_ORACLE_ATOM_CAP} atoms, got {len(dist.atoms)}"
        )
    ratios, candidates, table_scale, rows = _oracle_table(dist, kind)
    # Every sum below is an integer count of 1/scale, a unit that also counts
    # the budget: the table's sums are lifted to it.
    deltaf = Fraction(delta)
    scale = math.lcm(table_scale, deltaf.denominator)
    budget = _units(deltaf, scale)
    lift = scale // table_scale
    if lift > 1:
        rows = [tuple(x * lift for x in row) for row in rows]

    # risk numerator, its denominator, candidate index, u and v numerators
    best = None
    for index, (base_risk, d0, gain_plus, gain_minus, cost_plus, cost_minus) in enumerate(rows):
        # Vertices (u, v) = (un/den, vn/den) with den > 0.
        vertices = [
            (u, v, 1)
            for u in (0, 1)
            for v in (0, 1)
            if abs(d0 + u * gain_plus + v * gain_minus) <= budget
        ]
        for bound in (budget, -budget):
            if gain_minus:  # v solves d0 + u*gain_plus + v*gain_minus == bound
                for u in (0, 1):
                    num, den = d0 + u * gain_plus - bound, -gain_minus
                    if 0 <= num <= den:
                        vertices.append((u * den, num, den))
            if gain_plus:  # u solves the same for v at 0 or 1
                for v in (0, 1):
                    num, den = bound - d0 - v * gain_minus, gain_plus
                    if 0 <= num <= den:
                        vertices.append((num, v * den, den))

        for un, vn, den in vertices:
            risk = base_risk * den + un * cost_plus + vn * cost_minus
            if best is None or risk * best[1] < best[0] * den:
                best = (risk, den, index, un, vn)

    if best is None:
        raise SolverError("no feasible randomized classifier found")
    risk, den, index, un, vn = best
    t = _ZERO if index == 0 else _candidate_value(ratios, candidates[index])
    u, v = Fraction(un, den), Fraction(vn, den)
    classifier = RandomizedClassifier(
        accept=_accepts(_prepare(dist, kind)[0], t, u, v), t_star=t, tau_plus=u, tau_minus=v
    )
    return Fraction(risk, den * scale), classifier


def _oracle_table(dist: FiniteDistribution, kind: DisparityKind) -> tuple:
    """What brute_force_oracle reads at every budget, built once per kind:
    the sorted distinct ratios, the candidate positions, the unit scale,
    and per candidate the integer counts of 1/scale (base risk, d0,
    gain_plus, gain_minus, cost_plus, cost_minus)."""
    table = dist._oracle.get(kind)
    if table is not None:
        return table
    atoms = _prepare(dist, kind)[0]
    # Live atoms in ratio order, each with the position of its ratio (see
    # _candidate_positions).
    live = sorted((at for at in atoms if at.ratio is not None), key=lambda at: at.ratio)
    ratios: list[Fraction] = []
    positions = []
    for at in live:
        if not ratios or at.ratio != ratios[-1]:
            ratios.append(at.ratio)
        positions.append(2 * len(ratios) - 1)
    candidates = _candidate_positions(ratios)

    # Terms that do not depend on t: the risk of rejecting every atom, and
    # the atoms with w == 0, which eta alone decides.
    fixed_risk = dist._reject_risk + sum(
        (at.slope for at in atoms if at.ratio is None and at.eta > _HALF), _ZERO
    )
    # Per live atom its disparity contribution m*w (positive on the u side)
    # and risk slope.
    scale = math.lcm(
        fixed_risk.denominator, *(q.denominator for at in live for q in (at.mw, at.slope))
    )
    terms = [(pos, _units(at.mw, scale), _units(at.slope, scale)) for pos, at in zip(positions, live)]
    fixed = _units(fixed_risk, scale)

    rows = []
    for t in candidates:  # t is a position, compared with pos
        base_risk = fixed
        # Disparity slopes of u (>= 0) and v (<= 0), and their risk slopes.
        d0 = gain_plus = gain_minus = 0
        cost_plus = cost_minus = 0
        for pos, mw, slope in terms:
            if mw > 0:
                if pos > t:
                    base_risk += slope
                    d0 += mw
                elif pos == t:
                    gain_plus += mw
                    cost_plus += slope
            else:
                if pos < t:
                    base_risk += slope
                    d0 += mw
                elif pos == t:
                    gain_minus += mw
                    cost_minus += slope
        rows.append((base_risk, d0, gain_plus, gain_minus, cost_plus, cost_minus))
    table = dist._oracle[kind] = ratios, candidates, scale, rows
    return table


def _candidate_positions(ratios: list[Fraction]) -> list[int]:
    """The oracle's candidate parameters, in search order, as positions on
    the line of the k sorted distinct ratios: t = 0, the sentinel below
    (0), every ratio (2j + 1), every midpoint (2j + 2), the sentinel above
    (2k). t = 0 takes the position of the ratio it equals, or one between
    its neighbours."""
    k = len(ratios)
    i = bisect.bisect_left(ratios, 0)
    candidates = [2 * i + 1 if i < k and ratios[i] == 0 else 2 * i]
    if ratios:
        candidates += [0, *range(1, 2 * k, 2), *range(2, 2 * k - 1, 2), 2 * k]
    return candidates


def _candidate_value(ratios: list[Fraction], pos: int) -> Fraction:
    """The parameter of a candidate other than t = 0 at its position."""
    if pos == 0:
        return ratios[0] - 1
    if pos == 2 * len(ratios):
        return ratios[-1] + 1
    if pos % 2:
        return ratios[pos // 2]
    return (ratios[pos // 2 - 1] + ratios[pos // 2]) / 2
