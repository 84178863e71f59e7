"""Monotone bisection over disparity curves.

bisect is the package's one halving routine: every monotone one-dimensional
search (the solve below, the fuds bracket clamp, the equalized-odds and
multi-group solvers in extensions) calls it.  The central solve: given a
monotone non-increasing curve t -> D(t) and a tolerance level delta, find
the smallest |t| with |D(t)| <= delta.  Built on top of it: Pareto-frontier
tracing over a delta grid and a verifier for the frontier's adjacent-point
tradeoff bounds.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "DEFAULT_TOL",
    "SolverError",
    "BracketError",
    "DisparityCurve",
    "SolveResult",
    "FrontierRow",
    "TradeoffCheck",
    "solve_threshold",
    "trace_pareto",
    "check_tradeoff_bounds",
]

# Bracket-width target used throughout the experiment protocol.
DEFAULT_TOL = 2.0 ** -15

_DOMAIN_SHRINK = 1e-9

# Attainment flag: returned disparity within this distance of the target
# counts as exact; step curves with larger jumps get exact=False.
_EXACT_SLACK = 1e-2


class SolverError(ValueError):
    """Base error for curve solving."""


class BracketError(SolverError):
    """The target disparity level is unreachable inside the bracket."""


@dataclass(frozen=True)
class DisparityCurve:
    """Evaluator t -> D(t) with the bracket on which it is defined.

    D must be monotone non-increasing on [t_lo, t_hi]; this is relied on,
    not checked.
    """

    fn: Callable[[float], float]
    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        if not self.t_lo < self.t_hi:
            raise SolverError(f"empty bracket [{self.t_lo!r}, {self.t_hi!r}]")

    def __call__(self, t: float) -> float:
        return self.fn(t)

    @classmethod
    def from_domain(
        cls, fn: Callable[[float], float], domain: tuple[float, float]
    ) -> "DisparityCurve":
        """The natural domain, edges shrunk.

        The shrink keeps evaluations away from domain endpoints where group
        thresholds reach 0 or 1.
        """
        return cls(fn=fn, t_lo=domain[0] + _DOMAIN_SHRINK, t_hi=domain[1] - _DOMAIN_SHRINK)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_threshold.

    iterations counts midpoint evaluations only; evaluations additionally
    includes the probes at 0 and at the far bracket end.  exact=False flags
    step curves whose jump carried D past the target (the constraint still
    holds at the returned t).
    """

    t_star: float
    d_at_t: float
    iterations: int
    evaluations: int
    converged: bool
    exact: bool


class FrontierRow(NamedTuple):
    delta: float
    t: float
    risk: float
    disparity: float


class TradeoffCheck(NamedTuple):
    ok: bool
    worst_violation: float
    worst_pair: int | None


def bisect(
    inside: Callable[[float], bool],
    good: float,
    bad: float,
    steps: int | None = None,
    width: float = 0.0,
) -> tuple[float, float]:
    """Halve the segment between a point where inside holds and one where it fails.

    inside is called at midpoints only, never at either end; each midpoint
    replaces the end on its side.  Stops after steps midpoints (no cap when
    None), once |good - bad| <= width, or when the midpoint rounds onto an
    end (the ends are then adjacent floats).  Returns the final (good, bad).
    """
    count = 0
    while abs(good - bad) > width and (steps is None or count < steps):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        count += 1
        if inside(mid):
            good = mid
        else:
            bad = mid
    return good, bad


def solve_threshold(
    curve: DisparityCurve, delta: float, tol: float = DEFAULT_TOL
) -> SolveResult:
    """Smallest-|t| point of the curve with |D(t)| <= delta.

    Shortcut at t=0 when already feasible; otherwise bisect from 0 toward the
    bracket edge on the side where the constraint binds, sign * D(t) > delta
    marking the infeasible points (sign = +1 when D(0) > delta, else -1).  The
    returned end, the last feasible midpoint or the checked bracket edge,
    satisfies sign * D <= delta only: with a tol wider than the distance to
    the crossing, the edge can come back with D past -sign * delta.
    """
    if not (math.isfinite(delta) and delta >= 0.0):
        raise SolverError(f"disparity budget {delta!r} must be finite and nonnegative")
    if not (math.isfinite(tol) and tol > 0.0):
        raise SolverError(f"tol must be positive, got {tol!r}")
    if not curve.t_lo <= 0.0 <= curve.t_hi:
        raise BracketError(f"bracket [{curve.t_lo!r}, {curve.t_hi!r}] must contain 0")

    d0 = curve(0.0)
    if not math.isfinite(d0):
        raise SolverError(f"curve evaluated non-finite at t=0: {d0!r}")
    if abs(d0) <= delta:
        return SolveResult(0.0, d0, iterations=0, evaluations=1, converged=True, exact=True)

    # Mirroring t and D is exact in floats, so both sides share one walk;
    # a NaN midpoint counts as feasible on either side.
    if d0 > delta:
        sign, edge, target, relation = 1, curve.t_hi, delta, "> delta"
    else:
        sign, edge, target, relation = -1, curve.t_lo, -delta, "< -delta"
    values = {edge: curve(edge)}
    if sign * values[edge] > delta:
        raise BracketError(
            f"D({edge!r}) = {values[edge]!r} {relation} = {target!r}: "
            "target unreachable inside bracket"
        )

    def feasible(t: float) -> bool:
        values[t] = curve(t)
        return not sign * values[t] > delta

    t_star, t_out = bisect(feasible, edge, 0.0, width=tol)
    iterations = len(values) - 1
    return SolveResult(
        t_star=t_star,
        d_at_t=values[t_star],
        iterations=iterations,
        evaluations=iterations + 2,
        converged=abs(t_star - t_out) <= tol,
        exact=abs(values[t_star] - target) <= _EXACT_SLACK,
    )


def trace_pareto(
    curve: DisparityCurve,
    risk_eval: Callable[[float], float],
    deltas: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> list[FrontierRow]:
    """One frontier row per delta: (delta, t, risk at t, disparity at t).

    The solves share one memo of D, as they share their start at 0 and the
    bracket edge and their first midpoints: D must be a function of t alone.
    """
    if list(deltas) != sorted(deltas):
        raise SolverError("delta grid must be sorted ascending")
    shared = DisparityCurve(functools.cache(curve.fn), curve.t_lo, curve.t_hi)
    rows = []
    for delta in deltas:
        res = solve_threshold(shared, delta, tol)
        rows.append(
            FrontierRow(
                delta=float(delta),
                t=res.t_star,
                risk=float(risk_eval(res.t_star)),
                disparity=res.d_at_t,
            )
        )
    return rows


def check_tradeoff_bounds(rows: Sequence[FrontierRow], tol: float = 1e-6) -> TradeoffCheck:
    """Adjacent-pair sandwich on the frontier's risk decrease.

    For delta_1 < delta_2 with thresholds t_1, t_2 >= 0 and risks T_1, T_2:
    t_2 * (delta_2 - delta_1) <= T_1 - T_2 <= t_1 * (delta_2 - delta_1).
    """
    if len(rows) < 2:
        raise SolverError("need at least two frontier rows")
    if any(r.t < 0.0 for r in rows):
        raise SolverError("tradeoff bounds apply on the t >= 0 branch only")
    worst = 0.0
    worst_pair = None
    for i in range(len(rows) - 1):
        r1, r2 = rows[i], rows[i + 1]
        gap = r2.delta - r1.delta
        drop = r1.risk - r2.risk
        lower_excess = r2.t * gap - drop
        upper_excess = drop - r1.t * gap
        violation = max(lower_excess, upper_excess, 0.0)
        if violation > worst:
            worst, worst_pair = violation, i
    return TradeoffCheck(ok=worst <= tol, worst_violation=worst, worst_pair=worst_pair)

