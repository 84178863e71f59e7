"""Acceptance gate: twelve numbered criteria, one verdict line each.

Each test prints ``criterion NN [...]: PASS/FAIL (...)`` with the measured
quantities, then asserts.  Criteria 1 and 2 share one 720-run study
(3 methods x 3 measures x 4 budgets x 20 seeds at n = 10^4 / 5*10^3).
"""
from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from fairthresh.oracles import check_discrete_suite, check_eqodds_suite, check_grid_suite
from fairthresh.core import (
    DisparityKind,
    GroupStats,
    cost_weights,
    natural_domain,
    threshold,
)
from fairthresh.estimators import (
    LabeledDataset,
    LogisticConfig,
    LogisticParams,
    fit_group_models,
    nll,
    nll_gradient,
    predict_proba,
)
from fairthresh.extensions import solve_multiclass_dp
from fairthresh.fair_algorithms import (
    FairFitConfig,
    evaluate,
    fuds_proportions,
    run_fcsc,
    run_fuds,
    run_fpir,
)
from fairthresh.gaussian import (
    default_model,
    disparity_curve_closed,
    model_from_seed,
    risk_closed,
    sample,
    theoretical_fair_classifier,
)
from fairthresh.solver import check_tradeoff_bounds, trace_pareto

from conftest import empirical_curve, exact_prob_model, is_monotone_nonincreasing

KINDS = (DisparityKind.DD, DisparityKind.DO, DisparityKind.PD)
DELTAS = (0.0, 0.1, 0.2, 0.3)
METHODS = ("fuds", "fcsc", "fpir")
N_SEEDS = 20
LEARNER = LogisticConfig()


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def study(model):
    """The shared 720-run study behind criteria 1 and 2."""
    references = {
        (kind, delta): theoretical_fair_classifier(model, kind, delta, tol=1e-6)
        for kind in KINDS
        for delta in DELTAS
    }
    achieved = {(m, k, d): [] for m in METHODS for k in KINDS for d in DELTAS}
    accuracy = {(m, k, d): [] for m in METHODS for k in KINDS for d in DELTAS}
    start = time.perf_counter()
    for seed in range(1, N_SEEDS + 1):
        train = sample(model, 10_000, 20_000 + seed)
        test = sample(model, 5_000, 30_000 + seed)
        prefit = fit_group_models(train, config=LEARNER)
        for kind in KINDS:
            for delta in DELTAS:
                config = FairFitConfig(
                    kind=kind,
                    delta=delta,
                    tol=2**-10,
                    seed=seed,
                )
                runs = {
                    "fuds": lambda: run_fuds(train, config),
                    "fcsc": lambda: run_fcsc(train, config),
                    "fpir": lambda: run_fpir(train, config, model=prefit),
                }
                for method in METHODS:
                    classifier, _, _ = runs[method]()
                    metrics = evaluate(classifier, test)
                    achieved[(method, kind, delta)].append(metrics[kind.value])
                    accuracy[(method, kind, delta)].append(metrics["accuracy"])
    elapsed = time.perf_counter() - start
    return {
        "achieved": achieved,
        "accuracy": accuracy,
        "references": references,
        "elapsed": elapsed,
    }


def test_criterion_01_disparity_control(study):
    worst = 0.0
    worst_cell = None
    for cell, values in study["achieved"].items():
        deviation = abs(sum(values) / len(values) - cell[2])
        if deviation > worst:
            worst, worst_cell = deviation, cell
    ok = worst <= 0.03 and study["elapsed"] < 300.0
    verdict(
        1,
        "disparity control",
        ok,
        f"720 runs, worst 20-seed mean deviation {worst:.4f} at "
        f"{worst_cell[0]}/{worst_cell[1].value}/delta={worst_cell[2]}, "
        f"runtime {study['elapsed']:.1f}s < 300s",
    )


def test_criterion_02_near_optimal_accuracy(study):
    worst = math.inf
    worst_cell = None
    for (method, kind, delta), values in study["accuracy"].items():
        floor = 1.0 - study["references"][(kind, delta)].risk - 0.015
        margin = sum(values) / len(values) - floor
        if margin < worst:
            worst, worst_cell = margin, (method, kind, delta)
    ok = worst >= 0.0
    verdict(
        2,
        "near-optimal accuracy",
        ok,
        f"smallest margin over (closed-form - 0.015) is {worst:+.4f} at "
        f"{worst_cell[0]}/{worst_cell[1].value}/delta={worst_cell[2]}",
    )


def test_criterion_03_discrete_oracle():
    failures: list[str] = []
    start = time.perf_counter()
    summary = check_discrete_suite(0, failures)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    verdict(3, "discrete oracle equivalence", ok, f"{summary}, runtime {elapsed:.1f}s < 30s")


def test_criterion_04_bisection_vs_grid():
    failures: list[str] = []
    summary = check_grid_suite(failures)
    verdict(4, "bisection vs grid", not failures, summary)


def test_criterion_05_closed_form_vs_monte_carlo(model):
    n = 1_000_000
    data = sample(model, n, 16180)
    scores = predict_proba(exact_prob_model(model), data.x, data.a)
    stats = model.stats
    cells = {
        (a, y): (data.a == a) & (data.y == y) for a in (0, 1) for y in (0, 1)
    }
    groups = {a: data.a == a for a in (0, 1)}

    def rate_and_se(mask, dec):
        m = int(mask.sum())
        r = float(dec[mask].mean())
        return r, math.sqrt(max(r * (1.0 - r), 1e-12) / m)

    worst_z = 0.0
    checks = 0
    for kind in KINDS:
        curve = disparity_curve_closed(model, kind)
        lo, hi = natural_domain(kind, stats)
        for i in range(10):
            t = 0.85 * lo + (0.85 * hi - 0.85 * lo) * i / 9.0
            h0 = threshold(kind, stats, 0, t)
            h1 = threshold(kind, stats, 1, t)
            dec = np.where(data.a == 1, scores > h1, scores > h0)
            if kind is DisparityKind.DD:
                r1, se1 = rate_and_se(groups[1], dec)
                r0, se0 = rate_and_se(groups[0], dec)
            else:
                y = 1 if kind is DisparityKind.DO else 0
                r1, se1 = rate_and_se(cells[(1, y)], dec)
                r0, se0 = rate_and_se(cells[(0, y)], dec)
            d_mc = r1 - r0
            d_se = math.sqrt(se1**2 + se0**2)
            risk_mc = float((dec != (data.y == 1)).mean())
            risk_se = math.sqrt(max(risk_mc * (1.0 - risk_mc), 1e-12) / n)
            z_d = abs(curve(t) - d_mc) / d_se
            z_r = abs(risk_closed(model, kind, t) - risk_mc) / risk_se
            worst_z = max(worst_z, z_d, z_r)
            checks += 2
    verdict(
        5,
        "closed form vs Monte Carlo",
        worst_z <= 3.0,
        f"{checks} comparisons at 10^6 samples, worst |z| {worst_z:.2f} <= 3",
    )


def test_criterion_06_frontier_convexity(model):
    worst_convexity = math.inf
    worst_bound = 0.0
    for kind in KINDS:
        curve = disparity_curve_closed(model, kind)
        baseline = curve(0.0)
        deltas = [baseline * 0.95 * i / 19.0 for i in range(20)]
        deltas.sort()
        rows = trace_pareto(
            curve, lambda t: risk_closed(model, kind, t), deltas, tol=1e-10
        )
        risks = [row.risk for row in rows]
        for i in range(1, len(risks) - 1):
            worst_convexity = min(
                worst_convexity, risks[i + 1] - 2.0 * risks[i] + risks[i - 1]
            )
        check = check_tradeoff_bounds(rows, tol=1e-6)
        worst_bound = max(worst_bound, check.worst_violation)
    ok = worst_convexity >= -1e-8 and worst_bound <= 1e-6
    verdict(
        6,
        "frontier convexity and tradeoff bounds",
        ok,
        f"min second difference {worst_convexity:.2e} >= -1e-8, "
        f"worst pairwise bound violation {worst_bound:.2e} <= 1e-6",
    )


def _random_stats(rng: random.Random) -> GroupStats:
    raw = [rng.uniform(0.2, 1.0) for _ in range(4)]
    total = sum(raw)
    return GroupStats(*(v / total for v in raw))


def _interior_t(rng: random.Random, kind: DisparityKind, stats: GroupStats) -> float:
    lo, hi = natural_domain(kind, stats)
    u = rng.uniform(-0.9, 0.9)
    return u * (hi if u >= 0.0 else -lo)


def test_criterion_07_resampled_bayes_rule_identity():
    rng = random.Random(505)
    checks = 0
    ties = 0
    for _ in range(50):
        stats = _random_stats(rng)
        for kind in KINDS:
            t = _interior_t(rng, kind, stats)
            props = fuds_proportions(stats, kind, t)
            for a in (0, 1):
                h = threshold(kind, stats, a, t)
                lift1 = props[(a, 1)] / stats.p(a, 1)
                lift0 = props[(a, 0)] / stats.p(a, 0)
                for _ in range(12):
                    s = rng.uniform(0.02, 0.98)
                    tilted = s * lift1 / (s * lift1 + (1.0 - s) * lift0)
                    if abs(tilted - 0.5) < 1e-10 or abs(s - h) < 1e-10:
                        ties += 1
                        continue
                    assert (tilted > 0.5) == (s > h), (
                        f"atom eta={s} group={a} kind={kind.value} t={t}: resampled "
                        f"posterior {tilted} vs threshold {h}"
                    )
                    checks += 1
    verdict(
        7,
        "resampled Bayes rule identity",
        checks >= 3000 and ties <= 5,
        f"{checks} atoms agree across 50 (stats, t) draws x 3 measures "
        f"({ties} boundary atoms skipped)",
    )


def test_criterion_08_cost_minimizer_identity():
    rng = random.Random(808)
    checks = 0
    ties = 0
    for _ in range(50):
        stats = _random_stats(rng)
        for kind in KINDS:
            t = _interior_t(rng, kind, stats)
            for a in (0, 1):
                h = threshold(kind, stats, a, t)
                c0 = cost_weights(kind, stats, a, 0, t)
                c1 = cost_weights(kind, stats, a, 1, t)
                for _ in range(12):
                    s = rng.uniform(0.02, 0.98)
                    accept_cost = (1.0 - s) * c0  # false positives weighted c0
                    reject_cost = s * c1  # false negatives weighted c1
                    if abs(accept_cost - reject_cost) < 1e-12 or abs(s - h) < 1e-10:
                        ties += 1
                        continue
                    assert (accept_cost < reject_cost) == (s > h), (
                        f"atom eta={s} group={a} kind={kind.value} t={t}: costs "
                        f"({c0}, {c1}) disagree with threshold {h}"
                    )
                    checks += 1
    verdict(
        8,
        "cost minimizer identity",
        checks >= 3000 and ties <= 5,
        f"{checks} atoms agree across 50 (stats, t) draws x 3 measures "
        f"({ties} boundary atoms skipped)",
    )


def test_criterion_09_equalized_odds():
    failures: list[str] = []
    summary = check_eqodds_suite(failures)
    verdict(9, "equalized odds vs grid oracle", not failures, summary)


def test_criterion_10_multiclass_parity():
    means = (-0.5, 0.2, 0.9)
    p_groups = (0.25, 0.35, 0.40)

    def survival_curve(m: float):
        def curve(tau: float) -> float:
            logit = math.log(tau / (1.0 - tau))
            return 0.5 * math.erfc((logit - m) / math.sqrt(2.0))

        return curve

    result = solve_multiclass_dp([survival_curve(m) for m in means], list(p_groups))
    offset_sum = abs(math.fsum(result.t))
    acc_range = max(result.acceptance) - min(result.acceptance)
    ok = offset_sum <= 1e-10 and acc_range < 1e-6
    verdict(
        10,
        "three-group parity thresholds",
        ok,
        f"|sum of offsets| {offset_sum:.2e} <= 1e-10, "
        f"acceptance range {acc_range:.2e} < 1e-6",
    )


def test_criterion_11_monotone_curves(model):
    closed_ok = True
    for seed in range(101, 106):
        m = model_from_seed(seed)
        for kind in KINDS:
            curve = disparity_curve_closed(m, kind)
            closed_ok = closed_ok and is_monotone_nonincreasing(curve, 64, slack=1e-12)

    risk_ok = True
    for kind in KINDS:
        curve = disparity_curve_closed(model, kind)
        pos = [curve.t_hi * 0.999 * i / 24.0 for i in range(25)]
        neg = [curve.t_lo * 0.999 * i / 24.0 for i in range(25)]
        for grid in (pos, neg):  # both move outward from t = 0
            risks = [risk_closed(model, kind, t) for t in grid]
            risk_ok = risk_ok and all(
                b >= a - 1e-12 for a, b in zip(risks, risks[1:])
            )

    train = sample(model, 4_000, 77)
    prefit = fit_group_models(train, config=LEARNER)
    empirical_ok = True
    for kind in KINDS:
        config = FairFitConfig(kind=kind, delta=0.1, tol=2**-10)
        curve = empirical_curve(train, config, "fpir", model=prefit)
        empirical_ok = empirical_ok and is_monotone_nonincreasing(curve, 25, slack=1e-12)

    ok = closed_ok and risk_ok and empirical_ok
    verdict(
        11,
        "monotone disparity and risk curves",
        ok,
        f"closed curves nonincreasing: {closed_ok}; risk nondecreasing in |t|: "
        f"{risk_ok}; empirical plug-in curves nonincreasing: {empirical_ok}",
    )


def test_criterion_12_logistic_gradient():
    rng = np.random.default_rng(1212)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 5))
        dataset = LabeledDataset(
            x=rng.normal(size=(n, d)),
            a=rng.integers(0, 2, size=n),
            y=rng.integers(0, 2, size=n),
        ).with_weights(rng.uniform(0.2, 2.0, size=n))
        params = LogisticParams(
            intercept=float(rng.normal()),
            coef=rng.normal(size=d),
            mean=rng.normal(size=d),
            scale=rng.uniform(0.5, 2.0, size=d),
        )
        l2 = float(rng.choice([0.0, 0.1]))
        grad_b, grad_w = nll_gradient(dataset, params, l2=l2)
        analytic = np.concatenate([[grad_b], grad_w])
        fd = np.empty(d + 1)
        for j in range(d + 1):
            shifted = []
            for sign in (1.0, -1.0):
                b = params.intercept + sign * h * (j == 0)
                coef = params.coef.copy()
                if j > 0:
                    coef[j - 1] += sign * h
                shifted.append(
                    nll(
                        dataset,
                        LogisticParams(
                            intercept=b, coef=coef, mean=params.mean, scale=params.scale
                        ),
                        l2=l2,
                    )
                )
            fd[j] = (shifted[0] - shifted[1]) / (2.0 * h)
        err = float(
            np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
        )
        worst = max(worst, err)
    verdict(
        12,
        "logistic gradient vs finite differences",
        worst <= 1e-5,
        f"100 random points, worst relative error {worst:.2e} <= 1e-5",
    )
