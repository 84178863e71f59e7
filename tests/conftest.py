"""Shared fixtures and strategies for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fairthresh import fair_algorithms
from fairthresh.core import DisparityKind, GroupStats, natural_domain
from fairthresh.estimators import MODE_AWARE, LogisticParams, ProbModel
from fairthresh.gaussian import GaussianModel
from fairthresh.solver import DisparityCurve, SolverError


def normalized_stats(raw: list[float]) -> GroupStats:
    total = sum(raw)
    return GroupStats(p11=raw[0] / total, p10=raw[1] / total, p01=raw[2] / total, p00=raw[3] / total)


# Cells bounded away from 0 so thresholds and weights stay well-conditioned.
stats_strategy = st.builds(
    normalized_stats,
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4),
)

kind_strategy = st.sampled_from(list(DisparityKind))


@pytest.fixture
def table_stats() -> GroupStats:
    """The canonical cell probabilities used across the experiment protocol."""
    return GroupStats(p11=0.49, p10=0.21, p01=0.12, p00=0.18)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(652901)


def random_stats(rng: np.random.Generator, low: float = 0.05) -> GroupStats:
    raw = rng.uniform(low, 1.0, size=4)
    return normalized_stats(list(raw))


def exact_prob_model(model: GaussianModel) -> ProbModel:
    """Group-aware logistic model whose predictions equal gaussian.eta exactly.

    With a shared isotropic noise scale, the within-group log odds of the
    label are affine in x, so the true regression function lies inside the
    logistic family: a zero-estimation-error input to plug-in pipelines.
    """
    groups: dict[int, LogisticParams] = {}
    var = model.sigma**2
    for a in (0, 1):
        mu1 = model.mu(a, 1)
        mu0 = model.mu(a, 0)
        coef = (mu1 - mu0) / var
        intercept = math.log(model.stats.p(a, 1) / model.stats.p(a, 0)) + (
            float(mu0 @ mu0) - float(mu1 @ mu1)
        ) / (2.0 * var)
        groups[a] = LogisticParams(
            intercept=float(intercept),
            coef=np.asarray(coef, dtype=float),
            mean=np.zeros(model.dim),
            scale=np.ones(model.dim),
        )
    return ProbModel(MODE_AWARE, groups)


def is_monotone_nonincreasing(
    curve: DisparityCurve, n_points: int = 64, slack: float = 0.0
) -> bool:
    """Sampled monotonicity audit over the curve's bracket, both ends included."""
    if n_points < 2:
        raise SolverError(f"need at least two sample points, got {n_points!r}")
    ts = [curve.t_lo + (curve.t_hi - curve.t_lo) * i / (n_points - 1) for i in range(n_points)]
    values = [curve(t) for t in ts]
    return all(values[i + 1] <= values[i] + slack for i in range(len(values) - 1))


def empirical_curve(dataset, config, method, model=None) -> DisparityCurve:
    """The training-disparity curve of a pipeline, D as a function of t.

    fuds and fcsc: the curve their bisection evaluates, refitting at each
    t.  fpir: the step curve of the t = 0 plug-in rule's flip points,
    decided at t without randomization, over the measure's natural domain;
    it reads and fills no plug-in slot.
    """
    if method != "fpir":
        return fair_algorithms._build_curve(dataset, config, method)
    kind = config.base_kind
    stats = GroupStats.from_counts(*(len(dataset.rows(*c)) for c in fair_algorithms._CELLS))
    rule = fair_algorithms._fpir_prepare(dataset, config, stats, model)
    inputs = fair_algorithms._RuleInputs.build(*rule.inputs(dataset.x, dataset.a))

    def disparity(t: float) -> float:
        return fair_algorithms._rate_gap(kind, dataset, fair_algorithms._decide(inputs, t))

    return DisparityCurve.from_domain(disparity, natural_domain(kind, stats))
