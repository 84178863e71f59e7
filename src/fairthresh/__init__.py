"""Disparity-controlled binary classification.

The library fits classifiers whose group disparity (demographic difference,
opportunity difference, or predictive-rate difference) is held within a
budget, trading the smallest possible amount of accuracy for it.  Thresholds
come from a closed form indexed by a single scalar t.  The refitting
pipelines bisect t; the plug-in pipeline solves its step curve exactly
from the sorted per-row flip points and randomizes the boundary rows, so
the training disparity lands on the budget.

Module map:

- ``core``: disparity measures, group statistics, the threshold and cost
  formulas, and the shared exception types.
- ``solver``: monotone bisection over disparity curves, frontier tracing,
  and tradeoff bound checks.
- ``discrete``: exact rational solver and brute-force oracle on
  finite-support distributions; its sorted-breakpoint solve also serves
  the plug-in pipeline.
- ``extensions``: equalized odds (two budgets at once) and multi-group
  parity thresholds.
- ``estimators``: datasets, weighted logistic regression, and cell
  statistics.
- ``gaussian``: a synthetic two-group model with closed-form curves for
  calibration and study reproduction.
- ``fair_algorithms``: the three training pipelines (resampling, cost
  reweighting, plug-in thresholding) with group-aware and group-blind
  variants, plus evaluation.
- ``oracles``: the ``oracle-check`` suites, loaded by ``cli``, not the package.
- ``cli``: the ``fairthresh`` command line front end, imported on first
  access (``fairthresh.cli``) rather than with the package.
"""
from .core import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .discrete import *  # noqa: F401,F403
from .extensions import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .fair_algorithms import *  # noqa: F401,F403

from . import core, discrete, estimators, extensions, fair_algorithms, gaussian, solver

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI loads on first access, not with the package: run as
    # ``python -m fairthresh.cli``, it would otherwise already be imported
    # when runpy executes it, and runpy warns about that.
    if name == "cli":
        import importlib

        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [  # noqa: PLE0604
    *core.__all__,
    *solver.__all__,
    *discrete.__all__,
    *extensions.__all__,
    *estimators.__all__,
    *gaussian.__all__,
    *fair_algorithms.__all__,
    "cli",
    "__version__",
]
