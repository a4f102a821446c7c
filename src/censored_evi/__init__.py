"""Tail index estimation for randomly right-censored data in the
short-tailed (negative extreme value index) regime.

The pipeline: build a ``CensoredSample`` from (x, c) pairs or (z, delta)
observations, form tail log-moments weighted through its product-limit
survival curve (``fit``), and combine them with one of nine estimators
(three combination families crossed with three weighting methods).  A
deterministic Monte Carlo engine reproduces simulation studies, and the
``censored-evi`` CLI wraps estimation, simulation and SVG plotting.
"""

from .censoring import (
    CensoredSample,
    from_observations,
    make_censored,
    tail_uncensored_proportion,
)
from .distributions import (
    BetaDist,
    GPD,
    ReverseBurr,
    distribution_literal,
    parse_distribution,
)
from .estimators import (
    EstimateRecord,
    EstimatorSpec,
    Family,
    Method,
    build_specs,
    combine_moment,
    combine_type1,
    combine_type2,
    estimate,
)
from .kaplan_meier import fit
from .moments import tail_moments
from .montecarlo import (
    StudyCell,
    StudyDesign,
    StudyResult,
    aggregate,
    resolve_workers,
    run_replicate,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "BetaDist",
    "GPD",
    "ReverseBurr",
    "parse_distribution",
    "distribution_literal",
    "CensoredSample",
    "make_censored",
    "from_observations",
    "tail_uncensored_proportion",
    "fit",
    "tail_moments",
    "Family",
    "Method",
    "EstimatorSpec",
    "EstimateRecord",
    "combine_moment",
    "combine_type1",
    "combine_type2",
    "estimate",
    "StudyDesign",
    "StudyCell",
    "StudyResult",
    "aggregate",
    "build_specs",
    "resolve_workers",
    "run_replicate",
    "run_study",
    "__version__",
]
