"""Deterministic parallel simulation engine for estimator sweeps.

A study draws ``reps`` independent censored samples of size ``n`` from a
known (X, C) pair, evaluates every configured estimator at every k in a
grid, and aggregates per (k, estimator) cell: median bias, MSE about the
true index of X, mean, variance and the count of degenerate replicates
(which are excluded from the statistics).

Reproducibility contract: replicate r uses a fresh generator seeded by
SeedSequence(entropy=(seed, r)) and draws the X block first, then the C
block.  Replicates are therefore independent of scheduling, and the
aggregation consumes them in replicate order, so the result is bitwise
identical for any worker count.  The worker count
comes from the CENSORED_EVI_THREADS environment variable when not given
explicitly.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .censoring import make_censored
from .distributions import DistributionSpec
from .estimators import EstimateRecord, EstimatorSpec, Family, Method, estimate
from .kaplan_meier import fit

__all__ = [
    "StudyDesign",
    "StudyCell",
    "StudyResult",
    "build_specs",
    "run_replicate",
    "run_study",
    "aggregate",
    "resolve_workers",
]

ENV_THREADS = "CENSORED_EVI_THREADS"


def build_specs(families, methods, alphas) -> tuple[EstimatorSpec, ...]:
    """Cartesian product of families x methods x alphas, canonical order."""
    return tuple(
        EstimatorSpec(family=f, method=m, alpha=float(a))
        for f in families for m in methods for a in alphas
    )


@dataclass(frozen=True)
class StudyDesign:
    dist_x: DistributionSpec
    dist_c: DistributionSpec
    n: int
    reps: int
    k_grid: tuple[int, ...]
    specs: tuple[EstimatorSpec, ...]
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.k_grid:
            raise ValueError("k grid must not be empty")
        if not all(1 <= k < self.n for k in self.k_grid):
            raise ValueError(f"every k must satisfy 1 <= k < n={self.n}")
        if not self.specs:
            raise ValueError("at least one estimator spec is required")
        ex, ec = self.dist_x.endpoint, self.dist_c.endpoint
        if abs(ex - ec) > 1e-12 * max(1.0, abs(ex)):
            raise ValueError(f"endpoint mismatch: {ex!r} vs {ec!r}")

    @property
    def gamma_x(self) -> float:
        return self.dist_x.theoretical_evi()

    @property
    def gamma_c(self) -> float:
        return self.dist_c.theoretical_evi()


@dataclass(frozen=True)
class StudyCell:
    """Aggregates for one (k, estimator) cell; NaN statistics and
    degenerate_count == reps mark a cell with no usable replicate."""

    k: int
    spec: EstimatorSpec
    median_bias: float
    mse: float
    mean: float
    variance: float
    degenerate_count: int


@dataclass(frozen=True)
class StudyResult:
    design: StudyDesign
    cells: tuple[StudyCell, ...]


def run_replicate(design: StudyDesign, replicate_index: int) -> list[EstimateRecord]:
    """All (k, spec) estimates on one fresh sample; deterministic in
    (design.seed, replicate_index) alone."""
    if not 0 <= replicate_index < design.reps:
        raise ValueError(f"replicate_index out of range: {replicate_index}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(design.seed, replicate_index))
    )
    x = design.dist_x.sample(rng, design.n)
    c = design.dist_c.sample(rng, design.n)
    # Positivity is not enforced here: endpoint-anchored families may put
    # mass below zero, while only the top-k statistics enter any formula.
    s = make_censored(x, c, require_positive=False)
    curves = fit(s)
    return [rec for k in design.k_grid for rec in estimate(s, k, design.specs, curves)]


def _cell_sort_key(cell: StudyCell):
    return (
        cell.k,
        list(Family).index(cell.spec.family),
        list(Method).index(cell.spec.method),
        cell.spec.alpha,
    )


def aggregate(records_per_replicate: Iterable[list[EstimateRecord]],
              design: StudyDesign) -> StudyResult:
    """Reduce replicate records (in replicate order, read once) to
    per-cell stats.

    Degenerate records are excluded; mse and bias are taken about the
    true index of X.  Cells come out sorted by (k, family, method, alpha).
    """
    gamma_x = design.gamma_x
    values: dict[tuple[int, EstimatorSpec], list[float]] = {
        (k, spec): [] for k in design.k_grid for spec in design.specs
    }
    degenerate: dict[tuple[int, EstimatorSpec], int] = {key: 0 for key in values}
    for records in records_per_replicate:
        for rec in records:
            key = (rec.k, rec.spec)
            if rec.degenerate:
                degenerate[key] += 1
            else:
                values[key].append(rec.value)
    cells = []
    for (k, spec), vals in values.items():
        if vals:
            arr = np.asarray(vals)
            mean = float(np.mean(arr))
            cell = StudyCell(
                k=k,
                spec=spec,
                median_bias=float(np.median(arr)) - gamma_x,
                mse=float(np.mean((arr - gamma_x) ** 2)),
                mean=mean,
                variance=float(np.mean((arr - mean) ** 2)),
                degenerate_count=degenerate[(k, spec)],
            )
        else:
            nan = float("nan")
            cell = StudyCell(k=k, spec=spec, median_bias=nan, mse=nan,
                             mean=nan, variance=nan,
                             degenerate_count=degenerate[(k, spec)])
        cells.append(cell)
    cells.sort(key=_cell_sort_key)
    return StudyResult(design=design, cells=tuple(cells))


def resolve_workers(workers: int | None, reps: int) -> int:
    if workers is None:
        env = os.environ.get(ENV_THREADS)
        if not env:
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(env)
            except ValueError:
                workers = 0  # reported below, like any non-positive value
            if workers < 1:
                raise ValueError(f"{ENV_THREADS} must be a positive integer, got {env!r}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return min(workers, reps)


def _replicate_task(args: tuple[StudyDesign, int]) -> list[EstimateRecord]:
    return run_replicate(*args)


def run_study(design: StudyDesign, workers: int | None = None) -> StudyResult:
    """Run all replicates (in parallel when workers > 1) and aggregate.

    The output is independent of the worker count: replicates are pure
    functions of (seed, index) and are reduced in index order.
    """
    workers = resolve_workers(workers, design.reps)
    indices = range(design.reps)
    if workers == 1:
        return aggregate([run_replicate(design, r) for r in indices], design)
    chunk = max(1, design.reps // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # Reduced as they arrive, in replicate order, so the records of
        # all replicates are never held at once.
        per_rep = pool.map(_replicate_task, [(design, r) for r in indices], chunksize=chunk)
        return aggregate(per_rep, design)
