"""Deterministic parallel simulation engine for estimator sweeps.

A study draws ``reps`` independent censored samples of size ``n`` from a
known (X, C) pair, evaluates every configured estimator at every k in a
grid, and aggregates per (k, estimator) cell: median bias, MSE about the
true index of X, mean, variance and the count of degenerate replicates
(which are excluded from the statistics).

Replicates run in batches of ``R = max(1, 2**13 // n)`` consecutive
indices (16 at n = 500), so a batch's sample arrays hold at most about
2**13 values.  ``_batch_values`` maps the batch's uniforms through each
family's quantile once, builds one ``(R, n)`` censored sample and makes
one ``estimate`` call over the whole k-grid, which yields the batch's
``(R, len(k_grid), len(specs))`` value array; every library call on the
way acts along the last axis, so a row of the batch gets the bits its
sample gets on its own.  ``run_study`` stores each batch at its rows of
one ``(reps, len(k_grid), len(specs))`` array, and a pool task is one
batch.  ``aggregate`` reduces that array along the replicate axis.
``StudyResult`` keeps each statistic as a ``(len(k_grid), len(specs))``
column and builds its per-cell ``cells`` view on demand.
``run_replicate`` is the per-record view of the batch of one replicate.

Reproducibility contract: replicate r uses a fresh generator seeded by
SeedSequence(entropy=(seed, r)) and draws its X uniforms first, then its
C uniforms.  Replicates are therefore independent of scheduling, each
lands at its own index, and the aggregation sums in replicate order, so
the result is bitwise identical for any batch size and any worker count.
The worker count comes from the CENSORED_EVI_THREADS environment
variable when not given explicitly and is at most the batch count: a
pool starts all its workers up front, and one batch runs in-process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, checked_ks, make_censored
from .distributions import DistributionSpec, _common_endpoint, _decimal, _uniform_open
from .estimators import EstimateRecord, EstimatorSpec, _rank, estimate
from .moments import _CHUNK_TERMS

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


def _first_repeat(entries):
    """The index of the first entry that occurs earlier in ``entries``,
    or None."""
    seen = set()
    for i, entry in enumerate(entries):
        if entry in seen:
            return i
        seen.add(entry)
    return None


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
        checked_ks(self.k_grid, self.n)
        if not self.specs:
            raise ValueError("at least one estimator spec is required")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        i = _first_repeat(self.k_grid)
        if i is not None:
            raise ValueError(f"k grid repeats k={self.k_grid[i]}")
        i = _first_repeat(self.specs)
        if i is not None:
            spec = self.specs[i]
            raise ValueError(f"specs repeat {spec.label} at alpha {spec.alpha!r}")
        _common_endpoint(self.dist_x, self.dist_c)

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


_STATISTICS = ("median_bias", "mse", "mean", "variance")


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Per-cell aggregates as read-only ``(len(k_grid), len(specs))``
    arrays: row i is ``design.k_grid[i]``, column j is ``design.specs[j]``."""

    design: StudyDesign
    median_bias: np.ndarray
    mse: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    degenerate_count: np.ndarray

    @property
    def cells(self) -> tuple[StudyCell, ...]:
        """One StudyCell per (k, spec), sorted by (k, family, method, alpha);
        built from the arrays on each access."""
        design = self.design
        rank = [_rank(spec) for spec in design.specs]
        order = sorted((k, rank[j], i, j)
                       for i, k in enumerate(design.k_grid) for j in range(len(rank)))
        columns = [getattr(self, name).tolist() for name in _STATISTICS]
        counts = self.degenerate_count.tolist()
        return tuple(
            StudyCell(k, design.specs[j], *(column[i][j] for column in columns), counts[i][j])
            for k, _, i, j in order
        )


def _batch_sample(design: StudyDesign, start: int, stop: int) -> CensoredSample:
    """The censored samples of replicates ``start`` to ``stop - 1``, one
    row each; deterministic in design.seed and the replicate indices."""
    n = design.n
    # The uniforms of each row, replaced by their quantiles below.
    x, c = np.empty((stop - start, n)), np.empty((stop - start, n))
    for row, r in enumerate(range(start, stop)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(design.seed, r)))
        x[row] = _uniform_open(rng, n)  # X first, then C
        c[row] = _uniform_open(rng, n)
    x, c = design.dist_x.quantile(x), design.dist_c.quantile(c)
    # Positivity is not enforced here: endpoint-anchored families may put
    # mass below zero, while only the top-k statistics enter any formula.
    return make_censored(x, c, require_positive=False)


def _batch_values(design: StudyDesign, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(p_hat, values) of ``estimate`` over the whole k-grid on the
    samples of replicates ``start`` to ``stop - 1``, one row each."""
    return estimate(_batch_sample(design, start, stop), design.k_grid, design.specs)


def run_replicate(design: StudyDesign, replicate_index: int) -> list[EstimateRecord]:
    """All (k, spec) estimates on one fresh sample, k-major in design
    order; deterministic in (design.seed, replicate_index) alone."""
    if not 0 <= replicate_index < design.reps:
        raise ValueError(f"replicate_index out of range: {replicate_index}")
    p_hat, values = _batch_values(design, replicate_index, replicate_index + 1)
    p_hat, values = p_hat[0].tolist(), values[0].tolist()
    return [
        EstimateRecord(k=k, spec=spec, value=value, p_hat=p_hat[i],
                       degenerate=not math.isfinite(value))
        for i, k in enumerate(design.k_grid)
        for spec, value in zip(design.specs, values[i])
    ]


def aggregate(values, design: StudyDesign) -> StudyResult:
    """Reduce the replicates' estimates to per-cell statistics.

    ``values`` has shape ``(reps, len(k_grid), len(specs))``, replicates
    in index order.  Non-finite (degenerate) values are excluded; mse and
    bias are taken about the true index of X.  Sums run over replicates
    in index order.
    """
    values = np.asarray(values, dtype=float)
    shape = (design.reps, len(design.k_grid), len(design.specs))
    if values.shape != shape:
        raise ValueError(f"values must have shape {shape}, got {values.shape}")
    gamma_x = design.gamma_x
    usable = np.isfinite(values)
    count = usable.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(usable, values, 0.0).sum(axis=0) / count
        mse = np.where(usable, np.square(values - gamma_x), 0.0).sum(axis=0) / count
        variance = np.where(usable, np.square(values - mean), 0.0).sum(axis=0) / count
    # Degenerate values sort last as NaN; the median of the `count` usable
    # ones is the middle one, or the mean of the middle two (NaN when
    # count is 0, as every value of the column is NaN then).
    ordered = np.sort(np.where(usable, values, np.nan), axis=0)
    low = np.take_along_axis(ordered, ((count - 1) // 2)[None], axis=0)[0]
    high = np.take_along_axis(ordered, (count // 2)[None], axis=0)[0]
    median = np.where(count % 2 == 1, low, (low + high) / 2.0)
    columns = dict(
        median_bias=median - gamma_x, mse=mse, mean=mean, variance=variance,
        degenerate_count=design.reps - count,
    )
    for column in columns.values():
        column.flags.writeable = False
    return StudyResult(design=design, **columns)


def resolve_workers(workers: int | None, tasks: int) -> int:
    if workers is None:
        env = os.environ.get(ENV_THREADS)
        if not env:  # the CPUs this process may run on
            workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
        else:
            try:
                workers = _decimal(env, int)
            except ValueError:
                workers = 0  # reported below, like any non-positive value
            if workers < 1:
                raise ValueError(f"{ENV_THREADS} must be a positive integer, got {env!r}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return min(workers, tasks)


def run_study(design: StudyDesign, workers: int | None = None) -> StudyResult:
    """Run all replicates in batches (in parallel when workers > 1) and
    aggregate.

    The output is independent of the worker count and of the batch
    size: replicates are pure functions of (seed, index), stored at their
    index and reduced in index order.
    """
    rows = max(1, _CHUNK_TERMS // design.n)
    starts = range(0, design.reps, rows)
    workers = resolve_workers(workers, len(starts))
    stops = [min(start + rows, design.reps) for start in starts]
    values = np.empty((design.reps, len(design.k_grid), len(design.specs)))

    def store(batches):
        for start, stop, (_, batch) in zip(starts, stops, batches):
            values[start:stop] = batch

    tasks = ([design] * len(starts), starts, stops)
    if workers == 1:
        store(map(_batch_values, *tasks))
    else:
        # imported here, so that serial runs do not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            store(pool.map(_batch_values, *tasks))
    return aggregate(values, design)
