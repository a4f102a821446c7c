"""Deterministic parallel simulation engine for estimator sweeps.

A study draws ``reps`` independent censored samples of size ``n`` from a
known (X, C) pair, evaluates every configured estimator at every k in a
grid, and aggregates per (k, estimator) cell: median bias, MSE about the
true index of X, mean, variance and the count of degenerate replicates
(which are excluded from the statistics).

Replicates run in batches of ``R = max(1, _BATCH_VALUES // n)``
consecutive indices (32 at n = 500), so a batch's sample arrays hold at
most about ``_BATCH_VALUES`` values.  ``_batch_values`` maps the batch's
uniforms through each family's quantile once, builds one ``(R, n)``
censored sample and makes one ``estimate`` call over the whole k-grid,
which yields the batch's ``(R, len(k_grid), len(specs))`` value array;
every library call on the way acts along the last axis, so a row of the
batch gets the bits its sample gets on its own.  ``run_study`` stores
each batch at its rows of one ``(reps, len(k_grid), len(specs))`` array,
and a pool task is one batch.  ``aggregate`` reduces that array along
the replicate axis.
``StudyResult`` keeps each statistic as a ``(len(k_grid), len(specs))``
column and builds its per-cell ``cells`` view on demand.
``run_replicate`` is the per-record view of the batch of one replicate.

Reproducibility contract: replicate r uses a fresh generator seeded by
SeedSequence(entropy=(seed, r)) and draws its X uniforms first, then its
C uniforms with ``Generator.random``, and maps each through its law's
quantile as drawn, an exact zero included.  Replicates are therefore
independent of scheduling, each lands at its own index, and the
aggregation sums in replicate order, so the result is bitwise identical
for any batch size and any worker count.
The worker count comes from the CENSORED_EVI_THREADS environment
variable when not given explicitly, and is a maximum.  The first two
batches run in-process, and the second is timed, since the first also
pays for what is loaded and warmed on first use; the other batches go to
a pool only when the time a pool would save on them, as measured by the
second, exceeds the pool's fixed cost ``_POOL_COST_S``, which depends on
how the pool starts its workers.  A pool starts all its workers up
front, so it has at most one worker per remaining batch, and a study of
up to three batches never starts one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .censoring import CensoredSample, checked_ks, make_censored
from .distributions import DistributionSpec, _common_endpoint, _decimal
from .estimators import EstimateRecord, EstimatorSpec, _rank, estimate

__all__ = [
    "StudyDesign",
    "StudyCell",
    "StudyResult",
    "run_replicate",
    "run_study",
    "aggregate",
    "resolve_workers",
]

ENV_THREADS = "CENSORED_EVI_THREADS"

# Sample values one batch holds: a batch has max(1, _BATCH_VALUES // n)
# rows of n.  Larger batches make fewer Python calls per replicate but hold
# larger arrays; 2**14 was chosen from the benchmark's speed and peak
# memory at 2**13, 2**14 and 2**15 (CHANGES.md).
_BATCH_VALUES = 2 ** 14

# Seconds a process pool costs whatever its work, by the start method of
# its workers: starting them, handing out the batches and collecting their
# values, and stopping it.  Measured on a 2-CPU Linux machine with workers
# that import the package (CHANGES.md); a pool pays only when it saves more
# than this.  A new process (spawn, the default on macOS and Windows) or a
# fork of a server process (forkserver, the default on Linux from Python
# 3.14) imports the package again, which fork does not.
_POOL_COST_S = {"fork": 0.03, "forkserver": 0.25, "spawn": 0.3}


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
    # The X and C uniforms of each row, replaced by their quantiles below.
    u = np.empty((2, stop - start, design.n))
    for row, r in enumerate(range(start, stop)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(design.seed, r)))
        rng.random(out=u[0, row])  # X first, then C
        rng.random(out=u[1, row])
    x, c = design.dist_x.quantile(u[0]), design.dist_c.quantile(u[1])
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
        EstimateRecord(k=k, spec=spec, value=value, p_hat=p_hat[i])
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
    """The most workers a pool may have for ``tasks`` tasks: ``workers``,
    or CENSORED_EVI_THREADS when it is None, or else the CPUs this process
    may run on; never more than ``tasks``."""
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


def _pool_cost_s() -> float:
    """_POOL_COST_S of the start method a new pool would take."""
    import multiprocessing  # here, so that serial studies do not load it

    method = multiprocessing.get_start_method(allow_none=True)
    return _POOL_COST_S[method or multiprocessing.get_all_start_methods()[0]]


def run_study(design: StudyDesign, workers: int | None = None) -> StudyResult:
    """Run all replicates in batches and aggregate.

    The first two batches run in-process, and the second is timed.  The
    remaining batches run on a pool of ``w = min(workers, remaining
    batches)`` processes when ``second batch time * remaining batches *
    (1 - 1/w)``, the time the pool would save, exceeds its fixed cost
    ``_POOL_COST_S`` for the start method that multiprocessing would use,
    and in-process otherwise; ``workers`` (or CENSORED_EVI_THREADS) is
    thus a maximum.  The output is independent of the worker count and of
    the batch size: replicates are pure functions of (seed, index), stored
    at their index and reduced in index order.
    """
    rows = max(1, _BATCH_VALUES // design.n)
    starts = range(0, design.reps, rows)
    stops = [min(start + rows, design.reps) for start in starts]
    remaining = max(len(starts) - 2, 0)  # the batches after the first two
    workers = resolve_workers(workers, max(remaining, 1))
    values = np.empty((design.reps, len(design.k_grid), len(design.specs)))
    # The first batch also pays for what numpy and the library load and
    # warm on first use, so the second is the one timed.
    for start, stop in zip(starts[:2], stops):
        clock = perf_counter()
        values[start:stop] = _batch_values(design, start, stop)[1]
    saving = (perf_counter() - clock) * remaining * (1 - 1 / workers)
    tasks = ([design] * remaining, starts[2:], stops[2:])

    def store(batches):
        for start, stop, (_, batch) in zip(*tasks[1:], batches):
            values[start:stop] = batch

    if saving <= 0 or saving <= _pool_cost_s():
        store(map(_batch_values, *tasks))
    else:
        # imported here, so that studies without a pool do not load its machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            store(pool.map(_batch_values, *tasks))
    return aggregate(values, design)
