"""Deterministic parallel simulation engine for estimator sweeps.

A study draws ``reps`` independent censored samples of size ``n`` from a
known (X, C) pair, evaluates every configured estimator at every k in a
grid, and aggregates per (k, estimator) cell: median bias, MSE about the
true index of X, mean, variance and the count of degenerate replicates
(which are excluded from the statistics).

Replicates run in the fewest batches of at most ``max(1, _BATCH_VALUES
// n)`` consecutive indices, with sizes that differ by at most one
(``_batches``): at n = 500, 2 of 60 for 120 replicates and 31 of 64 or
65 for 2 000.  A batch's sample arrays thus hold at most about
``_BATCH_VALUES`` values, and since every batch pays a fixed cost of
Python calls whatever its size, a study pays it as few times as that
bound allows.  ``_batch_values`` of ``(start, stop)`` seeds and draws the
uniforms of those ``R`` rows, maps them through each family's quantile
once, builds one ``(R, n)`` censored sample and makes one ``estimate``
call over the whole k-grid, which yields the batch's ``(R,
len(k_grid), len(specs))`` value array;
every library call on the way acts along the last axis, so a row of the
batch gets the bits its sample gets on its own.  ``run_study`` stores
each batch at its rows of one ``(reps, len(k_grid), len(specs))`` array,
and a pool task is one batch.  ``aggregate`` reduces that array along
the replicate axis.
``StudyResult`` keeps each statistic as a ``(len(k_grid), len(specs))``
column; ``_listing`` puts the columns in the order every listing of a
study takes, which ``simulate``'s writer and the per-cell ``cells`` view
share.
``run_replicate`` is the per-record view of the batch of one replicate.

Reproducibility contract: replicate r uses a fresh generator seeded by
SeedSequence(entropy=(seed, r)) and draws its X uniforms first, then its
C uniforms with ``Generator.random``, and maps each through its law's
quantile as drawn, an exact zero included.  Each batch computes the
SeedSequence states of its rows in one vectorised pass of
``_seed_words``, which runs numpy's SeedSequence algorithm and gives the
words numpy's ``generate_state(4, np.uint64)`` gives; the pass holds
about 128 bytes a row, so the batch's size bounds it too.  Each row's
words seed ``PCG64`` through a ``numpy.random.bit_generator.ISeedSequence``,
and a pool task is the batch's ``(design, start, stop)``.  The replicate
index is one 32-bit entropy word, so a study has at most 2**32 replicates.
Replicates are therefore independent of scheduling, each lands at its
own index, and the aggregation sums in replicate order, so the result is
bitwise identical for any batch size and any worker count.
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

import functools
import operator
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .censoring import CensoredSample, checked_ks, make_censored
from .distributions import DistributionSpec, _common_endpoint, _decimal
from .estimators import EstimateRecord, EstimatorSpec, _rank, _reads_alpha, estimate

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

# Sample values one batch holds at most: a study of reps replicates runs
# in the fewest batches of at most max(1, _BATCH_VALUES // n) rows of n,
# with sizes that differ by at most one.  Each batch pays a fixed cost of
# about a millisecond of Python calls whatever its size, so a study pays
# it as few times as its batches allow; 2**15 was chosen from the
# benchmark's speed, peak memory and page faults (CHANGES.md).
_BATCH_VALUES = 2 ** 15

# Seconds a process pool costs whatever its work, by the start method of
# its workers: starting them, handing out the batches and collecting their
# values, and stopping it.  Measured on a 2-CPU Linux machine with workers
# that import the package (CHANGES.md); a pool pays only when it saves more
# than this.  A new process (spawn, the default on macOS and Windows) or a
# fork of a server process (forkserver, the default on Linux from Python
# 3.14) imports the package again, which fork does not.
_POOL_COST_S = {"fork": 0.03, "forkserver": 0.25, "spawn": 0.3}

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the hash constants of its entropy mixing (A) and of its
# state output (B), and the multipliers of its word mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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
        for name in ("n", "reps", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.reps > 2 ** 32:  # a replicate index is one uint32 entropy word
            raise ValueError(f"reps must be <= 2**32, got {self.reps}")
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
        # a family that ignores alpha gives the same estimator at every alpha
        i = _first_repeat([(s.family, s.method, s.alpha if _reads_alpha(s.family) else None)
                           for s in self.specs])
        if i is not None:
            spec = self.specs[i]
            ignored = "" if _reads_alpha(spec.family) else f"; {spec.family.value} ignores alpha"
            raise ValueError(f"specs repeat {spec.label} at alpha {spec.alpha!r}{ignored}")
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


# The columns of StudyResult, in the field order of StudyCell.
_COLUMNS = ("median_bias", "mse", "mean", "variance", "degenerate_count")


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
        """One StudyCell per (k, spec), in ``_listing`` order; built from the
        arrays on each access.  The tests and the benchmark's output checks
        read it; ``simulate`` writes its rows from the columns."""
        ks, specs, *columns = _listing(self)
        return tuple(StudyCell(k, spec, *fields)
                     for k, *rows in zip(ks, *(column.tolist() for column in columns))
                     for spec, *fields in zip(specs, *rows))


def _listing(result: StudyResult) -> tuple:
    """The k-grid, the specs and then the five columns of ``result``, in the
    order of every listing of a study: k ascending, then the specs by
    ``_rank``."""
    design = result.design
    rows = sorted(range(len(design.k_grid)), key=design.k_grid.__getitem__)
    cols = sorted(range(len(design.specs)), key=lambda j: _rank(design.specs[j]))
    at = np.ix_(rows, cols)
    return ([design.k_grid[i] for i in rows], [design.specs[j] for j in cols],
            *(getattr(result, name)[at] for name in _COLUMNS))


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants ``init * mult**i`` mod 2**32 for ``i``
    from 0 to ``count``, as a uint32 column."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h, dtype=np.uint32)[:, None]


def _hashmix(value, h):
    """SeedSequence's ``hashmix`` of ``value`` into row i of the result,
    under the hash constant ``h[i]`` and then ``h[i + 1]``."""
    out = value ^ h[:-1]
    out *= h[1:]
    out ^= out >> 16
    return out


def _mix(x, y):
    """SeedSequence's ``mix`` of ``x`` and ``y``, elementwise."""
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``(stop - start, 4)`` uint64: row i is
    ``np.random.SeedSequence(entropy=(seed, start + i)).generate_state(4,
    np.uint64)``, computed for all rows at once by numpy's algorithm.
    Requires ``0 <= start <= stop <= 2**32``, so each index is one word."""
    words = []  # the seed as uint32 words, least significant first
    while True:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
        if not seed:
            break
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), stop - start), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, stop, dtype=np.uint32)
    h = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], h[:_POOL_SIZE + 1])
    used = _POOL_SIZE  # hash constants taken so far
    for src in range(_POOL_SIZE):  # each pool word into the other three
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], h[used:used + _POOL_SIZE]))
        used += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:  # then each further entropy word into all four
        pool = _mix(pool, _hashmix(word, h[used:used + _POOL_SIZE + 1]))
        used += _POOL_SIZE
    state = _hashmix(np.concatenate([pool, pool]),
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    # generate_state's uint64 words are its uint32 words in pairs, low first
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _generator_parts() -> tuple:
    """``(Generator, PCG64, SeedWords)``, where a ``SeedWords(words)``
    hands PCG64 the state words of ``_seed_words`` as numpy's
    ``ISeedSequence`` interface asks.  Imported and defined on first use,
    so that importing the package does not import ``numpy.random``."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 reads four contiguous uint64 words, all it asks for
            if n_words != _POOL_SIZE or (dtype is not np.uint64
                                         and np.dtype(dtype) != np.uint64):
                raise ValueError("SeedWords holds the 4 uint64 words of one PCG64 state")
            return self.words

    return Generator, PCG64, SeedWords


def _batches(reps: int, n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each batch of a study: the fewest batches of at
    most ``max(1, _BATCH_VALUES // n)`` consecutive replicates, the first
    ``reps % count`` of them one replicate larger than the rest."""
    count = -(-reps // max(1, _BATCH_VALUES // n))
    size, larger = divmod(reps, count)
    bounds = [i * size + min(i, larger) for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _uniforms(words: np.ndarray, n: int) -> np.ndarray:
    """``(rows, 2, n)``: row i holds the n X uniforms and then the n C
    uniforms of the generator seeded by ``words[i]``, in one draw."""
    Generator, PCG64, SeedWords = _generator_parts()
    u = np.empty((len(words), 2, n))
    for row, state in zip(u, np.ascontiguousarray(words, dtype=np.uint64)):
        Generator(PCG64(SeedWords(state))).random(out=row)
    return u


def _batch_sample(design: StudyDesign, start: int, stop: int) -> CensoredSample:
    """The censored samples of replicates ``start`` to ``stop - 1``, one
    row each."""
    u = _uniforms(_seed_words(design.seed, start, stop), design.n)
    x, c = design.dist_x.quantile(u[:, 0]), design.dist_c.quantile(u[:, 1])
    # Freed here, the uniforms' memory serves the sample's arrays: holding
    # it through make_censored grew the heap by that much on every batch,
    # which the allocator gave back and faulted in again.
    del u
    # Positivity is not enforced here: endpoint-anchored families may put
    # mass below zero, while only the top-k statistics enter any formula.
    return make_censored(x, c, require_positive=False)


def _batch_values(design: StudyDesign, start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, len(k_grid), len(specs))`` values of
    ``estimate`` over the whole k-grid on the samples of ``_batch_sample``;
    a pool task."""
    return estimate(_batch_sample(design, start, stop), design.k_grid, design.specs)[1]


def run_replicate(design: StudyDesign, replicate_index: int) -> list[EstimateRecord]:
    """All (k, spec) estimates on one fresh sample, k-major in design
    order; deterministic in (design.seed, replicate_index) alone."""
    if not 0 <= replicate_index < design.reps:
        raise ValueError(f"replicate_index out of range: {replicate_index}")
    p_hat, values = estimate(_batch_sample(design, replicate_index, replicate_index + 1),
                             design.k_grid, design.specs)
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

    The batches are those of ``_batches``, and each batch, a pool task
    too, is ``_batch_values`` of its ``(start, stop)``: it seeds, samples
    and estimates its own rows and returns their values alone.  The first
    two batches run in-process, and the second is timed.  The remaining
    batches run on a pool of ``w = min(workers, remaining batches)``
    processes when ``second batch time * remaining batches * (1 - 1/w)``,
    the time the pool would save, exceeds its fixed cost ``_POOL_COST_S``
    for the start method that multiprocessing would use, and in-process
    otherwise; ``workers`` (or CENSORED_EVI_THREADS) is thus a maximum.
    The output is independent of the worker count and of the batch size:
    replicates are pure functions of (seed, index), stored at their index
    and reduced in index order.
    """
    batches = _batches(design.reps, design.n)
    rest = batches[2:]  # the batches after the first two
    workers = resolve_workers(workers, max(len(rest), 1))
    values = np.empty((design.reps, len(design.k_grid), len(design.specs)))
    # The first batch also pays for what numpy and the library load and
    # warm on first use, so the second is the one timed.
    for start, stop in batches[:2]:
        clock = perf_counter()
        values[start:stop] = _batch_values(design, start, stop)
    saving = (perf_counter() - clock) * len(rest) * (1 - 1 / workers)
    tasks = ([design] * len(rest), [start for start, _ in rest], [stop for _, stop in rest])

    def store(results):
        for (start, stop), batch in zip(rest, results):
            values[start:stop] = batch

    if saving <= 0 or saving <= _pool_cost_s():
        store(map(_batch_values, *tasks))
    else:
        # imported here, so that studies without a pool do not load its machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            store(pool.map(_batch_values, *tasks))
    return aggregate(values, design)
