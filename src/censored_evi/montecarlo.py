"""Deterministic parallel simulation engine for estimator sweeps.

A study draws ``reps`` independent censored samples of size ``n`` from a
known (X, C) pair, evaluates every configured estimator at every k in a
grid, and aggregates per (k, estimator) cell: median bias, MSE about the
true index of X, mean, variance and the count of degenerate replicates
(which are excluded from the statistics).

Replicates run in the fewest batches of at most ``max(1, _BATCH_VALUES
// n)`` consecutive indices, with sizes that differ by at most one
(``_batches``, through ``_split``): at n = 500, 2 of 60 for 120
replicates and 31 of 64 or 65 for 2 000.  A batch's sample arrays thus
hold at most about ``_BATCH_VALUES`` values, and since every batch pays a
fixed cost of Python calls whatever its size, a study pays it as few
times as that bound allows.  ``_batch_values`` of ``(start, stop)`` seeds and draws the
uniforms of those ``R`` rows, maps them through each family's quantile
once, builds one ``(R, n)`` censored sample and makes one ``estimate``
call over the whole k-grid, which yields the batch's ``(R,
len(k_grid), len(specs))`` value array;
every library call on the way acts along the last axis, so a row of the
batch gets the bits its sample gets on its own.  ``run_study`` stores
each batch at its rows of one ``(reps, len(k_grid), len(specs))`` array,
and a pool worker runs whole batches.  ``aggregate`` reduces that array
along the replicate axis through ``_column_stats``, which a pool's
participants also run, each on its own slice of the k-grid.
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
and a pool worker gets the batch bounds of its share, and the design
when it holds another.  The replicate index is one 32-bit entropy word,
so a study has at most 2**32 replicates.
Replicates are therefore independent of scheduling, each lands at its
own index, and the aggregation sums in replicate order, so the result is
bitwise identical for any batch size and any worker count.
The worker count comes from the CENSORED_EVI_THREADS environment
variable when not given explicitly, and is a maximum.  A process keeps
the one pool it starts until it exits (``_KEPT``).  The pool has ``w``
participants: the maximum, or the study's batch count when that is
less.  One is the study's own process and the other ``w - 1`` are
``multiprocessing`` processes, each serving one pipe (``_serve``), so
the pool runs no thread.  The pool also keeps one shared memory segment,
which holds a study's values and then its statistics (``_views``); a
study that needs more than it holds replaces it.  A pool runs a list of
batches as ``w`` consecutive shares of whole batches whose sizes differ
by at most one: each worker is sent its share, the study's own process
runs the last and smallest one meanwhile, and every participant writes
its rows into the segment in place.  Once all rows are in, each
participant reduces its own contiguous slice of the k-grid
(``_slices``) with ``_column_stats`` and writes the statistics there
too, so no values array crosses a pipe.  A worker keeps the last design
it was sent and the segment it maps, so a repeated study sends each
worker only its batch bounds and its slice.  A segment's name is
unlinked as soon as it is created and mapped, so no name outlives the
pool however its process ends: the first study on it sends each worker
its file descriptor over the worker's pipe, a Unix socket, and the
worker maps it and closes it.  Pools are therefore POSIX-only;
elsewhere every study runs in-process, as with ``w = 1``.  On Linux a
worker that may run on another CPU leaves the one the study's process
runs on as each task arrives, since the process that wakes it often
gets it on its own CPU and then waits there while it runs
(``_leave_cpu_of``).  A worker ends at its pipe's EOF, so it ends with
the process that started it however that process ends.  A study that
finds a kept pool of from ``w`` participants to its maximum runs all
its batches on it.  Otherwise it runs the first two batches in-process
and times the second, since the first also pays for what is loaded and
warmed on first use, and adds what such a pool would have saved on the
study, as measured by the second, to ``_FORGONE_S``.  Once that total exceeds the
pool's fixed cost, ``_POOL_COST_S`` per worker it starts, which depends
on how the pool starts its workers, the pool starts (replacing a kept
one) and runs the rest.
With forked workers this is a rent-or-buy rule: studies run in-process
until the saving they gave up would have paid for a pool.  Workers that
start afresh cost ten times as much, so there the total starts again
from 0 after each study, and only a study that pays for the pool alone
starts it.  Studies with ``w = 1`` leave this state alone, and so does
a study whose segment cannot be reserved: it runs in-process.
"""

from __future__ import annotations

import functools
import operator
import os
import threading
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

# Seconds a pool costs whatever its work for each worker process it
# starts, by the start method of its workers: chiefly starting them, and
# the hand-out and collection of a study's shares.  Measured on a 2-CPU
# Linux machine with pools of two participants, one worker, whose workers
# import the package (CHANGES.md); a pool of w participants starts w - 1
# workers and costs w - 1 times as much (``_pool_cost_s``), has at most
# one participant per batch of the study that starts it, and is kept once
# started.  A new process (spawn, the default on macOS) or a
# fork of a server process (forkserver, the default on Linux from Python
# 3.14) imports the package again, which fork does not.
_POOL_COST_S = {"fork": 0.03, "forkserver": 0.25, "spawn": 0.3}

# The pool this process keeps, a _Pool, or None; the seconds that studies
# run in-process since a pool last started would have saved on one (with
# forked workers; with others the total starts again after each study);
# and the lock held while the pool is priced, replaced or used, its own
# share run by this process included, so that no thread shuts it down
# under another.
_KEPT = None
_FORGONE_S = 0.0
_POOL_LOCK = threading.Lock()

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


def _split(total: int, parts: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of ``parts`` consecutive ranges that cover ``0`` to
    ``total``, the first ``total % parts`` of them one larger than the
    rest."""
    size, larger = divmod(total, parts)
    bounds = [i * size + min(i, larger) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _batches(reps: int, n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each batch of a study: the fewest batches of at
    most ``max(1, _BATCH_VALUES // n)`` consecutive replicates, their sizes
    differing by at most one (``_split``)."""
    return _split(reps, -(-reps // max(1, _BATCH_VALUES // n)))


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
    ``estimate`` over the whole k-grid on the samples of ``_batch_sample``."""
    return estimate(_batch_sample(design, start, stop), design.k_grid, design.specs)[1]


def _run_batches(design: StudyDesign, bounds, values: np.ndarray) -> None:
    """Store each batch of ``bounds`` at its rows of ``values``, in-process."""
    for start, stop in bounds:
        values[start:stop] = _batch_values(design, start, stop)


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
    floats, degenerate = np.empty((4, *shape[1:])), np.empty(shape[1:], dtype=np.intp)
    _column_stats(values, design.gamma_x, floats, degenerate)
    return _result(design, floats, degenerate)


def _column_stats(values: np.ndarray, gamma_x: float, floats: np.ndarray,
                  degenerate: np.ndarray) -> None:
    """Write the statistics of each column of ``values``, shape ``(reps,
    m, s)`` with replicates in index order, into ``floats[:, i, j]``
    (median bias, mse, mean and variance) and ``degenerate[i, j]``.

    Non-finite values are excluded and counted as degenerate; mse and
    bias are taken about ``gamma_x``.  A column's statistics read that
    column alone, and a slice of two or more columns gets the bits that
    the whole array gets: numpy sums several columns row by row, in
    replicate order, but a single column pairwise (``_slices``).
    """
    median_bias, mse, mean, variance = floats
    usable = np.isfinite(values)
    count = np.count_nonzero(usable, axis=0)
    kept = np.zeros(values.shape)  # the usable values, 0 elsewhere
    np.copyto(kept, values, where=usable)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0 / 0 where none is usable
        np.divide(kept.sum(axis=0), count, out=mean)
        for centre, out in ((gamma_x, mse), (mean, variance)):
            np.subtract(values, centre, out=kept, where=usable)
            np.square(kept, out=kept)
            np.divide(kept.sum(axis=0), count, out=out)
    # Degenerate values sort last as NaN; the median of the `count` usable
    # ones is the middle one, or the mean of the middle two (NaN when
    # count is 0, as every value of the column is NaN then).
    kept.fill(np.nan)
    np.copyto(kept, values, where=usable)
    kept.sort(axis=0)
    low, high = np.take_along_axis(kept, np.stack([(count - 1) // 2, count // 2]), axis=0)
    np.subtract(np.where(count % 2 == 1, low, (low + high) / 2.0), gamma_x, out=median_bias)
    np.subtract(len(values), count, out=degenerate)


def _result(design: StudyDesign, floats: np.ndarray, degenerate: np.ndarray) -> StudyResult:
    """The StudyResult of ``_column_stats``' output arrays, made read-only."""
    columns = (*floats, degenerate)
    for column in columns:
        column.flags.writeable = False
    return StudyResult(design, *columns)


def resolve_workers(workers: int | None, tasks: int | None = None) -> int:
    """The most workers a pool may have: ``workers``, or
    CENSORED_EVI_THREADS when it is None, or else the CPUs this process
    may run on; never more than ``tasks`` when given."""
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
    try:
        workers = operator.index(workers)
    except TypeError:
        raise TypeError(f"worker count must be an integer, got {workers!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers if tasks is None else min(workers, tasks)


def _start_method() -> str:
    """The start method a new pool's workers would take."""
    import multiprocessing  # here, so that serial studies do not load it

    method = multiprocessing.get_start_method(allow_none=True)
    return method or multiprocessing.get_all_start_methods()[0]


def _pool_cost_s(workers: int) -> float:
    """What a new pool of ``workers`` participants costs: _POOL_COST_S of
    the start method it would take, for each of its ``workers - 1``
    worker processes."""
    return _POOL_COST_S[_start_method()] * (workers - 1)


def _saving(seconds: float, batches: int, workers: int) -> float:
    """Seconds a pool of ``workers`` participants saves on ``batches``
    batches of ``seconds`` each."""
    return seconds * (batches - -(-batches // workers))


def _segment_bytes(design: StudyDesign) -> int:
    """The bytes ``design``'s study takes in a pool's segment (``_views``)."""
    cells = len(design.k_grid) * len(design.specs)
    return cells * (8 * (design.reps + 4) + np.dtype(np.intp).itemsize)


def _views(buffer, design: StudyDesign) -> tuple:
    """The values ``(reps, len(k_grid), len(specs))`` of ``design``'s study,
    its four float statistics ``(4, len(k_grid), len(specs))`` and its
    degenerate counts, laid out in that order from the start of ``buffer``
    as the arrays that ``_column_stats`` reads and writes."""
    cells = (len(design.k_grid), len(design.specs))
    values = np.ndarray((design.reps, *cells), buffer=buffer)
    floats = np.ndarray((4, *cells), buffer=buffer, offset=values.nbytes)
    degenerate = np.ndarray(cells, np.intp, buffer=buffer, offset=values.nbytes + floats.nbytes)
    return values, floats, degenerate


def _reduce(buffer, design: StudyDesign, start: int, stop: int) -> None:
    """Write the statistics of k-grid rows ``start`` to ``stop - 1`` of
    ``design``'s study in ``buffer`` from its values there."""
    values, floats, degenerate = _views(buffer, design)
    _column_stats(values[:, start:stop], design.gamma_x, floats[:, start:stop],
                  degenerate[start:stop])


def _slices(design: StudyDesign, parts: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of the k-grid rows each of a pool's ``parts``
    participants reduces: consecutive slices whose sizes differ by at
    most one, each of two or more cells when the design has that many,
    since ``_column_stats`` sums a single column in another order; the
    empty ones first, so that the last participant, the study's own
    process, always has one."""
    rows = len(design.k_grid)
    used = min(parts, rows if len(design.specs) > 1 else max(1, rows // 2))
    return [(0, 0)] * (parts - used) + _split(rows, used)


def _leave_cpu_of(pid: int, allowed: set[int]) -> None:
    """Restrict this process to the CPUs of ``allowed`` but the one that
    process ``pid`` last ran on, when one is left.  On Linux a process
    that wakes a sleeping one often has it placed on its own CPU, the
    other CPUs having idled, and then waits while it runs there; a worker
    woken so moves off at once.  Best effort: where ``/proc`` cannot be
    read or the CPUs cannot be set, nothing changes."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            # field 39, the CPU it last ran on; field 2, its name, may hold ")"
            others = allowed - {int(stat.read().rpartition(b")")[2].split()[36])}
        if others:
            os.sched_setaffinity(0, others)
    except (OSError, ValueError, IndexError):
        pass


def _serve(end) -> None:
    """A pool worker.  Each task that arrives on ``end`` is ``(design,
    size, bounds, ks)``: the study's design, or None for the one last
    sent; the size of a new segment to map instead of the one mapped, or
    None; the batches to store at their rows of the segment; and the
    ``(start, stop)`` of the k-grid rows to reduce there.  A new segment
    has no name: its file descriptor follows the task on ``end``
    (``recv_handle``), and the worker maps it and closes it.  The worker
    answers None once its rows are stored; then, when ``ks`` is not
    empty, it waits for a message that says every participant's rows are
    in, reduces its rows of the k-grid and answers None again.  An
    exception that a step raises is its answer instead.  On each task a
    worker that may run on more than one CPU first leaves the CPU of the
    study's process (``_leave_cpu_of``), so that the two run side by
    side.  It returns at the pipe's EOF, which comes when the process
    that started the worker closes its end or dies.  A forked worker
    holds no parent-side end open, since the fork hook closed them
    (``_forget_pool``)."""
    import mmap  # here, so that importing the package does not load these
    import multiprocessing
    import signal
    from multiprocessing.reduction import recv_handle

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the study's own process handles it
    study = multiprocessing.parent_process().pid  # the study's process, however this one started
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    design = buffer = None
    try:
        while True:
            sent, size, bounds, (start, stop) = end.recv()
            fd = None if size is None else recv_handle(end)
            if len(allowed) > 1:
                _leave_cpu_of(study, allowed)
            reply = None
            try:
                if fd is not None:
                    buffer = None  # unmapped once no view holds it
                    try:
                        buffer = mmap.mmap(fd, size)
                    finally:
                        os.close(fd)
                if sent is not None:
                    design = sent
                _run_batches(design, bounds, _views(buffer, design)[0])
            except Exception as error:  # raised again by the study's own process
                reply = error
            end.send(reply)
            if reply is None and start < stop:
                end.recv()
                try:
                    _reduce(buffer, design, start, stop)
                except Exception as error:
                    reply = error
                end.send(reply)
    except (EOFError, OSError):  # that process closed its end, or is gone
        return


def _piped(process, call, *args):
    """``call(*args)`` on the pipe of the pool worker ``process``, with an
    error that names the worker when the pipe breaks."""
    try:
        return call(*args)
    except (EOFError, OSError) as error:
        process.join(1)
        raise RuntimeError(f"pool worker {process.name} (pid {process.pid}) stopped, "
                           f"exit code {process.exitcode}") from error


def _collect(asked) -> None:
    """Receive the answer of each ``(end, process, ks)`` of ``asked``, and
    raise an exception that one of them is."""
    for end, process, _ in asked:
        reply = _piped(process, end.recv)
        if isinstance(reply, BaseException):
            raise reply


class _Pool:
    """The study's own process and ``workers - 1`` worker processes, each
    serving one pipe (``_serve``) once started, and the shared segment
    that the participants' studies are written in.  The segment has no
    name once reserved: each worker maps it from the file descriptor that
    the first study on it sends over the worker's pipe."""

    def __init__(self, workers: int):
        self.workers, self.ends, self.processes = workers, [], []
        # This process's mapping of the segment; its file descriptor,
        # until the first study on it has sent that to every worker; and
        # the design each worker was last sent, a copy of which it keeps.
        self.mapping = self.fd = None
        self.designs = [None] * (workers - 1)

    def start(self) -> None:
        """Start the workers; a worker forked meanwhile closes its copies of
        the ends made before it, its own pipe's included (``_forget_pool``),
        when this pool is the kept one."""
        import multiprocessing  # here, so that studies without a pool do not load it

        for _ in range(self.workers - 1):
            end, theirs = multiprocessing.Pipe()
            self.ends.append(end)
            process = multiprocessing.Process(target=_serve, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self.processes.append(process)

    def reserve(self, design: StudyDesign) -> OSError | None:
        """Keep a segment that holds ``design``'s study (``_views``), a new
        one when the kept one is smaller: None, or the error that kept a
        new one from being created with its pages reserved, which leaves
        the pool as it was.  A new segment's name is unlinked before this
        returns; the pool keeps its mapping and its file descriptor."""
        size = _segment_bytes(design)
        if self.mapping is not None and len(self.mapping) >= size:
            return None
        import mmap  # here, so that studies without a pool do not load it
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(create=True, size=size)
        except OSError as error:
            return error
        try:
            if hasattr(os, "posix_fallocate"):
                # Reserved here, a full /dev/shm is this error, not a
                # SIGBUS in a worker that writes to the segment.
                os.posix_fallocate(segment._fd, 0, size)
            mapping, fd = mmap.mmap(segment._fd, size), os.dup(segment._fd)
        except OSError as error:
            return error
        finally:
            segment.close()
            segment.unlink()
        self.release()
        self.mapping, self.fd = mapping, fd
        return None

    def run(self, design: StudyDesign, shares, head) -> StudyResult:
        """The result of ``design``'s study, whose first rows are ``head``,
        computed in-process (None when there are none), and the rest the
        batches of ``shares``, lists of consecutive ``(start, stop)``, one
        per participant of the study, which may be fewer than the pool's.
        The workers store one share each at its rows of the segment (none
        for a worker past the study's), the last share is stored here
        meanwhile, and then each of the pool's participants reduces its
        slice of the k-grid (``_slices``) there; an exception a worker
        raised is raised here.  The first study on a segment sends its file
        descriptor to every worker after the worker's task, and then closes
        this process's copy."""
        from multiprocessing.reduction import send_handle  # loaded with multiprocessing

        values, floats, degenerate = _views(self.mapping, design)
        if head is not None:
            values[:len(head)] = head
        *theirs, mine = shares
        theirs += [[]] * (self.workers - len(shares))
        *slices, own = _slices(design, self.workers)
        size = None if self.fd is None else len(self.mapping)
        tasks = list(zip(self.ends, self.processes, slices))
        for i, (end, process, ks) in enumerate(tasks):
            sent = None if self.designs[i] is design else design  # designs are frozen
            _piped(process, end.send, (sent, size, theirs[i], ks))
            if size is not None:
                _piped(process, send_handle, end, self.fd, process.pid)
            self.designs[i] = design
        if size is not None:  # each worker's pipe holds a copy of it now
            os.close(self.fd)
            self.fd = None
        _run_batches(design, mine, values)
        _collect(tasks)
        reducing = [(end, process, ks) for end, process, ks in tasks if ks[0] < ks[1]]
        for end, process, _ in reducing:
            _piped(process, end.send, None)
        _reduce(self.mapping, design, *own)
        _collect(reducing)
        return _result(design, floats.copy(), degenerate.copy())

    def release(self) -> None:
        """Close the segment's file descriptor if this process still holds
        it, and unmap the segment now or, while a numpy view of it is still
        held (a traceback's, say), when the last view goes: both are this
        process's own copies."""
        if self.fd is not None:
            os.close(self.fd)
        try:
            if self.mapping is not None:
                self.mapping.close()
        except BufferError:  # a view holds it
            pass
        self.mapping = self.fd = None

    def close(self) -> None:
        """Close the pipes, terminate and join the workers, and release the
        segment."""
        for end in self.ends:
            end.close()
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join()
        self.release()


def _start_pool(workers: int) -> None:
    """Shut the kept pool down and keep a new one of ``workers``
    participants, kept before its workers start so that the fork hook
    sees its ends; the forgone total starts again from 0."""
    global _KEPT, _FORGONE_S
    _drop_pool()
    _KEPT, _FORGONE_S = _Pool(workers), 0.0
    try:
        _KEPT.start()
    except BaseException:
        _drop_pool()
        raise


def _drop_pool():
    """Shut the kept pool down, if there is one, and keep none."""
    global _KEPT
    if _KEPT is not None:
        pool, _KEPT = _KEPT, None
        pool.close()


def _forget_pool():
    """In a forked child, the kept pool's own workers included, close the
    copies of the kept pool's pipe ends, so that its workers still end
    with the process that started them, release the copies of its segment
    (``_Pool.release``), and keep no pool and no forgone total: the
    workers and the segment belong to that process, and so may the
    lock."""
    global _KEPT, _FORGONE_S, _POOL_LOCK
    if _KEPT is not None:
        for end in _KEPT.ends:
            end.close()
        _KEPT.release()
    _KEPT, _FORGONE_S, _POOL_LOCK = None, 0.0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _values_array(design: StudyDesign, unreserved: OSError | None) -> np.ndarray:
    """An empty ``(reps, len(k_grid), len(specs))`` array for the values of
    ``design``'s study, or a MemoryError that names its size and
    ``unreserved``, the error that kept a pool's segment from being
    reserved for the study, if there was one."""
    reps, rows, cols = shape = (design.reps, len(design.k_grid), len(design.specs))
    try:
        return np.empty(shape)
    except MemoryError as error:
        segment = ("" if unreserved is None else f"; a pool's shared segment of "
                   f"{_segment_bytes(design):,} bytes could not be reserved either "
                   f"({unreserved})")
        raise MemoryError(f"a study of {reps} x {rows} x {cols} values (reps x len(k_grid) x "
                          f"len(specs)) needs {8 * reps * rows * cols:,} bytes, which cannot be "
                          f"allocated{segment}") from error


def run_study(design: StudyDesign, workers: int | None = None) -> StudyResult:
    """Run all replicates in batches and aggregate.

    The batches are those of ``_batches``, and each batch, wherever it
    runs, is ``_batch_values`` of its ``(start, stop)``: it seeds, samples
    and estimates its own rows and returns their values alone.  The study
    may use ``w`` participants: ``workers`` (or CENSORED_EVI_THREADS, a
    maximum), or its batch count when that is less.  With ``w = 1`` it
    runs in-process and leaves the process's pool state alone.  On a pool
    the batches run as ``w`` consecutive shares of whole batches
    (``_split``), sizes differing by at most one: the first ``w - 1`` go
    to the pool's workers, and this process runs the last and smallest.
    Every participant writes its rows into the pool's segment, and then
    reduces its slice of the k-grid there (``_Pool.run``).
    When the process keeps a pool of from ``w`` participants to the
    maximum, all batches run on it.  Otherwise the first two batches run
    in-process and the second is timed, at ``t`` seconds, and the study
    adds ``_saving(t, batches, w)``, what such a pool would have saved on
    it, to ``_FORGONE_S``.  Once that total exceeds the fixed cost of a
    pool of ``w`` participants, ``_POOL_COST_S`` of the start method that
    multiprocessing would use for each of its ``w - 1`` workers, a kept
    pool of ``w`` participants replaces any other, the total starts
    again from 0, and the rest of the batches run on the pool; until
    then they run in-process, and for a start method other than fork
    the total starts again from 0 after the study.  Off POSIX a pool
    cannot pass its segment to its workers, so every study runs there as
    with ``w = 1``.  A study whose values the pool's segment cannot hold,
    since the segment cannot be reserved, runs in-process, and one whose
    in-process array cannot be allocated either raises a MemoryError that
    names its size before its first batch.  A pool that fails (a worker
    that stops, an exception in a share, an interrupt) is dropped, its
    pipes closed, its workers terminated and joined and its segment
    released, before the error propagates.  ``_POOL_LOCK`` is held while
    the pool is priced, replaced or used, and not over in-process
    batches.
    The output is independent of the worker count and of the batch size:
    replicates are pure functions of (seed, index), stored at their index
    and reduced in index order.
    """
    global _FORGONE_S
    batches = _batches(design.reps, design.n)
    most, workers = resolve_workers(workers), resolve_workers(workers, len(batches))
    if os.name != "posix":  # a pool passes its segment as a POSIX file descriptor
        workers = 1
    unreserved = None  # the error that kept the pool's segment from being reserved

    def pooled(bounds, head):
        """The study's result from ``bounds`` on the kept pool, after the
        rows of ``head``; None when its segment cannot be reserved."""
        nonlocal unreserved
        try:
            unreserved = _KEPT.reserve(design)
            if unreserved is None:
                return _KEPT.run(design, [bounds[a:b] for a, b in _split(len(bounds), workers)],
                                 head)
        except BaseException:
            _drop_pool()  # a broken or interrupted pool is not kept
            raise
        return None

    def kept():
        return _KEPT is not None and workers <= _KEPT.workers <= most

    if workers > 1:
        with _POOL_LOCK:
            result = pooled(batches, None) if kept() else None
        if result is not None:
            return result
    values = _values_array(design, unreserved)
    if workers == 1 or unreserved is not None:
        _run_batches(design, batches, values)
        return aggregate(values, design)
    # The first batch also pays for what numpy and the library load and
    # warm on first use, so the second is the one timed.
    _run_batches(design, batches[:1], values)
    clock = perf_counter()
    _run_batches(design, batches[1:2], values)
    seconds = perf_counter() - clock
    rest = batches[2:]
    with _POOL_LOCK:
        if not kept():
            _FORGONE_S += _saving(seconds, len(batches), workers)
            if _FORGONE_S > _pool_cost_s(workers):
                _start_pool(workers)
            elif _start_method() != "fork":
                # A pool whose workers start afresh costs ten times a forked
                # one, and _saving was measured to overestimate what a pool
                # saves (CHANGES.md), so a total that buys it late loses.
                _FORGONE_S = 0.0
        result = pooled(rest, values[:batches[1][1]]) if kept() else None
    if result is not None:
        return result
    _run_batches(design, rest, values)
    return aggregate(values, design)
