import concurrent.futures
import dataclasses
import errno
import functools
import gc
import itertools
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref
from multiprocessing import shared_memory
from multiprocessing.reduction import send_handle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import censored_evi
from censored_evi import (
    EstimatorSpec,
    Family,
    Method,
    ReverseBurr,
    StudyCell,
    StudyDesign,
    aggregate,
    build_specs,
    make_censored,
    resolve_workers,
    run_replicate,
    run_study,
)
from censored_evi import montecarlo
from censored_evi.config import parse_config

from conftest import FIGURE1_C, FIGURE1_X, FREE_POOL

FIGURE1_CFG = Path(__file__).resolve().parent.parent / "scripts" / "figure1.cfg"
FIGURE3 = Path(__file__).resolve().parent.parent / "scripts" / "figure3.cfg"
ALL_FAMILIES = tuple(Family)
ALL_METHODS = tuple(Method)


class RefusedInWorkers(ReverseBurr):
    """A Reverse Burr law whose quantile raises in any process that
    multiprocessing started, such as a pool worker."""

    def quantile(self, u):
        if multiprocessing.parent_process() is not None:
            raise ValueError("refused in a pool worker")
        return super().quantile(u)


def ended(pid):
    """Whether the process ``pid`` has ended: it is gone, or on Linux a
    zombie that its new parent has not reaped yet."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    if not sys.platform.startswith("linux"):
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def small_design(**overrides):
    base = dict(
        dist_x=FIGURE1_X,
        dist_c=FIGURE1_C,
        n=60,
        reps=6,
        k_grid=(10, 20),
        specs=build_specs(ALL_FAMILIES, ALL_METHODS, (2.0,)),
        seed=987,
    )
    base.update(overrides)
    return StudyDesign(**base)


def records_repr(records):
    # NaN values defeat dataclass equality; repr round-trips them
    return [repr(r) for r in records]


class TestBuildSpecs:
    def test_cartesian_product_in_canonical_order(self):
        # mom ignores alpha, so it takes the first alpha only
        specs = build_specs(ALL_FAMILIES, ALL_METHODS, (1.0, 2.0))
        assert len(specs) == 3 + 2 * 3 * 2
        assert specs[0] == EstimatorSpec(Family.MOMENT, Method.KM, 1.0)
        assert specs[1] == EstimatorSpec(Family.MOMENT, Method.LEURGANS, 1.0)
        assert specs[3] == EstimatorSpec(Family.TYPE1, Method.KM, 1.0)
        assert specs[4] == EstimatorSpec(Family.TYPE1, Method.KM, 2.0)
        assert specs[-1] == EstimatorSpec(Family.TYPE2, Method.EFG, 2.0)

    def test_mom_appears_once_per_method(self):
        specs = build_specs(ALL_FAMILIES, ALL_METHODS, (2.5, 1.0, 2.0))
        assert len(specs) == 21
        assert [s for s in specs if s.family is Family.MOMENT] == [
            EstimatorSpec(Family.MOMENT, m, 2.5) for m in ALL_METHODS]
        assert len(build_specs((Family.MOMENT,), (Method.KM,), (1.0, 2.0, 3.0))) == 1

    def test_every_alpha_is_checked(self):
        # an alpha that only mom would have taken is rejected all the same
        with pytest.raises(ValueError, match="alpha must be >= 1 and finite, got 0.5"):
            build_specs((Family.MOMENT,), ALL_METHODS, (2.0, 0.5))


class TestStudyDesignValidation:
    def test_valid_design_builds(self):
        d = small_design()
        assert d.gamma_x == pytest.approx(-1.0)
        assert d.gamma_c == pytest.approx(-1.5)

    @pytest.mark.parametrize(
        "overrides,pattern",
        [
            (dict(n=1, k_grid=(1,)), "n must be"),
            (dict(reps=0), "reps"),
            (dict(k_grid=()), "k grid"),
            (dict(k_grid=(0,)), "every k"),
            (dict(k_grid=(60,)), "every k"),
            (dict(specs=()), "estimator spec"),
            (dict(dist_c=ReverseBurr(1, 1, 1, 9)), "endpoint"),
            (dict(k_grid=(10, 20, 10)), "k grid repeats k=10"),
            (dict(specs=build_specs([Family.MOMENT] * 2, [Method.KM], (2.0,))),
             "specs repeat mom/km at alpha 2.0"),
            (dict(seed=-5), "seed must be >= 0, got -5"),
            (dict(reps=2**32 + 1), r"reps must be <= 2\*\*32, got 4294967297"),
        ],
    )
    def test_invalid_designs_raise(self, overrides, pattern):
        with pytest.raises(ValueError, match=pattern):
            small_design(**overrides)

    @pytest.mark.parametrize("field", ["n", "reps", "seed"])
    def test_integer_fields_reject_other_numbers(self, field):
        # a float would build and then fail deep inside run_study; numpy
        # integers are integers, and give the same study
        value = getattr(small_design(), field)
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value}.0$"):
            small_design(**{field: float(value)})
        design = small_design(**{field: np.int64(value)})
        want = run_study(small_design(), workers=1)
        np.testing.assert_array_equal(run_study(design, workers=1).mse, want.mse)

    def test_mom_specs_that_differ_only_in_alpha_repeat(self):
        # mom combines orders 1 and 2 whatever alpha is, so both specs would
        # compute and list the same columns
        specs = (EstimatorSpec(Family.MOMENT, Method.KM, 1.0),
                 EstimatorSpec(Family.TYPE1, Method.KM, 1.0),
                 EstimatorSpec(Family.TYPE1, Method.KM, 2.0),
                 EstimatorSpec(Family.MOMENT, Method.KM, 2.0))
        with pytest.raises(ValueError,
                           match="specs repeat mom/km at alpha 2.0; mom ignores alpha"):
            small_design(specs=specs)
        assert small_design(specs=specs[:3]).specs == specs[:3]


class TestRunReplicate:
    def test_deterministic_in_seed_and_index(self):
        d = small_design()
        assert records_repr(run_replicate(d, 3)) == records_repr(run_replicate(d, 3))

    def test_different_indices_differ(self):
        d = small_design()
        assert records_repr(run_replicate(d, 0)) != records_repr(run_replicate(d, 1))

    def test_covers_the_full_grid(self):
        d = small_design()
        recs = run_replicate(d, 0)
        assert len(recs) == len(d.k_grid) * len(d.specs)
        seen = {(r.k, r.spec) for r in recs}
        assert seen == {(k, spec) for k in d.k_grid for spec in d.specs}

    @pytest.mark.parametrize("idx", [-1, 6, 100])
    def test_index_out_of_range(self, idx):
        with pytest.raises(ValueError, match="replicate_index"):
            run_replicate(small_design(), idx)


# Seeds of 1 (0 to 2**32 - 1), 2, 3, 4, 5 and 6 uint32 words; with the
# replicate index, 2**130 + 3 and the 50-digit seed give SeedSequence
# more entropy words than its pool of four holds.
SEEDS = [0, 1, 2015, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7, 2**130 + 3,
         31415926535897932384626433832795028841971693993751]


def numpy_words(seed, r):
    return np.random.SeedSequence(entropy=(seed, r)).generate_state(4, np.uint64)


class TestSeedWords:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [0, 2**32 - 40])
    def test_equal_numpys_seed_sequence_states(self, seed, start):
        # from r = 0 to the last replicate of the largest design, r = 2**32 - 1
        words = montecarlo._seed_words(seed, start, start + 40)
        assert words.dtype == np.uint64 and words.shape == (40, 4)
        assert words.flags.c_contiguous
        for r in [*range(start, start + 40, 13), start + 39]:
            np.testing.assert_array_equal(words[r - start], numpy_words(seed, r))

    @given(seed=st.integers(0, 2**200), start=st.integers(0, 2**32 - 1), rows=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_any_seed_and_start(self, seed, start, rows):
        stop = min(start + rows, 2**32)
        words = montecarlo._seed_words(seed, start, stop)
        for r in range(start, stop):
            np.testing.assert_array_equal(words[r - start], numpy_words(seed, r))

    def test_batch_follows_the_documented_contract(self):
        # a 32-row batch from r = 64: each row is default_rng(SeedSequence(
        # entropy=(seed, r))), X's uniforms drawn before C's, mapped through
        # each law's quantile and censored
        d = small_design(n=500, reps=200, seed=2**130 + 3)
        got = montecarlo._batch_sample(d, 64, 96)
        for row, r in enumerate(range(64, 96)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(d.seed, r)))
            u_x, u_c = rng.random(d.n), rng.random(d.n)
            want = make_censored(d.dist_x.quantile(u_x), d.dist_c.quantile(u_c),
                                 require_positive=False)
            np.testing.assert_array_equal(got.z[row].view(np.int64), want.z.view(np.int64))
            np.testing.assert_array_equal(got.delta[row], want.delta)

    def test_seed_words_hands_pcg64_only_its_state(self):
        # PCG64 reads four uint64 words straight from the array it is given
        _, _, seed_words = montecarlo._generator_parts()
        state = seed_words(montecarlo._seed_words(5, 0, 1)[0])
        np.testing.assert_array_equal(state.generate_state(4, np.uint64), numpy_words(5, 0))
        for request in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
            with pytest.raises(ValueError, match="4 uint64 words"):
                state.generate_state(*request)


# montecarlo._serve before any test patches it: a forked worker inherits
# the patched module
SERVE = montecarlo._serve


def serve_recording(path, end):
    """A pool worker that appends the ``(start, stop)`` of each
    ``_seed_words`` call it makes to the file ``path``, one line each, then
    serves as ``montecarlo._serve`` does; it is a module function so that
    workers of every start method can load it."""
    real = montecarlo._seed_words

    def seed_words(seed, start, stop):
        with open(path, "a") as spans:
            spans.write(f"{start} {stop}\n")
        return real(seed, start, stop)

    montecarlo._seed_words = seed_words
    SERVE(end)


class TestSeedSpans:
    # each batch seeds its own rows with one _seed_words call, in-process
    # and in a pool's workers
    @pytest.mark.parametrize("n,reps", [(60, 1), (60, 120), (60, 5000), (2, 5000)])
    @pytest.mark.parametrize("pool", [False, True])
    def test_one_call_per_batch(self, monkeypatch, tmp_path, started_pools, n, reps, pool):
        # n = 60: batches of at most 546 rows, so 5 000 replicates make
        # ten; n = 2: 5 000 replicates make one batch.  The workers record
        # the calls they make in a file, under any start method
        spans, real = [], montecarlo._seed_words

        def seed_words(seed, start, stop):
            spans.append((start, stop))
            return real(seed, start, stop)

        in_workers = tmp_path / "spans"
        in_workers.touch()
        monkeypatch.setattr(montecarlo, "_seed_words", seed_words)
        monkeypatch.setattr(montecarlo, "_serve", functools.partial(serve_recording,
                                                                    str(in_workers)))
        if pool:
            TestPoolSize.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = dataclasses.replace(one_cell_design(reps), n=n, k_grid=(1,))
        run_study(design, workers=2 if pool else 1)
        batches = montecarlo._batches(reps, n)
        theirs = [tuple(map(int, line.split())) for line in in_workers.read_text().splitlines()]
        assert bool(theirs) == (pool and len(batches) > 2)
        # the batches each ran once, wherever they ran
        assert sorted(spans + theirs) == batches
        assert started_pools == ([2] if pool and len(batches) > 1 else [])


def fake_records(design, values_by_rep):
    """The (reps, 1, 1) value array of a single-cell design from plain
    floats (None marks a degenerate draw)."""
    assert len(design.k_grid) == len(design.specs) == 1
    return np.array([[[float("nan") if v is None else v]] for v in values_by_rep])


def one_cell_design(reps):
    return small_design(
        reps=reps,
        k_grid=(10,),
        specs=(EstimatorSpec(Family.MOMENT, Method.KM, 2.0),),
    )


class TestAggregate:
    def test_constant_values(self):
        d = one_cell_design(4)
        res = aggregate(fake_records(d, [-1.3] * 4), d)
        (cell,) = res.cells
        assert isinstance(cell, StudyCell)
        # true index is -1, so a constant -1.3 estimate is biased by -0.3
        assert cell.median_bias == pytest.approx(-0.3, abs=1e-15)
        assert cell.mse == pytest.approx(0.09, rel=1e-12)
        assert cell.mean == pytest.approx(-1.3, rel=1e-15)
        assert cell.variance == 0.0
        assert cell.degenerate_count == 0

    def test_single_replicate(self):
        d = one_cell_design(1)
        (cell,) = aggregate(fake_records(d, [-0.5]), d).cells
        assert cell.median_bias == pytest.approx(0.5, abs=1e-15)
        assert cell.variance == 0.0

    def test_all_degenerate_cell(self):
        d = one_cell_design(3)
        (cell,) = aggregate(fake_records(d, [None, None, None]), d).cells
        assert cell.degenerate_count == 3
        for v in (cell.median_bias, cell.mse, cell.mean, cell.variance):
            assert math.isnan(v)

    def test_degenerates_are_excluded(self):
        d = one_cell_design(3)
        (cell,) = aggregate(fake_records(d, [-1.0, None, -2.0]), d).cells
        assert cell.degenerate_count == 1
        assert cell.mean == pytest.approx(-1.5, rel=1e-15)
        assert cell.median_bias == pytest.approx(-0.5, abs=1e-15)

    def test_cells_sorted_canonically(self):
        d = small_design(reps=2, k_grid=(20, 10))
        res = run_study(d, workers=1)
        keys = [
            (c.k, c.spec.family.value, c.spec.method.value, c.spec.alpha)
            for c in res.cells
        ]
        assert keys == sorted(
            keys, key=lambda t: (t[0], ["mom", "type1", "type2"].index(t[1]),
                                 ["km", "l", "efg"].index(t[2]), t[3])
        )

    @pytest.mark.parametrize("reps,rows,specs", [(80, 40, 9), (130, 40, 1), (130, 3, 1),
                                                 (200, 2, 1), (9, 5, 3), (1, 4, 2), (130, 1, 1)])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 8])
    def test_slices_of_the_k_grid_keep_every_bit(self, reps, rows, specs, parts):
        # each participant of a pool reduces its own slice of the k-grid in
        # the segment: the slices cover the grid once in order, the last
        # one, the study's own process's, is never empty, and together they
        # give the bytes of aggregate over the whole array, degenerate
        # values (NaN, inf, -inf) included.  A one-spec design is sliced two
        # ks or more at a time, since numpy sums a single column pairwise
        rng = np.random.default_rng([reps, rows, specs])
        design = small_design(reps=reps, k_grid=tuple(range(1, rows + 1)),
                              specs=build_specs(ALL_FAMILIES, ALL_METHODS, (2.0,))[:specs])
        values = (rng.standard_normal((reps, rows, specs))
                  * 10.0 ** rng.integers(-5, 5, (reps, rows, specs)))
        draws = rng.random(values.shape)
        values[draws < 0.05] = np.nan
        values[(0.05 <= draws) & (draws < 0.07)] = np.inf
        values[(0.07 <= draws) & (draws < 0.08)] = -np.inf
        want = aggregate(values, design)
        slices = montecarlo._slices(design, parts)
        assert len(slices) == parts and slices[-1][0] < slices[-1][1]
        assert [k for start, stop in slices for k in range(start, stop)] == list(range(rows))
        buffer = bytearray(montecarlo._segment_bytes(design))
        montecarlo._views(buffer, design)[0][:] = values
        for start, stop in slices:
            montecarlo._reduce(buffer, design, start, stop)
        _, floats, degenerate = montecarlo._views(buffer, design)
        assert same_bits(montecarlo._result(design, floats.copy(), degenerate.copy()), want)

    def test_mse_decomposition_on_real_study(self):
        res = run_study(small_design(n=80, reps=12, k_grid=(25,)), workers=1)
        for cell in res.cells:
            if math.isnan(cell.mse):
                continue
            bias_sq = (cell.mean - res.design.gamma_x) ** 2
            assert cell.mse == pytest.approx(cell.variance + bias_sq, rel=1e-10, abs=1e-12)


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3, 100) == 3
        assert resolve_workers(3) == 3

    def test_clamped_by_reps(self):
        assert resolve_workers(16, 5) == 5

    def test_from_environment(self, monkeypatch):
        monkeypatch.setenv("CENSORED_EVI_THREADS", "7")
        assert resolve_workers(None, 100) == 7

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("CENSORED_EVI_THREADS", raising=False)
        assert resolve_workers(None, 10**6) >= 1

    def test_default_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("CENSORED_EVI_THREADS", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert resolve_workers(None, 10) == 3
        assert resolve_workers(None, 2) == 2
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
        assert resolve_workers(None, 10) == 8
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert resolve_workers(None, 10) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers(0, 10)

    @pytest.mark.parametrize("workers", [2.5, 2.0, "2"])
    def test_rejects_counts_that_are_not_integers(self, workers):
        # a count that is not an integer is a TypeError that names it, as
        # StudyDesign's n is, before any pool is priced for it
        with pytest.raises(TypeError) as info:
            resolve_workers(workers, 10)
        assert str(info.value) == f"worker count must be an integer, got {workers!r}"
        with pytest.raises(TypeError, match="worker count must be an integer"):
            run_study(small_design(), workers=workers)

    def test_accepts_integer_types(self):
        assert resolve_workers(np.int64(3), 10) == 3
        assert type(resolve_workers(np.int64(3), 10)) is int
        assert resolve_workers(True, 10) == 1

    @pytest.mark.parametrize("raw", ["abc", "0", "1_0", "\uff12"])
    def test_bad_environment_value_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("CENSORED_EVI_THREADS", raw)
        message = f"CENSORED_EVI_THREADS must be a positive integer, got '{raw}'"
        with pytest.raises(ValueError) as info:
            resolve_workers(None, 10)
        assert str(info.value) == message


def same_columns(result, want):
    return all(np.array_equal(getattr(result, name), getattr(want, name), equal_nan=True)
               for name in montecarlo._COLUMNS)


def same_bits(result, want):
    """Whether every column of two StudyResults has the same dtype and
    bytes, as criterion 7 asks of the CSV they are written to."""
    return all(getattr(result, name).dtype == getattr(want, name).dtype
               and getattr(result, name).tobytes() == getattr(want, name).tobytes()
               for name in montecarlo._COLUMNS)


class TestPoolSize:
    # The process keeps one pool, of itself and w - 1 worker processes.  A
    # study of w participants, its maximum or its batch count when that is
    # less, runs on a kept pool of from w participants to its maximum.
    # Without one, run_study runs its first two batches in-process, times
    # the second, t, and adds _saving(t, batches, w) to
    # montecarlo._FORGONE_S; once that total exceeds
    # montecarlo._POOL_COST_S, a pool of w starts and runs the rest.
    @staticmethod
    def batches_take(monkeypatch, seconds):
        """A clock that advances ``seconds`` at each reading, so each
        batch run_study times takes that long to it."""
        ticks = itertools.count()
        monkeypatch.setattr(montecarlo, "perf_counter", lambda: seconds * next(ticks))

    @staticmethod
    def pools_start_by(monkeypatch, method):
        """run_study prices its pool as one whose workers start by
        ``method``; the pool it starts still takes the default method."""
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)

    @staticmethod
    def figure3(reps=2000):
        design = parse_config(FIGURE3.read_text()).to_design()
        assert design.reps == 2000
        return dataclasses.replace(design, reps=reps)

    def test_repeated_small_studies_buy_one_pool(self, monkeypatch, started_pools):
        # the 80-replicate figure-3 study has two batches of 40: at 2 fork
        # workers with its second batch timed at 4 ms, each study forgoes
        # 4 ms, and the eighth takes the total past the 0.03 s a pool
        # costs and starts it; later studies run on it, and every result
        # keeps its bits
        self.batches_take(monkeypatch, 0.004)
        self.pools_start_by(monkeypatch, "fork")
        design = self.figure3(80)
        assert montecarlo._batches(80, design.n) == [(0, 40), (40, 80)]
        want = run_study(design, workers=1)
        studies = math.floor(montecarlo._POOL_COST_S["fork"] / 0.004) + 1
        assert studies == 8
        for study in range(1, studies + 3):
            assert same_columns(run_study(design, workers=2), want)
            assert started_pools == ([2] if study >= studies else [])
            if study == studies:
                pool = montecarlo._KEPT
                assert montecarlo._FORGONE_S == 0.0
                runs, real = [], pool.run

                def run(*args):
                    runs.append(args)
                    return real(*args)

                monkeypatch.setattr(pool, "run", run)
        assert montecarlo._KEPT is pool
        assert montecarlo._FORGONE_S == 0.0
        assert len(runs) == 2  # the studies after it ran on it
        assert all(process.is_alive() for process in pool.processes)

    def test_long_study_starts_a_pool(self, monkeypatch, started_pools):
        # the figure-3 study at 2 workers with its second batch timed at
        # 5 ms, about what 65 of its replicates take on a 2-CPU machine:
        # a pool would save 15 of its 31 batch times, 0.075 s, more than a
        # fork pool costs
        self.batches_take(monkeypatch, 0.005)
        self.pools_start_by(monkeypatch, "fork")
        design = self.figure3()
        assert montecarlo._saving(0.005, 31, 2) == pytest.approx(0.075)
        want = run_study(design, workers=1)
        assert same_columns(run_study(design, workers=2), want)
        assert started_pools == [2]
        pool = montecarlo._KEPT
        assert same_columns(run_study(design, workers=2), want)
        assert started_pools == [2]
        assert montecarlo._KEPT is pool

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_long_study_keeps_a_slow_starting_pool_out(self, monkeypatch, started_pools,
                                                        method):
        # the same study saves 0.075 s, less than a pool costs whose
        # workers import the package again; such a pool is bought by no
        # total, so however many of these studies run, none starts one
        self.batches_take(monkeypatch, 0.005)
        self.pools_start_by(monkeypatch, method)
        for _ in range(2 + math.ceil(montecarlo._POOL_COST_S[method] / 0.075)):
            run_study(self.figure3(), workers=2)
            assert started_pools == []
            assert (montecarlo._KEPT, montecarlo._FORGONE_S) == (None, 0.0)

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_long_study_that_pays_keeps_a_slow_starting_pool(self, monkeypatch, started_pools,
                                                             method):
        # at 25 ms batches the figure-3 study saves 0.375 s, more than
        # either costs: it starts the pool, and the next study reuses it
        self.batches_take(monkeypatch, 0.025)
        self.pools_start_by(monkeypatch, method)
        for _ in range(2):
            run_study(self.figure3(), workers=2)
            assert started_pools == [2]

    @pytest.mark.parametrize("batches,full", [(1, True), (1, False), (2, True), (2, False),
                                              (3, True), (3, False)])
    def test_few_batches_run_in_process_and_count_toward_a_pool(self, monkeypatch,
                                                                 started_pools, batches, full):
        # a study of batches batches of n = 500, the last one full or of
        # one replicate, with 1e6 s batches and a free pool: one batch
        # leaves the pool state alone; with two or three, the first two
        # run in-process, and their forgone saving buys a pool of one
        # participant per batch, whose first worker runs the third, since
        # the share of the study's own process is the smallest
        self.batches_take(monkeypatch, 1e6)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        rows = montecarlo._BATCH_VALUES // 500
        design = small_design(n=500, reps=(batches - 1) * rows + (rows if full else 1))
        ran, real = [], montecarlo._batch_sample

        def batch_sample(design, start, stop):  # in-process, what a pool's workers do apart
            ran.append((start, stop))
            return real(design, start, stop)

        monkeypatch.setattr(montecarlo, "_batch_sample", batch_sample)
        result = run_study(design, workers=3)
        assert ran == montecarlo._batches(design.reps, 500)[:2]
        assert started_pools == ([] if batches == 1 else [batches])
        assert montecarlo._FORGONE_S == 0.0
        assert same_columns(result, run_study(design, workers=1))

    def test_saving_of_a_kept_pool(self):
        # the pool's w participants run every batch, w at a time
        assert montecarlo._saving(1.0, 1, 8) == 0
        assert montecarlo._saving(1.0, 2, 2) == 1
        assert montecarlo._saving(1.0, 3, 2) == 1
        assert montecarlo._saving(1.0, 31, 2) == 15
        assert montecarlo._saving(1.0, 31, 4) == 23

    @pytest.mark.parametrize("batches", [1, 2, 3, 31])
    def test_one_worker_never_starts_or_uses_a_pool(self, monkeypatch, started_pools, batches):
        # nor reads or writes the process's pool state, however long its
        # batches take and however cheap a pool is
        self.batches_take(monkeypatch, 1e6)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = small_design(n=500, reps=65 * batches)
        assert len(montecarlo._batches(design.reps, 500)) == batches
        want = run_study(design, workers=1)
        assert started_pools == []
        assert (montecarlo._KEPT, montecarlo._FORGONE_S) == (None, 0.0)
        kept = object()  # a pool that fails on any use
        monkeypatch.setattr(montecarlo, "_KEPT", kept)
        monkeypatch.setattr(montecarlo, "_FORGONE_S", 0.01)
        assert same_columns(run_study(design, workers=1), want)
        assert (montecarlo._KEPT, montecarlo._FORGONE_S) == (kept, 0.01)

    def test_no_pool_off_posix(self, monkeypatch, started_pools):
        # a pool passes its segment to its workers as a POSIX file
        # descriptor, so off POSIX a study runs in-process as at one worker,
        # however long its batches take and however cheap a pool is, and
        # leaves the process's pool state alone
        self.batches_take(monkeypatch, 1e6)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = small_design(n=500, reps=300)  # five batches
        want = run_study(design, workers=1)
        monkeypatch.setattr(montecarlo.os, "name", "nt")
        assert same_bits(run_study(design, workers=2), want)
        assert started_pools == []
        assert (montecarlo._KEPT, montecarlo._FORGONE_S) == (None, 0.0)

    def test_a_new_maximum_replaces_the_pool(self, monkeypatch, started_pools):
        # a larger one, which the kept pool is too small for, and a smaller
        # one, which it is too large for
        self.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = small_design(n=500, reps=300)  # five batches
        want = run_study(design, workers=1)
        assert same_columns(run_study(design, workers=2), want)
        old = montecarlo._KEPT
        assert same_columns(run_study(design, workers=3), want)
        assert started_pools == [2, 3]
        assert montecarlo._KEPT.workers == 3
        # shut down before the new one
        assert all(end.closed for end in old.ends)
        assert not any(process.is_alive() for process in old.processes)
        assert same_columns(run_study(design, workers=2), want)
        assert started_pools == [2, 3, 2]

    def test_pool_grows_to_the_batches_a_study_can_use(self, monkeypatch, started_pools):
        # at a maximum of 4, a two-batch study keeps a pool of 2; a
        # five-batch study replaces it by one of 4, which the two-batch
        # study then shares
        self.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        short, long = small_design(n=500, reps=130), small_design(n=500, reps=300)
        want = [run_study(design, workers=1) for design in (short, long)]
        for design, sizes in ((short, [2]), (short, [2]), (long, [2, 4]), (short, [2, 4])):
            assert same_columns(run_study(design, workers=4), want[design is long])
            assert started_pools == sizes
        assert montecarlo._KEPT.workers == 4
        assert len(montecarlo._KEPT.processes) == 3

    @pytest.mark.parametrize("reps,workers,kept,shares", [
        pytest.param(65, 2, 2, [], id="65"), pytest.param(130, 2, 2, [[1, 1]], id="130"),
        pytest.param(195, 2, 2, [[2, 1]], id="195"),
        pytest.param(2000, 2, 2, [[16, 15]], id="2000"),
        pytest.param(325, 2, 2, [[3, 2]], id="325-shares-of-3-and-2"),
        pytest.param(2000, None, 3, [[11, 10, 10]], id="2000-at-3-threads"),
        pytest.param(130, 4, 4, [[1, 1]], id="130-on-a-kept-pool-of-4")])
    def test_kept_pool_keeps_every_bit(self, monkeypatch, started_pools, reps, workers, kept,
                                       shares):
        # 1, 2, 3, 5 and 31 batches of at most 65 rows at n = 500 (one
        # batch runs in-process, as a one-worker study), on a kept pool of
        # 2, of 3 from CENSORED_EVI_THREADS=3 (None), and of 4 that a
        # two-batch study shares at 2.  Each study's batches split into
        # shares of whole batches whose sizes differ by at most one, the
        # last and smallest one the study's own; the study that buys the
        # pool splits what its first two batches leave
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        if workers is None:
            monkeypatch.setenv("CENSORED_EVI_THREADS", str(kept))
        buyer = small_design(n=500, reps=65 * kept)  # a batch per participant
        assert same_columns(run_study(buyer, workers=workers), run_study(buyer, workers=1))
        assert montecarlo._KEPT.workers == kept
        sizes, real = [], montecarlo._KEPT.run

        def run(design, parts, head):
            sizes.append([len(part) for part in parts])
            return real(design, parts, head)

        monkeypatch.setattr(montecarlo._KEPT, "run", run)
        design = small_design(n=500, reps=reps)
        assert same_columns(run_study(design, workers=workers), run_study(design, workers=1))
        assert sizes == shares
        assert started_pools == [kept]

    def test_a_broken_pool_is_dropped_before_the_error_propagates(self, monkeypatch,
                                                                  started_pools):
        # a worker killed between studies or while the study's own share
        # runs, an exception raised in a worker's share, and an interrupt
        # in the study's own share: each reaches the caller after the pool
        # is dropped, its pipes closed and its workers terminated and
        # joined, and the next study succeeds on a new pool
        self.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = small_design(n=500, reps=300)  # five batches: the last three start a pool
        want = run_study(design, workers=1)
        assert same_columns(run_study(design, workers=2), want)
        real, here = montecarlo._batch_values, os.getpid()
        # on a kept pool of 2, the worker runs batches 0-2 and this process 3-4
        own = montecarlo._batches(300, 500)[3]
        for fault in ("killed", "killed mid-study", "raises", "interrupted"):
            pool = montecarlo._KEPT
            worker, failing = pool.processes[0], design
            error, match = RuntimeError, rf"pool worker {worker.name} \(pid {worker.pid}\) stopped"
            if fault == "killed":
                os.kill(worker.pid, signal.SIGKILL)
                worker.join(10)
            elif fault == "raises":
                failing = dataclasses.replace(design, dist_x=RefusedInWorkers(1, 1, 1, 10))
                error, match = ValueError, "refused in a pool worker"
            else:
                def batch_values(design, start, stop, fault=fault, worker=worker):
                    if (start, stop) == own and os.getpid() == here:
                        if fault == "interrupted":
                            raise KeyboardInterrupt
                        os.kill(worker.pid, signal.SIGKILL)
                        worker.join(10)
                    return real(design, start, stop)

                monkeypatch.setattr(montecarlo, "_batch_values", batch_values)
                if fault == "interrupted":
                    error, match = KeyboardInterrupt, None
            with pytest.raises(error, match=match):
                run_study(failing, workers=2)
            assert montecarlo._KEPT is None
            assert all(end.closed for end in pool.ends)
            assert not any(process.is_alive() for process in pool.processes)
            monkeypatch.setattr(montecarlo, "_batch_values", real)
            assert same_columns(run_study(design, workers=2), want)
        assert started_pools == [2] * 5

    def test_threads_never_run_on_a_pool_another_shut_down(self, monkeypatch):
        # more threads than CPUs run studies at two maxima, which replace
        # the kept pool in turn; the pools run their shares in the
        # calling thread, so that no process forks beside threads
        class Pool:
            def __init__(self, workers):
                self.workers, self.open = workers, True

            def start(self):
                pass

            def reserve(self, design):
                assert self.open, "a segment was reserved on a pool that was shut down"

            def run(self, design, shares, head):
                values = np.empty((design.reps, len(design.k_grid), len(design.specs)))
                values[:0 if head is None else len(head)] = head
                for share in shares:
                    assert self.open, "a share ran on a pool that was shut down"
                    montecarlo._run_batches(design, share, values)
                return montecarlo.aggregate(values, design)

            def close(self):
                self.open = False

        monkeypatch.setattr(montecarlo, "_Pool", Pool)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = small_design(n=500, reps=300)  # five batches
        want = run_study(design, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as threads:
                results = list(threads.map(lambda i: run_study(design, workers=2 + i % 2),
                                           range(24), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(same_columns(result, want) for result in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_keeps_no_pool(self, monkeypatch):
        # and closes its copy of the pool's pipe end, which the parent
        # keeps, and its copies of the pool's segment, the mapping and the
        # file descriptor: the parent still writes through its own mapping,
        # and a new mapping of its descriptor reads what it wrote
        end, theirs = multiprocessing.Pipe()
        kept = montecarlo._Pool(2)
        kept.ends.append(end)
        assert kept.reserve(small_design()) is None
        mapping, fd = kept.mapping, kept.fd
        segment = file_id(fd)
        monkeypatch.setattr(montecarlo, "_KEPT", kept)
        monkeypatch.setattr(montecarlo, "_FORGONE_S", 0.02)
        try:
            pid = os.fork()
            if pid == 0:  # the child reports through its exit status alone
                os._exit(0 if (montecarlo._KEPT, montecarlo._FORGONE_S, end.closed,
                               mapping.closed, kept.fd, file_id(fd))
                         == (None, 0.0, True, True, None, None) else 1)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            assert (montecarlo._KEPT, montecarlo._FORGONE_S) == (kept, 0.02)
            assert (kept.mapping, kept.fd, file_id(fd)) == (mapping, fd, segment)
            end.send("open")
            assert theirs.recv() == "open"
            mapping[:5] = b"bytes"
            again = mmap.mmap(fd, len(mapping))
            assert again[:5] == b"bytes"
            again.close()
        finally:
            end.close()
            theirs.close()
            kept.release()

    @pytest.mark.parametrize("second,pool", [(0.0, []), (0.005, [2])])
    def test_only_the_second_batch_is_timed(self, monkeypatch, started_pools, second, pool):
        # the first batch also pays for what is loaded and warmed on first
        # use, so its time does not count: after a 1e6 s first batch, a
        # 0 s second batch starts no pool on the figure-3 study at 2 fork
        # workers, and a 5 ms one still starts it
        now, durations, real = [0.0], iter([1e6, second]), montecarlo.estimate

        def estimate(*args):  # a batch's estimate call, which takes its turn's time
            now[0] += next(durations, 0.0)
            return real(*args)

        monkeypatch.setattr(montecarlo, "perf_counter", lambda: now[0])
        monkeypatch.setattr(montecarlo, "estimate", estimate)
        self.pools_start_by(monkeypatch, "fork")
        design = parse_config(FIGURE3.read_text()).to_design()
        assert design.reps == 2000
        run_study(design, workers=2)
        assert started_pools == pool

    @pytest.mark.parametrize("reps,sizes", [
        (120, [60] * 2), (80, [40] * 2), (2000, [65] * 16 + [64] * 15), (1, [1]),
        (montecarlo._BATCH_VALUES // 500 + 1, [33] * 2)])
    @pytest.mark.parametrize("pool", [False, True])
    def test_fewest_batches_of_equal_sizes(self, monkeypatch, started_pools, reps, sizes, pool):
        # at n = 500 a batch has at most 65 rows: a study takes the fewest
        # batches that allows, their sizes differing by at most one, in
        # process and through a pool that always pays
        assert max(sizes) <= montecarlo._BATCH_VALUES // 500
        assert len(sizes) == math.ceil(reps / (montecarlo._BATCH_VALUES // 500))
        got, real = [], montecarlo._batch_values

        def batch_values(design, start, stop):
            got.append(stop - start)
            return real(design, start, stop)

        class Pool(montecarlo._Pool):
            def run(self, design, shares, head):
                # every share is counted here, the study's own one too, which
                # then runs the real batch function
                got.extend(stop - start for share in shares for start, stop in share)
                monkeypatch.setattr(montecarlo, "_batch_values", real)
                return super().run(design, shares, head)

        monkeypatch.setattr(montecarlo, "_batch_values", batch_values)
        monkeypatch.setattr(montecarlo, "_Pool", Pool)
        if pool:
            self.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        run_study(dataclasses.replace(one_cell_design(reps), n=500), workers=2 if pool else 1)
        assert got == sizes
        assert started_pools == ([2] if pool and len(sizes) > 1 else [])

    def test_pool_cost_follows_the_default_start_method(self, monkeypatch):
        # before any start method is set, the cost is that of the default,
        # the first method multiprocessing lists
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: None)
        for methods in (["fork", "spawn"], ["spawn", "fork"], ["forkserver", "fork", "spawn"]):
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
            assert montecarlo._pool_cost_s(2) == montecarlo._POOL_COST_S[methods[0]]

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_pool_is_priced_by_the_workers_it_starts(self, monkeypatch, workers):
        # a pool of w participants starts w - 1 worker processes, each at
        # the price of its start method: at w = 2 the price of one
        for method, price in montecarlo._POOL_COST_S.items():
            self.pools_start_by(monkeypatch, method)
            assert montecarlo._pool_cost_s(workers) == price * (workers - 1)

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_a_study_that_pays_for_two_participants_does_not_buy_four(
            self, monkeypatch, started_pools, method):
        # at 25 ms batches the figure-3 study saves 0.375 s at 2 workers,
        # which pays for a pool of two, and 0.575 s at 4, which does not
        # pay for the three workers a pool of four starts
        self.batches_take(monkeypatch, 0.025)
        self.pools_start_by(monkeypatch, method)
        assert montecarlo._saving(0.025, 31, 4) == pytest.approx(0.575)
        run_study(self.figure3(), workers=4)
        assert started_pools == []
        assert (montecarlo._KEPT, montecarlo._FORGONE_S) == (None, 0.0)

    @pytest.mark.parametrize("reps,workers,pool", [(10, 8, 5), (10, 2, 2), (10, 1, None),
                                                   (7, 8, 4), (4, 8, 2)])
    def test_pool_has_one_worker_per_batch_at_most(self, monkeypatch, started_pools,
                                                   reps, workers, pool):
        # a study of 5, 4 or 2 batches keeps no worker it cannot use
        self.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 2 * 60)  # 2 rows at n = 60
        design = small_design(reps=reps)
        result = run_study(design, workers=workers)
        assert started_pools == ([] if pool is None else [pool])
        assert same_columns(result, run_study(design, workers=1))


class TestWorkerIndependence:
    # Each test runs its batches after the first on real worker processes:
    # batches of few replicates, and a pool that always pays.
    def test_result_identical_for_any_worker_count(self, monkeypatch, started_pools):
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 60)  # one replicate per batch
        d = small_design(reps=6)
        results = [run_study(d, workers=w) for w in (1, 2, 3)]
        assert started_pools == [2, 3]
        baseline = [repr(c) for c in results[0].cells]
        for res in results[1:]:
            assert [repr(c) for c in res.cells] == baseline

    def test_pool_of_several_batches_gives_equal_arrays(self, monkeypatch, started_pools):
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 16 * 500)
        # four batches of 15 rows, the last two on the pool
        d = small_design(n=500, reps=60)
        serial, pooled = run_study(d, workers=1), run_study(d, workers=2)
        assert started_pools == [2]
        for name in ("median_bias", "mse", "mean", "variance", "degenerate_count"):
            assert np.array_equal(getattr(pooled, name), getattr(serial, name), equal_nan=True)

    @staticmethod
    def fresh(code):
        """The command and environment that run ``code`` after a two-batch
        study design is built, in a fresh interpreter, since this one has
        imported the pool already."""
        code = textwrap.dedent("""
            import sys
            import censored_evi.cli
            from censored_evi import (Family, Method, ReverseBurr, StudyDesign, build_specs,
                                      run_study)
            design = StudyDesign(dist_x=ReverseBurr(1, 1, 1, 10),
                                 dist_c=ReverseBurr(10, 2 / 3, 1, 10), n=500, reps=40,
                                 k_grid=(50,), specs=build_specs(Family, Method, (2.0,)), seed=1)
        """) + textwrap.dedent(code)
        root = str(Path(censored_evi.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        return [sys.executable, "-c", code], {**os.environ, "PYTHONPATH": path}

    @classmethod
    def run_fresh(cls, code):
        """Run ``code`` as ``fresh`` does; its output."""
        command, env = cls.fresh(code)
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_kept_pool_workers_end_with_the_process(self):
        # a process that keeps a pool and exits normally leaves no worker
        pids = self.run_fresh("""
            import dataclasses, multiprocessing
            from censored_evi import montecarlo
            montecarlo._POOL_COST_S = dict.fromkeys(montecarlo._POOL_COST_S, 0.0)
            run_study(dataclasses.replace(design, reps=200), workers=2)  # four batches
            assert montecarlo._KEPT.workers == 2
            print(*[child.pid for child in multiprocessing.active_children()])
        """).split()
        assert pids
        for pid in map(int, pids):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("death", ["os._exit", "SIGKILL"])
    def test_kept_pool_workers_end_with_a_process_that_dies(self, tmp_path, death):
        # a process that keeps a pool of itself and two workers and then
        # runs no exit handler, leaving by os._exit(0) or killed by
        # SIGKILL, leaves no worker 10 s later: each sees its pipe's EOF
        command, env = self.fresh(f"""
            import dataclasses, os, time
            from censored_evi import montecarlo
            montecarlo._POOL_COST_S = dict.fromkeys(montecarlo._POOL_COST_S, 0.0)
            run_study(dataclasses.replace(design, reps=200), workers=3)  # four batches
            print(*[process.pid for process in montecarlo._KEPT.processes], flush=True)
            {"os._exit(0)" if death == "os._exit" else "time.sleep(60)"}
        """)
        with open(tmp_path / "stderr", "w") as stderr, subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True) as proc:
            # the workers hold the output pipe too, so read one line alone
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            if death == "SIGKILL":
                proc.kill()
            proc.wait(60)
        assert len(pids) == 2, (tmp_path / "stderr").read_text()
        deadline = time.monotonic() + 10
        try:
            while not all(map(ended, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(ended, pids)), "a pool worker outlived its process"
        finally:
            for pid in pids:
                if not ended(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_serial_runs_do_not_import_the_pool(self):
        # nor its segment
        self.run_fresh("""
            run_study(design, workers=1)
            assert "multiprocessing" not in sys.modules
            assert "multiprocessing.shared_memory" not in sys.modules
            assert "mmap" not in sys.modules
            assert "concurrent.futures" not in sys.modules
        """)

    def test_import_and_design_do_not_import_numpy_random(self):
        # numpy.random is imported by the first batch, not by the package,
        # its config reader or its front end
        self.run_fresh(f"""
            from censored_evi import config
            config.parse_config(open({str(FIGURE1_CFG)!r}).read()).to_design()
            assert "numpy.random" not in sys.modules
            run_study(design, workers=1)
            assert "numpy.random" in sys.modules
        """)

    def test_environment_variable_path(self, monkeypatch, started_pools):
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 60)  # one replicate per batch
        d = small_design(reps=4)
        want = [repr(c) for c in run_study(d, workers=1).cells]
        monkeypatch.setenv("CENSORED_EVI_THREADS", "2")
        got = [repr(c) for c in run_study(d, workers=None).cells]
        assert started_pools == [2]
        assert got == want


def shm_names():
    """The names in /dev/shm, where Linux keeps POSIX shared memory; an
    empty set where there is no such directory."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def full_shm(fd, offset, length):
    """An ``os.posix_fallocate`` on a full /dev/shm."""
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def file_id(fd):
    """``(st_dev, st_ino)`` of the file that descriptor ``fd`` of this
    process refers to, or None when ``fd`` is not open."""
    try:
        info = os.fstat(fd)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def wait_ended(pids):
    """Wait up to 10 s for the processes ``pids`` to end; kill those that
    have not, and fail then."""
    deadline = time.monotonic() + 10
    try:
        while not all(map(ended, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(ended, pids)), "a pool worker or the resource tracker outlived it"
    finally:
        for pid in pids:
            if not ended(pid):
                os.kill(pid, signal.SIGKILL)


class TestSegment:
    # A pool keeps one shared segment: every participant writes its rows
    # there in place, and then reduces its own slice of the k-grid there.
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_criterion_7_under_every_start_method(self, monkeypatch, started_pools, method):
        # the columns at 1, 2 and 4 workers have the same bytes, on pools
        # whose workers start by each method that multiprocessing offers
        # here, the last study on a kept pool whose workers hold its
        # design; no segment is left once the pool is dropped
        names = shm_names()
        before = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            TestPoolSize.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
            monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 5 * 60)  # 5 rows at n = 60
            design = small_design(reps=40, k_grid=(10, 20, 30, 40, 50))  # eight batches
            want = run_study(design, workers=1)
            for workers in (2, 4, 4):
                assert same_bits(run_study(design, workers=workers), want)
            assert started_pools == [2, 4]
        finally:
            montecarlo._drop_pool()
            multiprocessing.set_start_method(before, force=True)
        assert shm_names() <= names

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and two CPUs to run on")
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_a_worker_leaves_the_cpu_of_the_study(self, monkeypatch, method):
        # on each task a worker restricts itself to the CPUs this process
        # may run on but the one the study's process last ran on, whichever
        # start method started it; a process it cannot read changes nothing
        allowed = os.sched_getaffinity(0)
        before = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            TestPoolSize.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
            design = small_design(n=500, reps=300)  # five batches
            for _ in range(2):
                assert same_bits(run_study(design, workers=2), run_study(design, workers=1))
            (worker,) = montecarlo._KEPT.processes
            theirs = os.sched_getaffinity(worker.pid)
        finally:
            montecarlo._drop_pool()
            multiprocessing.set_start_method(before, force=True)
        assert theirs < allowed and len(theirs) == len(allowed) - 1
        montecarlo._leave_cpu_of(-1, set())  # no /proc/-1/stat
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize("death", ["exit", "os._exit", "SIGKILL"])
    def test_no_segment_outlives_its_process(self, tmp_path, death):
        # a process that runs pooled studies, whose pool replaces its
        # segment by a larger one once, and then exits normally, leaves by
        # os._exit or is killed, leaves no segment in /dev/shm once its
        # workers and its resource tracker have ended, and nothing warns of
        # one on its stderr
        names = shm_names()
        command, env = TestWorkerIndependence.fresh(f"""
            import dataclasses, os, time
            from multiprocessing import resource_tracker
            from censored_evi import montecarlo
            montecarlo._POOL_COST_S = dict.fromkeys(montecarlo._POOL_COST_S, 0.0)
            for reps in (200, 400, 200):  # four, then seven batches
                run_study(dataclasses.replace(design, reps=reps, k_grid=(50, 100, 150)),
                          workers=3)
            print(*[process.pid for process in montecarlo._KEPT.processes],
                  resource_tracker._resource_tracker._pid, flush=True)
            {"time.sleep(60)" if death == "SIGKILL" else "os._exit(0)" if death == "os._exit"
             else "pass"}
        """)
        with open(tmp_path / "stderr", "w") as stderr, subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True) as proc:
            # the workers hold the output pipe too, so read one line alone
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            if death == "SIGKILL":
                proc.kill()
            proc.wait(60)
        assert len(pids) == 3, (tmp_path / "stderr").read_text()
        wait_ended(pids)
        assert proc.returncode == (-signal.SIGKILL if death == "SIGKILL" else 0)
        assert shm_names() <= names
        assert "resource_tracker" not in (tmp_path / "stderr").read_text()

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_no_name_outlives_a_process_killed_in_its_first_pooled_study(self, tmp_path,
                                                                         method):
        # a process is killed while it runs its own share of the first study
        # on its new pool, after the workers were sent theirs: once its
        # workers and its resource tracker have ended, no segment is left
        # in /dev/shm and nothing warns of one on its stderr, since the
        # segment's name went before the workers were sent anything
        names = shm_names()
        command, env = TestWorkerIndependence.fresh(f"""
            import dataclasses, multiprocessing, time
            from multiprocessing import resource_tracker
            from censored_evi import montecarlo
            multiprocessing.set_start_method({method!r}, force=True)
            montecarlo._POOL_COST_S = dict.fromkeys(montecarlo._POOL_COST_S, 0.0)
            real = montecarlo._run_batches

            def run_batches(design, bounds, values):
                if montecarlo._KEPT is not None:  # this process's share on the pool
                    print(*[process.pid for process in montecarlo._KEPT.processes],
                          resource_tracker._resource_tracker._pid, flush=True)
                    time.sleep(60)
                real(design, bounds, values)

            montecarlo._run_batches = run_batches
            run_study(dataclasses.replace(design, reps=400, k_grid=(50, 100, 150)), workers=3)
        """)
        with open(tmp_path / "stderr", "w") as stderr, subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True) as proc:
            # the workers hold the output pipe too, so read one line alone
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            proc.kill()
            proc.wait(60)
        assert len(pids) == 3, (tmp_path / "stderr").read_text()
        wait_ended(pids)
        assert proc.returncode == -signal.SIGKILL
        assert shm_names() <= names
        assert "resource_tracker" not in (tmp_path / "stderr").read_text()

    def test_a_reserved_segment_has_no_name(self, monkeypatch):
        # reserve unlinks the name of each segment it creates before it
        # returns, and keeps the segment's mapping and file descriptor
        created, real = [], shared_memory.SharedMemory

        def recorded(*args, **kwargs):
            segment = real(*args, **kwargs)
            created.append(segment.name)
            return segment

        monkeypatch.setattr(shared_memory, "SharedMemory", recorded)
        names = shm_names()
        pool = montecarlo._Pool(2)  # no worker started
        try:
            for reps in (6, 60):  # a new, larger segment the second time
                assert pool.reserve(small_design(reps=reps)) is None
                assert len(pool.mapping) == montecarlo._segment_bytes(small_design(reps=reps))
                assert file_id(pool.fd) is not None
                assert shm_names() <= names
                with pytest.raises(FileNotFoundError):
                    real(created[-1])
            assert len(created) == 2
        finally:
            pool.release()
        assert (pool.mapping, pool.fd) == (None, None)

    @pytest.mark.parametrize("step", ["rows", "statistics"])
    def test_a_worker_exception_frees_the_segment(self, monkeypatch, step):
        # a worker raises while it stores its rows, or while it reduces its
        # slice, in the first study on a new pool: the error reaches the
        # caller after the pool is dropped, its workers joined and its
        # segment's file descriptor closed and its mapping released; the
        # next study runs on a new pool
        if step == "statistics" and montecarlo._start_method() != "fork":
            pytest.skip("a patch reaches pool workers only through fork")
        TestPoolSize.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        runs = []

        class Pool(montecarlo._Pool):
            def run(self, design, shares, head):
                runs.append((self, weakref.ref(self.mapping), self.fd, file_id(self.fd)))
                return super().run(design, shares, head)

        monkeypatch.setattr(montecarlo, "_Pool", Pool)
        design = small_design(n=500, reps=300)  # five batches: the last three start a pool
        want = run_study(design, workers=1)
        names = shm_names()
        failing, real = design, montecarlo._column_stats
        if step == "rows":
            failing = dataclasses.replace(design, dist_x=RefusedInWorkers(1, 1, 1, 10))
        else:
            def column_stats(*args):
                if multiprocessing.parent_process() is not None:
                    raise ValueError("refused in a pool worker")
                return real(*args)

            monkeypatch.setattr(montecarlo, "_column_stats", column_stats)
        with pytest.raises(ValueError, match="refused in a pool worker"):
            run_study(failing, workers=2)
        ((pool, mapping, fd, segment),) = runs
        assert montecarlo._KEPT is None
        assert (pool.mapping, pool.fd) == (None, None)
        assert not any(process.is_alive() for process in pool.processes)
        assert segment is not None and file_id(fd) != segment
        gc.collect()  # the traceback's views of the mapping go
        assert mapping() is None
        assert shm_names() <= names
        monkeypatch.setattr(montecarlo, "_column_stats", real)
        assert same_bits(run_study(design, workers=2), want)
        assert len(runs) == 2 and montecarlo._KEPT is runs[1][0]

    def test_a_repeated_study_sends_no_design(self, monkeypatch):
        # each worker keeps the last design it was sent, so a repeated
        # study sends it only its batch bounds and its slice; the segment's
        # size, and then its file descriptor, go with the first study on
        # it alone, and again with the first study on a larger one
        TestPoolSize.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = small_design(n=500, reps=300)  # five batches
        other = dataclasses.replace(design, seed=design.seed + 1)
        larger = dataclasses.replace(design, reps=400)  # seven batches, a larger segment
        tasks, handles, real = [], [], montecarlo._piped

        def piped(process, call, *args):
            if call is send_handle:
                handles.append(len(tasks))  # the tasks sent before the descriptor
            elif args and args[0] is not None:  # not the message that starts the reductions
                tasks.append(args[0])
            return real(process, call, *args)

        monkeypatch.setattr(montecarlo, "_piped", piped)
        for study in (design, design, other, other, larger):
            assert same_bits(run_study(study, workers=2), run_study(study, workers=1))
        assert [sent for sent, _, _, _ in tasks] == [design, None, other, None, larger]
        sizes = [montecarlo._segment_bytes(study) for study in (design, larger)]
        assert [size for _, size, _, _ in tasks] == [sizes[0], None, None, None, sizes[1]]
        assert handles == [1, 5]

    def test_a_study_whose_segment_cannot_be_reserved_runs_in_process(self, monkeypatch):
        # with /dev/shm full, a study that needs a larger segment than the
        # kept pool's runs in-process, as at one worker: the pool, its
        # segment and the forgone total stay as they were, no segment is
        # left, and a study that the kept segment holds still runs on it
        TestPoolSize.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        small, large = small_design(n=500, reps=300), small_design(n=500, reps=600)
        want = [run_study(design, workers=1) for design in (small, large)]
        assert same_bits(run_study(small, workers=2), want[0])
        pool = montecarlo._KEPT
        mapping, names = pool.mapping, shm_names()
        monkeypatch.setattr(os, "posix_fallocate", full_shm, raising=False)
        ran, real = [], montecarlo._run_batches

        def run_batches(design, bounds, values):
            ran.extend(bounds)
            real(design, bounds, values)

        monkeypatch.setattr(montecarlo, "_run_batches", run_batches)
        assert same_bits(run_study(large, workers=2), want[1])
        assert ran == montecarlo._batches(600, 500)  # all of them, here
        assert (montecarlo._KEPT, pool.mapping, montecarlo._FORGONE_S) == (pool, mapping, 0.0)
        assert shm_names() <= names
        assert same_bits(run_study(small, workers=2), want[0])
        assert pool.mapping is mapping

    @pytest.mark.parametrize("pool", [False, True])
    def test_values_that_cannot_be_held_are_reported_before_the_first_batch(self, monkeypatch,
                                                                           pool):
        # the figure-1 design at 10**7 replicates holds 10**7 x 40 x 3
        # values, 9.6 GB: when numpy cannot allocate them (with a kept
        # pool, once a full /dev/shm cannot hold them either), the
        # MemoryError names that size and the design's, and no batch runs
        design = dataclasses.replace(parse_config(FIGURE1_CFG.read_text()).to_design(),
                                     reps=10 ** 7)
        if pool:
            TestPoolSize.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
            run_study(small_design(n=500, reps=300), workers=2)
            monkeypatch.setattr(os, "posix_fallocate", full_shm, raising=False)
            # nothing of this study may reach the workers
            monkeypatch.setattr(montecarlo._KEPT, "run",
                                lambda *args: pytest.fail("the study ran on the pool"))
        kept, real = montecarlo._KEPT, np.empty

        def empty(shape, *args, **kwargs):
            if shape == (10 ** 7, 40, 3):
                raise MemoryError("Unable to allocate 8.94 GiB")
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr(montecarlo, "_batch_values", lambda *args: pytest.fail("a batch ran"))
        size = (r"10000000 x 40 x 3 values \(reps x len\(k_grid\) x len\(specs\)\) "
                r"needs 9,600,000,000 bytes")
        with pytest.raises(MemoryError, match=size) as caught:
            run_study(design, workers=2 if pool else 1)
        segment = "segment of 9,600,004,800 bytes could not be reserved"
        assert (segment in str(caught.value)) == pool
        assert montecarlo._KEPT is kept


class TestTailProportionCalibration:
    def test_median_p_hat_at_moderate_sample(self):
        # Figure-1 pair at n=500, k=100: the uncensored tail proportion
        # concentrates near its finite-threshold expectation 0.8202 (exact
        # quadrature of E[delta | Z in top decile]), far above the limit
        # value p = 0.6 that only tighter thresholds approach.
        d = small_design(
            n=500,
            reps=500,
            k_grid=(100,),
            specs=(EstimatorSpec(Family.MOMENT, Method.KM, 2.0),),
            seed=20140402,
        )
        p_hats = [run_replicate(d, r)[0].p_hat for r in range(d.reps)]
        assert float(np.median(p_hats)) == pytest.approx(0.8202, abs=0.01)


class TestSweepsNeverAbort:
    def test_non_positive_thresholds_count_as_degenerate(self):
        # Figure-1 pair at n = 50: the Reverse Burr laws put mass below
        # zero, and at this seed 12 of the 20 samples have Z_(5) <= 0
        d = small_design(n=50, reps=20, k_grid=(45,), seed=101)
        bad = 0
        for r in range(d.reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(d.seed, r)))
            x = d.dist_x.sample(rng, d.n)
            s = make_censored(x, d.dist_c.sample(rng, d.n), require_positive=False)
            bad += s.z[d.n - 45 - 1] <= 0
        assert bad == 12
        res = run_study(d, workers=1)
        assert len(res.cells) == len(d.specs)
        assert all(cell.degenerate_count >= bad for cell in res.cells)

    @given(
        n=st.integers(2, 60),
        reps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_study_completes_for_any_k(self, n, reps, seed, data):
        k = data.draw(st.integers(1, n - 1))
        d = small_design(n=n, reps=reps, k_grid=(k,), seed=seed)
        res = run_study(d, workers=1)
        assert [cell.spec for cell in res.cells] == list(d.specs)
        for cell in res.cells:
            assert 0 <= cell.degenerate_count <= reps
            assert math.isnan(cell.mean) == (cell.degenerate_count == reps)
