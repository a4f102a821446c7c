import concurrent.futures
import dataclasses
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
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


def spanned_batch_values(design, start, stop):
    """``montecarlo._batch_values`` of one batch and the (start, stop) of
    each ``_seed_words`` call it makes; a pool task that any worker
    process can run, however it was started."""
    spans, real = [], montecarlo._seed_words

    def seed_words(seed, start, stop):
        spans.append((start, stop))
        return real(seed, start, stop)

    montecarlo._seed_words = seed_words
    try:
        return montecarlo._batch_values(design, start, stop), spans
    finally:
        montecarlo._seed_words = real


class TestSeedSpans:
    # each batch seeds its own rows with one _seed_words call, in-process
    # and in a pool's workers
    @pytest.mark.parametrize("n,reps", [(60, 1), (60, 120), (60, 5000), (2, 5000)])
    @pytest.mark.parametrize("pool", [False, True])
    def test_one_call_per_batch(self, monkeypatch, started_pools, n, reps, pool):
        # n = 60: batches of at most 546 rows, so 5 000 replicates make
        # ten; n = 2: 5 000 replicates make one batch
        spans, real = [], montecarlo._seed_words

        def seed_words(seed, start, stop):
            spans.append((start, stop))
            return real(seed, start, stop)

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *tasks):
                assert fn is montecarlo._batch_values
                for values, task_spans in super().map(spanned_batch_values, *tasks):
                    spans.extend(task_spans)
                    yield values

        monkeypatch.setattr(montecarlo, "_seed_words", seed_words)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        if pool:
            TestPoolSize.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = dataclasses.replace(one_cell_design(reps), n=n, k_grid=(1,))
        run_study(design, workers=2 if pool else 1)
        batches = montecarlo._batches(reps, n)
        assert spans == batches
        assert started_pools == ([2] if pool and len(batches) > 3 else [])


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

    @pytest.mark.parametrize("raw", ["abc", "0", "1_0", "\uff12"])
    def test_bad_environment_value_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("CENSORED_EVI_THREADS", raw)
        message = f"CENSORED_EVI_THREADS must be a positive integer, got '{raw}'"
        with pytest.raises(ValueError) as info:
            resolve_workers(None, 10)
        assert str(info.value) == message


class TestPoolSize:
    # run_study runs its first two batches in-process and times the
    # second; it hands the remaining batches to a pool of w = min(workers,
    # remaining batches) workers only when second batch time * remaining
    # batches * (1 - 1/w) exceeds montecarlo._POOL_COST_S.
    @staticmethod
    def batches_take(monkeypatch, seconds):
        """A clock that advances ``seconds`` at each reading, so each
        batch run_study times takes that long to it."""
        ticks = itertools.count()
        monkeypatch.setattr(montecarlo, "perf_counter", lambda: seconds * next(ticks))

    @staticmethod
    def never_pooled(monkeypatch, started_pools, batches, full):
        """A study of ``batches`` batches of n = 500, the last one full or
        of one replicate, starts no pool however long its batches take and
        however cheap a pool is."""
        TestPoolSize.batches_take(monkeypatch, 1e6)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        rows = montecarlo._BATCH_VALUES // 500
        design = small_design(n=500, reps=(batches - 1) * rows + (rows if full else 1))
        result = run_study(design, workers=8)
        assert started_pools == []
        assert np.array_equal(result.mse, run_study(design, workers=1).mse, equal_nan=True)

    @pytest.mark.parametrize("batches,full", [(1, True), (1, False), (2, True), (2, False)])
    def test_one_or_two_batches_never_start_a_pool(self, monkeypatch, started_pools, batches,
                                                    full):
        # both run in-process, and no batch is left for a pool
        self.never_pooled(monkeypatch, started_pools, batches, full)

    @pytest.mark.parametrize("full", [True, False])
    def test_three_batches_never_start_a_pool(self, monkeypatch, started_pools, full):
        # the one batch after the first two would run on one worker, which
        # saves nothing
        self.never_pooled(monkeypatch, started_pools, 3, full)

    @staticmethod
    def pools_start_by(monkeypatch, method):
        """run_study prices its pool as one whose workers start by
        ``method``; the pool it starts still takes the default method."""
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)

    def test_long_study_starts_a_pool(self, monkeypatch, started_pools):
        # the figure-3 study at 2 workers with its second batch timed at
        # 5 ms, about what 65 of its replicates take on a 2-CPU machine:
        # with fork workers the pool pays at 2000 replicates, at 80 it
        # does not
        self.batches_take(monkeypatch, 0.005)
        self.pools_start_by(monkeypatch, "fork")
        design = parse_config(FIGURE3.read_text()).to_design()
        assert design.reps == 2000
        run_study(dataclasses.replace(design, reps=80), workers=2)
        assert started_pools == []
        run_study(design, workers=2)
        assert started_pools == [2]

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_long_study_keeps_a_slow_starting_pool_out(self, monkeypatch, started_pools,
                                                        method):
        # the same study saves about 0.07 s on the pool, less than a pool
        # costs whose workers import the package again
        self.batches_take(monkeypatch, 0.005)
        self.pools_start_by(monkeypatch, method)
        design = parse_config(FIGURE3.read_text()).to_design()
        assert design.reps == 2000
        run_study(design, workers=2)
        assert started_pools == []

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
        # process and through a pool that always pays (from four batches)
        assert max(sizes) <= montecarlo._BATCH_VALUES // 500
        assert len(sizes) == math.ceil(reps / (montecarlo._BATCH_VALUES // 500))
        got, real = [], montecarlo._batch_values

        def batch_values(design, start, stop):
            got.append(stop - start)
            return real(design, start, stop)

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, designs, starts, stops):
                assert fn is batch_values
                starts, stops = list(starts), list(stops)
                got.extend(stop - start for start, stop in zip(starts, stops))
                # the workers get the batch function by name
                monkeypatch.setattr(montecarlo, "_batch_values", real)
                return super().map(real, designs, starts, stops)

        monkeypatch.setattr(montecarlo, "_batch_values", batch_values)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        if pool:
            self.batches_take(monkeypatch, 1.0)
            monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        run_study(dataclasses.replace(one_cell_design(reps), n=500), workers=2 if pool else 1)
        assert got == sizes
        assert started_pools == ([2] if pool and len(sizes) > 3 else [])

    def test_pool_cost_follows_the_default_start_method(self, monkeypatch):
        # before any start method is set, the cost is that of the default,
        # the first method multiprocessing lists
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: None)
        for methods in (["fork", "spawn"], ["spawn", "fork"], ["forkserver", "fork", "spawn"]):
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
            assert montecarlo._pool_cost_s() == montecarlo._POOL_COST_S[methods[0]]

    @pytest.mark.parametrize("reps,workers,pool", [(10, 8, 3), (10, 2, 2), (10, 1, None),
                                                   (7, 8, 2), (4, 8, None)])
    def test_pool_has_one_worker_per_remaining_batch_at_most(self, monkeypatch, started_pools,
                                                             reps, workers, pool):
        self.batches_take(monkeypatch, 1.0)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 2 * 60)  # 2 rows at n = 60
        design = small_design(reps=reps)
        result = run_study(design, workers=workers)
        assert started_pools == ([] if pool is None else [pool])
        assert np.array_equal(result.mse, run_study(design, workers=1).mse, equal_nan=True)


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
    def run_fresh(code):
        """Run ``code`` after a two-batch study design is built, in a fresh
        interpreter, since this one has imported the pool already."""
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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr

    def test_serial_runs_do_not_import_the_pool(self):
        self.run_fresh("""
            run_study(design, workers=1)
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
