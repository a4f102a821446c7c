import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import FIGURE1_C, FIGURE1_X

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
        specs = build_specs(ALL_FAMILIES, ALL_METHODS, (1.0, 2.0))
        assert len(specs) == 3 * 3 * 2
        assert specs[0] == EstimatorSpec(Family.MOMENT, Method.KM, 1.0)
        assert specs[1] == EstimatorSpec(Family.MOMENT, Method.KM, 2.0)
        assert specs[-1] == EstimatorSpec(Family.TYPE2, Method.EFG, 2.0)


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
        ],
    )
    def test_invalid_designs_raise(self, overrides, pattern):
        with pytest.raises(ValueError, match=pattern):
            small_design(**overrides)


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
    # A pool starts all its workers up front and a task is one batch of
    # 2**13 // n replicates (16 at n = 500), so the pool is capped at the
    # batch count and one batch runs in-process.
    @pytest.mark.parametrize("reps,workers,pool", [(16, 4, None), (40, 8, 3), (40, 2, 2)])
    def test_pool_has_at_most_one_worker_per_batch(self, monkeypatch, reps, workers, pool):
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        design = small_design(n=500, reps=reps)
        expected = run_study(design, workers=1)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Recorder)
        result = run_study(design, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert np.array_equal(result.mse, expected.mse, equal_nan=True)


class TestWorkerIndependence:
    def test_result_identical_for_any_worker_count(self):
        d = small_design(reps=6)
        results = [run_study(d, workers=w) for w in (1, 2, 3)]
        baseline = [repr(c) for c in results[0].cells]
        for res in results[1:]:
            assert [repr(c) for c in res.cells] == baseline

    def test_environment_variable_path(self, monkeypatch):
        d = small_design(reps=4)
        want = [repr(c) for c in run_study(d, workers=1).cells]
        monkeypatch.setenv("CENSORED_EVI_THREADS", "2")
        got = [repr(c) for c in run_study(d, workers=None).cells]
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
