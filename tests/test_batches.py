"""A batch of samples ``(R, n)`` gives each row the bits that row gets as a
sample on its own, at every layer from ``make_censored`` to ``run_study``.

Bits are compared through ``int64`` views, so NaN payloads and signed
zeros count too.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censored_evi import (
    GPD,
    BetaDist,
    ReverseBurr,
    StudyDesign,
    aggregate,
    build_specs,
    estimate,
    fit,
    make_censored,
    run_replicate,
    run_study,
    tail_moments,
    tail_uncensored_proportion,
)
from censored_evi import montecarlo
from censored_evi.estimators import Family, Method
from censored_evi.moments import _weights
from censored_evi.montecarlo import _batch_sample, _batch_values, _seed_words

from conftest import DESIGNS, FIGURE1_C, FIGURE1_X, FREE_POOL

ALL_SPECS = build_specs(tuple(Family), tuple(Method), (2.0,))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_rows_equal(batch, rows):
    """``batch`` stacks the arrays in ``rows`` bit for bit."""
    assert batch.shape == (len(rows),) + np.shape(rows[0])
    for got, want in zip(batch, rows):
        np.testing.assert_array_equal(bits(got), bits(want))


@st.composite
def batch_inputs(draw):
    """(x, c, ks): a random (R, n) draw from one of the test designs and a
    sorted k-grid without repeats."""
    rows, n = draw(st.integers(1, 8)), draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fx, gc = DESIGNS[draw(st.integers(0, len(DESIGNS) - 1))]
    x = fx.quantile(rng.uniform(1e-9, 1 - 1e-9, (rows, n)))
    c = gc.quantile(rng.uniform(1e-9, 1 - 1e-9, (rows, n)))
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=12)))
    return x, c, np.array(ks)


class TestLayersOnBatches:
    @given(batch_inputs())
    @settings(max_examples=60, deadline=None)
    def test_curves_and_tail_proportion(self, inputs):
        x, c, ks = inputs
        batch = make_censored(x, c, require_positive=False)
        singles = [make_censored(a, b, require_positive=False) for a, b in zip(x, c)]
        assert_rows_equal(batch.z, [s.z for s in singles])
        assert_rows_equal(batch.delta, [s.delta for s in singles])
        assert_rows_equal(fit(batch), [fit(s) for s in singles])
        # the km weights, normalisers and l's top normalisers read from it
        for got, want in zip(_weights(batch, ks), zip(*(_weights(s, ks) for s in singles))):
            assert_rows_equal(got, [w[0] for w in want])
        assert_rows_equal(tail_uncensored_proportion(batch, ks),
                          [tail_uncensored_proportion(s, ks) for s in singles])

    @given(batch_inputs(), st.sets(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.25]),
                                   min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_moments_and_estimates(self, inputs, orders):
        x, c, ks = inputs
        orders = sorted(orders)
        batch = make_censored(x, c, require_positive=False)
        singles = [make_censored(a, b, require_positive=False) for a, b in zip(x, c)]
        for got, want in zip(tail_moments(batch, ks, orders),
                             zip(*(tail_moments(s, ks, orders) for s in singles))):
            for p in orders:
                assert_rows_equal(got[p], [m[p] for m in want])
        p_hat, values = estimate(batch, ks, ALL_SPECS)
        want = [estimate(s, ks, ALL_SPECS) for s in singles]
        assert_rows_equal(p_hat, [w[0] for w in want])
        assert_rows_equal(values, [w[1] for w in want])

    def test_many_rows_split_into_row_blocks(self):
        # 400 rows of n = 300 with k up to 299: the pass splits both the
        # rows and the grid into blocks, which must not change a bit
        rng = np.random.default_rng(11)
        fx, gc = DESIGNS[3]
        x = fx.sample(rng, 400 * 300).reshape(400, 300)
        c = gc.sample(rng, 400 * 300).reshape(400, 300)
        ks = np.arange(1, 300, 7)
        batch = make_censored(x, c, require_positive=False)
        got = tail_moments(batch, ks, (1.0, 2.0))[1]
        for row in (0, 199, 399):
            single = make_censored(x[row], c[row], require_positive=False)
            want = tail_moments(single, ks, (1.0, 2.0))[1]
            for p in (1.0, 2.0):
                np.testing.assert_array_equal(bits(got[p][row]), bits(want[p]))

    def test_batch_of_no_rows(self):
        batch = make_censored(np.ones((0, 5)), np.ones((0, 5)))
        p_hat, values = estimate(batch, [1, 2], ALL_SPECS)
        assert p_hat.shape == (0, 2) and values.shape == (0, 2, len(ALL_SPECS))

    def test_tied_and_untied_rows_keep_their_standalone_bits(self):
        # One tie anywhere sends the whole batch through the tie-breaking
        # sort; untied rows must still get the order they get alone.  Row
        # 1 ties a censored and an uncensored value at its maximum Z_(n),
        # row 3 ties inside the sample.
        rng = np.random.default_rng(5)
        x = rng.uniform(1.0, 9.0, (4, 6))
        c = rng.uniform(1.0, 9.0, (4, 6))
        x[1, 2], c[1, 2] = 9.75, 9.5     # censored 9.5 first in input order,
        x[1, 4], c[1, 4] = 9.5, 9.75     # tied with an uncensored 9.5
        c[1, [0, 1, 3, 5]] = 9.9
        x[3, 0] = x[3, 5] = c[3, 0] = c[3, 5] = 3.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = make_censored(x, c)
        assert len(caught) == 1
        assert str(caught[0].message) == "tied observation values; uncensored ordered first"
        assert batch.z[1, -2:].tolist() == [9.5, 9.5]
        assert batch.delta[1, -2:].tolist() == [1, 0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            singles = [make_censored(a, b) for a, b in zip(x, c)]
        assert len(caught) == 2  # rows 1 and 3 alone
        assert_rows_equal(batch.z, [s.z for s in singles])
        np.testing.assert_array_equal(batch.delta, [s.delta for s in singles])
        ks = np.arange(1, 6)
        p_hat, values = estimate(batch, ks, ALL_SPECS)
        want = [estimate(s, ks, ALL_SPECS) for s in singles]
        assert_rows_equal(p_hat, [w[0] for w in want])
        assert_rows_equal(values, [w[1] for w in want])

    def test_ties_keep_uncensored_first_per_row_and_warn_once(self):
        x = np.array([[2.0, 3.0, 1.0], [1.0, 5.0, 4.0]])
        c = np.array([[3.0, 2.0, 9.0], [1.0, 4.0, 9.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = make_censored(x, c)
        assert [str(w.message) for w in caught] == [
            "tied observation values; uncensored ordered first"]
        assert s.z.tolist() == [[1.0, 2.0, 2.0], [1.0, 4.0, 4.0]]
        assert s.delta.tolist() == [[1, 1, 0], [1, 1, 0]]


def laws(family, draw):
    """A law of the given family with right endpoint 1."""
    if family == "revburr":
        return ReverseBurr(draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 8.0)),
                           draw(st.floats(0.5, 2.0)), 1.0)
    if family == "gpd":
        gamma = draw(st.floats(-2.0, -0.1))
        return GPD(gamma, -gamma)
    return BetaDist(draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0)))


FAMILIES = ("revburr", "gpd", "beta")


@st.composite
def designs(draw):
    n = draw(st.integers(2, 60))
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6)))
    return StudyDesign(
        dist_x=laws(draw(st.sampled_from(FAMILIES)), draw),
        dist_c=laws(draw(st.sampled_from(FAMILIES)), draw),
        n=n, reps=draw(st.integers(1, 40)), k_grid=tuple(ks),
        specs=build_specs(tuple(Family), tuple(Method),
                          (draw(st.sampled_from([1.0, 2.0, 2.5])),)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def replicate_bits(design, r):
    records = run_replicate(design, r)
    return bits([rec.value for rec in records]), bits([rec.p_hat for rec in records])


def assert_batch_matches_replicates(design, start, stop):
    values = _batch_values(design, start, stop)
    p_hat = tail_uncensored_proportion(_batch_sample(design, start, stop), design.k_grid)
    assert values.shape == (stop - start, len(design.k_grid), len(design.specs))
    for row, r in enumerate(range(start, stop)):
        want_values, want_p_hat = replicate_bits(design, r)
        np.testing.assert_array_equal(bits(values[row]).ravel(), want_values)
        np.testing.assert_array_equal(
            bits(np.repeat(p_hat[row], len(design.specs))), want_p_hat)


class TestBatchInvariance:
    @given(designs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_split_into_batches_matches_single_replicates(self, design, data):
        cuts = data.draw(st.sets(st.integers(1, max(design.reps - 1, 1)), max_size=4))
        bounds = [0, *sorted(cuts - {design.reps}), design.reps]
        for start, stop in zip(bounds, bounds[1:]):
            assert_batch_matches_replicates(design, start, stop)

    def test_non_positive_thresholds_in_a_batch(self):
        # The figure-1 pair at n = 50 and seed 101: 12 of the 20 samples
        # have Z_(5) <= 0, so the batch mixes masked and unmasked rows
        design = StudyDesign(dist_x=FIGURE1_X, dist_c=FIGURE1_C, n=50, reps=20, k_grid=(45,),
                             specs=ALL_SPECS, seed=101)
        assert_batch_matches_replicates(design, 0, 20)
        degenerate = run_study(design, workers=1).degenerate_count
        assert degenerate.min() >= 12

    @staticmethod
    def zero_at(monkeypatch, design, replicate, draw):
        """Every batch that holds ``replicate`` draws an exact zero at place
        7 of its X (draw 0) or its C (draw 1) uniforms; returns a maker of a
        generator that draws the same, built by the documented contract."""
        real = montecarlo._uniforms
        target = _seed_words(design.seed, replicate, replicate + 1)

        def uniforms(words, n):
            u = real(words, n)
            u[(words == target).all(axis=1), draw, 7] = 0.0
            return u

        class ZeroAt:
            def __init__(self):
                self.rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=(design.seed, replicate)))
                self.draws = 0

            def random(self, size=None, out=None):
                got = self.rng.random(size, out=out)
                if self.draws == draw:
                    got[7] = 0.0
                self.draws += 1
                return got

        monkeypatch.setattr(montecarlo, "_uniforms", uniforms)
        return ZeroAt

    @pytest.mark.parametrize("draw", [0, 1])
    def test_row_with_a_zero_uniform_keeps_its_draws(self, monkeypatch, draw):
        # the zero goes through the quantile like any other draw: that row
        # is the quantiles of its very draws, as sample gives them, with
        # -inf at its bottom, and the other rows keep their bits
        design = StudyDesign(dist_x=FIGURE1_X, dist_c=FIGURE1_C, n=50, reps=8, k_grid=(5,),
                             specs=ALL_SPECS, seed=11)
        clean = _batch_sample(design, 0, 8)
        generator = self.zero_at(monkeypatch, design, 5, draw)
        got = _batch_sample(design, 0, 8)
        rng = generator()
        u = rng.random(50), rng.random(50)
        assert u[draw][7] == 0.0
        want = make_censored(FIGURE1_X.quantile(u[0]), FIGURE1_C.quantile(u[1]),
                             require_positive=False)
        rng = generator()
        sampled = make_censored(FIGURE1_X.sample(rng, 50), FIGURE1_C.sample(rng, 50),
                                require_positive=False)
        assert got.z[5, 0] == -np.inf
        rows = [r for r in range(8) if r != 5]
        for name in ("z", "delta"):
            np.testing.assert_array_equal(bits(getattr(got, name)[5]), bits(getattr(want, name)))
            np.testing.assert_array_equal(bits(getattr(got, name)[5]),
                                          bits(getattr(sampled, name)))
            np.testing.assert_array_equal(bits(getattr(got, name)[rows]),
                                          bits(getattr(clean, name)[rows]))

    @pytest.mark.parametrize("draw", [0, 1])
    def test_study_with_a_zero_uniform_runs_without_a_warning(self, monkeypatch, draw):
        # the -inf lies at the bottom of its sample, outside every tail
        # below k = n - 1: any lower value there gives the same estimates
        design = StudyDesign(dist_x=FIGURE1_X, dist_c=FIGURE1_C, n=50, reps=8,
                             k_grid=(2, 10, 48), specs=ALL_SPECS, seed=11)
        generator = self.zero_at(monkeypatch, design, 5, draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_study(design, workers=1)
            zero_row = _batch_values(design, 5, 6)[0]
        rng = generator()
        x, c = FIGURE1_X.sample(rng, 50), FIGURE1_C.sample(rng, 50)
        (x if draw == 0 else c)[7] = -1e6
        _, want = estimate(make_censored(x, c, require_positive=False), design.k_grid,
                           design.specs)
        np.testing.assert_array_equal(bits(zero_row), bits(want))
        assert np.isfinite(zero_row[:2]).all()
        assert result.degenerate_count[:2].max() < design.reps

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_equals_aggregate_of_replicates(self, monkeypatch, started_pools, workers):
        # 16 replicates in a batch at n = 300, so 60 replicates make four
        # batches, the last one short; at 2 workers the last two run on a
        # pool of 2 participants, one batch in a worker and one in this
        # process, and the pool always pays here
        monkeypatch.setattr(montecarlo, "_BATCH_VALUES", 16 * 300)
        monkeypatch.setattr(montecarlo, "_POOL_COST_S", FREE_POOL)
        design = StudyDesign(dist_x=FIGURE1_X, dist_c=FIGURE1_C, n=300, reps=60,
                             k_grid=(10, 50, 150), specs=ALL_SPECS, seed=3)
        values = np.array([[rec.value for rec in run_replicate(design, r)]
                           for r in range(design.reps)]).reshape(60, 3, len(ALL_SPECS))
        want = aggregate(values, design)
        got = run_study(design, workers=workers)
        for name in ("median_bias", "mse", "mean", "variance", "degenerate_count"):
            np.testing.assert_array_equal(bits(getattr(got, name)), bits(getattr(want, name)))
        assert started_pools == ([] if workers == 1 else [2])
