import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censored_evi import (
    from_observations,
    make_censored,
    tail_uncensored_proportion,
)
from censored_evi.censoring import _sort_with_tiebreak

import reference as ref
from theory import theory_from_indices

negative_index = st.floats(min_value=-5.0, max_value=-0.05, allow_nan=False)


class TestMakeCensored:
    def test_min_and_indicator(self):
        s = make_censored([3, 1], [2, 5])
        assert s.z.tolist() == [1, 2]
        assert s.delta.tolist() == [1, 0]
        assert s.n == 2

    def test_equality_counts_as_uncensored(self):
        s = make_censored([1, 2, 3], [1, 2, 3])
        assert s.delta.tolist() == [1, 1, 1]

    def test_huge_censoring_keeps_everything(self):
        s = make_censored([3, 1, 2], [1e300] * 3)
        assert s.z.tolist() == [1, 2, 3]
        assert s.delta.tolist() == [1, 1, 1]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            make_censored([1, -2], [3, 4])
        with pytest.raises(ValueError):
            make_censored([1, 2], [0, 4])

    def test_lenient_path_allows_non_positive(self):
        s = make_censored([-1.0, 2.0], [3.0, 1.5], require_positive=False)
        assert s.z.tolist() == [-1.0, 1.5]
        assert s.delta.tolist() == [1, 0]

    def test_rejects_length_mismatch_and_tiny(self):
        with pytest.raises(ValueError):
            make_censored([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            make_censored([1], [2])

    @pytest.mark.parametrize("x,c", [
        ([1.0, float("nan")], [2.0, 3.0]),
        ([1.0, 2.0], [float("nan"), 3.0]),
        ([[1.0, 2.0], [3.0, float("nan")]], [[2.0, 3.0], [4.0, 5.0]]),
    ])
    def test_rejects_nan(self, x, c):
        # NaN compares false with everything, so it would land at the top
        # of the sort as if it were the sample maximum
        for require_positive in (True, False):
            with pytest.raises(ValueError, match="NaN"):
                make_censored(x, c, require_positive=require_positive)

    def test_lenient_path_keeps_infinities(self):
        # a sampler may legitimately produce -inf far in the left tail, and
        # a sweep must not abort on it
        s = make_censored([-np.inf, 2.0, 3.0], [1.0, np.inf, 2.5], require_positive=False)
        assert s.z.tolist() == [-np.inf, 2.0, 2.5]
        assert s.delta.tolist() == [1, 1, 0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="equal shape"):
            make_censored([[1.0, 2.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="two-dimensional"):
            make_censored(np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            make_censored([[1.0], [2.0]], [[1.0], [2.0]])

    def test_tie_warning_and_uncensored_first(self):
        with pytest.warns(UserWarning, match="tied"):
            s = make_censored([2.0, 3.0], [3.0, 2.0])
        assert s.z.tolist() == [2.0, 2.0]
        assert s.delta.tolist() == [1, 0]

    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_pairing_invariant_under_input_order(self, xs, seed):
        rng = np.random.default_rng(seed)
        cs = rng.uniform(0.1, 100.0, len(xs)).tolist()
        s1 = make_censored(xs, cs)
        perm = rng.permutation(len(xs))
        s2 = make_censored(np.asarray(xs)[perm], np.asarray(cs)[perm])
        pairs1 = sorted(zip(s1.z.tolist(), s1.delta.tolist()))
        pairs2 = sorted(zip(s2.z.tolist(), s2.delta.tolist()))
        assert pairs1 == pairs2
        assert np.all(np.diff(s1.z) >= 0)

    @given(st.sampled_from([(9,), (1, 6), (4, 5)]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flat_gather_equals_take_along_axis(self, shape, data):
        # few distinct values, so rows tie, and -0.0 ties with 0.0
        value = st.sampled_from([-math.inf, -1.5, -0.0, 0.0, 0.5, 2.0, math.inf])
        size = math.prod(shape)
        z = np.array(data.draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
        delta = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        delta = delta.reshape(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = _sort_with_tiebreak(z, delta)
        for a, b in zip(got, ref.sort_with_tiebreak_reference(z, delta), strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestFromObservations:
    def test_sorts_with_pairing(self):
        s = from_observations([3, 1, 2], [0, 1, 1])
        assert s.z.tolist() == [1, 2, 3]
        assert s.delta.tolist() == [1, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            from_observations([1, 2], [0, 2])
        with pytest.raises(ValueError):
            from_observations([0, 2], [1, 1])
        with pytest.raises(ValueError):
            from_observations([1], [1])
        with pytest.raises(ValueError):
            from_observations([1, 2], [1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_z(self, bad):
        # NaN passed the old z <= 0 test and sorted to the top as the
        # sample maximum; inf made every estimate degenerate
        with pytest.raises(ValueError, match="finite"):
            from_observations([1.0, bad, 2.0], [1, 1, 0])


class TestTailUncensoredProportion:
    def test_top_two_mean(self):
        s = from_observations([1, 2, 3, 4], [1, 1, 0, 1])
        # top-2 deltas are (1, 0)
        assert tail_uncensored_proportion(s, 2) == 0.5

    def test_fully_uncensored_is_one(self):
        s = from_observations([1, 2, 3, 4], [1, 1, 1, 1])
        for k in (1, 2, 3):
            assert tail_uncensored_proportion(s, k) == 1.0

    def test_k_range_errors(self):
        s = from_observations([1, 2, 3], [1, 1, 1])
        for k in (0, 3, 4, -1):
            with pytest.raises(ValueError):
                tail_uncensored_proportion(s, k)

    @given(st.integers(2, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_always_in_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        s = from_observations(rng.uniform(0.5, 5.0, n), rng.integers(0, 2, n))
        for k in range(1, n):
            assert 0.0 <= tail_uncensored_proportion(s, k) <= 1.0


class TestTheoryFromIndices:
    def test_figure1_values(self):
        th = theory_from_indices(-1.0, -1.5)
        assert th.gamma == pytest.approx(-0.6, rel=1e-14)
        assert th.p == pytest.approx(0.6, rel=1e-14)
        assert 1.0 - th.p <= 0.5  # weak censoring

    def test_strong_censoring_design(self):
        th = theory_from_indices(-0.25, -0.2)
        assert th.p == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert 1.0 - th.p > 0.5  # strong censoring: censored fraction 5/9 > 1/2

    @given(g=st.floats(0.05, 5.0))
    @settings(max_examples=40)
    def test_symmetric_pair_gives_half(self, g):
        assert theory_from_indices(-g, -g).p == pytest.approx(0.5, rel=1e-12)

    @given(gx=negative_index, gc=negative_index)
    @settings(max_examples=60)
    def test_strong_censoring_iff_x_not_shorter(self, gx, gc):
        th = theory_from_indices(gx, gc)
        # 1-p > 1/2 exactly when X has the heavier (shorter) tail
        assert (1.0 - th.p > 0.5) == (gx < gc)
        assert th.gamma < 0
        assert 0.0 < th.p < 1.0

    @pytest.mark.parametrize("gx,gc", [(0.5, -1), (-1, 0), (0, 0), (-1, 2)])
    def test_domain_errors(self, gx, gc):
        with pytest.raises(ValueError):
            theory_from_indices(gx, gc)
