import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censored_evi import fit, survival_f_at

import reference as ref
from conftest import DESIGNS, draw_sample, sample_from


class TestFitSmallExample:
    # z = (1, 2, 3), delta = (1, 0, 1): F-curve steps at 1 and 3 only,
    # G-curve (left limits) steps after the censored point 2.
    def make(self):
        return sample_from([1.0, 2.0, 3.0], [1, 0, 1])

    def test_surv_f_values(self):
        cur = fit(self.make())
        assert cur.surv_f_at_order[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert cur.surv_f_at_order[1] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert cur.surv_f_at_order[2] == 0.0

    def test_surv_g_left_values(self):
        cur = fit(self.make())
        assert cur.surv_g_left_at_order[0] == 1.0
        assert cur.surv_g_left_at_order[1] == pytest.approx(1.0, rel=1e-15)
        assert cur.surv_g_left_at_order[2] == pytest.approx(0.5, rel=1e-15)

    def test_arrays_are_read_only(self):
        cur = fit(self.make())
        with pytest.raises(ValueError):
            cur.surv_f_at_order[0] = 0.1
        with pytest.raises(ValueError):
            cur.surv_g_left_at_order[0] = 0.1


class TestDegenerateCensoringPatterns:
    def test_fully_uncensored(self):
        n = 40
        s = sample_from(np.arange(1.0, n + 1.0), np.ones(n, dtype=int))
        cur = fit(s)
        # no censoring: G-curve never moves, F-curve is the empirical one
        assert np.all(cur.surv_g_left_at_order == 1.0)
        for i in range(n - 1):
            assert cur.surv_f_at_order[i] == pytest.approx((n - i - 1) / n, rel=1e-14)
        assert cur.surv_f_at_order[n - 1] == 0.0

    def test_fully_censored(self):
        n = 40
        s = sample_from(np.arange(1.0, n + 1.0), np.zeros(n, dtype=int))
        cur = fit(s)
        assert np.all(cur.surv_f_at_order == 1.0)
        for i in range(n):
            assert cur.surv_g_left_at_order[i] == pytest.approx((n - i) / n, rel=1e-14)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit(sample_from([1.0], [1]))


class TestStepEvaluation:
    def make(self):
        return sample_from([1.0, 2.0, 3.0], [1, 0, 1])

    def test_before_first_observation(self):
        assert survival_f_at(self.make(), 0.5) == 1.0

    def test_at_and_between_jumps(self):
        s = self.make()
        assert survival_f_at(s, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert survival_f_at(s, 1.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert survival_f_at(s, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("t", [3.0, 3.5, 99.0])
    def test_undefined_from_largest_observation(self, t):
        with pytest.raises(ValueError, match="undefined"):
            survival_f_at(self.make(), t)


class TestProductIdentity:
    # (1-Fhat(Z_(i)))*(1-Ghat(Z_(i+1)^-)) telescopes to (n-i)/n regardless
    # of the censoring pattern; this pins both curves against each other.
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400))
    @settings(max_examples=40, deadline=None)
    def test_random_samples(self, seed, n):
        rng = np.random.default_rng(seed)
        s = draw_sample(rng, n, DESIGNS[int(rng.integers(len(DESIGNS)))])
        cur = fit(s)
        f = cur.surv_f_at_order
        g = cur.surv_g_left_at_order
        for i0 in range(n - 1):
            assert f[i0] * g[i0 + 1] == pytest.approx((n - 1 - i0) / n, rel=1e-12)

    def test_moderately_large_sample(self, rng):
        n = 2000
        s = draw_sample(rng, n, DESIGNS[0])
        cur = fit(s)
        prod = cur.surv_f_at_order[:-1] * cur.surv_g_left_at_order[1:]
        want = (n - 1.0 - np.arange(n - 1)) / n
        assert np.max(np.abs(prod / want - 1.0)) < 1e-12


class TestAgainstHighPrecision:
    # The float64 curves against 40-digit products, within the error bound
    # of their float64 running sums (``ref.product_limit_error_bound``),
    # which grows with n: about 2e-12 relative at the top of an
    # n = 20 000 sample.
    @pytest.mark.parametrize("n", [2000, 20000])
    def test_curves_within_cumsum_bound(self, n):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        s = draw_sample(rng, n, DESIGNS[0])
        delta = s.delta.tolist()
        exact_f, exact_g, _ = ref.mp_product_limit(delta)
        cur = fit(s)
        for got, exact, steps in (
            (cur.surv_f_at_order, exact_f, [d == 1 for d in delta]),
            (cur.surv_g_left_at_order, exact_g, [False] + [d == 0 for d in delta[:-1]]),
        ):
            bound = ref.product_limit_error_bound(exact, steps)
            for value, want, most in zip(got.tolist(), exact, bound):
                if want == 0:
                    assert value == 0.0
                else:
                    assert abs(value / want - 1) <= most


class TestJumpWeightIdentity:
    # i/g_i - (i-1)/g_{i-1} collapses to delta/g_i, where g_i is the
    # G-curve left limit at the i-th largest observation.  The weighted
    # and increment-form tail moments agree because of this.
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300))
    @settings(max_examples=40, deadline=None)
    def test_random_samples(self, seed, n):
        rng = np.random.default_rng(seed)
        s = draw_sample(rng, n, DESIGNS[int(rng.integers(len(DESIGNS)))])
        g = fit(s).surv_g_left_at_order
        for i in range(2, n + 1):
            lhs = i / g[n - i] - (i - 1) / g[n - i + 1]
            rhs = s.delta[n - i] / g[n - i]
            scale = max(1.0, i / g[n - i])
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestPositivity:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_curves_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        s = draw_sample(rng, 150)
        cur = fit(s)
        assert np.all(cur.surv_g_left_at_order > 0.0)
        assert np.all(cur.surv_g_left_at_order <= 1.0)
        assert np.all(cur.surv_f_at_order[:-1] > 0.0)
        assert np.all(cur.surv_f_at_order <= 1.0)
        last = cur.surv_f_at_order[-1]
        assert (last == 0.0) == (s.delta[-1] == 1)
