import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censored_evi import fit
from censored_evi.moments import _weights

import reference as ref
from conftest import DESIGNS, draw_sample, sample_from


def inverse_g_left_weights(s):
    """The km weights delta_(i)/(1-Ghat(Z_(i)^-)) the program uses, i = 1..n
    (0-based storage), with N = n*(1-Fhat(Z_(n-1))) and l's top
    normaliser N*(1-Ghat(Z_(n)^-)) at k = 1."""
    weight, norm, top_norm = (a[0] for a in _weights(s, np.array([1])))
    return weight[::-1], norm[0], top_norm[0]


def mp_g_left(delta):
    """1 - Ghat(Z_(i)^-), i = 1..n, from the 40-digit reference."""
    pytest.importorskip("mpmath")
    return [float(g) for g in ref.mp_product_limit(delta)[1]]


class TestFitSmallExample:
    # z = (1, 2, 3), delta = (1, 0, 1): F-curve steps at 1 and 3 only,
    # G-curve (left limits) steps after the censored point 2.
    def make(self):
        return sample_from([1.0, 2.0, 3.0], [1, 0, 1])

    def test_surv_f_values(self):
        surv_f = fit(self.make())
        assert surv_f.shape == (3,)
        assert surv_f[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert surv_f[1] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert surv_f[2] == 0.0

    def test_surv_g_left_values(self):
        # 1 - Ghat(Z_(i)^-) = (1, 1, 1/2): the weights are 1/1, 0 (censored)
        # and 1/(1/2), and l's top normaliser is N*(1/2)
        weight, norm, top_norm = inverse_g_left_weights(self.make())
        assert weight[0] == pytest.approx(1.0, rel=1e-15)
        assert weight[1] == 0.0
        assert weight[2] == pytest.approx(2.0, rel=1e-15)
        assert top_norm == pytest.approx(0.5 * norm, rel=1e-15)

    def test_arrays_are_read_only(self):
        surv_f = fit(self.make())
        with pytest.raises(ValueError):
            surv_f[0] = 0.1


class TestDegenerateCensoringPatterns:
    def test_fully_uncensored(self):
        n = 40
        s = sample_from(np.arange(1.0, n + 1.0), np.ones(n, dtype=int))
        surv_f = fit(s)
        # no censoring: F-curve is the empirical one, and the G-curve never
        # moves, so every weight 1/(1-Ghat) is 1 up to the F-curve's
        # rounding, which the identity carries into it
        for i in range(n - 1):
            assert surv_f[i] == pytest.approx((n - i - 1) / n, rel=1e-14)
        assert surv_f[n - 1] == 0.0
        weight, _, _ = inverse_g_left_weights(s)
        for i in range(n):
            assert weight[i] == pytest.approx(1.0, rel=1e-14)

    def test_fully_censored(self):
        n = 40
        s = sample_from(np.arange(1.0, n + 1.0), np.zeros(n, dtype=int))
        assert np.all(fit(s) == 1.0)
        # every weight is 0, and 1 - Ghat(Z_(n)^-) = 1/n reaches l's top
        # normaliser
        weight, norm, top_norm = inverse_g_left_weights(s)
        assert np.all(weight == 0.0)
        assert top_norm == pytest.approx(norm / n, rel=1e-14)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit(sample_from([1.0], [1]))


class TestProductIdentity:
    # (1-Fhat(Z_(i)))*(1-Ghat(Z_(i+1)^-)) telescopes to (n-i)/n regardless
    # of the censoring pattern; this pins the program's F-curve against a
    # G-curve computed directly from the indicators.
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400))
    @settings(max_examples=40, deadline=None)
    def test_random_samples(self, seed, n):
        rng = np.random.default_rng(seed)
        s = draw_sample(rng, n, DESIGNS[int(rng.integers(len(DESIGNS)))])
        f = fit(s)
        g = mp_g_left(s.delta.tolist())
        for i0 in range(n - 1):
            assert f[i0] * g[i0 + 1] == pytest.approx((n - 1 - i0) / n, rel=1e-12)

    def test_moderately_large_sample(self, rng):
        n = 2000
        s = draw_sample(rng, n, DESIGNS[0])
        prod = fit(s)[:-1] * np.array(mp_g_left(s.delta.tolist())[1:])
        want = (n - 1.0 - np.arange(n - 1)) / n
        assert np.max(np.abs(prod / want - 1.0)) < 1e-12


class TestAgainstHighPrecision:
    # The float64 F-curve against 40-digit products, within the error
    # bound of its float64 running sum (``ref.product_limit_error_bound``),
    # which grows with n: about 2e-12 relative at the top of an
    # n = 20 000 sample.  The weights read from it are checked against
    # the 40-digit G-curve in test_moments.TestWeightsAgainstHighPrecision.
    @pytest.mark.parametrize("n", [2000, 20000])
    def test_curves_within_cumsum_bound(self, n):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        s = draw_sample(rng, n, DESIGNS[0])
        delta = s.delta.tolist()
        exact_f, _, _ = ref.mp_product_limit(delta)
        bound = ref.product_limit_error_bound(exact_f, [d == 1 for d in delta])
        for value, want, most in zip(fit(s).tolist(), exact_f, bound):
            if want == 0:
                assert value == 0.0
            else:
                assert abs(value / want - 1) <= most


class TestJumpWeightIdentity:
    # i/g_i - (i-1)/g_{i-1} collapses to delta/g_i, where g_i is the
    # G-curve left limit at the i-th largest observation.  The weighted
    # and increment-form tail moments agree because of this.  The left
    # side is formed from the reference G-curve, the right side is the
    # program's km weight.
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300))
    @settings(max_examples=40, deadline=None)
    def test_random_samples(self, seed, n):
        rng = np.random.default_rng(seed)
        s = draw_sample(rng, n, DESIGNS[int(rng.integers(len(DESIGNS)))])
        g = mp_g_left(s.delta.tolist())
        weight, _, _ = inverse_g_left_weights(s)
        for i in range(2, n + 1):
            lhs = i / g[n - i] - (i - 1) / g[n - i + 1]
            rhs = weight[n - i]
            scale = max(1.0, i / g[n - i])
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestPositivity:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_curves_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        s = draw_sample(rng, 150)
        surv_f = fit(s)
        assert np.all(surv_f[:-1] > 0.0)
        assert np.all(surv_f <= 1.0)
        last = surv_f[-1]
        assert (last == 0.0) == (s.delta[-1] == 1)
        # 1 - Ghat stays positive, so each uncensored point has a finite
        # positive weight and each censored point weight 0
        weight, _, _ = inverse_g_left_weights(s)
        assert np.all(np.isfinite(weight))
        assert np.all(weight[s.delta == 1] > 0.0)
        assert np.all(weight[s.delta == 0] == 0.0)
