import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from censored_evi import (
    GPD,
    Family,
    Method,
    ReverseBurr,
    StudyDesign,
    build_specs,
    estimate,
    from_observations,
    make_censored,
    tail_moments,
)

from censored_evi.moments import _CHUNK_FLOATS, _chunks, _powers, _runs, _weights

import reference as ref
from theory import beta_function, limit_l_alpha, scale_a_nk, theory_from_indices
from conftest import (DESIGNS, FIGURE1_C, FIGURE1_X, draw_sample, draw_sample_with_k,
                      sample_from)

# Pooled upper quantile of the Figure-1 pair, solved to 40 digits with
# mpmath and frozen here (t = n/k).
U_T40 = 9.953584469161693
A_NK_T40 = 2.7979185377154606e-3
GAP_T100 = 0.022910085730201303
U_T100 = 9.9770899142697987
# Conditional tail expectation ratios E[log^a(Z/U(t))|Z>U(t)]/a_nk^a at
# t = 40 (mpmath quadrature against the pooled survival), frozen.
COND_RATIO_A1 = 0.721800699316
COND_RATIO_A2 = 0.718224188973


def sample_and_k(seed, n_max=250):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, n_max))
    design = DESIGNS[int(rng.integers(len(DESIGNS)))]
    return draw_sample_with_k(rng, n, design)


def moments_at(s, k, alpha):
    """(unweighted, km, l) moments of one order."""
    return tuple(float(m[alpha][0]) for m in tail_moments(s, [k], (alpha,)))


def as_lists(s):
    return [float(v) for v in s.z], [int(v) for v in s.delta]


class TestChunks:
    @given(st.lists(st.integers(0, 400) | st.just(0), max_size=300), st.integers(1, 600))
    @settings(max_examples=300, deadline=None)
    def test_runs_equal_the_greedy_loop(self, cost, rows):
        # zero costs included, as _shifted_sums passes them for ks
        # without a full block
        cost = np.array(cost, dtype=np.int64)
        assert list(_chunks(cost, rows)) == ref.chunks_reference(cost, rows)

    @pytest.mark.parametrize("cap", [1, 64, 2**30])
    def test_reference_follows_a_patched_cap(self, monkeypatch, cap):
        monkeypatch.setattr("censored_evi.moments._CHUNK_FLOATS", cap)
        cost = np.random.default_rng(cap).integers(0, 50, 400)
        for rows in (1, 3):
            assert list(_chunks(cost, rows)) == ref.chunks_reference(cost, rows)


@st.composite
def ragged_runs(draw):
    """(n, runs): runs (first, count) inside a sample of n points, zero
    counts and runs at both ends of the sample among them."""
    n = draw(st.integers(1, 200))
    inside = st.integers(0, n).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, n - i)))
    ends = st.sampled_from([(0, n), (0, 1), (n - 1, 1), (n, 0), (0, 0)])
    return n, draw(st.lists(inside | ends, max_size=60))


class TestRuns:
    @given(ragged_runs())
    @settings(max_examples=300, deadline=None)
    def test_flat_index_equals_the_slice_lists(self, case):
        n, runs = case
        first = np.array([i for i, _ in runs], dtype=np.intp)
        count = np.array([m for _, m in runs], dtype=np.intp)
        index, starts = _runs(first, count)
        assert (index.tolist(), starts.tolist()) == ref.segments_reference(first, count)
        assert ((0 <= index) & (index < n)).all()


@st.composite
def orders_and_base(draw):
    """(orders, base): a set of distinct orders mixing integers up to 16,
    non-integers, orders above 16 and above 65, several of them sharing
    a fractional part, and a 1-D or 2-D base of log-excesses, zeros,
    infinities and NaN among them."""
    fraction = draw(st.sampled_from([0.25, 0.5, 0.7]))
    order = (st.integers(1, 16) | st.integers(17, 90)).map(float) \
        | st.integers(1, 90).map(lambda i: i + fraction) \
        | st.floats(1.0, 100.0)
    orders = draw(st.lists(order, min_size=1, max_size=8, unique=True))
    value = st.floats(0.0, 3.0) | st.sampled_from([0.0, 1.0, math.inf, math.nan])
    shape = draw(st.sampled_from([(7,), (1, 5), (3, 4)]))
    base = np.array(draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape))))
    return orders, base.reshape(shape)


class TestPowers:
    @given(orders_and_base())
    @settings(max_examples=300, deadline=None)
    def test_stacked_powers_equal_the_generator(self, case):
        orders, base = case
        stacked = _powers(base, orders)
        assert stacked.shape == (len(orders),) + base.shape
        # the generator reuses its buffers, so copy each power as drawn
        want = {p: power.copy() for p, power in ref.powers_reference(base, orders)}
        for p, power in zip(orders, stacked, strict=True):
            np.testing.assert_array_equal(power.view(np.int64), want[p].view(np.int64))


class TestChunkCap:
    # Ks on both sides of a block edge (64, 65), of a superblock edge
    # (4096, 4097) and past the second superblock (8193), and a stride-37
    # grid, so that runs of the k-grid, of the shifted pairs and of the
    # superblocks end at many places as the cap changes.
    KS = np.unique(np.r_[64, 65, 4096, 4097, 8193, np.arange(1, 9000, 37)])
    ORDERS = (1.0, 2.0, 2.5, 3.0, 4.0)
    SPECS = build_specs(tuple(Family), tuple(Method), (1.0, 2.0, 2.5))

    @staticmethod
    def batch():
        rng = np.random.default_rng(2015)
        return make_censored(GPD(-0.25, 1.0).quantile(rng.random((3, 9000))),
                             GPD(-0.2, 0.8).quantile(rng.random((3, 9000))))

    def outputs(self, monkeypatch, cap):
        monkeypatch.setattr("censored_evi.moments._CHUNK_FLOATS", cap)
        s = self.batch()
        arrays = [m[p] for m in tail_moments(s, self.KS, self.ORDERS) for p in self.ORDERS]
        return arrays + list(estimate(s, self.KS, self.SPECS))

    def test_bits_do_not_depend_on_the_cap(self, monkeypatch):
        want = self.outputs(monkeypatch, _CHUNK_FLOATS)
        for cap in (1, 64, 2**13, 2**30):
            got = self.outputs(monkeypatch, cap)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestMemory:
    # The memory rule of the moments module docstring: with F =
    # max(_CHUNK_FLOATS, rows * largest cost), a pass holds at most eight
    # arrays of F floats in a run, four of rows * n floats, and 3
    # len(orders) + 4 (p_max + 1) + 16 floats per k and row.  A k's direct
    # segment holds at most 64 points, a shifted pair 2 (p_max + 1) sums
    # and a block p_max * 64 powers.
    @staticmethod
    def bound(rows, n, n_ks, orders):
        p_max = max(p for p in orders if p <= 16 and not p % 1)
        largest_cost = max(64 * len(orders), 2 * (p_max + 1), 64 * p_max)
        floats = max(_CHUNK_FLOATS, rows * largest_cost)
        per_k = 3 * len(orders) + 4 * (p_max + 1) + 16
        return 8 * (8 * floats + 4 * rows * n + rows * n_ks * per_k)

    @staticmethod
    def peak(s, ks, orders):
        tracemalloc.start()
        try:
            tail_moments(s, ks, orders)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dense_one_row_sweep(self):
        rng = np.random.default_rng(2015)
        s = make_censored(GPD(-0.25, 1.0).quantile(rng.random(20_000)),
                          GPD(-0.2, 0.8).quantile(rng.random(20_000)))
        ks, orders = np.arange(1, s.n), (1.0, 2.0, 3.0, 4.0)
        assert self.peak(s, ks, orders) <= self.bound(1, s.n, len(ks), orders)

    def test_figure_batch(self):
        rng = np.random.default_rng(101)
        s = make_censored(FIGURE1_X.quantile(rng.random((32, 500))),
                          FIGURE1_C.quantile(rng.random((32, 500))), require_positive=False)
        ks, orders = np.arange(10, 401, 10), (2.0, 3.0, 4.0)
        assert self.peak(s, ks, orders) <= self.bound(32, s.n, len(ks), orders)


class TestTailMomentsArguments:
    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        s = sample_from([0.5, 1.0, 2.0, 4.0], [1, 0, 1, 1])
        with pytest.raises(ValueError, match="k must satisfy"):
            tail_moments(s, [k], (1.0,))

    def test_order_below_one(self):
        s = sample_from([0.5, 1.0, 2.0, 4.0], [1, 0, 1, 1])
        with pytest.raises(ValueError, match="alpha"):
            tail_moments(s, [2], (1.0, 0.5))

    def test_non_positive_threshold(self):
        # no log-excesses exist: every moment is NaN, silently, so the
        # estimators mark the cell degenerate instead of a sweep aborting
        for threshold in (-1.0, 0.0):
            s = make_censored(
                np.array([threshold, 1.0, 2.0]), np.array([9.0, 9.0, 9.0]),
                require_positive=False,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                moments = tail_moments(s, [2], (1.0, 2.0, 3.0))
            for by_order in moments:
                assert list(by_order) == [1.0, 2.0, 3.0]
                assert all(np.isnan(v).all() for v in by_order.values())

    def test_infinite_observations_are_silent(self, rng):
        # five infinite pairs at the top of n = 300: inf/inf thresholds and
        # 0 * inf weighted terms give NaN and inf moments without a warning,
        # and every estimate of the sample is degenerate
        x, c = rng.uniform(1.0, 2.0, 300), rng.uniform(1.0, 2.0, 300)
        x[:5] = c[:5] = np.inf
        with pytest.warns(UserWarning, match="tied"):
            s = make_censored(x, c, require_positive=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = tail_moments(s, range(1, 299), (1.0, 2.0))
            _, values = estimate(s, range(1, 299), build_specs(Family, Method, (1.0, 2.0)))
        assert not any(np.isfinite(m).any() for by_order in moments for m in by_order.values())
        assert np.isnan(values).all()

    def test_high_orders_are_one_power(self):
        # an order above 65 is one power, not a chain of multiplications
        # (``test_cli.TestHugeAlpha`` runs order 1e300); powers past the
        # float range are inf without a warning
        s = sample_from([0.5, 1.0, 2.0, 3.0, 40.0], [1, 0, 1, 1, 1])
        base = np.log(np.array([40.0, 3.0]) / 2.0)
        for alpha in (66.0, 100.5):
            unweighted, _, _ = tail_moments(s, [2], (alpha,))
            assert unweighted[alpha][0] == pytest.approx(np.mean(base ** alpha), rel=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unweighted, _, _ = tail_moments(s, [1, 2, 3], (1000.0,))
        assert unweighted[1000.0].tolist() == [math.inf, math.inf, math.inf]

    def test_one_pass_equals_separate_passes(self, rng):
        # moments of an order do not depend on which other orders are asked
        # for, also past the first block, where a non-integer order reads
        # whole tails and the integer orders shift blocks
        for n, k_lo, orders in ((80, 1, (1.0, 2.0, 3.0, 4.0)),
                                (400, 65, (1.0, 2.0, 2.5, 3.0, 4.0))):
            s, k = draw_sample_with_k(rng, n, DESIGNS[0])
            while k < k_lo:
                s, k = draw_sample_with_k(rng, n, DESIGNS[0])
            together = tail_moments(s, [k], orders)
            for alpha in orders:
                assert moments_at(s, k, alpha) == tuple(float(m[alpha][0]) for m in together)
            # an order asked for twice is one order
            assert tail_moments(s, [k], orders + orders) == together


class TestMomentUnweighted:
    def test_small_example(self):
        s = sample_from([0.5, 1.0, 2.0, 4.0], [1, 0, 1, 1])
        mu, _, _ = moments_at(s, 2, 1.0)
        assert mu == pytest.approx(1.5 * math.log(2.0), rel=1e-14)

    def test_tied_top_gives_zero(self):
        with pytest.warns(UserWarning, match="tied"):
            s = sample_from([1.0, 1.0, 1.0], [1, 1, 1])
        assert moments_at(s, 2, 1.0)[0] == 0.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equals_mean_of_increments(self, seed):
        # Abel summation: the increments xi_i = i*(L_i - L_{i+1}) carry the
        # same total mass as the L_i
        s, k = sample_and_k(seed)
        z, _ = as_lists(s)
        xi = ref.naive_xi(z, k, 2.0)
        assert moments_at(s, k, 2.0)[0] == pytest.approx(
            sum(xi) / k, rel=1e-12, abs=1e-300
        )


class TestWeightedMoments:
    def test_km_small_example(self):
        # top observation uncensored behind one censored point: weight 2,
        # normalizer 3*(2/3), so the single term survives unchanged
        s = sample_from([1.0, 2.0, 3.0], [1, 0, 1])
        _, mk, _ = moments_at(s, 1, 1.0)
        assert mk == pytest.approx(math.log(1.5), rel=1e-14)

    def test_km_zero_when_top_censored(self):
        s = sample_from([1.0, 2.0, 3.0], [1, 1, 0])
        _, mk, _ = moments_at(s, 1, 1.0)
        assert mk == 0.0

    def test_leurgans_small_example(self):
        s = sample_from([1.0, 2.0, 3.0], [1, 0, 1])
        _, _, ml = moments_at(s, 1, 1.0)
        assert ml == pytest.approx(math.log(1.5), rel=1e-14)

    def test_leurgans_picks_up_censored_top(self):
        # same numerator as the KM form would have had if delta_(n)=1
        s = sample_from([1.0, 2.0, 3.0], [1, 1, 0])
        _, _, ml = moments_at(s, 1, 1.0)
        assert ml == pytest.approx(math.log(1.5), rel=1e-14)

    def test_d_term_small_example(self):
        # with the top censored, l - km is the top correction d_term
        s = sample_from([1.0, 2.0, 3.0], [1, 0, 0])
        _, mk, ml = moments_at(s, 1, 1.0)
        z, delta = as_lists(s)
        assert ref.naive_d_term(z, delta, 1, 1.0) == pytest.approx(math.log(1.5), rel=1e-14)
        assert ml - mk == pytest.approx(math.log(1.5), rel=1e-14)

    def test_d_term_zero_when_top_ties_threshold(self):
        with pytest.warns(UserWarning, match="tied"):
            s = sample_from([1.0, 1.0], [1, 0])
        assert s.delta[-1] == 0
        assert moments_at(s, 1, 1.0) == (0.0, 0.0, 0.0)


class TestWeightsAgainstHighPrecision:
    # The km weights come from the F-curve through the telescoping
    # identity, n*(1-Fhat(Z_(i-1)))/(n-i+1); checked against
    # delta_(i)/(1-Ghat(Z_(i)^-)) taken from a 40-digit G-curve.  The
    # F-curve value carries its cumsum bound, and the product with n and
    # the quotient by n-i+1 round once each.
    @pytest.mark.parametrize("n", [2000, 20000])
    def test_identity_weights_within_cumsum_bound(self, n):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(n + 1)
        s = draw_sample(rng, n, DESIGNS[3])
        delta = s.delta.tolist()
        exact_f, exact_g, exact_w = ref.mp_product_limit(delta)
        bound_f = ref.product_limit_error_bound(exact_f, [d == 1 for d in delta])
        ks = np.arange(1, n)
        weight, norm, top_norm = (a[0].tolist() for a in _weights(s, ks))
        u = 2.0 ** -53
        weight = weight[::-1]
        assert weight[0] == delta[0]
        for i in range(1, n):
            if delta[i]:
                assert abs(weight[i] / exact_w[i] - 1) <= bound_f[i - 1] + 2 * u
            else:
                assert weight[i] == 0.0
        # N = n*(1-Fhat(Z_(n-k))) and l's top normaliser N*(1-Ghat(Z_(n)^-))
        for k, got, top in zip(ks.tolist(), norm, top_norm):
            i = n - k - 1
            assert abs(got / (n * exact_f[i]) - 1) <= bound_f[i] + u
            want_top = n * exact_f[i] * exact_g[n - 1]
            assert abs(top / want_top - 1) <= bound_f[i] + bound_f[n - 2] + 3 * u
        # at k = 1 the top weight and the normaliser are one float
        assert top_norm[0] == 1.0


def moment_error_bound(n, k, p, exact, bound_f, delta_top, top_log):
    """First-order bound on |float64 - exact| of the (unweighted, km, l)
    moments of order p at k, from the exact moments of orders p-1 and p.

    With u = 2**-53, nb = (k-1)//64 full blocks and ns = (k-1)//4096
    superblocks, per log-excess L: the quotient inside the log rounds
    once per log taken, so the log is off by a*u absolute, where a counts
    the logs that make up L: 1 for a point read directly, 2 for a point
    of a block shifted straight to t_k (l and D), 3 for a point of a
    superblock (l, D to the superblock's threshold t_S, and D from t_S to
    t_k); plus 4u*L from logs within 2 ulp, which add up to L.  The power
    moves by p*L^(p-1)*(a*u) + 4p*u*L^p.  Every other operation
    multiplies or adds non-negative terms and adds at most u relative per
    rounding along a term's path:
    * a direct term: p-1 (power chain), 1 (weight), 63 (a segment of at
      most 64 terms), 1 (direct plus shifted) and 1 (division), p+65;
    * at k <= 4096, a block term: p-1, 1, 63 (a block's sum), 2p (p
      shift steps), nb-1 (the sum over blocks), 1 and 1, 3p+64+nb;
    * at k > 4096, a superblock term: p-1, 1, 63, 2p (to t_S), 63 (the
      sum of the superblock's 64 blocks), 2p (to t_k), ns-1 (the sum over
      superblocks), 1 (superblocks plus blocks), 1 and 1, 5p+128+ns; a
      block term then takes p-1, 1, 63, 2p, at most 62 (the sum over the
      other blocks), 1, 1 and 1, 3p+128 at most.
    So at most 3p+66+nb up to k = 4096 and 5p+128+ns above it.  The km
    weights and normaliser carry their product-limit bounds: e_w at the
    top of the sample and e_N at N.  The l moment adds the top term
    L_1^p / (N (1-Ghat(Z_(n)^-))), one direct point whose normaliser
    carries e_N plus the G-curve's e_w, and one rounding for the sum.
    The km weights have mass at most 1, which bounds the order-0 moment.
    """
    u = 2.0 ** -53
    nb, ns = (k - 1) // 64, (k - 1) // 4096
    if ns:
        a, path = 3, 5 * p + 128 + ns
    else:
        a, path = (2 if nb else 1), 3 * p + 66 + nb
    rounding = (4 * p + path) * u
    e_w, e_n = bound_f[n - 2] + 2 * u, bound_f[n - k - 1] + u
    (mu, mu_prev), (mk, mk_prev), (ml, _) = exact
    bound_u = p * a * u * mu_prev + rounding * mu
    bound_km = p * a * u * mk_prev + (rounding + e_w + e_n) * mk
    top = ml - mk  # exact: l is km plus the top term
    bound_top = 0.0
    if not delta_top and top > 0:
        bound_top = top * (p * u / top_log + (5 * p + 1) * u + e_n + e_w + 2 * u)
    return bound_u, bound_km, bound_km + bound_top + u * ml


class TestMomentsAgainstHighPrecision:
    # Float64 moments of orders 1-4 against ``ref.mp_tail_moments`` (40
    # digits), within ``moment_error_bound``.  The sample is scaled by
    # 2**300: its ratios to every threshold, and so its float64 and exact
    # moments, are those of the unscaled sample, but log Z is about 208,
    # so a shift D taken as log(t_b) - log(t_k) instead of log(t_b/t_k)
    # loses about 1e-13 absolute to cancellation and leaves the bound.
    @pytest.mark.parametrize("n,ks", [(2000, None),
                                      (20000, (64, 65, 66, 128, 129, 1000, 4096, 4097, 4160,
                                              8192, 8193, 16385, 19999))])
    def test_within_first_order_bound(self, n, ks):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n + 7)
        drawn = draw_sample(rng, n, DESIGNS[3])
        s = from_observations(drawn.z * 2.0 ** 300, drawn.delta)
        ks = list(ks or range(1, n))
        z, delta = as_lists(s)
        orders = (1, 2, 3, 4)
        got = tail_moments(s, ks, [float(p) for p in orders])
        exact = ref.mp_tail_moments(z, delta, ks, orders)
        exact_f, _, _ = ref.mp_product_limit(delta)
        bound_f = ref.product_limit_error_bound(exact_f, [d == 1 for d in delta])
        for j, k in enumerate(ks):
            top_log = float(mpmath.log(mpmath.mpf(z[-1]) / z[n - k - 1]))
            for p in orders:
                exact_p = [(float(m[p][j]), float(m[p - 1][j]) if p > 1 else 1.0)
                           for m in exact]
                bounds = moment_error_bound(n, k, p, exact_p, bound_f, delta[-1], top_log)
                for by_order, want, bound in zip(got, exact, bounds):
                    error = abs(float(mpmath.mpf(float(by_order[p][j])) - want[p][j]))
                    assert error <= bound, (k, p, error, bound)


class TestTopCorrectionIdentity:
    # l is km plus the top correction; checked here against the naive
    # increment form of l, the definition the identity replaces.
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_identity(self, seed, alpha):
        s, k = sample_and_k(seed)
        z, delta = as_lists(s)
        _, mk, ml = moments_at(s, k, alpha)
        want = ref.naive_moment_leurgans(z, delta, k, alpha)
        assert abs(ml - want) <= 1e-12 * max(1.0, abs(want))
        gap = ml - (mk + (1 - delta[-1]) * ref.naive_d_term(z, delta, k, alpha))
        assert abs(gap) <= 1e-12 * max(1.0, abs(ml))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agreement_when_top_uncensored(self, seed):
        s, k = sample_and_k(seed)
        assume(s.delta[-1] == 1)
        _, mk, ml = moments_at(s, k, 2.0)
        assert ml == mk


class TestUncensoredReduction:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_all_three_coincide(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        x = GPD(-0.5, 1).sample(rng, n)
        s = make_censored(x, np.full(n, 3.0))
        assert np.all(s.delta == 1)
        k = int(rng.integers(1, n))
        mu, mk, ml = moments_at(s, k, 2.0)
        assert mk == pytest.approx(mu, rel=1e-12, abs=1e-300)
        assert ml == mk


class TestScaleInvariance:
    # moments depend on z only through ratios to the threshold
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_rescaling_observations(self, seed, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 150))
        s, k = draw_sample_with_k(rng, n, DESIGNS[3])
        scaled = from_observations(c * s.z, s.delta)
        got = tail_moments(scaled, [k], (1.0, 2.0))
        want = tail_moments(s, [k], (1.0, 2.0))
        for by_order, want_by_order in zip(got, want):
            for alpha in (1.0, 2.0):
                assert by_order[alpha] == pytest.approx(
                    want_by_order[alpha], rel=1e-12, abs=1e-300
                )


class TestBetaFunction:
    def test_known_values(self):
        assert beta_function(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
        assert beta_function(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)
        for x in (0.25, 1.0, 7.5):
            assert beta_function(1.0, x) == pytest.approx(1.0 / x, rel=1e-14)

    def test_symmetry_is_exact(self):
        for a, b in [(0.3, 4.7), (1.5, 9.0), (12.0, 0.125)]:
            assert beta_function(a, b) == beta_function(b, a)

    def test_domain(self):
        for a, b in [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)]:
            with pytest.raises(ValueError):
                beta_function(a, b)

    @given(
        a=st.floats(0.01, 100.0, allow_nan=False),
        b=st.floats(0.01, 100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_mpmath(self, a, b):
        mp = pytest.importorskip("mpmath")
        want = float(mp.beta(a, b))
        assert beta_function(a, b) == pytest.approx(want, rel=1e-12)


class TestLimitConstant:
    def test_exact_rational_values(self):
        assert limit_l_alpha(-1.0, -1.5, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-13)
        assert limit_l_alpha(-1.0, -1.5, 2.0) == pytest.approx(25.0 / 27.0, rel=1e-13)
        assert limit_l_alpha(-0.25, -0.2, 1.0) == pytest.approx(1.8, rel=1e-13)

    def test_alpha_domain(self):
        for alpha in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                limit_l_alpha(-1.0, -1.5, alpha)

    @pytest.mark.parametrize("gx,gc", [(0.0, -1.0), (-1.0, 0.2), (1.0, -1.0)])
    def test_requires_negative_indices(self, gx, gc):
        with pytest.raises(ValueError):
            limit_l_alpha(gx, gc, 1.0)

    @given(
        gx=st.floats(-4.0, -0.05),
        gc=st.floats(-4.0, -0.05),
        alpha=st.sampled_from([1.0, 2.0, 3.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_mpmath(self, gx, gc, alpha):
        mp = pytest.importorskip("mpmath")
        g = gx * gc / (gx + gc)
        want = float(
            (1.0 / abs(gx)) * mp.mpf(abs(g)) ** (-alpha) * mp.beta(1.0 / abs(gx), alpha + 1)
        )
        assert limit_l_alpha(gx, gc, alpha) == pytest.approx(want, rel=1e-11)


class TestScaleANk:
    def test_frozen_quantile_at_t40(self):
        sc = scale_a_nk(FIGURE1_X, FIGURE1_C, 20000, 500)
        assert sc.t == 40.0
        assert sc.u_of_t == pytest.approx(U_T40, rel=1e-10)
        assert sc.a_nk == pytest.approx(A_NK_T40, rel=1e-9)
        assert sc.xstar == 10.0

    def test_frozen_quantile_at_t100(self):
        sc = scale_a_nk(FIGURE1_X, FIGURE1_C, 10000, 100)
        assert sc.u_of_t == pytest.approx(U_T100, rel=1e-10)
        assert sc.xstar - sc.u_of_t == pytest.approx(GAP_T100, rel=1e-9)

    def test_depends_only_on_the_ratio(self):
        a = scale_a_nk(FIGURE1_X, FIGURE1_C, 4000, 100)
        b = scale_a_nk(FIGURE1_X, FIGURE1_C, 8000, 200)
        assert a == b

    @pytest.mark.parametrize("fx,gc", DESIGNS)
    def test_solves_the_pooled_survival(self, fx, gc):
        sc = scale_a_nk(fx, gc, 1000, 50)
        pooled = float(fx.survival(sc.u_of_t)) * float(gc.survival(sc.u_of_t))
        assert pooled == pytest.approx(50.0 / 1000.0, rel=1e-10)
        th = theory_from_indices(fx.theoretical_evi(), gc.theoretical_evi())
        assert sc.a_of_t == pytest.approx(abs(th.gamma) * (sc.xstar - sc.u_of_t), rel=1e-14)
        assert sc.a_nk == pytest.approx(sc.a_of_t / sc.u_of_t, rel=1e-14)

    def test_scale_shrinks_as_threshold_rises(self):
        vals = [scale_a_nk(FIGURE1_X, FIGURE1_C, n, 100).a_nk for n in (1000, 4000, 16000, 64000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError, match="endpoint"):
            scale_a_nk(ReverseBurr(1, 1, 1, 10), ReverseBurr(1, 1, 1, 9), 100, 10)

    @pytest.mark.parametrize("rel,accepted", [(5e-12, False), (5e-13, True)])
    def test_one_endpoint_rule_for_designs_and_scales(self, rel, accepted):
        # endpoints 2e-4 and 2e-4*(1 + rel): the relative rule does not
        # depend on the endpoint's scale, and a design and the limit
        # theory apply the same one
        fx, gc = GPD(-0.5, 1e-4), GPD(-0.25, 5e-5 * (1 + rel))
        specs = build_specs([Family.MOMENT], [Method.KM], [2.0])

        def design():
            return StudyDesign(fx, gc, n=100, reps=1, k_grid=(10,), specs=specs, seed=0)

        if accepted:
            design()
            scale_a_nk(fx, gc, 100, 10)
        else:
            with pytest.raises(ValueError, match="endpoint mismatch"):
                design()
            with pytest.raises(ValueError, match="endpoint mismatch"):
                scale_a_nk(fx, gc, 100, 10)

    @pytest.mark.parametrize("n,k", [(100, 0), (100, 100), (100, -3)])
    def test_k_domain(self, n, k):
        with pytest.raises(ValueError, match="k must satisfy"):
            scale_a_nk(FIGURE1_X, FIGURE1_C, n, k)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            scale_a_nk(ReverseBurr(1, 1, 1, -5), ReverseBurr(1, 1, 1, -5), 100, 10)


@pytest.fixture(scope="module")
def figure1_big_medians():
    """Medians over 100 pinned-seed replicates at n=20000, k=500."""
    n, k, reps, seed = 20000, 500, 100, 20140401
    cols = {"u1": [], "u2": [], "w1": [], "w2": []}
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep)))
        x = FIGURE1_X.sample(rng, n)
        c = FIGURE1_C.sample(rng, n)
        s = make_censored(x, c, require_positive=False)
        unweighted, km, _ = tail_moments(s, [k], (1.0, 2.0))
        cols["u1"].append(unweighted[1.0][0])
        cols["u2"].append(unweighted[2.0][0])
        cols["w1"].append(km[1.0][0])
        cols["w2"].append(km[2.0][0])
    med = {key: float(np.median(v)) for key, v in cols.items()}
    med["a_nk"] = scale_a_nk(FIGURE1_X, FIGURE1_C, n, k).a_nk
    return med


class TestLargeSampleRatios:
    def test_weighted_moments_approach_limit_constants(self, figure1_big_medians):
        m = figure1_big_medians
        assert m["w1"] / m["a_nk"] == pytest.approx(5.0 / 6.0, rel=0.10)
        assert m["w2"] / m["a_nk"] ** 2 == pytest.approx(25.0 / 27.0, rel=0.10)

    @pytest.mark.xfail(
        strict=True,
        reason="at n/k = 40 the unweighted ratios still carry a +16%/+27% "
        "finite-threshold excess over their limit constants; the 10% band "
        "needs n/k beyond a few hundred (see the finite-t expectations "
        "asserted below)",
    )
    def test_unweighted_moments_within_ten_percent_of_limits(self, figure1_big_medians):
        m = figure1_big_medians
        assert m["u1"] / m["a_nk"] == pytest.approx(0.625, rel=0.10)
        assert m["u2"] / m["a_nk"] ** 2 == pytest.approx(25.0 / 44.0, rel=0.10)

    def test_unweighted_moments_match_finite_threshold_expectation(self, figure1_big_medians):
        # exact conditional expectations at this threshold, not the limits
        m = figure1_big_medians
        assert m["u1"] / m["a_nk"] == pytest.approx(COND_RATIO_A1, rel=0.03)
        assert m["u2"] / m["a_nk"] ** 2 == pytest.approx(COND_RATIO_A2, rel=0.03)
