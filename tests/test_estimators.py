import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from censored_evi import (
    GPD,
    EstimateRecord,
    EstimatorSpec,
    Family,
    Method,
    combine_moment,
    combine_type1,
    combine_type2,
    estimate,
    from_observations,
    make_censored,
    tail_moments,
    tail_uncensored_proportion,
)

from censored_evi.estimators import _POLE_TOL

import reference as ref
from theory import limit_l_alpha
from conftest import DESIGNS, draw_sample, draw_sample_with_k, sample_from

ALL_SPECS = [
    EstimatorSpec(family=f, method=m, alpha=2.0) for f in Family for m in Method
]

positive = st.floats(0.001, 1000.0, allow_nan=False, allow_infinity=False)

EPS = float(np.finfo(float).eps)  # 2^-52; the unit roundoff is EPS/2


def spec_moments(s, k, spec, orders):
    """The spec's sample moments at the given orders."""
    unweighted, km, l = tail_moments(s, [k], orders)
    by_method = {Method.EFG: unweighted, Method.KM: km, Method.LEURGANS: l}[spec.method]
    return [float(by_method[p][0]) for p in orders]


def records(s, k, specs):
    """``estimate`` at one k, as one EstimateRecord per spec."""
    (p_hat,), (values,) = estimate(s, [k], specs)
    return [EstimateRecord(k=k, spec=spec, value=value, p_hat=float(p_hat))
            for spec, value in zip(specs, values.tolist())]


def estimate_one(s, k, spec):
    (rec,) = records(s, k, [spec])
    return rec


def sensitivity(s, k, spec):
    """S = sum_j |m_j dgamma/dm_j| of the spec's estimate on s: a relative
    change of at most eta in every moment moves the estimate by at most
    S*eta, to first order.  efg's division by p_hat divides S too."""
    orders = ref.combination_orders(spec.family.value, spec.alpha)
    moments = spec_moments(s, k, spec, orders)
    out = ref.combination_sensitivity(spec.family.value, moments, spec.alpha)
    if spec.method is Method.EFG:
        out /= tail_uncensored_proportion(s, k)
    return out


def scaling_perturbation(s, k, spec):
    """First-order bound eta on the relative change of each moment the
    spec combines when z is multiplied by a constant that is not a power
    of two.

    Each moment is a linear functional m_p = sum_j a_j ell_j^p of the
    log-excesses ell_j with weights a_j >= 0 of total mass m_0 <= 1
    (l through m_l = m_km + (1 - delta_(n)) d_term).  Rounding c*z moves
    each ratio Z_(n-j+1)/Z_(n-k) by at most 3u, the unscaled quotient
    carries u more, so ell_j moves by 4u absolute plus 2u relative from
    the two logs, which the power multiplies by p.  The kernel forms
    ell^p from ell^q, q = p - r in [1, 2), by r = floor(p - 1)
    multiplications by ell, after one rounded ell**q when q > 1: at most
    r + 1 roundings, so the power adds (r + 1) u relative on each side,
    2 (r + 1) u in all.  Hence

        eta_p = 4 p u m_{p-1}/m_p + (2p + 2r + 2) u + 2 (k + 3) u + 2 u,

    where 2 (k + 3) u bounds the two routes' summation of k non-negative
    terms and 2 u stands for the combiners' own rounding, about kappa*u
    on each side.  Below order 2, m_{p-1}/m_p <= m_p^(-1/p) by Hoelder
    with m_0 <= 1.  The largest eta_p over the spec's orders is returned.
    """
    u = EPS / 2.0
    orders = ref.combination_orders(spec.family.value, spec.alpha)
    eta = 0.0
    for p, m_p in zip(orders, spec_moments(s, k, spec, orders)):
        if p >= 2.0:
            ratio = spec_moments(s, k, spec, [p - 1.0])[0] / m_p
        else:
            ratio = m_p ** (-1.0 / p)
        r = math.floor(p - 1.0)
        eta = max(eta, 4.0 * p * u * ratio + 2.0 * (p + r + k + 5.0) * u)
    return eta


def assert_within(got, want, bound):
    """|got - want| <= max(1e-12 * max(|got|, |want|), bound, 1e-10), with
    bound a derived first-order error bound; an infinite bound means the
    cell sits on a pole, where the estimate must be NaN."""
    assert math.isfinite(bound), f"{got!r} vs {want!r}: finite on a pole"
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=max(1e-10, bound)), (
        f"{got!r} vs {want!r}: outside {bound:.3g}"
    )


def sample_and_k(seed, n_max=200):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, n_max))
    design = DESIGNS[int(rng.integers(len(DESIGNS)))]
    return draw_sample_with_k(rng, n, design)


class TestCombineMoment:
    def test_small_ratio_example(self):
        # m1^2/m2 = 1/2: 0.1 + 1 - 1
        assert combine_moment(0.1, 0.02) == pytest.approx(0.1, rel=1e-12)

    def test_zero_first_moment(self):
        assert combine_moment(0.0, 5.0) == 0.5

    def test_limit_moments_recover_the_index(self):
        # ratio part alone hits the index; the residual is the first moment
        l1 = limit_l_alpha(-1.0, -1.5, 1.0)
        l2 = limit_l_alpha(-1.0, -1.5, 2.0)
        a = 1e-9
        assert combine_moment(a * l1, a * a * l2) == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("m1,m2", [(0.1, 0.0), (0.1, -1.0), (1.0, 1.0), (-2.0, 4.0)])
    def test_singular_inputs_give_nan(self, m1, m2):
        assert math.isnan(combine_moment(m1, m2))


class TestCombineType1:
    def test_limit_moments_recover_the_index(self):
        for gx, gc in [(-1.0, -1.5), (-0.25, -0.2), (-2.0, -0.5)]:
            for alpha in (1.0, 2.0, 3.0):
                ms = [limit_l_alpha(gx, gc, alpha + j) for j in (0.0, 1.0, 2.0)]
                assert combine_type1(*ms, alpha) == pytest.approx(gx, abs=1e-10)

    def test_scale_free(self):
        ms = [limit_l_alpha(-1.0, -1.5, 2.0 + j) for j in (0.0, 1.0, 2.0)]
        for a in (0.1, 1.0, 10.0):
            scaled = [a ** (2.0 + j) * m for j, m in zip((0.0, 1.0, 2.0), ms)]
            assert combine_type1(*scaled, 2.0) == pytest.approx(-1.0, abs=1e-10)

    def test_zero_v_gives_nan(self):
        # (3/2)*4/(2*3) = 1 exactly
        assert math.isnan(combine_type1(2.0, 2.0, 3.0, 1.0))

    def test_zero_denominator_gives_nan(self):
        # V = -1/2, 1/V + 2 = 0
        assert math.isnan(combine_type1(1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("ms", [(0.0, 1.0, 1.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 1.0)])
    def test_non_positive_moments_give_nan(self, ms):
        assert math.isnan(combine_type1(*ms, 2.0))


class TestCombineType2:
    def test_small_example(self):
        # R = 2/3, alpha = 1: 1 - 0.5/(1/3)
        assert combine_type2(1.0, 2.0, 3.0, 1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_limit_moments_recover_the_index(self):
        for gx, gc in [(-1.0, -1.5), (-0.25, -0.2), (-2.0, -0.5)]:
            for alpha in (1.0, 2.0, 3.0):
                l1 = limit_l_alpha(gx, gc, 1.0)
                la = limit_l_alpha(gx, gc, alpha)
                la1 = limit_l_alpha(gx, gc, alpha + 1.0)
                assert combine_type2(l1, la, la1, alpha) == pytest.approx(gx, abs=1e-10)

    def test_r_equal_one_gives_nan(self):
        assert math.isnan(combine_type2(1.0, 1.0, 1.0, 2.0))

    def test_non_positive_m_a1_gives_nan(self):
        assert math.isnan(combine_type2(1.0, 1.0, 0.0, 2.0))

    @example(m1=1.0, m2=1.0 + 2**-52)  # R one unit of 2**-52 below 1: the pole
    @given(m1=positive, m2=positive)
    @settings(max_examples=100, deadline=None)
    def test_alpha_one_matches_ratio_form_bitwise(self, m1, m2):
        # at alpha = 1 the family collapses to the two-moment ratio form;
        # the rearranged evaluation makes the match exact, not approximate,
        # and both give NaN for a ratio within _POLE_TOL of 1
        m1_sq = m1 * m1
        if abs(m2 - m1_sq) <= _POLE_TOL * m2:
            want = math.nan
        else:
            want = 1.0 - 0.5 / (1.0 - m1_sq / m2)
        assert repr(float(combine_type2(m1, m1, m2, 1.0))) == repr(want)


class TestOnePointTail:
    # Every weighting puts all its mass on one log-excess at k = 1, so
    # each family sits on its Cauchy-Schwarz pole there: the public
    # combiners must give NaN on such moments, as ``estimate`` does, not
    # the huge finite value a ratio a few roundings from 1 would give.
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([1.0, 2.0, 2.5, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_public_combiners_give_nan(self, seed, alpha):
        rng = np.random.default_rng(seed)
        s, k = draw_sample_with_k(rng, int(rng.integers(5, 300)), k_hi=1)
        orders = (1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0)
        for moments in tail_moments(s, [k], orders):
            m = {p: float(v[0]) for p, v in moments.items()}
            assert math.isnan(combine_moment(m[1.0], m[2.0]))
            assert math.isnan(combine_type1(m[alpha], m[alpha + 1.0], m[alpha + 2.0], alpha))
            assert math.isnan(combine_type2(m[1.0], m[alpha], m[alpha + 1.0], alpha))

    # The weights are rounded products of up to n factors, so a check at
    # small n says little about large n: draw n log-uniformly up to 2e5.
    @given(seed=st.integers(0, 2**32 - 1),
           log_n=st.floats(math.log(5.0), math.log(2e5), allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_estimate_gives_nan_at_every_n(self, seed, log_n):
        rng = np.random.default_rng(seed)
        s, k = draw_sample_with_k(rng, int(round(math.exp(log_n))), k_hi=1)
        specs = [EstimatorSpec(f, m, alpha)
                 for alpha in (1.0, 2.0, 2.5, 3.0) for f in Family for m in Method]
        _, (values,) = estimate(s, [k], specs)
        assert [spec.label for spec, v in zip(specs, values.tolist())
                if not math.isnan(v)] == []

    # A censored run below an uncensored top point leaves one weighted
    # log-excess in every tail that ends inside it, so km and l sit on the
    # pole at each of those k, also where the tail holds full blocks that
    # the moment pass shifts (k > 64): those blocks add exact zeros.
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 3000),
           run=st.integers(70, 250))
    @settings(max_examples=40, deadline=None)
    def test_estimate_gives_nan_beyond_a_block(self, seed, n, run):
        drawn = draw_sample(np.random.default_rng(seed), n, DESIGNS[3])
        delta = drawn.delta.copy()
        delta[-1], delta[-1 - run:-1] = 1, 0
        s = from_observations(drawn.z, delta)
        specs = [EstimatorSpec(f, m, alpha) for alpha in (1.0, 2.0, 3.0)
                 for f in Family for m in (Method.KM, Method.LEURGANS)]
        _, values = estimate(s, range(1, run + 2), specs)
        assert np.isnan(values).all()

    # The same above k = 4096, where the blocks of a tail are also summed
    # into superblocks of 64 and shifted twice: the zero weights of the
    # censored run still add exact zeros through both shifts.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_gives_nan_beyond_a_superblock(self, seed):
        drawn = draw_sample(np.random.default_rng(seed), 9000, DESIGNS[3])
        delta = drawn.delta.copy()
        delta[-1], delta[-8300:-1] = 1, 0
        s = from_observations(drawn.z, delta)
        ks = [4096, 4097, 4160, 4161, 8192, 8193, 8300]
        assert (s.z[s.n - np.array(ks) - 1] > 0).all()
        _, (m1, m2), _ = (tuple(m.values()) for m in tail_moments(s, ks, (1.0, 2.0)))
        assert (np.abs(m2 - m1 * m1) <= _POLE_TOL * m2).all()
        specs = [EstimatorSpec(f, m, alpha) for alpha in (1.0, 2.0, 3.0)
                 for f in Family for m in (Method.KM, Method.LEURGANS)]
        _, values = estimate(s, ks, specs)
        assert np.isnan(values).all()


class TestEstimatorSpec:
    def test_label(self):
        spec = EstimatorSpec(family=Family.MOMENT, method=Method.KM)
        assert spec.label == "mom/km"
        assert EstimatorSpec(Family.TYPE2, Method.EFG, 3.0).label == "type2/efg"

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            EstimatorSpec(Family.TYPE1, Method.KM, alpha=0.5)

    def test_hashable_for_grouping(self):
        assert len({EstimatorSpec(Family.MOMENT, Method.KM), EstimatorSpec(Family.MOMENT, Method.KM)}) == 1


class TestEstimate:
    def test_record_carries_p_hat(self, rng):
        s, k = draw_sample_with_k(rng, 120, DESIGNS[0])
        recs = records(s, k, ALL_SPECS)
        assert [rec.spec for rec in recs] == ALL_SPECS
        for rec in recs:
            assert isinstance(rec, EstimateRecord)
            assert rec.k == k
            assert rec.p_hat == tail_uncensored_proportion(s, k)

    def test_one_record_per_spec_in_spec_order(self, rng):
        # a spec's record does not depend on the other specs evaluated with it
        s, k = draw_sample_with_k(rng, 120, DESIGNS[3])
        extra = EstimatorSpec(Family.TYPE1, Method.LEURGANS, 3.5)
        specs = ALL_SPECS[::-1] + [extra] + ALL_SPECS[:2]
        recs = records(s, k, specs)
        assert [rec.spec for rec in recs] == specs
        for rec in recs:
            assert repr(estimate_one(s, k, rec.spec)) == repr(rec)
        assert estimate(s, [k], [])[1].shape == (1, 0)

    def test_non_positive_threshold_is_degenerate(self):
        s = make_censored([-1.0, 1.0, 2.0], [9.0, 9.0, 9.0], require_positive=False)
        for rec in records(s, 2, ALL_SPECS):
            assert rec.degenerate
            assert math.isnan(rec.value)
            assert rec.p_hat == 1.0

    def test_efg_with_no_uncensored_top_is_degenerate(self):
        s = sample_from([1.0, 2.0, 3.0], [1, 0, 0])
        rec = estimate_one(s, 2, EstimatorSpec(Family.MOMENT, Method.EFG))
        assert rec.p_hat == 0.0
        assert math.isnan(rec.value)
        assert rec.degenerate

    def test_k_equal_one_moment_family_is_degenerate(self):
        s = sample_from([1.0, 2.0, 4.0], [1, 1, 1])
        for method in Method:
            rec = estimate_one(s, 1, EstimatorSpec(Family.MOMENT, method))
            assert rec.degenerate
            assert math.isnan(rec.value)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_never_raises_and_flag_matches_value(self, seed):
        rng = np.random.default_rng(seed)
        s, _ = draw_sample_with_k(rng, int(rng.integers(5, 120)))
        k = int(rng.integers(1, s.n))
        for rec in records(s, k, ALL_SPECS):
            assert rec.degenerate == (not math.isfinite(rec.value))

    # seed 0 draws n = 596 and the full grid: 177 310 tail terms, about
    # eleven chunks of the moment pass
    @example(seed=0, full=True)
    @given(seed=st.integers(0, 2**32 - 1), full=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_cell_does_not_depend_on_its_k_grid(self, seed, full):
        # a k-grid estimate equals the single-k estimates bit for bit, NaN
        # included, whichever other k share its pass
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 700))
        s = draw_sample(rng, n)
        if full:
            ks = np.arange(1, n)
        else:
            ks = rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False)
        specs = ALL_SPECS + [EstimatorSpec(Family.TYPE1, Method.LEURGANS, 2.5),
                             EstimatorSpec(Family.TYPE2, Method.EFG, 3.5)]
        p_hat, values = estimate(s, ks, specs)
        assert values.shape == (len(ks), len(specs))
        for i, k in enumerate(ks.tolist()):
            p_one, values_one = estimate(s, [k], specs)
            assert p_one[0] == p_hat[i]
            assert values_one[0].tobytes() == values[i].tobytes(), k

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_uncensored_methods_coincide(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 150))
        x = GPD(-0.5, 1).sample(rng, n)
        s = make_censored(x, np.full(n, 3.0))
        k = int(rng.integers(2, n))
        for family in Family:
            recs = {
                m: estimate_one(s, k, EstimatorSpec(family, m)) for m in Method
            }
            assert recs[Method.KM].p_hat == 1.0
            vals = [recs[m].value for m in Method]
            if any(math.isnan(v) for v in vals):
                assert all(math.isnan(v) for v in vals)
                continue
            # with delta_(n) = 1 the l moments are the km moments
            assert vals[1] == vals[0]
            # km and efg sum the same k terms by different routes, each
            # within (k + 3) u of the shared exact value
            bound = 4.0 * sensitivity(s, k, EstimatorSpec(family, Method.KM)) * k * EPS
            assert_within(vals[2], vals[0], bound)

    @example(seed=1592)  # type1 at k = 2 next to its pole, kappa ~ 6.5e4
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_km_and_increment_weighting_agree_when_top_uncensored(self, seed):
        s, k = sample_and_k(seed)
        assume(s.delta[-1] == 1)
        for family in Family:
            specs = [EstimatorSpec(family, Method.KM), EstimatorSpec(family, Method.LEURGANS)]
            a, b = records(s, k, specs)
            # with delta_(n) = 1 the top correction vanishes, so l is the
            # km sum itself: equal bit for bit, or NaN together
            assert repr(b.value) == repr(a.value)

    # The first two are near type1's pole (kappa ~ 1.7e4); at c = 0.5 the
    # same cells must come out bit-identical.  At seed=94 the top k = 3
    # points are all censored, so l has a one-point tail and every value
    # must be NaN on both sides.
    @example(seed=15967, c=0.625)
    @example(seed=3823, c=8.5)
    @example(seed=15967, c=0.5)
    @example(seed=94, c=1.25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.one_of(st.floats(0.01, 100.0), st.integers(-6, 6).map(lambda j: 2.0 ** j)),
    )
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        s, k = draw_sample_with_k(rng, int(rng.integers(6, 120)), DESIGNS[3])
        scaled = from_observations(c * s.z, s.delta)
        # a power of two scales every z exactly, so nothing downstream moves
        exact = math.frexp(c)[0] == 0.5
        for a, b in zip(records(s, k, ALL_SPECS), records(scaled, k, ALL_SPECS)):
            spec = a.spec
            assert b.p_hat == a.p_hat
            assert math.isnan(b.value) == math.isnan(a.value), (spec.label, a.value, b.value)
            if math.isnan(a.value):
                continue
            if exact:
                assert b.value == a.value
                continue
            bound = sensitivity(s, k, spec) * scaling_perturbation(s, k, spec)
            assert_within(b.value, a.value, bound)
