import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from censored_evi import (
    BetaDist,
    GPD,
    ReverseBurr,
    distribution_literal,
    parse_distribution,
)
from theory import survival

ALL_SPECS = [
    ReverseBurr(1, 1, 1, 10),
    ReverseBurr(10, 2.0 / 3.0, 1, 10),
    ReverseBurr(1, 8, 0.5, 10),
    GPD(-0.5, 1),
    GPD(-0.25, 2),
    BetaDist(2, 4),
]

params = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestSurvival:
    def test_revburr_at_endpoint_is_zero(self):
        assert survival(ReverseBurr(1, 1, 1, 10), 10) == 0.0
        assert survival(ReverseBurr(1, 1, 1, 10), 11) == 0.0

    def test_revburr_closed_form_value(self):
        # (1 + (10-9)^-1)^-1
        assert survival(ReverseBurr(1, 1, 1, 10), 9) == pytest.approx(0.5, rel=1e-15)

    def test_gpd_closed_form_value(self):
        # (1 - 0.5*1)^2
        assert survival(GPD(-0.5, 1), 1) == pytest.approx(0.25, rel=1e-15)

    def test_one_below_support(self):
        assert survival(GPD(-0.5, 1), -0.25) == 1.0
        assert survival(BetaDist(2, 4), -0.1) == 1.0
        assert survival(ReverseBurr(1, 1, 1, 10), -1e12) == pytest.approx(1.0, abs=1e-11)

    def test_beta_endpoint(self):
        assert survival(BetaDist(2, 4), 1.0) == 0.0
        assert survival(BetaDist(2, 4), 2.0) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_non_increasing(self, spec):
        xs = np.linspace(spec.endpoint - 3.0, spec.endpoint + 0.5, 200)
        vals = np.array([survival(spec, float(x)) for x in xs])
        assert np.all(np.diff(vals) <= 1e-15)
        assert survival(spec, spec.endpoint) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_regular_variation_exponent_at_endpoint(self, spec):
        # survival(x*-t*x)/survival(x*-t) ~ x^(1/|evi|) for small t
        t, x = 1e-6, 2.0
        ratio = survival(spec, spec.endpoint - t * x) / survival(spec, spec.endpoint - t)
        assert ratio == pytest.approx(x ** (1.0 / abs(spec.theoretical_evi())), rel=0.01)


class TestQuantile:
    def test_revburr_median(self):
        assert ReverseBurr(1, 1, 1, 10).quantile(0.5) == pytest.approx(9.0, rel=1e-15)

    def test_gpd_tends_to_endpoint(self):
        q = GPD(-0.5, 1).quantile(1 - 1e-9)
        assert q < 2.0
        assert 2.0 - q < 1e-3

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip_on_grid(self, spec):
        for u in np.linspace(0.01, 0.99, 99):
            s = survival(spec, spec.quantile(float(u)))
            assert s == pytest.approx(1.0 - u, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5, math.nan,
                                   pytest.param(np.array([0.25, math.nan, 0.75]),
                                                id="array-with-nan")])
    def test_domain_errors(self, spec, u):
        # the domain is [0, 1] with exact ends: the lower end of the
        # support at u = 0 and the endpoint at u = 1; NaN lies outside
        if np.array_equal(u, 0.0):
            assert spec.quantile(u) == (-math.inf if isinstance(spec, ReverseBurr) else 0.0)
        elif np.array_equal(u, 1.0):
            assert spec.quantile(u) == spec.endpoint
        else:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                spec.quantile(u)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_ends_of_an_array_are_exact_without_a_warning(self, spec):
        low = -math.inf if isinstance(spec, ReverseBurr) else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = spec.quantile(np.array([0.0, 0.5, 1.0]))
        assert q[0] == low and low < q[1] < spec.endpoint and q[2] == spec.endpoint

    @staticmethod
    def closed_form(spec, u):
        """The quantile as one expression of temporaries, the form it
        had before it was written in place."""
        if isinstance(spec, ReverseBurr):
            with np.errstate(divide="ignore"):
                s = 1.0 - u
                return spec.xstar - (spec.beta * (s ** (-1.0 / spec.lam) - 1.0)) ** (-1.0 / spec.tau)
        return spec.sigma * ((1.0 - u) ** (-spec.gamma) - 1.0) / spec.gamma

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if not isinstance(s, BetaDist)])
    def test_closed_forms_fill_one_array(self, spec):
        # a (64, 500) batch of uniforms, both ends included: the quantile
        # has the bits of its closed form, and holds no array beside its
        # output (the form above holds 1 - u and the first power at once)
        u = np.random.default_rng(29).random((64, 500))
        u[0, :2] = 0.0, 1.0
        spec.quantile(u)  # loads what the first call loads
        tracemalloc.start()
        try:
            q = spec.quantile(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= q.nbytes + 4096  # slack for the call's small objects
        np.testing.assert_array_equal(q.view(np.int64), self.closed_form(spec, u).view(np.int64))
        for x in (0.0, 0.3, 1.0):  # a scalar gives a float, its array element's bits
            assert type(spec.quantile(x)) is float
            assert (np.float64(spec.quantile(x)).view(np.int64)
                    == spec.quantile(np.array([x])).view(np.int64)[0])

    @given(beta=params, tau=params, lam=params, u=st.floats(0.001, 0.999))
    @settings(max_examples=60)
    def test_round_trip_random_revburr(self, beta, tau, lam, u):
        spec = ReverseBurr(beta, tau, lam, 10.0)
        q = spec.quantile(u)
        # storing q as a float blurs the endpoint gap by ~eps*xstar, which
        # the survival map amplifies by lam*tau/gap; tolerate exactly that
        gap = spec.xstar - q
        assume(gap > 0.0)
        rel = max(1e-12, lam * tau * 1e-15 * spec.xstar / gap)
        assume(rel < 1e-3)
        assert survival(spec, q) == pytest.approx(1.0 - u, rel=rel)


class TestTheoreticalEvi:
    def test_figure_values(self):
        assert ReverseBurr(1, 1, 1, 10).theoretical_evi() == pytest.approx(-1.0, rel=1e-15)
        assert ReverseBurr(10, 2.0 / 3.0, 1, 10).theoretical_evi() == pytest.approx(-1.5, rel=1e-15)
        assert ReverseBurr(1, 8, 0.5, 10).theoretical_evi() == pytest.approx(-0.25, rel=1e-15)

    def test_gpd_and_beta(self):
        assert GPD(-0.5, 1).theoretical_evi() == -0.5
        assert BetaDist(2, 4).theoretical_evi() == pytest.approx(-0.25, rel=1e-15)

    @given(beta=params, tau=params, lam=params)
    @settings(max_examples=60)
    def test_revburr_index_formula(self, beta, tau, lam):
        spec = ReverseBurr(beta, tau, lam, 5.0)
        assert spec.theoretical_evi() == pytest.approx(-1.0 / (lam * tau), rel=1e-12)


class TestSample:
    def test_inverse_cdf_median_point(self):
        # the u=0.5 variate maps to the median
        assert ReverseBurr(1, 1, 1, 10).quantile(0.5) == pytest.approx(9.0, rel=1e-15)

    def test_empirical_fraction_matches_survival(self):
        rng = np.random.default_rng(7)
        draws = ReverseBurr(1, 1, 1, 10).sample(rng, 100_000)
        assert np.mean(draws > 9.0) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_all_draws_below_endpoint(self, spec):
        rng = np.random.default_rng(11)
        draws = spec.sample(rng, 5000)
        assert np.all(draws < spec.endpoint)

    def test_deterministic_given_seed(self):
        a = GPD(-0.5, 1).sample(np.random.default_rng(3), 100)
        b = GPD(-0.5, 1).sample(np.random.default_rng(3), 100)
        assert np.array_equal(a, b)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            GPD(-0.5, 1).sample(np.random.default_rng(0), 0)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        lambda: ReverseBurr(0, 1, 1, 10),
        lambda: ReverseBurr(1, -1, 1, 10),
        lambda: ReverseBurr(1, 1, 0, 10),
        lambda: ReverseBurr(1, 1, 1, float("inf")),
        lambda: GPD(0.5, 1),
        lambda: GPD(0.0, 1),
        lambda: GPD(-0.5, 0),
        lambda: BetaDist(0, 1),
        lambda: BetaDist(1, -2),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    # every parameter of every law, before the law's own rules
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("law,name", [
        (law, field.name) for law in (ReverseBurr(1, 1, 1, 10), GPD(-0.5, 1), BetaDist(2, 4))
        for field in dataclasses.fields(law)])
    def test_non_finite_parameters_rejected(self, law, name, value):
        with pytest.raises(ValueError, match=f"requires finite parameters, got {name}="):
            dataclasses.replace(law, **{name: value})


class TestLiterals:
    @pytest.mark.parametrize("text,expected", [
        ("revburr(1,1,1,10)", ReverseBurr(1, 1, 1, 10)),
        ("gpd(-0.5,1)", GPD(-0.5, 1)),
        ("beta(2,4)", BetaDist(2, 4)),
        ("  revburr( 1 , 2 , 0.5 , 10 )  ", ReverseBurr(1, 2, 0.5, 10)),
    ])
    def test_parse(self, text, expected):
        assert parse_distribution(text) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip(self, spec):
        assert parse_distribution(distribution_literal(spec)) == spec

    @pytest.mark.parametrize("text", [
        "cauchy(1)",            # unknown family
        "revburr(1,1,1)",       # wrong arity
        "gpd(-0.5,1,2)",        # wrong arity
        "gpd(-0.5,x)",          # non-numeric
        "revburr(2_5,1,1,10)",  # not plain decimals, which float() reads
        "gpd(-0.5,\uff11)",
        "gpd(-0.5,\u0661\u0660\u0661)",
        "gpd(0.5,1)",           # invalid parameter (positive index)
        "gpd(-0.5,inf)",        # non-finite parameters
        "beta(inf,2)",
        "revburr 1,1,1,10",     # malformed
        "",                     # empty
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_distribution(text)
