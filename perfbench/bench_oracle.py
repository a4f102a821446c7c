"""Brute-force reference for the censored tail estimators, with error bounds.

Everything is recomputed from the raw definitions in plain Python floats:
product-limit curves as running products, log-excesses per k, moments as
explicit sums, and the documented combination formulas.  No code of the
package under test is used here.

Tolerances are derived, not chosen.  With u = 2**-53:

* every log-excess l_i = log(Z_(n-i+1)/Z_(n-k)) carries an absolute error
  of at most 2*eta + 4u + 2u*l_i, where eta is the largest relative
  difference between this module's sample and the program's sample;
* L_i = l_i**a then carries a*l_i**(a-1)*dl_i + 4u*L_i;
* a moment is a sum of non-negative terms, so its error is the sum of the
  term errors plus (2k + 4)u of its value for both summation orders, plus
  (2n + 4)u for each product-limit factor (weights and normaliser), which
  the reference forms as a running product of up to n factors;
* a combined estimate is evaluated at every corner of the box
  m_j +- err_j of the moments it uses.  Its tolerance is twice the largest
  corner deviation plus 8u of its value.  When a guarded denominator or
  moment changes sign inside the box the cell is ill-conditioned: the
  check cannot decide it and it is counted as unchecked instead.
"""

from __future__ import annotations

import itertools
import math

U = 2.0 ** -53
NAN = float("nan")
INF = float("inf")


def _combine_mom(m1, m2, alpha):
    if not m2 > 0:
        return NAN, (m2,)
    den = 1.0 - m1 * m1 / m2
    if den == 0.0:
        return NAN, (m2, den)
    return m1 + 1.0 - 0.5 / den, (m2, den)


def _combine_type1(m_a, m_a1, m_a2, alpha):
    if not (m_a > 0 and m_a2 > 0):
        return NAN, (m_a, m_a2)
    v = 1.0 - (alpha + 2.0) / (alpha + 1.0) * (m_a1 * m_a1) / (m_a * m_a2)
    if v == 0.0:
        return NAN, (m_a, m_a2, v)
    den = 1.0 / v + alpha + 1.0
    if den == 0.0:
        return NAN, (m_a, m_a2, v, den)
    return 1.0 / den, (m_a, m_a2, v, den)


def _combine_type2(m1, m_a, m_a1, alpha):
    if not m_a1 > 0:
        return NAN, (m_a1,)
    r = m1 * m_a / m_a1
    if r == 1.0:
        return NAN, (m_a1, 1.0 - r)
    return 1.0 - (alpha / (alpha + 1.0)) / (1.0 - r), (m_a1, 1.0 - r)


# family -> (moment orders as a function of alpha, combiner)
FAMILIES = {
    "mom": (lambda a: (1.0, 2.0), _combine_mom),
    "type1": (lambda a: (a, a + 1.0, a + 2.0), _combine_type1),
    "type2": (lambda a: (1.0, a, a + 1.0), _combine_type2),
}
METHODS = ("km", "l", "efg")


def _signs(values):
    return [(x > 0) - (x < 0) for x in values]


class Reference:
    """Naive estimates on one censored sample (z ascending, delta aligned).

    ``eta`` is the relative difference already measured between this
    sample and the one the program used; it widens every tolerance.
    """

    def __init__(self, z, delta, eta=0.0):
        self.z = [float(v) for v in z]
        self.delta = [int(v) for v in delta]
        self.n = n = len(self.z)
        self.eta = eta
        # surv_f[i] = 1 - Fhat(Z_(i)), surv_g[i] = 1 - Ghat(Z_(i)), 1-based.
        surv_f = [1.0] * (n + 1)
        surv_g = [1.0] * (n + 1)
        for j in range(1, n + 1):
            factor = (n - j) / (n - j + 1)
            uncensored = self.delta[j - 1] == 1
            surv_f[j] = surv_f[j - 1] * factor if uncensored else surv_f[j - 1]
            surv_g[j] = surv_g[j - 1] if uncensored else surv_g[j - 1] * factor
        self.surv_f = surv_f
        self.surv_g = surv_g
        self._logs = {}
        self._moments = {}

    def surv_g_left(self, i):
        """1 - Ghat(Z_(i)^-): product over the first i-1 factors."""
        return self.surv_g[i - 1]

    def p_hat(self, k):
        return sum(self.delta[self.n - k:]) / k

    def _log_excesses(self, k):
        if k not in self._logs:
            n, z = self.n, self.z
            thr = z[n - k - 1]
            if not thr > 0:
                raise ValueError(f"threshold Z_(n-k) = {thr!r} is not positive at k={k}")
            self._logs[k] = [math.log(z[n - i] / thr) for i in range(1, k + 1)]
        return self._logs[k]

    def moment(self, k, order, method):
        """(value, absolute error bound) of one moment; method is km, l or efg."""
        key = (k, order, method)
        if key in self._moments:
            return self._moments[key]
        n, a = self.n, order
        logs = self._log_excesses(k)
        dl = [2.0 * self.eta + 4.0 * U + 2.0 * U * ell for ell in logs]
        big = [ell ** a for ell in logs]
        dbig = [a * ell ** (a - 1.0) * d + 4.0 * U * b for ell, d, b in zip(logs, dl, big)]
        sum_rel = (2 * k + 4) * U
        if method == "efg":
            m = sum(big) / k
            err = sum(dbig) / k + sum_rel * m
        else:
            norm = n * self.surv_f[n - k]
            curve_rel = 2 * (2 * n + 4) * U
            total = 0.0
            terr = 0.0
            for i in range(1, k + 1):
                g = self.surv_g_left(n - i + 1)
                if method == "km":
                    if self.delta[n - i] == 1:
                        total += big[i - 1] / g
                        terr += dbig[i - 1] / g
                else:
                    nxt, dnxt = (big[i], dbig[i]) if i < k else (0.0, 0.0)
                    xi = i * (big[i - 1] - nxt)
                    total += xi / g
                    terr += (i * (dbig[i - 1] + dnxt) + 2.0 * U * abs(xi)) / g
            m = total / norm
            err = terr / norm + (sum_rel + curve_rel) * abs(m)
        self._moments[key] = (m, err)
        return m, err

    def expect(self, k, family, method, alpha):
        """(reference estimate, tolerance); tolerance is inf when the cell
        is ill-conditioned and 0 when the estimate must be NaN."""
        orders, combine = FAMILIES[family]
        moments = [self.moment(k, o, method) for o in orders(alpha)]
        ref, guards = combine(*[m for m, _ in moments], alpha)
        ref_signs = _signs(guards)
        worst = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=len(moments)):
            value, corner_guards = combine(
                *[m + s * e for (m, e), s in zip(moments, signs)], alpha)
            if _signs(corner_guards) != ref_signs:
                return ref, INF
            if not math.isnan(ref):
                worst = max(worst, abs(value - ref))
        tol = 0.0 if math.isnan(ref) else 2.0 * worst + 8.0 * U * abs(ref)
        if method == "efg":
            p = self.p_hat(k)
            if p == 0:
                return NAN, 0.0
            ref, tol = ref / p, tol / p + 2.0 * U * abs(ref / p)
        return ref, tol


STATISTICS = ("median_bias", "mse", "mean", "variance")


def cell_statistics(entries, gamma):
    """Reference study cell from the (estimate, tolerance) of every replicate.

    Returns ``{statistic: (value, tolerance)}`` plus the exact
    ``degenerate_count``, or None when some estimate is unchecked.
    Non-finite estimates are degenerate and excluded, as the engine
    documents.  With m = the count of usable estimates, t_i their
    tolerances and r = (m + 2)u * mean|v| the rounding of the engine's mean:

    * mean: sum(t_i)/m + r;
    * median: max t_i (the median moves no more than its inputs) + u|med|,
      then 2u(|med| + |gamma|) for the subtraction of gamma;
    * mse: (2/m) sum |v_i - gamma| t_i + (max t_i)**2 + (m + 6)u * mse;
    * variance: (2/m) sum |v_i - mean| t_i (the mean's own shift cancels
      to first order) + (2 max t_i + r)**2 + (m + 6)u * variance.

    Each tolerance is doubled, as for single estimates.  With t_i = 0 the
    tolerances are the engine's rounding alone.
    """
    if any(math.isinf(t) for _, t in entries):
        return None
    usable = [(v, t) for v, t in entries if math.isfinite(v)]
    out = {"degenerate_count": len(entries) - len(usable)}
    m = len(usable)
    if m == 0:
        out.update((name, (NAN, 0.0)) for name in STATISTICS)
        return out
    v = [a for a, _ in usable]
    t = [b for _, b in usable]
    t_max = max(t)
    mean = math.fsum(v) / m
    r = (m + 2) * U * math.fsum(abs(a) for a in v) / m
    srt = sorted(v)
    med = srt[m // 2] if m % 2 else (srt[m // 2 - 1] + srt[m // 2]) / 2.0
    mse = math.fsum((a - gamma) ** 2 for a in v) / m
    var = math.fsum((a - mean) ** 2 for a in v) / m
    errors = {
        "mean": (mean, math.fsum(t) / m + r),
        "median_bias": (med - gamma, t_max + U * abs(med) + 2.0 * U * (abs(med) + abs(gamma))),
        "mse": (mse, 2.0 * math.fsum(abs(a - gamma) * b for a, b in usable) / m
                + t_max ** 2 + (m + 6) * U * mse),
        "variance": (var, 2.0 * math.fsum(abs(a - mean) * b for a, b in usable) / m
                     + (2.0 * t_max + r) ** 2 + (m + 6) * U * var),
    }
    out.update((name, (value, 2.0 * err)) for name, (value, err) in errors.items())
    return out


def compare_statistic(got, ref, tol):
    """'ok' or a mismatch message for one cell statistic."""
    if math.isnan(ref):
        return "ok" if math.isnan(got) else f"{got!r}, reference is NaN"
    if not abs(got - ref) <= tol:
        return f"{got!r} differs from reference {ref!r} by more than {tol:.3g}"
    return "ok"


def compare(value, p_hat, ref, tol, ref_p_hat):
    """'ok', 'unchecked' or a mismatch message for one estimate."""
    if p_hat != ref_p_hat:
        return f"p_hat {p_hat!r} != reference {ref_p_hat!r}"
    if math.isinf(tol):
        return "unchecked"
    if math.isnan(ref):
        return "ok" if math.isnan(value) else f"value {value!r}, reference is NaN"
    if not math.isfinite(value):
        return f"value {value!r}, reference {ref!r}"
    if abs(value - ref) > tol:
        return f"value {value!r} differs from reference {ref!r} by more than {tol:.3g}"
    return "ok"


# Inverse-CDF samplers written from the documented laws, fed the same
# uniform stream the engine documents: a Generator seeded by
# SeedSequence((seed, replicate)), X block first, then the C block, exact
# zeros redrawn.

def uniform_open(rng, n):
    u = rng.random(n)
    while True:
        zero = u == 0.0
        if not zero.any():
            return u
        u[zero] = rng.random(int(zero.sum()))


def revburr_quantile(params, u):
    """Reverse Burr (beta, tau, lam, xstar): survival
    (1 + (xstar - x)^(-tau)/beta)^(-lam) below xstar."""
    beta, tau, lam, xstar = params
    return xstar - (beta * ((1.0 - u) ** (-1.0 / lam) - 1.0)) ** (-1.0 / tau)


def revburr_evi(params):
    """Extreme value index of the reverse Burr law: its survival behaves
    like (xstar - x)**(tau*lam) at the endpoint."""
    _, tau, lam, _ = params
    return -1.0 / (tau * lam)


def gpd_quantile(params, u):
    """GPD (gamma < 0, sigma): survival (1 + gamma*x/sigma)^(-1/gamma)."""
    gamma, sigma = params
    return sigma * ((1.0 - u) ** (-gamma) - 1.0) / gamma


def censor(x, c):
    """Ascending (z, delta) with z = min(x, c), uncensored first on ties."""
    pairs = sorted((min(a, b), 0 if a <= b else 1) for a, b in zip(x, c))
    return [p[0] for p in pairs], [1 - p[1] for p in pairs]
