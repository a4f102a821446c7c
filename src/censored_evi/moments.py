"""Tail log-moments of a censored sample and their limit theory.

For threshold Z_(n-k) and order alpha >= 1 the building block is the
vector of powered log-excesses  L_i = log^alpha(Z_(n-i+1)/Z_(n-k)),
i = 1..k.  ``tail_moments`` forms three sample moments from it, at every
requested order in one pass over the top k observations:

* unweighted: plain mean of the L_i (ignores censoring).
* km: each L_i weighted by delta_(n-i+1)/(1-Ghat(Z_(n-i+1)^-)),
  normalized by N = n*(1-Fhat(Z_(n-k))).
* l: Leurgans' increment weighting, defined by the exact identity

      m_l = m_km + (1 - delta_(n)) * L_1 / (N * (1-Ghat(Z_(n)^-))),

  so it differs from km only through a censored top observation.  The
  increment form it equals, sum of i*(L_i - L_{i+1})/(1-Ghat(Z_(n-i+1)^-))
  over N, is kept as the naive reference the tests check it against.

``limit_l_alpha`` gives the constant these weighted moments approach
after division by a_nk^alpha, and ``scale_a_nk`` computes that
normalizing scale for a known censoring pair by solving for the pooled
upper quantile numerically.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, theory_from_indices
from .distributions import DistributionSpec
from .kaplan_meier import KaplanMeierCurves

__all__ = [
    "AsymptoticScale",
    "log_excesses",
    "tail_moments",
    "beta_function",
    "limit_l_alpha",
    "scale_a_nk",
]


def log_excesses(s: CensoredSample, k: int, alpha: float) -> np.ndarray:
    """L_i = log^alpha(Z_(n-i+1)/Z_(n-k)) for i = 1..k (largest first).

    A threshold Z_(n-k) <= 0 has no log-excesses: every L_i is NaN.
    """
    if not 1 <= k < s.n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={s.n}")
    if not alpha >= 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    threshold = s.z[s.n - k - 1]
    if not threshold > 0:
        return np.full(k, np.nan)
    return np.log(s.z[s.n - k:][::-1] / threshold) ** alpha


def tail_moments(
    s: CensoredSample, k: int, orders: Sequence[float], curves: KaplanMeierCurves
) -> tuple[dict[float, float], dict[float, float], dict[float, float]]:
    """Unweighted, km and l moments of the top-k tail at every order.

    Returns three dicts ``(unweighted, km, l)``, each mapping an order in
    ``orders`` to its moment.  The moments are NaN when the threshold
    Z_(n-k) is not positive.
    """
    for alpha in orders:
        if not alpha >= 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
    base = log_excesses(s, k, 1.0)
    n = s.n
    g_left = curves.surv_g_left_at_order
    w = s.delta[n - k:][::-1] * (1.0 / g_left[n - k:][::-1])
    norm = n * float(curves.surv_f_at_order[n - k - 1])
    top_censored = 1 - int(s.delta[n - 1])
    top_norm = norm * float(g_left[n - 1])
    unweighted, km, l = {}, {}, {}
    for alpha in orders:
        ell = base ** alpha
        unweighted[alpha] = float(np.mean(ell))
        km[alpha] = float(np.sum(w * ell) / norm)
        l[alpha] = km[alpha] + top_censored * float(ell[0]) / top_norm
    return unweighted, km, l


def beta_function(a: float, b: float) -> float:
    """Euler Beta via log-gamma: exp(lnG(a) + lnG(b) - lnG(a+b))."""
    if not (a > 0 and b > 0):
        raise ValueError("beta_function requires a, b > 0")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def limit_l_alpha(gamma_x: float, gamma_c: float, alpha: float) -> float:
    """Limit constant of the weighted moments after a_nk^alpha scaling:

        l_alpha = |gamma_x|^-1 * |gamma|^-alpha * Beta(1/|gamma_x|, alpha+1)

    with gamma the pooled index of the censoring pair.
    """
    if not alpha >= 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    theory = theory_from_indices(gamma_x, gamma_c)
    bx = 1.0 / abs(gamma_x)
    return bx * abs(theory.gamma) ** (-alpha) * beta_function(bx, alpha + 1.0)


@dataclass(frozen=True)
class AsymptoticScale:
    """Normalizing scale at threshold fraction k/n.

    u_of_t is the upper 1/t quantile of the pooled variable (the value z
    with (1-F(z))*(1-G(z)) = 1/t), a_of_t = |gamma|*(xstar - u_of_t), and
    a_nk = a_of_t/u_of_t is the scale that normalizes the tail moments.
    """

    t: float
    u_of_t: float
    a_of_t: float
    a_nk: float
    xstar: float


def scale_a_nk(fx: DistributionSpec, gc: DistributionSpec, n: int, k: int) -> AsymptoticScale:
    """Normalizing scale for a known pair, by bisection on the pooled
    survival (1-F(u))*(1-G(u)) = k/n over (lo, xstar)."""
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    xstar = fx.endpoint
    if not math.isclose(xstar, gc.endpoint, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"endpoint mismatch: {fx.endpoint!r} vs {gc.endpoint!r} (common endpoint required)"
        )
    t = n / k
    target = 1.0 / t

    def pooled_survival(u: float) -> float:
        return float(fx.survival(u)) * float(gc.survival(u))

    # Bracket downward from the endpoint; the pooled survival rises to 1
    # as u decreases, so a finite expansion always brackets target < 1.
    width = max(1.0, abs(xstar))
    lo = xstar - width
    for _ in range(60):
        if pooled_survival(lo) > target:
            break
        width *= 2.0
        lo = xstar - width
    else:
        raise ValueError("bisection bracket not found for the pooled quantile")
    hi = xstar
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pooled_survival(mid) > target:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    if not u > 0:
        raise ValueError("pooled upper quantile is non-positive; increase n/k")
    theory = theory_from_indices(fx.theoretical_evi(), gc.theoretical_evi())
    a_t = abs(theory.gamma) * (xstar - u)
    return AsymptoticScale(t=t, u_of_t=u, a_of_t=a_t, a_nk=a_t / u, xstar=xstar)
