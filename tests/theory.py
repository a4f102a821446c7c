"""Limit theory of the censored tail, the reference the acceptance,
moment and estimator tests compare the program against.

When X and C both have a negative tail index and share their right
endpoint, the pooled variable Z = min(X, C) has index
``gamma = gamma_x*gamma_c/(gamma_x + gamma_c)`` and a fraction
``p = gamma_c/(gamma_x + gamma_c)`` of the extreme observations stays
uncensored in the limit (``theory_from_indices``).  ``limit_l_alpha``
gives the constant the weighted tail moments approach after division by
a_nk^alpha, and ``scale_a_nk`` computes that normalizing scale for a
known censoring pair by solving for the pooled upper quantile
numerically, through each law's survival function (``survival``).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from censored_evi.distributions import GPD, DistributionSpec, ReverseBurr, _common_endpoint
from censored_evi.moments import _check_order


def survival(spec: DistributionSpec, x):
    """P(X > x) for the law ``spec``: a float for a scalar ``x``, else an
    array of x's shape.  ReverseBurr and GPD in closed form, BetaDist
    through the regularized incomplete Beta function."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, ReverseBurr):
        gap = spec.xstar - x
        safe = np.where(gap > 0.0, gap, 1.0)
        val = np.where(gap > 0.0, (1.0 + safe ** (-spec.tau) / spec.beta) ** (-spec.lam), 0.0)
    elif isinstance(spec, GPD):
        base = np.clip(1.0 + spec.gamma * x / spec.sigma, 0.0, None)
        val = np.where(x < 0.0, 1.0, base ** (-1.0 / spec.gamma))
    else:
        # I_x(a,b) complement via the swap identity; avoids cancellation near 1
        val = betainc(spec.b, spec.a, np.clip(1.0 - x, 0.0, 1.0))
        val = np.where(x < 0.0, 1.0, np.where(x >= 1.0, 0.0, val))
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class TailTheory:
    """Derived tail quantities for a censoring pair with common endpoint."""

    gamma_x: float
    gamma_c: float
    gamma: float
    p: float


def theory_from_indices(gamma_x: float, gamma_c: float) -> TailTheory:
    """Pooled index and limit uncensored proportion for negative indices."""
    if not (gamma_x < 0 and gamma_c < 0):
        raise ValueError("both tail indices must be strictly negative")
    gamma = gamma_x * gamma_c / (gamma_x + gamma_c)
    p = gamma_c / (gamma_x + gamma_c)
    return TailTheory(gamma_x=gamma_x, gamma_c=gamma_c, gamma=gamma, p=p)


def beta_function(a: float, b: float) -> float:
    """Euler Beta via log-gamma: exp(lnG(a) + lnG(b) - lnG(a+b))."""
    if not (a > 0 and b > 0):
        raise ValueError("beta_function requires a, b > 0")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def limit_l_alpha(gamma_x: float, gamma_c: float, alpha: float) -> float:
    """Limit constant of the weighted moments after a_nk^alpha scaling:

        l_alpha = |gamma_x|^-1 * |gamma|^-alpha * Beta(1/|gamma_x|, alpha+1)

    with gamma the pooled index of the censoring pair.  Alpha is checked
    by the program's own rule for moment orders.
    """
    _check_order(alpha)
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
    survival (1-F(u))*(1-G(u)) = k/n over (lo, xstar).  The endpoints must
    agree by the rule a ``StudyDesign`` applies."""
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    xstar = _common_endpoint(fx, gc)
    t = n / k
    target = 1.0 / t

    def pooled_survival(u: float) -> float:
        return survival(fx, u) * survival(gc, u)

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
