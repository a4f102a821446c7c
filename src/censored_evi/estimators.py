"""Tail index estimators for censored data: three moment combinations
crossed with three weighting methods.

Families (how moments are combined into an index estimate):

* ``mom``   -- m1 + 1 - 0.5/(1 - m1^2/m2), from orders (1, 2).
* ``type1`` -- 1/(1/V + alpha + 1) with
               V = 1 - ((alpha+2)/(alpha+1)) * m_{a+1}^2/(m_a * m_{a+2}).
* ``type2`` -- (1-(alpha+1)R)/((alpha+1)(1-R)) with R = m1*m_a/m_{a+1},
               evaluated as 1 - (alpha/(alpha+1))/(1-R).

Methods (which sample moments are fed in):

* ``km``  -- product-limit weighted moments (estimate the index of X).
* ``l``   -- increment-weighted moments (same target).
* ``efg`` -- unweighted moments; the combination estimates the pooled
  index of Z = min(X, C), so the result is divided by the empirical
  uncensored tail proportion p_hat to point back at X.

``build_specs`` crosses families, methods and alphas into specs (``mom``
at the first alpha only), and ``_COMBINATIONS`` holds each family's
moment orders and combiner.  ``estimate`` evaluates every spec at every
k of a grid at once: the moments of all k come from one ``tail_moments``
pass, and the combiners act on whole arrays of moments.  Singular combinations
(zero moments, R = 1, V = 0, p_hat = 0) and a non-positive threshold
Z_(n-k), whose moments are NaN, yield a NaN value, which marks the
estimate degenerate, instead of raising, so large k-sweeps never abort.

Every method weights the log-excesses with non-negative weights of total
mass at most 1 (exactly 1 for l and efg, and for km when the top point is
uncensored).  By Cauchy-Schwarz m1^2 <= m2, m1*m_a <= m_{a+1} and
m_{a+1}^2 <= m_a*m_{a+2}, with equality only when all the weight sits on
one log-excess: k = 1, or one weighted point in the tail.  That is the
pole of every family (mom: m1^2 = m2; type2: R = 1; type1:
1/V + alpha + 1 = 0).  Rounding leaves such a ratio a few units of
roundoff away from 1 instead of at it, so each combiner treats its ratio
within ``_POLE_TOL`` of 1 as the pole.  That band holds every ratio for
which 1 - m1^2/m2, 1 - R or 1/V + alpha + 1 rounds to 0 (products that
do not underflow), so no exact test of the pole stands beside it; V = 0, at the ratio
(alpha+1)/(alpha+2), is not a pole and keeps its own test.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, tail_uncensored_proportion
from .moments import _check_order, tail_moments

__all__ = [
    "Family",
    "Method",
    "EstimatorSpec",
    "EstimateRecord",
    "build_specs",
    "combine_moment",
    "combine_type1",
    "combine_type2",
    "estimate",
]

_NAN = float("nan")

# A one-point tail's moments are single products and quotients: the
# weight, the normaliser, the power, the product and the quotient each
# round at most once, so each ratio above lands within about 13 units of
# roundoff (u = 2**-53) of 1.  The powers are one chain of
# multiplications, L^(a+1) = L^a * L, whose shared roundings cancel in
# each ratio.  The km weight of the top point and the normaliser of k = 1
# are the same float (``moments._weights`` reads both from
# n*(1-Fhat) through the telescoping identity), so their quotient adds
# no error that grows with n: on 66 224 one-point ratios (alpha 1, 2, 2.5
# and 3, every family and method, n log-uniform from 5 to 2e5, 15 628 of
# them at n > 20 000) the largest distance from 1 was 6 units and the
# mean 0.4, and the closest tail with more than one weighted point stayed
# 8.9e3 units away.  With the weights taken from a separately summed
# float64 G-curve instead, 2 500 of 16 988 such ratios (400 samples) lay
# beyond 16 units, up to 360, and gave finite estimates of order 1e14.
_POLE_TOL = 16.0 * 2.0 ** -53


class Family(enum.Enum):
    MOMENT = "mom"
    TYPE1 = "type1"
    TYPE2 = "type2"


class Method(enum.Enum):
    KM = "km"
    LEURGANS = "l"
    EFG = "efg"


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator: combining family, weighting method, tuning alpha.

    alpha is ignored by the mom family (it always uses orders 1 and 2)
    but carried anyway so every estimator is addressed uniformly.
    """

    family: Family
    method: Method
    alpha: float = 2.0

    def __post_init__(self):
        _check_order(self.alpha)

    @property
    def label(self) -> str:
        return f"{self.family.value}/{self.method.value}"


def build_specs(families, methods, alphas) -> tuple[EstimatorSpec, ...]:
    """Families x methods x alphas in the order given, except that ``mom``,
    which ignores alpha, takes only the first alpha.  Every alpha is
    checked, mom's unused ones too."""
    for alpha in alphas:
        _check_order(alpha)
    return tuple(
        EstimatorSpec(family=f, method=m, alpha=float(a))
        for f in families for m in methods
        for a in (alphas if _reads_alpha(f) else alphas[:1])
    )


def _reads_alpha(family: Family) -> bool:
    """Whether a family's estimate depends on alpha: ``mom`` combines
    orders 1 and 2 whatever alpha is."""
    return family is not Family.MOMENT


def _rank(spec: EstimatorSpec) -> tuple[int, int, float]:
    """The sort key of every listing of estimators: family, then method,
    each in declaration order, then alpha."""
    return list(Family).index(spec.family), list(Method).index(spec.method), spec.alpha


@dataclass(frozen=True)
class EstimateRecord:
    k: int
    spec: EstimatorSpec
    value: float
    p_hat: float

    @property
    def degenerate(self) -> bool:
        return not math.isfinite(self.value)


def _at_bound(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs/rhs within _POLE_TOL of 1, for a ratio bounded above by 1."""
    return np.abs(rhs - lhs) <= _POLE_TOL * rhs


def combine_moment(m1, m2):
    """m1 + 1 - 0.5/(1 - m1^2/m2); NaN when m2 <= 0 or m1^2/m2 is within
    _POLE_TOL of 1.

    Like the other combiners it takes floats or arrays of moments and
    evaluates elementwise.
    """
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    with np.errstate(all="ignore"):
        m1_sq = m1 * m1
        value = m1 + 1.0 - 0.5 / (1.0 - m1_sq / m2)
        ok = (m2 > 0) & ~_at_bound(m1_sq, m2)
    return np.where(ok, value, _NAN)[()]


def combine_type1(m_a, m_a1, m_a2, alpha: float):
    """1/(1/V + alpha + 1) with V the scale-free triple ratio; NaN when a
    moment is not positive, V = 0 or m_{a+1}^2/(m_a*m_{a+2}) is within
    _POLE_TOL of 1, where 1/V + alpha + 1 = 0."""
    m_a, m_a1, m_a2 = (np.asarray(m, dtype=float) for m in (m_a, m_a1, m_a2))
    with np.errstate(all="ignore"):
        lhs, rhs = m_a1 * m_a1, m_a * m_a2
        v = 1.0 - (alpha + 2.0) / (alpha + 1.0) * lhs / rhs
        value = 1.0 / (1.0 / v + alpha + 1.0)
        ok = (m_a > 0) & (m_a2 > 0) & (v != 0.0) & ~_at_bound(lhs, rhs)
    return np.where(ok, value, _NAN)[()]


def combine_type2(m1, m_a, m_a1, alpha: float):
    """(1-(alpha+1)R)/((alpha+1)(1-R)) with R = m1*m_a/m_{a+1}; NaN when
    m_{a+1} <= 0 or R is within _POLE_TOL of 1.  Evaluated in the
    rearranged form 1 - (alpha/(alpha+1))/(1-R), which at alpha=1 is
    bit-identical to the mom-style expression."""
    m1, m_a, m_a1 = (np.asarray(m, dtype=float) for m in (m1, m_a, m_a1))
    with np.errstate(all="ignore"):
        lhs = m1 * m_a
        value = 1.0 - (alpha / (alpha + 1.0)) / (1.0 - lhs / m_a1)
        ok = (m_a1 > 0) & ~_at_bound(lhs, m_a1)
    return np.where(ok, value, _NAN)[()]


# Each family's moment orders at alpha, in its combiner's argument order,
# and its combiner of those moments and alpha.  Each row calls its combiner
# through the module's name, which perfbench/bench_trace.py rebinds to
# time it.
_COMBINATIONS = {
    Family.MOMENT: (lambda a: (1.0, 2.0), lambda m1, m2, a: combine_moment(m1, m2)),
    Family.TYPE1: (lambda a: (a, a + 1.0, a + 2.0), lambda *m: combine_type1(*m)),
    Family.TYPE2: (lambda a: (1.0, a, a + 1.0), lambda *m: combine_type2(*m)),
}


def estimate(s: CensoredSample, ks,
             specs: Sequence[EstimatorSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every estimator in ``specs`` on the top-k tails of a
    censored sample, for every k in ``ks``.

    Returns ``(p_hat, values)``: the uncensored tail proportion of each k,
    shape ``(len(ks),)``, and the estimates, shape
    ``(len(ks), len(specs))`` with one column per spec in spec order.  A
    value that is not finite is degenerate.  A batch sample ``(R, n)``
    gives shapes ``(R, len(ks))`` and ``(R, len(ks), len(specs))``, each
    row the bits of its sample on its own.

    All moments come from one ``tail_moments`` pass over the k-grid at
    the union of the specs' orders, which fits the sample's product-limit
    curve once.  The efg method combines the
    unweighted moments (which target the pooled index of Z) and divides
    by p_hat; km and l feed their weighted moments straight through.
    """
    p_hat = tail_uncensored_proportion(s, ks)
    orders = {order for spec in specs for order in _COMBINATIONS[spec.family][0](spec.alpha)}
    unweighted, km, l = tail_moments(s, ks, sorted(orders))
    by_method = {Method.KM: km, Method.LEURGANS: l, Method.EFG: unweighted}
    values = np.empty(p_hat.shape + (len(specs),))
    for j, spec in enumerate(specs):
        orders_at, combine = _COMBINATIONS[spec.family]
        moments = by_method[spec.method]
        value = combine(*(moments[order] for order in orders_at(spec.alpha)), spec.alpha)
        if spec.method is Method.EFG:
            with np.errstate(all="ignore"):
                value = np.where(p_hat > 0, value / p_hat, _NAN)
        values[..., j] = value
    return p_hat, values
