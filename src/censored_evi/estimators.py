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

Singular combinations (zero moments, R = 1, V = 0, p_hat = 0) and a
non-positive threshold Z_(n-k), whose moments are NaN, yield a record
flagged degenerate with a NaN value instead of raising, so large k-sweeps
never abort.

Every method weights the log-excesses with non-negative weights of total
mass at most 1 (exactly 1 for l and efg, and for km when the top point is
uncensored).  By Cauchy-Schwarz m1^2 <= m2, m1*m_a <= m_{a+1} and
m_{a+1}^2 <= m_a*m_{a+2}, with equality only when all the weight sits on
one log-excess: k = 1, or one weighted point in the tail.  That is the
pole of every family (mom: m1^2 = m2; type2: R = 1; type1:
1/V + alpha + 1 = 0).  Rounding leaves such a ratio a few units of
roundoff away from 1 instead of at it, so ``estimate`` treats a ratio
within ``_POLE_TOL`` of 1 as the pole.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .censoring import CensoredSample, tail_uncensored_proportion
from .kaplan_meier import KaplanMeierCurves
from .moments import tail_moments

__all__ = [
    "Family",
    "Method",
    "EstimatorSpec",
    "EstimateRecord",
    "combine_moment",
    "combine_type1",
    "combine_type2",
    "estimate",
]

_NAN = float("nan")

# A one-point tail's moments are single products and quotients: the
# curve value, its reciprocal, the normaliser, the power, the product and
# the quotient each round once, so each ratio above lands within about
# 13 units of roundoff (2**-53) of 1.  On 3642 one-point tails of random
# samples (n from 5 to 20000) the largest distance was 9 units; no other
# tail came within 1e10 units.
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
        if not self.alpha >= 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")

    @property
    def label(self) -> str:
        return f"{self.family.value}/{self.method.value}"


@dataclass(frozen=True)
class EstimateRecord:
    k: int
    spec: EstimatorSpec
    value: float
    p_hat: float
    degenerate: bool


def combine_moment(m1: float, m2: float) -> float:
    """m1 + 1 - 0.5/(1 - m1^2/m2); NaN when m2 <= 0 or m1^2 = m2."""
    if not m2 > 0:
        return _NAN
    den = 1.0 - m1 * m1 / m2
    if den == 0.0:
        return _NAN
    return m1 + 1.0 - 0.5 / den


def combine_type1(m_a: float, m_a1: float, m_a2: float, alpha: float) -> float:
    """1/(1/V + alpha + 1) with V the scale-free triple ratio; NaN on any
    zero denominator."""
    if not (m_a > 0 and m_a2 > 0):
        return _NAN
    v = 1.0 - (alpha + 2.0) / (alpha + 1.0) * (m_a1 * m_a1) / (m_a * m_a2)
    if v == 0.0:
        return _NAN
    den = 1.0 / v + alpha + 1.0
    if den == 0.0:
        return _NAN
    return 1.0 / den


def combine_type2(m1: float, m_a: float, m_a1: float, alpha: float) -> float:
    """(1-(alpha+1)R)/((alpha+1)(1-R)) with R = m1*m_a/m_{a+1}; NaN when
    R = 1.  Evaluated in the rearranged form 1 - (alpha/(alpha+1))/(1-R),
    which at alpha=1 is bit-identical to the mom-style expression."""
    if not m_a1 > 0:
        return _NAN
    r = m1 * m_a / m_a1
    if r == 1.0:
        return _NAN
    return 1.0 - (alpha / (alpha + 1.0)) / (1.0 - r)


def _at_bound(lhs: float, rhs: float) -> bool:
    """lhs/rhs within _POLE_TOL of 1, for a ratio bounded above by 1."""
    return abs(rhs - lhs) <= _POLE_TOL * rhs


def _orders(spec: EstimatorSpec) -> tuple[float, ...]:
    """Moment orders the spec's family combines, in combiner argument order."""
    a = spec.alpha
    if spec.family is Family.MOMENT:
        return (1.0, 2.0)
    if spec.family is Family.TYPE1:
        return (a, a + 1.0, a + 2.0)
    return (1.0, a, a + 1.0)


def _combine(spec: EstimatorSpec, moments: dict[float, float]) -> float:
    ms = [moments[order] for order in _orders(spec)]
    if spec.family is Family.MOMENT:
        m1, m2 = ms
        return _NAN if _at_bound(m1 * m1, m2) else combine_moment(m1, m2)
    if spec.family is Family.TYPE1:
        m_a, m_a1, m_a2 = ms
        if _at_bound(m_a1 * m_a1, m_a * m_a2):
            return _NAN
        return combine_type1(m_a, m_a1, m_a2, spec.alpha)
    m1, m_a, m_a1 = ms
    return _NAN if _at_bound(m1 * m_a, m_a1) else combine_type2(m1, m_a, m_a1, spec.alpha)


def estimate(s: CensoredSample, k: int, specs: Sequence[EstimatorSpec],
             curves: KaplanMeierCurves) -> list[EstimateRecord]:
    """Evaluate every estimator in ``specs`` on the top-k tail of a
    censored sample; one record per spec, in spec order.

    All moments come from one ``tail_moments`` pass at the union of the
    specs' orders.  The efg method combines the unweighted moments (which
    target the pooled index of Z) and divides by p_hat; km and l feed
    their weighted moments straight through.  Non-finite outcomes are
    flagged.
    """
    p_hat = tail_uncensored_proportion(s, k)
    orders = sorted({order for spec in specs for order in _orders(spec)})
    unweighted, km, l = tail_moments(s, k, orders, curves)
    by_method = {Method.KM: km, Method.LEURGANS: l, Method.EFG: unweighted}
    records = []
    for spec in specs:
        value = _combine(spec, by_method[spec.method])
        if spec.method is Method.EFG:
            value = value / p_hat if p_hat > 0 else _NAN
        records.append(EstimateRecord(
            k=k, spec=spec, value=value, p_hat=p_hat,
            degenerate=not math.isfinite(value),
        ))
    return records
