"""Parametric families with a finite right endpoint and known tail index.

Three families are provided, all in the short-tailed (negative extreme
value index) regime:

* ``ReverseBurr(beta, tau, lam, xstar)`` -- survival
  ``(1 + (xstar - x)^(-tau) / beta)^(-lam)`` below ``xstar``, index
  ``-1/(lam*tau)``.
* ``GPD(gamma, sigma)`` -- generalized Pareto with ``gamma < 0``, survival
  ``(1 + gamma*x/sigma)^(-1/gamma)`` on ``[0, sigma/|gamma|]``.
* ``BetaDist(a, b)`` -- Beta law on ``[0, 1]``, index ``-1/b``.

Every family exposes ``quantile``, ``sample``, ``theoretical_evi`` and
``endpoint``.  The survival functions above are the tests' reference
(``tests/theory.py``), not part of the library.  ``quantile`` takes any
probability in [0, 1] and is exact at both ends: u = 0 gives the lower
end of the support (-inf for ReverseBurr, 0 for GPD and BetaDist) and
u = 1 the endpoint.  ``sample`` is the quantile of ``Generator.random``
draws on [0, 1), so draws are reproducible from the generator state
alone.  Specs are immutable and hashable; ``parse_distribution`` /
``distribution_literal`` convert to and from the textual form used in
config files, e.g. ``revburr(1,1,1,10)``, ``gpd(-0.5,1)``, ``beta(2,4)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

__all__ = [
    "ReverseBurr",
    "GPD",
    "BetaDist",
    "DistributionSpec",
    "parse_distribution",
    "distribution_literal",
]


def _scalar_or_array(x: np.ndarray) -> Union[float, np.ndarray]:
    return float(x) if x.ndim == 0 else x


def _check_unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all((0.0 <= u) & (u <= 1.0)):  # NaN fails both
        raise ValueError("quantile argument must lie in [0, 1]")
    return u


def _one_minus(u) -> np.ndarray:
    """``1 - u`` for a checked ``u``, in a fresh array of its shape (0-d
    for a scalar), which a quantile then maps in place."""
    u = _check_unit(u)
    return np.subtract(1.0, u, out=np.empty(u.shape))


class _Law:
    """What every family shares: finite parameters, and draws through its
    own quantile."""

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{type(self).__name__} requires finite parameters, "
                                 f"got {field.name}={value!r}")
        self._check()

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        return self.quantile(rng.random(n))


@dataclass(frozen=True)
class ReverseBurr(_Law):
    """Reverse Burr law: P(X > x) = (1 + (xstar - x)^(-tau)/beta)^(-lam)."""

    beta: float
    tau: float
    lam: float
    xstar: float

    def _check(self):
        if not (self.beta > 0 and self.tau > 0 and self.lam > 0):
            raise ValueError("ReverseBurr requires beta, tau, lam > 0")

    @property
    def endpoint(self) -> float:
        return self.xstar

    def theoretical_evi(self) -> float:
        return -1.0 / (self.lam * self.tau)

    def quantile(self, u) -> Union[float, np.ndarray]:
        # xstar - (beta * ((1 - u) ** (-1/lam) - 1)) ** (-1/tau), step by step in one array
        out = _one_minus(u)
        with np.errstate(divide="ignore"):  # 0 ** negative at u = 0 and u = 1
            np.power(out, -1.0 / self.lam, out=out)
            out -= 1.0
            out *= self.beta
            np.power(out, -1.0 / self.tau, out=out)
        return _scalar_or_array(np.subtract(self.xstar, out, out=out))


@dataclass(frozen=True)
class GPD(_Law):
    """Generalized Pareto with strictly negative shape (finite endpoint)."""

    gamma: float
    sigma: float

    def _check(self):
        if not self.gamma < 0:
            raise ValueError("GPD requires gamma < 0 (short-tailed regime only)")
        if not self.sigma > 0:
            raise ValueError("GPD requires sigma > 0")

    @property
    def endpoint(self) -> float:
        return self.sigma / abs(self.gamma)

    def theoretical_evi(self) -> float:
        return self.gamma

    def quantile(self, u) -> Union[float, np.ndarray]:
        # sigma * ((1 - u) ** (-gamma) - 1) / gamma, step by step in one array
        out = _one_minus(u)
        np.power(out, -self.gamma, out=out)
        out -= 1.0
        out *= self.sigma
        out /= self.gamma
        return _scalar_or_array(out)


@dataclass(frozen=True)
class BetaDist(_Law):
    """Beta(a, b) law on [0, 1]; right-tail index -1/b."""

    a: float
    b: float

    def _check(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("BetaDist requires a, b > 0")

    @property
    def endpoint(self) -> float:
        return 1.0

    def theoretical_evi(self) -> float:
        return -1.0 / self.b

    def quantile(self, u) -> Union[float, np.ndarray]:
        from scipy.special import betaincinv

        u = _check_unit(u)
        return _scalar_or_array(betaincinv(self.a, self.b, u))


DistributionSpec = Union[ReverseBurr, GPD, BetaDist]

_LITERAL_RE = re.compile(r"^\s*([a-z]+)\s*\(([^()]*)\)\s*$")

# The name of each family in a literal; its parameters are the
# dataclass fields, in order.
_FAMILIES = {"revburr": ReverseBurr, "gpd": GPD, "beta": BetaDist}


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


def _decimal(text: str, kind=float):
    """``kind(text)`` for ASCII text without '_': the one reader of numbers
    in text (config values, literal parameters, flags, CSV fields).
    ``float`` and ``int`` alone also read digit separators (``1_5``) and
    non-ASCII digits (``２``), which are not plain decimals."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain decimal: {text!r}")
    return kind(text)


def _common_endpoint(fx: DistributionSpec, gc: DistributionSpec) -> float:
    """The right endpoint that X and C share.  They must agree within a
    relative 1e-12, a rule that does not depend on the endpoint's scale;
    otherwise ValueError."""
    ex, ec = fx.endpoint, gc.endpoint
    if not math.isclose(ex, ec, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(f"endpoint mismatch: {ex!r} vs {ec!r} (common endpoint required)")
    return ex


def parse_distribution(text: str) -> DistributionSpec:
    """Parse a distribution literal such as ``revburr(1,1,1,10)``.

    Raises ValueError with a descriptive message on unknown names, wrong
    argument counts, non-numeric arguments or invalid parameters.
    """
    m = _LITERAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed distribution literal: {text!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in _FAMILIES:
        raise ValueError(f"unknown distribution {name!r} (expected one of {', '.join(_FAMILIES)})")
    arity = len(fields(_FAMILIES[name]))
    parts = [p.strip() for p in argtext.split(",")] if argtext.strip() else []
    if len(parts) != arity:
        raise ValueError(f"{name} takes {arity} parameters, got {len(parts)} in {text!r}")
    try:
        args = [_decimal(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"non-numeric parameter in {text!r}: {exc}") from None
    return _FAMILIES[name](*args)


def distribution_literal(spec: DistributionSpec) -> str:
    """Inverse of parse_distribution (lossless float round-trip)."""
    for name, cls in _FAMILIES.items():
        if isinstance(spec, cls):
            return f"{name}({','.join(_fmt(getattr(spec, f.name)) for f in fields(cls))})"
    raise ValueError(f"not a distribution spec: {spec!r}")
