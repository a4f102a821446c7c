"""Censored samples.

Observation model: instead of the variable of interest X one records
Z = min(X, C) together with the indicator delta = 1 when X <= C (the
observation is uncensored).  A ``CensoredSample`` keeps the order
statistics Z_(1) <= ... <= Z_(n) and their concomitant indicators.

``tail_uncensored_proportion`` is the fraction of uncensored
observations among the top k (mean of the top-k indicators, for a whole
grid of k at once).

A sample is one row ``(n,)`` or a batch of independent rows ``(R, n)``;
every function here acts along the last axis, so a batch row gives the
same bits as the same sample on its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CensoredSample",
    "make_censored",
    "from_observations",
    "tail_uncensored_proportion",
]


@dataclass(frozen=True)
class CensoredSample:
    """Sorted censored observations with concomitant indicators.

    ``z`` is ascending along its last axis, ``delta`` is aligned with it
    (delta[..., i] = 1 when z[..., i] came from an uncensored observation),
    both read-only arrays of shape ``(n,)`` for one sample or ``(R, n)``
    for a batch of R samples, with ``n >= 2``.
    """

    z: np.ndarray
    delta: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[-1]


def _sort_with_tiebreak(z: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ties are a null event for continuous data; if they occur anyway,
    # uncensored observations are placed first (events before censorings).
    # Without a tie the sorting permutation is unique, so sorting by z
    # alone gives the bits the tie-breaking sort would.  Each row's
    # permutation is shifted by the row's start, so one flat np.take
    # gathers every row.
    offset = np.arange(0, z.size, z.shape[-1]).reshape(z.shape[:-1] + (1,))
    order = np.argsort(z, axis=-1)
    order += offset
    z_sorted = np.take(z, order)
    if np.any(z_sorted[..., 1:] == z_sorted[..., :-1]):
        warnings.warn("tied observation values; uncensored ordered first", stacklevel=3)
        order = np.lexsort((delta == 0, z), axis=-1)
        order += offset
        z_sorted = np.take(z, order)
    return z_sorted, np.take(delta, order)


def _freeze(z: np.ndarray, delta: np.ndarray) -> CensoredSample:
    z = np.ascontiguousarray(z, dtype=float)
    delta = np.ascontiguousarray(delta, dtype=np.int64)
    z.flags.writeable = False
    delta.flags.writeable = False
    return CensoredSample(z=z, delta=delta)


def make_censored(x, c, *, require_positive: bool = True) -> CensoredSample:
    """Build the censored sample z_i = min(x_i, c_i), delta_i = 1_{x_i <= c_i}.

    Args:
        x: observations of interest, shape ``(n,)`` for one sample or
            ``(R, n)`` for a batch of R samples.
        c: censoring values, same shape as x.
        require_positive: reject non-positive entries (the default).  The
            simulation engine passes False because endpoint-x* families can
            put mass below zero; only the top order statistics ever enter a
            tail formula and the threshold positivity is re-checked there.
            NaN is rejected either way; -inf and +inf are kept, as values
            a sampler may produce.

    Returns:
        CensoredSample of x's shape, each row sorted ascending with the
        uncensored-first tie rule.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.ndim not in (1, 2) or x.shape != c.shape:
        raise ValueError("x and c must be one- or two-dimensional and of equal shape")
    if x.shape[-1] < 2:
        raise ValueError("need at least 2 observations")
    if np.isnan(x).any() or np.isnan(c).any():
        raise ValueError("observations must not be NaN")
    if require_positive and (np.any(x <= 0) or np.any(c <= 0)):
        raise ValueError("all observations must be strictly positive")
    return _freeze(*_sort_with_tiebreak(np.minimum(x, c), x <= c))


def from_observations(z, delta) -> CensoredSample:
    """Build a sample from already-censored pairs (z_i, delta_i).

    Used for data ingestion: validates delta in {0,1} and that every z is
    finite and positive, then sorts with the same tie rule as make_censored.
    """
    z = np.asarray(z, dtype=float)
    delta = np.asarray(delta)
    if z.ndim != 1 or delta.ndim != 1 or len(z) != len(delta):
        raise ValueError("z and delta must be one-dimensional and of equal length")
    if len(z) < 2:
        raise ValueError("need at least 2 observations")
    if not np.all((z > 0) & (z < np.inf)):
        raise ValueError("all z must be finite and strictly positive")
    if not np.all(np.isin(delta, (0, 1))):
        raise ValueError("delta entries must be 0 or 1")
    return _freeze(*_sort_with_tiebreak(z, delta.astype(np.int64)))


def checked_ks(ks, n: int) -> np.ndarray:
    """``ks`` (one k or a sequence of them) as an integer array, each k
    checked against 1 <= k < n: the one check of that rule."""
    if isinstance(ks, range) and ks:  # its ends, before a long range becomes an array
        checked_ks([ks[0], ks[-1]], n)
    ks = np.asarray(ks)
    if ks.size and ks.dtype.kind not in "iu":
        raise ValueError(f"k must be an integer, got {ks.dtype} values")
    ks = ks.astype(np.intp)
    bad = (ks < 1) | (ks >= n)
    if bad.any():
        raise ValueError(f"every k must satisfy 1 <= k < n, got k={ks[bad].flat[0]}, n={n}")
    return ks


def tail_uncensored_proportion(s: CensoredSample, ks):
    """Fraction of uncensored observations among the top k: mean of the
    concomitant indicators of Z_(n), ..., Z_(n-k+1).

    ``ks`` is one k or an array of them; every k reads the same running
    count of uncensored observations from the top, and the result has
    the shape of ``ks``, after the batch axis of a batch sample.
    """
    ks = checked_ks(ks, s.n)
    return np.cumsum(s.delta[..., ::-1], axis=-1)[..., ks - 1] / ks
