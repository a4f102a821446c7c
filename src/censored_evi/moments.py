"""Tail log-moments of a censored sample.

For threshold Z_(n-k) and order alpha >= 1 the building block is the
vector of powered log-excesses  L_i = log^alpha(Z_(n-i+1)/Z_(n-k)),
i = 1..k.  ``tail_moments`` forms three sample moments from it, for a
whole grid of k and every requested order in one pass:

* unweighted: plain mean of the L_i (ignores censoring).
* km: each L_i weighted by delta_(n-i+1)/(1-Ghat(Z_(n-i+1)^-)),
  normalized by N = n*(1-Fhat(Z_(n-k))); the weights are read from the
  F-curve alone through the telescoping identity (see ``_weights``).
* l: Leurgans' increment weighting, defined by the exact identity

      m_l = m_km + (1 - delta_(n)) * L_1 / (N * (1-Ghat(Z_(n)^-))),

  so it differs from km only through a censored top observation.  The
  increment form it equals, sum of i*(L_i - L_{i+1})/(1-Ghat(Z_(n-i+1)^-))
  over N, is kept as the naive reference the tests check it against.

Every top-k tail is a prefix of the sample read from the largest value
down, so the tails of a k-grid are laid end to end in one flat (ragged)
array and each k's segment is summed with ``np.add.reduceat``.  A
segment's sum depends on its own terms only, so a moment does not depend
on which other k share its pass.  A batch sample ``(R, n)`` lays the
same segments out along the last axis of its rows and sums them
with ``np.add.reduceat(..., axis=-1)``, which sums each row's segment as
the one-sample pass does.  The grid is cut into runs of k whose tails
hold at most ``max(largest k, 2**13 // rows)`` terms per row, so an array
of the pass holds at most ``max(2**13, rows * largest k)`` terms however
long the grid; the second bound is never more than the sample itself
holds, and a run of one k reads its tails as a view of the sample.  The
Monte Carlo engine's batches of ``max(1, 2**13 // n)`` rows keep
``rows * largest k`` below 2**13 whenever n is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .censoring import CensoredSample, checked_ks
from .kaplan_meier import fit

__all__ = ["tail_moments"]

# Cap on the number of tail terms one array of the pass holds, unless the
# batch's tails of its largest k alone hold more; the Monte Carlo engine
# also sizes its batches of samples by it.
_CHUNK_TERMS = 2 ** 13


def _check_order(alpha: float) -> None:
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be >= 1 and finite, got {alpha}")


def _chunks(ks: np.ndarray, rows: int):
    """Consecutive runs of ks, as slices, whose tails hold at most
    max(largest k, _CHUNK_TERMS // rows) terms together per row, so a run
    of ``rows`` rows holds at most max(_CHUNK_TERMS, rows * largest k)."""
    cap = max(int(ks.max(initial=0)), _CHUNK_TERMS // max(rows, 1))
    start, total = 0, 0
    for i, k in enumerate(ks.tolist()):
        if total + k > cap:
            yield slice(start, i)
            start, total = i, 0
        total += k
    if start < len(ks):
        yield slice(start, len(ks))


def _powers(base: np.ndarray, orders: Sequence[float]):
    """(order, base**order) for the orders in ascending order.

    Each order p is reached from q = p - floor(p - 1), in [1, 2), by
    floor(p - 1) multiplications by the base, L^(a+1) = L^a * L, so its
    bits do not depend on which other orders are requested.  The powers
    of one q share a buffer: each yielded array is overwritten when the
    next order is drawn.
    """
    chains: dict[float, tuple[float, np.ndarray]] = {}
    for p in sorted(set(orders)):
        q = p - math.floor(p - 1.0)
        exponent, power = chains.get(q) or (q, base if q == 1.0 else base ** q)
        while exponent < p:
            exponent += 1.0
            power = power * base if power is base else np.multiply(power, base, out=power)
        chains[q] = (exponent, power)
        yield p, power


def _chunk_sums(top: np.ndarray, weight: np.ndarray, threshold: np.ndarray,
                kc: np.ndarray, orders: Sequence[float]):
    """For each order p, over the top-k tail of every k in kc: the sum of
    L^p, the sum of w * L^p and the first term L_1^p, each an array
    ``(rows, len(kc))``.

    ``top`` and ``weight`` are ``(rows, n)`` and run from the largest
    observation down, and ``threshold`` holds each row's threshold of
    each k (NaN when not positive).  The tails are laid end to end along
    the last axis and each k's segment is summed with
    ``np.add.reduceat``; a single k reads its tails as a view of ``top``.
    """
    if len(kc) == 1:
        k = int(kc[0])
        base, w = top[:, :k] / threshold, weight[:, :k]
    else:
        base = np.concatenate([top[:, :k] for k in kc.tolist()], axis=-1)
        base /= np.repeat(threshold, kc, axis=-1)
        w = np.concatenate([weight[:, :k] for k in kc.tolist()], axis=-1)
    np.log(base, out=base)
    starts = np.cumsum(kc) - kc
    weighted = np.empty_like(base)
    return {
        p: (np.add.reduceat(power, starts, axis=-1),
            np.add.reduceat(np.multiply(w, power, out=weighted), starts, axis=-1),
            power[:, starts])
        for p, power in _powers(base, orders)
    }


def _weights(s: CensoredSample, ks: np.ndarray):
    """From the F-curve of ``s``, fitted here, one row per sample: the km
    weight delta/(1-Ghat(Z^-)) of each observation from the largest down,
    the normaliser N = n*(1-Fhat(Z_(n-k))) of each k, and
    N*(1-Ghat(Z_(n)^-)), the normaliser of l's top term.

    The G-curve enters only through the telescoping identity
    (1-Fhat(Z_(i)))*(1-Ghat(Z_(i))) = (n-i)/n, read at Z_(i-1):

        1/(1-Ghat(Z_(i)^-)) = n*(1-Fhat(Z_(i-1)))/(n-i+1),  and 1 at i = 1.

    So every weight and every normaliser comes from one array,
    n*(1-Fhat), and at i = n the divisor is 1: the top weight is the very
    float that normalises k = 1, and l's top normaliser at k = 1 is
    exactly 1.  A one-point tail's weighted moment is then its power times
    w and divided by the same w, so its pole ratios stay within a few
    roundings of 1 at any n.
    """
    n = s.n
    scaled = n * fit(s).reshape(-1, n)
    inv_g = np.empty_like(scaled)
    inv_g[:, 0] = 1.0
    np.divide(scaled[:, :-1], n - np.arange(1, n), out=inv_g[:, 1:])
    weight = s.delta.reshape(-1, n)[:, ::-1] * inv_g[:, ::-1]
    norm = scaled[:, n - ks - 1]
    return weight, norm, norm / inv_g[:, n - 1:]


def tail_moments(
    s: CensoredSample, ks, orders: Sequence[float]
) -> tuple[dict[float, np.ndarray], dict[float, np.ndarray], dict[float, np.ndarray]]:
    """Unweighted, km and l moments of the top-k tail for every k in
    ``ks`` and every order in ``orders``.

    Returns three dicts ``(unweighted, km, l)``, each mapping an order to
    the array of its moments: shape ``(len(ks),)`` for one sample and
    ``(R, len(ks))`` for a batch.  The moments at a k whose threshold
    Z_(n-k) is not positive are NaN.  The weights come from the
    product-limit F-curve of ``s``, fitted here.
    """
    ks = checked_ks(s, ks)
    if ks.ndim != 1:
        raise ValueError(f"ks must be one-dimensional, got shape {ks.shape}")
    for alpha in orders:
        _check_order(alpha)
    n = s.n
    weight, norm, top_norm = _weights(s, ks)
    # Rows of the batch, largest first: the top-k tail is top[:, :k], its
    # threshold top[:, k].
    top = s.z.reshape(-1, n)[:, ::-1]
    # A NaN threshold turns every term of its tail into NaN, silently.
    threshold = np.where(top[:, ks] > 0, top[:, ks], np.nan)
    unweighted, km, first = ({p: np.empty((len(top), len(ks))) for p in orders}
                             for _ in range(3))
    for chunk in _chunks(ks, len(top)):
        sums = _chunk_sums(top, weight, threshold[:, chunk], ks[chunk], orders)
        for p, (total, weighted_total, head) in sums.items():
            unweighted[p][:, chunk], km[p][:, chunk], first[p][:, chunk] = (
                total, weighted_total, head)
    top_censored = 1 - s.delta.reshape(-1, n)[:, n - 1:]
    l = {}
    for p in unweighted:
        unweighted[p] /= ks
        km[p] /= norm
        l[p] = km[p] + top_censored * first[p] / top_norm
    shape = s.z.shape[:-1] + ks.shape
    return tuple({p: m.reshape(shape) for p, m in moments.items()}
                 for moments in (unweighted, km, l))
