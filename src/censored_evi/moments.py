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
down (point 0 is the top).  An integer order p up to 16 takes each
observation's log once per block of 64, not once per k:

* Blocks.  Below the top point the sample is cut into blocks of 64 at
  fixed positions [1 + 64b, 1 + 64(b+1)); block b's threshold t_b is the
  point at 1 + 64(b+1), the threshold of k = 1 + 64(b+1).  Once per
  sample, the pass sums l^q and w * l^q over each block, l = log(Z/t_b),
  q = 0..p.
* Superblocks.  Every 64 blocks form a superblock of 4096 points, at
  fixed positions [1 + 4096s, 1 + 4096(s+1)); its threshold t_S is the
  point at 1 + 4096(s+1), which is also that of its last block.  Once
  per sample, each of its blocks' sums is shifted to t_S (see below) and
  the 64 are added up.
* Shift.  A k holds nb = (k-1)//64 full blocks: (k-1)//4096 superblocks
  and nb % 64 blocks after them.  Each is shifted once, straight to the
  k's threshold t_k, so a k shifts at most 63 blocks and k/4096
  superblocks.  With D = log(t_b/t_k) >= 0, taken as the log of the
  ratio (a difference of two logs would cancel), every L = l + D and sum
  of w (l + D)^p = sum over q of C(p,q) D^(p-q) sum of w l^q.  Every
  term is non-negative, so the shift loses no digits to cancellation.
  One routine, ``_shifted_sums``, makes all three kinds of shift: blocks
  to t_S, superblocks to t_k and blocks to t_k.
* Direct segment.  The top point and the points [1 + 64 nb, k) are read
  directly: the segments of a k-grid are laid end to end in one flat
  (ragged) array and each k's is summed with ``np.add.reduceat``.  The
  same pass reads whole tails for the other orders, which have no finite
  shift (non-integer p) or whose shift costs more than it saves (p > 16).

l's term L_1^p is read once per k from the top point alone, through
the same ``_powers`` chain, so it has the bits the direct pass gives the
top point of its segment.  The top point is never shifted, and in a tail
whose only weighted point is the top one the zero km weights add exact
zeros to the block sums and their shifts: its km and l sums are exactly
w_1 * L_1^p, as in a direct pass, and the pole band
``estimators._POLE_TOL`` holds as measured; the same holds through the
two shifts of a superblock.  A k <= 64 has no full block, so its moments
are those of a ragged pass over its whole tail, bit for bit; at k > 64
the shifted sums differ from such a pass in the last bits.  A k <= 4096
has no superblock, so its moments keep the bits of one shift per block.
Above 4096 a term of a superblock is shifted twice, each time rounded as
a sum of non-negative terms, and its L is a sum of three logs instead of
two.  Every k stays within the first-order bound that the tests derive
for these paths and check against a 40-digit oracle.

Block and superblock positions depend on k alone, and the sums of a
block, a superblock, a segment and a shift on their own terms, so a
moment does not depend on which other k share its pass, nor on which
other orders (order p takes p shift steps whatever the largest order).
A batch sample ``(R, n)`` lays the same blocks and segments out along
the last axis of its rows, so each row gets the bits of its sample
alone.  The direct pass cuts the grid into runs of k whose segments hold
at most ``max(largest segment, 2**13 // rows)`` terms per row, so an
array of it holds at most ``max(2**13, rows * largest k)`` terms however
long the grid; the block sums and the shifted pairs, cut likewise, hold
no more than twice that.  The Monte Carlo engine sizes its batches by a
constant of its own, ``montecarlo._BATCH_VALUES`` = 2**14: its
``max(1, 2**14 // n)`` rows keep ``rows * largest k`` below 2**14
whenever n is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .censoring import CensoredSample, checked_ks
from .kaplan_meier import fit

__all__ = ["tail_moments"]

# Cap on the number of tail terms one array of the pass holds, unless the
# batch's tails of its largest k alone hold more.
_CHUNK_TERMS = 2 ** 13

# Observations per block of the shifted pass: block b holds the points
# 1 + b*_BLOCK .. (b+1)*_BLOCK of the sample read from the largest down,
# the top point being point 0.
_BLOCK = 64

# The largest order the pass shifts.  Shifting costs about p**2 operations
# per (k, block) pair and holds p + 1 sums per pair, against about 64 p
# for reading the block's points directly, so higher integer orders, like
# non-integer ones, read whole tails.
_MAX_SHIFTED_ORDER = 16

# The most multiplications by the base that ``_powers`` spends on one order.
_LONGEST_CHAIN = 64


def _check_order(alpha: float) -> None:
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be >= 1 and finite, got {alpha}")


def _chunks(cost: np.ndarray, rows: int):
    """Consecutive runs of the k-grid, as slices, whose ks cost at most
    max(largest cost, _CHUNK_TERMS // rows) terms together per row, so a
    run of ``rows`` rows holds at most max(_CHUNK_TERMS, rows * largest
    cost)."""
    cap = max(int(cost.max(initial=0)), _CHUNK_TERMS // max(rows, 1))
    # A run from k ends before the first k whose running cost from there
    # exceeds cap; costs are non-negative, so the running total is sorted.
    total = np.cumsum(cost)
    stops = np.searchsorted(total, total - cost + cap, side="right").tolist()
    start = 0
    while start < len(stops):
        yield slice(start, stops[start])
        start = stops[start]


def _powers(base: np.ndarray, orders: Sequence[float]):
    """(order, base**order) for the orders in ascending order.

    Each order p up to _LONGEST_CHAIN + 1 is reached from q = p -
    floor(p - 1), in [1, 2), by floor(p - 1) multiplications by the base,
    L^(a+1) = L^a * L, so its bits do not depend on which other orders
    are requested.  The powers of one q share a buffer: each yielded
    array is overwritten when the next order is drawn.  A higher order,
    whose chain would be longer, is ``base ** p`` in one call, so an
    order costs at most _LONGEST_CHAIN multiplications however large.
    """
    chains: dict[float, tuple[float, np.ndarray]] = {}
    for p in sorted(set(orders)):
        if math.floor(p - 1.0) > _LONGEST_CHAIN:
            yield p, base ** p
            continue
        q = p - math.floor(p - 1.0)
        exponent, power = chains.get(q) or (q, base if q == 1.0 else base ** q)
        while exponent < p:
            exponent += 1.0
            power = power * base if power is base else np.multiply(power, base, out=power)
        chains[q] = (exponent, power)
        yield p, power


def _chunk_sums(top: np.ndarray, weight: np.ndarray, threshold: np.ndarray,
                kc: np.ndarray, lo: np.ndarray, orders: Sequence[float]):
    """For each order p, over the segment of every k in kc, the top point
    and the points lo..k-1 below it: the sum of L^p and the sum of
    w * L^p, each an array ``(rows, len(kc))``.

    ``top`` and ``weight`` are ``(rows, n)`` and run from the largest
    observation down, and ``threshold`` holds each row's threshold of
    each k (NaN when not positive).  The segments are laid end to end
    along the last axis and each one is summed with ``np.add.reduceat``.
    """
    spans = [span for k, l in zip(kc.tolist(), lo.tolist()) for span in ((0, 1), (l, k))]
    base = np.concatenate([top[:, i:j] for i, j in spans], axis=-1)
    base /= np.repeat(threshold, kc - lo + 1, axis=-1)
    np.log(base, out=base)
    w = np.concatenate([weight[:, i:j] for i, j in spans], axis=-1)
    starts = np.cumsum(kc - lo + 1) - (kc - lo + 1)
    weighted = np.empty_like(base)
    return {
        p: (np.add.reduceat(power, starts, axis=-1),
            np.add.reduceat(np.multiply(w, power, out=weighted), starts, axis=-1))
        for p, power in _powers(base, orders)
    }


def _block_sums(top: np.ndarray, weight: np.ndarray, count: int, p_max: int):
    """The sums of each full block below the top point, once per sample.

    Returns ``(sums, thresholds)``: ``sums[q, 0]`` and ``sums[q, 1]``,
    each ``(rows, count)``, hold the sums of l^q and of w * l^q over
    block b, q = 0..p_max, with l = log(Z/t_b) and t_b = top[1 +
    (b+1)*_BLOCK], the threshold of k = 1 + (b+1)*_BLOCK; ``thresholds``
    holds t_b, NaN when not positive.  A block's sums read its own points
    and threshold only.
    """
    rows = len(top)
    t = top[:, 1 + _BLOCK:2 + count * _BLOCK:_BLOCK]
    t = np.where(t > 0, t, np.nan)
    ell = top[:, 1:1 + count * _BLOCK].reshape(rows, count, _BLOCK) / t[..., None]
    np.log(ell, out=ell)
    w = weight[:, 1:1 + count * _BLOCK].reshape(rows, count, _BLOCK)
    sums = np.empty((p_max + 1, 2, rows, count))
    sums[0, 0], sums[0, 1] = _BLOCK, w.sum(axis=-1)
    weighted = np.empty_like(ell)
    for q, power in _powers(ell, range(1, p_max + 1)):
        sums[q, 0] = power.sum(axis=-1)
        sums[q, 1] = np.multiply(w, power, out=weighted).sum(axis=-1)
    return sums, t


def _shifted_sums(sums: np.ndarray, source_threshold: np.ndarray, first: np.ndarray,
                  count: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """For each target j, the sums of L^p (``[p, 0]``) and of w * L^p
    (``[p, 1]``), p = 0..p_max, over the source sums ``first[j]`` ..
    ``first[j] + count[j] - 1``, each shifted once to the target's
    threshold; an array ``(p_max + 1, 2, rows, len(count))``, 0 where
    ``count[j]`` is 0.

    ``sums`` is ``(p_max + 1, 2, rows, m)`` and holds the sums of l^q and
    of w * l^q of m sources, each about its own threshold in
    ``source_threshold`` ``(rows, m)``; ``threshold`` is ``(rows,
    len(count))``.  With D = log(t_source / t_target) >= 0, every L = l + D
    and

        sum of w (l + D)^p = sum over q <= p of C(p,q) D^(p-q) sum of w l^q.

    The binomial (Pascal) matrix is the product of p_max bidiagonal
    steps, step j = 1..p_max adding D times order p-1 to order p for
    every p >= j, so each order takes p multiply-adds of non-negative
    terms and its bits do not depend on p_max.  The (target, source)
    pairs are laid end to end and each target's are summed with
    ``np.add.reduceat``, in runs of the targets whose pairs hold at most
    max(largest cost, _CHUNK_TERMS // rows) plain sums, and as many
    weighted ones, per row; a pair costs its p_max + 1 orders.
    """
    p_max = len(sums) - 1
    out = np.zeros(sums.shape[:2] + threshold.shape)
    for chunk in _chunks(count * (p_max + 1), len(threshold)):
        pairs = count[chunk]
        spans = [slice(i, i + m) for i, m in zip(first[chunk].tolist(), pairs.tolist())]
        shift = np.concatenate([source_threshold[:, span] for span in spans], axis=-1)
        shift /= np.repeat(threshold[:, chunk], pairs, axis=-1)
        np.log(shift, out=shift)
        moments = np.concatenate([sums[..., span] for span in spans], axis=-1)
        step = np.empty_like(moments[0])
        for j in range(1, p_max + 1):
            for p in range(p_max, j - 1, -1):  # down, so order p-1 is the one before step j
                moments[p] += np.multiply(shift, moments[p - 1], out=step)
        has = np.flatnonzero(pairs) + chunk.start
        out[..., has] = np.add.reduceat(moments, (np.cumsum(pairs) - pairs)[pairs > 0], axis=-1)
    return out


def _shifted_blocks(top: np.ndarray, weight: np.ndarray, threshold: np.ndarray,
                    blocks: np.ndarray, p_max: int) -> np.ndarray:
    """Over the first ``blocks[j]`` full blocks of each k of the grid: the
    sums of L^p and of w * L^p, p = 0..p_max, as ``_shifted_sums`` gives
    them, 0 where a k has no full block.

    Every _BLOCK blocks from the first form a superblock, whose threshold
    is that of its last block; its blocks are shifted to it once per
    sample.  A k then shifts its (blocks // _BLOCK) superblocks and its
    (blocks % _BLOCK) other blocks, each once, to its threshold, and adds
    the two.
    """
    sums, t = _block_sums(top, weight, int(blocks.max(initial=0)), p_max)
    supers = blocks // _BLOCK
    out = _shifted_sums(sums, t, supers * _BLOCK, blocks % _BLOCK, threshold)
    if supers.any():
        first = np.arange(0, int(supers.max()) * _BLOCK, _BLOCK)
        t_super = t[:, first + _BLOCK - 1]
        super_sums = _shifted_sums(sums, t, first, np.full_like(first, _BLOCK), t_super)
        out += _shifted_sums(super_sums, t_super, np.zeros_like(supers), supers, threshold)
    return out


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


# Infinite observations (inf/inf, 0 * inf) and powers beyond the float
# range give NaN and inf moments, which the combiners mark degenerate;
# they raise no warning, as a non-positive threshold's NaN does not.
@np.errstate(invalid="ignore", over="ignore")
def tail_moments(
    s: CensoredSample, ks, orders: Sequence[float]
) -> tuple[dict[float, np.ndarray], dict[float, np.ndarray], dict[float, np.ndarray]]:
    """Unweighted, km and l moments of the top-k tail for every k in
    ``ks`` and every order in ``orders``.

    Returns three dicts ``(unweighted, km, l)``, each mapping an order to
    the array of its moments: shape ``(len(ks),)`` for one sample and
    ``(R, len(ks))`` for a batch.  The moments at a k whose threshold
    Z_(n-k) is not positive are NaN, and those of a tail that holds an
    infinite observation are not finite.  The weights come from the
    product-limit F-curve of ``s``, fitted here.
    """
    ks = checked_ks(ks, s.n)
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
    # The integer orders up to _MAX_SHIFTED_ORDER shift each k's full
    # blocks and read the top point and the points lo..k-1 directly; the
    # other orders read whole tails.
    shifted = {p for p in orders if p <= _MAX_SHIFTED_ORDER and not p % 1}
    whole = [p for p in orders if p not in shifted]
    blocks = (ks - 1) // _BLOCK if shifted else np.zeros_like(ks)
    lo = 1 + blocks * _BLOCK
    unweighted, km = ({p: np.empty((len(top), len(ks))) for p in orders} for _ in range(2))
    for group, start in ((whole, np.ones_like(ks)), (shifted, lo)):
        if not group:
            continue
        for chunk in _chunks(ks - start + 1, len(top)):
            sums = _chunk_sums(top, weight, threshold[:, chunk], ks[chunk], start[chunk], group)
            for p, (total, weighted_total) in sums.items():
                unweighted[p][:, chunk], km[p][:, chunk] = total, weighted_total
    if blocks.any():
        shift = _shifted_blocks(top, weight, threshold, blocks, int(max(shifted)))
        for p in shifted:
            unweighted[p] += shift[int(p), 0]
            km[p] += shift[int(p), 1]
    for p in unweighted:
        unweighted[p] /= ks
        km[p] /= norm
    # l's term L_1^p of each k, through the chain the direct pass takes.
    top_censored = 1 - s.delta.reshape(-1, n)[:, n - 1:]
    l = {p: km[p] + top_censored * power / top_norm
         for p, power in _powers(np.log(top[:, :1] / threshold), orders)}
    shape = s.z.shape[:-1] + ks.shape
    return tuple({p: moments[p].reshape(shape) for p in unweighted}
                 for moments in (unweighted, km, l))
