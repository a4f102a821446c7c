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
  superblocks.  With D = log(t_b/t_k) >= 0, every L = l + D and sum
  of w (l + D)^p = sum over q of C(p,q) D^(p-q) sum of w l^q.  Every
  term is non-negative, so the shift loses no digits to cancellation.
  One routine, ``_shifted_sums``, makes all three kinds of shift: blocks
  to t_S, superblocks to t_k and blocks to t_k.
* Direct segment.  The top point and the points [1 + 64 nb, k) are read
  directly: one flat index, built by ``_runs`` from ``np.repeat`` and
  ``np.arange`` with no Python loop over the ks, gathers the segments of
  a k-grid end to end into one (ragged) array, and each k's is summed
  with ``np.add.reduceat``.  The shifted (target, source) pairs are
  gathered the same way, and one routine, ``_ragged_log_excess``, forms
  the log-excesses of both ragged arrays: it gathers the numerators and
  each entry's threshold, then divides and takes the log.  The same pass
  reads whole tails for the other orders, which have no finite shift
  (non-integer p) or whose shift costs more than it saves (p > 16).

``_log_excess`` is the one place the pass forms a log-excess, whether a
segment's L, a block's l, a shift's D or l's top term: each is the log of
a ratio, log(a/b), the division first and then the log, never a
difference of two logs, which would cancel.

Every array of the pass stacks all its orders on a leading axis, so a
ufunc call serves every order at once.  ``_powers`` writes each order's
chain of multiplications into its slot of one stacked array; the
direct pass sums it with one ``np.add.reduceat``, weights it in place
and sums it with one more, and the blocks likewise with two sums.  A
shift's Pascal step j is one multiplication and one addition over the
orders j..p_max, ``moments[j:] += D * moments[j-1:-1]`` with the right
side read before the step, so every sum sees the two roundings of the
order-by-order loop it replaced.  ``tail_moments`` keeps each kind of
moment as one array ``(len(orders), rows, len(ks))`` and returns views
of it.

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
alone.

Memory.  The pass cuts the k-grid into runs, and the shifted pairs and
the blocks likewise, each entry costing the floats it adds to the
largest array of its run: a k of the direct pass costs len(orders)
floats per point of its segment (its stacked powers), a shifted pair
2 (p_max + 1) (its gathered sums) and a block p_max * 64 (its stacked
powers).  A run holds at most max(largest cost, 2**16 // rows) floats
of them per row, so every array of a run holds at most F = max(2**16,
rows * largest cost) floats, 512 KiB unless one k needs more, however
long the grid, and a run holds at most eight such arrays at once.
A run writes its large temporaries into four scratch buffers of its
thread (``_SCRATCH``): the gathered terms, the gathered weights, the
stacked powers or gathered sums, and the Pascal step.  Each grows to the
largest run it has served and is kept until the thread ends, so a thread
holds at most four arrays of F floats between passes (2 MiB at F =
2**16), and each pool worker a set of its own.  A pass then faults in no
fresh pages for a run no larger than one before it.  A ragged run's
per-entry thresholds are a fresh array, freed before the next run, which
gets the same memory back from the allocator: a loop of figure-1 studies
still reads a median 0 minor page faults per study.  No array the pass
returns is a view of the scratch buffers.  Beside the runs the
pass holds at most four arrays of the sample's size, rows * n floats
(the F-curve and the weights), and arrays of one entry per k and row:
the three kinds of moment, len(orders) floats each, the shifted sums,
2 (p_max + 1) floats, twice while the superblocks are added, and at
most 16 more (thresholds, normalisers, the k-grid's positions and
costs).  No array is a (len(ks), max k) matrix.  The Monte Carlo engine
sizes its batches by a constant of its own, ``montecarlo._BATCH_VALUES``
= 2**14: its ``max(1, 2**14 // n)`` rows keep ``rows * n`` below 2**14
whenever n is, so up to four orders its runs stay within F = 2**16.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence

import numpy as np

from .censoring import CensoredSample, checked_ks
from .kaplan_meier import fit

__all__ = ["tail_moments"]

# Cap, in floats, on the largest array one run of the pass holds, unless
# the batch's costliest k, pair or block alone needs more: 2**16 floats
# is 512 KiB.  Chosen by measurement: up to it, figure batches and dense
# sweeps paid for each extra run; above it the peak grew and the time did
# not steadily fall.
_CHUNK_FLOATS = 2 ** 16

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


# This thread's scratch buffers (see "Memory." above), one flat float array
# per slot, grown on demand and never shrunk: slot 0 holds the gathered
# terms (points, log-excesses, shifts), 1 the gathered weights, 2 the
# stacked powers or gathered sums, 3 the Pascal step.
_SCRATCH = threading.local()


def _scratch(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float array of ``shape``, a view of
    this thread's scratch buffer ``slot``, valid until the slot is asked
    for again."""
    buffers = vars(_SCRATCH).setdefault("buffers", {})
    size = math.prod(shape)
    if slot not in buffers or buffers[slot].size < size:
        buffers[slot] = np.empty(size)
    return buffers[slot][:size].reshape(shape)


def _gather(source: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.take(source, index, axis=-1)`` written into ``out``.

    The index is bounds-checked here, in one pass over its entries (read
    as unsigned, a negative index is larger than any valid one), so the
    take can clip: with ``mode="raise"`` numpy first gathers into a fresh
    array the size of ``out``.
    """
    if len(index) and index.view(f"u{index.itemsize}").max() >= source.shape[-1]:
        raise IndexError(f"gather index out of range for {source.shape[-1]} entries")
    return np.take(source, index, axis=-1, out=out, mode="clip")


def _check_order(alpha: float) -> None:
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be >= 1 and finite, got {alpha}")


def _chunks(cost: np.ndarray, rows: int):
    """Consecutive runs of a grid, as slices, whose entries cost at most
    max(largest cost, _CHUNK_FLOATS // rows) floats together per row, so
    an array of a run of ``rows`` rows holds at most max(_CHUNK_FLOATS,
    rows * largest cost) floats."""
    cap = max(int(cost.max(initial=0)), _CHUNK_FLOATS // max(rows, 1))
    # A run from k ends before the first k whose running cost from there
    # exceeds cap; costs are non-negative, so the running total is sorted.
    total = np.cumsum(cost)
    stops = np.searchsorted(total, total - cost + cap, side="right")
    start = 0
    while start < len(stops):
        stop = int(stops[start])
        yield slice(start, stop)
        start = stop


def _powers(base: np.ndarray, orders: Sequence[float],
            out: np.ndarray | None = None) -> np.ndarray:
    """``base ** p`` for every p in ``orders``, stacked: an array
    ``(len(orders),) + base.shape`` whose slot i holds order ``orders[i]``,
    written into ``out`` when given.

    Each order p up to _LONGEST_CHAIN + 1 is reached from q = p -
    floor(p - 1), in [1, 2), by floor(p - 1) multiplications by the base,
    L^(a+1) = L^a * L, each order going on from the slot of the next
    lower order with the same q, so its bits do not depend on which other
    orders are requested.  A higher order, whose chain would be longer,
    is ``base ** p`` in one call, so an order costs at most
    _LONGEST_CHAIN multiplications however large.
    """
    if out is None:
        out = np.empty((len(orders),) + base.shape)
    chains: dict[float, tuple[float, np.ndarray]] = {}
    for i in sorted(range(len(orders)), key=orders.__getitem__):
        p, power = orders[i], out[i]
        if math.floor(p - 1.0) > _LONGEST_CHAIN:
            np.power(base, p, out=power)
            continue
        q = p - math.floor(p - 1.0)
        exponent, source = chains.get(q) or (q, base if q == 1.0 else np.power(base, q, out=power))
        while exponent < p:
            exponent += 1.0
            source = np.multiply(source, base, out=power)
        if source is not power:  # order 1 is the base itself
            power[...] = source
        chains[q] = (exponent, power)
    return out


def _runs(first: np.ndarray, count: np.ndarray):
    """The flat index of ``first[j]`` .. ``first[j] + count[j] - 1`` for
    every j, the runs laid end to end, and the start of each run in it."""
    starts = np.cumsum(count) - count
    index = np.arange(int(count.sum())) + np.repeat(first - starts, count)
    return index, starts


def _log_excess(points: np.ndarray, thresholds: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """log(points / thresholds), written into ``out`` when given: the one
    place the pass forms a log-excess, as the log of the ratio (divide,
    then log in place)."""
    out = np.divide(points, thresholds, out=out)
    return np.log(out, out=out)


def _ragged_log_excess(source: np.ndarray, index: np.ndarray, count: np.ndarray,
                       thresholds: np.ndarray) -> np.ndarray:
    """The log-excess of every entry of ``source[:, index]`` over its
    run's threshold, an array ``(rows, len(index))`` in scratch slot 0.

    ``index`` lays out runs of ``count[j]`` entries end to end, as
    ``_runs`` does, and run j's threshold is ``thresholds[:, j]``.  The
    per-entry thresholds are a fresh ``np.repeat`` (see "Memory." above):
    on a 506-entry run of a 32-row figure batch this routine takes 86 us
    with it, 110 us with a take by run into a scratch buffer.
    """
    points = _gather(source, index, _scratch(0, (len(thresholds), len(index))))
    return _log_excess(points, np.repeat(thresholds, count, axis=-1), out=points)


def _chunk_sums(top: np.ndarray, weight: np.ndarray, threshold: np.ndarray,
                kc: np.ndarray, lo: np.ndarray, orders: Sequence[float]):
    """Over the segment of every k in kc, the top point and the points
    lo..k-1 below it: the sums of L^p and of w * L^p for every p in
    ``orders``, two arrays ``(len(orders), rows, len(kc))``.

    ``top`` and ``weight`` are ``(rows, n)`` and run from the largest
    observation down, and ``threshold`` holds each row's threshold of
    each k (NaN when not positive).  The segments are gathered end to end
    along the last axis through one flat index, the run lo-1..k-1 with
    its first entry pointed at the top point, and their log-excesses
    formed by ``_ragged_log_excess``.  The powers of all orders
    are one stacked array, summed with one ``np.add.reduceat``, weighted
    in place and summed with one more.
    """
    count = kc - lo + 1
    index, starts = _runs(lo - 1, count)
    index[starts] = 0
    base = _ragged_log_excess(top, index, count, threshold)
    powers = _powers(base, orders, _scratch(2, (len(orders),) + base.shape))
    plain = np.add.reduceat(powers, starts, axis=-1)
    weighted = np.multiply(_gather(weight, index, _scratch(1, base.shape)), powers, out=powers)
    return plain, np.add.reduceat(weighted, starts, axis=-1)


def _block_sums(top: np.ndarray, weight: np.ndarray, count: int, p_max: int):
    """The sums of each full block below the top point, once per sample.

    Returns ``(sums, thresholds)``: ``sums[q, 0]`` and ``sums[q, 1]``,
    each ``(rows, count)``, hold the sums of l^q and of w * l^q over
    block b, q = 0..p_max, with l = log(Z/t_b) and t_b = top[1 +
    (b+1)*_BLOCK], the threshold of k = 1 + (b+1)*_BLOCK; ``thresholds``
    holds t_b, NaN when not positive.  A block's sums read its own points
    and threshold only, so the blocks are read in runs whose stacked
    powers, p_max * _BLOCK floats a block, are capped as the pass's other
    arrays are.
    """
    rows = len(top)
    t = top[:, 1 + _BLOCK:2 + count * _BLOCK:_BLOCK]
    t = np.where(t > 0, t, np.nan)
    sums = np.empty((p_max + 1, 2, rows, count))
    sums[0, 0] = _BLOCK
    for run in _chunks(np.full(count, p_max * _BLOCK), rows):
        points = slice(1 + run.start * _BLOCK, 1 + run.stop * _BLOCK)
        shape = (rows, run.stop - run.start, _BLOCK)
        ell = _log_excess(top[:, points].reshape(shape), t[:, run, None], out=_scratch(0, shape))
        w = weight[:, points].reshape(shape)
        sums[0, 1, :, run] = w.sum(axis=-1)
        powers = _powers(ell, range(1, p_max + 1), _scratch(2, (p_max,) + shape))
        sums[1:, 0, :, run] = powers.sum(axis=-1)
        sums[1:, 1, :, run] = np.multiply(w, powers, out=powers).sum(axis=-1)
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
    terms and its bits do not depend on p_max.  A step is one
    multiplication and one addition over all its orders at once, each
    order reading the value order p-1 had before the step.  The (target,
    source) pairs are gathered end to end through one flat index, their
    shifts D formed by ``_ragged_log_excess``, and each target's are
    summed with ``np.add.reduceat``, in runs of the targets
    whose pairs hold at most max(largest cost, _CHUNK_FLOATS // rows)
    floats per row; a pair costs its 2 (p_max + 1) sums.
    """
    p_max = len(sums) - 1
    out = np.zeros(sums.shape[:2] + threshold.shape)
    for chunk in _chunks(count * (2 * p_max + 2), len(threshold)):
        pairs = count[chunk]
        index, starts = _runs(first[chunk], pairs)
        shift = _ragged_log_excess(source_threshold, index, pairs, threshold[:, chunk])
        moments = _gather(sums, index, _scratch(2, sums.shape[:2] + shift.shape))
        step = _scratch(3, (p_max, 2) + shift.shape)
        for j in range(1, p_max + 1):
            moments[j:] += np.multiply(shift, moments[j - 1:-1], out=step[j - 1:])
        has = np.flatnonzero(pairs) + chunk.start
        out[..., has] = np.add.reduceat(moments, starts[pairs > 0], axis=-1)
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
    ``(R, len(ks))`` for a batch, each a view of one array that stacks
    that kind's orders.  The moments at a k whose threshold Z_(n-k) is
    not positive are NaN, and those of a tail that holds an infinite
    observation are not finite.  The weights come from the product-limit
    F-curve of ``s``, fitted here.
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
    # other orders read whole tails.  Each kind of moment is one stacked
    # array, the whole orders' slots first.
    unique = list(dict.fromkeys(orders))
    shifted = [p for p in unique if p <= _MAX_SHIFTED_ORDER and not p % 1]
    whole = [p for p in unique if p not in shifted]
    blocks = (ks - 1) // _BLOCK if shifted else np.zeros_like(ks)
    lo = 1 + blocks * _BLOCK
    unweighted, km = (np.empty((len(unique), len(top), len(ks))) for _ in range(2))
    parts = slice(None, len(whole)), slice(len(whole), None)
    for group, part, start in zip((whole, shifted), parts, (np.ones_like(ks), lo)):
        if not group:
            continue
        for chunk in _chunks((ks - start + 1) * len(group), len(top)):
            unweighted[part, :, chunk], km[part, :, chunk] = _chunk_sums(
                top, weight, threshold[:, chunk], ks[chunk], start[chunk], group)
    if blocks.any():
        shift = _shifted_blocks(top, weight, threshold, blocks, int(max(shifted)))
        exponents = [int(p) for p in shifted]
        unweighted[parts[1]] += shift[exponents, 0]
        km[parts[1]] += shift[exponents, 1]
    unweighted /= ks
    km /= norm
    # l's term L_1^p of each k, through the chain the direct pass takes,
    # added as km + top_censored * L_1^p / top_norm.
    top_censored = 1 - s.delta.reshape(-1, n)[:, n - 1:]
    l = _powers(_log_excess(top[:, :1], threshold), whole + shifted)
    np.multiply(top_censored, l, out=l)
    l /= top_norm
    np.add(km, l, out=l)
    shape = s.z.shape[:-1] + ks.shape
    slot = {p: i for i, p in enumerate(whole + shifted)}
    return tuple({p: moments[slot[p]].reshape(shape) for p in unique}
                 for moments in (unweighted, km, l))
