"""Deliberately naive reference implementations for cross-checking.

Everything here recomputes products and sums directly from the raw
definitions with 1-based index arithmetic, pure Python floats and no
log-space tricks or precomputation.  Slow on purpose; used only to
validate the optimized library paths on small samples.  The product-limit
curves also have a high-precision version (``mp_product_limit``, in
mpmath), which checks the float64 curves at large n.  The ``z,delta``
reader has its line-by-line version (``read_data_csv_reference``), which
the columnar ``cli._read_data_csv`` is checked against.  The moment
pass's cut of the k-grid into runs has its greedy loop
(``chunks_reference``), which ``moments._chunks`` is checked against,
its ragged layout the slice lists it was once built from
(``segments_reference``), which ``moments._runs`` is checked against,
and its stacked powers the generator of one power at a time they
replaced (``powers_reference``).  The sort of a sample has its
``np.take_along_axis`` form (``sort_with_tiebreak_reference``), which
the flat gather of ``censoring._sort_with_tiebreak`` is checked against.
The results CSV has its cell-by-cell writer (``results_csv_reference``),
which the column-wise ``cli.results_csv_text`` is checked against.
"""

import math

import numpy as np

import censored_evi.moments
from censored_evi.cli import RESULTS_HEADER
from censored_evi.distributions import _decimal, _fmt


def naive_survival_f(z, delta, i):
    """1 - Fhat(Z_(i)), 1-based i: product over j <= i of
    ((n-j)/(n-j+1))^delta_(j)."""
    n = len(z)
    prod = 1.0
    for j in range(1, i + 1):
        if delta[j - 1] == 1:
            prod *= (n - j) / (n - j + 1)
    return prod


def naive_survival_g(z, delta, i):
    """1 - Ghat(Z_(i)), 1-based i: complementary exponents."""
    n = len(z)
    prod = 1.0
    for j in range(1, i + 1):
        if delta[j - 1] == 0:
            prod *= (n - j) / (n - j + 1)
    return prod


def naive_survival_g_left(z, delta, i):
    """1 - Ghat(Z_(i)^-): product over j <= i-1 only."""
    return naive_survival_g(z, delta, i - 1) if i >= 2 else 1.0


def mp_product_limit(delta, dps=40):
    """Both product-limit curves to ``dps`` digits, by direct
    multiplication of the factors (n-i)/(n-i+1) in mpmath.

    Returns ``(surv_f, surv_g_left, km_weight)``, lists of mpf over
    i = 1..n: 1 - Fhat(Z_(i)), 1 - Ghat(Z_(i)^-) and the km weight
    delta_(i)/(1 - Ghat(Z_(i)^-)), the last taken from the G-curve itself
    and not through the telescoping identity.
    """
    import mpmath

    n = len(delta)
    surv_f, surv_g_left, km_weight = [], [], []
    with mpmath.workdps(dps):
        f = g = mpmath.mpf(1)
        for i in range(1, n + 1):
            surv_g_left.append(g)
            km_weight.append(delta[i - 1] / g)
            factor = mpmath.mpf(n - i) / (n - i + 1)
            if delta[i - 1] == 1:
                f *= factor
            else:
                g *= factor
            surv_f.append(f)
    return surv_f, surv_g_left, km_weight


def product_limit_error_bound(surv, steps):
    """First-order bound on the relative error of a float64 product-limit
    curve computed as exp(cumsum(log1p(-1/(n-j)))), from its exact values.

    ``surv`` holds the exact curve values and ``steps`` marks the indices
    whose factor enters the running sum.  With u = 2**-53, each term
    log1p(-1/m) carries at most 1.5u relative from rounding -1/m (m >= 2)
    plus 4u from log1p (2 ulp), each addition of a nonzero term rounds
    once, by at most u times the new partial sum, and exp adds 4u
    (2 ulp) relative.  The terms share one sign, so their magnitudes add
    up to |s_m| = |log surv_m|, and the bound at index m is

        u * (sum over steps j <= m of |s_j| + 5.5 |s_m| + 4),

    relative, to first order in u.  Entries whose exact value is 0 get NaN.
    """
    import mpmath

    u = 2.0 ** -53
    bound, running = [], 0.0
    for value, step in zip(surv, steps):
        if value == 0:
            bound.append(math.nan)
            continue
        s_m = -float(mpmath.log(value))
        if step:
            running += s_m
        bound.append(u * (running + 5.5 * s_m + 4.0))
    return bound


def mp_tail_moments(z, delta, ks, orders, dps=40):
    """Unweighted, km and l moments of the top-k tails, to ``dps`` digits.

    ``z`` is the sample in ascending order, every value at or above a
    threshold positive; ``ks`` are ascending and ``orders`` are positive
    integers.  Straight from the definitions, with L_i = log(Z_(n-i+1)) -
    log(Z_(n-k)) and the curves of ``mp_product_limit``:

    * unweighted: sum of L_i^p over i <= k, divided by k;
    * km: sum of delta_(n-i+1) L_i^p / (1 - Ghat(Z_(n-i+1)^-)), divided
      by N = n (1 - Fhat(Z_(n-k)));
    * l: Leurgans' increments, sum of i (L_i^p - L_(i+1)^p) /
      (1 - Ghat(Z_(n-i+1)^-)) with L_(k+1) = 0, divided by N.

    Each log is taken to 2**-256 absolute and rounded to a multiple of
    2**-256, so every L_i, its powers and the weighted sums are exact in
    Python integers; a sum over a tail is then the exact binomial
    expansion sum over q of C(p,q) (-log Z_(n-k))^(p-q) times a running
    sum of weighted log^q, which costs O(n) for all k together.  The only
    roundings are the logs (relative 2**-256 / L_i) and the curves'
    ``dps`` digits.  Returns three dicts mapping each order to a list of
    mpf, one per k.
    """
    import mpmath

    frac = 256
    n, top_k = len(z), max(ks)
    surv_f, surv_g_left, km_weight = mp_product_limit(delta, dps)

    def fixed(x):
        return int(mpmath.nint(mpmath.ldexp(x, frac)))

    with mpmath.workprec(frac + 64):
        logs = [fixed(mpmath.log(z[n - j])) for j in range(1, top_k + 2)]
    # top-down, j = 1..top_k: the km weight and Leurgans' j/(1-Ghat(Z^-))
    km_w = [fixed(km_weight[n - j]) for j in range(1, top_k + 1)]
    l_w = [fixed(j / surv_g_left[n - j]) for j in range(1, top_k + 1)]
    p_max = max(orders)
    running = [[0] * (p_max + 1) for _ in range(4)]  # plain, km, l at L_j, l at L_(j+1)
    out = ({p: [] for p in orders}, {p: [] for p in orders}, {p: [] for p in orders})
    want = iter(ks)
    k = next(want)
    for j in range(1, top_k + 1):
        x, below = logs[j - 1], logs[j]
        for q in range(p_max + 1):
            xq, bq = x ** q, below ** q
            running[0][q] += xq
            running[1][q] += km_w[j - 1] * xq
            running[2][q] += l_w[j - 1] * xq
            running[3][q] += l_w[j - 1] * bq
        while k == j:
            t = logs[k]
            with mpmath.workdps(dps):
                norm = n * surv_f[n - k - 1]
                for p in orders:
                    coef = [math.comb(p, q) * (-t) ** (p - q) for q in range(p + 1)]
                    sums = [sum(c * r[q] for q, c in enumerate(coef)) for r in running]
                    out[0][p].append(mpmath.ldexp(sums[0], -frac * p) / k)
                    out[1][p].append(mpmath.ldexp(sums[1], -frac * (p + 1)) / norm)
                    out[2][p].append(mpmath.ldexp(sums[2] - sums[3], -frac * (p + 1)) / norm)
            k = next(want, None)
    return out


def naive_p_hat(delta, k):
    n = len(delta)
    return sum(delta[n - i] for i in range(1, k + 1)) / k


def naive_log_excesses(z, k, alpha):
    """L_i = log^alpha(Z_(n-i+1)/Z_(n-k)) for i = 1..k."""
    n = len(z)
    thr = z[n - k - 1]
    return [math.log(z[n - i] / thr) ** alpha for i in range(1, k + 1)]


def naive_moment_unweighted(z, k, alpha):
    ell = naive_log_excesses(z, k, alpha)
    return sum(ell) / k


def naive_moment_km(z, delta, k, alpha):
    n = len(z)
    ell = naive_log_excesses(z, k, alpha)
    norm = n * naive_survival_f(z, delta, n - k)
    total = 0.0
    for i in range(1, k + 1):
        w = delta[n - i] / naive_survival_g_left(z, delta, n - i + 1)
        total += w * ell[i - 1]
    return total / norm


def naive_xi(z, k, alpha):
    ell = naive_log_excesses(z, k, alpha)
    ell.append(0.0)  # L_{k+1}
    return [i * (ell[i - 1] - ell[i]) for i in range(1, k + 1)]


def naive_moment_leurgans(z, delta, k, alpha):
    n = len(z)
    xi = naive_xi(z, k, alpha)
    norm = n * naive_survival_f(z, delta, n - k)
    total = 0.0
    for i in range(1, k + 1):
        total += xi[i - 1] / naive_survival_g_left(z, delta, n - i + 1)
    return total / norm


def naive_d_term(z, delta, k, alpha):
    n = len(z)
    num = math.log(z[n - 1] / z[n - k - 1]) ** alpha
    den = n * naive_survival_f(z, delta, n - k) * naive_survival_g_left(z, delta, n)
    return num / den


def combination_orders(family, alpha):
    """Moment orders fed to a family's combiner, in argument order; the
    same choice as the orders column of ``censored_evi.estimators._COMBINATIONS``."""
    if family == "mom":
        return (1.0, 2.0)
    if family == "type1":
        return (alpha, alpha + 1.0, alpha + 2.0)
    return (1.0, alpha, alpha + 1.0)


def combination_sensitivity(family, moments, alpha):
    """S = sum_j |m_j * d(gamma)/d(m_j)| of a family's moment combination.

    ``moments`` are in the combiner's argument order.  A relative change
    of at most eta in every moment moves the estimate by at most S*eta,
    to first order; S/|gamma| is the relative condition number kappa.
    Each combination has a pole (mom: m1^2 = m2; type1:
    1/V = -(alpha+1); type2: R = 1) where S is infinite.  With
    r = m1^2/m2, D = 1 - r, W = ((alpha+2)/(alpha+1)) m_{a+1}^2/(m_a m_{a+2}),
    V = 1 - W and R = m1 m_a/m_{a+1}:

    * mom:   m1 dg/dm1 = m1 - r/D^2,  m2 dg/dm2 = r/(2 D^2);
    * type1: gamma = V/(1 + (alpha+1) V), so m_j dg/dm_j =
             W e_j/(1 + (alpha+1) V)^2 with e = (1, -2, 1);
    * type2: m_j dg/dm_j = +-(alpha/(alpha+1)) R/(1-R)^2 for each of the
             three moments.

    The ratios are formed exactly as the combiners form them.
    """
    if family == "mom":
        m1, m2 = moments
        r = m1 * m1 / m2
        d = 1.0 - r
        if d == 0.0:
            return math.inf
        return abs(m1 - r / (d * d)) + 0.5 * abs(r) / (d * d)
    if family == "type1":
        m_a, m_a1, m_a2 = moments
        w = (alpha + 2.0) / (alpha + 1.0) * (m_a1 * m_a1) / (m_a * m_a2)
        pole = 1.0 + (alpha + 1.0) * (1.0 - w)
        return 4.0 * abs(w) / (pole * pole) if pole else math.inf
    if family == "type2":
        m1, m_a, m_a1 = moments
        r = m1 * m_a / m_a1
        if r == 1.0:
            return math.inf
        return 3.0 * abs(r) * (alpha / (alpha + 1.0)) / (1.0 - r) ** 2
    raise ValueError(f"unknown family {family!r}")


def read_data_csv_reference(path):
    """The ``z,delta`` data file read line by line: lists of z floats and
    delta bools, or ValueError naming the first failing line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file (expected header 'z,delta')")
    if lines[0].strip() != "z,delta":
        raise ValueError(f"{path}: line 1: expected header 'z,delta', got {lines[0]!r}")
    z, delta = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            zv = _decimal(parts[0])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: z must be a number, got {parts[0]!r}") from None
        if not 0 < zv < math.inf:
            raise ValueError(
                f"{path}: line {lineno}: z must be a finite positive number, got {parts[0]!r}")
        if parts[1] not in ("0", "1"):
            raise ValueError(f"{path}: line {lineno}: delta must be 0 or 1, got {parts[1]!r}")
        z.append(zv)
        delta.append(parts[1] == "1")
    return z, delta


def results_csv_reference(result):
    """The results CSV of a ``StudyResult`` written cell by cell: ``_fmt`` on
    each float field of ``result.cells``, in the cells' order."""
    design = result.design
    lines = [RESULTS_HEADER]
    for cell in result.cells:
        lines.append(
            f"{cell.k},{cell.spec.family.value},{cell.spec.method.value},"
            f"{_fmt(cell.spec.alpha)},{_fmt(cell.median_bias)},{_fmt(cell.mse)},"
            f"{_fmt(cell.mean)},{_fmt(cell.variance)},{cell.degenerate_count},"
            f"{design.reps},{design.n},{_fmt(design.gamma_x)},{_fmt(design.gamma_c)}"
        )
    return "\n".join(lines) + "\n"


def chunks_reference(cost, rows):
    """The runs of ``moments._chunks`` cut one k at a time: a run takes
    the next k while its cost stays within max(largest cost, _CHUNK_FLOATS
    // rows)."""
    cost = [int(c) for c in cost]
    # Read at call time, so a test that patches the cap patches it here too.
    cap = max(max(cost, default=0), censored_evi.moments._CHUNK_FLOATS // max(rows, 1))
    runs, start, total = [], 0, 0
    for i, c in enumerate(cost):
        if total + c > cap:
            runs.append(slice(start, i))
            start, total = i, 0
        total += c
    if start < len(cost):
        runs.append(slice(start, len(cost)))
    return runs


def segments_reference(first, count):
    """The flat index and run starts of ``moments._runs`` as the moment
    pass once built them: one slice ``first[j] .. first[j] + count[j] - 1``
    per run, concatenated."""
    index, starts = [], []
    for i, m in zip(first, count):
        starts.append(len(index))
        index.extend(range(int(i), int(i) + int(m)))
    return index, starts


def powers_reference(base, orders):
    """(order, base**order) for the orders in ascending order, one at a
    time, as the moment pass once drew them: each order p up to 65 is
    reached from q = p - floor(p - 1) by floor(p - 1) multiplications by
    the base, and the orders of one q share one buffer, so a yielded
    array holds its power only until the next order is drawn; a higher
    order is ``base ** p``."""
    chains = {}
    for p in sorted(set(orders)):
        if math.floor(p - 1.0) > 64:
            yield p, base ** p
            continue
        q = p - math.floor(p - 1.0)
        exponent, power = chains.get(q) or (q, base if q == 1.0 else base ** q)
        while exponent < p:
            exponent += 1.0
            power = power * base if power is base else np.multiply(power, base, out=power)
        chains[q] = (exponent, power)
        yield p, power


def sort_with_tiebreak_reference(z, delta):
    """``censoring._sort_with_tiebreak`` through ``np.take_along_axis``,
    without its warning: each row sorted by z, and by the
    uncensored-first rule when a row of the batch holds a tie."""
    order = np.argsort(z, axis=-1)
    z_sorted = np.take_along_axis(z, order, -1)
    if np.any(z_sorted[..., 1:] == z_sorted[..., :-1]):
        order = np.lexsort((delta == 0, z), axis=-1)
        z_sorted = np.take_along_axis(z, order, -1)
    return z_sorted, np.take_along_axis(delta, order, -1)
