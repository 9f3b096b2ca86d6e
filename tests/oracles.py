"""Implementations the program replaced, kept as test oracles.

The rho solvers the bounds used before the slope-driven ones: golden section
on E0(rho) - rho R for the sphere-packing and list-decoding exponents, and
fixed-count bisections for the focusing, time-sharing and erasure-channel
inversions.  The slope-driven sphere-packing search as it was before it
started from rho = 1, on [0, 64] at every rate.  The bisections stop once lo and hi are adjacent floats: when
the root lies inside the bracket, every later step re-evaluates lo or hi and
changes nothing, so the result is the one the fixed 200- or 300-step loops
returned.

The general focusing bound's golden-section search over lambda, each probe a
Haroutunian program, which the program replaced with one joint program over
lambda and the output law.

Blahut-Arimoto's alternating maximization for the channel capacity, run to
its own certificate: the capacity's Newton loop takes one such step only
where a Newton step fails, so this is an independent reference for it.
The capacity of a two-input channel as the maximum of the concave
I((s, 1-s), P), by Newton steps on the root of I'(s), which the program
once ran beside its capacity routine: an independent reference for it, and
a cheap capacity for channel searches.

The quantized AWGN channel family, the lab's scale target, built from
``math.erfc``.

The exhaustive search over all Bell(|Y|) output partitions for Gallager's
output symmetry, which the program replaced with the column classes.

The simulation trace writer that formatted one value at a time, and the
exact (n, c, l) run's codebook decode, for any channel and input law.

The delay-exponent fit that solved every bootstrap slope by lstsq, and the
trace time series counted by binary search, which ``fit_delay_exponent``
and ``SimTrace.series`` replaced.

The simulators' one-shot forms, over whole arrays, which their chunked
passes replaced: the FIFO recursion as one prefix-maximum expression, the
erasure pattern from one draw of every uniform, the FIFO run from a table
of every success time and its parity run by fancy indexing, and the miss
counts as one binary search of float deadlines, numpy casting integer delays
to float.  The same for the acceptance statistics: the backlog seen by
arrivals, the miss probability with its batch means, the coupled dominance
check and the service envelope check, each over every value at once.

Independent references for the standard Haroutunian exponent: 50-digit
mpmath values on Z(0.5), and a scipy Nelder-Mead search of its convex form
over the output law.  For the tilde variant on Z channels, a bisection on
the mimicking channel's crossover.

max_q E0(rho, q) of a two-input channel to 50 digits, by mpmath bisection on
the slope of F along the segment of inputs.

Csiszar and Koerner's form of the Gallager function, a minimum over output
laws, by scipy's L-BFGS-B with a Frank-Wolfe lower bound.

The plain bisection of the segment q = (x, 1 - x) that
``minimize_convex_on_simplex`` ran on two letters before its tangent and
deep-cut steps.
"""

import math

import numpy as np

from delaylab import bec_lab as bl
from delaylab import exponents as ex
from delaylab import queue_model as qm
from delaylab.dmc import ConvergenceError, Dmc, _block_is_symmetric
from delaylab.optimize import (CONVEX_ITER_FACTOR, CONVEX_TOL, EPS, ConvexSolution,
                               decreasing_root, maximize_concave_1d)

TINY = float(np.finfo(float).tiny)  # smallest normal double


def bisect(above, lo, hi, steps):
    """Bisection keeping above(lo) true and above(hi) false; (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def golden_esp(p, r, fortify_k=None, rho_max=ex.RHO_MAX):
    """sup_rho [E0(rho) - rho R] by golden section, with the fourfold
    bracket expansion of ``exponents.sphere_packing``."""
    if r < ex.divergence_rate(p, fortify_k) - 1e-12:
        return math.inf

    def bracket(rho):
        return ex.e0_max(p, rho, fortify_k)[0] - rho * r

    lo, hi = 0.0, rho_max
    while True:
        res = maximize_concave_1d(bracket, lo, hi, tol=1e-9)
        if res.argmax <= 0.98 * hi or bracket(hi) <= bracket(0.9 * hi):
            return max(0.0, res.value)
        if hi >= 1e8:
            raise ConvergenceError("sphere-packing maximizer beyond rho = 1e8",
                                   bracket(hi) - bracket(0.9 * hi))
        lo, hi = 0.9 * hi, 4.0 * hi


def slope_esp(p, r, fortify_k=None):
    """sup_rho [E0(rho) - rho R] as ``exponents.sphere_packing`` found it
    before it started from rho = 1: the slope search on [0, 64] at every
    rate, then the fourfold bracket expansion."""
    if r < ex.divergence_rate(p, fortify_k) - 1e-12:
        return math.inf
    if r == 0 and fortify_k is None and p.symmetric and p.divergence_rate == 0:
        reached = p.rows[:, p.support.all(axis=0)]
        return -math.log(float(np.prod(reached ** (1.0 / p.input_size), axis=0).sum()))

    def bracket(rho):
        return ex.e0_max(p, rho, fortify_k)[0] - rho * r

    lo, hi, best = 0.0, ex.RHO_MAX, -math.inf
    while True:
        res = maximize_concave_1d(bracket, lo, hi, tol=1e-9,
                                  slope=lambda rho: ex._e0_point(p, rho, fortify_k)[1] - r)
        climbed = res.value > best
        best = max(best, res.value)
        if not climbed or res.argmax <= 0.98 * hi or bracket(hi) <= bracket(0.9 * hi):
            return max(0.0, best)
        if hi >= 1e8:
            raise ConvergenceError("sphere-packing maximizer beyond rho = 1e8",
                                   bracket(hi) - bracket(0.9 * hi))
        lo, hi = 0.9 * hi, 4.0 * hi


def golden_erl(p, r, list_size=1, fortify_k=None):
    """max_{0 <= rho <= L} [E0(rho) - rho R] by golden section."""
    res = maximize_concave_1d(lambda rho: ex.e0_max(p, rho, fortify_k)[0] - rho * r,
                              0.0, float(list_size), tol=1e-10)
    return max(0.0, res.value)


def bisect_focusing(p, r, fortify_k=None, rho_max=ex.RHO_MAX):
    """The symmetric-channel focusing bound eta R, with E0(eta)/eta = R
    solved by bisection on [1e-9, hi] after the fourfold expansion of hi."""
    cap = p.capacity_solution[0] + ex._fortification_rate(fortify_k)
    if r >= cap:
        return 0.0
    if r < ex.divergence_rate(p, fortify_k) - 1e-12:
        return math.inf
    hi = rho_max
    while ex.e0_max(p, hi, fortify_k)[0] / hi > r and hi < 1e8:
        hi *= 4.0
    lo, hi = bisect(lambda eta: ex.e0_max(p, eta, fortify_k)[0] / eta > r, 1e-9, hi, 200)
    return 0.5 * (lo + hi) * r


def bisect_timesharing(p, r, fortify_k=None, rho_max=ex.RHO_MAX):
    """The two-stream exponent at rate R: E'(rho)/rho = R by bisection on
    [1e-9, hi] after the fourfold expansion of hi."""
    if r >= p.capacity_solution[0] + ex._fortification_rate(fortify_k):
        return 0.0
    e_one = ex.e0_max(p, 1.0, fortify_k)[0]

    def point(rho):
        return ex._timesharing_point(ex.e0_max(p, rho, fortify_k)[0], e_one, rho)

    hi = rho_max
    while point(hi)[0] > r and hi < 1e8:
        hi *= 4.0
    lo, hi = bisect(lambda rho: point(rho)[0] > r, 1e-9, hi, 200)
    return point(0.5 * (lo + hi))[1]


def golden_focusing(p, r):
    """The general focusing bound inf_lambda F(lambda), F(lambda) =
    E+(lambda R)/(1 - lambda), by one golden-section search to a width of
    1e-9, each E+ a standard ``haroutunian`` program (about 50 per rate).

    The bracket holds the minimizer lambda*: F is infinite below
    lo = (R_inf + 1e-12)/R (+inf when lo >= 1); and since E+ is
    nonincreasing, E+(R)/(1 - lambda*) <= F(lo), so lambda* <= hi =
    1 - E+(R)/F(lo) (F(lo) is the value when hi <= lo).  E+ is convex in R,
    so F's sublevel sets are intervals and golden section loses nothing.
    """
    cap = p.capacity_solution[0]
    if r >= cap:
        return 0.0
    r_inf = ex.divergence_rate(p)
    if r < r_inf - 1e-12:
        return math.inf
    lo = (r_inf + 1e-12) / r if r_inf > 0.0 else 0.0
    if lo >= 1.0:
        return math.inf
    e_lo, e_r = ex.haroutunian(p, lo * r), ex.haroutunian(p, r)
    # 1 - E+(R)/F(lo) rounds to 1 when E+(R) is below eps F(lo), near capacity
    hi = min(1.0 - (1.0 - lo) * e_r / e_lo, math.nextafter(1.0, 0.0)) if e_lo > 0 else lo
    if hi <= lo:  # E+(R) >= E+(lo R) to roundoff
        return e_lo / (1.0 - lo)
    res = maximize_concave_1d(lambda lam: -ex.haroutunian(p, lam * r) / (1.0 - lam),
                              lo, hi, tol=1e-9)
    return -res.value


def bisect_bec_focusing_bits(beta, rate_bits):
    """``exponents.bec_focusing_exponent_bits`` by its 300-step bisection."""
    if rate_bits <= 0:
        return math.inf
    if rate_bits >= 1.0 - beta:
        return 0.0
    hi = 64.0
    while ex.bec_focusing_point_bits(beta, hi)[0] > rate_bits and hi < 1e9:
        hi *= 4.0
    lo, hi = bisect(lambda eta: ex.bec_focusing_point_bits(beta, eta)[0] > rate_bits,
                    1e-12, hi, 300)
    return 0.5 * (lo + hi) * rate_bits


def blahut_arimoto(p, tol, max_iter=1_000_000):
    """(I(q), q) with I(q) within ``tol`` below the capacity of ``p``:
    multiplicative updates q_x <- q_x exp(D_x) / normalizer, with
    D_x = D(P(.|x) || q P), stopped once max_x D_x - I(q) <= tol (max_x D_x
    bounds C from above).  Raises ``ConvergenceError`` after ``max_iter``
    updates."""
    rows = p.rows
    q = np.full(p.input_size, 1.0 / p.input_size)
    mask = rows > 0
    logrows = np.log(np.where(mask, rows, 1.0))
    residual = math.inf
    for _ in range(max_iter):
        out = q @ rows
        logout = np.log(np.where(out > 0, out, 1.0))
        d = np.sum(np.where(mask, rows * (logrows - logout[None, :]), 0.0), axis=1)
        lower, upper = float(q @ d), float(d.max())
        residual = upper - lower
        if residual <= tol:
            return lower, q
        q = q * np.exp(d - upper)
        q = q / q.sum()
    raise ConvergenceError("Blahut-Arimoto iteration cap exceeded", residual)


def info_binary_rows(row0, row1, s):
    """I((s, 1-s), rows) for a two-input channel; plain floats for speed."""
    log = math.log
    total = 0.0
    t = 1.0 - s
    for a, b in zip(row0, row1):
        sa, tb = s * a, t * b
        o = sa + tb
        if o < TINY:  # a / o could overflow; split the logarithm
            log_o = log(o) if o > 0.0 else 0.0
            if sa > 0.0:
                total += sa * (log(a) - log_o)
            if tb > 0.0:
                total += tb * (log(b) - log_o)
            continue
        if sa > 0.0:
            total += sa * log(a / o)
        if tb > 0.0:
            total += tb * log(b / o)
    return total


def info_slope(row0, row1, s):
    """(I'(s), I''(s)) of ``info_binary_rows``: D(row0 || o) - D(row1 || o)
    and -sum_y (a - b)^2 / o with o = s row0 + (1-s) row1.  At an end where
    o vanishes on an output only one row reaches, I' is +-inf."""
    log = math.log
    slope = curv = 0.0
    t = 1.0 - s
    for a, b in zip(row0, row1):
        o = s * a + t * b
        if o <= 0.0:
            if a != b:
                return (math.inf if a > b else -math.inf), -math.inf
            continue
        log_o = log(o)
        if a > 0.0:
            slope += a * (log(a) - log_o)
        if b > 0.0:
            slope -= b * (log(b) - log_o)
        curv -= (a - b) ** 2 / o
    return slope, curv


def max_info_binary(row0, row1, lo, hi):
    """max of the concave I((s, 1-s), rows) over lo <= s <= hi, for a
    two-input channel.

    An end where I' already points out of the interval is the maximizer.
    Otherwise I' changes sign inside, and ``decreasing_root`` closes a
    bracket on its root with Newton steps on (I', I'')."""
    if info_slope(row0, row1, lo)[0] <= 0.0:
        return info_binary_rows(row0, row1, lo)
    if info_slope(row0, row1, hi)[0] >= 0.0:
        return info_binary_rows(row0, row1, hi)
    s = decreasing_root(lambda s: info_slope(row0, row1, s), lo, hi)[0]
    return info_binary_rows(row0, row1, s)


def capacity_two_inputs(g):
    """The capacity of the two-input channel ``g`` by ``max_info_binary``."""
    return max_info_binary(g.rows[0].tolist(), g.rows[1].tolist(), 0.0, 1.0)


def awgn(nx, ny):
    """The quantized AWGN channel: nx equally spaced inputs a on [-1, 1],
    Gaussian noise of variance mean(a^2) / 10^0.3 (3 dB SNR), and ny outputs
    cut by ny - 1 equally spaced thresholds on [-1 - 2 sigma, 1 + 2 sigma].
    Row x holds the differences of the noise's survival function
    erfc((t - a_x) / (sigma sqrt 2)) / 2 at consecutive thresholds t."""
    a = np.linspace(-1.0, 1.0, nx)
    sigma = math.sqrt(float(np.mean(a * a)) / 10.0 ** 0.3)
    cuts = np.linspace(-1.0 - 2.0 * sigma, 1.0 + 2.0 * sigma, ny - 1)
    survival = np.array([[1.0, *(0.5 * math.erfc((t - ax) / (sigma * math.sqrt(2.0)))
                                 for t in cuts), 0.0] for ax in a])
    return Dmc(survival[:, :-1] - survival[:, 1:], name=f"AWGN({nx},{ny})")


def set_partitions(items):
    """All partitions of ``items`` into nonempty blocks (restricted growth)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1:]
        yield [[first]] + partial


def exhaustive_symmetry_partition(p):
    """The first partition of the outputs whose blocks all pass
    ``_block_is_symmetric``, as sorted blocks, or None."""
    for partition in set_partitions(list(range(p.output_size))):
        if all(_block_is_symmetric(p.rows[:, sorted(block)]) for block in partition):
            return sorted(tuple(sorted(block)) for block in partition)
    return None


def row_loop_trace_csv(path, header, rows_by_trial):
    """``cli._write_trace_csv`` as a loop over rows of Python ints, each
    through ``str``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for trial, rows in enumerate(rows_by_trial):
            for row in rows:
                fh.write(f"{trial}," + ",".join(map(str, row)) + "\n")


def series_by_search(trace, stride):
    """``SimTrace.series`` counting by binary search in the sorted times."""
    t = np.arange(1, trace.horizon + 1, stride, dtype=np.int64)
    arrivals = np.searchsorted(trace.arrival_times, t, side="right")
    finite = np.sort(trace.done_times[np.isfinite(trace.done_times)])
    decoded = np.searchsorted(finite, t, side="right")
    return {"time": t, "arrivals_cum": arrivals, "decoded_cum": decoded,
            "queue_len": arrivals - decoded}


def fit_delay_exponent_lstsq(delays, d_grid, min_misses):
    """``bec_lab.fit_delay_exponent`` with every bootstrap slope by lstsq,
    each resample's block counts summed by fancy indexing."""
    delays = np.asarray(delays)
    if delays.size == 0:
        raise ValueError("no delays left to fit: lengthen the run past its burn-in")
    d_grid = np.asarray(sorted(d_grid), dtype=float)
    counts = miss_counts_float(np.sort(delays), d_grid)
    probs = counts / len(delays)
    if counts.sum() == 0:
        return bl.DelayExponentFit(math.inf, math.inf, math.inf, d_grid, probs,
                                   counts, unbounded=True)
    keep = counts >= min_misses
    widened = bool(keep.sum() < 3)
    if keep.sum() < 2:
        keep = counts > 0
    dd, pp = d_grid[keep], probs[keep]
    if len(dd) < 2:
        return bl.DelayExponentFit(math.nan, math.nan, math.nan, dd, pp,
                                   counts[keep], widened_ci=True)
    design = bl._design(dd)
    slope = bl._slope(design, pp)
    rng = bl.substream(*bl._BOOTSTRAP_STREAM)
    block = max(1000, len(delays) // 200)
    n_blocks = len(delays) // block
    trimmed = delays[: n_blocks * block].reshape(n_blocks, block)
    block_counts = np.stack([(trimmed > d).sum(axis=1) for d in dd], axis=1)
    picks = rng.integers(0, n_blocks, (bl._BOOTSTRAP_DRAWS if n_blocks else 0, n_blocks))
    pv = block_counts[picks].sum(axis=1) / (n_blocks * block)
    boots = [bl._slope(design, row) for row in pv[np.all(pv > 0, axis=1)]]
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = math.nan
        widened = True
    return bl.DelayExponentFit(float(slope), float(lo), float(hi), dd, pp,
                               counts[keep], widened_ci=widened)


def codebook_ncl_chunks(p, params, horizon_blocks, seed, n_messages, feedback_lag=1):
    """Chunk count of every block of the (n, c, l) scheme decoded with real
    random codebooks, on any channel and input law q: every block draws a
    fresh iid codebook from q chunk by chunk, samples the channel on the
    truth's symbols, and at each chunk end ranks all M hypotheses by exact
    log-likelihood over the u = ck - (phi - 1) used outputs per chunk, ties
    toward the smaller index; it decodes once fewer than 2^l hypotheses rank
    above the truth.  ``simulate_ncl_exact_tiny`` decoded this way before it
    sampled the competitors' distance counts instead.  Blocks run in
    batches from one ``default_rng(seed)``."""
    used = params.ck - (feedback_lag - 1)
    m = n_messages
    log_p = np.log(np.where(p.rows > 0, p.rows, 1e-300))
    rows_cdf = np.cumsum(p.rows, axis=1)
    q_cdf = np.cumsum(params.q)
    q_cdf /= q_cdf[-1]
    rng = np.random.default_rng(seed)
    chunks = np.zeros(horizon_blocks, dtype=np.int64)
    batch = max(1, (1 << 20) // (m * used))
    for first in range(0, horizon_blocks, batch):
        blocks = np.arange(first, min(first + batch, horizon_blocks))
        truth = rng.integers(0, m, len(blocks))
        loglik = np.zeros((len(blocks), m))
        chunk = 0
        while len(blocks):
            chunk += 1
            rows = np.arange(len(blocks))
            # symbol x is drawn where q_cdf[x - 1] <= uniform < q_cdf[x]
            cw = (rng.random((len(blocks), m, used, 1)) >= q_cdf[:-1]).sum(axis=3)
            y = (rng.random((len(blocks), used, 1)) > rows_cdf[cw[rows, truth]]).sum(axis=2)
            loglik += log_p[cw, y[:, None, :]].sum(axis=2)
            # the same terms summed in another order can differ in the last
            # bits, so a gap below tol is a tie
            t_ll = loglik[rows, truth][:, None]
            tol = 1e-9 * (1.0 + np.abs(t_ll))
            above = np.where(np.arange(m) < truth[:, None],
                             loglik >= t_ll - tol, loglik > t_ll + tol).sum(axis=1)
            done = above < 2**params.l
            chunks[blocks[done]] = chunk
            blocks, truth, loglik = blocks[~done], truth[~done], loglik[~done]
    return chunks


def z05_haroutunian_mp(rate, form):
    """E+(R) of Z(0.5) to 50 digits, as an mpmath number.

    ``form`` "primal": the mimicking channel keeps row 0 by absolute
    continuity, so it is Z(b), and E+ = ln 2 - H(b) at the b in (1/2, 1)
    with C(Z(b)) = ln(1 + (1-b) b^(b/(1-b))) = R.
    ``form`` "dual": e_1(q, R) at the output law q = (e^-R, 1 - e^-R), where
    the constraint q_0 >= e^-R of row 0 is active; the tilted row
    v ∝ (1/2)^(1-t) q^t ∝ q^t has D(v || q) = R, and E+ = ln 2 - H(v).
    """
    import mpmath as mp

    with mp.workdps(50):
        r = mp.mpf(rate)

        def neg_entropy(b):
            return b * mp.log(b) + (1 - b) * mp.log(1 - b)

        if form == "primal":
            def excess(b):
                return mp.log(1 + (1 - b) * b ** (b / (1 - b))) - r
            b = mp.findroot(excess, (mp.mpf("0.5") + mp.mpf(10) ** -40,
                                     1 - mp.mpf(10) ** -40), solver="anderson")
            return mp.log(2) + neg_entropy(b)
        q0 = mp.exp(-r)
        q1 = 1 - q0

        def tilted(t):
            return q0 ** t / (q0 ** t + q1 ** t)

        def excess(t):
            v = tilted(t)
            return v * mp.log(v / q0) + (1 - v) * mp.log((1 - v) / q1) - r
        t = mp.findroot(excess, (mp.mpf(0), mp.mpf(1)), solver="anderson")
        return mp.log(2) + neg_entropy(tilted(t))


def _row_exponent_scipy(prow, q, r):
    """sup_{rho >= 0} -(1+rho) ln sum_{y in T} P(y)^(1/(1+rho)) q(y)^(rho/(1+rho)) - rho R
    for one row P with support T, by brentq on its rho-derivative
    D(v_rho || q) - R after doubling the bracket; +inf when q(T) < e^-R."""
    from scipy.optimize import brentq

    t = prow > 0
    p, q = prow[t], q[t]
    if -math.log(q.sum()) >= r:
        return math.inf

    def value(rho):
        a = 1.0 / (1.0 + rho)
        return -(1.0 + rho) * math.log(np.sum(p ** a * q ** (1.0 - a))) - rho * r

    def slope(rho):
        a = 1.0 / (1.0 + rho)
        v = p ** a * q ** (1.0 - a)
        v /= v.sum()
        return float(np.sum(v * np.log(v / q))) - r

    if slope(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while slope(hi) > 0.0:
        hi *= 2.0
    return value(brentq(slope, 0.0, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps))


def nelder_mead_haroutunian(p, r):
    """min_q max_x e_x(q, R) over the output simplex by scipy Nelder-Mead on
    the first |Y| - 1 coordinates (+inf outside the simplex), restarted from
    its own result until the value stops improving."""
    from scipy.optimize import minimize

    rows = np.asarray(p.rows)

    def objective(z):
        q = np.append(z, 1.0 - z.sum())
        if q.min() <= 0.0:
            return math.inf
        return max(_row_exponent_scipy(row, q, r) for row in rows)

    z = np.full(rows.shape[1] - 1, 1.0 / rows.shape[1])
    best = objective(z)
    for _ in range(20):
        res = minimize(objective, z, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 4000})
        if not res.fun < best - 1e-16:
            break
        z, best = res.x, res.fun
    return best


def z_information_mp(s, g):
    """I((s, 1-s), Z(g)) of the Z channel [[1, 0], [g, 1-g]], in mpmath."""
    import mpmath as mp

    def h(a):
        return -sum(x * mp.log(x) for x in (a, 1 - a) if x > 0)

    return h(s + (1 - s) * g) - (1 - s) * h(g)


def z_tilde_bisection(g0, rate, s_lo, s_hi, steps=120):
    """The tilde Haroutunian exponent of Z(g0), given S = [s_lo, s_hi], the
    input laws (s, 1-s) with I(s, Z(g0)) >= R, in mpmath.

    A mimicking channel keeps row 0 = (1, 0), by absolute continuity, so it
    is Z(g), at divergence D((g, 1-g) || (g0, 1-g0)).  Z(g) is Z(g') followed
    by Z((g - g') / (1 - g')) for g > g', so it is degraded in g: every
    I(s, Z(g)) falls as g grows, and so does their maximum over S, while
    for g < g0 that maximum exceeds max_S I(s, Z(g0)) >= R.  Tilde is
    therefore the divergence at the smallest g >= g0 with
    max_{s in S} I(s, Z(g)) <= R, found by bisection.  The maximum over S of
    the concave I(., Z(g)) clamps its stationary point
    s* = (y* - g) / (1 - g), y* = 1 / (1 + e^(-h(g) / (1-g))), to S.
    """
    import mpmath as mp

    with mp.workdps(40):
        g0, r = mp.mpf(g0), mp.mpf(rate)
        s_lo, s_hi = mp.mpf(s_lo), mp.mpf(s_hi)

        def max_info(g):
            hg = -(g * mp.log(g) + (1 - g) * mp.log(1 - g))
            y = 1 / (1 + mp.exp(-hg / (1 - g)))
            s = min(max((y - g) / (1 - g), s_lo), s_hi)
            return z_information_mp(s, g)

        lo, hi = g0, mp.mpf(1) - mp.mpf(10) ** -30
        for _ in range(steps):
            mid = (lo + hi) / 2
            if max_info(mid) <= r:
                hi = mid
            else:
                lo = mid
        return hi * mp.log(hi / g0) + (1 - hi) * mp.log((1 - hi) / (1 - g0))


def e0_two_inputs_mp(rows, rho, digits=50):
    """max_q E0(rho, q) of a two-input channel to ``digits`` digits, as an
    mpmath number: F(t) = sum_y (t W_0 + (1-t) W_1)_y^(1+rho) with
    W = P^(1/(1+rho)) is convex on [0, 1], so its minimum is at an end whose
    slope points out of the interval or at the root of the slope, which
    bisection brackets to 2^-200."""
    import mpmath as mp

    with mp.workdps(digits):
        s = 1 / (1 + mp.mpf(rho))
        w = [[mp.mpf(x) ** s if x > 0 else mp.mpf(0) for x in row] for row in rows]

        def power_sum(t, k):
            # sum_y d_y^k a_y^(rho + 1 - k): F for k = 0, F' / (1+rho) for k = 1
            a = [t * w0 + (1 - t) * w1 for w0, w1 in zip(*w)]
            d = [w0 - w1 for w0, w1 in zip(*w)]
            return mp.fsum(dy ** k * ay ** (rho + 1 - k)
                           for dy, ay in zip(d, a) if ay > 0)

        lo, hi = mp.mpf(0), mp.mpf(1)
        if power_sum(lo, 1) >= 0:
            t = lo
        elif power_sum(hi, 1) <= 0:
            t = hi
        else:
            for _ in range(200):
                mid = (lo + hi) / 2
                if power_sum(mid, 1) < 0:
                    lo = mid
                else:
                    hi = mid
            t = lo
        return -mp.log(power_sum(t, 0))


def e0_csiszar_koerner(rows, rho, q):
    """(upper, lower) bounds on
        E0^CK(rho, q) = min_Q -(1+rho) sum_x q_x ln sum_y P_x(y)^(1/(1+rho)) Q(y)^(rho/(1+rho))
    over output laws Q on the outputs some input reaches: the value at
    scipy's L-BFGS-B minimizer in softmax coordinates, polished by the
    fixed point of the stationarity condition Q_y = Q_y^(1-a) sum_x q_x
    W_xy / S_x (a = 1/(1+rho), W = P^a, S_x = sum_y W_xy Q_y^(1-a)), and
    the Frank-Wolfe bound of the convex objective there, its value plus
    the least of its tangent plane over the simplex."""
    from scipy.optimize import minimize

    rows = np.asarray(rows, dtype=float)
    a = 1.0 / (1.0 + rho)
    w = rows[:, rows.any(axis=0)] ** a
    q = np.asarray(q, dtype=float)

    def at(z):
        law = np.exp(z - z.max())
        law /= law.sum()
        sums = w @ law ** (1.0 - a)
        grad = -rho * ((q / sums) @ w) * law ** -a  # d/dQ
        return law, -(1.0 + rho) * float(q @ np.log(sums)), grad

    def objective(z):
        law, value, grad = at(z)
        return value, law * (grad - grad @ law)  # through the softmax

    z = minimize(objective, np.zeros(w.shape[1]), jac=True, method="L-BFGS-B",
                 options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 10000}).x
    law = at(z)[0]
    for _ in range(200):
        law = law ** (1.0 - a) * ((q / (w @ law ** (1.0 - a))) @ w)
        law /= law.sum()
    law, value, grad = at(np.log(law))
    return value, value + float(grad.min() - grad @ law)


def bisect_segment(oracle):
    """min f on q = (x, 1 - x) by bisection of [0, 1], as a ConvexSolution:
    the half the (sub)gradient or cut points away from is dropped, and each
    feasible midpoint c of a half-width h certifies min f >= f(c) - h |f'(c)|.
    Stops at a gap of ``CONVEX_TOL``, or after ``CONVEX_ITER_FACTOR`` 3
    steps returns within the roundoff floor 4 eps (|f| + |f'| |q|) and
    raises ``ConvergenceError`` otherwise.  The gap is reported as at least
    0."""
    x, half = 0.5, 0.5
    best, best_q, lower, floor = math.inf, None, -math.inf, 0.0
    for it in range(1, 3 * CONVEX_ITER_FACTOR + 1):
        q = np.array([x, 1.0 - x])
        value, g, *_ = oracle(q)
        slope = float(g[0] - g[1])
        if value < math.inf:
            if value < best:
                best, best_q = value, q
                floor = 4.0 * EPS * (abs(value) + abs(slope) * float(np.linalg.norm(q)))
            lower = max(lower, value - half * abs(slope))
            if best - lower <= CONVEX_TOL:
                return ConvexSolution(best_q, best, max(best - lower, 0.0), it)
        if not slope:
            raise ConvergenceError("cut with no direction", math.inf)
        x -= math.copysign(0.5 * half, slope)
        half *= 0.5
    if best - lower <= floor:
        return ConvexSolution(best_q, best, max(best - lower, 0.0), it)
    raise ConvergenceError("convex simplex search iteration cap exceeded",
                           best - lower if best < math.inf else math.inf)


def fifo_completions_oneshot(arrivals, service):
    """``bec_lab.fifo_completions`` as one expression over the whole arrays."""
    csum = np.cumsum(service)
    return csum + np.maximum.accumulate(arrivals - (csum - service))


def erasure_pattern_oneshot(beta, horizon, seed):
    """``bec_lab._erasure_pattern`` from one draw of all horizon + 1 uniforms."""
    z = bl.substream(seed, 0).random(horizon + 1) < (1.0 - beta)
    z[0] = False
    return z


def simulate_fifo_oneshot(beta, rate_bits, horizon, seed):
    """(arrival times, decode times) of ``bec_lab.simulate_fifo``, from the
    one-shot pattern, arrival times and recursion and a table of every
    success time."""
    z = erasure_pattern_oneshot(beta, horizon, seed)
    st = np.flatnonzero(z)
    n_guess = int(horizon * rate_bits) + 2
    a = np.ceil(np.arange(1, n_guess + 1, dtype=np.int64) / rate_bits)
    a = a[a < horizon].astype(np.int64)
    c = np.cumsum(z, dtype=np.min_scalar_type(horizon))[a]
    k = fifo_completions_oneshot(c, np.ones(len(a), dtype=np.int64)) - 1
    decoded = k < len(st)
    dt = np.full(len(a), np.inf)
    dt[decoded] = st[k[decoded]]
    return a, dt


def parity_decode_oneshot(a, d):
    """``simulate_causal_parity_nofeedback``'s decode times from the FIFO
    run's: each bit takes the decode time of its busy period's last bit."""
    ends = np.append(np.flatnonzero(a[1:] >= d[:-1]), len(a) - 1)
    return d[np.repeat(ends, np.diff(ends, prepend=-1))]


def miss_counts_float(sorted_delays, d):
    """``bec_lab._miss_counts`` as one binary search of the float deadlines."""
    return len(sorted_delays) - np.searchsorted(sorted_delays, d, side="right")


def queue_seen_by_arrivals_oneshot(trace):
    """``bec_lab.queue_seen_by_arrivals`` over the whole run at once."""
    d = trace.done_times
    if np.any(np.diff(d[np.isfinite(d)]) < 0):
        raise ValueError("decode times must be FIFO-ordered")
    return np.arange(len(d)) - np.searchsorted(d, trace.arrival_times, side="right")


def miss_probability_oneshot(trace, d):
    """``bec_lab.miss_probability`` from the 0/1 miss indicators of every
    steady bit, split into batches by ``np.array_split``."""
    start = trace.steady
    ok = trace.arrival_times[start:] + d <= trace.horizon
    miss = (trace.delays()[start:][ok] > d).astype(float)
    if len(miss) == 0:
        return math.nan, math.nan
    nb = min(100, max(1, len(miss) // 50))
    means = np.array([b.mean() for b in np.array_split(miss, nb)])
    se = float(means.std(ddof=1) / math.sqrt(len(means))) if len(means) > 1 else math.nan
    return float(miss.mean()), se


def coupled_dominance_check_oneshot(svc, samples, envelope_beta=None):
    """(violations, max_excess) of ``queue_model.coupled_dominance_check``
    from one draw of every uniform."""
    beta_env = svc.tail_beta if envelope_beta is None else envelope_beta
    u = bl.substream(qm.DOMINANCE_SEED, 2).random(samples)
    excess = svc.inverse_cdf(u) - qm.ServiceTimeModel(0, beta_env).inverse_cdf(u)
    return int((excess > 0).sum()), int(max(0, excess.max()))


def check_envelope_oneshot(svc, envelope_beta=None):
    """``ServiceTimeModel.check_envelope`` over one array of every draw:
    the message of the ``ValueError`` it raises, or None."""
    beta_env = svc.tail_beta if envelope_beta is None else envelope_beta
    t = svc.sample(bl.substream(qm.ENVELOPE_SEED, 77), qm.ENVELOPE_SAMPLES)
    kmax = int(min(t.max() - svc.offset, 2 + 40 / -math.log(beta_env)))
    for k in (1, 2, 3, 5, 8, 13, 21, 34):
        if k >= max(2, kmax):
            break
        p_hat = float((t > svc.offset + k).mean())
        bound = beta_env**k
        slack = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / qm.ENVELOPE_SAMPLES)
        if p_hat > bound + slack:
            return (f"service tail violates envelope at k={k}: {p_hat:.3e} > "
                    f"beta^k={bound:.3e} (+3-sigma slack)")
    return None
