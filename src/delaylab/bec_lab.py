"""Erasure-channel laboratory: the repeat-until-received FIFO scheme with
feedback, its birth-death steady state, the idealized feedback-free causal
parity code, and the exact union bound on deadline misses.

Discrete-time accounting, fixed once for all simulators and tests:

* channel uses are t = 1, 2, ..., horizon;
* bit i arrives at a_i = ceil(i / R') and can be transmitted from use a_i + 1;
* the delay-d decoder sees outputs through use a_i + d, so bit i misses
  deadline d exactly when its decode time exceeds a_i + d.

Under this accounting the rate-1/2 FIFO queue embedded at arrival epochs is
the birth-death chain with birth beta^2 and death (1-beta)^2, and the
stationary probability of missing deadline d is (beta/(1-beta))^d exactly,
matching the closed-form analysis.

Both schemes run on one erasure pattern per seed, and the parity code is read
off the FIFO run: its decoder frees a group exactly when the FIFO backlog
empties.  Every measured exponent, here and in the queue and hybrid-ARQ
modules, comes from ``fit_delay_exponent``: the slope of -ln P(delay > d)
against d with a block-bootstrap confidence interval.

Memory: a simulator holds the arrays it returns and working buffers of
``CHUNK_LENGTH`` values, never a full-length temporary.  Uniforms are drawn
a chunk at a time into one buffer (the same stream as one draw), the FIFO
recursion carries its running sum and maximum from chunk to chunk, and a
fit reads its delays as chunk-sized differences of a trace's times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dmc import check_count, check_probability, check_real, check_seed

CHUNK_LENGTH = 1 << 16  # values in each working buffer of the simulators and the fits
_BOOTSTRAP_DRAWS = 200  # resamples behind a delay-exponent fit's CI
_BOOTSTRAP_STREAM = (0, 999)  # their substream key


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based per-stream generator: reproducible and order-independent."""
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _chunks(n: int, length: int = CHUNK_LENGTH) -> list[tuple[int, int]]:
    """(lo, hi) of each of the consecutive ranges of at most ``length``
    that cover range(n)."""
    return [(lo, min(lo + length, n)) for lo in range(0, n, length)]


def _uniform_chunks(rng: np.random.Generator, size: int, length: int = CHUNK_LENGTH):
    """(lo, u) for each chunk (lo, hi) of range(size), of at most ``length``,
    u the uniforms ``rng.random(size)[lo:hi]``, drawn in turn into one
    reused buffer (so u holds until the next chunk is drawn): the same
    stream of doubles as one draw, never held whole."""
    buf = np.empty(min(size, length))
    for lo, hi in _chunks(size, length):
        u = buf[: hi - lo]
        rng.random(out=u)
        yield lo, u


def fifo_completions(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """FIFO completions C_i = max(a_i, C_{i-1}) + T_i from an idle start, as the
    prefix maximum C_i = S_i + max_{k<=i} (a_k - S_{k-1}), S_i = T_1 + ... + T_i:
    the queue of the erasure FIFO, the point queue and both (n, c, l) modes.

    Arrivals and service times are integers and the completions int64.  They
    are computed a chunk at a time, S and the prefix maximum carried from one
    chunk to the next, which integer arithmetic makes exact."""
    if not (np.issubdtype(arrivals.dtype, np.integer)
            and np.issubdtype(service.dtype, np.integer)):
        raise TypeError(f"FIFO completions take integer times, got {arrivals.dtype} "
                        f"arrivals and {service.dtype} service times")
    out = np.empty(len(arrivals), dtype=np.int64)
    total, reach = 0, None  # S and the prefix maximum before the chunk
    for lo, hi in _chunks(len(arrivals)):
        t = service[lo:hi]
        csum = np.cumsum(t, dtype=np.int64)  # S_i - total
        gap = arrivals[lo:hi] - csum
        gap += t  # a_k - S_{k-1} + total
        if reach is not None:
            gap[0] = max(gap[0], reach + total)
        np.maximum.accumulate(gap, out=gap)
        np.add(csum, gap, out=out[lo:hi])
        total, reach = total + csum[-1], gap[-1] - total
    return out


@dataclass(kw_only=True)
class DelayRun:
    """One FIFO run: item i arrives at ``arrival_times[i]``, both ascending,
    and is done (decoded, completed or committed) at ``done_times[i]``, +inf
    where the run ended first.  Its delay is done minus arrival plus
    ``shift``.  Items before index ``steady`` are the warm-up, and the run
    covers uses up to ``horizon``, +inf where every item completes.  An item
    that the run served takes ``service_times[i]`` uses; the erasure runs
    draw an erasure pattern, not service times, and leave it None.
    ``_segment`` is the one warm-up and censoring rule of every measurement,
    and the only reader of ``steady``."""

    arrival_times: np.ndarray
    done_times: np.ndarray
    steady: int
    horizon: float = math.inf
    shift: int = 0
    service_times: np.ndarray | None = None

    def delays(self) -> np.ndarray:
        delays = self.done_times - self.arrival_times
        delays += self.shift
        return delays

    def _segment(self, d_max: float) -> tuple:
        """The steady items that arrive by horizon - ``d_max``, so that each
        deadline up to ``d_max`` is decided within the run, as the (done
        times, arrival times, shift) segment that ``_pieces`` reads.  They
        are counted without casting the arrival times to float."""
        stop = len(self.arrival_times) - int(
            _miss_counts(self.arrival_times, [self.horizon - d_max])[0])
        return (self.done_times[self.steady:stop], self.arrival_times[self.steady:stop],
                self.shift)


class SimTrace(DelayRun):
    """An erasure-channel run: ``done_times[i]`` is the channel use at which
    bit i+1 was decoded.

    ``series(stride)`` materializes (time, arrivals_cum, decoded_cum,
    queue_len) rows; queue_len counts every arrived undecoded bit, including
    one mid-service.
    """

    def series(self, stride: int = 1) -> dict[str, np.ndarray]:
        check_count(stride, "stride must be a positive integer, got {}")
        # every stride of at least the horizon samples t = 1 alone
        stride = min(int(stride), self.horizon)
        t = np.arange(1, self.horizon + 1, stride, dtype=np.int64)
        arrivals = _counts_at_samples(self.arrival_times, stride, len(t))
        decoded = _counts_at_samples(self.done_times, stride, len(t))
        return {
            "time": t,
            "arrivals_cum": arrivals,
            "decoded_cum": decoded,
            "queue_len": arrivals - decoded,
        }


def _counts_at_samples(times: np.ndarray, stride: int, n: int) -> np.ndarray:
    """How many of the finite ``times``, whole numbers, are at or before each
    sample time t_j = 1 + j stride, j < n: a time x is first counted at
    j = ceil((x - 1) / stride), or at j = 0 for x <= 1, so the counts are a
    prefix sum of buckets, tallied a chunk of times at a time."""
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in _chunks(len(times)):
        part = times[lo:hi]
        if part.dtype.kind == "f":
            part = part[np.isfinite(part)].astype(np.int64)
        buckets = part + (stride - 2)
        buckets //= stride
        np.maximum(buckets, 0, out=buckets)
        first = buckets.min(initial=n)
        if first < n:
            buckets -= first
            tally = np.bincount(buckets)[: n - first]
            counts[first:first + len(tally)] += tally
    return np.cumsum(counts, out=counts)


def _arrival_times(rate_bits: float, horizon: int) -> np.ndarray:
    a = np.empty(int(horizon * rate_bits) + 2, dtype=np.int64)
    for lo, hi in _chunks(len(a)):
        part = np.ceil(np.arange(lo + 1, hi + 1, dtype=np.int64) / rate_bits)
        # a bit arriving at the last use could never be served within the
        # horizon; the times ascend, so the first such bit ends the run
        stop = lo + int(np.searchsorted(part, horizon))
        a[lo:stop] = part[: stop - lo]
        if stop < hi:
            break
    return a[:stop]


def _erasure_pattern(beta: float, horizon: int, seed: int) -> np.ndarray:
    # both simulators must consume the stream identically for pathwise coupling
    z = np.empty(horizon + 1, dtype=bool)
    for lo, u in _uniform_chunks(substream(seed, 0), len(z)):
        np.less(u, 1.0 - beta, out=z[lo:lo + len(u)])
    z[0] = False
    return z


def _successes_by(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The successes of the pattern ``z`` at or before each use of the
    ascending ``a``, a prefix sum a chunk of uses at a time, in the
    narrowest type that holds every count."""
    c = np.empty(len(a), dtype=np.min_scalar_type(len(z) - 1))
    seen = c.dtype.type(0)
    for lo, hi in _chunks(len(z)):
        csum = np.cumsum(z[lo:hi], dtype=c.dtype)
        i, j = np.searchsorted(a, (lo, hi))
        np.add(csum[a[i:j] - lo], seen, out=c[i:j])
        seen += csum[-1]
    return c


def _success_uses(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The use of success number k_i (from 0, in use order) of the pattern
    ``z`` for each of the increasing int64 ``k``, +inf past the last success,
    as float64 written over ``k`` itself: each chunk of uses places the k
    that fall among its successes, which is never a table of every success."""
    out = k.view(np.float64)
    done, first = 0, 0  # k placed so far; index of the chunk's first success
    for lo, hi in _chunks(len(z)):
        uses = np.flatnonzero(z[lo:hi]) + lo
        # the search reads only k not yet overwritten
        stop = done + int(np.searchsorted(k[done:], first + len(uses)))
        out[done:stop] = uses[k[done:stop] - first]
        done, first = stop, first + len(uses)
    out[done:] = np.inf
    return out


def simulate_fifo(beta: float, rate_bits: float, horizon: int, seed: int = 0) -> SimTrace:
    """Repeat-until-received FIFO scheme over the BEC with noiseless feedback,
    bits arriving at ``rate_bits`` per use for ``horizon`` uses, the erasures
    drawn on ``substream(seed, 0)``.

    Exact and fully vectorized: with success times ST, decode times obey
    D_i = first success after max(a_i, D_{i-1}): counted in successes, a FIFO
    queue with unit service, bit i arriving after the c_i successes up to a_i.
    A rate at or above capacity 1 - beta is legal, and warned about.
    """
    return _fifo(beta, rate_bits, horizon, seed)


def _fifo(beta: float, rate_bits: float, horizon: int, seed: int) -> SimTrace:
    """``simulate_fifo``, its arguments checked here, with the warning of an
    unstable rate naming the line that called the public simulator."""
    check_probability(beta, "erasure probability")
    check_real(rate_bits, "rate must be finite, got {}")
    check_real(rate_bits, "rate must be positive", 0.0)
    check_count(horizon, "horizon must be a whole number of at least 2 uses, got {}", 2)
    horizon, seed = int(horizon), check_seed(seed)
    if rate_bits >= 1 - beta:
        warnings.warn(f"rate {rate_bits} >= capacity {1 - beta}: queue is unstable; run is "
                      "legal but miss probabilities will not decay", stacklevel=3)
    z = _erasure_pattern(beta, horizon, seed)
    a = _arrival_times(rate_bits, horizon)
    # successes at or before a_i, the index of the first after it
    c = _successes_by(z, a)
    k = fifo_completions(c, np.broadcast_to(np.int64(1), len(c)))
    del c
    k -= 1
    # the steady bits arrive from use burn_in_steps(beta) on
    return SimTrace(arrival_times=a, done_times=_success_uses(z, k),
                    steady=int(np.searchsorted(a, burn_in_steps(beta))), horizon=horizon)


def simulate_causal_parity_nofeedback(beta: float, rate_bits: float, horizon: int,
                                      seed: int = 0) -> SimTrace:
    """Idealized feedback-free causal parity code over the BEC.

    The encoder streams parities of everything it has seen; the decoder
    resolves the whole outstanding group at once as soon as it holds as many
    unerased parities as there are undecoded symbols.  On the erasure pattern
    ``simulate_fifo`` consumes for this seed, that parity deficit is the FIFO
    backlog, so a group resolves exactly when a FIFO busy period ends: bit i
    closes one when bit i+1 arrives no earlier than bit i's FIFO decode time,
    and every bit of the period decodes at the FIFO decode time of its last
    bit.  The run is the FIFO run with its decode times overwritten, not
    re-simulated.
    """
    run = _fifo(beta, rate_bits, horizon, seed)
    a, d = run.arrival_times, run.done_times
    # the last bit closes the final (possibly unfinished) period.  FIFO
    # decode times never decrease, so a bit's period end, the first closing
    # j >= i, has the least d_j of the closing j >= i: a minimum taken from
    # the right a chunk at a time, over the FIFO run's own decode times
    later = np.inf
    for lo, hi in reversed(_chunks(len(a))):
        part = d[lo:hi]
        nxt = a[lo + 1:hi + 1]
        closes = np.ones(hi - lo, dtype=bool)
        closes[:len(nxt)] = nxt >= part[:len(nxt)]
        ends = np.where(closes, part, np.inf)[::-1]
        np.minimum.accumulate(ends, out=ends)
        np.minimum(ends[::-1], later, out=part)
        later = part[0]
    return run


def queue_seen_by_arrivals(trace: DelayRun) -> np.ndarray:
    """Backlog in front of each arriving bit: senior bits still undecoded at a_i.

    For the rate-1/2 FIFO scheme this is exactly the state of the birth-death
    chain embedded at arrival epochs.  The order check and the search run a
    chunk of bits at a time.
    """
    d, a = trace.done_times, trace.arrival_times
    q = np.empty(len(a), dtype=np.int64)
    last = -np.inf  # the last finite decode time before the chunk
    for lo, hi in _chunks(len(a)):
        done = d[lo:hi][np.isfinite(d[lo:hi])]
        if np.any(np.diff(done, prepend=last) < 0):
            raise ValueError("decode times must be FIFO-ordered")
        last = done[-1] if len(done) else last
        q[lo:hi] = np.searchsorted(d, a[lo:hi], side="right")  # decoded by a_i
        np.subtract(np.arange(lo, hi), q[lo:hi], out=q[lo:hi])
    return q


def birth_death_stationary(beta: float, kmax: int = 64) -> np.ndarray:
    """Stationary law pi_i = kappa (beta/(1-beta))^{2i} of the rate-1/2 queue.

    Requires 0 < beta < 1/2 (positive recurrence).
    """
    check_real(beta, "beta must lie in (0, 1/2), where the chain is positive recurrent, "
               "got {}", 0.0, 0.5)
    check_count(kmax, "kmax must be a nonnegative integer, got {}", 0)
    x = (beta / (1.0 - beta)) ** 2
    return (1.0 - x) * x ** np.arange(kmax + 1)


def burn_in_steps(beta: float) -> int:
    """Steady-state measurements discard 1e3 / (1 - 2 beta)^2 initial steps."""
    return int(1e3 / max(1e-6, (1.0 - 2.0 * beta) ** 2))


def queue_law_chisquare(samples: np.ndarray, beta: float) -> tuple[float, float]:
    """Chi-squared test of the empirical queue law against the birth-death law.

    Samples are thinned to every 100th to approximate independence
    (consecutive arrivals see strongly correlated queues) before forming the
    statistic.  Bins are {0}, {1}, ..., {B-1} plus the folded tail {>= B},
    with B chosen so every expected count is at least 5.  Returns
    (statistic, p_value).  An empty sample, and a ``beta`` outside (0, 1/2),
    raise ValueError.
    """
    check_real(beta, "beta must lie in (0, 1/2), where the chain is positive recurrent, "
               "got {}", 0.0, 0.5)
    s = np.asarray(samples)[::100]
    n = len(s)
    if not n:
        raise ValueError("samples must hold at least one queue length")
    x = (beta / (1.0 - beta)) ** 2
    kappa = 1.0 - x
    b = 1
    while b < 64 and n * kappa * x**b >= 5.0 and n * x ** (b + 1) >= 5.0:
        b += 1
    counts = np.array([(s == i).sum() for i in range(b)] + [(s >= b).sum()], dtype=float)
    expected = np.array([n * kappa * x**i for i in range(b)] + [n * x**b])
    from scipy import stats  # deferred: the CLI never needs scipy
    stat, pvalue = stats.chisquare(counts, expected)
    return float(stat), float(pvalue)


def miss_probability(trace: DelayRun, d: float) -> tuple[float, float]:
    """Empirical deadline-miss probability of the steady bits whose deadline
    lies within the horizon, and its batch-means standard error (up to 100
    contiguous batches).

    Miss indicators of nearby bits are strongly correlated (they share busy
    periods), so the naive binomial error bar would be optimistic; contiguous
    batch means give an honest one.  The misses are counted a chunk of
    delays at a time, per batch; a batch's mean is its count over its size.
    """
    check_real(d, "deadline must be finite, got {}")
    segment = trace._segment(d)
    n = len(segment[0])
    if n == 0:
        return math.nan, math.nan
    nb = min(100, max(1, n // 50))
    # the batches of np.array_split: the first n % nb hold one more bit
    edges = np.arange(nb + 1) * (n // nb) + np.minimum(np.arange(nb + 1), n % nb)
    misses, seen = np.zeros(nb, dtype=np.int64), 0
    for piece in _pieces([segment]):
        hits = np.flatnonzero(piece > d)
        hits += seen
        misses += np.bincount(np.searchsorted(edges[1:], hits, side="right"), minlength=nb)
        seen += len(piece)
    means = misses / np.diff(edges)
    se = float(means.std(ddof=1) / math.sqrt(nb)) if nb > 1 else math.nan
    return int(misses.sum()) / n, se


def union_bound_exact(beta: float, rate_bits: float, i: int, d: int) -> float:
    """Exact union bound on the FIFO miss probability of bit i at deadline d.

    Sums, over candidate backlog start points k <= i, the probability that
    the channel uses available to bits k..i before the deadline contain at
    most i-k successes: sum_k P(Binomial(n(k), 1-beta) <= i-k) with
    n(k) = d + ceil(i/R') - ceil(k/R').  Nonincreasing in d.
    """
    check_probability(beta, "erasure probability")
    check_real(rate_bits, "rate must be a positive finite number, got {}", 0.0)
    for value in (i, d):
        check_count(value, "need integers i >= 1 and d >= 1, got {}")
    k = np.arange(1, i + 1)
    n_k = d + math.ceil(i / rate_bits) - np.ceil(k / rate_bits).astype(np.int64)
    from scipy import stats  # deferred: the CLI never needs scipy
    total = stats.binom.cdf(i - k, n_k, 1.0 - beta).sum()
    return float(min(1.0, total))


@dataclass
class DelayExponentFit:
    """Least-squares slope of -ln(miss probability) against deadline."""
    slope: float
    ci_low: float
    ci_high: float
    d_values: np.ndarray
    miss_probs: np.ndarray
    miss_counts: np.ndarray
    unbounded: bool = False
    widened_ci: bool = False


def _miss_counts(sorted_delays: np.ndarray, d) -> np.ndarray:
    """Number of delays above each deadline in ``d``, by binary search.

    Signed integer delays are searched at floor(d), which an integer exceeds
    exactly when it exceeds d, so numpy does not cast them to float; a
    deadline past the range of their type has every delay above it or none.
    """
    d = np.asarray(d, dtype=float)
    n = len(sorted_delays)
    if sorted_delays.dtype.kind != "i":
        return n - np.searchsorted(sorted_delays, d, side="right")
    low = float(np.iinfo(sorted_delays.dtype).min)  # -2^63 for int64; -low is 2^63
    cut = np.floor(d)
    inside = (low <= cut) & (cut < -low)
    counts = np.where(cut < low, n, 0)
    counts[inside] = n - np.searchsorted(sorted_delays, cut[inside].astype(sorted_delays.dtype),
                                         side="right")
    return counts


def _pieces(segments):
    """The delays ``ends - starts + shift`` of each (ends, starts, shift)
    segment in turn, ``ends`` itself where ``starts`` is None, as
    consecutive arrays of at most ``CHUNK_LENGTH``: a pooled delay sample
    that is never held whole."""
    for ends, starts, shift in segments:
        for lo, hi in _chunks(len(ends)):
            piece = ends[lo:hi]
            if starts is not None:
                piece = piece - starts[lo:hi]
                piece += shift
            yield piece


def _tally(segments, d: np.ndarray, block: int):
    """One pass over the delays of ``segments``: their first and last value
    in ascending order (nan sorting last), their misses at each deadline of
    ``d``, and, one row per block, the misses of each whole block of
    ``block`` consecutive delays (no rows for ``block`` 0).  Each piece is
    cut where a block ends and sorted on its own."""
    counts = np.zeros(len(d), dtype=np.int64)
    firsts, lasts, rows = [], [], []
    row, filled = np.zeros_like(counts), 0
    for piece in _pieces(segments):
        while len(piece):
            cut = block - filled if block else len(piece)
            part, piece = np.sort(piece[:cut]), piece[cut:]
            firsts.append(part[0])
            lasts.append(part[-1])
            missed = _miss_counts(part, d)
            counts += missed
            if block:
                row += missed
                filled += len(part)
                if filled == block:
                    rows.append(row)
                    row, filled = np.zeros_like(counts), 0
    ends = [np.sort(firsts)[0], np.sort(lasts)[-1]] if firsts else []
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(d))
    return np.array(ends).tolist(), counts, rows


def _design(d: np.ndarray) -> np.ndarray:
    """Design matrix of a straight line in d: the columns d and 1."""
    return np.vstack([d, np.ones_like(d)]).T


def _slope(a: np.ndarray, p: np.ndarray) -> float:
    """Least-squares slope of -ln p against d, for a = ``_design(d)``."""
    sol, *_ = np.linalg.lstsq(a, -np.log(p), rcond=None)
    return sol[0]


def _point_fit(segments, d_grid: list, min_misses: int, block: int = 0):
    """``fit_delay_exponent`` before its bootstrap, in one ``_tally`` pass
    over the delays of ``segments``: the fit (the deadlines kept, their miss
    counts and the slope, with the CI NaN), the miss counts at every
    deadline of ``d_grid`` (from ``_deadlines``) in its given order, and the
    misses of each whole block of ``block`` delays at the deadlines kept."""
    n = sum(len(ends) for ends, _, _ in segments)
    if n == 0:
        raise ValueError("no delays left to fit: lengthen the run past its burn-in")
    check_count(min_misses, "min_misses must be a positive integer, got {}")
    given = np.asarray(d_grid, dtype=float)
    order = np.argsort(given, kind="stable")
    d_grid = given[order]
    ends, given_counts, block_counts = _tally(segments, given, block)
    for d in [*ends, *d_grid.tolist()]:  # nan sorts last
        check_real(d, "delays and deadlines must be numbers or +inf, got {}", hi=math.inf,
                   ends="(]")
    counts = given_counts[order]
    probs = counts / n
    if counts.sum() == 0:
        fit = DelayExponentFit(math.inf, math.inf, math.inf, d_grid, probs,
                               counts, unbounded=True)
        return fit, given_counts, block_counts[:, order]
    keep = counts >= min_misses
    widened = bool(keep.sum() < 3)
    if keep.sum() < 2:
        keep = counts > 0
    dd, pp = d_grid[keep], probs[keep]
    slope = float(_slope(_design(dd), pp)) if len(dd) >= 2 else math.nan
    fit = DelayExponentFit(slope, math.nan, math.nan, dd, pp, counts[keep],
                           widened_ci=widened or len(dd) < 2)
    return fit, given_counts, block_counts[:, order][:, keep]


def _bootstrap_slopes(pv: np.ndarray, dd: np.ndarray, quantiles) -> np.ndarray:
    """Least-squares slopes of -ln p against ``dd`` for the rows p of ``pv``,
    exactly ``_slope``'s (lstsq's) wherever the percentiles ``quantiles``
    (``_percentiles``) read them, without running lstsq on every row.

    Every row first gets the closed-form slope, sum (d - dbar)(y - ybar) /
    sum (d - dbar)^2 with y = -ln p.  To first order it and the lstsq slope
    both lie within c u kappa |y| / |d - dbar| of the exact slope, with u the
    unit roundoff, c a small multiple of the m deadlines, |y| the largest
    row norm and kappa <= (|d|^2 + m) / sqrt(m sum (d - dbar)^2) the
    condition number of the design (d, 1).  So eps = 2^23 u kappa |y| /
    |d - dbar| bounds their distance for any c up to 2^22.  Then:

    * order statistics are 1-Lipschitz in the sup norm, so the k-th smallest
      closed-form slope F_k is within eps of the k-th smallest lstsq slope S_k;
    * a row whose closed-form slope is more than 2 eps from F_k has both of
      its slopes strictly on the same side of S_k;
    * so once lstsq has run on every row within 2 eps of an F_k that the
      percentiles read, those order statistics, and the percentiles, are
      bit for bit those of the all-lstsq slopes.

    The percentiles read the order statistics next to the index (n - 1) q
    / 100, rounded as numpy's linear rule does; every k within 1 of it is taken.
    Where lstsq would truncate the rank (kappa near 1 / u), eps exceeds every
    slope, so every row runs lstsq.  So does one distinct deadline
    (duplicate grid entries), where the slope is undetermined: the closed
    form divides by zero and lstsq gives its minimum-norm solution.
    """
    n, m = pv.shape
    dc = dd - dd.mean()
    sxx = dc @ dc
    if dd[0] == dd[-1] or not sxx > 0:  # sxx can also underflow
        exact = np.ones(n, dtype=bool)
        slopes = np.empty(n)
    else:
        y = -np.log(pv)
        slopes = (y - y.mean(axis=1, keepdims=True)) @ dc / sxx
        y_norm = math.sqrt((y * y).sum(axis=1).max())
        eps = 2.0**-30 * (dd @ dd + m) * y_norm / (math.sqrt(m) * sxx)
        index = (n - 1) * np.asarray(quantiles) / 100
        ranked = np.sort(slopes)
        read = ranked[np.abs(np.arange(n)[:, None] - index).min(axis=1) <= 1 + 1e-9]
        exact = (np.abs(slopes[:, None] - read) <= 2 * eps).any(axis=1)
    design = _design(dd)
    for i in np.flatnonzero(exact):
        slopes[i] = _slope(design, pv[i])
    return slopes


def fit_delay_exponent(delays, d_grid, min_misses: int) -> DelayExponentFit:
    """Delay exponent of a sample of delays: the slope of -ln P(delay > d).

    Keeps the deadlines with at least ``min_misses`` misses, flagging a
    widened confidence interval when fewer than 3 survive, and falls back to
    every deadline with a miss when fewer than 2 do.  The CI bootstraps over
    contiguous blocks of the sample, in its given order, to respect the
    serial correlation of nearby delays: ``_BOOTSTRAP_DRAWS`` resamples
    drawn on ``substream(*_BOOTSTRAP_STREAM)``, the 2.5 and 97.5 percentiles
    of their least-squares slopes, exact although only the few slopes the
    percentiles read are solved by lstsq (``_bootstrap_slopes``).  Infinite
    delays miss every finite deadline.  With no misses anywhere the exponent
    is unbounded by the data; with misses at a single deadline it is
    undetermined (slope and CI NaN).  An empty sample or grid, a nan or -inf
    delay or deadline, and a ``min_misses`` that is not a positive integer
    raise ValueError.
    """
    return _fit([(np.asarray(delays), None, 0)], _deadlines(d_grid), min_misses)


def _fit(segments, d_grid: list, min_misses: int) -> DelayExponentFit:
    """``fit_delay_exponent`` of the delays of ``segments`` (see ``_pieces``),
    pooled in order."""
    block = max(1000, sum(len(ends) for ends, _, _ in segments) // 200)
    fit, _, block_counts = _point_fit(segments, d_grid, min_misses, block)
    if fit.unbounded or len(fit.d_values) < 2:
        return fit
    dd = fit.d_values
    rng = substream(*_BOOTSTRAP_STREAM)
    n_blocks = len(block_counts)
    pv = np.empty((0, len(dd)))
    if n_blocks:
        # a resample's miss counts are times_drawn @ block_counts,
        # times_drawn[i, b] counting block b in resample i.  One call draws
        # the picks of one call per resample: each pick takes Philox's
        # 32-bit words in turn, and Philox keeps the unused half of a 64-bit
        # word from one call to the next.
        picks = rng.integers(0, n_blocks, (_BOOTSTRAP_DRAWS, n_blocks))
        picks += n_blocks * np.arange(_BOOTSTRAP_DRAWS)[:, None]
        times_drawn = np.bincount(picks.ravel(), minlength=picks.size).reshape(picks.shape)
        pv = times_drawn @ block_counts / (n_blocks * block)
        pv = pv[np.all(pv > 0, axis=1)]
    if len(pv):
        q = (2.5, 97.5)
        fit.ci_low, fit.ci_high = _percentiles(np.sort(_bootstrap_slopes(pv, dd, q)), q)
    else:
        fit.widened_ci = True
    return fit


def _percentiles(ranked: np.ndarray, percents) -> list[float]:
    """``np.percentile(ranked, percents)`` of the sorted ``ranked``, bit for
    bit: numpy's linear rule, which reads the order statistics on either
    side of the index (n - 1) p / 100 and interpolates between them as its
    ``_lerp`` does.  ``np.percentile`` itself reaches them through
    ``np.unique``, which imports ``numpy.ma`` on its first call in a process
    (about 25 ms and 1.25 MB)."""
    top = len(ranked) - 1
    out = []
    for pct in percents:
        index = top * (pct / 100)
        if index >= top:
            out.append(float(ranked[-1]))
            continue
        below = math.floor(index)
        a, b, t = float(ranked[below]), float(ranked[below + 1]), index - below
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def measure_delay_exponent(traces, d_grid, min_misses: int = 100) -> DelayExponentFit:
    """``fit_delay_exponent`` over the steady-state delays of one run, of
    any simulator, or of a list of runs.

    Each run drops its warm-up and censors the items whose largest deadline
    lies beyond its horizon (``DelayRun._segment``); the remaining delays are
    pooled in order.  An empty list of runs raises ValueError.
    """
    return _fit(*_segments(traces, d_grid), min_misses)


def _deadlines(d_grid) -> list:
    """The deadline grid of a fit as a list, which it reads more than once
    where ``d_grid`` may be an iterator; an empty grid raises ValueError."""
    d_grid = list(d_grid)
    if not d_grid:
        raise ValueError("d_grid must hold at least one deadline")
    return d_grid


def _segments(runs, d_grid) -> tuple[list, list]:
    """The (ends, starts, shift) segments that a fit on the deadlines
    ``d_grid`` reads off one run, or off each of a list of runs in order,
    cut by ``DelayRun._segment`` at the largest deadline, and the grid as
    ``_deadlines`` returns it: the one reader of a run for every fit.  An
    empty list of runs raises ValueError."""
    d_grid = _deadlines(d_grid)
    d_max = float(max(d_grid))
    runs = [runs] if isinstance(runs, DelayRun) else list(runs)
    if not runs:
        raise ValueError("traces must hold at least one run")
    return [run._segment(d_max) for run in runs], d_grid
