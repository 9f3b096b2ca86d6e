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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dmc import check_count, check_probability, check_real

_BOOTSTRAP_DRAWS = 200  # resamples behind a delay-exponent fit's CI
_BOOTSTRAP_STREAM = (0, 999)  # their substream key


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based per-stream generator: reproducible and order-independent."""
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def fifo_completions(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """FIFO completions C_i = max(a_i, C_{i-1}) + T_i from an idle start, as the
    prefix maximum C_i = S_i + max_{k<=i} (a_k - S_{k-1}), S_i = T_1 + ... + T_i:
    the queue of the erasure FIFO, the point queue and both (n, c, l) modes."""
    csum = np.cumsum(service)
    return csum + np.maximum.accumulate(arrivals - (csum - service))


@dataclass
class BecConfig:
    beta: float
    rate_bits: float
    horizon: int
    seed: int = 0

    def __post_init__(self):
        check_probability(self.beta, "erasure probability")
        check_real(self.rate_bits, "rate must be finite, got {}")
        check_real(self.rate_bits, "rate must be positive", 0.0)
        check_count(self.horizon, "horizon too short", 2)
        if self.rate_bits >= 1 - self.beta:
            warnings.warn(
                f"rate {self.rate_bits} >= capacity {1 - self.beta}: queue is "
                "unstable; run is legal but miss probabilities will not decay",
                stacklevel=2,
            )


@dataclass
class SimTrace:
    """Decode times plus enough bookkeeping to reconstruct the time series.

    ``decode_times[i]`` is the channel use at which bit i+1 was committed
    (np.inf when the horizon ended first); ``arrival_times`` are the a_i.
    ``series(stride)`` materializes (time, arrivals_cum, decoded_cum,
    queue_len) rows; queue_len counts every arrived undecoded bit, including
    one mid-service, so arrivals_cum == decoded_cum + queue_len at each step.
    """

    scheme: str
    horizon: int
    arrival_times: np.ndarray
    decode_times: np.ndarray
    meta: dict = field(default_factory=dict)

    def delays(self) -> np.ndarray:
        return self.decode_times - self.arrival_times

    def steady_start(self) -> int:
        """Index of the first bit to arrive after ``burn_in_steps``."""
        return int(np.searchsorted(self.arrival_times, burn_in_steps(self.meta["beta"])))

    def series(self, stride: int = 1) -> dict[str, np.ndarray]:
        t = np.arange(1, self.horizon + 1, stride, dtype=np.int64)
        d = self.decode_times
        arrivals = _counts_at_samples(self.arrival_times, stride, len(t))
        decoded = _counts_at_samples(d[np.isfinite(d)].astype(np.int64), stride, len(t))
        return {
            "time": t,
            "arrivals_cum": arrivals,
            "decoded_cum": decoded,
            "queue_len": arrivals - decoded,
        }

    def check_conservation(self, stride: int = 1) -> bool:
        s = self.series(stride)
        return bool(np.all(s["arrivals_cum"] == s["decoded_cum"] + s["queue_len"]))


def _counts_at_samples(times: np.ndarray, stride: int, n: int) -> np.ndarray:
    """How many of the integer ``times`` (each >= 1) are at or before each
    sample time t_j = 1 + j stride, j < n: a time x is first counted at
    j = ceil((x - 1) / stride), so the counts are a prefix sum of buckets."""
    return np.cumsum(np.bincount((times + (stride - 2)) // stride, minlength=n)[:n])


def _arrival_times(rate_bits: float, horizon: int) -> np.ndarray:
    n_guess = int(horizon * rate_bits) + 2
    a = np.ceil(np.arange(1, n_guess + 1, dtype=np.int64) / rate_bits)
    # a bit arriving at the last use could never be served within the horizon
    return a[a < horizon].astype(np.int64)


def _erasure_pattern(cfg: BecConfig) -> np.ndarray:
    # both simulators must consume the stream identically for pathwise coupling
    rng = substream(cfg.seed, 0)
    z = rng.random(cfg.horizon + 1) < (1.0 - cfg.beta)
    z[0] = False
    return z


def simulate_fifo(cfg: BecConfig) -> SimTrace:
    """Repeat-until-received FIFO scheme over the BEC with noiseless feedback.

    Exact and fully vectorized: with success times ST, decode times obey
    D_i = first success after max(a_i, D_{i-1}): counted in successes, a FIFO
    queue with unit service, bit i arriving after the c_i successes up to a_i.
    """
    z = _erasure_pattern(cfg)
    st = np.flatnonzero(z)
    a = _arrival_times(cfg.rate_bits, cfg.horizon)
    n = len(a)
    # successes at or before a_i, the index of the first after it; the prefix
    # sum over every use takes the narrowest type that holds the horizon
    c = np.cumsum(z, dtype=np.min_scalar_type(cfg.horizon))[a]
    k = fifo_completions(c, np.ones(n, dtype=np.int64)) - 1
    decoded = k < len(st)
    dt = np.full(n, np.inf)
    dt[decoded] = st[k[decoded]]
    return SimTrace(
        scheme="bec_fifo",
        horizon=cfg.horizon,
        arrival_times=a,
        decode_times=dt,
        meta={"beta": cfg.beta, "rate_bits": cfg.rate_bits, "seed": cfg.seed},
    )


def simulate_causal_parity_nofeedback(cfg: BecConfig) -> SimTrace:
    """Idealized feedback-free causal parity code over the BEC.

    The encoder streams parities of everything it has seen; the decoder
    resolves the whole outstanding group at once as soon as it holds as many
    unerased parities as there are undecoded symbols.  On the erasure pattern
    ``simulate_fifo`` consumes for this seed, that parity deficit is the FIFO
    backlog, so a group resolves exactly when a FIFO busy period ends: bit i
    closes one when bit i+1 arrives no earlier than bit i's FIFO decode time,
    and every bit of the period decodes at the FIFO decode time of its last
    bit.  The run is derived from the FIFO trace, not re-simulated.
    """
    fifo = simulate_fifo(cfg)
    a, d = fifo.arrival_times, fifo.decode_times
    # the last bit closes the final (possibly unfinished) period; each bit
    # takes its period's end, repeated over the period's length
    ends = np.append(np.flatnonzero(a[1:] >= d[:-1]), len(a) - 1)
    last = np.repeat(ends, np.diff(ends, prepend=-1))
    return SimTrace(
        scheme="bec_parity_nofeedback",
        horizon=cfg.horizon,
        arrival_times=a,
        decode_times=d[last],
        meta=fifo.meta,
    )


def queue_seen_by_arrivals(trace: SimTrace) -> np.ndarray:
    """Backlog in front of each arriving bit: senior bits still undecoded at a_i.

    For the rate-1/2 FIFO scheme this is exactly the state of the birth-death
    chain embedded at arrival epochs.
    """
    d = trace.decode_times
    if np.any(np.diff(d[np.isfinite(d)]) < 0):
        raise ValueError("decode times must be FIFO-ordered")
    done_by_arrival = np.searchsorted(d, trace.arrival_times, side="right")
    return np.arange(len(d)) - done_by_arrival


def birth_death_stationary(beta: float, kmax: int = 64) -> np.ndarray:
    """Stationary law pi_i = kappa (beta/(1-beta))^{2i} of the rate-1/2 queue.

    Requires beta < 1/2 (positive recurrence).
    """
    check_real(beta, "chain is positive recurrent only for beta < 1/2", 0.0, 0.5)
    check_count(kmax, "kmax must be a nonnegative integer, got {}", 0)
    x = (beta / (1.0 - beta)) ** 2
    return (1.0 - x) * x ** np.arange(kmax + 1)


def burn_in_steps(beta: float) -> int:
    """Steady-state measurements discard 1e3 / (1 - 2 beta)^2 initial steps."""
    return int(1e3 / max(1e-6, (1.0 - 2.0 * beta) ** 2))


def stationary_queue_samples(trace: SimTrace) -> np.ndarray:
    """Arrival-embedded queue samples after the burn-in prefix."""
    q = queue_seen_by_arrivals(trace)
    start = trace.steady_start()
    # drop the tail where the horizon may truncate decode times
    stop = len(q) - 64 if len(q) > 128 else len(q)
    return q[start:stop]


def queue_law_chisquare(samples: np.ndarray, beta: float) -> tuple[float, float]:
    """Chi-squared test of the empirical queue law against the birth-death law.

    Samples are thinned to every 100th to approximate independence
    (consecutive arrivals see strongly correlated queues) before forming the
    statistic.  Bins are {0}, {1}, ..., {B-1} plus the folded tail {>= B},
    with B chosen so every expected count is at least 5.  Returns
    (statistic, p_value).
    """
    s = np.asarray(samples)[::100]
    n = len(s)
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


def miss_probability(trace: SimTrace, d: float) -> tuple[float, float]:
    """Empirical deadline-miss probability after the burn-in, and its batch-means
    standard error (up to 100 contiguous batches).

    Miss indicators of nearby bits are strongly correlated (they share busy
    periods), so the naive binomial error bar would be optimistic; contiguous
    batch means give an honest one.
    """
    check_real(d, "deadline must be finite, got {}")
    start = trace.steady_start()
    # bits whose deadline lies beyond the horizon are not yet decidable
    ok = trace.arrival_times[start:] + d <= trace.horizon
    miss = (trace.delays()[start:][ok] > d).astype(float)
    if len(miss) == 0:
        return math.nan, math.nan
    p = float(miss.mean())
    nb = min(100, max(1, len(miss) // 50))
    batches = np.array_split(miss, nb)
    means = np.array([b.mean() for b in batches])
    se = float(means.std(ddof=1) / math.sqrt(len(means))) if len(means) > 1 else math.nan
    return p, se


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
    """Number of delays above each deadline in ``d``, by binary search."""
    return len(sorted_delays) - np.searchsorted(sorted_delays, d, side="right")


def _design(d: np.ndarray) -> np.ndarray:
    """Design matrix of a straight line in d: the columns d and 1."""
    return np.vstack([d, np.ones_like(d)]).T


def _slope(a: np.ndarray, p: np.ndarray) -> float:
    """Least-squares slope of -ln p against d, for a = ``_design(d)``."""
    sol, *_ = np.linalg.lstsq(a, -np.log(p), rcond=None)
    return sol[0]


def _point_fit(sorted_delays: np.ndarray, d_grid, min_misses: int) -> DelayExponentFit:
    """``fit_delay_exponent`` before its bootstrap, on the delays in ascending
    order: the deadlines kept, their miss counts and the slope, with the CI
    NaN.  A caller that needs no CI, or the counts at other deadlines too,
    sorts the delays once for both."""
    if sorted_delays.size == 0:
        raise ValueError("no delays left to fit: lengthen the run past its burn-in")
    check_count(min_misses, "min_misses must be a positive integer, got {}")
    d_grid = np.asarray(sorted(d_grid), dtype=float)
    for d in [*sorted_delays[[0, -1]].tolist(), *d_grid.tolist()]:  # nan sorts last
        check_real(d, "delays and deadlines must be numbers or +inf, got {}", hi=math.inf,
                   ends="(]")
    counts = _miss_counts(sorted_delays, d_grid)
    probs = counts / len(sorted_delays)
    if counts.sum() == 0:
        return DelayExponentFit(math.inf, math.inf, math.inf, d_grid, probs,
                                counts, unbounded=True)
    keep = counts >= min_misses
    widened = bool(keep.sum() < 3)
    if keep.sum() < 2:
        keep = counts > 0
    dd, pp = d_grid[keep], probs[keep]
    if len(dd) < 2:
        return DelayExponentFit(math.nan, math.nan, math.nan, dd, pp,
                                counts[keep], widened_ci=True)
    return DelayExponentFit(float(_slope(_design(dd), pp)), math.nan, math.nan, dd, pp,
                            counts[keep], widened_ci=widened)


def _bootstrap_slopes(pv: np.ndarray, dd: np.ndarray, quantiles) -> np.ndarray:
    """Least-squares slopes of -ln p against ``dd`` for the rows p of ``pv``,
    exactly ``_slope``'s (lstsq's) wherever ``np.percentile(slopes,
    quantiles)`` reads them, without running lstsq on every row.

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

    ``np.percentile`` reads the order statistics next to its index (n - 1) q
    / 100, which it rounds its own way; every k within 1 of it is taken.
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
    undetermined (slope and CI NaN).  An empty sample, a nan or -inf delay
    or deadline, and a ``min_misses`` that is not a positive integer raise
    ValueError.
    """
    delays = np.asarray(delays)
    fit = _point_fit(np.sort(delays), d_grid, min_misses)
    if fit.unbounded or len(fit.d_values) < 2:
        return fit
    dd = fit.d_values
    rng = substream(*_BOOTSTRAP_STREAM)
    block = max(1000, len(delays) // 200)
    n_blocks = len(delays) // block
    pv = np.empty((0, len(dd)))
    if n_blocks:
        trimmed = delays[: n_blocks * block].reshape(n_blocks, block)
        # per-block miss counts once; a resample's counts are then
        # times_drawn @ block_counts, times_drawn[i, b] counting block b in
        # resample i.  One call draws the picks of one call per resample:
        # each pick takes Philox's 32-bit words in turn, and Philox keeps the
        # unused half of a 64-bit word from one call to the next.
        block_counts = np.stack([(trimmed > d).sum(axis=1) for d in dd], axis=1)
        picks = rng.integers(0, n_blocks, (_BOOTSTRAP_DRAWS, n_blocks))
        picks += n_blocks * np.arange(_BOOTSTRAP_DRAWS)[:, None]
        times_drawn = np.bincount(picks.ravel(), minlength=picks.size).reshape(picks.shape)
        pv = times_drawn @ block_counts / (n_blocks * block)
        pv = pv[np.all(pv > 0, axis=1)]
    if len(pv):
        q = (2.5, 97.5)
        fit.ci_low, fit.ci_high = map(float, np.percentile(_bootstrap_slopes(pv, dd, q), q))
    else:
        fit.widened_ci = True
    return fit


def measure_delay_exponent(traces, d_grid, min_misses: int = 100) -> DelayExponentFit:
    """``fit_delay_exponent`` over the steady-state delays of one or more traces.

    Each trace drops its burn-in prefix and censors the bits whose largest
    deadline lies beyond its horizon; the remaining delays are pooled.
    """
    if isinstance(traces, SimTrace):
        traces = [traces]
    d_max = float(max(d_grid))
    chunks = []
    for t in traces:
        stop = int(np.searchsorted(t.arrival_times, t.horizon - d_max, side="right"))
        chunks.append(t.delays()[t.steady_start():stop])
    return fit_delay_exponent(np.concatenate(chunks), d_grid, min_misses)
