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
        if not 0 < self.beta < 1:
            raise ValueError("erasure probability must lie in (0, 1)")
        if self.rate_bits <= 0:
            raise ValueError("rate must be positive")
        if self.horizon < 2:
            raise ValueError("horizon too short")
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
        arrivals = np.searchsorted(self.arrival_times, t, side="right")
        finite = np.sort(self.decode_times[np.isfinite(self.decode_times)])
        decoded = np.searchsorted(finite, t, side="right")
        return {
            "time": t,
            "arrivals_cum": arrivals,
            "decoded_cum": decoded,
            "queue_len": arrivals - decoded,
        }

    def check_conservation(self, stride: int = 1) -> bool:
        s = self.series(stride)
        return bool(np.all(s["arrivals_cum"] == s["decoded_cum"] + s["queue_len"]))


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
    c = np.searchsorted(st, a, side="right")  # first success index at time > a_i
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
    if not 0 < beta < 0.5:
        raise ValueError("chain is positive recurrent only for beta < 1/2")
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


def queue_law_chisquare(samples: np.ndarray, beta: float,
                        thin: int = 100, min_expected: float = 5.0) -> tuple[float, float]:
    """Chi-squared test of the empirical queue law against the birth-death law.

    Samples are thinned to approximate independence (consecutive arrivals see
    strongly correlated queues) before forming the statistic.  Bins are
    {0}, {1}, ..., {B-1} plus the folded tail {>= B}, with B chosen so every
    expected count is at least ``min_expected``.  Returns (statistic, p_value).
    """
    s = np.asarray(samples)[::thin]
    n = len(s)
    x = (beta / (1.0 - beta)) ** 2
    kappa = 1.0 - x
    b = 1
    while b < 64 and n * kappa * x**b >= min_expected and n * x ** (b + 1) >= min_expected:
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
    if i < 1 or d < 1:
        raise ValueError("need i >= 1 and d >= 1")
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


def fit_delay_exponent(delays, d_grid, min_misses: int) -> DelayExponentFit:
    """Delay exponent of a sample of delays: the slope of -ln P(delay > d).

    Keeps the deadlines with at least ``min_misses`` misses, flagging a
    widened confidence interval when fewer than 3 survive, and falls back to
    every deadline with a miss when fewer than 2 do.  The CI bootstraps over
    contiguous blocks of the sample, in its given order, to respect the
    serial correlation of nearby delays: ``_BOOTSTRAP_DRAWS`` resamples
    drawn on ``substream(*_BOOTSTRAP_STREAM)``.  Infinite delays miss every
    deadline.  With no misses anywhere the exponent is unbounded by the data;
    with misses at a single deadline it is undetermined (slope and CI NaN).
    An empty sample raises ValueError.
    """
    delays = np.asarray(delays)
    if delays.size == 0:
        raise ValueError("no delays left to fit: lengthen the run past its burn-in")
    d_grid = np.asarray(sorted(d_grid), dtype=float)
    counts = _miss_counts(np.sort(delays), d_grid)
    probs = counts / len(delays)
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
    design = _design(dd)  # shared by the fit and every bootstrap resample
    slope = _slope(design, pp)
    rng = substream(*_BOOTSTRAP_STREAM)
    block = max(1000, len(delays) // 200)
    n_blocks = len(delays) // block
    trimmed = delays[: n_blocks * block].reshape(n_blocks, block)
    # per-block miss counts once, then bootstrapping is just index sums
    block_counts = np.stack([(trimmed > d).sum(axis=1) for d in dd], axis=1)
    boots = []
    for _ in range(_BOOTSTRAP_DRAWS if n_blocks else 0):
        picks = rng.integers(0, n_blocks, n_blocks)
        pv = block_counts[picks].sum(axis=0) / (n_blocks * block)
        if np.all(pv > 0):
            boots.append(_slope(design, pv))
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = math.nan
        widened = True
    return DelayExponentFit(float(slope), float(lo), float(hi), dd, pp,
                            counts[keep], widened_ci=widened)


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
