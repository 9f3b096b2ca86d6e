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
    """Counter-based per-stream generator: reproducible and order-independent.

    The uniforms of the streams ``substream(seed, *prefix, j)`` have a
    batched twin, ``substream_uniforms``, which computes them for many
    j at once without building a generator per stream.
    """
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def fifo_completions(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """FIFO completions C_i = max(a_i, C_{i-1}) + T_i from an idle start, as the
    prefix maximum C_i = S_i + max_{k<=i} (a_k - S_{k-1}), S_i = T_1 + ... + T_i:
    the queue of the erasure FIFO, the point queue and both (n, c, l) modes."""
    csum = np.cumsum(service)
    return csum + np.maximum.accumulate(arrivals - (csum - service))


# numpy's SeedSequence hash constants (pool of 4 uint32 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11),
# one per pair of lanes (0, 2) and (1, 3)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(value, h, mult=_MULT_A):
    """SeedSequence's hashmix on uint32 words held in ints or uint64 arrays:
    the mixed value and the next hash constant."""
    value = value ^ h
    h = (h * mult) & _M32
    value = (value * h) & _M32
    return value ^ (value >> 16), h


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _substream_keys(seed: int, prefix: tuple[int, ...], keys) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 Philox key words of ``substream(seed, *prefix, j)`` for
    every j in the 1-D ``keys``.  A spawn key pads the seed's words with zeros
    to the 4-word pool, so j is the last entropy word and every step before
    it runs once, on Python ints."""
    np.random.SeedSequence(seed)  # numpy's own validation and messages
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0
                                        or keys.max() > _M32):
        raise ValueError("batched substreams need a 1-D array of integer keys in [0, 2**32)")
    seed_words = _uint32_words(int(seed))
    entropy = seed_words + [0] * (4 - len(seed_words))
    for k in prefix:
        entropy += _uint32_words(int(k))
    entropy.append(keys.astype(np.uint64))

    h = _INIT_A
    pool = []
    for word in entropy[:4]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)

    h = _INIT_B
    state = []
    for word in pool:  # generate_state(2, uint64): four uint32 words
        value, h = _hashmix(word, h, _MULT_B)
        state.append(value)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products a b, from 32-bit halves."""
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = b & _M32, b >> 32
    t = a_hi * b_lo + (a_lo * b_lo >> 32)
    u = a_lo * b_hi + (t & _M32)
    return a_hi * b_hi + (t >> 32) + (u >> 32), a * b


def substream_uniforms(seed: int, prefix: tuple[int, ...], keys, start: int,
                       count: int) -> np.ndarray:
    """Row i is ``substream(seed, *prefix, keys[i]).random(start + count)[start:]``,
    bit for bit, computed counter-wise for every key at once.

    Philox4x64-10 word w of a stream is lane w % 4 of the 10-round block
    cipher of the counter (w // 4 + 1, 0, 0, 0) under the stream's key, and
    ``Generator.random`` maps a word x to (x >> 11) 2^-53.  Keys must lie in
    [0, 2^32); a negative seed raises numpy's ValueError.
    """
    key = np.stack(_substream_keys(seed, prefix, keys))[:, :, None]
    first = start // 4
    counters = np.arange(first + 1, (start + count + 3) // 4 + 1, dtype=np.uint64)
    # lanes (0, 2) and (1, 3), each pair shaped (2, key, counter) once keyed
    even = np.stack([counters, np.zeros_like(counters)])[:, None, :]
    odd = np.zeros((2, 1, 1), dtype=np.uint64)
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=2)
    words = words.reshape(key.shape[1], 4 * len(counters))
    offset = start - 4 * first
    return (words[:, offset:offset + count] >> 11) * 2.0**-53


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
    i = np.arange(1, n_guess + 1, dtype=np.int64)
    a = np.ceil(i / rate_bits).astype(np.int64)
    # a bit arriving at the last use could never be served within the horizon
    return a[a < horizon]


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
    burn_uses = burn_in_steps(trace.meta["beta"])
    q = queue_seen_by_arrivals(trace)
    start = int(np.searchsorted(trace.arrival_times, burn_uses))
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
    start = int(np.searchsorted(trace.arrival_times, burn_in_steps(trace.meta["beta"])))
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
        start = int(np.searchsorted(t.arrival_times, burn_in_steps(t.meta["beta"])))
        stop = int(np.searchsorted(t.arrival_times, t.horizon - d_max, side="right"))
        chunks.append(t.delays()[start:stop])
    return fit_delay_exponent(np.concatenate(chunks), d_grid, min_misses)
