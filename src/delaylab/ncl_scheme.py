"""The fortified (n, c, l) hybrid-ARQ scheme and its two-stream variant.

A 1/k-fortified system carries one error-free control bit alongside every
k-th noisy use.  The scheme sends random-codeword symbols for the current
message block, attempts a list decode every chunk (c*k uses), and signals
confirm/deny plus list disambiguation over the error-free bits: the decoder
never commits an error, all randomness lands in the delay.

Transmission times obey P(T - ceil(t~) ck > t ck) <= exp(-ck E0(rho, q))^t,
with t~ = R n / Ctilde(rho, q) and Ctilde = E0/rho, so the queue analysis of
the D/G/1 module applies with an effective erasure probability
exp(-ck E0(rho, q)) and reduced block rate R'' = 1/(n - ceil(t~)).

Two runs time the scheme.  ``simulate_ncl_bound_driven`` draws every
block's chunk count from the law that saturates that bound, on any channel.
``simulate_ncl_exact_tiny`` runs the list decoder itself on a BSC with the
uniform input: it samples the competitors' Hamming distances to the output
instead of drawing a codebook, so its cost does not grow with the number of
messages M, and any M below 2^62 runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .bec_lab import (DelayExponentFit, DelayRun, _design, _fit, _segments, _slope, _tally,
                      fifo_completions, substream)
from .dmc import Dmc, check_count, check_real, check_seed
from .exponents import _at_each, _crossing_steps, _run_lanes, _two_stream_steps, e0_max
from .queue_model import ServiceTimeModel, reduced_rate_exponent

EXACT_SPREAD_BINS = 1 << 14  # histogram bins per multinomial draw; bounds its memory
EXACT_GROUP_BLOCKS = 1 << 10  # blocks an exact run decodes together; bounds its histograms
SCHEME_RHO_POINTS = 48  # rho grid of scheme_exponent_curve
TWO_STREAM_RATE_MARGIN = 0.15  # simulate_two_stream's back-off from zero slack
WARMUP_BLOCKS = 10  # blocks dropped before a delay tail is measured


@dataclass(frozen=True)
class NclParams:
    """Operating point of one (n, c, l) scheme at fortification period k.

    n: block length in chunks; c: control bits per chunk; l: log2 list size;
    rho: list-decoding parameter in (0, 2^l]; q: codeword input distribution;
    rate: message rate in nats per channel use; e0: E0(rho, q) on the target
    channel.  The queue bound and the bound-driven run both read the chunk's
    erasure probability exp(-ck E0) (``beta_eff``), which must be a normal
    double: past ck E0 = 708.4 it loses digits, and past about 745 it is
    0.0, so a larger ck E0 raises ``ValueError`` naming k and ck E0.
    """

    n: int
    c: int
    l: int
    k: int
    rho: float
    q: np.ndarray
    rate: float
    e0: float

    def __post_init__(self):
        _check_geometry(self.n, self.c, self.l, self.k)
        for name in ("n", "c", "l", "k"):
            object.__setattr__(self, name, int(getattr(self, name)))
        check_real(self.rho, "rho must lie in (0, list size]", 0.0, 2**self.l, "(]")
        check_real(self.e0, "e0 must be a positive finite number, got {}", 0.0)
        check_real(self.rate, "rate must be below E0(rho)/rho (positive slack)", hi=self.ctilde)
        if self.beta_eff < sys.float_info.min:
            raise ValueError(f"the chunk erasure probability exp(-ck E0) underflows at "
                             f"k = {self.k}: ck E0 = {self.ck * self.e0:.6g}, above "
                             f"{-math.log(sys.float_info.min):.4g}")

    @property
    def ck(self) -> int:
        return self.c * self.k

    @property
    def block_period(self) -> int:
        return self.n * self.c * self.k

    @property
    def ctilde(self) -> float:
        return self.e0 / self.rho

    @property
    def t_tilde(self) -> float:
        """Essential service time in chunks: R n / Ctilde."""
        return self.rate * self.n / self.ctilde

    @property
    def slack_chunks(self) -> int:
        return self.n - math.ceil(self.t_tilde)

    @property
    def beta_eff(self) -> float:
        """Effective erasure probability of one chunk: exp(-ck E0(rho, q))."""
        return math.exp(-self.ck * self.e0)


def _check_geometry(n: int, c: int, l: int, k: int) -> None:
    """Whole n, c and l, and a fortification period k, that fit a scheme."""
    for value in (n, c, l):
        check_count(value, "n, c and l must be nonnegative integers, got {}", 0)
    check_count(k, "fortification period must be a positive integer")
    if c < l + 1:
        raise ValueError("need c >= l + 1 so the disambiguation bits fit one chunk")
    if n <= l:
        raise ValueError("need n > l")


def select_params(p: Dmc, rate: float, delta: float, k: int, rho: float) -> NclParams:
    """Pick (l, c, r, n) for a target rate and parameter rho.

    l = max(0, ceil(log2 rho)); c = max(l+1, ceil(ln 16 / (k E0(rho))));
    r >= max(0, ln(Delta c k) / (c k E0(rho))); n = ceil(Ctilde/(Ctilde-R) (2+2r)),
    which guarantees the slack lower bound n - ceil(t~) >= (Ctilde-R) n / Ctilde - 1.
    """
    check_real(delta, "delta must be a positive finite number, got {}", 0.0)
    check_count(k, "fortification period must be a positive integer")
    check_real(rho, "rho must be positive, got {}", 0.0, math.inf, "(]")  # e0_max rejects inf
    check_real(rate, "rate must be a positive finite number, got {}", 0.0)
    e0, q = e0_max(p, rho)
    ctilde = e0 / rho
    if rate >= ctilde:
        raise ValueError(f"infeasible: rate {rate:.4f} >= E0(rho)/rho = {ctilde:.4f}")
    l = max(0, math.ceil(math.log2(rho)))
    c = max(l + 1, math.ceil(math.log(16.0) / (k * e0)))
    r_growth = max(0.0, math.log(delta * c * k) / (c * k * e0))
    n = math.ceil(ctilde / (ctilde - rate) * (2.0 + 2.0 * r_growth))
    n = max(n, l + 1)
    params = NclParams(n=n, c=c, l=l, k=k, rho=rho, q=q, rate=rate, e0=e0)
    assert params.slack_chunks >= (ctilde - rate) * n / ctilde - 1
    return params


def transmission_tail_bound(params: NclParams, t: int) -> float:
    """P(T_j - ceil(t~) ck > t ck) <= exp(-ck E0(rho, q))^t, clamped to 1."""
    check_count(t, "t must be a positive integer, got {}")
    return min(1.0, params.beta_eff ** t)


@dataclass(kw_only=True)
class NclTrace(DelayRun):
    """Per-block timing of one scheme run, in channel uses: block i+1 is
    assembled at ``arrival_times[i]``, takes ``service_times[i]`` (a
    multiple of ck) and commits at ``done_times[i]``, l k uses after its
    transmission ends, once the l disambiguation bits have ridden the
    control slots; so its service starts at done - service - l k.  Its
    delay is shifted by the assembly time n c k.
    """

    meta: dict = field(default_factory=dict)

    def measure_exponent(self, d_grid, min_misses: int = 50) -> DelayExponentFit:
        """``measure_delay_exponent`` of this run: its steady delays, censored
        at its horizon, read a chunk at a time."""
        return _fit(*_segments(self, d_grid), min_misses)


def default_delay_grid(params: NclParams, points: int = 8) -> np.ndarray:
    """Chunk-aligned deadline grid starting at the smallest end-to-end delay
    of the bound-driven law, block_period + (ceil(t~) + 1) ck + l k, where a
    block takes at least ceil(t~) + 1 chunks; decayed tails are only
    resolvable on this spacing.  Blocks of ``simulate_ncl_exact_tiny``, which
    runs the real list decoder, can commit after a single chunk, so their
    delays can fall below the start.  ``points`` must be a positive whole
    number."""
    check_count(points, "points must be a positive integer, got {}")
    base = (params.block_period + (math.ceil(params.t_tilde) + 1) * params.ck
            + params.l * params.k)
    return base + params.ck * np.arange(points, dtype=np.int64)


def _ncl_trace(params: NclParams, chunks: np.ndarray, meta: dict) -> NclTrace:
    """Queue blocks that take ``chunks`` chunks each FIFO, one block
    assembled every n c k uses, and time every block of the run; neither
    mode can commit an error."""
    nck = params.block_period
    arrivals = np.arange(1, len(chunks) + 1, dtype=np.int64)
    arrivals *= nck
    t_j = chunks  # the caller's own array, scaled in place from chunks to uses
    t_j *= params.ck
    commits = fifo_completions(arrivals, t_j)
    # l disambiguation bits ride the next l control slots at spacing k
    commits += params.l * params.k
    return NclTrace(arrival_times=arrivals, done_times=commits, steady=WARMUP_BLOCKS, shift=nck,
                    service_times=t_j, meta=meta)


def simulate_ncl_bound_driven(params: NclParams, horizon_blocks: int,
                              seed: int = 0) -> NclTrace:
    """Large-scale run with service times drawn from the Lemma bound itself.

    Blocks take ceil(t~) + Geometric(1 - beta_eff) chunks, the law that
    saturates the transmission-time bound, drawn on ``substream(seed, 1)``.
    A conservative stand-in for the true list-decoding law: measured
    exponents estimate the scheme's guaranteed floor rather than its true
    performance.
    """
    check_count(horizon_blocks, "need a whole number of at least one block, got {}")
    seed = check_seed(seed)
    law = ServiceTimeModel(offset=math.ceil(params.t_tilde), tail_beta=params.beta_eff)
    chunks = law.sample(substream(seed, 1), horizon_blocks)
    return _ncl_trace(params, chunks,
                      {"mode": "bound_driven", "beta_eff": params.beta_eff, "seed": seed})


def queueing_exponent_bound(params: NclParams) -> float:
    """Guaranteed end-to-end delay exponent in nats per channel use.

    Corollary machinery at block scale: the reduced-rate exponent at slack
    n - ceil(t~) chunks against effective erasure ``beta_eff``, rescaled
    from chunk units to channel uses.
    """
    return reduced_rate_exponent(params.beta_eff, params.slack_chunks) / params.ck


def simulate_ncl_exact_tiny(p: Dmc, params: NclParams, horizon_blocks: int,
                            seed: int = 0, n_messages: int | None = None,
                            feedback_lag: int = 1) -> NclTrace:
    """Exact run of the scheme's list decoder on a BSC with the uniform input,
    decoded from the competitors' distance counts instead of a codebook.

    A block's competitors are M - 1 iid uniform codewords, independent of the
    truth and of y, and a codeword's likelihood depends only on its Hamming
    distance to y.  So each chunk adds Binomial(u, 1/2) to a competitor's
    distance, whatever y is, and Binomial(u, eps) to the truth's.  A block's
    state is the truth's distance and two histograms of competitor
    distances: those of index below the truth's, which rank above it on a
    tie, and those above it, which need a strictly smaller distance.  Every
    chunk spreads each nonzero bin by one multinomial draw, and the block
    decodes once fewer than 2^l competitors rank above the truth.  BSC(eps)
    for eps > 1/2 is BSC(1 - eps) with its outputs relabelled, which leaves
    every ranking unchanged, so it runs as that channel.  The cost per chunk
    grows with the bins, not with M.

    The encoder mirrors the decoder through noiseless feedback and signals
    confirm/deny plus the l list-index bits over the error-free control
    slots, so committed decisions are never wrong.  ``feedback_lag`` phi > 1
    discards the last phi - 1 outputs of each chunk (both sides), so
    u = ck - (phi - 1), trading rate for tolerance of delayed feedback.

    Streams: ``substream(seed, 3)`` draws every block's true message below
    M.  In chunk c, ``substream(seed, 5, c)`` draws the truth's distance
    increments and ``substream(seed, 4, c)`` the bins' spreads, both in
    block order over the blocks still undecided.  So block j's chunk count
    depends only on the seed and on blocks 0..j: a longer horizon changes
    no earlier block.  The blocks run in groups of ``EXACT_GROUP_BLOCKS``,
    one after another, each group drawing on from where the last left
    chunk c's two generators, so the streams are still drawn in block
    order and only one group's histograms are held at a time.  Any other
    channel or input raises ``ValueError``, as does M >= 2^62, which the
    int64 counts could not hold.
    """
    check_count(horizon_blocks, "need a whole number of at least one block, got {}")
    seed = check_seed(seed)
    check_count(feedback_lag, "feedback lag must satisfy 1 <= phi < ck")
    check_real(feedback_lag, "feedback lag must satisfy 1 <= phi < ck", hi=params.ck)
    rows = p.rows
    if rows.shape != (2, 2) or rows[0, 1] != rows[1, 0] or rows[0, 0] != rows[1, 1]:
        raise ValueError("exact mode needs a BSC: elsewhere a competitor's likelihood "
                         "is not a function of its Hamming distance")
    if not np.array_equal(params.q, [0.5, 0.5]):
        raise ValueError("exact mode needs the uniform input: under another q the "
                         "competitors' distances depend on y")
    eps = min(rows[0, 1], rows[0, 0])
    if eps == 0.5:
        raise ValueError("exact mode cannot run BSC(1/2): every competitor ties with "
                         "the truth, so no block past index 2^l would decode")
    nck = params.block_period
    # e^64 > 2^62: the clamp keeps exp finite and leaves the rejection to the guard
    m_count = (n_messages if n_messages is not None
               else max(2, round(math.exp(min(nck * params.rate, 64.0)))))
    check_count(m_count, "exact mode needs a codebook of at least 2 messages", 2)
    if m_count >= 2**62:
        raise ValueError("exact mode needs fewer than 2^62 messages to count them in int64")

    used = params.ck - (feedback_lag - 1)  # outputs per chunk
    list_size = 2**params.l
    spread = np.array([math.comb(used, s) / 2**used for s in range(used + 1)])
    truth = substream(seed, 3).integers(0, m_count, horizon_blocks)
    chunks = np.zeros(horizon_blocks, dtype=np.int64)
    streams = []  # chunk c's (spread, truth distance) generators, for every group
    for first_block in range(0, horizon_blocks, EXACT_GROUP_BLOCKS):
        blocks = np.arange(first_block, min(first_block + EXACT_GROUP_BLOCKS, horizon_blocks))
        # hist[i, 0, d] / hist[i, 1, d]: competitors of undecided block i
        # below / above the truth's index at distance d; truth_dist[i]: the
        # truth's own
        hist = np.stack([truth[blocks], m_count - 1 - truth[blocks]], axis=1)[:, :, None]
        truth_dist = np.zeros(len(blocks), dtype=np.int64)
        chunk = 0
        while len(blocks):
            if chunk == len(streams):
                streams.append((substream(seed, 4, chunk), substream(seed, 5, chunk)))
            bins_rng, truth_rng = streams[chunk]
            chunk += 1
            truth_dist += truth_rng.binomial(used, eps, len(blocks))
            blk, grp, dist = np.nonzero(hist)
            counts = hist[blk, grp, dist]
            hist = np.zeros((len(blocks), 2, hist.shape[2] + used), dtype=np.int64)
            for first in range(0, len(counts), EXACT_SPREAD_BINS):
                part = slice(first, first + EXACT_SPREAD_BINS)
                moved = bins_rng.multinomial(counts[part], spread)
                for s in range(used + 1):  # distinct (blk, grp, dist): no index repeats
                    hist[blk[part], grp[part], dist[part] + s] += moved[:, s]
            d = np.arange(hist.shape[2])
            above = ((hist[:, 0] * (d <= truth_dist[:, None])).sum(axis=1)
                     + (hist[:, 1] * (d < truth_dist[:, None])).sum(axis=1))
            done = above < list_size
            chunks[blocks[done]] = chunk
            blocks, hist, truth_dist = blocks[~done], hist[~done], truth_dist[~done]

    return _ncl_trace(params, chunks, {"mode": "exact_tiny", "n_messages": m_count,
                                       "rate_realized": math.log(m_count) / nck,
                                       "feedback_lag": feedback_lag, "seed": seed})


def delayed_feedback_adjust(params: NclParams, phi: int) -> tuple[NclParams, float]:
    """Account for feedback delayed by phi uses: the last phi - 1 uses of each
    chunk are discarded, scaling throughput and exponent by 1 - (phi-1)/ck.

    Returns the adjusted params (same chunk grid, reduced rate) and the
    throughput factor.
    """
    check_count(phi, "need 1 <= phi < ck")
    check_real(phi, "need 1 <= phi < ck", hi=params.ck)
    factor = 1.0 - (phi - 1) / params.ck
    adjusted = replace(params, rate=params.rate * factor, e0=params.e0 * factor)
    return adjusted, factor


@dataclass(frozen=True)
class TwoStreamSplit:
    """Channel-use split between message and punctuation streams for generic DMCs.

    psi = E0(rho) / (E0(1) + E0(rho)) of the uses carry punctuation through a
    rate->0 code with exponent E0(1); the balanced overall delay exponent is
    E' = psi E0(1) = (1 - psi) E0(rho), with R = E'/rho.
    """

    psi: float
    rho: float
    e_prime: float
    e0_rho: float
    e0_one: float

    def __post_init__(self):
        check_real(self.rho, "rho must be a positive finite number, got {}", 0.0)
        # each identity holds to 1e-9, which nan and every infinite E0 fail
        check_real(abs(self.psi - self.e0_rho / (self.e0_one + self.e0_rho)),
                   "psi must equal E0(rho) / (E0(1) + E0(rho))", hi=1e-9, ends="(]")
        check_real(abs(self.e_prime - self.psi * self.e0_one),
                   "exponent must equal psi E0(1)", hi=1e-9, ends="(]")
        check_real(abs(self.psi * self.e0_one - (1 - self.psi) * self.e0_rho),
                   "balance identity psi E0(1) = (1-psi) E0(rho) violated", hi=1e-9, ends="(]")


def two_stream_split(p: Dmc, rate: float) -> TwoStreamSplit:
    """Solve R = E'(rho)/rho for rho, then split per psi = E0(rho)/(E0(1)+E0(rho))."""
    [(rho, e0_one, e0_rho)] = _run_lanes(p, [(_two_stream_steps(rate), None)])
    psi = e0_rho / (e0_one + e0_rho)
    return TwoStreamSplit(psi=psi, rho=rho, e_prime=psi * e0_one,
                          e0_rho=e0_rho, e0_one=e0_one)


def simulate_two_stream(p: Dmc, split: TwoStreamSplit, horizon_blocks: int,
                        seed: int = 0, k: int = 10,
                        delta: float = 0.05) -> tuple[DelayExponentFit, dict]:
    """Measure the two-stream delay exponent at the split's operating point.

    The message stream runs the bound-driven scheme over its (1 - psi)
    fraction of uses.  Exactly at the split the scheme has zero slack, so
    the simulation backs off: it keeps the message rate R/(1 - psi) but
    picks the rho whose reliability capacity exceeds that rate by
    ``TWO_STREAM_RATE_MARGIN``, and reports the margin used.  The punctuation
    stream enters as its exponent psi E0(1): per-delay failure probability
    exp(-d_f psi E0(1)) in true channel uses.  Total miss probability at
    delay d is the union bound over splits d = d_f + d_m, on 9 deadlines
    from 2 to 10 message-stream block periods in true channel uses.
    """
    seed = check_seed(seed)
    psi = split.psi
    rate_msg = split.e_prime / split.rho / (1.0 - psi)  # = E0(rho)/rho at the split
    # largest rho that leaves a TWO_STREAM_RATE_MARGIN of slack; the root
    # lies below the split's rho, where the rate is 1 - margin of this one
    [(rho_sim, _)] = _run_lanes(p, [(_crossing_steps(
        rate_msg / (1.0 - TWO_STREAM_RATE_MARGIN), 1e-9, split.rho, split.rho,
        "two-stream back-off root beyond the split's rho"), None)])
    params = select_params(p, rate_msg, delta, k, rho_sim)
    trace = simulate_ncl_bound_driven(params, horizon_blocks, seed)
    base = params.block_period / (1.0 - psi)
    d_grid = np.linspace(2 * base, 10 * base, 9)
    punc_exp = psi * split.e0_one
    step = max(1.0, params.ck / (1.0 - psi) / 4.0)
    splits = [np.arange(0.0, d + step, step) for d in d_grid]  # the d_f of each d
    # every message-stream deadline d_m = d - d_f, in its own uses, counted in one pass
    cuts = np.concatenate([(d - df) * (1.0 - psi) for d, df in zip(d_grid, splits)])
    segments, _ = _segments(trace, cuts)
    n = len(segments[0][0])
    if not n:
        raise ValueError("no delays left to fit: lengthen the run past its burn-in")
    p_m = _tally(segments, cuts, 0)[1] / n
    probs, first = [], 0
    for df in splits:
        p_f = np.exp(-df * punc_exp)
        probs.append(min(1.0, float(np.sum(p_m[first:first + len(df)] * p_f))))
        first += len(df)
    probs = np.array(probs)
    keep = probs > 0
    dd, pp = d_grid[keep], probs[keep]
    fit = DelayExponentFit(float(_slope(_design(dd), pp)), math.nan, math.nan, dd, pp,
                           (pp * n).astype(int))
    details = {"params": params, "rho_sim": rho_sim, "rate_margin": TWO_STREAM_RATE_MARGIN,
               "punctuation_exponent": punc_exp}
    return fit, details


def scheme_exponent_curve(p: Dmc, n: int, c: int, l: int, k: int,
                          rate_grid) -> list[tuple[float, float]]:
    """Analytic guaranteed-exponent curve of a fixed (n, c, l) scheme.

    For each rate, maximizes the Corollary-driven end-to-end exponent over
    ``SCHEME_RHO_POINTS`` geometrically spaced values of the operating
    parameter rho in [1e-2, 2^l]; zero where no rho leaves slack.  The
    exponent depends on the rate only through the slack s, and at a fixed
    s it grows with rho (E0(rho), and with it the chunk's reliability,
    grows), while s never grows with rho (E0(rho)/rho falls).  So for each
    rate only the largest rho of each slack can give the maximum, and only
    that one is solved, each distinct (rho, slack) once, with its
    ``NclParams``.  Raises ``ValueError`` for a geometry no scheme can run
    (c < l + 1 or n <= l).
    """
    _check_geometry(n, c, l, k)
    rhos = np.geomspace(1e-2, 2**l, SCHEME_RHO_POINTS).tolist()
    table = [(rho, e0, p.e0_points[rho][2])
             for rho, (e0, _) in zip(rhos, _run_lanes(p, _at_each(rhos)))]
    solved = {}  # (rho, slack) -> queueing_exponent_bound
    out = []
    for rate in map(float, sorted(rate_grid)):
        check_real(rate, "rate must be finite, got {}")
        largest = {}  # slack -> its largest rho's table entry
        for rho, e0, q in table:  # by increasing rho
            if rate < e0 / rho:
                largest[n - math.ceil(rate * n / (e0 / rho))] = rho, e0, q  # ``slack_chunks``
        best = 0.0
        for slack, (rho, e0, q) in largest.items():
            if (rho, slack) not in solved:
                solved[rho, slack] = queueing_exponent_bound(
                    NclParams(n=n, c=c, l=l, k=k, rho=rho, q=q, rate=rate, e0=e0))
            best = max(best, solved[rho, slack])
        out.append((rate, best))
    return out
