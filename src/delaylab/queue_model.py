"""D/G/1 point-message queue: deterministic arrivals, independent service
times dominated by a constant-plus-geometric law, and the resulting
large-deviations delay exponent.

A service-time model with offset m~ and tail parameter beta promises
P(T > m~ + k) <= beta^k.  For arrival period m > m~ the queue's delay tail
decays at least as fast as the erasure-channel fixed-delay exponent
evaluated at the reduced rate R'' = 1/(m - m~), in base-2 units per time
unit: exp(-d * E_a^bec(R'') * ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bec_lab import CHUNK_LENGTH, DelayRun, _uniform_chunks, fifo_completions, substream
from .dmc import LN2, check_count, check_probability, check_seed
from .exponents import bec_focusing_exponent_bits

WARMUP_MESSAGES = 100  # messages dropped before a delay tail is measured
ENVELOPE_SAMPLES = 1_000_000  # draws of ``ServiceTimeModel.check_envelope``
ENVELOPE_SEED = 20_260_101  # the seed of those draws
DOMINANCE_SEED = 0  # the seed of ``coupled_dominance_check``'s uniforms


@dataclass(frozen=True)
class ServiceTimeModel:
    """Integer service times T = offset + min(Geom(beta), cap), with a
    certified geometric tail envelope.

    Geom(beta) has support 1, 2, ... and P(Geom > k) = beta^k; ``cap`` None
    leaves it untruncated: the geometric (offset 0), offset geometric and
    truncated geometric (offset 0, a cap) samplers of the ``sim queue``
    config are its cases.  Each meets P(T > offset + k) <= beta^k by
    construction of ``inverse_cdf``, so construction draws nothing;
    ``check_envelope`` is the explicit Monte Carlo conformance check.
    """

    offset: int
    tail_beta: float
    cap: int | None = None

    def __post_init__(self):
        check_probability(self.tail_beta, "tail parameter")
        check_count(self.offset, "offset must be a nonnegative integer, got {}", 0)
        object.__setattr__(self, "offset", int(self.offset))
        if self.cap is not None:
            check_count(self.cap, "a truncation cap must be a positive integer, got {}")
            object.__setattr__(self, "cap", int(self.cap))
        # the largest sample is drawn at the largest uniform below 1
        top = int(self._geometric(np.array([np.nextafter(1.0, 0.0)]))[0])
        limit = int(np.iinfo(np.int64).max) - min(top, self.cap or top)
        if self.offset > limit:
            raise ValueError(f"offset must be at most {limit}, so that every service "
                             f"time fits in int64, got {self.offset}")

    def _geometric(self, u: np.ndarray) -> np.ndarray:
        """Geom(beta) at the uniforms u, by inverting its CDF."""
        return np.maximum(np.ceil(np.log1p(-u) / math.log(self.tail_beta)).astype(np.int64), 1)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Quantile transform of the sampler, shared-uniform couplings included."""
        geo = self._geometric(np.asarray(u, dtype=float))
        if self.cap is not None:
            geo = np.minimum(geo, self.cap)
        return self.offset + geo

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``inverse_cdf(rng.random(size))``, drawn and mapped a chunk at a time."""
        check_count(size, "size must be a nonnegative integer, got {}", 0)
        size = int(size)
        t = np.empty(size, dtype=np.int64)
        for lo, u in _uniform_chunks(rng, size):
            t[lo:lo + len(u)] = self.inverse_cdf(u)
        return t

    def check_envelope(self, envelope_beta: float | None = None) -> None:
        """Empirical complementary CDF must stay under beta^k beyond the offset,
        over ``ENVELOPE_SAMPLES`` draws seeded by ``ENVELOPE_SEED``.

        The envelope defaults to the model's declared beta; passing an
        explicit ``envelope_beta`` turns this into a generic conformance check.
        The draws are tallied a chunk at a time by their excess over the
        offset, every excess past the largest k in one count.
        """
        beta_env = self.tail_beta if envelope_beta is None else envelope_beta
        check_probability(beta_env, "envelope parameter")
        ks = (1, 2, 3, 5, 8, 13, 21, 34)
        # tally[j]: draws of offset + j, the last entry every draw past offset + ks[-1]
        tally = np.zeros(ks[-1] + 2, dtype=np.int64)
        for _, u in _uniform_chunks(substream(ENVELOPE_SEED, 77), ENVELOPE_SAMPLES):
            tally += np.bincount(np.minimum(self.inverse_cdf(u) - self.offset, ks[-1] + 1),
                                 minlength=len(tally))
        # the largest excess, capped where no k reads past it
        kmax = int(min(np.flatnonzero(tally)[-1], 2 + 40 / -math.log(beta_env)))
        for k in ks:
            if k >= max(2, kmax):
                break
            p_hat = int(tally[k + 1:].sum()) / ENVELOPE_SAMPLES
            bound = beta_env**k
            slack = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / ENVELOPE_SAMPLES)
            if p_hat > bound + slack:
                raise ValueError(
                    f"service tail violates envelope at k={k}: {p_hat:.3e} > "
                    f"beta^k={bound:.3e} (+3-sigma slack)"
                )


def simulate_point_queue(svc: ServiceTimeModel, arrival_period: int, horizon: int,
                         seed: int = 0) -> DelayRun:
    """FIFO D/G/1 queue of ``horizon`` messages: message i arrives at i*m, m
    the ``arrival_period``, takes ``service_times[i]`` drawn on
    ``substream(seed, 1)`` and completes at C_i = max(arrival_i, C_{i-1}) +
    T_i.  Every time is at most the last arrival plus the total service; a
    run where that passes the int64 range raises ``ValueError`` naming
    ``arrival_period`` when the last arrival alone does, and the service's
    ``offset`` with it otherwise."""
    check_count(arrival_period, "arrival period must be a positive integer")
    check_count(horizon, "horizon must be a whole number of at least 1 message, got {}")
    m, horizon, seed = int(arrival_period), int(horizon), check_seed(seed)
    t = svc.sample(substream(seed, 1), horizon)
    last, top = m * horizon, np.iinfo(np.int64).max
    if last > top:
        raise ValueError(f"arrival_period {m} is too long for {horizon} messages: the run's "
                         "times would not fit in int64")
    if last + float(t.sum(dtype=float)) > top:
        raise ValueError(f"service offset {svc.offset} with arrival_period {m} is too long "
                         f"for {horizon} messages: the run's times would not fit in int64")
    arrivals = np.arange(1, horizon + 1, dtype=np.int64)
    arrivals *= m
    return DelayRun(arrival_times=arrivals, done_times=fifo_completions(arrivals, t),
                    service_times=t, steady=WARMUP_MESSAGES)


def reduced_rate_exponent(tail_beta: float, slack: int) -> float:
    """E_a^bec(R'') ln 2 [nats per time unit] at reduced rate R'' = 1/slack,
    where the arrival period exceeds the service offset by ``slack``; zero
    without slack or once R'' reaches the unit-capacity boundary 1 - beta.
    A ``tail_beta`` outside (0, 1) raises ``ValueError``."""
    check_probability(tail_beta, "tail parameter")
    if slack < 1:
        return 0.0
    r2 = 1.0 / slack
    if r2 >= 1.0 - tail_beta:
        return 0.0
    return bec_focusing_exponent_bits(tail_beta, r2) * LN2


def tail_exponent_bound(m: int, svc: ServiceTimeModel) -> float:
    """Guaranteed delay-tail exponent [nats per time unit] of the queue with
    arrival period m: ``reduced_rate_exponent`` at slack m - offset.
    Requires m > offset."""
    check_count(m, "arrival period must be a positive integer")
    if m <= svc.offset:
        raise ValueError("arrival period must exceed the service-time offset")
    return reduced_rate_exponent(svc.tail_beta, m - svc.offset)


@dataclass
class DominanceReport:
    samples: int
    violations: int
    max_excess: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def coupled_dominance_check(svc: ServiceTimeModel, samples: int = 1_000_000,
                            envelope_beta: float | None = None) -> DominanceReport:
    """Pathwise coupling against the pure geometric envelope.

    Draws common uniforms V_j and maps them through both inverse CDFs, a
    chunk at a time; a valid model satisfies T_j <= T'_j for every j, so
    any excess flags an invalid ServiceTimeModel.  Only offset-0 models
    compare against the plain geometric; ``envelope_beta`` overrides the
    claimed tail (useful as a negative control: a heavier-tailed sampler
    must be caught).
    """
    if svc.offset != 0:
        raise ValueError("coupling check applies to offset-0 models")
    check_count(samples, "samples must be a positive integer, got {}")
    beta_env = svc.tail_beta if envelope_beta is None else envelope_beta
    check_probability(beta_env, "envelope parameter")
    envelope = ServiceTimeModel(offset=0, tail_beta=beta_env)
    violations, max_excess = 0, 0
    # each uniform is mapped twice: in half chunks both maps fit one map's buffers
    for _, u in _uniform_chunks(substream(DOMINANCE_SEED, 2), samples, CHUNK_LENGTH // 2):
        excess = svc.inverse_cdf(u) - envelope.inverse_cdf(u)
        violations += int(np.count_nonzero(excess > 0))
        max_excess = max(max_excess, int(excess.max()))
    return DominanceReport(samples=samples, violations=violations, max_excess=max_excess)
