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
from dataclasses import dataclass, field

import numpy as np

from .bec_lab import DelayExponentFit, fit_delay_exponent, substream
from .dmc import LN2
from .exponents import bec_focusing_exponent_bits


@dataclass(frozen=True)
class ServiceTimeModel:
    """Integer service times with a certified geometric tail envelope.

    ``kind`` selects the shipped sampler: "geometric" (support 1, 2, ...),
    "offset_geometric" (offset + geometric), or "truncated_geometric"
    (min(geometric, cap), same envelope).  Construction validates the
    envelope P(T > offset + k) <= beta^k empirically on 10^6 draws with
    three-sigma slack, so an invalid model fails fast.
    """

    offset: int
    tail_beta: float
    kind: str = "geometric"
    cap: int | None = None
    validate: bool = True

    def __post_init__(self):
        if not 0 < self.tail_beta < 1:
            raise ValueError("tail parameter must lie in (0, 1)")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.kind not in ("geometric", "offset_geometric", "truncated_geometric"):
            raise ValueError(f"unknown service-time kind: {self.kind}")
        if self.kind == "truncated_geometric" and (self.cap is None or self.cap < 1):
            raise ValueError("truncated model needs a positive cap")
        if self.validate:
            self.check_envelope()

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Quantile transform of the sampler, shared-uniform couplings included."""
        u = np.asarray(u, dtype=float)
        geo = np.ceil(np.log1p(-u) / math.log(self.tail_beta)).astype(np.int64)
        geo = np.maximum(geo, 1)
        if self.kind == "geometric":
            return geo
        if self.kind == "offset_geometric":
            return self.offset + geo
        return np.minimum(geo, self.cap)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.inverse_cdf(rng.random(size))

    def check_envelope(self, n: int = 1_000_000, seed: int = 20_260_101,
                       envelope_beta: float | None = None,
                       envelope_offset: int | None = None) -> None:
        """Empirical complementary CDF must stay under beta^k beyond the offset.

        The envelope defaults to the model's declared (offset, beta); passing
        an explicit envelope turns this into a generic conformance check.
        """
        beta_env = self.tail_beta if envelope_beta is None else envelope_beta
        off_env = self.offset if envelope_offset is None else envelope_offset
        t = self.sample(substream(seed, 77), n)
        kmax = int(min(t.max() - off_env, 2 + 40 / -math.log(beta_env)))
        for k in (1, 2, 3, 5, 8, 13, 21, 34):
            if k >= max(2, kmax):
                break
            p_hat = float((t > off_env + k).mean())
            bound = beta_env**k
            slack = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / n)
            if p_hat > bound + slack:
                raise ValueError(
                    f"service tail violates envelope at k={k}: {p_hat:.3e} > "
                    f"beta^k={bound:.3e} (+3-sigma slack)"
                )


def geometric_service(beta: float) -> ServiceTimeModel:
    return ServiceTimeModel(offset=0, tail_beta=beta, kind="geometric")


def offset_geometric_service(offset: int, beta: float) -> ServiceTimeModel:
    return ServiceTimeModel(offset=offset, tail_beta=beta, kind="offset_geometric")


def truncated_geometric_service(beta: float, cap: int) -> ServiceTimeModel:
    return ServiceTimeModel(offset=0, tail_beta=beta, kind="truncated_geometric", cap=cap)


@dataclass
class QueueConfig:
    arrival_period: int  # m time units between point messages
    horizon: int         # number of messages
    seed: int = 0

    def __post_init__(self):
        if self.arrival_period < 1:
            raise ValueError("arrival period must be a positive integer")
        if self.horizon < 1:
            raise ValueError("need at least one message")


@dataclass
class QueueTrace:
    arrival_times: np.ndarray
    completion_times: np.ndarray
    service_times: np.ndarray
    meta: dict = field(default_factory=dict)

    def delays(self) -> np.ndarray:
        return self.completion_times - self.arrival_times

    def waiting_times(self) -> np.ndarray:
        return self.completion_times - self.service_times - self.arrival_times


def fifo_completions(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """FIFO completions C_i = max(a_i, C_{i-1}) + T_i from an idle start, as the
    prefix maximum C_i = S_i + max_{k<=i} (a_k - S_{k-1}), S_i = T_1 + ... + T_i."""
    csum = np.cumsum(service)
    return csum + np.maximum.accumulate(arrivals - (csum - service))


def simulate_point_queue(cfg: QueueConfig, svc: ServiceTimeModel) -> QueueTrace:
    """FIFO D/G/1 queue: message i arrives at i*m and completes at
    C_i = max(arrival_i, C_{i-1}) + T_i."""
    arrivals = cfg.arrival_period * np.arange(1, cfg.horizon + 1, dtype=np.int64)
    t = svc.sample(substream(cfg.seed, 1), cfg.horizon)
    return QueueTrace(
        arrival_times=arrivals,
        completion_times=fifo_completions(arrivals, t),
        service_times=t,
        meta={"arrival_period": cfg.arrival_period, "seed": cfg.seed,
              "offset": svc.offset, "tail_beta": svc.tail_beta},
    )


def tail_exponent_bound(m: int, svc: ServiceTimeModel) -> float:
    """Guaranteed delay-tail exponent E_a^bec(R'') ln 2 [nats per time unit]
    at reduced rate R'' = 1/(m - offset).  Requires m > offset; zero when the
    reduced rate reaches the unit-capacity boundary."""
    if m <= svc.offset:
        raise ValueError("arrival period must exceed the service-time offset")
    r2 = 1.0 / (m - svc.offset)
    if r2 >= 1.0 - svc.tail_beta:
        return 0.0
    return bec_focusing_exponent_bits(svc.tail_beta, r2) * LN2


def measured_tail_exponent(trace: QueueTrace, d_grid, min_misses: int = 50) -> DelayExponentFit:
    """Delay-tail exponent (nats per time unit) after the first 100 messages."""
    return fit_delay_exponent(trace.delays()[100:], d_grid, min_misses)


@dataclass
class DominanceReport:
    samples: int
    violations: int
    max_excess: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def coupled_dominance_check(svc: ServiceTimeModel, samples: int = 1_000_000,
                            seed: int = 0, envelope_beta: float | None = None) -> DominanceReport:
    """Pathwise coupling against the pure geometric envelope.

    Draws common uniforms V_j and maps them through both inverse CDFs; a
    valid model satisfies T_j <= T'_j for every j, so any excess flags an
    invalid ServiceTimeModel.  Only offset-0 models compare against the
    plain geometric; ``envelope_beta`` overrides the claimed tail (useful as
    a negative control: a heavier-tailed sampler must be caught).
    """
    if svc.offset != 0:
        raise ValueError("coupling check applies to offset-0 models")
    beta_env = svc.tail_beta if envelope_beta is None else envelope_beta
    u = substream(seed, 2).random(samples)
    t = svc.inverse_cdf(u)
    t_geo = geometric_service(beta_env).inverse_cdf(u)
    excess = t - t_geo
    return DominanceReport(
        samples=samples,
        violations=int((excess > 0).sum()),
        max_excess=int(max(0, excess.max())),
    )
