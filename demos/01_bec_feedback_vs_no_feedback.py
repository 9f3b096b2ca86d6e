#!/usr/bin/env python3
"""The erasure-channel story: why feedback changes the delay game.

A BEC(0.4) at rate 1/2 bit per use.  A fixed-block-length code, with or
without feedback, decays at the sphere-packing exponent ~0.02 nats per use.
The trivial repeat-until-received FIFO scheme with feedback reaches ln 1.5
~ 0.405 per unit *delay*: about twenty times better.

This script runs the FIFO scheme and the idealized feedback-free causal
parity code on the same erasure pattern, then compares their deadline
behavior and checks the queue against its birth-death steady state.
"""

import math

import numpy as np

from delaylab import bec_lab as bl
from delaylab import exponents as ex
from delaylab.dmc import LN2, bec

HALF_BIT = 0.5 * LN2

print("=== bounds ===")
channel = bec(0.4)
esp = ex.sphere_packing(channel, HALF_BIT)
foc = ex.focusing_bound(channel, HALF_BIT)
print(f"block/sphere-packing exponent at 1/2 bit: {esp:.6f} nats/use")
print(f"fixed-delay exponent with feedback:       {foc:.6f} nats/delay"
      f"  (= ln 1.5, ratio {foc / esp:.1f}x)")

print("\n=== simulation, shared erasure pattern ===")
cfg = bl.BecConfig(beta=0.4, rate_bits=0.5, horizon=2_000_000, seed=11)
fifo = bl.simulate_fifo(cfg)
parity = bl.simulate_causal_parity_nofeedback(cfg)

# the parity decoder frees its whole group exactly when the FIFO backlog
# empties, so both backlogs vanish at the same instants
empty_fifo = fifo.series()["queue_len"] == 0
empty_parity = parity.series()["queue_len"] == 0
print("parity backlog empties exactly when the FIFO queue does: "
      f"{np.array_equal(empty_fifo, empty_parity)}")
print("no bit decodes earlier without feedback: "
      f"{bool(np.all(parity.done_times >= fifo.done_times))}")

pi = bl.birth_death_stationary(0.4, kmax=8)
samples = bl.queue_seen_by_arrivals(fifo)[fifo.steady:]
print("queue law (backlog seen by arrivals) vs birth-death pi_i:")
for k in range(5):
    print(f"  k={k}: empirical {np.mean(samples == k):.4f}   pi = {pi[k]:.4f}")

print("\ndeadline misses (deadline d in channel uses):")
print(f"{'d':>4} {'FIFO':>10} {'(2/3)^d':>10} {'no-feedback':>12}")
for d in (8, 12, 16, 20):
    p_fifo, _ = bl.miss_probability(fifo, d)
    p_par, _ = bl.miss_probability(parity, d)
    print(f"{d:>4} {p_fifo:>10.5f} {(2/3)**d:>10.5f} {p_par:>12.5f}")

fit = bl.measure_delay_exponent(fifo, range(10, 41, 2))
print(f"\nmeasured FIFO delay exponent: {fit.slope:.4f} "
      f"(CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}]), ln 1.5 = {math.log(1.5):.4f}")

print("\nunion-bound sanity (exact binomial sum, bit 200):")
for d in (12, 20, 30):
    ub = bl.union_bound_exact(0.4, 0.5, 200, d)
    print(f"  d={d}: bound {ub:.6f} >= stationary miss {(2/3)**d:.6f}")
