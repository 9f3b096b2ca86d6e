#!/usr/bin/env python3
"""D/G/1 point-message queues and their guaranteed delay tails.

Point messages arrive every m time units and are served independently with
times dominated by offset + geometric(beta).  The delay tail then decays at
least at the erasure-channel fixed-delay exponent evaluated at the reduced
rate 1/(m - offset) -- the queue inherits the communication bound.
"""

import math

import numpy as np

from delaylab import queue_model as qm
from delaylab.bec_lab import measure_delay_exponent

print("=== pathwise dominance coupling ===")
for name, svc in [("geometric(0.4)", qm.ServiceTimeModel(offset=0, tail_beta=0.4)),
                  ("min(geometric, 3)", qm.ServiceTimeModel(offset=0, tail_beta=0.4, cap=3))]:
    rep = qm.coupled_dominance_check(svc, samples=500_000)
    print(f"{name:>20}: violations={rep.violations} (valid model)")

bad = qm.coupled_dominance_check(qm.ServiceTimeModel(offset=0, tail_beta=0.5), samples=200_000,
                                 envelope_beta=0.4)
print(f"{'negative control':>20}: violations={bad.violations} "
      "(geometric(0.5) against a beta=0.4 envelope, correctly caught)")

print("\n=== tail exponents: measured vs guaranteed ===")
cases = [
    ("m=2, geometric(0.4)   [the rate-1/2 BEC in disguise]",
     qm.ServiceTimeModel(offset=0, tail_beta=0.4), 2),
    ("m=5, 2 + geometric(0.25)", qm.ServiceTimeModel(offset=2, tail_beta=0.25), 5),
    ("m=3, 1 + geometric(0.3)", qm.ServiceTimeModel(offset=1, tail_beta=0.3), 3),
]
for label, svc, m in cases:
    bound = qm.tail_exponent_bound(m, svc)
    tr = qm.simulate_point_queue(svc, m, 2_000_000, seed=5)
    # keep the regression window where misses are countable at this horizon
    top = max(3 * m, int(14 / max(bound, 0.1)))
    fit = measure_delay_exponent(tr, range(m + 1, top, max(1, m // 2)), 50)
    print(f"{label}")
    print(f"    guaranteed {bound:.4f} nats/unit, measured {fit.slope:.4f} "
          f"(CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}])")

print("\nno-slack edge: m = offset + 1 pushes the reduced rate to the "
      f"unit-capacity boundary -> bound = "
      f"{qm.tail_exponent_bound(3, qm.ServiceTimeModel(offset=2, tail_beta=0.25)):.1f}")
