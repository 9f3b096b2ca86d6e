"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Monte Carlo comparisons use batch-means
standard errors, since deadline-miss indicators of nearby bits are strongly
correlated through shared busy periods.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import math

import numpy as np
import pytest

from delaylab import bec_lab as bl
from delaylab import dmc, exponents as ex
from delaylab import ncl_scheme as ncl
from delaylab import queue_model as qm
from delaylab.dmc import LN2

HALF_BIT = 0.5 * LN2
LN15 = math.log(1.5)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fifo_10m():
    return bl.simulate_fifo(beta=0.4, rate_bits=0.5, horizon=10_000_000, seed=2027)


def test_criterion_1_bec_closed_forms(bec04):
    esp = ex.sphere_packing(bec04, HALF_BIT)
    foc = ex.focusing_bound(bec04, HALF_BIT)
    ok = (abs(esp - 0.020410997260) <= 1e-6
          and abs(foc - LN15) <= 1e-6
          and foc / esp > 19)
    report("criterion 1", ok,
           f"esp={esp:.9f} (target 0.020411 +-1e-6), focusing={foc:.9f} "
           f"(target ln1.5 +-1e-6), ratio={foc / esp:.2f} (>19)")


def test_criterion_2_parametric_consistency():
    worst = 0.0
    for eta in np.geomspace(0.05, 20, 50):
        rate, e_bits = ex.bec_focusing_point_bits(0.4, float(eta))
        worst = max(worst, abs(ex.bec_anytime_capacity(0.4, e_bits) - rate))
    report("criterion 2", worst <= 1e-9,
           f"50-point parametric/closed-form round trip, worst |error|={worst:.2e} (<=1e-9)")


def test_criterion_3_capacities(bsc002, z05):
    c_bsc = dmc.capacity(bsc002)[0]
    c_z = dmc.capacity(z05)[0]
    ok = abs(c_bsc - 0.595) <= 1e-3 and abs(c_z - 0.223) <= 1e-3
    report("criterion 3", ok,
           f"C(BSC 0.02)={c_bsc:.6f} (0.595 +-0.001), C(Z 0.5)={c_z:.6f} (0.223 +-0.001)")


def test_criterion_4_symmetric_equality_and_z_gap(bsc002, bec04, z05):
    # ten rates per symmetric channel through the haroutunian operation
    worst_sym = 0.0
    for ch, cap in ((bsc002, 0.595), (bec04, 0.4158)):
        for r in np.linspace(0.05 * cap, 0.9 * cap, 10):
            gap = abs(ex.haroutunian(ch, float(r)) - ex.sphere_packing(ch, float(r)))
            worst_sym = max(worst_sym, gap)
    # non-vacuous spot checks: force the channel search past the fast path
    for ch, r in ((bsc002, 0.3), (bec04, HALF_BIT)):
        gap = abs(ex._haroutunian_general(ch, r)
                  - ex.sphere_packing(ch, r))
        worst_sym = max(worst_sym, gap)
    # strict gap for the asymmetric Z-channel at mid rates
    z_gaps = [ex.haroutunian(z05, r) - ex.sphere_packing(z05, r)
              for r in (0.08, 0.12)]
    ok = worst_sym <= 1e-3 and max(z_gaps) >= 1e-3
    report("criterion 4", ok,
           f"symmetric |E+ - Esp| worst={worst_sym:.2e} (<=1e-3, search included), "
           f"Z-channel gap={max(z_gaps):.4f} (>=1e-3)")


def test_criterion_5_fifo_simulator(fifo_10m):
    # (a) queue law against the birth-death stationary distribution
    samples = bl.queue_seen_by_arrivals(fifo_10m)[fifo_10m.steady:]
    stat, pvalue = bl.queue_law_chisquare(samples, 0.4)
    # (b) miss probability at d=7 against (2/3)^7
    p7, se7 = bl.miss_probability(fifo_10m, 7)
    z7 = abs(p7 - (2 / 3) ** 7) / se7
    # (c) regression exponent over d in {10..40}
    fit = bl.measure_delay_exponent(fifo_10m, range(10, 41, 2))
    rel = abs(fit.slope - LN15) / LN15
    ok = pvalue > 0.01 and z7 <= 3 and rel <= 0.10
    report("criterion 5", ok,
           f"(a) chi2 p={pvalue:.3f} (>0.01); (b) miss(7)={p7:.5f} vs {(2/3)**7:.5f}, "
           f"|z|={z7:.2f} (<=3 batch-means sigma); (c) slope={fit.slope:.4f} vs "
           f"ln1.5={LN15:.4f}, rel err={rel:.3f} (<=0.10)")


def test_criterion_6_union_bound(fifo_10m):
    dominated = True
    details = []
    for d in (8, 12, 16, 20):
        p, se = bl.miss_probability(fifo_10m, d)
        ub = bl.union_bound_exact(0.4, 0.5, 200, d)
        dominated &= ub >= p - 3 * se
        details.append(f"d={d}: ub={ub:.5f} emp={p:.5f}")
    ds = np.arange(20, 61, 5)
    ubs = [bl.union_bound_exact(0.4, 0.5, 200, int(d)) for d in ds]
    slope = float(np.polyfit(ds, -np.log(ubs), 1)[0])
    slope_ok = abs(slope - LN15) <= 0.10 * LN15
    report("criterion 6", dominated and slope_ok,
           "; ".join(details) + f"; log-slope={slope:.4f} vs ln1.5 (10%)")


def test_criterion_7_corollary_suite():
    clean = [qm.ServiceTimeModel(0, 0.4), qm.ServiceTimeModel(0, 0.4, cap=3)]
    violations = [qm.coupled_dominance_check(s, samples=1_000_000).violations
                  for s in clean]
    negative = qm.coupled_dominance_check(qm.ServiceTimeModel(0, 0.5),
                                          samples=200_000, envelope_beta=0.4)
    svc = qm.ServiceTimeModel(2, 0.25)
    bound = qm.tail_exponent_bound(5, svc)
    tr = qm.simulate_point_queue(svc, 5, 2_000_000, seed=41)
    fit = bl.measure_delay_exponent(tr, range(6, 40, 3), 50)
    ok = (max(violations) == 0 and negative.violations > 0
          and fit.slope >= bound * 0.85)
    report("criterion 7", ok,
           f"coupling violations={violations} (all 0), negative control "
           f"caught={negative.violations > 0}, measured={fit.slope:.4f} >= "
           f"0.85*bound={0.85 * bound:.4f}")


def test_criterion_8_exact_tiny(bsc002):
    e0, q = ex.e0_max(bsc002, 1.0)
    params = ncl.NclParams(n=2, c=2, l=1, k=3, rho=1.0, q=q,
                           rate=math.log(8) / 12, e0=e0)
    trace = ncl.simulate_ncl_exact_tiny(bsc002, params, 100_000, seed=77)
    chunks = trace.service_times // params.ck
    offset = math.ceil(params.t_tilde)
    tails_ok = True
    details = []
    for t in (1, 2, 3, 4):
        emp = float((chunks > offset + t).mean())
        bound = ncl.transmission_tail_bound(params, t)
        se = math.sqrt(max(bound * (1 - bound), 1e-12) / len(chunks))
        tails_ok &= emp <= bound + 3 * se
        details.append(f"t={t}: emp={emp:.2e} bound={bound:.2e}")
    report("criterion 8", tails_ok,
           "no committed error is possible (error-free control slots); "
           "over 1e5 blocks " + "; ".join(details))


def test_criterion_9_theorem5_identities(bsc002):
    e0_one = ex.e0_max(bsc002, 1.0)[0]
    worst = 0.0
    for rho in np.geomspace(0.1, 8.0, 20):
        e0_rho = ex.e0_max(bsc002, float(rho))[0]
        psi = e0_rho / (e0_one + e0_rho)
        worst = max(worst, abs(psi * e0_one - (1 - psi) * e0_rho))
    cap = dmc.capacity(bsc002)[0]
    r_end, e_end = ex.timesharing_exponent(bsc002, 1e-4)
    slope = ex.capacity_slope_timesharing(bsc002)
    r1, e1 = ex.timesharing_exponent(bsc002, 0.004)
    r2, e2 = ex.timesharing_exponent(bsc002, 0.008)
    fd = (e2 - e1) / (r2 - r1)
    ok = (worst <= 1e-9 and abs(r_end - cap) <= 1e-3 and e_end <= 1e-3
          and abs(fd - slope) <= 0.01 * abs(slope))
    report("criterion 9", ok,
           f"balance identity worst={worst:.2e} (<=1e-9); endpoint "
           f"(R,E')=({r_end:.4f},{e_end:.5f}) -> (C,0); slope fd={fd:.4f} vs "
           f"formula={slope:.4f} (1%)")


def test_criterion_10_curve_ordering(bsc002):
    cap = dmc.capacity(bsc002)[0]
    rates = np.linspace(0.02, 0.98 * cap, 50)
    ts_beats_esp = 0
    for r in rates:
        r = float(r)
        er = ex.random_coding_list(bsc002, r, 1)
        esp = ex.sphere_packing(bsc002, r)
        foc = ex.focusing_bound(bsc002, r)
        ts = ex.bound_at_rate(bsc002, "timesharing", r)
        assert er <= esp + 1e-9, f"er > esp at {r}"
        assert esp <= foc + 1e-9, f"esp > focusing at {r}"
        assert ts <= foc + 1e-9, f"timesharing > focusing at {r}"
        if r > 0.7 * cap and ts > esp + 1e-9:
            ts_beats_esp += 1
    report("criterion 10", ts_beats_esp > 0,
           f"ordering er<=esp<=focusing and timesharing<=focusing at 50 rates; "
           f"timesharing beats esp at {ts_beats_esp} high-rate points")


def test_criterion_11_numerical_hygiene(bsc002, bec04, z05, random_channels):
    rng = np.random.default_rng(123)
    worst_concavity = 0.0
    for _ in range(100):
        ch = random_channels[rng.integers(len(random_channels))]
        q = rng.dirichlet(np.ones(ch.input_size))
        r1, r2 = rng.uniform(0.0, 6.0, 2)
        th = rng.uniform()
        gap = (th * ex.gallager_e0(ch, r1, q) + (1 - th) * ex.gallager_e0(ch, r2, q)
               - ex.gallager_e0(ch, th * r1 + (1 - th) * r2, q))
        worst_concavity = max(worst_concavity, gap)
    worst_grad = 0.0
    for ch in (bsc002, bec04, z05):
        c, q = dmc.capacity(ch)
        h = 1e-4
        d = (ex.gallager_e0(ch, h, q) - ex.gallager_e0(ch, 0.0, q)) / h
        worst_grad = max(worst_grad, abs(d - c))
    ok = worst_concavity <= 1e-9 and worst_grad <= 1e-4
    report("criterion 11", ok,
           f"E0 concavity violation={worst_concavity:.2e} (<=1e-9); "
           f"|dE0/drho(0) - C| worst={worst_grad:.2e} (<=1e-4)")
