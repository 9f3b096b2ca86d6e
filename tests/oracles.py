"""Implementations the program replaced, kept as test oracles.

The rho solvers the bounds used before the slope-driven ones: golden section
on E0(rho) - rho R for the sphere-packing and list-decoding exponents, and
fixed-count bisections for the focusing, time-sharing and erasure-channel
inversions.  The bisections stop once lo and hi are adjacent floats: when
the root lies inside the bracket, every later step re-evaluates lo or hi and
changes nothing, so the result is the one the fixed 200- or 300-step loops
returned.

The simulation trace writer that formatted one value at a time.

Independent references for the standard Haroutunian exponent: 50-digit
mpmath values on Z(0.5), and a scipy Nelder-Mead search of its convex form
over the output law.  For the tilde variant on Z channels, a bisection on
the mimicking channel's crossover.
"""

import math

import numpy as np

from delaylab import exponents as ex
from delaylab.cli import _fmt
from delaylab.dmc import ConvergenceError
from delaylab.optimize import maximize_concave_1d


def bisect(above, lo, hi, steps):
    """Bisection keeping above(lo) true and above(hi) false; (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def golden_esp(p, r, fortify_k=None, rho_max=ex.RHO_MAX):
    """sup_rho [E0(rho) - rho R] by golden section, with the fourfold
    bracket expansion of ``exponents.sphere_packing``."""
    if r < ex.divergence_rate(p, fortify_k) - 1e-12:
        return math.inf

    def bracket(rho):
        return ex.e0_max(p, rho, fortify_k)[0] - rho * r

    lo, hi = 0.0, rho_max
    while True:
        res = maximize_concave_1d(bracket, lo, hi, tol=1e-9)
        if res.argmax <= 0.98 * hi or bracket(hi) <= bracket(0.9 * hi):
            return max(0.0, res.value)
        if hi >= 1e8:
            raise ConvergenceError("sphere-packing maximizer beyond rho = 1e8",
                                   bracket(hi) - bracket(0.9 * hi))
        lo, hi = 0.9 * hi, 4.0 * hi


def golden_erl(p, r, list_size=1, fortify_k=None):
    """max_{0 <= rho <= L} [E0(rho) - rho R] by golden section."""
    res = maximize_concave_1d(lambda rho: ex.e0_max(p, rho, fortify_k)[0] - rho * r,
                              0.0, float(list_size), tol=1e-10)
    return max(0.0, res.value)


def bisect_focusing(p, r, fortify_k=None, rho_max=ex.RHO_MAX):
    """The symmetric-channel focusing bound eta R, with E0(eta)/eta = R
    solved by bisection on [1e-9, hi] after the fourfold expansion of hi."""
    cap = ex._cached_capacity(p)[0] + ex._fortification_rate(fortify_k)
    if r >= cap:
        return 0.0
    if r < ex.divergence_rate(p, fortify_k) - 1e-12:
        return math.inf
    hi = rho_max
    while ex.e0_max(p, hi, fortify_k)[0] / hi > r and hi < 1e8:
        hi *= 4.0
    lo, hi = bisect(lambda eta: ex.e0_max(p, eta, fortify_k)[0] / eta > r, 1e-9, hi, 200)
    return 0.5 * (lo + hi) * r


def bisect_timesharing(p, r, fortify_k=None, rho_max=ex.RHO_MAX):
    """The two-stream exponent at rate R: E'(rho)/rho = R by bisection on
    [1e-9, hi] after the fourfold expansion of hi."""
    if r >= ex._cached_capacity(p)[0] + ex._fortification_rate(fortify_k):
        return 0.0
    e_one = ex.e0_max(p, 1.0, fortify_k)[0]

    def point(rho):
        return ex._timesharing_point(ex.e0_max(p, rho, fortify_k)[0], e_one, rho)

    hi = rho_max
    while point(hi)[0] > r and hi < 1e8:
        hi *= 4.0
    lo, hi = bisect(lambda rho: point(rho)[0] > r, 1e-9, hi, 200)
    return point(0.5 * (lo + hi))[1]


def bisect_bec_focusing_bits(beta, rate_bits):
    """``exponents.bec_focusing_exponent_bits`` by its 300-step bisection."""
    if rate_bits <= 0:
        return math.inf
    if rate_bits >= 1.0 - beta:
        return 0.0
    hi = 64.0
    while ex.bec_focusing_point_bits(beta, hi)[0] > rate_bits and hi < 1e9:
        hi *= 4.0
    lo, hi = bisect(lambda eta: ex.bec_focusing_point_bits(beta, eta)[0] > rate_bits,
                    1e-12, hi, 300)
    return 0.5 * (lo + hi) * rate_bits


def row_loop_trace_csv(path, header, rows_by_trial):
    """``cli._write_trace_csv`` as a loop over rows of Python values: floats
    through ``cli._fmt``, everything else through ``str``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for trial, rows in enumerate(rows_by_trial):
            for row in rows:
                fh.write(f"{trial}," + ",".join(_fmt(v) if isinstance(v, float)
                                                else str(v) for v in row) + "\n")


def z05_haroutunian_mp(rate, form):
    """E+(R) of Z(0.5) to 50 digits, as an mpmath number.

    ``form`` "primal": the mimicking channel keeps row 0 by absolute
    continuity, so it is Z(b), and E+ = ln 2 - H(b) at the b in (1/2, 1)
    with C(Z(b)) = ln(1 + (1-b) b^(b/(1-b))) = R.
    ``form`` "dual": e_1(q, R) at the output law q = (e^-R, 1 - e^-R), where
    the constraint q_0 >= e^-R of row 0 is active; the tilted row
    v ∝ (1/2)^(1-t) q^t ∝ q^t has D(v || q) = R, and E+ = ln 2 - H(v).
    """
    import mpmath as mp

    with mp.workdps(50):
        r = mp.mpf(rate)

        def neg_entropy(b):
            return b * mp.log(b) + (1 - b) * mp.log(1 - b)

        if form == "primal":
            def excess(b):
                return mp.log(1 + (1 - b) * b ** (b / (1 - b))) - r
            b = mp.findroot(excess, (mp.mpf("0.5") + mp.mpf(10) ** -40,
                                     1 - mp.mpf(10) ** -40), solver="anderson")
            return mp.log(2) + neg_entropy(b)
        q0 = mp.exp(-r)
        q1 = 1 - q0

        def tilted(t):
            return q0 ** t / (q0 ** t + q1 ** t)

        def excess(t):
            v = tilted(t)
            return v * mp.log(v / q0) + (1 - v) * mp.log((1 - v) / q1) - r
        t = mp.findroot(excess, (mp.mpf(0), mp.mpf(1)), solver="anderson")
        return mp.log(2) + neg_entropy(tilted(t))


def _row_exponent_scipy(prow, q, r):
    """sup_{rho >= 0} -(1+rho) ln sum_{y in T} P(y)^(1/(1+rho)) q(y)^(rho/(1+rho)) - rho R
    for one row P with support T, by brentq on its rho-derivative
    D(v_rho || q) - R after doubling the bracket; +inf when q(T) < e^-R."""
    from scipy.optimize import brentq

    t = prow > 0
    p, q = prow[t], q[t]
    if -math.log(q.sum()) >= r:
        return math.inf

    def value(rho):
        a = 1.0 / (1.0 + rho)
        return -(1.0 + rho) * math.log(np.sum(p ** a * q ** (1.0 - a))) - rho * r

    def slope(rho):
        a = 1.0 / (1.0 + rho)
        v = p ** a * q ** (1.0 - a)
        v /= v.sum()
        return float(np.sum(v * np.log(v / q))) - r

    if slope(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while slope(hi) > 0.0:
        hi *= 2.0
    return value(brentq(slope, 0.0, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps))


def nelder_mead_haroutunian(p, r):
    """min_q max_x e_x(q, R) over the output simplex by scipy Nelder-Mead on
    the first |Y| - 1 coordinates (+inf outside the simplex), restarted from
    its own result until the value stops improving."""
    from scipy.optimize import minimize

    rows = np.asarray(p.rows)

    def objective(z):
        q = np.append(z, 1.0 - z.sum())
        if q.min() <= 0.0:
            return math.inf
        return max(_row_exponent_scipy(row, q, r) for row in rows)

    z = np.full(rows.shape[1] - 1, 1.0 / rows.shape[1])
    best = objective(z)
    for _ in range(20):
        res = minimize(objective, z, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 4000})
        if not res.fun < best - 1e-16:
            break
        z, best = res.x, res.fun
    return best


def z_information_mp(s, g):
    """I((s, 1-s), Z(g)) of the Z channel [[1, 0], [g, 1-g]], in mpmath."""
    import mpmath as mp

    def h(a):
        return -sum(x * mp.log(x) for x in (a, 1 - a) if x > 0)

    return h(s + (1 - s) * g) - (1 - s) * h(g)


def z_tilde_bisection(g0, rate, s_lo, s_hi, steps=120):
    """The tilde Haroutunian exponent of Z(g0), given S = [s_lo, s_hi], the
    input laws (s, 1-s) with I(s, Z(g0)) >= R, in mpmath.

    A mimicking channel keeps row 0 = (1, 0), by absolute continuity, so it
    is Z(g), at divergence D((g, 1-g) || (g0, 1-g0)).  Z(g) is Z(g') followed
    by Z((g - g') / (1 - g')) for g > g', so it is degraded in g: every
    I(s, Z(g)) falls as g grows, and so does their maximum over S, while
    for g < g0 that maximum exceeds max_S I(s, Z(g0)) >= R.  Tilde is
    therefore the divergence at the smallest g >= g0 with
    max_{s in S} I(s, Z(g)) <= R, found by bisection.  The maximum over S of
    the concave I(., Z(g)) clamps its stationary point
    s* = (y* - g) / (1 - g), y* = 1 / (1 + e^(-h(g) / (1-g))), to S.
    """
    import mpmath as mp

    with mp.workdps(40):
        g0, r = mp.mpf(g0), mp.mpf(rate)
        s_lo, s_hi = mp.mpf(s_lo), mp.mpf(s_hi)

        def max_info(g):
            hg = -(g * mp.log(g) + (1 - g) * mp.log(1 - g))
            y = 1 / (1 + mp.exp(-hg / (1 - g)))
            s = min(max((y - g) / (1 - g), s_lo), s_hi)
            return z_information_mp(s, g)

        lo, hi = g0, mp.mpf(1) - mp.mpf(10) ** -30
        for _ in range(steps):
            mid = (lo + hi) / 2
            if max_info(mid) <= r:
                hi = mid
            else:
                lo = mid
        return hi * mp.log(hi / g0) + (1 - hi) * mp.log((1 - hi) / (1 - g0))
