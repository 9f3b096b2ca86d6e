"""Implementations the program replaced, kept as test oracles.

The rho solvers the bounds used before the slope-driven ones: golden section
on E0(rho) - rho R for the sphere-packing and list-decoding exponents, and
fixed-count bisections for the focusing, time-sharing and erasure-channel
inversions.  The bisections stop once lo and hi are adjacent floats: when
the root lies inside the bracket, every later step re-evaluates lo or hi and
changes nothing, so the result is the one the fixed 200- or 300-step loops
returned.

The simulation trace writer that formatted one value at a time.
"""

import math

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
    if r < ex.zero_error_feedback_capacity(p, fortify_k) - 1e-12:
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
    if r < ex.zero_error_feedback_capacity(p, fortify_k) - 1e-12:
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
