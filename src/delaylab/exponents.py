"""Reliability bounds for DMCs: block-length exponents and fixed-delay exponents.

Every bound is exposed both as a scalar function of (channel, rate) and as a
sampled curve (``bound_curve``, which runs the searches along rho of all its
rates in lockstep).  Rates and exponents are in nats per channel use
throughout; the two erasure-channel helpers that the source formulas state
in bits are explicitly suffixed ``_bits``.

A channel may optionally be "fortified": one error-free bit rides along with
every k-th channel use.  At the level of the Gallager function this adds
rho * ln2 / k, which shifts capacity by ln2 / k and lifts the zero-error
feedback capacity from 0 to ln2 / k; all bounds below accept ``fortify_k``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dmc import (
    CAPACITY_TOL,
    LN2,
    ConvergenceError,
    Dmc,
    c1 as _c1,
    check_count,
    check_probability,
    check_real,
    divergence_rows,
    validate_distribution,
)
from .optimize import (
    CONVEX_TOL,
    EPS,
    NEWTON_NEAR,
    Search1DResult,
    decreasing_root,
    maximize_concave_1d,
    maximize_e0,
    minimize_convex_on_simplex,
    root_steps,
    run_steps,
    slope_argmax_steps,
)

RHO_MAX = 64.0
E0_STENCIL_STEP = 1e-3  # of e0_second_derivative_at_zero
_TINY = float(np.finfo(float).tiny)  # smallest normal double
TILDE_DUAL_STEPS = 1000  # fixed-point steps of ``_tilde_dual_bound``
TILDE_ROUNDOFF_STEPS = 32  # of them, at most, once its slack is at roundoff


def _fortification_rate(fortify_k) -> float:
    """The shift ln2/k of fortification period k, 0 for None: the check of
    ``fortify_k``, which each public call runs once before any E0 read
    (``_e0_point`` adds ln2/k unchecked)."""
    if fortify_k is None:
        return 0.0
    check_count(fortify_k, "fortification period must be a positive integer")
    return LN2 / fortify_k


def gallager_e0(p: Dmc, rho: float, q, fortify_k: int | None = None) -> float:
    """Gallager function E0(rho, q) = -ln sum_y (sum_x q_x p(y|x)^{1/(1+rho)})^{1+rho}.

    When the outer sum underflows (large rho on rows that share no output),
    it is summed in the log domain, scaled by the largest inner term.
    """
    q = validate_distribution(q, p.input_size)
    return _e0_kernel(p, rho, q)[0] + rho * _fortification_rate(fortify_k)


def _e0_kernel(p: Dmc, rho: float, q: np.ndarray) -> tuple[float, float]:
    """(E0(rho, q), dE0(rho, q)/drho) without fortification for a rho >= 0
    and a validated ``q``, from one W = P^(1/(1+rho)): the one E0 formula,
    which every E0 evaluation of this module runs once (``gallager_e0``,
    ``e0_max``, ``_e0_point``), and the one slope formula (``e0_slope``).
    W > 0 exactly where P > 0: P^s >= P for s = 1/(1+rho) in (0, 1], so no
    positive entry underflows.  rho must be finite and nonnegative, which
    nan is not."""
    check_real(rho, "rho must be finite" if rho == math.inf else "rho must be nonnegative",
               0.0, ends="[)")
    w = p.rows ** (1.0 / (1.0 + rho))
    w_log_w = w * np.log(w, where=p.support, out=np.zeros(w.shape))
    a = q @ w
    reached = a > 0
    a = a[reached]
    weights = (a / a.max()) ** (1.0 + rho)
    terms = np.log(a) - (q @ w_log_w)[reached] / a
    slope = -float(weights @ terms) / float(weights.sum())
    if rho == 0:
        return 0.0, slope
    inner = (q[:, None] * w).sum(axis=0)
    total = float((inner ** (1.0 + rho)).sum())
    if total >= _TINY:
        return -math.log(total), slope
    top = float(inner.max())
    return -(1.0 + rho) * math.log(top) - math.log(
        float(((inner / top) ** (1.0 + rho)).sum())), slope


def e0_max(p: Dmc, rho: float, fortify_k: int | None = None) -> tuple[float, np.ndarray]:
    """E0(rho) = max_q E0(rho, q) with an achieving input distribution.

    Output-symmetric channels take the uniform-input fast path.  Otherwise
    ``optimize.maximize_e0`` runs: safeguarded Newton steps on the convex
    F(q) = exp(-E0(rho, q)) with an Arimoto fallback, stopped once its
    Hoelder certificate puts the value within 1e-12 of the maximum, or
    within the solver's roundoff floor max(8 |Y|, 1+rho) (1+rho) eps where
    that is larger (beyond rho = 64, or for more than 8 outputs); it raises
    ``ConvergenceError`` with the certificate gap when it cannot.  A
    two-input channel starts at F's minimizer on its segment of inputs,
    which is certified as it stands in nearly every case and is within
    about (1+rho) eps of the maximum up to rho = 1e8 (50-digit checks),
    also where the floor passes 1 and certifies nothing; other channels
    start at the uniform input.  The
    input is stored with the channel's E0 point (``_e0_point``), solved
    once per channel and rho; the uniform one is ``Dmc.uniform``.
    """
    _e0_point(p, rho)
    q = p.e0_points[rho][2]
    return gallager_e0(p, rho, q, fortify_k), q


def e0_slope(p: Dmc, rho: float, q, fortify_k: int | None = None) -> float:
    """The exact partial derivative dE0(rho, q)/drho at fixed ``q``.

    With a = q P^(1/(1+rho)) and a' its rho-derivative it is
        -sum_y a_y^(1+rho) [ln a_y + (1+rho) a'_y / a_y] / sum_y a_y^(1+rho)
    plus ln2/k under fortification, where (1+rho) a' = -q (W ln W) with
    W = P^(1/(1+rho)).  At rho = 0 it is I(q, P).  By the envelope theorem
    it is also d max_q E0/drho at a maximizing q (Arimoto 1976).  The
    weights a^(1+rho) / sum a^(1+rho) are formed from a / max(a), so they
    cannot underflow together at large rho.
    """
    q = validate_distribution(q, p.input_size)
    return _e0_kernel(p, rho, q)[1] + _fortification_rate(fortify_k)


def _e0_point(p: Dmc, rho: float, fortify_k: int | None = None) -> tuple[float, float]:
    """(max_q E0(rho), its rho-derivative), fortified by ``fortify_k``: the
    one read of the channel's store ``Dmc.e0_points``.  A rho the store
    lacks is solved here (``_e0_kernel`` checks it) and stored, with its
    maximizing input and without fortification, which is added on read: E0 gains rho ln2/k and
    the slope ln2/k.  ``fortify_k`` is not checked here, on every read, but
    once per public call, by ``_fortification_rate``.  The sums are taken
    also when the shift is 0.0, which turns the E0 of -0.0 of a channel with
    equal rows into 0.0.

    The input is the channel's uniform one at rho = 0 and on
    output-symmetric channels, ``maximize_e0``'s otherwise; the derivative
    is ``e0_slope`` there, sharing E0's W = P^(1/(1+rho)).  At rho = 0 no
    kernel runs: E0 is 0.0, and the slope, the capacity, which the uniform
    input need not achieve, is taken as max_x D(P(.|x) || qP): an upper
    bound on the capacity, equal to it on output-symmetric channels, which
    the slope searches only test R against (R at or above it is at or
    above capacity)."""
    shift = 0.0 if fortify_k is None else LN2 / fortify_k
    point = p.e0_points.get(rho)
    if point is None:
        if rho == 0:
            q = p.uniform
            e0, slope = 0.0, max(divergence_rows(row, q @ p.rows) for row in p.rows)
        else:
            if p.symmetric:
                q = p.uniform
            else:  # checked as the kernel checks it, before maximize_e0's own check
                check_real(rho, "rho must be finite" if rho == math.inf
                           else "rho must be nonnegative", 0.0, ends="[)")
                q = validate_distribution(maximize_e0(p.rows, rho).q, p.input_size)
                q.flags.writeable = False
            e0, slope = _e0_kernel(p, rho, q)
        p.e0_points[rho] = point = (e0, slope, q)
    return point[0] + rho * shift, point[1] + shift


def _e0_lanes(p: Dmc, rhos) -> None:
    """Store ``_e0_point`` at each rho of ``rhos`` on an output-symmetric
    channel, bit for bit, from one (lanes x inputs x outputs) array
    W = P^(1/(1+rho)).  Each lane runs the scalar kernel's float operations:
    the inputs are summed one after another, as ``_e0_kernel``'s sum over
    its first axis does; the slope's products are the same BLAS calls (a
    stacked ``matmul`` runs ``q @ w`` and ``weights @ terms`` lane by
    lane); E0's final log is ``math.log``, as ``np.log`` differs in the last
    ulp for a few values.  The lanes this cannot reproduce are left to
    ``_e0_point``: rho = 0; 1/(1+rho) = 0.5 or 1+rho = 2, where a scalar
    exponent takes numpy's sqrt or square instead of pow; an outer sum
    below the smallest normal (the kernel's log-domain branch); and an
    output no q W reaches."""
    rho = np.array(rhos, dtype=float)
    check_real(rho.min(), "rho must be nonnegative", 0.0, math.inf, "[]")  # nan if any is
    check_real(rho.max(), "rho must be finite", 0.0, ends="[)")
    power = 1.0 + rho
    s = 1.0 / power
    q = p.uniform
    w = p.rows ** s[:, None, None]
    inner = q[0] * w[:, 0]
    for x in range(1, len(q)):
        inner = inner + q[x] * w[:, x]
    total = (inner ** power[:, None]).sum(axis=1)
    a = q @ w
    b = q @ (w * np.log(w, where=p.support, out=np.zeros(w.shape)))
    reached = (a > 0).all(axis=1)
    scalar = (rho == 0) | (s == 0.5) | (power == 2.0) | (total < _TINY) | ~reached
    a[~reached] = 1.0  # those lanes are left out; this keeps the log finite
    weights = (a / a.max(axis=1, keepdims=True)) ** power[:, None]
    terms = np.log(a) - b / a
    slopes = -(weights[:, None, :] @ terms[:, :, None])[:, 0, 0] / weights.sum(axis=1)
    keep = ~scalar
    for r, t, v in zip(rho[keep].tolist(), total[keep].tolist(), slopes[keep].tolist()):
        p.e0_points[r] = (-math.log(t), v, q)


def e0_second_derivative_at_zero(p: Dmc, fortify_k: int | None = None) -> float:
    """d^2 E0 / drho^2 at rho = 0 for the capacity-achieving q, by the
    forward stencil of step ``E0_STENCIL_STEP``.  Where the stencil is
    positive or within its rounding bound of 0, 4 (|X| + |Y| + 8) eps
    (1 + |E0(2 h)|) / h^2, it is roundoff: nearly noiseless channels leave
    about 2e-10 of it.  There the exact value -V is returned, with V the
    dispersion sum_x q_x sum_y P(y|x) (ln(P(y|x) / (qP)(y)) - C)^2, in
    which a density within ``CAPACITY_TOL`` of C counts as C (C is
    certified to that): V is then exactly 0 at zero dispersion, where
    E0 is linear, as on noiseless channels."""
    (cap, q), h = p.capacity_solution, E0_STENCIL_STEP
    f0 = gallager_e0(p, 0.0, q, fortify_k)
    f1 = gallager_e0(p, h, q, fortify_k)
    f2 = gallager_e0(p, 2 * h, q, fortify_k)
    second = (f2 - 2 * f1 + f0) / h**2
    if second < -4 * (sum(p.rows.shape) + 8) * EPS * (1.0 + abs(f2)) / h**2:
        return second
    used = p.rows[q > 0]
    mask = used > 0
    density = np.log(used[mask] / np.broadcast_to(q @ p.rows, used.shape)[mask]) - cap
    density[np.abs(density) <= CAPACITY_TOL] = 0.0
    return 0.0 - float((q[q > 0][:, None] * used)[mask] @ density**2)  # not -0.0


def divergence_rate(p: Dmc, fortify_k: int | None = None) -> float:
    """R_inf = lim_{rho->inf} E0(rho)/rho, in nats: the rate below which the
    sphere-packing, Haroutunian and focusing exponents are infinite.  As rho
    grows, P^(1/(1+rho)) tends to the support indicator, which gives the
    game of ``Dmc.divergence_rate``, solved once per channel; plus ln2/k
    under fortification."""
    return p.divergence_rate + _fortification_rate(fortify_k)


def zero_error_feedback_capacity(p: Dmc, fortify_k: int | None = None) -> float:
    """Shannon's zero-error capacity with feedback C_{0,f}, in nats.

    It is 0 when every pair of inputs shares an output with positive
    probability (no message can then be sent without error), and
    ``divergence_rate`` otherwise (Shannon 1956); under fortification ln2/k
    is added in both cases.  It can lie below the divergence rate: on the
    circulant [[.653,.347,0],[0,.653,.347],[.347,0,.653]] every pair shares
    an output, so C_{0,f} = 0, while R_inf = ln 1.5.
    """
    if (p.support @ p.support.T).all():  # every pair of rows shares an output
        return _fortification_rate(fortify_k)
    return divergence_rate(p, fortify_k)


def sphere_packing(p: Dmc, r: float, fortify_k: int | None = None) -> float:
    """Sphere-packing exponent sup_{rho >= 0} [E0(rho) - rho R], in nats.

    Returns +inf exactly for rates below ``divergence_rate``, where the
    supremum diverges.  Above it the search starts from dE0/drho at
    rho = 1.  Where that is at most R (at or above Gallager's critical
    rate) concavity puts the maximizer in [0, 1], and the search is random
    coding's (``random_coding_list``, L = 1), so the two are equal bit for
    bit there.  Below it the maximizer lies beyond 1, and the search runs
    on [1, ``RHO_MAX``].  It can still lie far beyond ``RHO_MAX`` (at low
    rates), so the bracket grows fourfold while the objective is still
    climbing at its edge; past 1e8 that raises ``ConvergenceError`` with
    the climb over the bracket's last tenth.  Inside a bracket the
    maximizer is the root of the slope dE0/drho - R
    (``maximize_concave_1d`` with ``slope``).  The expansion test compares
    values, not the sign of the slope: at R = 0 the slope stays positive
    (about 1e-16) at any rho, while the values stop climbing.  It also
    stops when a bracket's maximum falls below the last one's, which the
    new bracket contains: far out (at R = 0, where the supremum is the
    limit of E0 at infinity) E0's roundoff, about (1+rho) eps, and its
    certificate floor outgrow the climb.  The result is then the largest
    value seen.  On output-symmetric channels with R_inf = 0 and no
    fortification, R = 0 takes that limit in closed form instead.  The
    search is ``_sphere_packing_steps``, a lane of ``_run_lanes``.
    """
    return _run_lanes(p, fortify_k, [_sphere_packing_steps(
        p, r, fortify_k, _alone_climb(p, r, fortify_k))])[0]


def _run_lanes(p: Dmc, fortify_k: int | None, lanes: list) -> list:
    """Run the lanes together to their results, every E0 read from the
    channel's store by ``_e0_point``, fortified by ``fortify_k``, which is
    checked once, here.

    A lane is a generator over rho: it yields the rho it needs and receives
    (E0(rho), dE0/drho) there.  Every search along rho is written once, as
    a lane, and this runs them all, one rate's bound, a curve's, or the
    one-step lanes ``_at`` of a fixed grid.  Every lane, one run alone
    included, advances through the same rounds; a lone lane asks for the
    same rho in the same order as ``run_steps`` over ``_e0_point`` would.

    Two paths inside a round stay, each for a measured reason.  A rho in
    the store is answered at once, so a search that comes back to a rho,
    or asks for one that another lane or an earlier run solved on the
    channel, waits for no round: without that, the ``curves_symmetric``
    benchmark workload took 0.288 s against 0.234 s (+23%; medians of 8
    alternating pairs on 2 shared cores).  Each round then solves the
    distinct rho the waiting lanes ask for together: several on an
    output-symmetric channel by one ``_e0_lanes`` call, which is the only
    one, and the rest by ``_e0_point`` as it answers the lanes in the order
    asked, so no rho is solved twice; without the batch call that workload
    took 0.564 s against 0.221 s (2.55x).  Any error, a lane's or an E0
    solve's, ends the run.
    """
    store = p.e0_points
    _fortification_rate(fortify_k)  # checked once for every read of the run
    results = [None] * len(lanes)
    order, points_sent = range(len(lanes)), repeat(None)
    while order:
        waiting, asked = [], []
        for i, point in zip(order, points_sent):
            try:
                rho = lanes[i].send(point)
                while rho in store:
                    rho = lanes[i].send(_e0_point(p, rho, fortify_k))
                waiting.append(i)
                asked.append(rho)
            except StopIteration as stop:
                results[i] = stop.value
        if len(new := set(asked)) > 1 and p.symmetric:
            _e0_lanes(p, [*new])
        order, points_sent = waiting, [_e0_point(p, rho, fortify_k) for rho in asked]
    return results


def _at(rho: float):
    """The one-step lane of a fixed rho grid: it receives (E0(rho),
    dE0/drho) and returns it."""
    return (yield rho)


def _tilt(r: float):
    """(E0(rho) - rho r, dE0/drho - r) from (rho, E0, dE0/drho)."""
    return lambda rho, e0, slope: (e0 - rho * r, slope - r)


def _lockstep_climb(r: float):
    """The bracket search of a lane that ``_run_lanes`` drives: the maximum
    of E0(rho) - rho r on [lo, hi] as ``maximize_concave_1d`` finds it with
    ``slope``, from the points the lane yields, the maximizer's included."""
    def climb(lo, hi, tol):
        x, calls = yield from slope_argmax_steps(lo, hi, tol, _tilt(r))
        return Search1DResult(argmax=x, value=(yield x)[0] - x * r, iterations=calls)
    return climb


def _alone_climb(p: Dmc, r: float, fortify_k: int | None):
    """The bracket search of a lane run alone: ``maximize_concave_1d`` with
    ``slope`` on ``_lockstep_climb``'s points, read from the channel's
    store.  One-rate queries thus still run (and report the iterations of)
    ``maximize_concave_1d``, which ``perfbench``'s tracer counts."""
    def climb(lo, hi, tol):
        yield from ()
        return maximize_concave_1d(lambda rho: _e0_point(p, rho, fortify_k)[0] - rho * r,
                                   lo, hi, tol=tol,
                                   slope=lambda rho: _e0_point(p, rho, fortify_k)[1] - r)
    return climb


def _sphere_packing_steps(p: Dmc, r: float, fortify_k: int | None, climb):
    """``sphere_packing``'s search as a lane; ``climb(lo, hi, tol)`` is a
    generator returning the ``maximize_concave_1d`` result on a bracket.
    Each bracket after the first starts from a rho the last one ended on."""
    check_real(r, "rate must be finite, got {}")
    check_real(r, "rate must be nonnegative", 0.0, ends="[)")
    if r < divergence_rate(p, fortify_k) - 1e-12:
        return math.inf
    if r == 0 and fortify_k is None and p.symmetric and p.divergence_rate == 0:
        # E0 at the uniform input climbs to -ln sum_y prod_x P(y|x)^(1/|X|)
        # over the outputs every input reaches
        reached = p.rows[:, p.support.all(axis=0)]
        return 0.0 - math.log(float(np.prod(reached ** (1.0 / p.input_size), axis=0).sum()))
    if (yield 1.0)[1] <= r:
        # at or above the critical rate E0 - rho R falls from rho = 1 on, so
        # the search is random coding's, and so is the value
        return (yield from _random_coding_steps(r, 1, climb))
    lo, hi, best = 1.0, RHO_MAX, -math.inf
    while True:
        res = yield from climb(lo, hi, 1e-9)
        climbed = res.value > best
        best = max(best, res.value)
        if not climbed or res.argmax <= 0.98 * hi:
            return max(0.0, best)
        edge = (yield hi)[0] - hi * r
        inside = (yield 0.9 * hi)[0] - 0.9 * hi * r
        if edge <= inside:
            return max(0.0, best)
        if hi >= 1e8:
            raise ConvergenceError("sphere-packing maximizer beyond rho = 1e8", edge - inside)
        # concavity puts the maximizer beyond 0.9 hi
        lo, hi = 0.9 * hi, 4.0 * hi


def random_coding_list(p: Dmc, r: float, list_size: int = 1,
                       fortify_k: int | None = None) -> float:
    """Random-coding exponent with list decoding: max_{0 <= rho <= L} [E0(rho) - rho R].

    ``list_size`` is the cap L on rho; L = 1 is ordinary random coding.
    """
    return _run_lanes(p, fortify_k, [_random_coding_steps(
        r, list_size, _alone_climb(p, r, fortify_k))])[0]


def _random_coding_steps(r: float, list_size: int, climb):
    """``random_coding_list``'s search as a lane (see ``_sphere_packing_steps``)."""
    check_real(r, "rate must be finite, got {}")
    check_real(r, "rate must be nonnegative", 0.0, ends="[)")
    check_count(list_size, "list size must be a whole number of at least 1, got {}")
    res = yield from climb(0.0, float(list_size), 1e-10)
    return max(0.0, res.value)


def channel_capacity_fast(g: Dmc) -> float:
    """The capacity of ``g``, ``g.capacity_solution[0]``: ``dmc.capacity``'s
    certified Newton loop.  No bound calls it; the name stays only because
    the benchmark's tracer binds it."""
    return g.capacity_solution[0]


def _tilted_row(log_p: list, log_q: list, r: float):
    """e_x(q, R) = min {D(v || P_x) : D(v || q) <= R} for one row, on its
    support T_x, from the logs of P_x and q there; (e_x, rho, v), or None
    when q(T_x) <= e^-R (to roundoff), where the minimum is infinite or
    attained only as rho -> inf.

    The minimizer is the tilted row v_t ∝ P_x^(1-t) q^t, t = rho / (1+rho),
    the exponential family of s = ln(q / P_x): with A(t) = ln sum P^(1-t) q^t
    and E_t, Var_t the mean and variance of s under v_t,
        D(v_t || q) = -(1-t) E_t - A(t),   dD(v_t || q)/dt = -(1-t) Var_t,
        D(v_t || P_x) = t E_t - A(t).
    D(v_t || q) decreases from D(P_x || q) at t = 0 to -ln q(T_x) at t = 1,
    so t is 0 when D(P_x || q) <= R and otherwise the root of
    D(v_t || q) = R, found by ``decreasing_root`` with that slope.  Where
    the Newton step from t = 0, (D(P_x || q) - R) / Var_0, is at most
    2^-26, it is taken as t: D(v_t || q) is smooth in t, so the step is
    within about t^2 <= 2^-52 of the root, while the root finder would
    close its bracket to 4 ulps of that tiny t, where D(v_t || q) - R is
    roundoff over a far wider range, and can run out of steps (at R = C on
    Z(0.5), where the output law q = (0.8, 0.2) puts both rows at
    D(P_x || q) = R).  This is
    the Lagrangian sup_{rho >= 0} -(1+rho) ln sum P_x^(1/(1+rho))
    q^(rho/(1+rho)) - rho R, whose rho-slope is D(v_rho || q) - R.
    """
    s = [b - a for a, b in zip(log_p, log_q)]
    p_row = [math.exp(a) for a in log_p]
    mean = sum(pv * sv for pv, sv in zip(p_row, s))
    if -mean <= r:
        return 0.0, 0.0, p_row
    top = max(log_q)
    if -(top + math.log(sum(math.exp(b - top) for b in log_q))) >= r:
        return None

    def tilt(t):
        w = [a + t * sv for a, sv in zip(log_p, s)]
        top = max(w)
        e = [math.exp(x - top) for x in w]
        z = sum(e)
        v = [x / z for x in e]
        mean = sum(vy * sv for vy, sv in zip(v, s))
        return v, mean, top + math.log(z)

    def excess(t):
        v, mean, log_z = tilt(t)
        var = sum(vy * (sv - mean) ** 2 for vy, sv in zip(v, s))
        return -(1.0 - t) * mean - log_z - r, -(1.0 - t) * var

    var = sum(pv * (sv - mean) ** 2 for pv, sv in zip(p_row, s))
    if -mean - r <= NEWTON_NEAR * var:  # the Newton step from t = 0 is the root
        t = (-mean - r) / var
    else:
        t = decreasing_root(excess, 0.0, 1.0)[1]  # the side with D(v || q) <= R
    if t == 1.0:  # -ln q(T_x) is R to roundoff: rho and the gradient blow up
        return None
    v, mean, log_z = tilt(t)
    return t * mean - log_z, t / (1.0 - t), v


def _row_logs(p: Dmc) -> list:
    """(T_x, ln P_x on T_x as a list) for every row x: what ``_worst_row``
    reads, computed once per oracle."""
    return [(t, np.log(p.rows[x, t]).tolist()) for x, t in enumerate(p.row_supports())]


def _worst_row(rows: list, log_o: np.ndarray, budgets):
    """(x, (e_x, rho_x, v_x)) for the row with the largest ``_tilted_row``
    value e_x(o, R_x), the first of them on ties, or (x, None) for the first
    row with no feasible tilt; ``rows`` is ``_row_logs``, ``log_o`` is ln o
    and ``budgets`` yields the R_x in row order.  The one row loop of the
    Haroutunian, tilde and focusing oracles."""
    worst = None
    for x, ((t, log_p), r_x) in enumerate(zip(rows, budgets)):
        res = _tilted_row(log_p, log_o[t].tolist(), r_x)
        if res is None:
            return x, None
        if worst is None or res[0] > worst[1][0]:
            worst = x, res
    return worst


def _haroutunian_oracle(p: Dmc, r: float):
    """(value, subgradient) oracle of E+(q) = max_x e_x(q, R) on the output
    simplex for ``minimize_convex_on_simplex``.  Each e_x is convex in q (a
    partial minimum of a jointly convex program), with gradient
    -rho_x v_x(y) / q(y) on T_x by the envelope theorem.  Where
    q(T_x) <= e^-R for some x the oracle returns the cut of that linear
    constraint c = e^-R - q(T_x), gradient -1 on T_x."""
    rows = _row_logs(p)
    edge = math.exp(-r)

    def oracle(q):
        x, res = _worst_row(rows, np.log(q), repeat(r))
        t = rows[x][0]
        grad = np.zeros(len(q))
        if res is None:
            grad[t] = -1.0
            return math.inf, grad, edge - float(q[t].sum())
        value, rho, v = res
        grad[t] = -rho * np.asarray(v) / q[t]
        return value, grad

    return oracle


def _haroutunian_convex(p: Dmc, r: float) -> tuple[float, np.ndarray | None]:
    """The standard Haroutunian exponent E+(R) as a convex program over the
    output law, for R at or above R_inf = ``divergence_rate(p)``, and the
    program's best output law (None where E+ has a closed form or comes
    from the R = 0 face).

    C(V) = min_q max_x D(V_x || q) (Csiszar-Koerner; Gallager Thm 4.5.1),
    so C(V) <= R exactly when some q has D(V_x || q) <= R for every x, and
    the rows decouple once q is fixed:
        E+(R) = min_q max_x e_x(q, R),  e_x = min {D(v || P_x) : D(v || q) <= R},
    solved by ``minimize_convex_on_simplex`` with ``_haroutunian_oracle``;
    its domain is {q : q(T_x) >= e^-R for all x}.  The result is within
    the solver's certified gap (1e-13) of E+, or it raises
    ``ConvergenceError`` with that gap.

    That domain shrinks to the game's optimal face {q : min_x q(T_x) =
    e^-R_inf} as R falls to R_inf, where it has no interior.  Rates within
    1e-15 of R_inf = 0 are therefore solved at R = 0: C(V) = 0 forces equal
    rows, so E+(0) = min over q on the face F of outputs every input
    reaches of max_x D(q || P_x) (gradient ln(q / P_x) + 1), which is
    max_x -ln P_x(y) when F = {y}; E+ moves by about 1e-13 over that
    window.  Within 1e-12 of R_inf > 0 (the accuracy of ``divergence_rate``)
    the value is 0 when the capacity is at most R + 1e-10 (E+ is quadratic
    in C - R below capacity); otherwise the solver's search for an
    interior point decides, and it raises with an infinite gap when it
    finds none.
    """
    r_inf = p.divergence_rate
    if r_inf > 0.0 and r < r_inf + 1e-12 and p.capacity_solution[0] <= r + 1e-10:
        return 0.0, None
    if r_inf > 0.0 or r >= 1e-15:
        sol = minimize_convex_on_simplex(_haroutunian_oracle(p, r), p.output_size)
        return sol.value, sol.q
    log_face = np.log(p.rows[:, np.all(p.rows > 0, axis=0)])
    if log_face.shape[1] == 1:
        return float(-log_face.min()), None

    def oracle(q):
        log_q = np.log(q)
        div = (q * (log_q - log_face)).sum(axis=1)
        x = int(np.argmax(div))
        return float(div[x]), log_q - log_face[x] + 1.0

    return minimize_convex_on_simplex(oracle, log_face.shape[1]).value, None


def _tilde_oracle(p: Dmc, r: float):
    """(value, gradient) oracle of the tilde program F(z) = max_x e_x(o, R_x)
    on the doubled output simplex z = ((1-lam) o, lam o') of 2 |Y| letters,
    for ``minimize_convex_on_simplex``; e_x is ``_tilted_row`` with the row
    budget R_x = (R - lam D(P_x || o')) / (1-lam).

    With nu = rho_x / (1-lam) the gradient of the worst row is, by the
    envelope theorem, nu (D(v_x || o) + 1 - v_x / o) on the o-block, where
    D(v_x || o) = R_x at a positive rho_x, and nu (D(P_x || o') + 1 - P_x / o')
    on the o'-block.  Where ``_tilted_row`` finds no feasible tilt it returns
    the cut of the convex constraint (1-lam)(-ln o(T_x)) + lam D(P_x || o')
    - R <= 0: -ln o(T_x) + 1 - 1_{T_x} / o(T_x) on the o-block, the same
    o'-block with nu = 1."""
    ny = p.output_size
    rows = _row_logs(p)
    p_rows = [p.rows[x, t] for x, (t, _) in enumerate(rows)]
    log_rows = [np.asarray(log_p) for _, log_p in rows]

    def gradient(t, row, div, o2, o_part, o_on_t):
        g = np.empty(2 * ny)
        g[:ny] = o_part
        g[t] -= o_on_t
        g[ny:] = div + 1.0
        g[ny + t] -= row / o2[t]
        return g

    def oracle(z):
        s = float(z[:ny].sum())
        lam = 1.0 - s
        o, o2 = z[:ny] / s, z[ny:] / float(z[ny:].sum())
        log_o, log_o2 = np.log(o), np.log(o2)
        divs = [float(row @ (log_p - log_o2[t]))  # D(P_x || o')
                for (t, _), row, log_p in zip(rows, p_rows, log_rows)]
        budgets = [(r - lam * div) / s for div in divs]
        x, res = _worst_row(rows, log_o, budgets)
        t, row, div = rows[x][0], p_rows[x], divs[x]
        if res is None:
            mass = float(o[t].sum())
            return (math.inf, gradient(t, row, div, o2, 1.0 - math.log(mass), 1.0 / mass),
                    -s * math.log(mass) + lam * div - r)
        value, rho, v = res
        return value, (rho / s) * gradient(t, row, div, o2, budgets[x] + 1.0,
                                           np.asarray(v) / o[t])

    return oracle


def _haroutunian_tilde(p: Dmc, r: float) -> float:
    """The tilde program on the doubled output simplex, within its certified
    gap (1e-13), or ``ConvergenceError`` with that gap.

    Tilde asks only max {I(q, G) : q in S} <= R, S = {q : I(q, P) >= R}.
    For R < C(P) Slater's condition holds on S, so that is
    max_q I(q, G) + mu (I(q, P) - R) <= R for some mu >= 0; capacity's
    min-max form I(q, G) = min_o sum_x q_x D(G_x || o) and Sion's minimax
    theorem turn it into: some lam = mu / (1+mu) in [0, 1) and output laws
    o, o' give (1-lam) D(G_x || o) + lam D(P_x || o') <= R for every x.
    The rows then decouple as in ``_haroutunian_convex``, with the budget
    R_x of ``_tilde_oracle``; the face lam = 0 is that program.  F is not
    convex in z, but (1-lam) F is, as the perspective of the same program
    in (o, mu o'), where it is jointly convex: F is passed as that ratio
    with divisor 1-lam, the o-block's mass.
    """
    ny = p.output_size
    divisor = np.concatenate([np.ones(ny), np.zeros(ny)])
    return minimize_convex_on_simplex(_tilde_oracle(p, r), 2 * ny, divisor).value


def _tilde_dual_bound(p: Dmc, r: float, o: np.ndarray) -> float:
    """A lower bound on the tilde exponent at R by weak duality, with
    multipliers read off the standard program at the output law o; -inf
    where they give none.  At the program's optimum o* the bound meets E+
    to roundoff wherever the tilde relaxation does not lower E+.

    Any input law q0 with I(q0, P) > R lies in S, so every tilde-feasible G
    has I(q0, G) = min_o' sum_x q0_x D(G_x || o') <= R.  For pi on the rows
    and mu >= 0 the Lagrangian, with the rows decoupled at fixed o', gives
        tilde(R) >= min_o' phi(o') - mu R,
        phi(o') = -sum_x c_x ln S_x(o'),  S_x = sum_{y in T_x} P_x(y)^(a_x) o'(y)^(1-a_x),
    c_x = pi_x + mu q0_x and a_x = pi_x / c_x: -c_x ln S_x is the minimum
    over v of c_x (a_x D(v || P_x) + (1-a_x) D(v || o')), taken on T_x
    since a finite value keeps G_x there (P_x^0 is the indicator of T_x).
    phi is convex, so its tangent plane at any positive point bounds it
    below on the simplex: min phi >= phi(o) + sum_x c_x (1-a_x) - max_y
    sum_x c_x (1-a_x) v_x(y) / o(y), with v_x ∝ P_x^(a_x) o^(1-a_x) (the
    Frank-Wolfe bound).  It is taken at the best iterate, from o, of the
    fixed point o <- sum_x c_x (1-a_x) v_x / mu of phi's stationarity
    condition (mu = sum_x c_x (1-a_x)), a majorize-minimize step: Jensen's
    inequality on each ln S_x, weighted by v_x, puts phi below
    -sum_y (sum_x c_x (1-a_x) v_x(y)) ln o'(y) plus a constant, with
    equality at o.  So phi never rises and every iterate stays strictly
    inside the simplex.  The steps stop where no slope exceeds mu (o is
    stationary in floats), before a coordinate underflows, after
    ``TILDE_DUAL_STEPS``, or ``TILDE_ROUNDOFF_STEPS`` after the slack
    max_y slope_y - mu first falls to eps mu (its last ulps, which the
    bound loses, may take a few steps or never go).  The bound is less
    (|X| + |Y| + 8) eps times the magnitudes it sums at that iterate, which
    bounds its float rounding: a_x and 1 - a_x are exact complements, and
    each power, log and row sum is within a few ulps.  I(q0, P) must exceed
    R by the same margin of its own terms.

    The bound holds for any multipliers; these make it tight.  At o, rows
    whose ``_tilted_row`` value is within 1e-9 of the largest with
    rho_x > 0 carry lam_x, and rows with -ln o(T_x) >= R - 1e-9 (T_x short
    of every output) carry nu_x, fitted by least squares to the standard
    program's optimality condition
        sum lam_x rho_x (v_x - o) + sum nu_x (o|T_x - o) = 0,
        sum (lam_x rho_x + nu_x) = 1,
    and clipped at 0.  Then q0 ∝ lam rho + nu, pi = lam / sum lam and
    mu = sum (lam rho + nu) / sum lam, which give phi(o) - mu R = E+ at an
    exact optimum.
    """
    nx, ny = p.rows.shape
    rows = _row_logs(p)
    tilted = [_tilted_row(log_p, np.log(o[t]).tolist(), r) for t, log_p in rows]
    top = max((res[0] for res in tilted if res is not None), default=math.inf)
    columns, owners, rhos = [], [], []
    for x, ((t, _), res) in enumerate(zip(rows, tilted)):
        if res is not None and res[1] > 0.0 and res[0] >= top - 1e-9:
            columns.append(np.zeros(ny))
            columns[-1][t] = res[2]
            owners.append(x)
            rhos.append(res[1])
        if len(t) < ny and -math.log(float(o[t].sum())) >= r - 1e-9:
            columns.append(np.zeros(ny))
            columns[-1][t] = o[t] / o[t].sum()
            owners.append(x)
            rhos.append(0.0)
    if not any(rhos):
        return -math.inf
    system = np.vstack([(np.array(columns) - o).T, np.ones(len(columns))])
    fit = np.maximum(np.linalg.lstsq(system, np.eye(ny + 1)[ny])[0], 0.0)
    rhos = np.array(rhos)
    mass, lam = np.zeros(nx), np.zeros(nx)
    np.add.at(mass, owners, fit)
    np.add.at(lam, np.array(owners)[rhos > 0.0], fit[rhos > 0.0] / rhos[rhos > 0.0])
    if not lam.sum() > 0.0:
        return -math.inf
    c = (lam + mass) / lam.sum()
    used = c > 0.0
    c = c[used]
    b = 1.0 - lam[used] / lam.sum() / c
    a = 1.0 - b  # exact, so a + b = 1: one of a, b is at least 1/2 (Sterbenz)
    cb = c * b
    q0 = np.zeros(nx)
    q0[used] = cb / cb.sum()
    inside = p.support & (q0[:, None] > 0.0)
    info = (q0[:, None] * p.rows)[inside] * np.log(  # I(q0, P), term by term
        p.rows[inside] / np.broadcast_to(q0 @ p.rows, p.rows.shape)[inside])
    if float(info.sum()) - r <= (nx + ny + 8) * EPS * (1.0 + r + float(np.abs(info).sum())):
        return -math.inf
    weight = np.where(p.support[used], p.rows[used] ** a[:, None], 0.0)
    reached = weight.any(axis=0)  # phi does not depend on the other outputs
    weight = weight[:, reached]
    mu = float(cb.sum())
    best = step = _dual_point(weight, c, b, o[reached])
    left = TILDE_DUAL_STEPS
    while left > 0 and (slack := float(step[2].max()) - mu) > 0.0:
        if slack <= EPS * mu:  # at roundoff
            left = min(left, TILDE_ROUNDOFF_STEPS)
        point = step[3] * step[2] / mu  # the minimizer of phi's Jensen majorant
        if point.min() < _TINY:
            break
        step = _dual_point(weight, c, b, point)
        if step[0] > best[0]:
            best = step
        left -= 1
    bound, logs, slopes, _ = best
    scale = float(c @ (1.0 + np.abs(logs))) + float(slopes.max()) + mu * r
    return bound - mu * r - (nx + ny + 8) * EPS * scale


def _dual_point(weight: np.ndarray, c: np.ndarray, b: np.ndarray, o: np.ndarray) -> tuple:
    """``_tilde_dual_bound``'s phi(o) = -sum_x c_x ln S_x(o), S_x = sum_y
    weight_xy o(y)^(b_x), at a positive o: (its Frank-Wolfe bound
    phi(o) + mu - max_y slope_y, ln S_x, slope = -dphi/do, o), mu = c . b."""
    terms = weight * o ** b[:, None]
    total = terms.sum(axis=1)
    logs = np.log(total)
    cb = c * b
    slopes = cb @ (terms / total[:, None] / o)
    return -float(c @ logs) + float(cb.sum()) - float(slopes.max()), logs, slopes, o


def haroutunian(p: Dmc, r: float, variant: str = "standard") -> float:
    """Haroutunian block exponent with feedback.

    standard: E+(R) = min over {V : C(V) <= R} of max_x D(V(.|x) || P(.|x)),
              solved as a convex program over the output law
              (``_haroutunian_convex``), certified within 1e-13.
    tilde:    the mimicking constraint relaxed to max {I(q,G) : q in S}
              <= R, S = {q : I(q,P) >= R}, so tilde <= E+ (equal on every
              channel measured): E+ where ``_tilde_dual_bound`` at E+'s
              output law (a weak-duality bound whose inner minimum a
              majorize-minimize fixed point approaches) comes within 1e-13
              of it, else the smaller of E+ and the doubled program
              (``_haroutunian_tilde``, certified within 1e-13).  It is E+
              wherever E+ <= 1e-13, as 0 <= tilde <= E+: at and just below
              capacity no input law has I(q0, P) > R, so the dual gives no
              bound, and the doubled program's domain collapses.  Below
              R = 1e-15 it is E+, exactly so at R = 0.

    +inf below ``divergence_rate``.  Above capacity the convex program
    meets an output law with every D(P_x || q) <= R and returns 0 without a
    capacity solve (within the 1e-13 gap when R is within about that of C),
    and so does tilde.  Either program raises ``ConvergenceError`` with its
    gap when it cannot certify its value.

    On output-symmetric channels both are sphere packing, taken instead of
    the programs (``_haroutunian_general`` runs them on any channel).  For
    R <= C the uniform input u is in S, as I(u, P) = C, so with E0^CK(rho,
    u) = min_Q -(1+rho) sum_x u_x ln sum_y P_x^(1/(1+rho)) Q^(rho/(1+rho)),
    the Lagrangian of ``_tilted_row`` averaged by u,
        tilde(R) >= min {sum_x u_x D(G_x || P_x) : I(u, G) <= R}  (max_x >= mean)
                 >= sup_rho [E0^CK(rho, u) - rho R]  (weak duality)
                 >= sup_rho [E0(rho, u) - rho R]  (Jensen on ln, Hoelder over Q)
                  = E_sp(R) = E+(R) >= tilde(R),
    as u maximizes E0(rho, .) there (Gallager 1968, 5.6).  Above C all are 0.
    """
    if variant not in ("standard", "tilde"):
        raise ValueError("variant must be 'standard' or 'tilde'")
    if p.symmetric:
        return sphere_packing(p, r)
    return _haroutunian_general(p, r, variant)


def _haroutunian_general(p: Dmc, r: float, variant: str = "standard") -> float:
    """``haroutunian``'s programs on any channel: E+ with its output law o*,
    and for tilde the dual bound at o* or else the doubled program."""
    check_real(r, "rate must be finite, got {}")
    check_real(r, "rate must be nonnegative", 0.0, ends="[)")
    if r < divergence_rate(p) - 1e-12:
        return math.inf
    standard, o = _haroutunian_convex(p, r)
    if (variant == "standard" or standard <= CONVEX_TOL or r < 1e-15
            or standard - _tilde_dual_bound(p, r, o) <= CONVEX_TOL):
        return standard
    return float(min(_haroutunian_tilde(p, r), standard))


def burnashev_bound(p: Dmc, r_bar: float, fortify_k: int | None = None) -> float:
    """Variable-length feedback exponent C1 (1 - Rbar / C); +inf when C1 is,
    as under fortification (C is then C + ln2/k), whose noiseless bit
    separates every pair of super-channel inputs, and 0 when C1 is, on
    equal rows, whose C is 0 too."""
    check_real(r_bar, "rate must be finite, got {}")
    cap_p = p.capacity_solution[0] + _fortification_rate(fortify_k)
    check_real(r_bar, "average rate must lie in [0, C]", 0.0, cap_p + 1e-12, "[]")
    if fortify_k is not None or (coeff := _c1(p)) == math.inf:
        return math.inf
    if coeff == 0.0:
        return 0.0
    return max(0.0, coeff * (1.0 - r_bar / cap_p))


def _crossing_steps(r: float, lo: float, hi: float, cap: float, failure: str):
    """``root_steps``'s bracket around the eta where E(eta)/eta, decreasing
    in eta, falls to r, as a lane that receives (E(eta), dE/deta).  The
    root is that of the concave E(eta) - r eta, positive before it and
    negative after, so Newton steps from its right converge monotonically.
    While E(hi)/hi > r the bracket grows fourfold (the root is unbounded as
    r drops); at ``cap`` that raises ``ConvergenceError(failure)`` with the
    residual E(hi)/hi - r, rather than return the bracket's end."""
    while (residual := (yield hi)[0] / hi - r) > 0:
        if hi >= cap:
            raise ConvergenceError(failure, residual)
        lo, hi = hi, 4.0 * hi
    return (yield from root_steps(lo, hi, excess=_tilt(r)))


def _focusing_oracle(p: Dmc, r: float):
    """(value, gradient) oracle of the general focusing program on the
    simplex of |Y| + 1 letters z = (u, 1) / (sum(u) + 1), for
    ``minimize_convex_on_simplex`` with divisor z_last.

    With mu = 1/(1-lambda) = sum(u), o = u / mu and G_x(o, rho) =
    -(1+rho) ln sum_y P_x^(1/(1+rho)) o^(rho/(1+rho)), the Lagrangian of
    ``_tilted_row``, E+(lambda R)/(1-lambda) is the minimum over o of
        F(u) = max_x sup_rho [mu G_x(u / mu, rho) - rho R (mu - 1)]
             = mu max_x e_x(o, lambda R),
    each term the perspective of a function convex in o (G_x is -(1+rho)
    times the log of a sum of concave powers of o) less a linear one, so F
    is convex in u on {u >= 0, sum(u) >= 1}.  In z, F is the ratio of its
    perspective z_last F(z_o / z_last), jointly convex, to z_last.  By the
    envelope theorem, with (e, rho, v) the worst row's solve on T,
        dF/du = e + rho (1 - v / o) - rho R / mu   (v = 0 off T),
    and the gradient in z is (dF/du, -dF/du . u) / z_last.  Two cuts bound
    the domain: z_last >= sum(z_o) (lambda < 0) by z_last - sum(z_o) with
    gradient (-1, ..., -1, 1); a row with o(T_x) <= e^-(lambda R) by the
    perspective z_last c(u) of its constraint c(u) = mu (-ln o(T_x)) -
    (mu - 1) R <= 0, gradient (dc/du, c - dc/du . u) with dc/du = 1 -
    ln o(T_x) - R - 1_{T_x} / o(T_x)."""
    ny = p.output_size
    rows = _row_logs(p)
    below_zero = np.append(-np.ones(ny), 1.0)

    def oracle(z):
        mass, z_last = float(z[:ny].sum()), float(z[ny])
        if z_last >= mass:
            return math.inf, below_zero, z_last - mass
        mu = mass / z_last
        o, u = z[:ny] / mass, z[:ny] / z_last
        x, res = _worst_row(rows, np.log(o), repeat(r * (1.0 - 1.0 / mu)))
        t = rows[x][0]
        if res is None:
            mass_t = float(o[t].sum())
            log_mass = math.log(mass_t)
            grad = np.full(ny, 1.0 - log_mass - r)
            grad[t] -= 1.0 / mass_t
            c = -mu * log_mass - (mu - 1.0) * r
            return math.inf, np.append(grad, c - grad @ u), z_last * c
        e, rho, v = res
        grad = np.full(ny, e + rho - rho * r / mu)
        grad[t] -= rho * np.asarray(v) / o[t]
        return mu * e, np.append(grad, -(grad @ u)) / z_last

    return oracle


def focusing_bound(p: Dmc, r: float, fortify_k: int | None = None) -> float:
    """Uncertainty-focusing bound E_a(R) = inf_{0 <= lambda < 1} E+(lambda R)/(1 - lambda).

    Symmetric channels (where E+ = E_sp) go through the parametric form:
    solve E0(eta)/eta = R, then E_a = E0(eta) = eta R; where that root lies
    beyond eta = 1e8 (R below about E_a / 1e8) it raises
    ``ConvergenceError``, with the residual E0(eta)/eta - R at the bracket's
    end or, where the bracket's last fourfold growth passed 1e8 and the
    root was found beyond it, at eta = 1e8.  +inf below ``divergence_rate``.

    On channels without output symmetry ``_focusing_general`` minimizes
    jointly over lambda and E+'s output law:
    one quasiconvex program on |Y| + 1 letters (``_focusing_oracle``),
    solved by ``minimize_convex_on_simplex`` within its certified gap
    (1e-13), or ``ConvergenceError`` with that gap.  The gap is absolute,
    so from a value of 512 on, where one ulp exceeds 1e-13, it certifies
    no more than roundoff; just above R_inf > 0 the value grows without
    bound and the ratio bound's roundoff leaves gaps such as -1.5e-10 at a
    value of 445.  It is +inf up to R_inf + 1e-12 when R_inf > 0, the
    1e-12 being R_inf's accuracy: no lambda < 1 then brings lambda R above
    R_inf.
    """
    return _run_lanes(p, fortify_k, [_focusing_steps(p, r, fortify_k)])[0]


def _focusing_steps(p: Dmc, r: float, fortify_k: int | None):
    """``focusing_bound`` as a lane: the parametric path yields its eta, the
    general program yields nothing."""
    check_real(r, "rate must be finite, got {}")
    check_real(r, "rate must be positive", 0.0)
    if r >= p.capacity_solution[0] + _fortification_rate(fortify_k):
        return 0.0
    if r < divergence_rate(p, fortify_k) - 1e-12:
        return math.inf
    if p.symmetric:
        failure = "focusing rate root beyond eta = 1e8"
        lo, hi = yield from _crossing_steps(r, 1e-9, RHO_MAX, 1e8, failure)
        if 0.5 * (lo + hi) > 1e8:  # the bracket's last growth passed 1e8
            raise ConvergenceError(failure, (yield 1e8)[0] / 1e8 - r)
        return 0.5 * (lo + hi) * r
    if fortify_k is not None:
        raise ValueError("fortified bounds require an output-symmetric base channel")
    return _focusing_general(p, r)


def _focusing_general(p: Dmc, r: float) -> float:
    """The general focusing program, on any channel, at R_inf - 1e-12 <= r < C."""
    if p.divergence_rate > 0.0 and r <= p.divergence_rate + 1e-12:
        return math.inf
    ny = p.output_size
    return minimize_convex_on_simplex(_focusing_oracle(p, r), ny + 1,
                                      divisor=np.eye(ny + 1)[ny]).value


@dataclass(frozen=True)
class FocusingPoint:
    """One point of the parametric fixed-delay converse: E = E0(eta), R = E0(eta)/eta."""
    eta: float
    rate: float
    exponent: float
    lambda_star: float

    def __post_init__(self):
        check_real(self.exponent, "exponent must be finite, got {}")
        check_real(self.lambda_star, "lambda* must lie in [0, 1)", 0.0, 1.0, "[)")
        # within 1e-9 of a finite exponent, so nan and +-inf fail for eta and rate
        check_real(abs(self.eta * self.rate - self.exponent), "parametric identity exponent = "
                   "eta * rate violated", hi=1e-9 * max(1.0, self.exponent), ends="(]")


def focusing_parametric_curve(p: Dmc, eta_grid, fortify_k: int | None = None) -> list[FocusingPoint]:
    """Sampled parametric focusing bound for output-symmetric channels.

    For each eta: rate = E0(eta)/eta, exponent = E0(eta), and the optimal
    past/future split lambda* = (dE0/drho at eta) / rate, with the exact
    slope of ``e0_slope``.  Raises for channels without a verified symmetry
    partition.
    """
    if not p.symmetric:
        raise ValueError("parametric form requires an output-symmetric channel; "
                         "use focusing_bound instead")
    etas = sorted(eta_grid, reverse=True)  # descending eta = increasing rate
    for eta in etas:  # +inf is left to the E0 read, which rejects it
        check_real(eta, "eta grid must be positive", 0.0, math.inf, "(]")
    pts = []
    for eta, (e0, slope) in zip(etas, _run_lanes(p, fortify_k, list(map(_at, etas)))):
        rate = e0 / eta
        lam = min(max(slope / rate, 0.0), 1.0 - 1e-15)
        pts.append(FocusingPoint(eta=eta, rate=rate, exponent=e0, lambda_star=lam))
    return pts


def _positive_capacity(p: Dmc, fortify_k: int | None) -> float:
    """The (fortified) capacity, or ``ValueError`` where it is 0."""
    cap_p = p.capacity_solution[0] + _fortification_rate(fortify_k)
    if cap_p == 0.0:
        raise ValueError(f"the capacity of {p!r} is 0: no rate lies below it")
    return cap_p


def capacity_slope_focusing(p: Dmc, fortify_k: int | None = None) -> float:
    """Slope of the parametric focusing curve at the capacity point: 2C / E0''(0),
    -inf where E0''(0) is 0, as E_a is then +inf below C.  ``ValueError``
    where C is 0: the curve has no point below C."""
    cap_p = _positive_capacity(p, fortify_k)
    second = e0_second_derivative_at_zero(p, fortify_k=fortify_k)
    if abs(second) < 1e-12:
        return -math.inf
    return 2.0 * cap_p / second


def _two_stream_steps(r: float):
    """(rho, E0(1), E0(rho)) at the rho where the two-stream rate
    E'(rho)/rho falls to r > 0, as a lane: rho is the midpoint of
    ``root_steps``'s bracket (a root below 1e-9 gives that end).  The
    bracket is (1e-9, ``RHO_MAX``), or at low rates, when the rate at
    ``RHO_MAX`` is still above r, (``RHO_MAX``, E0(1)/r): E'(rho) < E0(1),
    so the rate is below r from E0(1)/r on.  Where that end lies beyond
    rho = 1e8 and the rate at 1e8 is still above r, it raises
    ``ConvergenceError`` with the residual E'(1e8)/1e8 - r, as the focusing
    and sphere-packing searches do past 1e8.  E0(1) is solved once.  As in
    ``_crossing_steps`` the root is taken on the concave E'(rho) - r rho.
    The timesharing bound and ``ncl_scheme.two_stream_split`` run it.
    """
    check_real(r, "rate must be finite, got {}")
    check_real(r, "rate must be positive", 0.0)
    e_one = (yield 1.0)[0]

    def excess(rho, e0, slope):
        e_prime = _timesharing_point(e0, e_one, rho)[1]
        # dE'/drho = E0'(rho) (E0(1) / (E0(1) + E0(rho)))^2
        return e_prime - r * rho, slope * (e_one / (e_one + e0)) ** 2 - r

    lo, hi = 1e-9, RHO_MAX
    # the first test spares an E0 solve: it is implied by the second
    if r * RHO_MAX < e_one and excess(RHO_MAX, *(yield RHO_MAX))[0] > 0:
        lo, hi = RHO_MAX, e_one / r
        # E0 is not searched beyond 1e8, where its roundoff grows like rho eps
        if hi > 1e8 and (residual := excess(1e8, *(yield 1e8))[0] / 1e8) > 0:
            raise ConvergenceError("two-stream rate root beyond rho = 1e8", residual)
    lo, hi = yield from root_steps(lo, hi, excess=excess)
    rho = 0.5 * (lo + hi)
    return rho, e_one, (yield rho)[0]


def _timesharing_steps(p: Dmc, r: float, fortify_k: int | None):
    """The timesharing bound at rate r (``bound_at_rate``) as a lane: the
    two-stream curve inverted at r, 0 from capacity on."""
    check_real(r, "rate must be finite, got {}")
    if r >= p.capacity_solution[0] + _fortification_rate(fortify_k):
        return 0.0
    rho, e_one, e_rho = yield from _two_stream_steps(r)
    return _timesharing_point(e_rho, e_one, rho)[1]


def timesharing_exponent(p: Dmc, rho: float, fortify_k: int | None = None) -> tuple[float, float]:
    """One point of the two-stream achievable region:
    E'(rho) = (1/E0(rho) + 1/E0(1))^{-1}, R(rho) = E'(rho)/rho."""
    _fortification_rate(fortify_k)  # checks it
    return _timesharing_point(_e0_point(p, rho, fortify_k)[0],
                              _e0_point(p, 1.0, fortify_k)[0], rho)


def _timesharing_point(e_rho: float, e_one: float, rho: float) -> tuple[float, float]:
    """(R, E') of ``timesharing_exponent`` from E0(rho) and E0(1); sweeps
    over rho solve E0(1) once and call this."""
    check_real(rho, "rho must be positive", 0.0)
    e_prime = 1.0 / (1.0 / e_rho + 1.0 / e_one)
    return e_prime / rho, e_prime


def capacity_slope_timesharing(p: Dmc, fortify_k: int | None = None) -> float:
    """Slope of the two-stream curve at (C, 0): -E0(1) / (C - E0(1) E0''(0) / 2C).
    ``ValueError`` where C is 0: the curve has no point below C."""
    cap_p = _positive_capacity(p, fortify_k)
    e_one = _e0_point(p, 1.0, fortify_k)[0]
    second = e0_second_derivative_at_zero(p, fortify_k=fortify_k)
    return -e_one / (cap_p - e_one * second / (2.0 * cap_p))


def timesharing_curve(p: Dmc, rho_grid, fortify_k: int | None = None) -> list[tuple[float, float]]:
    """(R, E') of ``timesharing_exponent`` at each rho of ``rho_grid``, by increasing R."""
    rhos = sorted(rho_grid, reverse=True)
    (e_one, _), *points = _run_lanes(p, fortify_k, list(map(_at, [1.0, *rhos])))
    return [_timesharing_point(e0, e_one, rho) for rho, (e0, _) in zip(rhos, points)]


# ---------------------------------------------------------------------------
# erasure-channel closed forms (stated in bits, as in the source analysis)
# ---------------------------------------------------------------------------

def bec_focusing_point_bits(beta: float, eta: float) -> tuple[float, float]:
    """Parametric fixed-delay point for a BEC, in bits:
    E = eta - log2(1 + beta (2^eta - 1)), R' = E / eta.

    With g = eta + log2 beta, the log2 of beta 2^eta, E is computed as
    -log2 beta - log1p((1-beta) 2^-g) / ln 2 once g > 40, from
    1 + beta (2^eta - 1) = beta 2^eta (1 + (1-beta) 2^-g), and as
    eta - log1p(beta expm1(eta ln 2)) / ln 2 below: neither form subtracts
    two terms of the size of eta when E is much smaller."""
    check_probability(beta, "erasure probability")
    check_real(eta, "eta must be finite, got {}")
    check_real(eta, "eta must be positive", 0.0)
    e_bits = _bec_focusing_bits(beta, eta)
    return e_bits / eta, e_bits


def _bec_focusing_bits(beta: float, eta: float) -> float:
    """E of ``bec_focusing_point_bits`` for a checked beta and eta."""
    g = eta + math.log2(beta)
    if g > 40.0:
        return -math.log2(beta) - math.log1p((1.0 - beta) * 2.0**-g) / LN2
    return eta - math.log1p(beta * math.expm1(eta * LN2)) / LN2


def bec_focusing_exponent_bits(beta: float, rate_bits: float) -> float:
    """Fixed-delay exponent of a BEC at ``rate_bits``, in base-2 units.

    Inverts the parametric form, whose rate decreases in eta from 1 - beta
    to 0, with ``_crossing_steps`` from the bracket (1e-12, 64).  E stays
    below log2(1/beta), so the root lies below log2(1/beta) / rate; the
    bracket grows until it holds the root, and ``ConvergenceError`` is
    raised only past twice that bound or past eta = 1e300.  Returns +inf
    for finite nonpositive rates and 0 at or above capacity; nan and +-inf
    raise ``ValueError``.
    """
    check_probability(beta, "erasure probability")
    check_real(rate_bits, "rate must be finite, got {}")
    if rate_bits <= 0:
        return math.inf
    if rate_bits >= 1.0 - beta:
        return 0.0

    def point(eta):  # (E, dE/deta = (1-beta) 2^-eta / (beta + (1-beta) 2^-eta))
        tail = (1.0 - beta) * 2.0**-eta
        return _bec_focusing_bits(beta, eta), tail / (beta + tail)

    # 1e300 keeps the fourfold bracket finite at rates below about 1e-300
    cap = min(2.0 * -math.log2(beta) / rate_bits, 1e300)
    lo, hi = run_steps(_crossing_steps(rate_bits, 1e-12, 64.0, cap,
                                       f"BEC focusing rate root beyond eta = {cap:.3g}"), point)
    return 0.5 * (lo + hi) * rate_bits


def bec_anytime_capacity(beta: float, alpha_bits: float) -> float:
    """Reliability-dependent capacity of a BEC:
    C'(alpha) = alpha / (alpha + log2((1-beta)/(1 - 2^alpha beta))), bits/use."""
    check_probability(beta, "erasure probability")
    limit = -math.log2(beta)
    check_real(alpha_bits, f"reliability must lie in (0, {limit:.6f}) base-2 units", 0.0, limit)
    # 1 - 2^alpha beta via expm1 of (alpha + log2 beta) ln 2: alpha may sit
    # within 1e-9 of the limit, where the direct form cancels catastrophically
    one_minus = -math.expm1((alpha_bits - limit) * LN2)
    return alpha_bits / (alpha_bits + math.log2((1.0 - beta) / one_minus))


def bec_lowrate_floor(beta: float, r: float) -> tuple[float, float]:
    """Guaranteed low-rate exponent floor for a BEC.

    For r >= (2 - log2 log2 (1/beta)) / log2 (1/beta) -- any r >= 0 once
    beta <= 1/16 -- every rate R' < 1/(1+2r) bits supports a base-2 delay
    exponent of at least log2(1/beta) - 2 beta^r.  Returns (exponent_bits,
    rate_limit_bits).  Public as the closed-form floor that no figure plots,
    checked against ``bec_anytime_capacity``.
    """
    check_probability(beta, "erasure probability")
    check_real(r, "r must be finite, got {}")
    check_real(r, "r must be nonnegative", 0.0, ends="[)")
    log2_inv_beta = -math.log2(beta)
    threshold = (2.0 - math.log2(log2_inv_beta)) / log2_inv_beta
    if r < threshold and beta > 1.0 / 16.0:
        raise ValueError(
            f"precondition violated: need r >= {threshold:.6f} (or beta <= 1/16)"
        )
    return log2_inv_beta - 2.0 * beta**r, 1.0 / (1.0 + 2.0 * r)


# ---------------------------------------------------------------------------
# rate-sampled curves for the CLI
# ---------------------------------------------------------------------------

def bound_at_rate(p: Dmc, name: str, r: float, fortify_k: int | None = None) -> float:
    """Evaluate one named bound at a rate in nats.  Names: esp, er, er<L>
    (L >= 1), haroutunian, tilde, burnashev, focusing, viterbi, timesharing.
    A name is evaluated as the bound ``solved_as`` names.  Both Haroutunian
    exponents are esp or certified programs over output laws (see
    ``haroutunian``); no bound depends on a seed.  ``bound_curve`` gives
    the same values for many rates at once."""
    name = solved_as(p, name, fortify_k)
    if name == "esp":
        return sphere_packing(p, r, fortify_k)
    if _list_size(name) is not None:
        return random_coding_list(p, r, _list_size(name), fortify_k)
    if name in ("haroutunian", "tilde"):  # unfortified, as solved_as raises otherwise
        return haroutunian(p, r, "tilde" if name == "tilde" else "standard")
    if name == "burnashev":
        return burnashev_bound(p, r, fortify_k)
    if name == "focusing":
        return focusing_bound(p, r, fortify_k)
    if name == "timesharing":  # the two-stream curve inverted at one rate
        return _run_lanes(p, fortify_k, [_timesharing_steps(p, r, fortify_k)])[0]
    raise KeyError(f"unknown bound name: {name}")


def solved_as(p: Dmc, name: str, fortify_k: int | None = None) -> str:
    """The name of the bound whose solve gives bound ``name``'s value on
    ``p``, so that a bound read two ways is solved once.

    viterbi is the focusing bound: the fixed-delay bound has the form of
    Viterbi's convolutional-code bound.  On an output-symmetric channel
    haroutunian and tilde are esp: feedback does not improve the block
    exponent there, tilde = E+ = sphere packing (``haroutunian``).
    Fortified, they are the fortified esp: the super-channel of k uses plus
    one noiseless bit is output-symmetric too.  No program gives either
    fortified exponent without output symmetry, so those raise
    ``ValueError``.  Every other name, an unknown one included, is its own
    solve."""
    if name == "viterbi":
        return "focusing"
    if name in ("haroutunian", "tilde"):
        if p.symmetric:
            return "esp"
        if fortify_k is not None:
            raise ValueError("under fortification: the Haroutunian exponents are known only "
                             "on output-symmetric channels, where they are sphere packing")
    return name


def _list_size(name: str) -> int | None:
    """L of the bound names er (L = 1) and er<L>, L >= 1 written without a
    leading zero; None for every other name."""
    if name == "er":
        return 1
    match = re.fullmatch(r"er([1-9][0-9]*)", name)
    return None if match is None else int(match[1])


def bound_curve(p: Dmc, name: str, rates, fortify_k: int | None = None) -> list[float]:
    """``bound_at_rate`` at every rate of ``rates``, equal to it bit for bit.

    Every rate is a lane of one ``_run_lanes`` run, which reads E0 from
    the channel's store: each round solves the new rho the unfinished lanes
    wait on, together, and no rho is solved twice, so a curve costs at
    most as many rounds as its longest search along rho has E0
    evaluations.  A bound with no such search (haroutunian and tilde
    without output symmetry, burnashev, the general focusing program) is a
    lane that ends at once.  When the lanes raise, ``bound_at_rate`` runs
    over the rates in order and raises the first error, so a curve fails
    as a loop over its rates would; a ``ValueError`` names that rate.
    """
    rates = [float(r) for r in rates]
    try:
        return _run_lanes(p, fortify_k, [_bound_steps(p, name, r, fortify_k) for r in rates])
    except Exception:
        for r in rates:
            try:
                bound_at_rate(p, name, r, fortify_k)
            except ValueError as exc:
                raise ValueError(f"at rate {r}: {exc}") from exc
        raise


def _bound_steps(p: Dmc, name: str, r: float, fortify_k: int | None):
    """Bound ``name`` at rate r as a lane of ``_run_lanes``, solved as the
    bound ``solved_as`` names; a bound with no search along rho is a lane
    that yields nothing and returns ``bound_at_rate``."""
    name = solved_as(p, name, fortify_k)
    if name == "esp":
        return (yield from _sphere_packing_steps(p, r, fortify_k, _lockstep_climb(r)))
    if _list_size(name) is not None:
        return (yield from _random_coding_steps(r, _list_size(name), _lockstep_climb(r)))
    if name == "focusing":
        return (yield from _focusing_steps(p, r, fortify_k))
    if name == "timesharing":
        return (yield from _timesharing_steps(p, r, fortify_k))
    return bound_at_rate(p, name, r, fortify_k)


KNOWN_BOUNDS = ("esp", "er", "haroutunian", "tilde", "burnashev",
                "focusing", "viterbi", "timesharing")
