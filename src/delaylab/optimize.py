"""The numerical searches the bounds engine needs.

1. maximization of a concave function on an interval: golden section, or
   the root of its slope when the slope is known (``slope_argmax_steps``),
2. the bracketed safeguarded Newton root finder for decreasing functions
   (``root_steps``, secant steps when no derivative is given) that every
   rho solve of the bounds runs,
3. maximization of a concave function over the input simplex (cyclic
   pairwise line searches, for any concave objective),
4. the certified solver for Gallager's max_q E0(rho, q) (``maximize_e0``):
   safeguarded Newton steps on the input simplex with an Arimoto fallback,
   stopped by a Hoelder certificate on the distance to the maximum; a
   two-input channel starts at the minimizer on its segment of inputs, one
   Newton root of a scalar slope, which the certificate usually accepts
   with no step on the simplex,
5. minimization of a convex function over the probability simplex from a
   (value, subgradient) oracle, whose cuts of an infeasible point carry the
   violated constraint's value (``minimize_convex_on_simplex``), stopped by
   a certified gap (both Haroutunian exponents, the general focusing bound
   and the divergence threshold): on two letters a segment search that
   steps to the crossing of the newest tangents on either side of the
   minimizer, certified by their value there, galloping toward the segment's end
   while one side is known, and moves past infeasible points to the root
   of their constraint's tangent (``_segment_search``); on more,
   central-cut ellipsoid steps, which also take the ratio of a convex
   function to a positive linear one, which is quasiconvex (the tilde
   Haroutunian exponent and the general focusing bound),
6. multi-start penalized minimization over small channel matrices, which no
   bound calls (the benchmark's tracer binds it by name).

The two searches the rho solves run, ``slope_argmax_steps`` and
``root_steps``, are generators driven by ``run_steps``, which is how
``maximize_concave_1d`` and ``decreasing_root`` run them one at a time and
how ``exponents.bound_curve`` runs a whole curve's worth together.  All
searches are deterministic given their seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dmc import Dmc, ConvergenceError, check_count, check_real, check_seed, uniform_input

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 500  # golden-section steps of maximize_concave_1d
EPS = float(np.finfo(float).eps)
E0_TOL = 1e-12  # certified distance of maximize_e0's value to the maximum
E0_MAX_ITER = 500
ROOT_MAX_ITER = 200  # enough for pure bisection from 1e9 down to the ulp of 1e-12
NEWTON_NEAR = 2.0**-26  # relative Newton correction below which f is roundoff
CONVEX_TOL = 1e-13  # certified gap of minimize_convex_on_simplex
CONVEX_ITER_FACTOR = 100  # its cap, times m (m + 1) + 1 in m dimensions


@dataclass(frozen=True)
class Search1DResult:
    argmax: float
    value: float
    iterations: int


def run_steps(steps, evaluate):
    """Run a search generator to its end and return its result.

    The searches of this module that evaluate one point at a time
    (``root_steps``, ``slope_argmax_steps``) are generators: they yield the
    next point x and receive ``evaluate(x)``, so that a caller can also
    advance many of them together, evaluating their pending points in one
    batch, and still run every search from its one copy."""
    try:
        x = next(steps)
        while True:
            x = steps.send(evaluate(x))
    except StopIteration as stop:
        return stop.value


def maximize_concave_1d(f, lo: float, hi: float, tol: float = 1e-10,
                        slope=None) -> Search1DResult:
    """Maximize a concave ``f`` on [lo, hi].

    Without ``slope``: golden section to a bracket of ``tol``, at most
    ``GOLDEN_MAX_ITER`` steps.  Ties between plateau points resolve to the
    smallest maximizer: when the two probe values are equal the right part
    of the interval is discarded.

    With ``slope`` (the derivative of f, nonincreasing): ``slope_argmax_steps``
    finds the maximizer from slope evaluations alone, and f is evaluated
    once, there.  ``iterations`` counts the slope evaluations inside the
    bracket.
    """
    check_real(hi - lo, "need lo < hi", 0.0)  # and both finite: nan and inf fail
    check_real(tol, "tol must be a positive finite number, got {}", 0.0)
    a, b = float(lo), float(hi)
    if slope is not None:
        # the pairs carry no value of f, so f is evaluated at the argmax
        x, calls = run_steps(slope_argmax_steps(a, b, tol), lambda x: (math.nan, slope(x)))
        return Search1DResult(argmax=x, value=f(x), iterations=calls)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while b - a > tol and it < GOLDEN_MAX_ITER:
        it += 1
        if f1 >= f2:  # keep the left interval on ties -> smallest maximizer
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    cands = [(a, f(a)), (x1, f1), (x2, f2), (b, f(b))]
    finite = [(x, v) for x, v in cands if math.isfinite(v)]
    if not finite:
        raise ValueError("objective is non-finite on the whole interval")
    best_v = max(v for _, v in finite)
    best_x = min(x for x, v in finite if v >= best_v - 1e-15)
    return Search1DResult(argmax=best_x, value=best_v, iterations=it)


def slope_argmax_steps(lo: float, hi: float, tol: float, excess=lambda x, *pair: pair):
    """The maximizer of a concave f on [lo, hi] from its nonincreasing
    slope, as a ``run_steps`` generator: it yields points x, receives a
    tuple t, reads only f'(x) of the pair (f(x), f'(x)) = excess(x, *t)
    (t itself by default), and returns (argmax, iterations).

    An end where the slope already points out of the interval is the
    maximizer (lo when f'(lo) <= 0).
    Otherwise ``root_steps`` closes a bracket of ``tol`` around the root of
    the slope (secant steps, as no second derivative is given; its own cap
    replaces ``GOLDEN_MAX_ITER``), and the argmax is the bracket's midpoint.
    ``iterations`` counts the slope evaluations inside the bracket.
    """
    a, b = float(lo), float(hi)
    if excess(a, *(yield a))[1] <= 0.0:
        return a, 0
    if excess(b, *(yield b))[1] >= 0.0:
        return b, 0
    inside = []  # the points of the slope evaluations inside the bracket

    def slope(x, *received):
        inside.append(x)
        return excess(x, *received)[1], math.nan

    a, b = yield from root_steps(a, b, tol, slope)
    return 0.5 * (a + b), len(inside)


def decreasing_root(f, lo: float, hi: float, tol: float = 0.0) -> tuple[float, float]:
    """``root_steps`` run on ``f(x)``, which returns the pair (f(x), f'(x))."""
    return run_steps(root_steps(lo, hi, tol), f)


def root_steps(lo: float, hi: float, tol: float = 0.0, excess=None):
    """A bracket lo < hi at most ``tol`` or 4 ulps wide, whichever is wider,
    with f(lo) > 0 >= f(hi), for a function that is positive before its
    root and not after (decreasing, or concave through zero), as a
    ``run_steps`` generator that yields points x and receives (f(x), f'(x)),
    or a tuple t with (f(x), f'(x)) = excess(x, *t) when ``excess`` is given.

    f'(x) is nan when the derivative is not known: the secant slope through
    the previous point stands in for it.  The ends are not evaluated, so
    when f does not change sign inside, the bracket closes on the end the
    sign points to.  Each step is a Newton step from the latest point,
    pushed one ulp past the root it predicts so that the bracket closes
    from both sides.  Once the Newton correction is below sqrt(eps) of x,
    the next one is at roundoff level, so f's sign there is noise: the push
    doubles for every such step in a row that does not cross.  A step that
    leaves the bracket, or (before that) is longer than half the previous
    step, or comes from a slope that is not finite and negative, is
    replaced by bisection.  Raises ``ConvergenceError`` with the bracket
    width after ``ROOT_MAX_ITER`` evaluations.
    """
    lo, hi = float(lo), float(hi)
    x = 0.5 * (lo + hi)
    step_old = hi - lo
    side, push = 0, math.ulp(x)
    x_old = value_old = math.nan
    for _ in range(ROOT_MAX_ITER):
        received = yield x
        value, deriv = received if excess is None else excess(x, *received)
        crossed = (value > 0.0) != (side > 0)
        if value > 0.0:
            lo, side = x, 1
        else:
            hi, side = x, -1
        if hi - lo <= max(tol, 4.0 * math.ulp(hi)):
            return lo, hi
        if math.isnan(deriv):
            deriv = (value - value_old) / (x - x_old)
        x_old, value_old = x, value
        newton = -value / deriv if -math.inf < deriv < 0.0 else math.nan
        near = abs(newton) <= NEWTON_NEAR * abs(x)
        push = 2.0 * push if near and not crossed else math.ulp(x)
        step = newton + side * push
        if not (lo < x + step < hi and (near or abs(step) <= 0.5 * abs(step_old))):
            step = 0.5 * (lo + hi) - x
        step_old = step
        x += step
    raise ConvergenceError("root finder iteration cap exceeded", hi - lo)


def maximize_over_simplex(f, dim: int, tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Maximize a concave ``f`` over the probability simplex of dimension ``dim``.

    Cyclic pairwise line searches: mass is moved between coordinate pairs with
    a golden-section search along each segment, which converges for smooth
    concave objectives on the simplex.  Raises ``ConvergenceError`` when a
    cycle still gains more than ``tol`` after 200 cycles.
    """
    check_count(dim, "dimension must be positive")
    check_real(tol, "tol must be a positive finite number, got {}", 0.0)
    if dim == 1:
        q = np.array([1.0])
        return q, float(f(q))
    q = uniform_input(dim)
    val = float(f(q))
    improved = math.inf
    for _ in range(200):
        improved = 0.0
        for i, j in itertools.permutations(range(dim), 2):
            budget = q[i] + q[j]
            if budget <= 0:
                continue

            def along(t, i=i, j=j, budget=budget):
                qq = q.copy()
                qq[i], qq[j] = t, budget - t
                return f(qq)

            res = maximize_concave_1d(along, 0.0, budget, tol=max(tol * 1e-2, 1e-13))
            if res.value > val + 1e-15:
                improved += res.value - val
                q = q.copy()
                q[i], q[j] = res.argmax, budget - res.argmax
                val = res.value
        if improved <= tol:
            return q, val
    raise ConvergenceError("simplex search cycle cap exceeded", improved)


@dataclass(frozen=True)
class E0Solution:
    """max_q E0(rho, q): an input distribution, its E0 and a certified gap.

    ``gap`` bounds max_q E0(rho, q) - ``value`` from above.
    """
    q: np.ndarray
    value: float
    gap: float
    iterations: int


class _E0State:
    """F(q) = sum_y a_y^(1+rho) with a = q W, and beta = W b, at one q.

    The certificate vector b is a^rho on the outputs the support of q
    reaches.  On the others a^rho is 0, but the Hoelder bound holds for any
    b >= 0, so b_y there is the largest value whose share of the dual norm
    sum_y b_y^((1+rho)/rho) is ``pad`` / (rho n0) for each of the n0 such
    outputs; that costs at most ``pad`` of gap.  Without it a zero input
    that would be given astronomically small mass at the optimum (rho
    near 0, where a^rho jumps from 0 to about 1) could never be certified.

    Everything is scaled by powers of max_y a_y so that a^rho cannot
    underflow at large rho: ``beta`` and ``f`` hold beta / amax^rho and
    F / amax^rho, which keeps their ratio exact; ``log_f`` is ln F.
    """

    def __init__(self, q: np.ndarray, w: np.ndarray, rho: float, pad: float):
        self.q, self.w, self.rho, self.pad = q, w, rho, pad
        a = q @ w
        self.amax = float(a.max())
        self.u = a / self.amax
        self.u_rho = self.u ** rho
        f_hat = self.f_hat = float(self.u @ self.u_rho)
        self.f = self.amax * f_hat
        self.log_f = (1.0 + rho) * math.log(self.amax) + math.log(f_hat)
        self.pad_gap = 0.0
        b = self.u_rho
        unreached = self.u == 0
        if unreached.any():
            share = pad / (rho * int(unreached.sum()))
            b = np.where(unreached, (share * f_hat) ** (rho / (1.0 + rho)), b)
            self.pad_gap = rho * math.log1p(pad / rho)
        self.beta = w @ b

    def at(self, q: np.ndarray) -> _E0State:
        return _E0State(q, self.w, self.rho, self.pad)

    def gap(self) -> float:
        bmin = float(self.beta.min())
        if not bmin > 0:
            return math.inf
        return (1.0 + self.rho) * math.log(self.f / bmin) + self.pad_gap


@np.errstate(over="ignore", invalid="ignore")
def _e0_newton_direction(st: _E0State):
    """Newton direction on the free inputs; None when fewer than two are free
    or the solve is not finite.  It is not where some a_y is subnormal and
    rho < 1: a^(rho-1) overflows there, and numpy's warnings for it are off.

    The free inputs are the support of q plus the zero inputs with
    beta_x < F (they want mass); an entering input the step would push
    negative is dropped and the system re-solved.  The Hessian is that of
    F^kappa with kappa = 1 - (rho/(1+rho))^2, which lies between F's and
    that of the norm F^(1/(1+rho)): it is rho W diag(a^(rho-1)) W^T less a
    rank-one term.  The norm's homogeneity keeps the steps long at large
    rho, where F behaves like a single power; the rank-one term is scaled
    so that the curvature along the radial direction stays positive.
    """
    q, beta, w, rho = st.q, st.beta, st.w, st.rho
    free = (q > 0) | (beta < st.f)
    pos = st.u > 0
    curv = st.u_rho[pos] / st.u[pos]
    while True:
        idx = np.flatnonzero(free)
        k = len(idx)
        if k < 2:
            return None
        wf = w[np.ix_(idx, pos)]
        bf = beta[idx]
        hess = (rho / st.amax) * ((wf * curv) @ wf.T
                                  - (rho / (1.0 + rho)) * np.outer(bf, bf) / st.f_hat)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = hess
        # a relative ridge keeps duplicate or dependent rows solvable
        kkt[np.arange(k), np.arange(k)] += 1e-12 * abs(np.trace(hess)) / k
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[:k] = -bf
        try:
            d = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        blocked = (q[idx] == 0) & (d <= 0)
        if blocked.any():
            free[idx[blocked]] = False
            continue
        if not np.all(np.isfinite(d)):
            return None
        if not bf @ d < 0:  # not a descent direction: use the projected gradient
            d = bf.mean() - bf
        return idx, d


def _e0_line_search(st: _E0State, idx, d, slack: float, halvings: int) -> _E0State | None:
    """First of t, t/2, t/4, ... whose point does not raise ln F by more
    than ``slack`` and lowers it by at least 1e-4 of the first-order
    prediction; t is the ratio-test step that keeps q >= 0."""
    q = st.q
    qi = q[idx]
    slope = (1.0 + st.rho) * float(st.beta[idx] @ d) / st.f
    shrink = d < 0
    t, block = 1.0, -1
    if shrink.any():
        ratios = -qi[shrink] / d[shrink]
        j = int(np.argmin(ratios))
        if ratios[j] < 1.0:
            t, block = float(ratios[j]), int(idx[shrink][j])
    for half in range(halvings + 1):
        qn = q.copy()
        qn[idx] = qi + t * d
        if half == 0 and block >= 0:
            qn[block] = 0.0  # the blocking input leaves the support exactly
        np.maximum(qn, 0.0, out=qn)
        qn /= qn.sum()
        trial = st.at(qn)
        if trial.log_f <= st.log_f + slack + 1e-4 * t * slope:
            return trial
        t *= 0.5
    return None


def _segment_start(w: np.ndarray, rho: float) -> np.ndarray:
    """The minimizer of F on a two-input channel's simplex, the segment
    q = (t, 1 - t).  There F(t) = sum_y (w1 + t d)_y^(1+rho), d = w0 - w1,
    is convex with F'(t) = (1+rho) d . a^rho and exact
    F''(t) = rho (1+rho) d^2 . a^(rho-1).  An end whose slope points out of
    the segment is the minimizer (t = 0 when F'(0) >= 0, t = 1 when
    F'(1) <= 0); otherwise ``root_steps`` brackets the root of F' with
    Newton steps, and the bracket end with the smaller |F'| is returned.
    Both derivatives are taken over (1+rho) amax^rho with u = a / max a, so
    that a^rho cannot underflow at large rho."""
    d = w[0] - w[1]
    d2 = d * d
    slopes = {}

    def slope(t):  # (-F'(t), -F''(t)), each over (1+rho) amax^rho
        a = w[1] + t * d
        amax = float(a.max())
        u = a / amax
        u_rho = u ** rho
        slopes[t] = value = -float(d @ u_rho)
        return value, -rho * float(d2 @ (u_rho / u)) / amax

    # u = 0 at an end, and u^(rho-1) may overflow inside: a derivative
    # that is not finite makes root_steps bisect
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if slope(0.0)[0] <= 0.0:
            t = 0.0
        elif slope(1.0)[0] >= 0.0:
            t = 1.0
        else:
            try:
                lo, hi = run_steps(root_steps(0.0, 1.0), slope)
            except ConvergenceError:
                # the root lies below about 2^-148, beyond what ROOT_MAX_ITER
                # bisections from 1 reach: start where other channels do
                return uniform_input(2)
            t = lo if abs(slopes[lo]) <= abs(slopes[hi]) else hi
    return np.array([t, 1.0 - t])


def maximize_e0(rows, rho: float) -> E0Solution:
    """Certified max_q E0(rho, q) for a channel matrix ``rows`` and rho > 0.

    Minimizes the convex F(q) = sum_y a_y^(1+rho), a = q W with
    W = P^(1/(1+rho)) on the outputs with a nonzero column, so that
    E0(rho, q) = -ln F(q) (Gallager 1965).  A two-input channel starts at
    F's minimizer on its segment (``_segment_start``: one Newton root of
    F'(t)), any other at the uniform input; the start's certificate is
    checked like every iterate's, so a certified start takes no iteration
    and any other continues from it.  Each iteration:

    * a Newton step on the free inputs (``_e0_newton_direction``) bordered
      by sum(d) = 0, cut by a ratio test that keeps q on the simplex and
      halved until F does not rise by more than a roundoff slack
      proportional to (1+rho) |Y| eps;
    * failing that, when the smallest beta_x belongs to an input with no
      mass, a step toward that vertex (F decreases along it to first order);
    * otherwise Arimoto's monotone multiplicative step
      q_x <- q_x beta_x^(-1/rho) / normalizer (Arimoto 1976).

    It stops once the Hoelder certificate
        gap = (1+rho) ln(F / min_x beta_x),  beta = W a^rho,
    which bounds max_q E0 - E0(rho, q) from above, is at most ``E0_TOL``
    (raised to the roundoff floor max(8 |Y|, 1+rho) (1+rho) eps when that
    is larger: it stays below 1e-12 for rho <= 64 only while |Y| <= 8),
    and raises ``ConvergenceError`` carrying the gap after ``E0_MAX_ITER``
    iterations.  The gap, summed in floats, is exact only to that floor; one
    below 0 (-1.1e-9 on Z(0.5) at rho = 1e7) is reported as 0.
    """
    check_real(rho, "rho must be positive", 0.0, math.inf, "(]")
    check_real(rho, "rho must be finite")
    rows = np.asarray(rows, dtype=float)
    nx = rows.shape[0]
    w = rows[:, rows.any(axis=0)] ** (1.0 / (1.0 + rho))
    slack = 4.0 * (1.0 + rho) * w.shape[1] * EPS
    tol = max(E0_TOL, 2.0 * slack, (1.0 + rho) ** 2 * EPS)
    start = _segment_start(w, rho) if nx == 2 else uniform_input(nx)
    st = _E0State(start, w, rho, pad=tol / 4.0)
    gap = st.gap()
    it = 0
    while gap > tol:
        if it == E0_MAX_ITER:
            raise ConvergenceError("E0 solver iteration cap exceeded", gap)
        it += 1
        step = _e0_newton_direction(st)
        trial = None
        if step is not None:
            trial = _e0_line_search(st, *step, slack=slack, halvings=10)
        x = int(np.argmin(st.beta))
        if trial is None and st.q[x] == 0:
            # F may grow like t^(1+rho) along the way in (an output only x
            # reaches), so the mass that lowers F can be tiny: halve far
            trial = _e0_line_search(st, np.arange(nx), np.eye(nx)[x] - st.q,
                                    slack=slack, halvings=60)
        if trial is None:
            support = st.q > 0
            log_beta = np.log(st.beta[support])
            qn = np.zeros(nx)
            qn[support] = st.q[support] * np.exp(-(log_beta - log_beta.min()) / rho)
            trial = st.at(qn / qn.sum())
        st = trial
        gap = st.gap()
    return E0Solution(q=st.q, value=-st.log_f, gap=max(gap, 0.0), iterations=it)


@dataclass(frozen=True)
class ConvexSolution:
    """min of a convex function over the simplex: the best point found, its
    value, and ``gap``, a certified upper bound on ``value`` - minimum."""
    q: np.ndarray
    value: float
    gap: float
    iterations: int


def minimize_convex_on_simplex(oracle, dim: int, divisor=None) -> ConvexSolution:
    """Minimize a convex f over the probability simplex of dimension ``dim``.

    ``oracle(q)`` is called at points q with positive coordinates summing to
    one.  It returns (f(q), g) with g a subgradient of f at q, or, when q
    violates a convex constraint c <= 0 of f's domain, the cut (inf, h, c)
    with c = c(q) > 0 and h the gradient of c at q; g and h have ``dim``
    entries.  Two letters run ``_segment_search``, which reads c; more run
    on the first ``dim`` - 1 coordinates central-cut ellipsoid steps from
    the ball of radius 1 about the barycentre, which holds the simplex, and
    ignore c.  A center with a coordinate <= 0 is cut by
    that coordinate.  Every cut keeps the minimizer inside the ellipsoid
    E_k = {c_k + B_k u : |u| <= 1}, so each feasible center certifies
        min f >= f(c_k) - |B_k^T g_k|,
    and ``gap`` is the best value less the largest of these bounds, or 0
    where rounded centers put that bound above the best value.  The
    ellipsoid is kept as the factor B_k, updated by a rank-one correction in
    its own whitened coordinates, so it stays positive definite when the
    domain is a thin slab (a width of 1e-10 next to 1 makes P_k = B_k B_k^T
    too ill-conditioned to update directly).  Stops once the gap is at most
    ``CONVEX_TOL``, an absolute gap: at values of 512 or more it is below
    one ulp of f, and the certificate is no finer than roundoff.  After
    ``CONVEX_ITER_FACTOR`` (m (m + 1) + 1) iterations
    in m = ``dim`` - 1 dimensions (the ellipsoid's width shrinks by about
    exp(-1 / (2 m (m + 1))) per step) it returns if the gap is within the
    roundoff floor 4 eps (|f(c)| + |g| |c|) at the best center c, which a
    float center resolves no better (in thin domains with a steep f, E+ just
    above R_inf, the ellipsoid stalls there), and raises
    ``ConvergenceError`` with the gap otherwise (inf when no center was
    feasible).

    With ``divisor``, a nonnegative vector e (three or more letters; a
    segment rejects it), f need not be convex: it is
    f = h / s with h convex and s(q) = e . q positive on the domain, and g
    is f's gradient.  Such an f is quasiconvex, so the cut through a center
    still keeps its sublevel set, and the minimizer, in the ellipsoid.  The
    bound becomes min f >= f(c_k) - |B_k^T g_k| / (1 - |B_k^T e| / s(c_k))
    (no bound while |B_k^T e| >= s(c_k)): h - t s is convex with
    subgradient s(c_k) g_k + (f(c_k) - t) e, so it stays >= 0 on E_k for
    every t up to that value, and f = h / s >= t there.  The correction
    fades as the ellipsoid shrinks.
    """
    check_count(dim, "need a simplex of dimension at least 2", 2)
    m = dim - 1
    if m == 1:
        if divisor is not None:
            raise ValueError("a divisor needs a simplex of dimension at least 3")
        return _segment_search(oracle)
    center = np.full(m, 1.0 / dim)
    factor = np.eye(m)
    # P <- m^2/(m^2-1) (P - 2/(m+1) P g g^T P / g^T P g), as B <- s B (I - c u u^T)
    scale = m / math.sqrt(m * m - 1.0)
    shrink = 1.0 - math.sqrt((m - 1.0) / (m + 1.0))
    best, best_q, lower, floor = math.inf, None, -math.inf, 0.0
    if divisor is not None:
        divisor = np.asarray(divisor, dtype=float)
        divisor_dir = divisor[:-1] - divisor[-1]
    for it in range(1, CONVEX_ITER_FACTOR * (m * (m + 1) + 1) + 1):
        q = np.append(center, 1.0 - center.sum())
        y = int(np.argmin(q))
        if q[y] <= 0.0:
            value, g = math.inf, -np.eye(dim)[y]
        else:
            value, g, *_ = oracle(q)  # a central cut: c is not read
        g = np.asarray(g, dtype=float)
        g = g[:-1] - g[-1]
        w = factor.T @ g
        norm = math.sqrt(float(w @ w))
        if value < math.inf:
            if value < best:
                best, best_q = value, q
                floor = 4.0 * EPS * (abs(value) + float(np.linalg.norm(g) * np.linalg.norm(q)))
            slack = norm
            if divisor is not None:
                spread = float(np.linalg.norm(factor.T @ divisor_dir)) / float(divisor @ q)
                slack = norm / (1.0 - spread) if spread < 1.0 else math.inf
            lower = max(lower, value - slack)
            if best - lower <= CONVEX_TOL:
                return _solution(best_q, best, lower, it)
        if not norm > 0.0:
            raise ConvergenceError("cut with no direction (a zero cut, or the "
                                   "ellipsoid has collapsed onto a point)",
                                   best - lower if best < math.inf else math.inf)
        u = w / norm
        step = factor @ u
        center = center - step / (m + 1)
        factor = scale * (factor - shrink * np.outer(step, u))
    return _capped(best, best_q, lower, floor, it)


def _solution(best_q, best: float, lower: float, it: int) -> ConvexSolution:
    """The best point with its gap to the lower bound, reported as 0 where
    rounding puts the bound above the best value."""
    return ConvexSolution(q=best_q, value=best, gap=max(best - lower, 0.0), iterations=it)


def _capped(best: float, best_q, lower: float, floor: float, it: int) -> ConvexSolution:
    """The result of a convex search that can go no further (its iteration
    cap, or no float left inside a segment's bracket): the best point when
    its gap is within the roundoff ``floor``, otherwise ``ConvergenceError``
    with the gap (inf when no point was feasible)."""
    if best - lower <= floor:
        return _solution(best_q, best, lower, it)
    raise ConvergenceError("convex simplex search iteration cap exceeded",
                           best - lower if best < math.inf else math.inf)


def _segment_search(oracle) -> ConvexSolution:
    """``minimize_convex_on_simplex`` on two letters, q = (x, 1 - x): a
    bracket [lo, hi] of x that holds the minimizer, narrowed by tangents.

    A feasible point with f'(x) < 0 (> 0) is the newest on the left (right)
    of the minimizer and becomes lo (hi); f'(x) = 0 is the minimum.  Every
    tangent lies below the convex f, and the newest on each side is the
    highest of its side on the bracket, so min f is at least the value of
    the two tangents at their crossing (both are evaluated there and the
    smaller is taken, the one rounding lifts less), or, with one side
    known, that side's tangent at the bracket's far end.  The gap is the
    best value less the largest such bound (``_solution``).  The next
    point is the crossing (Kelley 1960, in one dimension); the midpoint
    replaces it when it is not strictly inside the bracket or when the
    bracket has not halved in two steps.  With one side known the next
    point lies (hi - lo)^2 from the bracket's other end, the midpoint or
    closer (the bracket is then at most 1/2 wide), so that a minimizer
    near an end of the segment, where nearly noiseless rows put it, is
    passed in doubly exponential steps rather than halvings.

    An infeasible point's cut (inf, h, c) is a deep cut: c is convex, so it
    is positive at every point before its tangent's root x - c / c'(x),
    c'(x) = h_0 - h_1, and that root becomes the bracket's end.  The next
    point is one ulp inside it, the push doubling for every further
    infeasible point in a row, as ``root_steps``' pushes do: a cut whose
    c is roundoff (c <= 0) moves the end only to the point itself.  Where
    the cut's root passes the other end, the domain meets the bracket only
    there: at the feasible point that end holds, or nowhere, which raises
    ``ConvergenceError`` with an infinite gap.  The stop, the cap of
    ``CONVEX_ITER_FACTOR`` 3 oracle calls and the roundoff floor are those
    of the ellipsoid (``_capped``); the floor also applies as soon as no
    float is left inside the bracket, as no later point can lower the gap
    (on an edge where E+ = 420 and f' = 1018, the point an ulp inside
    leaves a gap of 1.1e-13)."""
    lo, hi = 0.0, 1.0
    left = right = None  # (x, f(x), f'(x)) of the newest feasible point on each side
    best, best_q, lower, floor = math.inf, None, -math.inf, 0.0
    widths = [1.0, 1.0]  # the bracket's widths after each step
    x, push = 0.5, 0.0
    for it in range(1, 3 * CONVEX_ITER_FACTOR + 1):
        q = np.array([x, 1.0 - x])
        value, g, *cut = oracle(q)
        slope = float(g[0] - g[1])
        kelley = math.nan
        if value < math.inf:
            push = 0.0
            if value < best:
                best, best_q = value, q
                floor = 4.0 * EPS * (abs(value) + abs(slope) * float(np.linalg.norm(q)))
            if slope < 0.0:
                left, lo = (x, value, slope), x
            elif slope > 0.0:
                right, hi = (x, value, slope), x
            if slope == 0.0:
                bound = value
            elif left is not None and right is not None:
                (xl, fl, sl), (xr, fr, sr) = left, right
                kelley = min(max(xl + (fl - fr + sr * (xr - xl)) / (sr - sl), xl), xr)
                bound = min(fl + sl * (kelley - xl), fr + sr * (kelley - xr))
            elif left is not None:
                bound = left[1] + left[2] * (hi - left[0])
            else:
                bound = right[1] + right[2] * (lo - right[0])
            lower = max(lower, bound)
            if best - lower <= CONVEX_TOL:
                return _solution(best_q, best, lower, it)
            if left is None or right is None:
                step = lo + (hi - lo) ** 2 if left is None else hi - (hi - lo) ** 2
            else:
                step = kelley if hi - lo <= 0.5 * widths[-2] else math.nan
        else:
            if not slope:
                raise ConvergenceError("cut with no direction (a zero cut)",
                                       best - lower if best < math.inf else math.inf)
            root = x - cut[0] / slope
            if slope < 0.0:  # c falls to the right: everything before the root is out
                lo = end = min(max(x, root), hi)
            else:
                hi = end = max(min(x, root), lo)
            push = 2.0 * push if push else math.ulp(max(end, 1.0 - end))
            step = end - math.copysign(push, slope)
            if lo == hi:
                other = right if slope < 0.0 else left
                if other is None or other[0] != end:
                    raise ConvergenceError("no feasible point on the segment", math.inf)
                return _solution(best_q, best, max(lower, other[1]), it)
        widths.append(hi - lo)
        x = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < x < hi:  # no float is left inside the bracket
            break
    return _capped(best, best_q, lower, floor, it)


def _lexicographic_key(g: Dmc) -> tuple:
    return tuple(np.round(g.rows, 12).ravel())


def minimize_over_channels(objective, feasible, dims: tuple[int, int],
                           restarts: int = 64, seed: int = 0,
                           penalty=None, row_supports=None) -> tuple[Dmc, float]:
    """Minimize ``objective`` over |X| x |Y| stochastic matrices G with ``feasible(G)``.

    Multi-start coordinate descent on rows: each row is improved by
    golden-section line searches toward its support vertices.  The constraint
    enters through ``penalty`` (continuous, 0 when feasible) scaled by an
    escalating coefficient, and ``feasible`` is re-checked on every candidate.
    ``row_supports`` restricts each row of G to a support set, which keeps
    divergence objectives finite.

    Deterministic given ``seed``; the start list only grows with ``restarts``,
    so the best value never worsens as restarts increase.  Restarts stop early
    once 12 consecutive starts fail to improve the best value, which
    preserves both determinism and monotonicity in ``restarts``.  A descent
    cycle ends its stage once it gains at most 1e-9; its line searches run
    to 1e-5, and to 1e-8 when the winner is polished.
    """
    nx, ny = dims
    check_count(restarts, "restarts must be a positive integer, got {}")
    seed = check_seed(seed)
    if nx > 4 or ny > 4:
        raise ValueError("channel minimization supports alphabets up to 4x4")
    if penalty is None:
        penalty = lambda g: 0.0
    if row_supports is None:
        row_supports = [np.arange(ny)] * nx

    def build(rows):
        rows = np.clip(rows, 0.0, 1.0)
        return Dmc(rows / rows.sum(axis=1, keepdims=True))

    def scored(rows, kappa):
        g = build(rows)
        val = objective(g)
        if not math.isfinite(val):
            return math.inf
        return val + kappa * penalty(g)

    rng = np.random.default_rng(seed)
    uniform_rows = np.zeros((nx, ny))
    for x in range(nx):
        uniform_rows[x, row_supports[x]] = 1.0 / len(row_supports[x])
    starts = [uniform_rows]
    while len(starts) < max(restarts, 1):
        rows = np.zeros((nx, ny))
        for x in range(nx):
            rows[x, row_supports[x]] = rng.dirichlet(np.ones(len(row_supports[x])))
        starts.append(rows)

    def descend(rows, kappas, max_cycles, step_tol):
        for kappa in kappas:
            current = scored(rows, kappa)
            for _ in range(max_cycles):
                cycle_gain = 0.0
                for x in range(nx):
                    support = row_supports[x]
                    if len(support) < 2:
                        continue
                    for letter in support:
                        target = np.zeros(ny)
                        target[letter] = 1.0

                        def along(t, x=x, target=target, rows=rows):
                            trial = rows.copy()
                            trial[x] = (1 - t) * rows[x] + t * target
                            return -scored(trial, kappa)

                        res = maximize_concave_1d(along, 0.0, 1.0, tol=step_tol)
                        if -res.value < current - 1e-14:
                            cycle_gain += current - (-res.value)
                            rows = rows.copy()
                            rows[x] = (1 - res.argmax) * rows[x] + res.argmax * target
                            current = -res.value
                if cycle_gain <= 1e-9:
                    break
        return rows

    def finish(rows):
        g = build(rows)
        val = objective(g)
        if not (math.isfinite(val) and feasible(g)):
            return None
        return val, _lexicographic_key(g), g, rows

    best = None
    stale = 0
    for rows0 in starts[:max(restarts, 1)]:
        rows = descend(rows0.copy(), (1e2, 1e4, 1e6, 1e8), 6, 1e-5)
        cand = finish(rows)
        if cand is not None and (best is None or cand[0] < best[0] - 1e-10):
            best = cand
            stale = 0
        else:
            if cand is not None and best is not None and cand[:2] < best[:2]:
                best = cand  # equal value, lexicographically smaller channel
            stale += 1
            if best is not None and stale >= 12:
                break

    if best is None:
        raise ConvergenceError("no feasible channel found", math.inf)

    # polish the winner with a tight line tolerance
    rows = descend(best[3].copy(), (1e8,), 3, 1e-8)
    cand = finish(rows)
    if cand is not None and cand[:2] < best[:2]:
        best = cand
    return best[2], best[0]
