import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delaylab import dmc, exponents as ex, optimize
from delaylab.exponents import gallager_e0, sphere_packing
from oracles import (bisect_segment, blahut_arimoto, capacity_two_inputs,
                     e0_two_inputs_mp, z05_haroutunian_mp)


class TestSearchSteps:
    """The 1-D searches are generators: driven one at a time by their
    scalar APIs, or many together, they evaluate the same points."""

    @staticmethod
    def quartic(c):
        return lambda x: (-(x - c) ** 4, -4.0 * (x - c) ** 3)

    def test_slope_argmax_reads_only_the_slope(self):
        f = self.quartic(1.3)
        with_values = optimize.run_steps(optimize.slope_argmax_steps(0.0, 3.0, 1e-9), f)
        without = optimize.run_steps(optimize.slope_argmax_steps(0.0, 3.0, 1e-9),
                                     lambda x: (math.nan, f(x)[1]))
        res = optimize.maximize_concave_1d(lambda x: f(x)[0], 0.0, 3.0, tol=1e-9,
                                           slope=lambda x: f(x)[1])
        assert with_values == without == (res.argmax, res.iterations)
        assert res.value == f(res.argmax)[0]

    @pytest.mark.parametrize("centre,end", [(-1.0, 0.0), (3.5, 3.0)])
    def test_slope_argmax_at_an_end_evaluates_it_once(self, centre, end):
        f, seen = self.quartic(centre), []
        got = optimize.run_steps(optimize.slope_argmax_steps(0.0, 3.0, 1e-9),
                                 lambda x: seen.append(x) or f(x))
        assert got == (end, 0)
        assert seen.count(end) == 1

    def test_lockstep_equals_one_at_a_time(self):
        centres = [0.2, 1.0, 1.7, 2.9, 3.5, -1.0]
        alone = [optimize.run_steps(optimize.slope_argmax_steps(0.0, 3.0, 1e-9),
                                    self.quartic(c)) for c in centres]
        roots = [optimize.decreasing_root(lambda x, c=c: (c - x, -1.0), -5.0, 5.0)
                 for c in centres]
        lanes = [optimize.slope_argmax_steps(0.0, 3.0, 1e-9) for _ in centres]
        lanes += [optimize.root_steps(-5.0, 5.0) for _ in centres]
        fns = [self.quartic(c) for c in centres] + [lambda x, c=c: (c - x, -1.0)
                                                     for c in centres]
        results, points = [None] * len(lanes), {i: next(g) for i, g in enumerate(lanes)}
        while points:
            for i, x in list(points.items()):  # one round: every lane, one point
                try:
                    points[i] = lanes[i].send(fns[i](x))
                except StopIteration as stop:
                    results[i] = stop.value
                    del points[i]
        assert results == alone + roots


class TestMaximizeConcave1d:
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_bracket_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="^need lo < hi$"):
            optimize.maximize_concave_1d(lambda x: -x * x, lo, hi)

    def test_quadratic(self):
        res = optimize.maximize_concave_1d(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
        assert res.argmax == pytest.approx(2.0, abs=1e-8)
        assert res.value == pytest.approx(0.0, abs=1e-15)

    def test_gallager_bracket_vs_grid(self, bsc002):
        # oracle: dense grid scan of E0(rho) - rho R
        r = 0.3
        q = np.array([0.5, 0.5])
        rhos = np.linspace(0.0, 4.0, 1_000_001)
        inner = (q[:, None, None] * bsc002.rows[:, None, :] **
                 (1.0 / (1.0 + rhos[None, :, None]))).sum(axis=0)
        e0 = -np.log((inner ** (1.0 + rhos[:, None])).sum(axis=1))
        grid_best = float(np.max(e0 - rhos * r))
        res = optimize.maximize_concave_1d(
            lambda rho: gallager_e0(bsc002, rho, q) - rho * r, 0.0, 4.0, tol=1e-9)
        assert res.value == pytest.approx(grid_best, abs=1e-6)

    def test_constant_returns_smallest(self):
        res = optimize.maximize_concave_1d(lambda x: 1.0, 0.25, 9.0, tol=1e-10)
        assert res.argmax == pytest.approx(0.25, abs=1e-9)

    def test_random_concave_quadratics_vs_grid(self):
        rng = np.random.default_rng(3)
        tol = 1e-8
        for _ in range(100):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-1.0, 6.0)
            c = rng.uniform(-2.0, 2.0)
            f = lambda x: -a * (x - b) ** 2 + c
            xs = np.linspace(0.0, 5.0, 1_000_001)
            grid_best = float(np.max(-a * (xs - b) ** 2 + c))
            res = optimize.maximize_concave_1d(f, 0.0, 5.0, tol=tol)
            assert res.value >= grid_best - 10 * tol

    def test_all_nonfinite_raises(self):
        with pytest.raises(ValueError):
            optimize.maximize_concave_1d(lambda x: -math.inf, 0.0, 1.0)


class TestMaximizeBySlope:
    def test_random_concave_quadratics_agree_with_golden_section(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-1.0, 6.0)
            c = rng.uniform(-2.0, 2.0)
            f = lambda x: -a * (x - b) ** 2 + c
            golden = optimize.maximize_concave_1d(f, 0.0, 5.0, tol=1e-10)
            res = optimize.maximize_concave_1d(f, 0.0, 5.0, tol=1e-10,
                                               slope=lambda x: -2.0 * a * (x - b))
            assert res.value == pytest.approx(golden.value, abs=1e-15)
            assert res.argmax == pytest.approx(min(max(b, 0.0), 5.0), abs=1e-10)

    def test_gallager_objective_needs_few_evaluations(self, bsc002):
        q = np.array([0.5, 0.5])
        f = lambda rho: gallager_e0(bsc002, rho, q) - 0.3 * rho
        golden = optimize.maximize_concave_1d(f, 0.0, 64.0, tol=1e-9)
        res = optimize.maximize_concave_1d(
            f, 0.0, 64.0, tol=1e-9, slope=lambda rho: ex.e0_slope(bsc002, rho, q) - 0.3)
        assert res.value == pytest.approx(golden.value, rel=1e-14)
        assert 0 < res.iterations <= 20 < golden.iterations

    def test_slope_pointing_out_picks_the_end(self):
        res = optimize.maximize_concave_1d(lambda x: 1.0, 0.25, 9.0, slope=lambda x: 0.0)
        assert (res.argmax, res.value, res.iterations) == (0.25, 1.0, 0)
        res = optimize.maximize_concave_1d(lambda x: x, 0.25, 9.0, slope=lambda x: 1.0)
        assert (res.argmax, res.value, res.iterations) == (9.0, 9.0, 0)

    def test_iteration_cap_raises_with_bracket_width(self, monkeypatch):
        monkeypatch.setattr(optimize, "ROOT_MAX_ITER", 3)
        with pytest.raises(dmc.ConvergenceError) as err:
            optimize.maximize_concave_1d(lambda x: -(x - 1.0) ** 4, 0.0, 3.0,
                                         slope=lambda x: -4.0 * (x - 1.0) ** 3)
        assert 1e-12 < err.value.residual < 3.0


class TestDecreasingRoot:
    @staticmethod
    def newton_pair(f, df):
        return lambda x: (f(x), df(x))

    def test_brackets_the_root_within_four_ulps(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            root = rng.uniform(0.01, 50.0)
            k = rng.uniform(0.1, 10.0)
            # decreasing, concave through zero, and convex cases
            for f, df in ((lambda x: k * (root - x), lambda x: -k),
                          (lambda x: math.log(root / x), lambda x: -1.0 / x),
                          (lambda x: root**3 - x**3, lambda x: -3.0 * x**2)):
                lo, hi = optimize.decreasing_root(self.newton_pair(f, df), 1e-9, 64.0)
                assert f(lo) > 0.0 >= f(hi)
                assert hi - lo <= 4.0 * math.ulp(hi)
                assert lo <= root * (1 + 1e-14) and hi >= root * (1 - 1e-14)

    def test_agrees_with_bisection(self):
        from oracles import bisect
        f = lambda x: math.exp(-x) - 0.3 * x
        lo, hi = optimize.decreasing_root(lambda x: (f(x), -math.exp(-x) - 0.3), 0.0, 10.0)
        b_lo, b_hi = bisect(lambda x: f(x) > 0.0, 0.0, 10.0, 200)
        assert b_lo - 4.0 * math.ulp(b_hi) <= lo <= hi <= b_hi + 4.0 * math.ulp(b_hi)

    def test_few_evaluations_with_and_without_slope(self):
        calls = []

        def f(x, slope=True):
            calls.append(x)
            return 2.0 - x * x, (-2.0 * x if slope else math.nan)

        optimize.decreasing_root(f, 0.0, 64.0)
        assert len(calls) <= 15
        calls.clear()
        lo, hi = optimize.decreasing_root(lambda x: f(x, slope=False), 0.0, 64.0)
        assert lo <= math.sqrt(2.0) <= hi and hi - lo <= 4.0 * math.ulp(hi)
        assert len(calls) <= 20  # secant steps; bisection alone takes over 50

    def test_converged_secant_search_does_not_bisect_back(self):
        # the rho search of random coding at this rate closes in on its root
        # from one side; there the secant through two points a few ulps
        # apart is roundoff, 0 or positive.  Bisecting on it walked back
        # across the whole bracket: 41 E0 points on a fresh channel, against
        # 13 when the search keeps its last secant
        ch = dmc.bsc(0.02)
        ex.random_coding_list(ch, 0.576180533573951)
        assert len(ch.e0_points) <= 15

    def test_tolerance_stops_at_a_wider_bracket(self):
        calls = []

        def f(x):
            calls.append(x)
            return 2.0 - x * x, math.nan

        lo, hi = optimize.decreasing_root(f, 0.0, 64.0, tol=1e-6)
        assert lo <= math.sqrt(2.0) <= hi and hi - lo <= 1e-6
        wide = len(calls)
        calls.clear()
        optimize.decreasing_root(f, 0.0, 64.0)
        assert wide < len(calls)

    def test_no_sign_change_closes_on_an_end(self):
        lo, hi = optimize.decreasing_root(lambda x: (1.0, -1.0), 0.5, 2.0)
        assert hi == 2.0 and hi - lo <= 4.0 * math.ulp(2.0)
        lo, hi = optimize.decreasing_root(lambda x: (-1.0, -1.0), 0.5, 2.0)
        assert lo == 0.5 and hi - lo <= 4.0 * math.ulp(0.5)

    def test_iteration_cap_raises_with_bracket_width(self, monkeypatch):
        monkeypatch.setattr(optimize, "ROOT_MAX_ITER", 2)
        # two bisections (no slope, no previous point yet): 0.5, then 0.25
        with pytest.raises(dmc.ConvergenceError) as err:
            optimize.decreasing_root(lambda x: (1.0 / 3.0 - x, math.nan), 0.0, 1.0)
        assert err.value.residual == 0.25


class TestMaximizeOverSimplex:
    def test_mutual_information_bsc(self, bsc002):
        q, val = optimize.maximize_over_simplex(
            lambda q: dmc.mutual_information(bsc002, q), 2, tol=1e-12)
        assert val == pytest.approx(0.5951080672802133, abs=1e-9)
        assert q == pytest.approx([0.5, 0.5], abs=1e-5)

    def test_dim_one(self):
        q, val = optimize.maximize_over_simplex(lambda q: 3.14, 1)
        assert q.tolist() == [1.0]
        assert val == 3.14

    def test_e0_at_rho_one(self, bsc002):
        # oracle: ln 2 - ln(1 + 2 sqrt(p(1-p)))
        expected = math.log(2) - math.log(1 + 2 * math.sqrt(0.02 * 0.98))
        q, val = optimize.maximize_over_simplex(
            lambda q: gallager_e0(bsc002, 1.0, q), 2, tol=1e-12)
        assert val == pytest.approx(expected, abs=1e-9)
        assert q == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_dim3_vs_barycentric_grid(self):
        rng = np.random.default_rng(5)
        center = rng.dirichlet(np.ones(3))
        f = lambda q: -float(np.sum((q - center) ** 2))
        # dense barycentric grid oracle
        steps = np.linspace(0.0, 1.0, 401)
        best = -math.inf
        for q0 in steps:
            q1 = np.linspace(0.0, 1.0 - q0, 201)
            q2 = 1.0 - q0 - q1
            vals = -((q0 - center[0]) ** 2 + (q1 - center[1]) ** 2 + (q2 - center[2]) ** 2)
            best = max(best, float(vals.max()))
        _, val = optimize.maximize_over_simplex(f, 3, tol=1e-10)
        assert val >= best - 1e-4


class TestMinimizeConvexOnSimplex:
    def test_one_letter_rejected(self):
        with pytest.raises(ValueError, match="^need a simplex of dimension at least 2$"):
            optimize.minimize_convex_on_simplex(lambda q: (0.0, np.zeros(1)), 1)

    @staticmethod
    def capacity_oracle(p):
        """C(P) = min_q max_x D(P_x || q); the gradient of D(P_x || q) in q
        is -P_x / q."""
        rows = np.asarray(p.rows)

        def oracle(q):
            div = [dmc.divergence_rows(row, q) for row in rows]
            x = int(np.argmax(div))
            return div[x], -rows[x] / q
        return oracle

    @pytest.mark.parametrize("rows", [
        [[0.98, 0.02], [0.02, 0.98]],
        [[1.0, 0.0], [0.5, 0.5]],
        [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]],
        [[0.6, 0.1, 0.2, 0.1], [0.1, 0.5, 0.1, 0.3], [0.2, 0.2, 0.5, 0.1]],
    ])
    def test_capacity_min_max_form(self, rows):
        p = dmc.Dmc(rows)
        sol = optimize.minimize_convex_on_simplex(self.capacity_oracle(p), p.output_size)
        assert 0.0 <= sol.gap <= optimize.CONVEX_TOL
        assert sol.value == pytest.approx(blahut_arimoto(p, 1e-13)[0], abs=1e-12)
        assert sol.q.sum() == pytest.approx(1.0, abs=1e-15) and sol.q.min() > 0

    def test_constraint_cuts_hold_the_minimizer(self):
        # min of q_0 + 2 q_1 subject to q_1 >= 0.4: 0.8 at q = (0, 0.4, 0.6)
        def oracle(q):
            if q[1] < 0.4:
                return math.inf, np.array([0.0, -1.0, 0.0]), 0.4 - q[1]
            return q[0] + 2.0 * q[1], np.array([1.0, 2.0, 0.0])

        sol = optimize.minimize_convex_on_simplex(oracle, 3)
        assert sol.value == pytest.approx(0.8, abs=1e-12)
        assert sol.value - sol.gap <= 0.8 <= sol.value

    def test_quasiconvex_ratio_with_a_divisor(self):
        # (q_0 + 3 q_1 + 2 q_2) / (q_0 + q_1 + q_2 / 2) subject to q_1 >= 0.4:
        # linear-fractional, so least at a vertex of the domain, 1.8 at
        # (0.6, 0.4, 0); its gradient is (c - f e) / (e . q)
        c, e = np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0, 0.5])

        def oracle(q):
            if q[1] < 0.4:
                return math.inf, np.array([0.0, -1.0, 0.0]), 0.4 - q[1]
            f = float(c @ q) / float(e @ q)
            return f, (c - f * e) / float(e @ q)

        sol = optimize.minimize_convex_on_simplex(oracle, 3, divisor=e)
        assert 0.0 <= sol.gap <= optimize.CONVEX_TOL
        assert sol.value - sol.gap <= 1.8 <= sol.value

    def test_segment_lands_on_a_kink_in_three_calls(self):
        sol = optimize.minimize_convex_on_simplex(
            lambda q: (abs(q[0] - 0.3), np.array([math.copysign(1.0, q[0] - 0.3), 0.0])), 2)
        # 0.5 and the bisection's 0.25 bracket the kink, and their tangents
        # cross on it; plain bisection took 43 calls
        assert sol.iterations == 3
        assert sol.value == sol.gap == 0.0

    def test_thin_slab_domain(self):
        # min |q_0 - 0.3| subject to q_2 <= 1e-10: the ellipsoid must narrow
        # to the slab's width without losing positive definiteness
        def oracle(q):
            if q[2] > 1e-10:
                return math.inf, np.array([0.0, 0.0, 1.0]), q[2] - 1e-10
            return abs(q[0] - 0.3), np.array([math.copysign(1.0, q[0] - 0.3), 0.0, 0.0])

        sol = optimize.minimize_convex_on_simplex(oracle, 3)
        assert 0.0 <= sol.value <= sol.gap <= optimize.CONVEX_TOL
        assert sol.q[2] <= 1e-10

    def test_cap_raises_with_the_gap(self, monkeypatch):
        oracle = self.capacity_oracle(dmc.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3],
                                               [0.25, 0.15, 0.6]]))
        monkeypatch.setattr(optimize, "CONVEX_ITER_FACTOR", 1)  # 7 steps in 2-D
        with pytest.raises(dmc.ConvergenceError) as err:
            optimize.minimize_convex_on_simplex(oracle, 3)
        assert 0.0 < err.value.residual < math.inf

    def test_segment_cap_raises_with_the_gap(self, monkeypatch):
        # a smooth minimum: the crossings only halve the bracket, and 3
        # calls leave a gap of 0.00625
        monkeypatch.setattr(optimize, "CONVEX_ITER_FACTOR", 1)
        with pytest.raises(dmc.ConvergenceError, match="iteration cap") as err:
            optimize.minimize_convex_on_simplex(
                lambda q: ((q[0] - 0.3) ** 2, np.array([2.0 * (q[0] - 0.3), 0.0])), 2)
        assert 0.0 < err.value.residual < math.inf

    def test_empty_domain_raises_with_infinite_gap(self):
        def oracle(q):  # q_0 >= 2 never holds on the simplex
            return math.inf, np.array([-1.0, 0.0, 0.0]), 2.0 - q[0]

        with pytest.raises(dmc.ConvergenceError) as err:
            optimize.minimize_convex_on_simplex(oracle, 3)
        assert err.value.residual == math.inf

    def test_zero_cut_raises(self):
        # an infeasible center whose constraint gradient is 0 gives no cut
        with pytest.raises(dmc.ConvergenceError, match="cut with no direction") as err:
            optimize.minimize_convex_on_simplex(lambda q: (math.inf, np.zeros(3), 1.0), 3)
        assert err.value.residual == math.inf

    def test_steep_kink_returns_at_the_roundoff_floor(self):
        # f = 1e6 |q_0 - 1/3| with the kink at the exact 1/3, which no float
        # is: the tangent crossings reach the floats on either side of it,
        # 1.9e-11 and 3.7e-11 above 0, in 4 calls, and with no float left
        # between them the gap is above CONVEX_TOL but within the roundoff
        # floor 4 eps (|f| + |g| |q|), which a float point resolves no better
        def oracle(q):
            d = Fraction(float(q[0])) - Fraction(1, 3)
            return 1e6 * float(abs(d)), np.array([math.copysign(1e6, d), 0.0])

        sol = optimize.minimize_convex_on_simplex(oracle, 2)
        assert sol.iterations == 4
        floor = 4 * optimize.EPS * (sol.value + 1e6 * np.linalg.norm(sol.q))
        assert optimize.CONVEX_TOL < sol.gap <= floor
        assert sol.q[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_gap_is_never_negative(self):
        # f = 1e80 |q_0 - 1/3| with subgradient +-1e80: plain bisection
        # reported a gap of -2.8e63 after 55 steps, the lower bound of a
        # rounded point above the value 0 it then found
        def steep(q):
            return 1e80 * abs(q[0] - 1 / 3), np.array([math.copysign(1e80, q[0] - 1 / 3), 0.0])

        sol = optimize.minimize_convex_on_simplex(steep, 2)
        assert sol.value == sol.gap == 0.0

        # subgradients a factor 1 - 1e-7 too shallow: the tangents cross
        # 8e-9 above the value 0 at the kink, and that is reported as 0
        def shallow(q):
            return abs(q[0] - 1 / 3), np.array([math.copysign(1.0 - 1e-7, q[0] - 1 / 3), 0.0])

        sol = optimize.minimize_convex_on_simplex(shallow, 2)
        assert sol.gap == 0.0 < sol.value < 1e-8


def random_two_output_rows(rng):
    """Two or three rows on two outputs: Dirichlet(1/2, 1/2), sparse ((1, 0)
    or (0, 1)), or nearly noiseless (an error of 1e-6 to 1e-2)."""
    rows = []
    for kind in rng.choice(["dirichlet", "sparse", "noiseless"], size=rng.integers(2, 4)):
        if kind == "dirichlet":
            row = rng.dirichlet([0.5, 0.5]).tolist()
        elif kind == "sparse":
            row = [1.0, 0.0]
        else:
            error = 10.0 ** rng.uniform(-6.0, -2.0)
            row = [1.0 - error, error]
        rows.append(row[::-1] if rng.integers(2) else row)
    return rows


class TestSegmentSearch:
    """``minimize_convex_on_simplex`` on two letters: tangent crossings
    and deep cuts on q = (x, 1 - x), certified by the tangents."""

    @staticmethod
    def counted(oracle):
        calls = []

        def wrapped(q):
            calls.append(q[0])
            return oracle(q)
        return wrapped, calls

    def test_deep_cut_lands_on_a_linear_edge(self):
        # min q_0 subject to q_0 >= 0.7: the cut at 0.5 is infeasible by
        # c = 0.2, its tangent root is the edge, and the point an ulp inside
        # certifies by its own tangent at the edge
        def oracle(q):
            if q[0] < 0.7:
                return math.inf, np.array([-1.0, 0.0]), 0.7 - q[0]
            return q[0], np.array([1.0, 0.0])

        sol = optimize.minimize_convex_on_simplex(oracle, 2)
        assert sol.iterations == 2
        assert sol.q[0] == 0.7 + math.ulp(0.7)
        assert 0.0 <= sol.gap <= optimize.CONVEX_TOL

    def test_roundoff_cut_doubles_the_push(self):
        # the oracle rejects q_0 up to 10 ulps above 0.7 but reports
        # c = 0.7 - q_0, <= 0 there, as a constraint at roundoff does: each
        # cut moves the end only to its own point, and pushes of 1, 2, 4
        # and 8 ulps reach 1, 3, 7 and, feasible, 15 ulps above the edge
        band = 10 * math.ulp(0.7)

        def oracle(q):
            if q[0] < 0.7 + band:
                return math.inf, np.array([-1.0, 0.0]), 0.7 - q[0]
            return q[0], np.array([1.0, 0.0])

        oracle, calls = self.counted(oracle)
        sol = optimize.minimize_convex_on_simplex(oracle, 2)
        assert [(x - 0.7) / math.ulp(0.7) for x in calls[1:]] == [1.0, 3.0, 7.0, 15.0]
        assert sol.q[0] == calls[-1] and 0.0 <= sol.gap <= optimize.CONVEX_TOL

    def test_cut_past_the_far_end_leaves_one_feasible_point(self):
        # min q_0 subject to q_0 >= 0.5: 0.5 itself is feasible with f' > 0,
        # and the cut at 0.25 has its root there, so 0.5 is the minimum
        def oracle(q):
            if q[0] < 0.5:
                return math.inf, np.array([-1.0, 0.0]), 0.5 - q[0]
            return q[0], np.array([1.0, 0.0])

        sol = optimize.minimize_convex_on_simplex(oracle, 2)
        assert (sol.iterations, sol.q[0], sol.value, sol.gap) == (2, 0.5, 0.5, 0.0)

    def test_empty_segment_raises_with_infinite_gap(self):
        with pytest.raises(dmc.ConvergenceError, match="no feasible point") as err:
            optimize.minimize_convex_on_simplex(
                lambda q: (math.inf, np.array([-1.0, 0.0]), 2.0 - q[0]), 2)
        assert err.value.residual == math.inf

    def test_zero_cut_raises(self):
        with pytest.raises(dmc.ConvergenceError, match="cut with no direction") as err:
            optimize.minimize_convex_on_simplex(lambda q: (math.inf, np.ones(2), 1.0), 2)
        assert err.value.residual == math.inf

    def test_divisor_rejected(self):
        with pytest.raises(ValueError, match="dimension at least 3"):
            optimize.minimize_convex_on_simplex(lambda q: (0.0, np.zeros(2)), 2,
                                                divisor=[1.0, 0.0])

    @pytest.mark.parametrize("r", (0.03, 0.1, 0.2))
    def test_z_channel_haroutunian_at_the_domain_edge(self, r):
        # on Z(0.5) E+ sits on the edge q_0 = e^-R of row 0's constraint:
        # the first cut's root, reached in 2 calls and within 1e-15 of the
        # 50-digit value there (plain bisection: 42-48 calls, up to 4.5e-14
        # above it)
        oracle, calls = self.counted(ex._haroutunian_oracle(dmc.z_channel(0.5), r))
        sol = optimize.minimize_convex_on_simplex(oracle, 2)
        assert len(calls) == 2
        assert sol.value == pytest.approx(float(z05_haroutunian_mp(r, "dual")), abs=1e-15)

    def test_benchmark_programs_count(self, monkeypatch):
        # the Z(0.5) requests of the benchmark's asymmetric curves run one
        # two-letter program each for E+ at 0.03 and 0.2, in the haroutunian
        # and the tilde requests; the capacity, which the timesharing
        # requests read, runs none (its Newton loop takes 4 steps).
        # Bisection took 270 oracle calls, 48 + 42 for each E+ pair and 45
        # for each capacity
        calls, solve = [], optimize.minimize_convex_on_simplex

        def counted_solve(oracle, dim, divisor=None):
            wrapped, seen = self.counted(oracle)
            try:
                return solve(wrapped, dim, divisor)
            finally:
                calls.append(len(seen))

        monkeypatch.setattr(optimize, "minimize_convex_on_simplex", counted_solve)
        monkeypatch.setattr(ex, "minimize_convex_on_simplex", counted_solve)
        for bound in ("haroutunian", "tilde", "timesharing"):
            for r in (0.03, 0.2):
                ex.bound_at_rate(dmc.z_channel(0.5), bound, r)
        assert calls == [2, 2, 2, 2]
        dmc.capacity(dmc.z_channel(0.5))
        assert calls == [2, 2, 2, 2]

    @staticmethod
    def raises_at(oracle, calls, err):
        """The error came from the oracle: it raises it again at the last
        point the search evaluated."""
        x = calls[-1]
        with pytest.raises(dmc.ConvergenceError) as again:
            oracle(np.array([x, 1.0 - x]))
        assert again.value.args == err.args

    @settings(max_examples=150)
    # plain bisection meets the tilted-row raise here (CHANGES.md FOUND)
    @example(rows=[[1.0, 0.0], [0.9993567139633948, 0.0006432860366050996]], frac=0.05)
    @given(rows=st.integers(0, 2**32 - 1).map(
        lambda seed: random_two_output_rows(np.random.default_rng(seed))),
           frac=st.one_of(st.floats(1e-3, 1.0), st.sampled_from([1e-3, 0.01, 0.05, 0.1, 1.0])))
    def test_agrees_with_bisection(self, rows, frac):
        # E+ programs on two-output channels, sparse and nearly noiseless
        # rows included, from just above R_inf to C: the segment search and
        # plain bisection both certify and agree within 2e-13.  Where the
        # oracle raises (its tilted-row root search on a few nearly
        # noiseless rows), the search that met the raise passes it on.
        # Closer to R_inf the oracle's own values lose accuracy (CHANGES.md
        # FOUND): at 1e-6 and 1e-4 of the way the two certified values
        # differ by up to 2.9e-13 and 3.3e-13
        ch = dmc.Dmc(rows)
        r_inf, cap = ch.divergence_rate, ch.capacity_solution[0]
        r = r_inf + frac * (cap - r_inf)
        if not (cap > r_inf and r >= 1e-15):
            return  # one rate, or the R = 0 face, which runs no segment program
        oracle = ex._haroutunian_oracle(ch, r)
        results = []
        for search in (lambda o: optimize.minimize_convex_on_simplex(o, 2), bisect_segment):
            wrapped, calls = self.counted(oracle)
            try:
                sol = search(wrapped)
            except dmc.ConvergenceError as err:
                self.raises_at(oracle, calls, err)
                continue
            assert 0.0 <= sol.gap <= optimize.CONVEX_TOL
            results.append((sol.value, len(calls)))
        if len(results) == 2:
            (value, calls), (ref, _) = results
            assert value == pytest.approx(ref, abs=2e-13)
            # near C the minimum turns smooth, with a curvature jump where
            # the rows' zero sets touch: the crossings then only halve
            assert calls <= (25 if frac <= 0.999 else 30)

    def test_sweep_call_counts(self):
        # a seeded sweep of the same programs up to 0.999 C: every point
        # certifies within 25 calls (21 here) and the median is at most 12
        # (2 here, most minimizers lying on an edge; plain bisection: 45)
        rng = np.random.default_rng(40)
        counts = []
        while len(counts) < 200:
            ch = dmc.Dmc(random_two_output_rows(rng))
            r_inf, cap = ch.divergence_rate, ch.capacity_solution[0]
            if not cap > r_inf + 1e-9:
                continue
            for frac in (1e-3, *rng.uniform(1e-3, 0.999, 3)):
                oracle, calls = self.counted(ex._haroutunian_oracle(ch, r_inf + frac * (cap - r_inf)))
                assert optimize.minimize_convex_on_simplex(oracle, 2).gap <= optimize.CONVEX_TOL
                counts.append(len(calls))
        assert max(counts) <= 25 and statistics.median(counts) <= 12


class TestMinimizeOverChannels:
    def test_capacity_constrained_matches_sphere_packing(self, bsc002):
        # E+ search on an output-symmetric channel must land on E_sp (oracle
        # via the rho form)
        r = 0.3
        target = sphere_packing(bsc002, r)

        def objective(g):
            return max(dmc.divergence_rows(g.rows[x], bsc002.rows[x]) for x in range(2))

        def excess(g):
            return max(0.0, capacity_two_inputs(g) - r)

        g, val = optimize.minimize_over_channels(
            objective, lambda g: excess(g) <= 1e-9, (2, 2), restarts=24, seed=0,
            penalty=lambda g: excess(g) ** 2)
        assert val == pytest.approx(target, abs=1e-3)

    def test_unconstrained_finds_p(self, bsc002):
        uni = np.array([0.5, 0.5])
        g, val = optimize.minimize_over_channels(
            lambda g: dmc.divergence_conditional(g, bsc002, uni),
            lambda g: True, (2, 2), restarts=8, seed=0)
        assert val == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(g.rows, bsc002.rows, atol=1e-3)

    def test_bec_at_half_bit(self, bec04):
        # oracle: D(1/2 || 0.6) binary divergence
        r = 0.5 * math.log(2)
        target = 0.5 * math.log(0.5 / 0.6) + 0.5 * math.log(0.5 / 0.4)

        def objective(g):
            return max(dmc.divergence_rows(g.rows[x], bec04.rows[x]) for x in range(2))

        def excess(g):
            return max(0.0, capacity_two_inputs(g) - r)

        _, val = optimize.minimize_over_channels(
            objective, lambda g: excess(g) <= 1e-9, (2, 3), restarts=24, seed=0,
            penalty=lambda g: excess(g) ** 2, row_supports=bec04.row_supports())
        assert val == pytest.approx(target, abs=1e-3)

    def test_monotone_in_restarts_and_reproducible(self, bsc002):
        r = 0.25

        def objective(g):
            return max(dmc.divergence_rows(g.rows[x], bsc002.rows[x]) for x in range(2))

        def excess(g):
            return max(0.0, capacity_two_inputs(g) - r)

        vals = []
        for restarts in (2, 8, 16):
            _, val = optimize.minimize_over_channels(
                objective, lambda g: excess(g) <= 1e-9, (2, 2), restarts=restarts,
                seed=7, penalty=lambda g: excess(g) ** 2)
            vals.append(val)
        assert vals[1] <= vals[0] + 1e-12
        assert vals[2] <= vals[1] + 1e-12
        _, again = optimize.minimize_over_channels(
            objective, lambda g: excess(g) <= 1e-9, (2, 2), restarts=16,
            seed=7, penalty=lambda g: excess(g) ** 2)
        assert again == vals[2]

    def test_dims_cap(self):
        with pytest.raises(ValueError):
            optimize.minimize_over_channels(lambda g: 0.0, lambda g: True, (5, 2))


# seeded random channels from 2x2 to 4x4: dense and with zero entries,
# including |X| > |Y|
AGREEMENT_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 3), (4, 4)]
AGREEMENT_RHOS = (1e-4, 0.05, 0.3, 1.0, 3.0, 12.0, 64.0)


def _agreement_channels():
    rng = np.random.default_rng(2024)
    out = []
    for nx, ny in AGREEMENT_SHAPES:
        for sparse in (False, True):
            rows = rng.dirichlet(np.full(ny, 0.7), size=nx)
            if sparse:
                rows[rng.random((nx, ny)) < 0.3] = 0.0
                rows[np.arange(nx), rng.integers(ny, size=nx)] += 0.05
                rows /= rows.sum(axis=1, keepdims=True)
            out.append(dmc.Dmc(rows))
    return out


def _golden_e0_two_inputs(p, rho):
    """Independent oracle for two inputs: a dense scan of E0(rho, (s, 1-s))
    over s, then golden-section refinement around the best grid point."""
    w = p.rows ** (1.0 / (1.0 + rho))

    def e0(s):
        return -math.log(float(((s * w[0] + (1.0 - s) * w[1]) ** (1.0 + rho)).sum()))

    grid = np.linspace(0.0, 1.0, 2001)
    i = int(np.argmax([e0(s) for s in grid]))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > 1e-13:
        x1, x2 = b - g * (b - a), a + g * (b - a)
        if e0(x1) >= e0(x2):
            b = x2
        else:
            a = x1
    return max(e0(a), e0(b), e0(grid[i]))


def _two_input_channels():
    """Seeded two-input channels with 2 to 4 outputs, dense and sparse, then
    identical rows (every input is optimal, E0 = 0), a row summing to one
    only within 1e-12 (the optimum is the end t = 1 of the segment),
    disjoint rows (a^rho underflows beyond rho = 1e3 unless it is scaled
    by max a^rho) and Z(0.5)."""
    rng = np.random.default_rng(36)
    out = []
    for ny in (2, 3, 4):
        for sparse in (False, True):
            rows = rng.dirichlet(np.full(ny, 0.7), size=2)
            if sparse:
                rows[rng.random((2, ny)) < 0.4] = 0.0
                rows[np.arange(2), rng.integers(ny, size=2)] += 0.05
                rows /= rows.sum(axis=1, keepdims=True)
            out.append(rows)
    return out + [np.array([[0.3, 0.7], [0.3, 0.7]]),
                  np.array([[0.3, 0.7 - 4e-13], [0.3, 0.7]]),
                  np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]),
                  np.array([[1.0, 0.0], [0.5, 0.5]])]


class TestSegmentStart:
    """A two-input channel's E0 program starts at F's minimizer on the
    segment q = (t, 1 - t), one Newton root of F'(t)."""

    @staticmethod
    def roundoff(rho):
        # E0's own roundoff: (1+rho) ln(amax) carries (1+rho) eps
        return 4.0 * (1.0 + rho) * optimize.EPS

    def test_agrees_with_oracles(self):
        for rows in _two_input_channels():
            p = dmc.Dmc(rows)
            for rho in (1e-4, 0.05, 0.3, 1.0, 3.0, 12.0, 64.0):
                sol = optimize.maximize_e0(rows, rho)
                assert sol.iterations == 0, (rows.tolist(), rho)  # the start is certified
                assert sol.gap <= 1e-12
                exact = float(e0_two_inputs_mp(rows.tolist(), rho))
                assert abs(sol.value - exact) <= self.roundoff(rho), (rows.tolist(), rho)
                golden = _golden_e0_two_inputs(p, rho)
                assert sol.value >= golden - 1e-12, (rows.tolist(), rho)
                assert sol.value == pytest.approx(golden, abs=1e-10)
        end = _two_input_channels()[-3]
        assert optimize.maximize_e0(end, 0.3).q.tolist() == [1.0, 0.0]

    def test_agrees_with_the_exact_maximum_at_large_rho(self):
        # the certificate's floor (1+rho)^2 eps passes 1 near rho = 1e8, so
        # the 50-digit maximum is the check here
        for rows in _two_input_channels():
            for rho in (1e4, 1e5, 1e6, 1e7, 1e8):
                sol = optimize.maximize_e0(rows, rho)
                assert sol.iterations == 0, (rows.tolist(), rho)
                exact = float(e0_two_inputs_mp(rows.tolist(), rho))
                assert abs(sol.value - exact) <= self.roundoff(rho), (rows.tolist(), rho)

    def test_uncertified_start_is_finished_by_the_general_loop(self, monkeypatch):
        # near a noiseless channel the segment's minimizer misses the
        # roundoff floor (1+rho)^2 eps = 2.3e-12 at rho = 100 by its own
        # roundoff, and Newton steps on the simplex close the gap
        rows = np.array([[1.0, 1e-100], [0.0, 1.0]])
        rho = 100.0
        w = rows ** (1.0 / (1.0 + rho))
        start = optimize._segment_start(w, rho)
        start_gap = optimize._E0State(start, w, rho, pad=0.0).gap()
        assert start_gap > (1.0 + rho) ** 2 * optimize.EPS
        sol = optimize.maximize_e0(rows, rho)
        assert sol.iterations > 0
        assert sol.gap <= (1.0 + rho) ** 2 * optimize.EPS
        assert abs(sol.value - float(e0_two_inputs_mp(rows.tolist(), rho))) <= self.roundoff(rho)
        # a start moved off the minimizer is finished the same way
        segment_start = optimize._segment_start
        for rows in _two_input_channels()[:6]:
            with monkeypatch.context() as m:
                m.setattr(optimize, "_segment_start",
                          lambda w, rho: 0.9 * segment_start(w, rho) + 0.05)
                sol = optimize.maximize_e0(rows, 3.0)
            assert sol.iterations > 0
            assert sol.gap <= 1e-12
            assert sol.value == pytest.approx(optimize.maximize_e0(rows, 3.0).value, abs=1e-12)

    def test_root_out_of_reach_starts_at_the_uniform_input(self):
        # F' changes sign below 2^-148, where bisection from t = 1 cannot
        # reach it; the rows differ only in entries below 3e-17, so E0 is 0
        # to roundoff
        rows = np.array([[0.0, 2.4465405154908352e-17, 1.0], [7.280398147301725e-231, 0.0, 1.0]])
        rho = 6.492822868005045e-08
        w = rows ** (1.0 / (1.0 + rho))
        assert optimize._segment_start(w, rho).tolist() == [0.5, 0.5]
        sol = optimize.maximize_e0(rows, rho)
        assert sol.gap <= 1e-12
        assert abs(sol.value) <= 1e-15


class TestMaximizeE0:
    def test_agrees_with_simplex_search(self):
        for p in _agreement_channels():
            for rho in AGREEMENT_RHOS:
                sol = optimize.maximize_e0(p.rows, rho)
                assert sol.gap <= 1e-12, (p.rows.tolist(), rho, sol.gap)
                assert sol.value == pytest.approx(gallager_e0(p, rho, sol.q), abs=1e-13)
                try:
                    _, seed_val = optimize.maximize_over_simplex(
                        lambda q: gallager_e0(p, rho, q), p.input_size, tol=1e-12)
                except dmc.ConvergenceError:
                    continue
                assert sol.value >= seed_val - 1e-12, (p.rows.tolist(), rho)
                assert sol.value == pytest.approx(seed_val, abs=1e-10)
                if p.input_size == 2:
                    golden = _golden_e0_two_inputs(p, rho)
                    assert sol.value >= golden - 1e-12, (p.rows.tolist(), rho)
                    assert sol.value == pytest.approx(golden, abs=1e-10)

    def test_certifies_where_the_simplex_search_cycles(self):
        # the pairwise simplex search hits its cycle cap here at rho = 12
        # and 64 (residuals 1.3e-9 and 4.1e-5)
        p = dmc.Dmc([[0, .58, .42, 0], [.026, 0, 0, .974],
                     [.67, 0, .33, 0], [0, .64, 0, .36]])
        for rho in (12.0, 64.0):
            sol = optimize.maximize_e0(p.rows, rho)
            assert sol.gap <= 1e-12
            val, q = ex.e0_max(p, rho)
            assert val == gallager_e0(p, rho, q)
            assert val >= sol.value - 1e-15

    def test_gap_bounds_distance_to_maximum(self, z05):
        # the Hoelder certificate of the uniform input, evaluated directly,
        # must bound its distance to the maximum (every output is reached,
        # so the pad plays no part)
        for p in [z05] + _agreement_channels()[::3]:
            uniform = np.full(p.input_size, 1.0 / p.input_size)
            for rho in (0.05, 3.0, 64.0):
                best = optimize.maximize_e0(p.rows, rho).value
                w = p.rows[:, p.rows.any(axis=0)] ** (1.0 / (1.0 + rho))
                gap = optimize._E0State(uniform, w, rho, pad=0.0).gap()
                distance = best - gallager_e0(p, rho, uniform)
                assert -1e-13 <= distance <= gap + 1e-13, (p.rows.tolist(), rho)

    def test_roundoff_floor_on_many_outputs(self):
        # with 9 outputs the roundoff floor max(8|Y|, 1+rho)(1+rho) eps
        # passes 1e-12 at rho = 64; below it the tolerance stays 1e-12
        rng = np.random.default_rng(9)
        p = dmc.Dmc(rng.dirichlet(np.ones(9), size=2))
        for rho, bound in ((12.0, 1e-12), (64.0, 72 * 65 * optimize.EPS)):
            sol = optimize.maximize_e0(p.rows, rho)
            assert sol.gap <= bound
            assert sol.value >= _golden_e0_two_inputs(p, rho) - bound

    def test_degenerate_channels(self):
        # duplicate rows, a noiseless channel with repeated inputs, identical rows
        cases = [([[0, 1], [0, 1], [0, 1], [1, 0]], math.log(2.0)),
                 ([[0.3, 0.7], [0.3, 0.7]], 0.0)]
        for rows, per_rho in cases:
            for rho in (1e-4, 1.0, 64.0):
                sol = optimize.maximize_e0(np.array(rows, float), rho)
                assert sol.gap <= 1e-12
                assert sol.value == pytest.approx(rho * per_rho, abs=1e-12)

    def test_inputs_entering_from_zero_mass(self):
        # at rho = 1e-4 input 1 is optimal with mass far below 1e-16 (output 1
        # is reached by it alone); at rho = 0.3 input 3 re-enters the support
        # with mass ~1e-5 after a Newton step has set it to zero
        cases = [([[0, 0, 1], [.5271707410687287, .014953744283268513, .45787551464800264],
                   [1, 0, 0], [0, 0, 1]], 1e-4),
                 ([[0, .11384963333447726, .8861503666655227, 0],
                   [0, .001764964635375549, .834000516495793, .16423451886883147],
                   [0, 1, 0, 0],
                   [.08042429940045788, .8603360509659732, .025029018337561423,
                    .034210631296007606]], 0.3)]
        for rows, rho in cases:
            p = dmc.Dmc(rows)
            sol = optimize.maximize_e0(p.rows, rho)
            assert sol.gap <= 1e-12
            _, seed_val = optimize.maximize_over_simplex(
                lambda q: gallager_e0(p, rho, q), p.input_size, tol=1e-12)
            assert sol.value >= seed_val - 1e-12
            assert sol.value == pytest.approx(seed_val, abs=1e-10)

    def test_arimoto_fallback_alone_converges(self, z05, monkeypatch):
        # with every Newton step refused, and a two-input channel started at
        # the uniform input instead of on its segment's minimizer, the
        # solver runs Arimoto's monotone iteration only, which must reach
        # the same certified maximum
        asym3 = dmc.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]])
        cases = [(z05, 0.3), (z05, 3.0), (asym3, 0.3)]
        newton = [optimize.maximize_e0(p.rows, rho).value for p, rho in cases]
        monkeypatch.setattr(optimize, "_e0_newton_direction", lambda st: None)
        monkeypatch.setattr(optimize, "_segment_start", lambda w, rho: np.full(2, 0.5))
        monkeypatch.setattr(optimize, "E0_MAX_ITER", 5000)
        for (p, rho), expected in zip(cases, newton):
            sol = optimize.maximize_e0(p.rows, rho)
            assert sol.iterations > 20
            assert sol.gap <= 1e-12
            assert sol.value == pytest.approx(expected, abs=1e-12)

    def test_gap_is_not_negative_at_large_rho(self, z05):
        # the Hoelder gap, summed in floats, read -1.1e-9 on Z(0.5) at
        # rho = 1e7 and fell below 0 on 45 of these 360 solves; the state's
        # own gap still does, and is reported as 0
        rng = np.random.default_rng(0)
        channels = [z05.rows] + [rng.dirichlet(np.ones(3), size=2) for _ in range(120)]
        clamped = 0
        for rows in channels:
            for rho in (1e4, 1e6, 1e7, 1e8):
                sol = optimize.maximize_e0(rows, rho)
                assert sol.gap >= 0.0
                w = rows[:, rows.any(axis=0)] ** (1.0 / (1.0 + rho))
                clamped += optimize._E0State(sol.q, w, rho, pad=0.0).gap() < 0.0
        assert clamped > 0

    def test_rho_must_be_positive(self, z05):
        with pytest.raises(ValueError):
            optimize.maximize_e0(z05.rows, 0.0)

    def test_unbounded_start_gap_at_large_rho(self):
        # at rho = 1e4 the uniform input gives outputs 1 and 2 about half of
        # output 0's a, so a^rho underflows to 0 there and beta_2 = 0: the
        # start's certificate is infinite; the maximum is rho ln 2 (half the
        # mass on input 2, half on the other two)
        rows, rho = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0.5, 0.5]]), 1e4
        w = rows ** (1.0 / (1.0 + rho))
        assert optimize._E0State(np.full(3, 1 / 3), w, rho, pad=1e-13).gap() == math.inf
        sol = optimize.maximize_e0(rows, rho)
        assert sol.gap <= (1.0 + rho) ** 2 * optimize.EPS  # the roundoff floor
        assert sol.value == pytest.approx(rho * math.log(2.0), rel=1e-14)

    def test_newton_direction_needs_two_free_inputs(self):
        # at a vertex, an input whose beta is at least F does not enter:
        # by Hoelder's inequality only a copy of the vertex's row does so
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        st = optimize._E0State(np.array([1.0, 0.0]), w, 1.0, pad=0.0)
        assert st.beta[1] == st.f
        assert optimize._e0_newton_direction(st) is None

    def test_singular_newton_system_is_solved_by_least_squares(self, monkeypatch):
        # every bordered solve raising LinAlgError, the steps still certify
        # the same maximum
        asym3 = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]])
        want = optimize.maximize_e0(asym3, 1.0)
        solves = []

        def singular(a, b):
            solves.append(a)
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        sol = optimize.maximize_e0(asym3, 1.0)
        assert solves and sol.iterations > 0
        assert sol.gap <= 1e-12
        assert sol.value == pytest.approx(want.value, abs=1e-12)

    def test_subnormal_entry_makes_the_newton_solve_not_finite(self):
        # a^(rho-1) overflows on output 2, reached with a ~ 5e-324 at
        # rho = 1e-3, so Newton gives no direction and the fallback steps
        # certify E0, with no RuntimeWarning (pyproject.toml makes it an error)
        rows = np.array([[0.6, 0.4, 5e-324], [0.3, 0.7, 0.0], [0.1, 0.9, 0.0]])
        rho = 1e-3
        w = rows[:, rows.any(axis=0)] ** (1.0 / (1.0 + rho))
        st = optimize._E0State(np.full(3, 1 / 3), w, rho, pad=1e-13)
        assert optimize._e0_newton_direction(st) is None
        sol = optimize.maximize_e0(rows, rho)
        assert sol.gap <= 1e-12
        plain = optimize.maximize_e0(rows[:, :2], rho)
        assert sol.value == pytest.approx(plain.value, abs=1e-12)
