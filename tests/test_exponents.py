import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delaylab import dmc, exponents as ex, ncl_scheme as ncl, optimize
from delaylab.dmc import LN2
from oracles import (bisect_bec_focusing_bits, bisect_focusing, bisect_timesharing,
                     capacity_two_inputs, e0_csiszar_koerner, golden_erl, golden_esp,
                     golden_focusing, info_binary_rows, max_info_binary,
                     nelder_mead_haroutunian, slope_esp,
                     z05_haroutunian_mp, z_information_mp, z_tilde_bisection)

HALF_BIT = 0.5 * LN2
# output-symmetric with two blocks of outputs, {0, 1} and {2, 3}
TWO_BLOCKS = dmc.Dmc([[0.6, 0.1, 0.2, 0.1], [0.1, 0.6, 0.1, 0.2]])


def fresh(ch):
    """A new channel with the rows of ``ch``, so with an empty E0 store:
    the session's channels keep every E0 point their earlier tests solved."""
    return dmc.Dmc(ch.rows, ch.name)


def bec_e0(beta, rho):
    """Erasure-channel closed form -ln(beta + (1-beta) 2^-rho)."""
    return -math.log(beta + (1 - beta) * 2.0**-rho)


def bec_esp(beta, rate_bits):
    """Erasure sphere packing: D(rate || 1 - beta) in nats."""
    a, b = rate_bits, 1 - beta
    return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))


def bsc_esp(p, r):
    """BSC sphere packing: D(delta || p) with delta in [p, 1/2] solving
    h(delta) = ln2 - R, all in nats (bisection on the increasing entropy)."""
    lo, hi = p, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -mid * math.log(mid) - (1 - mid) * math.log(1 - mid) < LN2 - r:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    return d * math.log(d / p) + (1 - d) * math.log((1 - d) / (1 - p))


def z_haroutunian_oracle(rate):
    """Independent construction for the Z(0.5) mimicking channel: the row for
    input 0 is pinned by absolute continuity, so G = Z(b) and the bound is
    ln 2 - H(b) at the b where C(Z(b)) = rate."""
    from scipy.optimize import brentq
    cap = lambda b: math.log(1 + (1 - b) * b ** (b / (1 - b)))
    b = brentq(lambda b: cap(b) - rate, 0.5, 1 - 1e-12, xtol=1e-13)
    return math.log(2) + b * math.log(b) + (1 - b) * math.log(1 - b)


GOLD = 0.6180339887498949


def golden_max_info(row0, row1, lo=0.0, hi=1.0, xtol=1e-9):
    """Golden-section maximum of the concave I((s, 1-s), rows) over [lo, hi],
    with the ends of the interval as candidates too: the oracle for the
    Newton solver ``oracles.max_info_binary``."""
    def info(s):
        return info_binary_rows(row0, row1, s)

    a, b = lo, hi
    x1 = b - GOLD * (b - a)
    x2 = a + GOLD * (b - a)
    f1, f2 = info(x1), info(x2)
    while b - a > xtol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLD * (b - a)
            f1 = info(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLD * (b - a)
            f2 = info(x2)
    return max(f1, f2, info(lo), info(hi))


@st.composite
def two_input_rows(draw):
    """Two rows over 2 to 4 outputs, with zero entries; the second row is
    random, a copy of the first (capacity 0) or noiseless."""
    ny = draw(st.integers(2, 4))
    weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                       min_size=ny, max_size=ny).filter(lambda w: sum(w) > 0)

    def row():
        w = draw(weights)
        return [x / sum(w) for x in w]

    row0 = row()
    kind = draw(st.sampled_from(("random", "identical", "noiseless")))
    if kind == "identical":
        row1 = list(row0)
    elif kind == "noiseless":
        y = draw(st.integers(0, ny - 1))
        row1 = [float(i == y) for i in range(ny)]
    else:
        row1 = row()
    return row0, row1


class TestMaxInfoBinary:
    @settings(max_examples=300)
    @given(rows=two_input_rows(),
           ends=st.one_of(st.just((0.0, 1.0)),
                          st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    def test_agrees_with_golden_section(self, rows, ends):
        lo, hi = sorted(ends)
        got = max_info_binary(*rows, lo, hi)
        assert got == pytest.approx(golden_max_info(*rows, lo, hi), abs=1e-14)

    def test_endpoint_maximum_is_exact(self, z05):
        # Z(0.5) has its capacity-achieving s = P(input 0) = 0.6
        row0, row1 = z05.rows[0].tolist(), z05.rows[1].tolist()
        assert max_info_binary(row0, row1, 0.1, 0.3) == info_binary_rows(row0, row1, 0.3)
        assert max_info_binary(row0, row1, 0.8, 1.0) == info_binary_rows(row0, row1, 0.8)
        assert max_info_binary(row0, row1, 0.5, 0.5) == info_binary_rows(row0, row1, 0.5)

    def test_subnormal_end_stays_finite(self):
        # I = h(s) on the noiseless channel; a / o overflowed to inf here
        s = 1e-310
        assert max_info_binary([0.0, 1.0], [1.0, 0.0], 0.0, s) == pytest.approx(
            -s * math.log(s), rel=2e-3)

    @staticmethod
    def check_closed_forms(cap, bsc002, bec04, z05):
        assert cap(bsc002) == pytest.approx(
            LN2 + 0.02 * math.log(0.02) + 0.98 * math.log(0.98), abs=1e-15)
        assert cap(bec04) == pytest.approx(0.6 * LN2, abs=1e-15)
        assert cap(z05) == pytest.approx(math.log(1.25), abs=1e-15)
        assert cap(dmc.identity_channel(2)) == pytest.approx(LN2, abs=1e-15)
        assert cap(dmc.Dmc([[0.3, 0.7], [0.3, 0.7]])) == 0.0

    def test_capacity_closed_forms(self, bsc002, bec04, z05):
        # the certified program, behind the name the tracer binds
        self.check_closed_forms(ex.channel_capacity_fast, bsc002, bec04, z05)

    def test_oracle_capacity_closed_forms(self, bsc002, bec04, z05):
        self.check_closed_forms(capacity_two_inputs, bsc002, bec04, z05)


class TestGallagerE0:
    def test_zero_rho_is_exactly_zero(self, random_channels):
        for ch in random_channels[:5]:
            q = np.full(ch.input_size, 1.0 / ch.input_size)
            assert ex.gallager_e0(ch, 0.0, q) == 0.0

    def test_bec_closed_form(self, bec04):
        got = ex.gallager_e0(bec04, 1.0, [0.5, 0.5])
        assert got == pytest.approx(bec_e0(0.4, 1.0), abs=1e-12)
        assert got == pytest.approx(0.3566749439, abs=1e-9)

    def test_bsc_closed_form(self, bsc002):
        expected = LN2 - math.log(1 + 2 * math.sqrt(0.02 * 0.98))
        assert ex.gallager_e0(bsc002, 1.0, [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)

    def test_concavity_in_rho(self, random_channels):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ch = random_channels[rng.integers(len(random_channels))]
            q = rng.dirichlet(np.ones(ch.input_size))
            r1, r2 = rng.uniform(0.0, 8.0, 2)
            th = rng.uniform(0.0, 1.0)
            mid = ex.gallager_e0(ch, th * r1 + (1 - th) * r2, q)
            chord = th * ex.gallager_e0(ch, r1, q) + (1 - th) * ex.gallager_e0(ch, r2, q)
            assert mid >= chord - 1e-9

    def test_negative_rho_rejected(self, bsc002):
        with pytest.raises(ValueError):
            ex.gallager_e0(bsc002, -0.5, [0.5, 0.5])

    def test_underflowing_sum_stays_finite(self):
        # identity channel: E0(rho, uniform) = rho ln2; the sum 2^-rho
        # leaves the normal range at rho = 1022
        ch = dmc.identity_channel(2)
        for rho in (1000.0, 1022.5, 1100.0, 5000.0):
            assert ex.gallager_e0(ch, rho, [0.5, 0.5]) == pytest.approx(rho * LN2, rel=1e-14)
        assert ex.gallager_e0(dmc.identity_channel(3), 5000, [0.2, 0.3, 0.5]) == pytest.approx(
            -5001 * math.log(0.5), rel=1e-14)


class TestE0Max:
    def test_symmetric_uses_uniform(self, bsc002, bec04):
        for ch in (bsc002, bec04):
            val, q = ex.e0_max(ch, 1.7)
            assert q == pytest.approx([0.5, 0.5], abs=1e-12)
            assert val == pytest.approx(ex.gallager_e0(ch, 1.7, [0.5, 0.5]), abs=1e-12)

    def test_z_channel_nondecreasing_below_ln2_at_large_rho(self, z05):
        # E0 is nondecreasing in rho with supremum ln 2 on Z(0.5), approached
        # as q -> (0, 1) and not attained; the program once raised at 1e6
        # and 1e7 and returned ln 2 / 2 at 1e8
        values = [ex.e0_max(fresh(z05), 10.0 ** (4 + k / 4))[0] for k in range(17)]
        assert values[0] > 0.692
        assert all(b >= a for a, b in zip(values, values[1:])), values
        assert values[-1] <= LN2

    def test_derivative_at_zero_is_capacity_forward(self, bsc002):
        h = 1e-5
        slope = (ex.e0_max(bsc002, h)[0] - ex.e0_max(bsc002, 0.0)[0]) / h
        c = dmc.capacity(bsc002)[0]
        assert slope == pytest.approx(c, abs=1e-3)

    def test_derivative_at_zero_central(self, bsc002, bec04, z05):
        for ch in (bsc002, bec04, z05):
            c, q = dmc.capacity(ch)
            h = 1e-4
            d = (ex.gallager_e0(ch, h, q) - ex.gallager_e0(ch, 0.0, q)) / h
            assert d == pytest.approx(c, abs=1e-4)


class TestE0Slope:
    def test_matches_central_difference(self, random_channels):
        rng = np.random.default_rng(12)
        for ch in random_channels:
            q = rng.dirichlet(np.ones(ch.input_size))
            for rho in (0.01, 0.3, 1.0, 5.0, 40.0):
                h = 1e-5 * rho
                fd = (ex.gallager_e0(ch, rho + h, q) - ex.gallager_e0(ch, rho - h, q)) / (2 * h)
                assert ex.e0_slope(ch, rho, q) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_capacity_at_zero_with_the_capacity_achieving_input(self, bsc002, bec04, z05,
                                                               random_channels):
        for ch in [bsc002, bec04, z05] + random_channels:
            c, q = dmc.capacity(ch)
            assert ex.e0_slope(ch, 0.0, q) == pytest.approx(c, abs=1e-9)
            assert ex.e0_slope(ch, 0.0, q) == pytest.approx(
                dmc.mutual_information(ch, q), abs=1e-15)

    def test_envelope_slope_of_the_maximum(self, z05):
        # d max_q E0 / drho is the partial slope at the maximizing q
        for rho in (0.1, 1.0, 6.0):
            h = 1e-5 * rho
            fd = (ex.e0_max(z05, rho + h)[0] - ex.e0_max(z05, rho - h)[0]) / (2 * h)
            assert ex.e0_slope(z05, rho, ex.e0_max(z05, rho)[1]) == pytest.approx(fd, rel=1e-6)

    def test_fortification_and_large_rho(self, bsc002):
        q = [0.5, 0.5]
        assert ex.e0_slope(bsc002, 2.0, q, fortify_k=50) == pytest.approx(
            ex.e0_slope(bsc002, 2.0, q) + LN2 / 50, abs=1e-15)
        # E0 = rho ln2 on the identity channel, whose sum underflows at large rho
        for rho in (1.0, 2000.0, 1e6):
            assert ex.e0_slope(dmc.identity_channel(2), rho, q) == pytest.approx(LN2, rel=1e-12)


CIRCULANT3 = [[0.653, 0.347, 0.0], [0.0, 0.653, 0.347], [0.347, 0.0, 0.653]]
KERNEL_RHOS = (1e-9, 0.5, 1.0, 64.0, 1e4, 1e8)


@pytest.fixture
def e0_calls(monkeypatch):
    """The rho of every ``_e0_kernel`` run, in order."""
    calls = []
    kernel = ex._e0_kernel

    def counted(p, rho, q):
        calls.append(rho)
        return kernel(p, rho, q)

    monkeypatch.setattr(ex, "_e0_kernel", counted)
    return calls


class TestE0Kernel:
    """``e0_max`` and the channel's E0 points (``_e0_point``, read
    fortified) run the same kernel as the public ``gallager_e0`` and
    ``e0_slope``: their values are equal, not close."""

    @pytest.fixture(params=["bsc002", "bec04", "circulant", "bsc002_fortified"])
    def case(self, request, bsc002, bec04):
        return {"bsc002": (fresh(bsc002), None), "bec04": (fresh(bec04), None),
                "circulant": (dmc.Dmc(CIRCULANT3), None),
                "bsc002_fortified": (fresh(bsc002), 50)}[request.param]

    @pytest.mark.parametrize("rho", KERNEL_RHOS)
    def test_shared_w_equals_the_public_functions(self, case, rho):
        ch, k = case
        assert ch.symmetric
        e0, q = ex.e0_max(ch, rho, k)
        assert q is ch.uniform
        assert e0 == ex.gallager_e0(ch, rho, q, k)
        assert ex._e0_point(ch, rho, k) == (e0, ex.e0_slope(ch, rho, q, k))

    def test_asymmetric_input_path(self, z05):
        z05 = fresh(z05)
        for rho in KERNEL_RHOS[:4]:
            e0, q = ex.e0_max(z05, rho)
            assert q is z05.e0_points[rho][2]
            assert e0 == ex.gallager_e0(z05, rho, q)
            assert ex._e0_point(z05, rho) == (e0, ex.e0_slope(z05, rho, q))

    def test_one_kernel_run_per_evaluation(self, bsc002, z05, e0_calls):
        # the first e0_max at a rho solves the channel's point (one run, none
        # at rho = 0, where E0 is 0) and its own value by gallager_e0 (one
        # run); the read of the point after it runs none
        for ch in (fresh(bsc002), fresh(z05)):
            for rho in (0.0, 2.0):
                ex.e0_max(ch, rho)
                ex._e0_point(ch, rho)
                ex.gallager_e0(ch, rho, [0.5, 0.5])
        assert e0_calls == [0.0] * 2 + [2.0] * 3 + [0.0] * 2 + [2.0] * 3

    def test_negative_rho_rejected(self, bsc002):
        for solve in (lambda: ex.e0_max(bsc002, -1.0),
                      lambda: ex._e0_point(bsc002, -1.0)):
            with pytest.raises(ValueError):
                solve()

    def test_nan_rho_rejected(self, bsc002, z05):
        # a lone rho of a lane run goes to ``_e0_point``, so it rejects nan
        # as the lanes call does; it once returned nan on BSC(0.02)
        for ch in (bsc002, z05):
            for solve in (lambda: ex.e0_max(ch, math.nan),
                          lambda: ex._e0_point(ch, math.nan),
                          lambda: ex._run_lanes(fresh(ch), None,
                                                [ex._at(0.5), ex._at(math.nan)])):
                with pytest.raises(ValueError, match="^rho must be nonnegative$"):
                    solve()

    def test_infinite_rho_rejected(self, bsc002, z05):
        # before the check, the lanes call stored E0(inf) = -ln 2 on
        # BSC(0.02), a curve through it read (nan, nan), the public E0
        # functions returned nan or a slope of 0.0, and the parametric
        # curve failed on lambda*
        for ch in (bsc002, z05):
            ch = fresh(ch)
            q = [0.5, 0.5]
            calls = [lambda: ex.gallager_e0(ch, math.inf, q),
                     lambda: ex.e0_slope(ch, math.inf, q),
                     lambda: ex.e0_max(ch, math.inf), lambda: ex._e0_point(ch, math.inf),
                     lambda: ex.timesharing_exponent(ch, math.inf),
                     lambda: ex.timesharing_curve(ch, [2.0, math.inf]),
                     lambda: ex._run_lanes(ch, None, [ex._at(0.5), ex._at(math.inf)]),
                     lambda: optimize.maximize_e0(ch.rows, math.inf)]
            if ch.symmetric:
                calls += [lambda: ex._e0_lanes(ch, [1.0, math.inf]),
                          lambda: ex.focusing_parametric_curve(ch, [1.0, math.inf])]
            for solve in calls:
                with pytest.raises(ValueError, match="^rho must be finite$"):
                    solve()
            assert all(math.isfinite(rho) for rho in ch.e0_points)
        for solve in (lambda: ex.gallager_e0(bsc002, math.nan, [0.5, 0.5]),
                      lambda: ex.e0_slope(bsc002, math.nan, [0.5, 0.5]),
                      lambda: ex._e0_lanes(fresh(bsc002), [1.0, math.nan])):
            with pytest.raises(ValueError, match="^rho must be nonnegative$"):
                solve()


class TestSpherePacking:
    def test_bec_half_bit(self, bec04):
        assert ex.sphere_packing(bec04, HALF_BIT) == pytest.approx(0.020410997260, abs=1e-6)

    def test_bec_matches_binary_divergence_curve(self, bec04):
        for rb in (0.2, 0.35, 0.5):
            assert ex.sphere_packing(bec04, rb * LN2) == pytest.approx(
                bec_esp(0.4, rb), abs=1e-7)

    def test_rate_above_capacity_zero(self, bsc002):
        c = dmc.capacity(bsc002)[0]
        assert ex.sphere_packing(bsc002, c + 0.01) == 0.0

    def test_zero_error_channel_infinite(self):
        assert ex.sphere_packing(dmc.identity_channel(2), 0.3) == math.inf

    @pytest.mark.parametrize("p,r", [(0.02, 1e-4), (0.003, 1e-4), (0.02, 1e-7),
                                     (0.02, 0.05), (0.02, 0.3)])
    def test_bsc_matches_closed_form(self, p, r):
        # at the low rates the maximizing rho lies beyond 64
        assert ex.sphere_packing(dmc.bsc(p), r) == pytest.approx(bsc_esp(p, r), abs=1e-9)

    def test_fortified_just_above_zero_error_capacity(self, bsc002):
        # R - C_0,f = 3.4e-4 nats: finite, the plain bound at the shifted rate
        r = 0.014201
        assert ex.sphere_packing(bsc002, r, fortify_k=50) == pytest.approx(
            bsc_esp(0.02, r - LN2 / 50), abs=1e-9)

    def test_z_channel_at_rate_zero_stays_below_the_unattained_supremum(self, z05):
        # sup_rho E0(rho) = ln 2 is not attained on Z(0.5): R = 0 gives the
        # largest E0 its bracket expansion saw (it raised from the E0
        # program before two-input programs started on their segment)
        got = ex.sphere_packing(fresh(z05), 0.0)
        assert LN2 - 1e-7 <= got <= LN2

    def test_missed_divergence_on_disjoint_rows_raises(self, monkeypatch):
        # E0 = rho ln2 grows past the float range of its sum; the search must
        # reach its bracket cap instead of failing on log(0)
        monkeypatch.setattr(ex, "divergence_rate", lambda p, k: 0.0)
        with pytest.raises(dmc.ConvergenceError):
            ex.sphere_packing(dmc.identity_channel(2), 0.3)

    def test_missed_divergence_raises(self, bsc002, monkeypatch):
        # below R_inf = ln2/50 the objective climbs linearly forever; with the
        # R_inf test fooled, the search must fail loudly instead of guessing
        monkeypatch.setattr(ex, "divergence_rate", lambda p, k: 0.0)
        with pytest.raises(dmc.ConvergenceError) as err:
            ex.sphere_packing(bsc002, 0.005, fortify_k=50)
        assert err.value.residual > 0


@st.composite
def small_channels(draw):
    """2x2 to 3x3 channels: random rows with entries of at least 0.01, or
    circulant rows (output-symmetric, zero entries allowed)."""
    nx = draw(st.integers(2, 3))
    circulant = draw(st.booleans())
    ny = nx if circulant else draw(st.integers(2, 3))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0)) if circulant else st.floats(0.01, 1.0)

    def row():
        w = draw(st.lists(entry, min_size=ny, max_size=ny).filter(lambda w: sum(w) > 0))
        return [x / sum(w) for x in w]

    if circulant:
        first = row()
        return dmc.Dmc([first[-i:] + first[:-i] for i in range(nx)])
    return dmc.Dmc([row() for _ in range(nx)])


# The property tests take channels whose capacity exceeds this floor, and
# these three, of capacity 1.7e-6, 2.0e-4 and 2.5e-4, as examples.  The
# floor stays above 0: capacity is certified only to 1e-12, and a channel
# with identical rows has a capacity of roundoff (about 1e-16), a rate
# scale the oracles divide by.
CAPACITY_FLOOR = 1e-9
LOW_CAPACITY_CHANNELS = (dmc.Dmc([[0.97709924, 0.02290076], [0.97765363, 0.02234637]]),
                         dmc.bsc(0.49),
                         dmc.Dmc([[.5, .3, .2], [.49, .31, .2], [.5, .29, .21]]))


def low_capacity_examples(**args):
    """``hypothesis.example`` at each of ``LOW_CAPACITY_CHANNELS``."""
    def decorate(test):
        for ch in LOW_CAPACITY_CHANNELS:
            test = example(ch=ch, **args)(test)
        return test
    return decorate


# Near capacity the exponents are differences of O(1e-2) terms, so roundoff
# puts either solver about 1e-16 from a 40-digit reference value: compare
# with a relative tolerance and this absolute floor
ORACLE_ABS = 1e-15


def root_roundoff(ch, r, value, timesharing=False):
    """How far roundoff can move E = R x, where x solves E0(x) - R x = 0
    (E'(x) - R x = 0 for time sharing): E0 sums (1+x)-th powers, so its
    error is about (1+x) eps, and that moves the root by the error over the
    slope of the difference.  At low rates on weak channels the slope is
    tiny and any two solvers may end anywhere in that band."""
    x = value / r
    e0, slope = ex._e0_point(ch, x)
    if timesharing:
        e_one = ex.e0_max(ch, 1.0)[0]
        slope *= (e_one / (e_one + e0)) ** 2
    return 8.0 * r * (1.0 + x) * np.finfo(float).eps / abs(slope - r)


def assert_capacity_bounds_finite(ch, r):
    """The bounds that read the certified capacity are finite and ordered."""
    values = {name: ex.bound_at_rate(ch, name, r)
              for name in ("focusing", "timesharing", "burnashev", "haroutunian")}
    assert all(0.0 < v < math.inf for v in values.values()), values
    assert values["haroutunian"] <= values["focusing"]
    assert values["timesharing"] <= values["focusing"]


class TestRhoSolversAgainstOracles:
    @settings(max_examples=40)
    @given(ch=small_channels(), frac=st.floats(0.01, 0.99), list_size=st.sampled_from((1, 4)))
    # a low rate on a weak channel, where the focusing root is determined
    # only to about 5e-12
    @example(ch=dmc.bsc(7 / 15), frac=0.01171875, list_size=1)
    @low_capacity_examples(frac=0.8, list_size=4)
    def test_match_oracles_and_orderings(self, ch, frac, list_size):
        assume(dmc.capacity(ch)[0] > CAPACITY_FLOOR)
        r = frac * ch.capacity_solution[0]

        def check(solver, oracle, *args, inversion=None):
            # a search that reaches its bracket cap must do so in both
            try:
                want = oracle(ch, r, *args)
            except dmc.ConvergenceError:
                with pytest.raises(dmc.ConvergenceError):
                    solver(ch, r, *args)
                return math.inf
            got = solver(ch, r, *args)
            if got != want:
                band = ORACLE_ABS
                if inversion is not None:
                    band = max(band, root_roundoff(ch, r, want, inversion == "timesharing"))
                assert got == pytest.approx(want, rel=1e-12, abs=band)
            return got

        esp = check(ex.sphere_packing, golden_esp)
        er = check(ex.random_coding_list, golden_erl, 1)
        erl = check(ex.random_coding_list, golden_erl, list_size)
        ts = check(lambda p, rate: ex.bound_at_rate(p, "timesharing", rate), bisect_timesharing,
                   inversion="timesharing")
        assert er <= erl + 1e-12
        assert erl <= esp + 1e-12
        if ch.symmetric:
            focusing = check(ex.focusing_bound, bisect_focusing, inversion="focusing")
            assert ts <= focusing + 1e-12

    def test_nearly_useless_channel(self):
        # C = 1.7e-6: esp, er and erL match their oracles down there, and the
        # bounds that read the certified capacity stay finite
        ch = dmc.Dmc([[0.97709924, 0.02290076], [0.97765363, 0.02234637]])
        cap = ex.channel_capacity_fast(ch)
        for frac in (0.0, 0.3, 0.9, 1.1):
            r = frac * cap
            checks = [(ex.random_coding_list(ch, r), golden_erl(ch, r)),
                      (ex.random_coding_list(ch, r, 4), golden_erl(ch, r, 4))]
            if r > 0:
                checks.append((ex.sphere_packing(ch, r), golden_esp(ch, r)))
            for got, want in checks:
                assert got == pytest.approx(want, rel=1e-12, abs=ORACLE_ABS)
        assert ex.sphere_packing(ch, 0.3 * cap) > 0.0
        assert ex.sphere_packing(ch, 1.1 * cap) == 0.0
        assert_capacity_bounds_finite(ch, 0.3 * cap)

    def test_channel_with_an_unused_input(self):
        # the optimal input leaves input 2 unused
        ch = dmc.Dmc([[0.38685779, 0.57187018, 0.04127203],
                      [0.29203981, 0.17266427, 0.53529592],
                      [0.57545348, 0.12775108, 0.29679544]])
        assert_capacity_bounds_finite(ch, 0.5 * ch.capacity_solution[0])

    @pytest.mark.parametrize("rows, limit, band", [
        ([[0.97709924, 0.02290076], [0.97765363, 0.02234637]], 1.7375444391504276e-06, 1e-10),
        ([[0.8, 0.2], [0.3, 0.7]], 0.14618440145832038, 1e-7),
        ([[0.98, 0.02], [0.02, 0.98]], 1.2729656758128874, 1e-7),
        ([[0.997, 0.003], [0.003, 0.997]], 2.2129265691072177, 1e-15),
        ([[.9, .05, .05], [.05, .9, .05], [.05, .05, .9]], 0.9336627322538264, 1e-15),
    ])
    def test_rate_zero_sphere_packing_is_the_limit_of_e0(self, rows, limit, band):
        # at R = 0 the supremum is lim E0(rho) = max_q -ln sum_y
        # prod_x P(y|x)^(q_x) (40-digit values), reached only at infinity.
        # On the output-symmetric channels q is uniform and the limit is
        # taken in closed form.  Elsewhere the expansion stops near
        # rho = 1e5..1e7, short of the limit by the climb left there (about
        # 4e-8 on the 2x2 channel) and off by E0's roundoff, about
        # (1+rho) eps (2e-11 on the weak channel); the golden-section search
        # stopped 7.6e-5 short on the 2x2 channel
        assert ex.sphere_packing(dmc.Dmc(rows), 0.0) == pytest.approx(limit, abs=band)

    @pytest.mark.parametrize("fortify_k", [None, 50])
    def test_bsc_curves_match_oracles(self, bsc002, fortify_k):
        cap = bsc002.capacity_solution[0] + ex._fortification_rate(fortify_k)
        for r in np.linspace(1e-4, cap, 25)[:-1]:
            r = float(r)
            for got, want in ((ex.sphere_packing(bsc002, r, fortify_k),
                               golden_esp(bsc002, r, fortify_k)),
                              (ex.focusing_bound(bsc002, r, fortify_k),
                               bisect_focusing(bsc002, r, fortify_k)),
                              (ex.bound_at_rate(bsc002, "timesharing", r, fortify_k),
                               bisect_timesharing(bsc002, r, fortify_k))):
                assert got == want or got == pytest.approx(want, rel=1e-12, abs=ORACLE_ABS)

    def test_bec_focusing_inversion_matches_bisection(self):
        for beta in (0.01, 0.25, 0.4, 0.8):
            for frac in np.linspace(0.01, 0.99, 25):
                rate = float(frac) * (1.0 - beta)
                assert ex.bec_focusing_exponent_bits(beta, rate) == pytest.approx(
                    bisect_bec_focusing_bits(beta, rate), rel=1e-12)


class TestRhoWorkCounters:
    """E0 evaluations per point on a fresh channel; the bisections and
    golden sections these solvers replaced took 201, 202 and 56.  Every E0
    evaluation runs ``_e0_kernel`` once, whether it comes from ``e0_max``,
    ``gallager_e0`` or ``_e0_point`` (``TestE0Kernel`` checks that), so the
    kernel's calls count them all.  A change may lower these counts; it
    must not raise them."""

    def test_focusing(self, bsc002, e0_calls):
        ex.focusing_bound(fresh(bsc002), 0.3)
        assert len(e0_calls) == 10

    def test_timesharing(self, bsc002, e0_calls):
        ex.bound_at_rate(fresh(bsc002), "timesharing", 0.3)
        assert len(e0_calls) == 10

    def test_timesharing_low_rate(self, bsc002, e0_calls):
        # the root lies near rho = 3300, beyond rho = 64
        ex.bound_at_rate(fresh(bsc002), "timesharing", 1e-4)
        assert len(e0_calls) == 14

    def test_sphere_packing(self, bsc002, e0_calls):
        ex.sphere_packing(fresh(bsc002), 0.3)
        assert len(e0_calls) == 17


class TestOneRateKernelRuns:
    """A one-rate esp or er query on a fresh channel runs ``_e0_kernel``
    once per distinct rho: its lane and the ``maximize_concave_1d`` that its
    climb runs read the channel's E0 points.  Before, the climb solved
    rho = 1 and the ends of its bracket again: 1,274 runs for esp on the
    84-rate BSC(0.02) grid below, 586 for er, and 13 for ASYM3 esp at
    R = 0.1.  The point at rho = 0 runs no kernel (E0 is 0 there), which
    took 1,187, 540 and 11.  A change may lower these counts; it must not
    raise them."""

    @pytest.mark.parametrize("name, want", [("esp", 1149), ("er", 456)])
    def test_rate_grid(self, bsc002, e0_calls, name, want):
        runs = distinct = 0
        for r in TestLockstepWorkCounters().grid(bsc002):
            e0_calls.clear()
            ex.bound_at_rate(fresh(bsc002), name, r)
            runs += len(e0_calls)
            distinct += len(set(e0_calls))
        assert runs == distinct == want

    def test_asymmetric(self, e0_calls):
        asym3 = dmc.Dmc(TestHaroutunian.ASYM3.rows)
        ex.sphere_packing(asym3, 0.1)
        assert len(e0_calls) == len(set(e0_calls)) == 10


class TestRateInversionPins:
    """Values of the E(eta)/eta = r inversions as hex floats, computed
    before the focusing, two-stream and erasure-channel copies of that
    inversion became one lane: any bit that moves is a behaviour change."""

    BEC = {  # (beta, rate as a fraction of 1 - beta): exponent in bits
        (0.05, 1e-06): "0x1.149a784bcd1b8p+2", (0.05, 0.001): "0x1.149a784bcd1b8p+2",
        (0.05, 0.1): "0x1.149a784bccf49p+2", (0.05, 0.5): "0x1.1135a1cada130p+2",
        (0.05, 0.9): "0x1.49c9629857be4p+1", (0.4, 1e-06): "0x1.5269e12f346e1p+0",
        (0.4, 0.001): "0x1.5269e12f346e2p+0", (0.4, 0.1): "0x1.5269d8b806cbap+0",
        (0.4, 0.5): "0x1.308d66d379204p+0", (0.4, 0.9): "0x1.85d355150e3d1p-2",
        (0.9, 1e-06): "0x1.374d65d9e608ep-3", (0.9, 0.001): "0x1.374d65d9e608cp-3",
        (0.9, 0.1): "0x1.374b2a36cb880p-3", (0.9, 0.5): "0x1.f8e3580cb2f11p-4",
        (0.9, 0.9): "0x1.f76d30ef1a4ddp-6",
    }
    FOCUSING = {  # (channel, rate, k): E_a in nats
        # at 1e-4 on BSC(0.003) the root lies beyond eta = 64: the bracket grows
        ("bsc0003", 1e-4, None): "0x1.1b3af013e9e28p+1",
        ("bsc0003", 0.1, None): "0x1.01d2955f38d08p+1",
        ("bsc0003", 0.3, None): "0x1.8e1d3e9cabe91p+0",
        ("bsc002", 1e-4, None): "0x1.45d754bb2b02bp+0",
        ("bsc002", 0.1, None): "0x1.1e42c83cd91d3p+0",
        ("bsc002", 0.3, None): "0x1.8720f795cb6aep-1",
        ("bsc002", 0.1, 50): "0x1.52eee5157d2f0p+0",
        ("bsc002", 0.6, 50): "0x1.2528e0e061b17p-5",
        ("bec04", 1e-4, None): "0x1.d5240f0e0d9efp-1",
        ("bec04", 0.1, None): "0x1.d3c72360bc0cap-1",
        ("bec04", 0.3, None): "0x1.302e24b6e7160p-1",
    }
    CHANNELS = {"bsc0003": dmc.bsc(0.003), "bsc002": dmc.bsc(0.02), "bec04": dmc.bec(0.4)}
    # (rate, channel): psi, rho, e_prime, e0_rho, e0_one of two_stream_split
    SPLITS = {
        (0.2231435, "bsc002"): ("0x1.0000021e4f265p-1", "0x1.000005f9fb84bp+0",
                                "0x1.c8ff8041c3d6dp-3", "0x1.c8ff8409de1b8p-2",
                                "0x1.c8ff7c79a9a21p-2"),
        # re-recorded when two-input channels began their E0 program at the
        # segment's minimizer: a 50-digit E0 at rho = 1 is 0x1.444b873f60b00p-3
        (0.1, "z05"): ("0x1.b498679579f4fp-2", "0x1.59ab0f80fd9b4p-1", "0x1.1488d933fe158p-4",
                       "0x1.e212742b78b8fp-4", "0x1.444b873f60afdp-3"),
    }

    def test_erasure_channel(self):
        for (beta, frac), want in self.BEC.items():
            got = ex.bec_focusing_exponent_bits(beta, frac * (1 - beta))
            assert got == float.fromhex(want), (beta, frac)

    def test_focusing(self):
        for (name, r, k), want in self.FOCUSING.items():
            ch = self.CHANNELS[name]
            assert ex.focusing_bound(ch, r, k) == float.fromhex(want), (name, r, k)
            assert ex.bound_curve(ch, "focusing", [r], k) == [float.fromhex(want)]

    def test_two_stream_split(self, bsc002, z05):
        channels = {"bsc002": bsc002, "z05": z05}
        for (rate, name), want in self.SPLITS.items():
            split = ncl.two_stream_split(channels[name], rate)
            got = (split.psi, split.rho, split.e_prime, split.e0_rho, split.e0_one)
            assert got == tuple(map(float.fromhex, want)), name

    def test_two_stream_root_just_below_its_cap(self, bsc002):
        # E0(1)/R = 1.1e8 is beyond rho = 1e8 but the root is not: the value
        # is the one the search gave before it stopped at 1e8
        assert ex.bound_at_rate(bsc002, "timesharing", 4e-9) == \
            float.fromhex("0x1.525e999c12495p-2")

    def test_two_stream_back_off(self, bsc002):
        split = ncl.two_stream_split(bsc002, 0.2231435)
        _, details = ncl.simulate_two_stream(bsc002, split, 200, seed=6)
        assert details["rho_sim"] == float.fromhex("0x1.cdc327526e137p-2")

    @pytest.mark.parametrize("solve, message, residual", [
        (lambda: ex.focusing_bound(dmc.bsc(0.02), 1e-9),
         "focusing rate root beyond eta = 1e8 (residual 3.742e-09)", "0x1.0128e4a5f4c89p-28"),
        # the erasure cap is twice the bound log2(1/beta) / R on the root,
        # and at most 1e300; it was a fixed eta = 1e9, which 1e-10 passed
        (lambda: ex.bec_focusing_exponent_bits(0.4, 1e-310),
         "BEC focusing rate root beyond eta = 1e+300 (residual 4.935e-301)",
         "0x1.5269e12e0de57p-998"),
        (lambda: ncl.two_stream_split(dmc.bsc(0.02), 1e-18),
         "two-stream rate root beyond rho = 1e8 (residual 3.304e-09)",
         "0x1.c626e2c543a7fp-29"),
    ], ids=["focusing", "erasure", "two_stream"])
    def test_roots_beyond_the_cap_raise(self, solve, message, residual):
        with pytest.raises(dmc.ConvergenceError) as err:
            solve()
        assert str(err.value) == message
        assert err.value.residual == float.fromhex(residual)


class TestInversionWorkCounters:
    """Exact E0 evaluations (``_e0_kernel`` runs) of the rate inversions on
    a fresh channel.  A change may lower these counts; it must not raise
    them."""

    @pytest.mark.parametrize("name, r, want", [
        ("bsc0003", 1e-4, 23),  # the bracket grows past eta = 64
        ("bsc002", 0.3, 10),
    ])
    def test_focusing(self, e0_calls, name, r, want):
        ex.focusing_bound(fresh(TestRateInversionPins.CHANNELS[name]), r)
        assert len(e0_calls) == want

    def test_timesharing(self, bsc002, e0_calls):
        ex.bound_at_rate(fresh(bsc002), "timesharing", 0.2)
        assert len(e0_calls) == 11

    def test_two_stream_split(self, bsc002, z05, e0_calls):
        ncl.two_stream_split(fresh(bsc002), 0.2231435)
        assert len(e0_calls) == 11
        e0_calls.clear()
        ncl.two_stream_split(fresh(z05), 0.1)
        assert len(e0_calls) == 11  # 12 when the E0 program started at the uniform input

    def test_two_stream_simulation(self, bsc002, e0_calls):
        # the back-off's root search and select_params's E0 at the root; the
        # search's first rho, the bracket's end at the split's rho, is read
        # from the channel's store, where the split solved it (12 runs when
        # each run kept its own table)
        bsc002 = fresh(bsc002)
        split = ncl.two_stream_split(bsc002, 0.2231435)
        e0_calls.clear()
        ncl.simulate_two_stream(bsc002, split, 200, seed=6)
        assert len(e0_calls) == 11


class TestE0SolveCounters:
    """Certified E0 programs (``maximize_e0`` runs) of a one-rate
    ``bounds esp,er`` request on a channel without output symmetry: esp,
    then er on the same channel, as the CLI solves them.  Each rho is solved
    once per channel (``Dmc.e0_points``), and esp searches [0, 1], random
    coding's bracket, at or above the critical rate (0.1848 nats here), so
    er then needs no program of its own.  Searching [0, 64] first at every
    rate and solving again at every evaluation, as esp and er once did,
    made 28 and 10 at R = 0.2072, and 13 and 2 at R = 0.05.  Starting a
    two-input program at its segment's minimizer instead of the uniform
    input lowered esp at R = 0.2072 from 10 to 9.  A change may lower these
    counts; it must not raise them."""

    ROWS = [[1.0, 0.0], [0.31173178805144486, 0.6882682119485551]]

    @pytest.mark.parametrize("r, want", [(0.2072, (9, 0)), (0.05, (13, 0))])
    def test_bounds_esp_er(self, monkeypatch, r, want):
        solves = []
        solve = ex.maximize_e0

        solves_all = []

        def counted(rows, rho):
            solves.append(rho)
            solves_all.append(rho)
            return solve(rows, rho)

        monkeypatch.setattr(ex, "maximize_e0", counted)
        ch = dmc.Dmc(self.ROWS)
        counts = []
        for name in ("esp", "er"):
            solves.clear()
            ex.bound_at_rate(ch, name, r)
            counts.append(len(solves))
        assert tuple(counts) == want
        # the store holds every solved rho, and rho = 0, whose input is the
        # uniform one, which no program solves
        assert sorted(ch.e0_points) == [0.0, *sorted(solves_all)]
        assert all(not q.flags.writeable for _, _, q in ch.e0_points.values())


@st.composite
def asymmetric_channels(draw):
    """A 2x2 to 3x3 channel with random rows, every entry at least 0.01 (so
    R_inf = 0), without output symmetry, and three rates r1 < r2 < r3 in
    (0, C) with r2 = (1-t) r1 + t r3."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))

    def row():
        w = draw(st.lists(st.floats(0.01, 1.0), min_size=ny, max_size=ny))
        return [x / sum(w) for x in w]

    ch = dmc.Dmc([row() for _ in range(nx)])
    f1 = draw(st.floats(0.02, 0.6))
    f3 = draw(st.floats(f1 + 0.05, 0.98))
    t = draw(st.floats(0.1, 0.9))
    cap = ch.capacity_solution[0]
    r1, r3 = f1 * cap, f3 * cap
    return ch, (r1, (1.0 - t) * r1 + t * r3, r3), t


@st.composite
def sparse_channel_rates(draw):
    """A 2x2 to 3x3 channel without output symmetry whose rows may hold
    zeros (so R_inf may be positive), with C - R_inf above 1e-3, and three
    rates r1 < r2 < r3 at R_inf + f (C - R_inf), f in [0.02, 0.98], with
    r2 = (1-t) r1 + t r3."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

    def row():
        w = draw(st.lists(entry, min_size=ny, max_size=ny).filter(lambda w: sum(w) > 0))
        return [x / sum(w) for x in w]

    ch = dmc.Dmc([row() for _ in range(nx)])
    r_inf, cap = ex.divergence_rate(ch), ch.capacity_solution[0]
    assume(not ch.symmetric and cap - r_inf > 1e-3)
    f1 = draw(st.floats(0.02, 0.6))
    f3 = draw(st.floats(f1 + 0.05, 0.98))
    t = draw(st.floats(0.1, 0.9))
    r1, r3 = r_inf + f1 * (cap - r_inf), r_inf + f3 * (cap - r_inf)
    return ch, (r1, (1.0 - t) * r1 + t * r3, r3), t


@st.composite
def sparse_channel_rate(draw):
    """A 2x2 to 3x3 channel whose rows may hold zeros and a rate f C, f in
    [0.05, 0.95], above R_inf."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

    def row():
        w = draw(st.lists(entry, min_size=ny, max_size=ny).filter(lambda w: sum(w) > 0))
        return [x / sum(w) for x in w]

    ch = dmc.Dmc([row() for _ in range(nx)])
    cap = ch.capacity_solution[0]
    r = draw(st.floats(0.05, 0.95)) * cap
    assume(cap > CAPACITY_FLOOR and r > ex.divergence_rate(ch) + 1e-6)
    return ch, r


class TestSpherePackingProperties:
    """esp on channels without output symmetry: above random coding, equal
    to it bit for bit at or above the critical rate dE0/drho(1), where both
    search [0, 1], nonincreasing and convex in R, and within 1e-12 of the
    search on [0, 64] that it replaced."""

    @settings(max_examples=25)
    @given(case=asymmetric_channels())
    def test_against_random_coding_and_the_old_search(self, case):
        ch, rates, t = case
        assume(not ch.symmetric and ch.capacity_solution[0] > 1e-3)
        critical = ex._e0_point(ch, 1.0)[1]
        esp = []
        for r in rates:
            esp.append(ex.sphere_packing(ch, r))
            er = ex.random_coding_list(ch, r)
            assert er <= esp[-1]
            if critical <= r:
                assert er.hex() == esp[-1].hex()
            assert esp[-1] == pytest.approx(slope_esp(ch, r), rel=0, abs=1e-12)
        assert esp[0] >= esp[1] >= esp[2]
        assert esp[1] <= (1.0 - t) * esp[0] + t * esp[2] + 1e-12

    @settings(max_examples=40)
    @given(case=sparse_channel_rates())
    def test_nonincreasing_and_convex_with_sparse_rows(self, case):
        # as the output-symmetric families are, with the same slack
        ch, rates, t = case
        esp = [ex.sphere_packing(ch, r) for r in rates]
        assert esp[0] >= esp[1] - 1e-12 and esp[1] >= esp[2] - 1e-12
        assert esp[1] <= (1.0 - t) * esp[0] + t * esp[2] + 1e-9


class TestRandomCodingList:
    def test_matches_esp_at_high_rate(self, bsc002):
        # above the critical rate (~0.316 nats) the optimizing rho is < 1
        for r in (0.35, 0.45, 0.55):
            assert ex.random_coding_list(bsc002, r, 1) == pytest.approx(
                ex.sphere_packing(bsc002, r), abs=1e-8)

    def test_rate_zero_gives_e0_at_cap(self, bsc002):
        assert ex.random_coding_list(bsc002, 0.0, 1) == pytest.approx(
            0.4462871026, abs=1e-9)

    def test_above_capacity_zero(self, bsc002):
        assert ex.random_coding_list(bsc002, 0.9, 1) == 0.0

    def test_larger_lists_close_the_gap(self, bsc002):
        r = 0.1  # below critical rate: lists help
        e1 = ex.random_coding_list(bsc002, r, 1)
        e4 = ex.random_coding_list(bsc002, r, 4)
        esp = ex.sphere_packing(bsc002, r)
        assert e1 < e4 <= esp + 1e-9
        assert e4 == pytest.approx(esp, abs=1e-6)


class TestHaroutunian:
    def test_symmetric_fast_path_equals_esp(self, bsc002, bec04):
        for ch in (bsc002, bec04):
            for r in (0.15, 0.3):
                assert ex.haroutunian(ch, r) == pytest.approx(
                    ex.sphere_packing(ch, r), abs=1e-12)

    def test_search_agrees_with_esp_on_symmetric(self, bsc002):
        val = ex._haroutunian_general(bsc002, 0.3)
        assert val == pytest.approx(ex.sphere_packing(bsc002, 0.3), abs=1e-3)

    def test_z_channel_matches_pinned_row_oracle(self, z05):
        for r in (0.05, 0.10, 0.15):
            got = ex.haroutunian(z05, r)
            assert got == pytest.approx(z_haroutunian_oracle(r), abs=1e-4)

    def test_z_channel_strict_gap(self, z05):
        r = 0.10
        gap = ex.haroutunian(z05, r) - ex.sphere_packing(z05, r)
        assert gap >= 1e-3

    def test_above_capacity_zero(self, z05):
        assert ex.haroutunian(z05, 0.5) == 0.0

    # the 50-digit references of oracles.z05_haroutunian_mp, which both
    # programs must meet to 1e-12: on Z(0.5) the tilde relaxation does not
    # lower the exponent (oracles.z_tilde_bisection agrees)
    Z05_PINNED = {
        ("standard", 0.03): 0.41566972237431041407,
        ("standard", 0.115): 0.097292684948362622215,
        ("standard", 0.20): 0.0036520362494887374884,
        ("tilde", 0.03): 0.41566972237431041407,
        ("tilde", 0.115): 0.097292684948362622215,
        ("tilde", 0.20): 0.0036520362494887374884,
    }

    @pytest.mark.parametrize("variant, r", sorted(Z05_PINNED))
    def test_z_channel_values_pinned(self, z05, variant, r):
        assert ex.haroutunian(z05, r, variant) == pytest.approx(
            self.Z05_PINNED[variant, r], abs=1e-12)

    @pytest.mark.parametrize("r", (0.03, 0.115, 0.20))
    def test_z_channel_pins_match_mpmath_oracle(self, r):
        # at the decimal rate; the double nearest it moves E+ by < 3e-17
        primal = z05_haroutunian_mp(str(r), "primal")
        dual = z05_haroutunian_mp(str(r), "dual")
        assert abs(primal - dual) < 1e-25
        assert float(primal) == pytest.approx(self.Z05_PINNED["standard", r], abs=1e-17)

    def test_rate_zero_on_the_common_output_face(self, z05):
        # C(V) = 0 forces equal rows on the outputs every input reaches:
        # on Z(0.5) only output 0, so E+(0) = -ln P(0|1) = ln 2 exactly
        assert ex.haroutunian(z05, 0.0) == LN2
        # a two-output face {0, 1}: the max of D(q || (.6, .2)) and
        # D(q || (.2, .6)) is least at q = (1/2, 1/2) by symmetry
        ch = dmc.Dmc([[0.6, 0.2, 0.2, 0.0], [0.2, 0.6, 0.0, 0.2]])
        want = 0.5 * math.log(0.5 / 0.6) + 0.5 * math.log(0.5 / 0.2)
        assert ex._haroutunian_general(ch, 0.0) == pytest.approx(
            want, abs=1e-12)

    ASYM3 = dmc.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]])
    ASYM3_STANDARD = {0.05: 0.07337363456548, 0.08: 0.04314021602811,
                      0.10: 0.02953012574062, 0.20: 0.00086008572198}

    @pytest.mark.parametrize("r", sorted(ASYM3_STANDARD))
    def test_three_inputs_match_nelder_mead_oracle(self, r):
        got = ex.haroutunian(self.ASYM3, r)
        assert got == pytest.approx(self.ASYM3_STANDARD[r], abs=1e-10)
        assert got == pytest.approx(nelder_mead_haroutunian(self.ASYM3, r), abs=1e-10)
        assert got >= ex.sphere_packing(self.ASYM3, r)

    def test_convex_solve_certifies_its_gap(self, z05):
        for ch in (z05, self.ASYM3):
            sol = optimize.minimize_convex_on_simplex(ex._haroutunian_oracle(ch, 0.1),
                                                      ch.output_size)
            assert 0.0 <= sol.gap <= optimize.CONVEX_TOL
            assert sol.value == ex.haroutunian(ch, 0.1)
            if ch is z05:  # the optimum sits on the domain's boundary q_0 = e^-R
                assert sol.q[0] == pytest.approx(math.exp(-0.1), abs=1e-12)

    def test_tilde_three_inputs_pinned(self):
        # the relaxation does not lower E+ on this channel either
        for r in (0.05, 0.08, 0.10):
            assert ex.haroutunian(self.ASYM3, r, "tilde") == pytest.approx(
                self.ASYM3_STANDARD[r], abs=1e-12)

    def test_tilde_no_worse_than_standard(self, z05):
        for r in (0.08, 0.14):
            tilde = ex.haroutunian(z05, r, variant="tilde")
            standard = ex.haroutunian(z05, r, variant="standard")
            assert type(tilde) is float
            assert tilde <= standard

    @staticmethod
    def z05_superlevel(rate):
        """S = [s_lo, s_hi], the s with I((s, 1-s), Z(0.5)) >= R: the ends of
        the concave information's superlevel set, bisected on either side of
        its maximizer s = 3/5 to 40 digits."""
        import mpmath as mp

        with mp.workdps(40):
            r, half = mp.mpf(rate), mp.mpf("0.5")

            def end(inside, outside):
                for _ in range(140):
                    mid = (inside + outside) / 2
                    if z_information_mp(mid, half) >= r:
                        inside = mid
                    else:
                        outside = mid
                return inside

            top = mp.mpf(3) / 5
            return end(top, mp.mpf(0)), end(top, mp.mpf(1))

    @pytest.mark.parametrize("r", (0.03, 0.115, 0.20))
    def test_z_channel_tilde_matches_bisection_oracle(self, z05, r):
        # the dual certificate closes at all three rates (0.03 and 0.2 are
        # the benchmark's tilde points), so the doubled program never runs
        s_lo, s_hi = self.z05_superlevel(str(r))
        want = z_tilde_bisection("0.5", str(r), s_lo, s_hi)
        with mock.patch.object(ex, "_haroutunian_tilde", wraps=ex._haroutunian_tilde) as ran:
            got = ex.haroutunian(z05, r, "tilde")
        assert ran.call_count == 0
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_certificate_closes_on_the_segment_program(self):
        # plain bisection's E+ lay 5.4e-14 above the segment search's here,
        # and the dual certificate at its output law missed it by 1.5e-13,
        # so the doubled program ran; at the segment search's point on the
        # domain edge it misses by 9.2e-14, within 1e-13, and closes
        ch = dmc.Dmc([[0.975961, 0.024039], [0.0, 1.0], [0.0, 1.0]])
        r = 0.1 * ch.capacity_solution[0]
        with mock.patch.object(ex, "_haroutunian_tilde", wraps=ex._haroutunian_tilde) as ran:
            tilde = ex.haroutunian(ch, r, "tilde")
        assert ran.call_count == 0
        assert tilde == ex.haroutunian(ch, r)

    @pytest.mark.parametrize("rows, frac", [
        # the certificate misses E+ here (found by a seeded search)
        ([[0.568496, 0.431504, 0.0], [0.01087, 0.001288, 0.987842]], 0.1),
        # BEC(0.4) and a channel with two symmetric blocks: tilde is sphere
        # packing, and the program, run here until the identity was used,
        # does not run; run directly, it is not below E_sp
        ([[0.6, 0.0, 0.4], [0.0, 0.6, 0.4]], 0.5),
        (TWO_BLOCKS.rows.tolist(), 0.5),
    ])
    def test_tilde_runs_the_program_where_the_certificate_does_not_close(self, rows, frac):
        ch = dmc.Dmc(rows)
        r = frac * ch.capacity_solution[0]
        with mock.patch.object(ex, "_haroutunian_tilde", wraps=ex._haroutunian_tilde) as ran:
            tilde = ex.haroutunian(ch, r, "tilde")
        assert ran.call_count == (0 if ch.symmetric else 1)
        sol = tilde_program(ch, r)
        assert 0.0 <= sol.gap <= optimize.CONVEX_TOL
        assert tilde == min(sol.value, ex.haroutunian(ch, r))

    @pytest.mark.parametrize("ch", [dmc.bec(0.1), dmc.bec(0.4), dmc.bec(0.7), TWO_BLOCKS],
                             ids=["bec0.1", "bec0.4", "bec0.7", "two_blocks"])
    def test_tilde_is_sphere_packing_on_output_symmetric_channels(self, ch):
        # tilde = E+ = E_sp there (``haroutunian``'s docstring), so neither
        # program nor the certificate runs
        assert ch.symmetric
        programs = [mock.patch.object(ex, name, wraps=getattr(ex, name)) for name in
                    ("_haroutunian_convex", "_tilde_dual_bound", "_haroutunian_tilde")]
        for frac in (0.1, 0.5, 0.9):
            r = frac * ch.capacity_solution[0]
            with programs[0] as convex, programs[1] as bound, programs[2] as tilde_runs:
                got = ex.haroutunian(ch, r, "tilde")
            assert got.hex() == ex.sphere_packing(ch, r).hex()
            assert convex.call_count == bound.call_count == tilde_runs.call_count == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_csiszar_koerner_e0_bounds_gallager_e0(self, seed):
        # the lemma behind tilde = E_sp on output-symmetric channels:
        # E0^CK(rho, q) >= E0(rho, q) for every q (Jensen, then Hoelder),
        # with equality at the uniform input on output-symmetric channels;
        # the oracle's lower end is a Frank-Wolfe bound, so sound
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 4), rng.integers(2, 5)
        rows = rng.dirichlet(np.full(ny, 0.5), size=nx)
        rows[rng.random((nx, ny)) < 0.2] = 0.0  # sparse rows
        rows[:, 0] += 0.05  # every row keeps an output
        ch = dmc.Dmc(rows / rows.sum(axis=1, keepdims=True))
        symmetric = [dmc.bsc(0.1 + 0.05 * seed), dmc.bec(0.1 + 0.12 * seed), TWO_BLOCKS]
        for rho in (0.05, 0.5, 1.0, 4.0):
            q = rng.dirichlet(np.ones(nx))
            upper, lower = e0_csiszar_koerner(ch.rows, rho, q)
            assert lower <= upper + 1e-14
            assert lower >= ex.gallager_e0(ch, rho, q) - 1e-12
            sym = symmetric[seed % 3]
            upper, lower = e0_csiszar_koerner(sym.rows, rho, sym.uniform)
            assert lower >= ex.gallager_e0(sym, rho, sym.uniform) - 1e-12
            assert upper <= ex.gallager_e0(sym, rho, sym.uniform) + 1e-12

    @pytest.mark.parametrize("d", (1e-8, 1e-10, 1e-12, 0.0))
    def test_tilde_at_and_just_below_capacity_is_the_standard_exponent(self, z05, d):
        # E+ comes back as roundoff there (3e-15 to 2e-14), no q0 has
        # I(q0, P) > R and the doubled program's domain collapses, so tilde
        # is E+ wherever E+ <= 1e-13
        for ch in (z05, self.ASYM3):
            r = ch.capacity_solution[0] * (1.0 - d)
            eplus = ex.bound_at_rate(ch, "haroutunian", r)
            assert 0.0 <= eplus <= optimize.CONVEX_TOL
            assert ex.bound_at_rate(ch, "tilde", r) == eplus

    def test_tilde_at_rate_zero_is_the_standard_exponent(self, z05):
        for r in (0.0, 5e-16):
            assert ex.haroutunian(z05, r, "tilde") == ex.haroutunian(z05, r)

    def test_tilde_face_lambda_zero_is_the_standard_program(self, z05):
        # with o'-block mass 1e-12 the row budgets are R to 1e-11, so the
        # doubled oracle's value is the standard oracle's at o
        laws = ((z05, ([0.95, 0.05], [0.92, 0.08], [0.99, 0.01])),
                (self.ASYM3, ([0.4, 0.35, 0.25], [0.2, 0.3, 0.5], [0.6, 0.3, 0.1])))
        for ch, outputs in laws:
            ny = ch.output_size
            tilde, standard = ex._tilde_oracle(ch, 0.1), ex._haroutunian_oracle(ch, 0.1)
            for o in map(np.array, outputs):
                z = np.concatenate([(1.0 - 1e-12) * o, 1e-12 * np.full(ny, 1.0 / ny)])
                want, got = standard(o)[0], tilde(z)[0]
                assert math.isfinite(want)
                assert got == pytest.approx(want, abs=1e-10)

    def test_tilde_objective_is_a_convex_ratio(self):
        # F is not convex on the doubled simplex (its gradient's tangent
        # plane rises above it), while (1 - lam) F is: the reason the solver
        # certifies F as a ratio
        ch = dmc.Dmc([[0.9, 0.1], [0.3, 0.7]])
        oracle = ex._tilde_oracle(ch, 0.2)
        block = np.array([1.0, 1.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        worst_f = worst_h = -math.inf
        for _ in range(400):
            pts = rng.dirichlet(np.full(4, 0.7), size=2)
            pts[:, 2:] *= rng.uniform(0.0, 1.0, size=(2, 1))
            z1, z2 = pts / pts.sum(axis=1, keepdims=True)
            (f1, g1, *_), (f2, *_) = oracle(z1), oracle(z2)
            if not (math.isfinite(f1) and math.isfinite(f2)):
                continue
            s1, s2 = block @ z1, block @ z2
            worst_f = max(worst_f, f1 + g1 @ (z2 - z1) - f2)
            worst_h = max(worst_h, s1 * f1 + (s1 * g1 + f1 * block) @ (z2 - z1) - s2 * f2)
        assert worst_f > 1e-2
        assert worst_h <= 1e-12


class TestZeroErrorFeedbackCapacity:
    def test_bec_zero(self, bec04):
        # both inputs reach the erasure output, so E0 stays bounded
        assert ex.zero_error_feedback_capacity(bec04) == 0.0

    def test_identity_ln2(self):
        assert ex.zero_error_feedback_capacity(dmc.identity_channel(2)) == pytest.approx(
            LN2, abs=1e-6)

    def test_disjoint_pair_with_noisy_third_input(self):
        rows = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        ch = dmc.Dmc(rows)
        assert ex.zero_error_feedback_capacity(ch) >= LN2 - 1e-3


CIRCULANT = dmc.Dmc([[0.653, 0.347, 0.0], [0.0, 0.653, 0.347], [0.347, 0.0, 0.653]])


class TestDivergenceRate:
    def test_exact_zero_with_a_common_output(self, bsc002, bec04, z05):
        for ch in (bsc002, bec04, z05, TestHaroutunian.ASYM3):
            assert ex.divergence_rate(ch) == 0.0
        assert ex.divergence_rate(bsc002, 50) == LN2 / 50

    def test_games_without_a_common_output(self):
        # max_q min_x q(T_x): 1/2 on the identity, 2/3 on the circulant,
        # 1/3 with a noisy third input on its own outputs
        assert ex.divergence_rate(dmc.identity_channel(2)) == pytest.approx(LN2, abs=1e-12)
        assert ex.divergence_rate(CIRCULANT) == pytest.approx(math.log(1.5), abs=1e-12)
        rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
        assert ex.divergence_rate(dmc.Dmc(rows)) == pytest.approx(math.log(3), abs=1e-12)

    def test_circulant_shares_outputs_pairwise(self):
        # every pair of inputs shares an output, so Shannon's C_0,f is 0
        # while the exponents diverge up to R_inf = ln 1.5
        assert ex.zero_error_feedback_capacity(CIRCULANT) == 0.0

    def test_circulant_infinite_below_and_finite_above(self):
        for r in (0.3, 0.42):
            values = (ex.focusing_bound(CIRCULANT, r), ex.sphere_packing(CIRCULANT, r),
                      ex.haroutunian(CIRCULANT, r),
                      ex._haroutunian_general(CIRCULANT, r))
            if r < math.log(1.5):
                assert values == (math.inf,) * 4
            else:
                assert all(0 < v < math.inf for v in values)
                assert values[3] == pytest.approx(values[1], abs=1e-9)

    def test_haroutunian_zero_where_the_divergence_rate_is_capacity(self):
        # disjoint-support rows: R_inf = C = ln 2, and at R_inf the domain
        # {q : q(T_x) >= 1/2} is the segment q_0 = 1/2, with no interior
        ch = dmc.Dmc([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        assert not ch.symmetric
        for d in (-1e-13, 0.0, 1e-16, 1e-13):
            assert ex.haroutunian(ch, LN2 + d) == 0.0
        assert ex.haroutunian(ch, LN2 - 1e-11) == math.inf

    def test_haroutunian_rises_to_its_value_at_a_positive_divergence_rate(self):
        # R_inf = ln 1.5 with the face {uniform}, where row 0 is forced to
        # (1/2, 1/2): E+(R_inf) = D((1/2, 1/2) || (0.8, 0.2)) = ln 1.25,
        # approached from below like sqrt(R - R_inf)
        ch = dmc.Dmc([[0.8, 0.2, 0.0], [0.0, 0.7, 0.3], [0.4, 0.0, 0.6]])
        values = [ex.haroutunian(ch, math.log(1.5) + d) for d in (1e-6, 1e-9, 1e-12)]
        assert values == sorted(values)
        for d, v in zip((1e-6, 1e-9, 1e-12), values):
            assert 0.0 < math.log(1.25) - v < 2.0 * math.sqrt(d)

    @pytest.mark.parametrize("rows, e_zero", [
        ([[0.5, 0.5, 0.0], [0.3, 0.0, 0.7]], -math.log(0.3)),
        ([[0.5, 0.3, 0.2, 0.0], [0.3, 0.0, 0.2, 0.5], [0.0, 0.6, 0.4, 0.0]],
         -math.log(0.2)),
    ])
    def test_haroutunian_in_the_thin_slab_above_rate_zero(self, rows, e_zero):
        # R_inf = 0 on one common output: for small R the domain is a slab
        # about 1 - e^-R wide around that vertex; within 1e-15 of 0 the
        # face value E+(0) = max_x -ln P_x(y) is returned
        ch = dmc.Dmc(rows)
        rates = (0.0, 1e-16, 1e-15, 1e-13, 1e-10)
        values = [ex.haroutunian(ch, r) for r in rates]
        assert values[0] == values[1] == pytest.approx(e_zero, abs=1e-15)
        assert values == sorted(values, reverse=True)
        assert values[0] - values[-1] < 1e-7


def tilde_program(ch, r):
    """The tilde program on the doubled output simplex, run directly, as
    ``haroutunian`` runs it where the dual certificate does not close."""
    ny = ch.output_size
    divisor = np.concatenate([np.ones(ny), np.zeros(ny)])
    return optimize.minimize_convex_on_simplex(ex._tilde_oracle(ch, r), 2 * ny, divisor)


class TestHaroutunianProperties:
    @settings(max_examples=60)
    @given(ch=small_channels(), frac=st.floats(0.02, 0.98))
    @low_capacity_examples(frac=0.8)
    def test_sphere_packing_below_and_equal_on_symmetric(self, ch, frac):
        cap = dmc.capacity(ch)[0]
        assume(cap > CAPACITY_FLOOR)
        r = frac * cap
        esp = ex.sphere_packing(ch, r)
        eplus = ex._haroutunian_general(ch, r)
        assert esp <= eplus + 1e-12
        if ch.symmetric:
            assert eplus == pytest.approx(esp, abs=1e-9)

    @settings(max_examples=12)
    @given(ch=small_channels(), frac=st.floats(0.02, 0.9), step=st.floats(0.01, 0.1))
    @low_capacity_examples(frac=0.8, step=0.05)
    def test_tilde_certified_below_standard_and_nonincreasing(self, ch, frac, step):
        cap = dmc.capacity(ch)[0]
        assume(cap > CAPACITY_FLOOR)
        r = frac * cap
        assume(r > ex.divergence_rate(ch) + 1e-6)
        tilde = ex._haroutunian_general(ch, r, "tilde")
        eplus = ex._haroutunian_general(ch, r)
        sol = tilde_program(ch, r)  # run whether or not the certificate closed
        assert 0.0 <= sol.gap <= optimize.CONVEX_TOL
        assert sol.value - sol.gap <= tilde <= sol.value + optimize.CONVEX_TOL
        assert tilde <= eplus
        later = ex._haroutunian_general(ch, r + step * cap, "tilde")
        assert later <= tilde + optimize.CONVEX_TOL

    @settings(max_examples=20)
    @given(case=sparse_channel_rate())
    def test_tilde_relaxation_does_not_lower_the_standard_exponent(self, case):
        # the seeded search for a channel with tilde < E+: the doubled
        # program, run whether or not the dual certificate closes, stays
        # within its certified 1e-13 of E+, which an ellipsoid solve
        # certifies to 1e-13 too.  A channel that fails this is the first
        # counterexample: it is to be pinned against an mpmath oracle, and
        # the bound kept
        ch, r = case
        assert ex._haroutunian_tilde(ch, r) >= ex._haroutunian_convex(ch, r)[0] - 1e-13

    @settings(max_examples=20)
    @given(ch=small_channels(), frac=st.floats(0.05, 0.95),
           noise=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
    def test_dual_bound_never_exceeds_the_program(self, ch, frac, noise):
        # weak duality holds for any multipliers: those read at E+'s optimum
        # o*, and at o* moved by up to e^(3e-10) per output (the same rows
        # stay active, so the fixed-point steps walk back) and by up to e^0.3
        r = frac * ch.capacity_solution[0]
        assume(r > ex.divergence_rate(ch) + 1e-6)
        eplus, best = ex._haroutunian_convex(ch, r)
        assume(eplus > 0.0)
        value = tilde_program(ch, r).value
        for scale in (0.0, 1e-9, 1.0):
            moved = best * np.exp(scale * np.array(noise[:ch.output_size]))
            assert ex._tilde_dual_bound(ch, r, moved / moved.sum()) <= value

    @pytest.mark.parametrize("rows, frac", [
        ([[1.0, 0.0], [0.5, 0.5]], 0.1),
        ([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]], 0.5),
        ([[0.975961, 0.024039], [0.0, 1.0], [0.0, 1.0]], 0.1),
        ([[0.5, 0.3, 0.2, 0.0], [0.3, 0.0, 0.2, 0.5], [0.0, 0.6, 0.4, 0.0]], 0.5),
    ])
    def test_dual_fixed_point_lowers_phi_inside_the_simplex(self, rows, frac):
        # the majorize-minimize steps, started at the uniform law instead of
        # o*, lower phi = -sum_x c_x ln S_x at every step up to the bound's
        # rounding allowance, keep every coordinate a normal double, and end
        # within 1e-14 of the bound started at o*
        ch = dmc.Dmc(rows)
        r = frac * ch.capacity_solution[0]
        _, best = ex._haroutunian_convex(ch, r)
        at_best = ex._tilde_dual_bound(ch, r, best)
        dual_point, seen = ex._dual_point, []

        def from_uniform(weight, c, b, o):
            if not seen:
                o = np.full(len(o), 1.0 / len(o))
            logs = np.log((weight * o ** b[:, None]).sum(axis=1))
            seen.append((float(-c @ logs), float(c @ (1.0 + np.abs(logs))), o))
            return dual_point(weight, c, b, o)

        with mock.patch.object(ex, "_dual_point", from_uniform):
            bound = ex._tilde_dual_bound(ch, r, best)
        assert len(seen) > 20
        slack = (ch.input_size + ch.output_size + 8) * optimize.EPS
        for (phi, scale, _), (later, _, o) in zip(seen, seen[1:]):
            assert later <= phi + slack * scale
            assert o.min() >= np.finfo(float).tiny
        assert seen[-1][0] < seen[0][0] - 1e-6
        assert bound == pytest.approx(at_best, abs=1e-14)

    def test_dual_bound_closes_after_the_slack_leaves_roundoff(self):
        # a seeded 3x4 point at 0.1 C where the bound meets E+ to 9.97e-14:
        # the fixed point's slack first falls to eps mu an ulp above 0, and
        # stopping there would miss by 1.5e-15
        ch = dmc.Dmc([[0.8161171064512519, 0.17225045326245275, 0.0, 0.011632440286295261],
                      [0.0891556477834618, 0.0, 0.9102748623323524, 0.0005694898841856958],
                      [0.26635948704488344, 0.08601336664446896, 0.5153865942518223,
                       0.1322405520588252]])
        r = 0.05486190979845156  # 0.1 C
        eplus, best = ex._haroutunian_convex(ch, r)
        assert eplus - ex._tilde_dual_bound(ch, r, best) <= optimize.CONVEX_TOL

    def test_dual_bound_without_multipliers_is_minus_infinity(self, z05):
        # above capacity no row's tilted value at the capacity output law
        # has rho > 0, so no row carries lam
        c, q = z05.capacity_solution
        assert ex._tilde_dual_bound(z05, 1.1 * c, q @ z05.rows) == -math.inf
        # at this o the least-squares fit clips every lam to 0
        ch = dmc.Dmc([[1.0, 0.0, 0.0], [0.3, 0.7, 0.0], [0.0, 0.4, 0.6]])
        o = np.array([0.5990899081095657, 0.1860283970011256, 0.21488169488930858])
        assert ex._tilde_dual_bound(ch, 0.41292590787353745, o) == -math.inf

    def test_dual_steps_stop_before_a_coordinate_underflows(self):
        # started at an o with 8e-303 on output 2, the fixed point's next
        # coordinate there falls below the smallest normal double: the
        # steps stop, and the bound taken so far is finite and sound
        ch = dmc.Dmc([[0.9, 0.1, 0.0], [0.0, 0.2, 0.8]])
        r = 0.03357017952640842
        o = np.array([0.7501733533158838, 0.2498266466841162, 8.250873502088279e-303])
        dual_point, seen = ex._dual_point, []

        def recorded(weight, c, b, o):
            seen.append(o)
            return dual_point(weight, c, b, o)

        with mock.patch.object(ex, "_dual_point", recorded):
            bound = ex._tilde_dual_bound(ch, r, o)
        assert all(o.min() >= np.finfo(float).tiny for o in seen)
        assert len(seen) < ex.TILDE_DUAL_STEPS
        assert -math.inf < bound <= ex._haroutunian_convex(ch, r)[0]

    def test_z_channel_orderings(self, z05):
        for r in (0.05, 0.1, 0.15):
            esp = ex.sphere_packing(z05, r)
            har = ex.haroutunian(z05, r)
            focusing = ex.focusing_bound(z05, r)
            timesharing = ex.bound_at_rate(z05, "timesharing", r)
            assert esp <= har <= focusing
            assert timesharing <= focusing


@st.composite
def asymmetric_binary_rates(draw):
    """A 2x2 channel without output symmetry, [[1-a, a], [b, 1-b]] with
    a < b <= 0.4 (a Z channel at a = 0), its rows in either order, and two
    rates 0.05 C < r1 < r2 < 0.95 C.  a != b and a + b != 1 rule out output
    symmetry, and 1 - a - b >= 0.2 keeps C above 0.02.  Every draw is in the
    domain (no entry is subnormal, which ``Dmc`` rejects); nothing is
    filtered."""
    a = draw(st.floats(0.0, 0.39, allow_subnormal=False))
    b = draw(st.floats(a + 0.01, 0.4))
    rows = [[1.0 - a, a], [b, 1.0 - b]]
    if draw(st.booleans()):
        rows.reverse()
    ch = dmc.Dmc(rows)
    f1 = draw(st.floats(0.05, 0.9, exclude_min=True))
    f2 = draw(st.floats(f1 + 0.01, 0.95, exclude_max=True))
    cap = ch.capacity_solution[0]
    return ch, f1 * cap, f2 * cap


@st.composite
def asymmetric_ternary_rates(draw):
    """A 3x3 channel without output symmetry and with zero entries, rows
    (1-a, 0, a), (b1, 1-b1-b2, b2) and (c0, c1, 1-c0-c1), and two rates
    R_inf + f (C - R_inf) for 0.05 < f1 < f2 < 0.95.  Row 0 has a zero where
    row 1 has none, so no partition of the outputs makes the rows
    permutations of each other on every part.  a = c0 = 0 gives rows 0 and 2
    disjoint supports and R_inf = ln 2; otherwise output 0 or 2 is reached
    by every input and R_inf = 0.  Every draw is in the domain (no entry is
    subnormal); nothing is filtered."""
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.4, allow_subnormal=False)))
    b1, b2 = draw(st.floats(0.01, 0.2)), draw(st.floats(0.01, 0.2))
    c0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2, allow_subnormal=False)))
    c1 = draw(st.floats(0.0, 0.2, allow_subnormal=False))
    ch = dmc.Dmc([[1.0 - a, 0.0, a], [b1, 1.0 - b1 - b2, b2], [c0, c1, 1.0 - c0 - c1]])
    f1 = draw(st.floats(0.05, 0.9, exclude_min=True))
    f2 = draw(st.floats(f1 + 0.01, 0.95, exclude_max=True))
    r_inf, cap = ex.divergence_rate(ch), ch.capacity_solution[0]
    return ch, r_inf + f1 * (cap - r_inf), r_inf + f2 * (cap - r_inf)


class TestGeneralFocusingProperties:
    # each general focusing point is one program on |Y| + 1 letters, about
    # 20 ms on two outputs and 80 ms on three, next to a Haroutunian program
    # of a few ms and about 30 ms: a three-output example takes about 0.3 s
    @staticmethod
    def check_orderings_and_monotone_in_rate(case):
        ch, r1, r2 = case
        assert not ch.symmetric and ch.capacity_solution[0] > 1e-3
        focusing = []
        for r in (r1, r2):
            esp, eplus = ex.sphere_packing(ch, r), ex.haroutunian(ch, r)
            focusing.append(ex.focusing_bound(ch, r))
            assert esp <= eplus + 1e-12
            assert eplus <= focusing[-1] + 1e-12
            assert ex.bound_at_rate(ch, "timesharing", r) <= focusing[-1] + 1e-12
        assert focusing[1] <= focusing[0] + 1e-12

    @settings(max_examples=6)
    @given(case=asymmetric_binary_rates())
    def test_orderings_and_monotone_in_rate(self, case):
        self.check_orderings_and_monotone_in_rate(case)

    @settings(max_examples=20)
    @given(case=asymmetric_ternary_rates())
    def test_orderings_and_monotone_in_rate_on_three_outputs(self, case):
        self.check_orderings_and_monotone_in_rate(case)

    # the golden lambda search runs about 50 Haroutunian programs per rate:
    # 0.2 s on two outputs, 3 s on three
    @settings(max_examples=3)
    @given(case=asymmetric_binary_rates())
    def test_matches_the_golden_lambda_search(self, case):
        ch, r, _ = case
        assert ex.focusing_bound(ch, r) == pytest.approx(golden_focusing(ch, r), rel=1e-10)


@st.composite
def symmetric_rates(draw, family):
    """An output-symmetric channel of ``family`` and three rates
    r1 < r2 < r3 inside (R_inf, C), with r2 = (1-t) r1 + t r3: BSC(p),
    BEC(beta), or a 3x3 circulant with first row (1-a, c, a-c), 0 <= c <= a,
    where c = 0 or a puts zeros in the rows and R_inf = ln 1.5 (a <= 0.4
    keeps C - R_inf above 0.02).  Every draw is in the domain (c is 0 or
    normal, so no entry is subnormal); nothing is filtered."""
    if family == "bsc":
        ch = dmc.bsc(draw(st.floats(0.001, 0.3)))
    elif family == "bec":
        ch = dmc.bec(draw(st.floats(0.01, 0.9)))
    else:
        a = draw(st.floats(0.01, 0.4))
        c = draw(st.one_of(st.just(0.0), st.floats(0.0, a, allow_subnormal=False)))
        first = [1.0 - a, c, a - c]
        ch = dmc.Dmc([first[-i:] + first[:-i] for i in range(3)])
    f1 = draw(st.floats(0.02, 0.6))
    f3 = draw(st.floats(f1 + 0.05, 0.98))
    t = draw(st.floats(0.1, 0.9))
    r_inf, cap = ex.divergence_rate(ch), ch.capacity_solution[0]
    r1, r3 = r_inf + f1 * (cap - r_inf), r_inf + f3 * (cap - r_inf)
    return ch, (r1, (1.0 - t) * r1 + t * r3, r3), t


class TestSymmetricOrderingProperties:
    @pytest.mark.parametrize("family", ["bsc", "bec", "circulant"])
    def test_sphere_packing_below_focusing_nonincreasing_convex(self, family):
        @settings(max_examples=15)
        @given(case=symmetric_rates(family))
        def check(case):
            ch, rates, t = case
            assert ch.symmetric
            esp = [ex.sphere_packing(ch, r) for r in rates]
            for r, e in zip(rates, esp):
                assert e <= ex.focusing_bound(ch, r) + 1e-9
            assert esp[0] >= esp[1] - 1e-12 and esp[1] >= esp[2] - 1e-12
            assert esp[1] <= (1.0 - t) * esp[0] + t * esp[2] + 1e-9

        check()


BSC = dmc.bsc(0.02)
Z05 = dmc.z_channel(0.5)


class TestInputChecks:
    """Each guard raises its own message: without the guard the call would
    return a number or fail with another error."""

    @pytest.mark.parametrize("call, message", [
        (lambda: ex.sphere_packing(BSC, -0.1), "rate must be nonnegative"),
        (lambda: ex.random_coding_list(BSC, -0.1), "rate must be nonnegative"),
        (lambda: ex.random_coding_list(BSC, 0.1, 0),
         "list size must be a whole number of at least 1, got 0"),
        (lambda: ex.haroutunian(Z05, 0.1, "other"), "variant must be 'standard' or 'tilde'"),
        (lambda: ex.haroutunian(Z05, -0.1), "rate must be nonnegative"),
        (lambda: ex.focusing_bound(Z05, 0.1, 50),
         "fortified bounds require an output-symmetric base channel"),
        (lambda: ex.focusing_parametric_curve(BSC, [1.0, 0.0]), "eta grid must be positive"),
        (lambda: ex.focusing_parametric_curve(BSC, [1.0, -0.5]), "eta grid must be positive"),
        (lambda: ex.e0_slope(BSC, -0.5, [0.5, 0.5]), "rho must be nonnegative"),
        (lambda: ex.sphere_packing(BSC, 0.1, 0), "fortification period must be a positive integer"),
        (lambda: ex.timesharing_exponent(BSC, 0.0), "rho must be positive"),
        (lambda: ex.bec_focusing_point_bits(0.0, 1.0),
         r"erasure probability must lie in \(0, 1\)"),
        (lambda: ex.bec_focusing_point_bits(0.4, 0.0), "eta must be positive"),
        (lambda: ex.bec_focusing_exponent_bits(1.5, 0.1),
         r"erasure probability must lie in \(0, 1\)"),
        (lambda: ex.bec_anytime_capacity(1.0, 0.5),
         r"erasure probability must lie in \(0, 1\)"),
        (lambda: ex.bec_anytime_capacity(0.4, 0.0),
         r"reliability must lie in \(0, 1\.321928\) base-2 units"),
        (lambda: ex.bec_lowrate_floor(0.0, 1.0), r"erasure probability must lie in \(0, 1\)"),
        (lambda: ex.bec_lowrate_floor(0.01, -1.0), "r must be nonnegative"),
        (lambda: ex.FocusingPoint(eta=1.0, rate=0.2, exponent=0.2, lambda_star=1.0),
         r"lambda\* must lie in \[0, 1\)"),
        (lambda: ex.FocusingPoint(eta=1.0, rate=0.2, exponent=0.3, lambda_star=0.5),
         "parametric identity exponent = eta \\* rate violated"),
    ], ids=["esp_rate", "er_rate", "er_list_size", "haroutunian_variant", "haroutunian_rate",
            "focusing_fortified_asymmetric", "parametric_eta_zero", "parametric_eta_negative",
            "e0_slope_rho", "fortify_period", "timesharing_rho", "bec_point_beta", "bec_point_eta", "bec_exponent_beta",
            "anytime_beta", "anytime_alpha", "lowrate_floor_beta", "lowrate_floor_r",
            "focusing_point_lambda", "focusing_point_identity"])
    def test_guard_raises_its_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestBurnashev:
    def test_bsc_composed_closed_forms(self, bsc002):
        c1 = (1 - 0.04) * math.log(0.98 / 0.02)
        c = LN2 - (-(0.02 * math.log(0.02) + 0.98 * math.log(0.98)))
        expected = c1 * (1 - 0.3 / c)
        assert ex.burnashev_bound(bsc002, 0.3) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.85272, abs=1e-4)

    def test_zero_at_capacity(self, bsc002):
        c = dmc.capacity(bsc002)[0]
        assert ex.burnashev_bound(bsc002, c) == pytest.approx(0.0, abs=1e-9)

    def test_z_channel_infinite(self, z05):
        assert ex.burnashev_bound(z05, 0.1) == math.inf

    def test_rate_above_capacity_rejected(self, bsc002):
        with pytest.raises(ValueError):
            ex.burnashev_bound(bsc002, 0.7)

    def test_fortified_is_infinite_up_to_fortified_capacity(self, bsc002):
        # the noiseless bit separates every pair of super-channel inputs
        cap = bsc002.capacity_solution[0] + LN2 / 50
        for r in (0.0, 0.3, 0.6, cap):
            assert ex.burnashev_bound(bsc002, r, 50) == math.inf
            assert ex.bound_at_rate(bsc002, "burnashev", r, 50) == math.inf
        assert ex.bound_curve(bsc002, "burnashev", [0.3, 0.6], 50) == [math.inf] * 2
        with pytest.raises(ValueError, match=r"^average rate must lie in \[0, C\]$"):
            ex.burnashev_bound(bsc002, cap + 1e-9, 50)


class TestZeroCapacity:
    # equal rows: C = 0 and C1 = 0, and no rate lies below C
    USELESS = dmc.Dmc([[0.3, 0.7], [0.3, 0.7]])

    def test_burnashev_is_zero(self):
        assert self.USELESS.capacity_solution[0] == 0.0 and dmc.c1(self.USELESS) == 0.0
        for r in (0.0, 1e-13, 1e-12):
            assert math.copysign(1.0, ex.burnashev_bound(self.USELESS, r)) == 1.0
            assert ex.burnashev_bound(self.USELESS, r) == 0.0

    @pytest.mark.parametrize("slope", [ex.capacity_slope_focusing, ex.capacity_slope_timesharing])
    def test_capacity_slopes_raise(self, slope):
        with pytest.raises(ValueError, match=r"^the capacity of Dmc\(2x2\) is 0"):
            slope(self.USELESS)

    @pytest.mark.parametrize("bound", ["esp", "haroutunian", "tilde"])
    def test_sphere_packing_at_zero_rate_is_positive_zero(self, bound):
        # the R = 0 closed form was -ln 1 = -0.0
        value = ex.bound_at_rate(self.USELESS, bound, 0.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestFocusingBound:
    def test_bec_half_bit(self, bec04):
        assert ex.focusing_bound(bec04, HALF_BIT) == pytest.approx(
            math.log(1.5), abs=1e-6)

    def test_above_capacity_zero(self, bec04):
        assert ex.focusing_bound(bec04, 0.5) == 0.0

    def test_dominates_sphere_packing(self, bsc002):
        c = dmc.capacity(bsc002)[0]
        for r in np.linspace(0.02, 0.98 * c, 50):
            assert ex.focusing_bound(bsc002, float(r)) >= ex.sphere_packing(
                bsc002, float(r)) - 1e-9

    def test_low_rate_inversion_raises_rather_than_saturate(self, bsc002):
        # E_a rises to the Bhattacharyya value 1.27296568 as R falls to 0;
        # below about R = 1.27e-8 the root E_a / R lies beyond eta = 1e8, where
        # the bracket's end once came back as the root (0.26844 at 1e-9)
        values = [ex.focusing_bound(bsc002, r) for r in (1e-6, 1e-7, 1.3e-8)]
        assert values == sorted(values)
        assert values[-1] <= 1.27296568
        with pytest.raises(dmc.ConvergenceError):
            ex.focusing_bound(bsc002, 1e-9)

    @pytest.mark.parametrize("r", (1.2e-8, 1e-8, 8.5e-9, 6e-9))
    def test_root_found_beyond_eta_1e8_raises(self, r):
        # the bracket grows from 6.7e7 to 2.68e8 before its cap test, so
        # these roots (1.06e8 to 2.12e8) are found inside it; their values
        # are not monotone in R, so they raise with the residual at 1e8
        with pytest.raises(dmc.ConvergenceError,
                           match=r"^focusing rate root beyond eta = 1e8 ") as err:
            ex.focusing_bound(dmc.bsc(0.02), r)
        assert err.value.residual > 0.0

    def test_general_lambda_path_agrees_with_parametric(self, bsc002):
        cap = bsc002.capacity_solution[0]
        for frac in (0.1, 0.3, 0.6, 0.9, 0.999):
            general = ex._focusing_general(bsc002, frac * cap)
            parametric = ex.focusing_bound(bsc002, frac * cap)
            assert general == pytest.approx(parametric, rel=1e-10)
        # a lambda grid capped at 1 - 1e-3 returned 3.02 times the value here
        general = ex._focusing_general(bsc002, 0.9999 * cap)
        assert general == pytest.approx(ex.focusing_bound(bsc002, 0.9999 * cap), rel=1e-7)

    # the values of the 200-point lambda grid with golden refinement
    Z05_GRID = {0.05: 0.6868438992849679, 0.1: 0.5926785876851622,
                0.15: 0.3938517560031345, 0.2: 0.1323480757049226}
    # the values of ``golden_focusing``, pinned: it takes about 3 s per rate
    ASYM3_GOLDEN = {0.05: 0.2008030840241934, 0.1: 0.14560764366537618,
                    0.15: 0.08858533972473136}

    def test_general_path_programs_per_rate(self, z05):
        # one program over (lambda, output law) per rate and no Haroutunian
        # program; the golden lambda search ran 48-50, the grid 222
        solved, eplus_calls = [], []
        program, eplus = optimize.minimize_convex_on_simplex, ex.haroutunian

        def recorded(*args, **kwargs):
            solved.append(program(*args, **kwargs))
            return solved[-1]

        def counted(*args):
            eplus_calls.append(args)
            return eplus(*args)

        with mock.patch.object(ex, "minimize_convex_on_simplex", recorded), \
                mock.patch.object(ex, "haroutunian", counted):
            for r, want in self.Z05_GRID.items():
                solved.clear()
                assert ex.focusing_bound(z05, r) == pytest.approx(want, rel=1e-11)
                assert [len(sol.q) for sol in solved] == [z05.output_size + 1]
                assert solved[0].gap <= optimize.CONVEX_TOL
        assert eplus_calls == []

    def test_general_path_matches_the_golden_lambda_search(self, z05):
        for r in self.Z05_GRID:
            assert ex.focusing_bound(z05, r) == pytest.approx(golden_focusing(z05, r),
                                                              rel=1e-11)
        for r, want in self.ASYM3_GOLDEN.items():
            assert ex.focusing_bound(TestHaroutunian.ASYM3, r) == pytest.approx(want, rel=1e-11)

    def test_general_path_just_above_a_positive_divergence_rate(self):
        # R_inf = ln 1.5; at 1.0005 R_inf the minimizer sits about 6e-7
        # above R_inf / R, where a grid capped at 1 - 1e-3 saw only +inf
        ch = dmc.Dmc([[0.8, 0.2, 0.0], [0.0, 0.7, 0.3], [0.4, 0.0, 0.6]])
        for factor in (1.0005, 1.01):
            r = factor * math.log(1.5)
            value = ex.focusing_bound(ch, r)
            assert math.isfinite(value)
            assert value >= ex.haroutunian(ch, r)
        assert ex.focusing_bound(ch, math.log(1.5)) == math.inf


class TestFocusingParametric:
    def test_bec_rate_half_point(self, bec04):
        # oracle: solve 0.4 u^2 - u + 0.6 = 0 with u = 2^(eta/2) -> u = 1.5
        eta = 2 * math.log2(1.5)
        pts = ex.focusing_parametric_curve(bec04, [eta])
        pt = pts[0]
        assert pt.rate == pytest.approx(HALF_BIT, abs=1e-9)
        assert pt.exponent == pytest.approx(math.log(1.5), abs=1e-9)
        # lambda* oracle: (1 - beta 2^eta / (1 + beta(2^eta - 1))) / R'
        assert pt.lambda_star == pytest.approx(0.8, abs=1e-3)

    def test_bec_ultimate_limit(self, bec04):
        pts = ex.focusing_parametric_curve(bec04, [45.0])
        assert pts[0].exponent == pytest.approx(-math.log(0.4), abs=1e-3)

    def test_small_eta_approaches_capacity(self, bec04):
        pts = ex.focusing_parametric_curve(bec04, [1e-4])
        assert pts[0].rate == pytest.approx(0.6 * LN2, abs=1e-4)
        assert pts[0].exponent == pytest.approx(0.0, abs=1e-4)

    def test_parametric_identity_exact(self, bsc002):
        pts = ex.focusing_parametric_curve(bsc002, np.geomspace(0.05, 20, 25))
        for pt in pts:
            assert abs(pt.eta * pt.rate - pt.exponent) <= 1e-12 * max(1.0, pt.exponent)
            assert 0 <= pt.lambda_star < 1

    def test_asymmetric_channel_rejected(self, z05):
        with pytest.raises(ValueError):
            ex.focusing_parametric_curve(z05, [1.0])

    def test_capacity_slope_sign(self, bsc002):
        assert ex.capacity_slope_focusing(bsc002) < 0

    @pytest.mark.parametrize("ch", [dmc.identity_channel(2), dmc.bsc(0.0),
                                    dmc.identity_channel(3)], ids=repr)
    def test_capacity_slopes_without_dispersion(self, ch):
        # E0(rho) = rho C is linear, so E_a is +inf below C and 0 from C on;
        # the stencil's roundoff of 2.2e-10 once gave +6.2e9 (+9.7e9 on
        # three letters), and the time-sharing slope -1.0000000001601714
        assert ex.e0_second_derivative_at_zero(ch) == 0.0
        assert ex.capacity_slope_focusing(ch) == -math.inf
        assert ex.capacity_slope_timesharing(ch) == \
            -ex.e0_max(ch, 1.0)[0] / ch.capacity_solution[0]

    @pytest.mark.parametrize("ch, dispersion", [
        (dmc.bsc(1e-15), 1e-15 * (1 - 1e-15) * math.log((1 - 1e-15) / 1e-15) ** 2),
        (dmc.bec(1e-13), 1e-13 * (1 - 1e-13) * LN2**2),
        (dmc.bsc(1e-12), 1e-12 * (1 - 1e-12) * math.log((1 - 1e-12) / 1e-12) ** 2),
    ], ids=repr)
    def test_capacity_slope_of_nearly_noiseless_channels(self, ch, dispersion):
        # E0''(0) = -V, the dispersion (closed forms above).  The stencil
        # reads its own roundoff here: +2.2e-10 on the first two, which
        # gave slopes of +6.2e9, and -3.7e-10 against -7.6e-10 on BSC(1e-12)
        slope = ex.capacity_slope_focusing(ch)
        assert slope == -math.inf or (
            slope < 0 and slope == pytest.approx(2 * ch.capacity_solution[0] / -dispersion,
                                                 rel=1e-2))


class TestTimesharing:
    def test_inversion_value_pinned(self, bsc002):
        # E0(1) is solved once per inversion.  The 200-step bisection gave
        # 0.17980898214036065, one float lower: over about 10 ulps of rho the
        # sign of E'(rho)/rho - 0.3 is roundoff, and the two solvers end on
        # different floats of that band
        assert ex.bound_at_rate(bsc002, "timesharing", 0.3) == 0.17980898214036067
        point = ex._timesharing_point(ex.e0_max(bsc002, 0.7)[0],
                                      ex.e0_max(bsc002, 1.0)[0], 0.7)
        assert point == ex.timesharing_exponent(bsc002, 0.7)

    def test_low_rate_inversion_reaches_the_rate(self, bsc002):
        # the rate at rho = 64 is 0.0051, so the root lies beyond it
        [(rho, _, _)] = ex._run_lanes(bsc002, None, [ex._two_stream_steps(1e-4)])
        rate, e = ex.timesharing_exponent(bsc002, rho)
        assert rate == pytest.approx(1e-4, rel=1e-9)
        assert ex.bound_at_rate(bsc002, "timesharing", 1e-4) == pytest.approx(e, rel=1e-12)
        with pytest.raises(ValueError):
            ex.bound_at_rate(bsc002, "timesharing", 0.0)

    @pytest.mark.parametrize("channel", ["bsc002", "z05"])
    def test_curve_equals_timesharing_exponent(self, request, channel):
        ch = request.getfixturevalue(channel)
        rhos = [0.5, 3.0, 1e-3, 1.0, 0.05, 40.0, 1e3]
        want = sorted(ex.timesharing_exponent(fresh(ch), rho) for rho in rhos)
        assert [hex_floats(point) for point in ex.timesharing_curve(fresh(ch), rhos)] == \
            [hex_floats(point) for point in want]

    @pytest.mark.parametrize("channel, residual", [("bsc002", "0x1.c626e2c543a7fp-29"),
                                                   ("bec04", "0x1.60db748d243abp-29")])
    def test_root_beyond_rho_1e8_raises(self, request, channel, residual):
        # E0 loses about rho eps far beyond 1e8 on an output-symmetric
        # channel; at R = 1e-18 the search once returned 1.2531 on BSC(0.02),
        # above E0(1) = 0.4463, and divided by zero on BEC(0.4)
        ch = request.getfixturevalue(channel)
        for solve in (lambda: ex.bound_at_rate(ch, "timesharing", 1e-18),
                      lambda: ex.bound_curve(ch, "timesharing", [0.1, 1e-18])):
            with pytest.raises(dmc.ConvergenceError,
                               match=r"^two-stream rate root beyond rho = 1e8 ") as err:
                solve()
            assert err.value.residual == float.fromhex(residual)

    def test_rho_one_halves_e0(self, bsc002):
        rate, e = ex.timesharing_exponent(bsc002, 1.0)
        assert e == pytest.approx(0.4462871026 / 2, abs=1e-9)
        assert rate == pytest.approx(e, abs=1e-12)

    def test_small_rho_endpoint(self, bsc002):
        c = dmc.capacity(bsc002)[0]
        rate, e = ex.timesharing_exponent(bsc002, 1e-4)
        assert rate == pytest.approx(c, abs=1e-3)
        assert e == pytest.approx(0.0, abs=1e-3)

    def test_between_esp_and_focusing_at_mid_rates(self, bsc002):
        for rho in (0.35, 0.5, 0.8):
            rate, e = ex.timesharing_exponent(bsc002, rho)
            assert e <= ex.focusing_bound(bsc002, rate) + 1e-9
            assert e > ex.sphere_packing(bsc002, rate) - 1e-9

    def test_slope_formula_matches_finite_differences(self, bsc002):
        slope = ex.capacity_slope_timesharing(bsc002)
        r1, e1 = ex.timesharing_exponent(bsc002, 0.004)
        r2, e2 = ex.timesharing_exponent(bsc002, 0.008)
        fd = (e2 - e1) / (r2 - r1)
        assert fd == pytest.approx(slope, rel=0.01)


class TestBecClosedForms:
    def test_anytime_capacity_point(self):
        assert ex.bec_anytime_capacity(0.25, 1.0) == pytest.approx(
            1 / (1 + math.log2(1.5)), abs=1e-9)

    def test_small_alpha_approaches_channel_capacity(self):
        assert ex.bec_anytime_capacity(0.4, 1e-6) == pytest.approx(0.6, abs=1e-3)

    def test_round_trip_parametric_through_capacity_formula(self):
        # eta up to 20 spans rates 0.066..0.596 bits; far beyond that the
        # point sits within ~1e-9 of the reliability limit, where any
        # inversion is ill-conditioned
        for eta in np.geomspace(0.05, 20, 50):
            rate, e_bits = ex.bec_focusing_point_bits(0.4, float(eta))
            assert ex.bec_anytime_capacity(0.4, e_bits) == pytest.approx(rate, abs=1e-9)

    def test_unachievable_reliability_rejected(self):
        with pytest.raises(ValueError):
            ex.bec_anytime_capacity(0.4, -math.log2(0.4) + 0.01)

    def test_low_rate_inversion_reaches_its_supremum(self):
        # the exponent rises to log2(1/beta) = 1.3219281 as the rate falls,
        # and the root lies below log2(1/beta) / R.  Below about 1.2e-9 bits
        # it lies beyond eta = 1e9, where the bracket's end once came back
        # as the root (1.0737418 at 1e-9 and 0.10737418 at 1e-10) and then
        # a fixed cap raised; the bracket now grows until it holds the root
        for rate in (1e-9, 1e-10, 1e-20, 1e-300):
            assert ex.bec_focusing_exponent_bits(0.4, rate) == -math.log2(0.4)
        assert ex.bec_focusing_exponent_bits(0.4, 1e-6) == pytest.approx(
            bisect_bec_focusing_bits(0.4, 1e-6), rel=1e-12)

    @pytest.mark.parametrize("beta", [1e-100, 1e-6, 0.05, 0.4, 0.9])
    def test_focusing_point_matches_mpmath(self, beta):
        # the log-domain branch once lost about ulp(eta): 1.6e-3 relative at
        # beta = 0.9, eta = 1e9
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        for eta in np.geomspace(1e-12, 1e9, 64):
            b, e = mp.mpf(beta), mp.mpf(float(eta))
            want_e = e - mp.log(1 + b * (mp.power(2, e) - 1), 2)
            rate, e_bits = ex.bec_focusing_point_bits(beta, float(eta))
            assert e_bits == pytest.approx(float(want_e), rel=1e-13)
            assert rate == pytest.approx(float(want_e / e), rel=1e-13)

    def test_exponent_at_its_ends(self):
        # +inf at rates of at most 0, and 0 from capacity 1 - beta on
        assert ex.bec_focusing_exponent_bits(0.4, 0.0) == math.inf
        assert ex.bec_focusing_exponent_bits(0.4, 0.6) == 0.0

    def test_low_rate_exponent_below_its_supremum(self):
        # log2(1/beta) bounds the exponent; it was once 3.9e-9 above at 1e-8
        assert ex.bec_focusing_exponent_bits(0.4, 1e-8) <= math.log2(2.5)

    def test_lowrate_floor_values(self):
        e, rlim = ex.bec_lowrate_floor(1.0 / 16, 1.0)
        assert e == pytest.approx(4 - 2.0 / 16, abs=1e-12)
        assert rlim == pytest.approx(1.0 / 3, abs=1e-12)
        e0, rlim0 = ex.bec_lowrate_floor(1.0 / 16, 0.0)
        assert e0 == pytest.approx(4 - 2, abs=1e-12)
        assert rlim0 == 1.0

    def test_lowrate_floor_precondition(self):
        with pytest.raises(ValueError):
            ex.bec_lowrate_floor(0.3, 0.0)  # beta > 1/16 and r below threshold

    def test_floor_dominated_by_capacity_formula(self):
        beta, r = 1.0 / 32, 1.0
        e, rlim = ex.bec_lowrate_floor(beta, r)
        assert ex.bec_anytime_capacity(beta, e) >= rlim - 1e-12


class TestCurves:
    def test_dominance_chain(self, bsc002):
        c = dmc.capacity(bsc002)[0]
        for r in np.linspace(0.05, 0.95 * c, 12):
            er = ex.random_coding_list(bsc002, float(r), 1)
            esp = ex.sphere_packing(bsc002, float(r))
            har = ex.haroutunian(bsc002, float(r))
            assert er <= esp + 1e-9
            assert esp <= har + 1e-3

    def test_fortified_shifts(self, bsc002):
        # sphere packing of the 1/k-fortified system is the plain bound
        # shifted in rate by ln2/k, and its zero-error capacity is ln2/k
        k = 50
        shift = LN2 / k
        assert ex.zero_error_feedback_capacity(bsc002, fortify_k=k) == pytest.approx(
            shift, abs=1e-12)
        for r in (0.1, 0.3, 0.5):
            assert ex.sphere_packing(bsc002, r, fortify_k=k) == pytest.approx(
                ex.sphere_packing(bsc002, r - shift), abs=1e-6)
        assert ex.sphere_packing(bsc002, shift / 2, fortify_k=k) == math.inf


def hex_floats(values):
    """Floats as hex strings: equal lists are equal bit for bit."""
    return [float(v).hex() for v in values]


@pytest.fixture(params=["bsc002", "bsc0003", "bec04", "bsc002_fortified"])
def lockstep_case(request, bsc002, bec04):
    """(channel, fortification) of the lockstep kernel and curve tests; the
    channel is the rows only, for ``fresh`` channels with empty stores."""
    return {"bsc002": (bsc002, None), "bsc0003": (dmc.bsc(0.003), None),
            "bec04": (bec04, None), "bsc002_fortified": (bsc002, 50)}[request.param]


class TestLockstepKernel:
    """The points ``_e0_lanes`` stores equal ``_e0_point``'s bit for bit,
    E0 and slope, whatever lanes share its call; it leaves rho = 0 and
    rho = 1 (where a scalar exponent is a sqrt or a square) to
    ``_e0_point``.  Each comparison runs on two fresh channels, so that
    neither side reads the other's points."""

    RHOS = [*np.random.default_rng(17).uniform(np.log(1e-9), np.log(1e8), 2000),
            0.0, 1.0, 3.0, ex.RHO_MAX]

    def rhos(self):
        # seeded random rho in [1e-9, 1e8], log-uniform, then the fast-path rho
        return [float(np.exp(v)) for v in self.RHOS[:-4]] + self.RHOS[-4:]

    def test_mixed_lanes_match_scalar(self, lockstep_case):
        ch, k = lockstep_case
        rhos = self.rhos()
        # rho = 0, 1, 3 and RHO_MAX sit among the random rho of one call
        mixed = rhos[:700] + rhos[-4:] + rhos[700:-4]
        lanes, alone = fresh(ch), fresh(ch)
        ex._e0_lanes(lanes, mixed)
        assert set(mixed) - set(lanes.e0_points) == {0.0, 1.0}
        got = [ex._e0_point(lanes, rho, k) for rho in mixed]
        want = [ex._e0_point(alone, rho, k) for rho in mixed]
        assert [hex_floats(p) for p in got] == [hex_floats(p) for p in want]

    def test_one_lane_calls_match_scalar(self, lockstep_case):
        ch, k = lockstep_case
        for rho in self.rhos()[::50] + self.rhos()[-4:]:
            lanes, alone = fresh(ch), fresh(ch)
            ex._e0_lanes(lanes, [rho])
            assert (rho in lanes.e0_points) == (rho not in (0.0, 1.0))
            assert hex_floats(ex._e0_point(lanes, rho, k)) == \
                hex_floats(ex._e0_point(alone, rho, k))

    def test_negative_rho_rejected(self, bsc002):
        with pytest.raises(ValueError):
            ex._e0_lanes(bsc002, [0.5, -1.0])

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["bsc", "bec", "circulant", "erasure_circulant"]),
           n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           log_rhos=st.lists(st.floats(math.log(1e-6), math.log(1e6)), min_size=1,
                             max_size=40))
    def test_output_symmetric_families_match_scalar(self, kind, n, seed, log_rhos):
        # the order of the input sum matters from three inputs on, so the
        # circulants run n = 3 to 8 inputs, the last with an erasure column
        rng = np.random.default_rng(seed)
        if kind == "bsc":
            ch = dmc.bsc(rng.uniform(0.0, 1.0))
        elif kind == "bec":
            ch = dmc.bec(rng.uniform(0.0, 1.0))
        else:
            row = rng.dirichlet(np.ones(n))
            rows = np.array([np.roll(row, x) for x in range(n)])
            if kind == "erasure_circulant":
                erasure = rng.uniform(0.0, 1.0)
                rows = np.column_stack([(1.0 - erasure) * rows, np.full(n, erasure)])
            ch = dmc.Dmc(rows)
        assert ch.symmetric
        rhos = [math.exp(v) for v in log_rhos] + [0.5, 1.0, 2.0, 3.0, 64.0]
        lanes, alone = fresh(ch), fresh(ch)
        ex._e0_lanes(lanes, rhos)
        # the kernel leaves to ``_e0_point`` only the rho whose scalar
        # exponent is a square or a sqrt
        assert all(1.0 + rho == 2.0 or 1.0 / (1.0 + rho) == 0.5
                   for rho in set(rhos) - set(lanes.e0_points))
        assert [hex_floats(ex._e0_point(lanes, rho)) for rho in rhos] == \
            [hex_floats(ex._e0_point(alone, rho)) for rho in rhos]

    def test_lone_rho_of_a_round_matches_a_lanes_call(self, lockstep_case, monkeypatch):
        # a round whose new rho is one rho, here asked by two lanes, solves
        # it once by ``_e0_point``; several distinct rho go to one lanes call
        ch, k = lockstep_case
        rhos = self.rhos()[::50] + self.rhos()[-4:]
        calls, lanes = [], ex._e0_lanes
        monkeypatch.setattr(ex, "_e0_lanes", lambda *args: calls.append(args) or lanes(*args))
        together = ex._run_lanes(fresh(ch), k, list(map(ex._at, rhos)))
        assert len(calls) == 1 and sorted(calls[0][1]) == sorted(set(rhos))
        calls.clear()
        alone = [ex._run_lanes(fresh(ch), k, [ex._at(rho), ex._at(rho)]) for rho in rhos]
        assert calls == []
        assert [[hex_floats(p), hex_floats(q)] for p, q in alone] == \
            [[hex_floats(p)] * 2 for p in together]


class TestNonFiniteRates:
    # each once returned a number (0.0, ln 2, 6e-10 or nan) or raised
    # ConvergenceError
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ex.KNOWN_BOUNDS + ("er4",))
    @pytest.mark.parametrize("channel", ["bsc002", "z05"])
    def test_every_bound_raises_naming_the_rate(self, request, channel, name, rate):
        ch = request.getfixturevalue(channel)
        with pytest.raises(ValueError, match=f"^rate must be finite, got {rate}$"):
            ex.bound_at_rate(ch, name, rate)
        with pytest.raises(ValueError, match=f"^at rate {rate}: rate must be finite"):
            ex.bound_curve(ch, name, [0.1, rate])


class TestBoundCurve:
    """``bound_curve`` runs the rho and eta searches of a whole curve in
    lockstep, and returns what ``bound_at_rate`` returns rate by rate."""

    NAMES = ("esp", "er", "er4", "haroutunian", "focusing", "viterbi", "timesharing")

    def rates(self, ch, k, name):
        cap = ch.capacity_solution[0] + (LN2 / k if k else 0.0)
        # 1e-4 forces the fourfold bracket expansions on BSC(0.003)
        rates = [1e-4, 3e-3, 0.05, 0.25 * cap, 0.5 * cap, 0.9 * cap, 0.999 * cap,
                 cap, cap + 0.1]
        # R = 0 raises for focusing and timesharing (tested below)
        return rates if name in ("focusing", "viterbi", "timesharing") else [0.0, *rates]

    @pytest.mark.parametrize("name", NAMES)
    def test_equals_bound_at_rate(self, lockstep_case, name):
        # one channel answers the rates one by one, another the curve
        ch, k = lockstep_case
        rates = self.rates(ch, k, name)
        alone = fresh(ch)
        want = [ex.bound_at_rate(alone, name, r, k) for r in rates]
        assert hex_floats(ex.bound_curve(fresh(ch), name, rates, k)) == hex_floats(want)

    def test_rate_order_does_not_matter(self, bsc002):
        rates = self.rates(bsc002, None, "esp")
        shuffled = rates[::-1]
        assert hex_floats(ex.bound_curve(fresh(bsc002), "esp", shuffled)) == hex_floats(
            ex.bound_curve(fresh(bsc002), "esp", rates)[::-1])

    def test_asymmetric_curves_run_in_lockstep(self, z05, bsc002, lane_rounds, e0_calls):
        # each E0 of Z(0.5) is its own certified program; the searches along
        # rho still run as lanes, all of them from the first round: that
        # round solves the rho every lane starts from once, and the curve
        # takes as many rounds as its longest lane alone (each run on a
        # fresh channel)
        rates = [0.05, 0.1, 0.2]
        for name in ("esp", "er", "timesharing"):
            want, alone = [], []
            for r in rates:
                want.append(ex.bound_at_rate(fresh(z05), name, r))
                lane_rounds.clear()
                ex.bound_curve(fresh(z05), name, [r])
                alone.append(len(lane_rounds))
            lane_rounds.clear()
            e0_calls.clear()
            assert hex_floats(ex.bound_curve(fresh(z05), name, rates)) == hex_floats(want)
            assert lane_rounds[0] == [0.0 if name == "er" else 1.0]
            assert len(lane_rounds) == max(alone)
            # no rho of the curve reaches the kernel twice
            assert len(e0_calls) == len(set(e0_calls))
        # bounds with no search along rho are lanes that end at once
        for ch, name in ((z05, "haroutunian"), (bsc002, "burnashev")):
            want = [ex.bound_at_rate(ch, name, r) for r in rates]
            lane_rounds.clear()
            assert hex_floats(ex.bound_curve(ch, name, rates)) == hex_floats(want)
            assert lane_rounds == []

    def test_asymmetric_e0_error_goes_to_the_lane_that_asked(self):
        # at R = 0 the esp search on this three-input channel climbs to a
        # rho where the E0 program cannot certify its value
        ch = dmc.Dmc([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(dmc.ConvergenceError) as alone:
            ex.bound_at_rate(ch, "esp", 0.0)
        assert str(alone.value) == "E0 solver iteration cap exceeded (residual 6.927e-01)"
        assert alone.value.residual == 0.6926891383682151
        rates = [0.1, 0.0, 0.05, 0.0]
        with pytest.raises(dmc.ConvergenceError) as curve:
            ex.bound_curve(ch, "esp", rates)
        assert str(curve.value) == str(alone.value)
        assert curve.value.residual == alone.value.residual

    def test_injected_e0_error_ends_the_curve(self, z05, monkeypatch):
        # only the R = 0 lanes ask for rho = 0.9 * 64; the curve raises what
        # the first rate to fail, in order, raises alone
        e0_point = ex._e0_point

        def failing(p, rho, fortify_k=None):
            if rho == 0.9 * ex.RHO_MAX:
                raise dmc.ConvergenceError("injected", 1.0)
            return e0_point(p, rho, fortify_k)

        monkeypatch.setattr(ex, "_e0_point", failing)
        with pytest.raises(dmc.ConvergenceError, match=r"^injected \(residual 1\.000e\+00\)$"):
            ex.bound_curve(fresh(z05), "esp", [0.1, 0.0, 0.05, 0.0])

    def test_first_rate_in_order_fails_even_when_it_fails_later(self):
        # the R = 0 lane fails at once, the R = 1e-10 lane only once its
        # bracket has grown past eta = 1e8; the curve fails as a loop over
        # the rates would, with the first
        with pytest.raises(dmc.ConvergenceError) as err:
            ex.bound_curve(dmc.bsc(0.003), "focusing", [1e-10, 0.0])
        assert str(err.value) == "focusing rate root beyond eta = 1e8 (residual 8.144e-09)"
        assert err.value.residual == 8.14379386477035e-09

    def test_symmetric_haroutunian_runs_the_esp_lanes(self, bsc002, lane_rounds):
        # E+ is sphere packing on an output-symmetric channel, so its curve
        # solves the esp curve's rho, round by round, and equals the scalar
        # program rate by rate (each side on a fresh channel)
        rates = TestLockstepWorkCounters().grid(bsc002)
        got = ex.bound_curve(fresh(bsc002), "haroutunian", rates)
        rounds = list(lane_rounds)
        lane_rounds.clear()
        ex.bound_curve(fresh(bsc002), "esp", rates)
        assert rounds == lane_rounds
        alone = fresh(bsc002)
        assert hex_floats(got) == hex_floats([ex.haroutunian(alone, r) for r in rates])
        alone = fresh(bsc002)
        assert hex_floats(got) == hex_floats(
            [ex.bound_at_rate(alone, "haroutunian", r) for r in rates])

    def test_lane_error_propagates_with_its_residual(self):
        bsc0003 = dmc.bsc(0.003)
        with pytest.raises(dmc.ConvergenceError, match="beyond eta = 1e8") as alone:
            ex.bound_at_rate(bsc0003, "focusing", 1e-10)
        # the failing lane runs among lanes that finish before and after it
        with pytest.raises(dmc.ConvergenceError) as curve:
            ex.bound_curve(bsc0003, "focusing", [0.3, 1e-4, 1e-10, 0.05])
        assert str(curve.value) == str(alone.value)
        assert curve.value.residual == alone.value.residual

    def test_lane_error_no_rate_reproduces_is_raised(self, bsc002, monkeypatch):
        # when every rate succeeds alone, the curve raises the lanes' error
        run_lanes = ex._run_lanes

        def lockstep_fails(p, fortify_k, lanes):
            if len(lanes) > 1:
                raise dmc.ConvergenceError("lockstep only", 1.0)
            return run_lanes(p, fortify_k, lanes)

        monkeypatch.setattr(ex, "_run_lanes", lockstep_fails)
        with pytest.raises(dmc.ConvergenceError, match=r"^lockstep only \(residual"):
            ex.bound_curve(fresh(bsc002), "esp", [0.1, 0.2])

    def test_first_failing_rate_raises(self, bsc002):
        # the rate-0 focusing lane fails at once; a loop over the rates
        # would stop at the first of them
        with pytest.raises(ValueError, match=r"^at rate 0\.0: rate must be positive$"):
            ex.bound_curve(bsc002, "focusing", [0.1, 0.0, 0.2, 0.0])
        for name in ("er0", "nope"):  # er<L> takes L >= 1 only
            with pytest.raises(KeyError):
                ex.bound_curve(bsc002, name, [0.1, 0.2])
        assert ex.bound_curve(bsc002, "esp", []) == []


@st.composite
def curve_channels(draw):
    """A 2x2 to 3x3 channel with capacity above 1e-3: a BSC, a BEC, a
    circulant 3x3 (output-symmetric), or random rows with every entry at
    least 0.01."""
    kind = draw(st.sampled_from(["random", "bsc", "bec", "circulant"]))
    if kind == "bsc":
        ch = dmc.bsc(draw(st.floats(0.001, 0.45)))
    elif kind == "bec":
        ch = dmc.bec(draw(st.floats(0.02, 0.95)))
    else:
        ny = 3 if kind == "circulant" else draw(st.integers(2, 3))
        nx = 3 if kind == "circulant" else draw(st.integers(2, 3))
        rows = []
        for x in range(nx):
            if kind == "random" or x == 0:
                w = draw(st.lists(st.floats(0.01, 1.0), min_size=ny, max_size=ny))
                rows.append([v / sum(w) for v in w])
            else:
                rows.append(rows[0][-x:] + rows[0][:-x])
        ch = dmc.Dmc(rows)
    assume(ch.capacity_solution[0] > 1e-3)
    return ch


class TestBoundCurveProperties:
    """Every curve is nonincreasing in R and 0 at the computed capacity C,
    within roundoff: 1e-13 relative and 1e-14 absolute.  The roundoff seen:
    focusing on BEC(0.05 .. 0.1) rises by up to 7.5e-15 between the two
    lowest rates, and esp, er and er4 return up to 1.6e-16 at C, which is
    certified from below.  Focusing runs where the channel is
    output-symmetric, on its parametric path, and so do haroutunian and
    tilde, which are esp lanes there; on channels without output symmetry
    they are programs, checked with sparse rows and rates at capacity."""

    @settings(max_examples=30)
    @given(ch=curve_channels())
    def test_nonincreasing_and_zero_at_capacity(self, ch):
        cap = ch.capacity_solution[0]
        rates = [cap * f for f in np.linspace(0.02, 1.0, 9).tolist()]
        names = ["esp", "er", "er4", "timesharing"]
        if ch.symmetric:
            names += ["focusing", "haroutunian", "tilde"]
        for name in names:
            curve = ex.bound_curve(ch, name, rates)
            for a, b in zip(curve, curve[1:]):
                assert b <= a + 1e-13 * abs(a) + 1e-14, (name, curve)
            assert 0.0 <= curve[-1] <= 1e-14, (name, curve[-1])


    @settings(max_examples=8)
    @given(case=sparse_channel_rates())
    def test_haroutunian_curves_without_output_symmetry(self, case):
        # ROADMAP item 6's property where E+ is a program: nonincreasing
        # within 1e-13, within the programs' 1e-13 of 0 at C (1 - 1e-10) and
        # at C, where E+ comes back as roundoff, and 0 above C
        ch, (r1, r2, r3), _ = case
        cap = ch.capacity_solution[0]
        rates = [r1, r2, r3, cap * (1.0 - 1e-10), cap, 1.05 * cap]
        for name in ("haroutunian", "tilde"):
            curve = ex.bound_curve(ch, name, rates)
            for a, b in zip(curve, curve[1:]):
                assert b <= a + 1e-13, (name, curve)
            assert all(0.0 <= v <= optimize.CONVEX_TOL for v in curve[3:5]), (name, curve)
            assert curve[-1] == 0.0, (name, curve)


class TestSolvedAs:
    """A bound read two ways is solved once, as the bound ``solved_as``
    names; the fortified Haroutunian exponents no program gives raise."""

    def test_identities(self, bsc002, z05):
        assert ex.solved_as(bsc002, "viterbi") == ex.solved_as(z05, "viterbi") == "focusing"
        for name in ("haroutunian", "tilde"):
            assert ex.solved_as(bsc002, name) == ex.solved_as(bsc002, name, 50) == "esp"
            assert ex.solved_as(z05, name) == name
        for name in ("esp", "er", "er4", "burnashev", "focusing", "timesharing", "nope"):
            assert ex.solved_as(bsc002, name) == ex.solved_as(z05, name) == name

    def test_fortified_haroutunian_is_fortified_sphere_packing(self, bsc002):
        # the 1/50-fortified BSC(0.02) is output-symmetric: tilde = E+ = E_sp,
        # from inf below R_inf = ln2/50 to 0 beyond capacity (fortified
        # tilde raised until the identity was used)
        rates = [0.0, 0.005, 0.05, 0.3, 0.6, 0.8]
        want = [ex.sphere_packing(bsc002, r, 50) for r in rates]
        for name in ("haroutunian", "tilde"):
            assert hex_floats([ex.bound_at_rate(bsc002, name, r, 50)
                               for r in rates]) == hex_floats(want)
            assert hex_floats(ex.bound_curve(fresh(bsc002), name, rates, 50)) == \
                hex_floats(want)
        # above the unfortified value, which it used to return (both pins
        # re-recorded when sphere packing began its search at rho = 1, each
        # nearer its 50-digit mpmath value than before)
        assert ex.bound_at_rate(bsc002, "haroutunian", 0.3, 50) == 0.16244658751683283
        assert ex.bound_at_rate(bsc002, "haroutunian", 0.3) == 0.14694833177130412

    @pytest.mark.parametrize("k", [None, 50])
    @pytest.mark.parametrize("ch", [dmc.bsc(0.02), dmc.bec(0.4), TWO_BLOCKS,
                                    dmc.Dmc(CIRCULANT3)],
                             ids=["bsc0.02", "bec0.4", "two_blocks", "circulant"])
    def test_both_haroutunian_exponents_are_sphere_packing_on_symmetric_channels(self, ch, k):
        # no Haroutunian program runs: every value is the esp solve
        cap = ch.capacity_solution[0]
        rates = [ex.divergence_rate(ch, k) + f * cap for f in (0.05, 0.3, 0.6, 0.9, 1.2)]
        programs = [mock.patch.object(ex, name, side_effect=AssertionError(name)) for name in
                    ("_haroutunian_convex", "_tilde_dual_bound", "_haroutunian_tilde")]
        want = [ex.sphere_packing(fresh(ch), r, k) for r in rates]
        assert hex_floats(ex.bound_curve(fresh(ch), "esp", rates, k)) == hex_floats(want)
        with programs[0], programs[1], programs[2]:
            for name, variant in (("haroutunian", "standard"), ("tilde", "tilde")):
                alone = fresh(ch)
                assert hex_floats([ex.bound_at_rate(alone, name, r, k) for r in rates]) == \
                    hex_floats(want)
                assert hex_floats(ex.bound_curve(fresh(ch), name, rates, k)) == hex_floats(want)
                if k is None:
                    alone = fresh(ch)
                    assert hex_floats([ex.haroutunian(alone, r, variant) for r in rates]) == \
                        hex_floats(want)

    @pytest.mark.parametrize("name,channel", [("tilde", "z05"), ("haroutunian", "z05")])
    def test_fortified_exponents_without_a_program_raise(self, request, name, channel):
        ch = request.getfixturevalue(channel)
        with pytest.raises(ValueError, match="^under fortification: "):
            ex.bound_at_rate(ch, name, 0.1, 50)
        with pytest.raises(ValueError, match=r"^at rate 0\.1: under fortification: "):
            ex.bound_curve(ch, name, [0.1, 0.2], 50)
        with pytest.raises(ValueError, match="^under fortification: "):
            ex.solved_as(ch, name, 50)


@pytest.fixture
def lane_rounds(monkeypatch):
    """The rho that each round of a lane run solves, one list per round:
    those its ``_e0_lanes`` call stores, then those ``_e0_point`` solves as
    the run answers its waiting lanes; or [rho] for a rho that
    ``_e0_point`` solves outside a round (outside a run, or inside a lane,
    as the climb of a lane run alone does).  A round ends when the run
    sends its points, which each lane, wrapped, reports."""
    rounds, state = [], {"run": False, "lane": False, "sent": True}
    run, lanes_call, point = ex._run_lanes, ex._e0_lanes, ex._e0_point

    def solved(rhos):
        if not state["run"] or state["lane"]:
            rounds.extend([rho] for rho in rhos)
        elif rhos:
            if state["sent"]:
                rounds.append([])
                state["sent"] = False
            rounds[-1].extend(rhos)

    def watched(lane):
        received = None
        while True:
            state["lane"] = state["sent"] = True
            try:
                rho = lane.send(received)
            except StopIteration as stop:
                return stop.value
            finally:
                state["lane"] = False
            received = yield rho

    def counted_run(p, fortify_k, lanes):
        state["run"] = state["sent"] = True
        try:
            return run(p, fortify_k, list(map(watched, lanes)))
        finally:
            state["run"] = False

    def counted_lanes(p, rhos):
        before = set(p.e0_points)
        lanes_call(p, rhos)
        solved([rho for rho in rhos if rho not in before and rho in p.e0_points])

    def counted_point(p, rho, fortify_k=None):
        if rho not in p.e0_points:
            solved([rho])
        return point(p, rho, fortify_k)

    monkeypatch.setattr(ex, "_run_lanes", counted_run)
    monkeypatch.setattr(ex, "_e0_lanes", counted_lanes)
    monkeypatch.setattr(ex, "_e0_point", counted_point)
    return rounds


class TestLockstepWorkCounters:
    """A lockstep curve costs one E0 solve per round, and solves each rho
    once: the channel's store answers a rho any lane received before, the
    ends of a bracket and a maximizer that the esp and time-sharing
    searches come back to included.  One lane alone thus solves each
    distinct rho that the search at its rate evaluates alone, and no lane
    waits for another, so the rounds of a curve are its longest lane.  Each
    run below starts on a fresh channel.  The counts are deterministic;
    they may fall, and must not rise."""

    # rounds of an 84-rate curve from 1e-4 to 0.97 C on BSC(0.02); esp took
    # 44 while it searched [0, 64] first at every rate
    ROUNDS = {"esp": 38, "focusing": 21, "timesharing": 24}
    # the distinct rho such a curve solves; before the curve had one table,
    # each lane solved its own, 1,187, 914 and 1,005 in all
    SOLVED = {"esp": 672, "focusing": 748, "timesharing": 840}

    def grid(self, ch):
        return np.linspace(1e-4, 0.97 * ch.capacity_solution[0], 84).tolist()

    @pytest.mark.parametrize("name", sorted(ROUNDS))
    def test_kernel_calls_per_curve(self, bsc002, lane_rounds, name):
        ex.bound_curve(fresh(bsc002), name, self.grid(bsc002))
        assert len(lane_rounds) == self.ROUNDS[name]
        # every lane starts from one rho, solved once in the first round
        assert len(lane_rounds[0]) == 1
        solved = [rho for rhos in lane_rounds for rho in rhos]
        assert len(solved) == len(set(solved)) == self.SOLVED[name]

    @pytest.mark.parametrize("name", sorted(ROUNDS))
    def test_each_lane_counts_as_its_scalar_search(self, bsc002, lane_rounds, name):
        alone, lanes = [], []
        for r in self.grid(bsc002):
            ch = fresh(bsc002)
            ex.bound_at_rate(ch, name, r)
            alone.append(len(ch.e0_points))  # the distinct rho it solved
            lane_rounds.clear()
            ex.bound_curve(fresh(bsc002), name, [r])
            lanes.append(len(lane_rounds))
        assert lanes == alone
        lane_rounds.clear()
        ex.bound_curve(fresh(bsc002), name, self.grid(bsc002))
        # the lanes run side by side: the curve waits for its longest lane,
        # and solves no more rho than its lanes alone
        assert len(lane_rounds) == max(alone)
        assert sum(map(len, lane_rounds)) <= sum(alone)

    @pytest.mark.parametrize("name", ["er", "er4", "esp", "focusing", "timesharing"])
    def test_no_lane_evaluates_a_rho_twice(self, bsc002, lane_rounds, name):
        # esp once yielded the ends of a bracket again as the next bracket's
        # (64 and 57.6 twice each at R = 1e-4), and timesharing a final
        # midpoint that rounded to an end its root search had evaluated
        grid = self.grid(bsc002)
        lanes = []
        for r in grid:
            lane_rounds.clear()
            ex.bound_curve(fresh(bsc002), name, [r])
            lanes.append([rho for [rho] in lane_rounds])
        assert all(len(set(rhos)) == len(rhos) for rhos in lanes)
        if name.startswith("er"):
            # at the low rates the maximizer is the end rho = L, whose E0
            # the lane received from the slope search
            assert sum(rhos == [0.0, float(ex._list_size(name))] for rhos in lanes) == \
                {"er": 46, "er4": 11}[name]
        alone = fresh(bsc002)
        want = [ex.bound_at_rate(alone, name, r) for r in grid]
        lane_rounds.clear()
        assert hex_floats(ex.bound_curve(fresh(bsc002), name, grid)) == hex_floats(want)
        # nor does the curve: no rho of the run is solved twice, across lanes
        solved = [rho for rhos in lane_rounds for rho in rhos]
        assert len(solved) == len(set(solved))


def recorded(lane, asked):
    """``lane``, with every rho it yields appended to ``asked``."""
    received = None
    while True:
        try:
            rho = lane.send(received)
        except StopIteration as stop:
            return stop.value
        asked.append(rho)
        received = yield rho


class TestLoneLane:
    """A lane that ``_run_lanes`` runs alone goes through the runner's
    rounds, one rho each, and asks for the rho that ``run_steps`` over
    ``_e0_point`` would, in the same order, and returns the same value."""

    @pytest.mark.parametrize("name", ["esp", "er", "focusing", "timesharing"])
    @pytest.mark.parametrize("channel", ["bsc002", "z05"])
    def test_runner_drives_a_lone_lane_as_run_steps(self, request, channel, name):
        ch = request.getfixturevalue(channel)
        cap = ch.capacity_solution[0]
        for r in (1e-3 * cap, 0.1 * cap, 0.5 * cap, 0.9 * cap):
            ran, stepped = fresh(ch), fresh(ch)
            by_runner, by_steps = [], []
            [got] = ex._run_lanes(ran, None, [recorded(ex._bound_steps(ran, name, r, None),
                                                       by_runner)])
            want = optimize.run_steps(
                recorded(ex._bound_steps(stepped, name, r, None), by_steps),
                lambda rho: ex._e0_point(stepped, rho))
            # the general focusing program on Z(0.5) has no search along rho
            assert len(by_runner) > 2 or (name == "focusing" and not ch.symmetric)
            assert hex_floats(by_runner) == hex_floats(by_steps)
            assert hex_floats([got]) == hex_floats([want])
