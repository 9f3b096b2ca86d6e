import math

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaylab import dmc, exponents as ex, optimize
from delaylab.dmc import LN2
from oracles import blahut_arimoto, exhaustive_symmetry_partition


def binary_entropy(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def binary_divergence(a, b):
    return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))


class TestValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dmc.Dmc(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            dmc.Dmc(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                dmc.Dmc(np.array([[bad, 1.0], [0.5, 0.5]]))

    def test_subnormal_entries_rejected(self):
        # such an entry stalled the E0 solver: sphere packing at R = 0.208
        # raised "E0 solver iteration cap exceeded" with residual 4.3e-4
        with pytest.raises(ValueError, match=r"^transition probability P\(0\|2\) = "
                                             r"2\.2250738585e-313 is subnormal"):
            dmc.Dmc([[1, 0, 0], [0.1875, 0.6875, 0.125], [2.225073858507201e-313, 0, 1]])
        tiny = np.finfo(float).tiny  # the smallest normal entry is accepted
        assert dmc.Dmc([[1.0, 0.0], [tiny, 1.0 - tiny]]).rows[1, 0] == tiny

    def test_alphabets_at_least_two(self):
        with pytest.raises(ValueError):
            dmc.Dmc(np.array([[1.0], [1.0]]))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            dmc.validate_distribution([0.4, 0.4])
        with pytest.raises(ValueError):
            dmc.validate_distribution([0.5, 0.5], size=3)

    def test_digest_stable(self, bsc002):
        assert bsc002.digest() == dmc.bsc(0.02).digest()
        assert bsc002.digest() != dmc.bsc(0.03).digest()


FACTS = ("symmetric", "divergence_rate", "uniform", "capacity_solution", "support")
CIRCULANT = [[0.653, 0.347, 0.0], [0.0, 0.653, 0.347], [0.347, 0.0, 0.653]]
# C = 1.74e-6, and a channel whose optimal input leaves input 2 unused
NEARLY_USELESS = [[0.97709924, 0.02290076], [0.97765363, 0.02234637]]
UNUSED_INPUT = [[0.38685779, 0.57187018, 0.04127203],
                [0.29203981, 0.17266427, 0.53529592],
                [0.57545348, 0.12775108, 0.29679544]]


class TestChannelFacts:
    def test_facts_match_the_functions_they_cache(self, z05):
        for ch in (dmc.bsc(0.02), dmc.bec(0.4), z05):
            assert ch.symmetric is dmc.is_output_symmetric(ch)
            assert np.array_equal(ch.uniform, np.full(ch.input_size, 1.0 / ch.input_size))
            value, q = dmc.capacity(ch)
            assert ch.capacity_solution[0] == value
            assert np.array_equal(ch.capacity_solution[1], q)
            assert np.array_equal(ch.support, ch.rows > 0)
            assert ch.divergence_rate == 0.0  # one output every input reaches
        assert dmc.Dmc(CIRCULANT).divergence_rate == pytest.approx(math.log(1.5), abs=1e-12)

    def test_computed_once_and_read_only(self, monkeypatch):
        ch = dmc.bsc(0.02)
        calls = []
        search = dmc.is_output_symmetric
        monkeypatch.setattr(dmc, "is_output_symmetric",
                            lambda p: calls.append(p) or search(p))
        assert ch.symmetric and ch.symmetric
        assert calls == [ch]
        assert ch.uniform is ch.uniform
        for array in (ch.uniform, ch.capacity_solution[1], ch.support):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_divergence_game_solved_once_per_channel(self, monkeypatch):
        ch = dmc.Dmc(CIRCULANT)
        calls = []
        solver = optimize.minimize_convex_on_simplex
        monkeypatch.setattr(optimize, "minimize_convex_on_simplex",
                            lambda *args: calls.append(args) or solver(*args))
        for r in (0.3, 0.42, 0.45):
            ex.sphere_packing(ch, r)
            ex.focusing_bound(ch, r)
            ex.haroutunian(ch, r)
        assert ex.divergence_rate(ch, 50) == ch.divergence_rate + LN2 / 50
        assert len(calls) == 1

    def test_channels_with_different_rows_never_share_facts(self):
        a, b, z = dmc.bsc(0.02), dmc.bsc(0.03), dmc.z_channel(0.02)
        for ch in (a, b, z):
            for name in FACTS:
                getattr(ch, name)
        assert a.capacity_solution[0] != b.capacity_solution[0]
        assert a.symmetric and not z.symmetric
        assert not np.array_equal(a.support, z.support)
        for name in FACTS[2:]:  # the flag and R_inf are immutable scalars
            assert vars(a)[name] is not vars(b)[name]
        # a channel rebuilt from the same rows starts without facts
        again = dmc.bsc(0.02)
        assert not set(FACTS) & set(vars(again))
        assert again.capacity_solution[1] is not a.capacity_solution[1]


class TestMutualInformation:
    def test_bsc_closed_form(self, bsc002):
        # oracle: ln 2 - H(p)
        expected = LN2 - binary_entropy(0.02)
        assert dmc.mutual_information(bsc002, [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)

    def test_identical_rows_zero(self):
        ch = dmc.Dmc(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert dmc.mutual_information(ch, [0.2, 0.8]) == 0.0

    def test_bec_closed_form(self, bec04):
        # oracle: (1 - beta) ln 2
        assert dmc.mutual_information(bec04, [0.5, 0.5]) == pytest.approx(0.6 * LN2, abs=1e-12)

    def test_dimension_mismatch(self, bsc002):
        with pytest.raises(ValueError):
            dmc.mutual_information(bsc002, [0.5, 0.25, 0.25])


class TestCapacity:
    def test_bsc(self, bsc002):
        c, q = dmc.capacity(bsc002)
        assert c == pytest.approx(LN2 - binary_entropy(0.02), abs=1e-9)
        assert q == pytest.approx([0.5, 0.5], abs=1e-5)

    def test_z_channel(self, z05):
        # oracle: ln(1 + (1-p) p^{p/(1-p)}) for nulling probability p
        c, q = dmc.capacity(z05)
        assert c == pytest.approx(math.log(1.25), abs=1e-9)
        assert abs(q[0] - 0.5) > 0.01  # achieving distribution is not uniform

    def test_identity(self):
        c, q = dmc.capacity(dmc.identity_channel(2))
        assert c == pytest.approx(LN2, abs=1e-9)

    def test_identical_rows_exactly_zero(self):
        ch = dmc.Dmc(np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]]))
        c, _ = dmc.capacity(ch)
        assert c == 0.0

    def test_dominates_random_inputs(self, random_channels):
        # C = I(q*) lies within 1e-12 below the true capacity, which bounds
        # every I(q)
        rng = np.random.default_rng(0)
        for ch in random_channels[:4]:
            c, q_star = dmc.capacity(ch)
            assert q_star.min() >= 0.0 and q_star.sum() == pytest.approx(1.0, abs=1e-15)
            assert dmc.mutual_information(ch, q_star) == c
            for _ in range(250):
                q = rng.dirichlet(np.ones(ch.input_size))
                assert dmc.mutual_information(ch, q) <= c + 1e-12

    def test_matches_blahut_arimoto(self, bsc002, bec04, z05, random_channels):
        asym3 = dmc.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]])
        unreached = dmc.Dmc([[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]])  # no input reaches output 2
        for ch in [bsc002, bec04, z05, asym3, unreached, *random_channels]:
            c, _ = dmc.capacity(ch)
            assert c == pytest.approx(blahut_arimoto(ch, 1e-13)[0], abs=1e-12)

    def test_output_symmetric_certified_at_the_uniform_input(self, bsc002, bec04):
        # the first Blahut-Arimoto step, with the same expressions
        for ch in (bsc002, bec04, dmc.Dmc(CIRCULANT)):
            c, q = dmc.capacity(ch)
            c_ba, q_ba = blahut_arimoto(ch, 1e-12, max_iter=1)
            assert c == c_ba and np.array_equal(q, q_ba)
            assert np.array_equal(q, ch.uniform)

    def test_nearly_useless_channel(self):
        ch = dmc.Dmc(NEARLY_USELESS)
        c, q = dmc.capacity(ch)
        assert c == pytest.approx(ex.channel_capacity_fast(ch), abs=1e-13)
        assert dmc.mutual_information(ch, q) == c

    def test_optimal_input_leaves_one_input_unused(self):
        ch = dmc.Dmc(UNUSED_INPUT)
        c, q = dmc.capacity(ch)
        two = ex.channel_capacity_fast(dmc.Dmc(UNUSED_INPUT[:2]))
        assert two == pytest.approx(0.1866961064598132, abs=1e-15)
        assert c == pytest.approx(two, abs=1e-13)
        assert q[2] < 1e-9

    def test_certificate_failure_raises(self, monkeypatch, z05):
        # a program value further than the tolerance above I(q*)
        solver = optimize.minimize_convex_on_simplex

        def loose(*args):
            sol = solver(*args)
            return optimize.ConvexSolution(q=sol.q, value=sol.value + 1e-9,
                                           gap=sol.gap, iterations=sol.iterations)

        monkeypatch.setattr(optimize, "minimize_convex_on_simplex", loose)
        with pytest.raises(dmc.ConvergenceError):
            dmc.capacity(z05)


class TestDivergence:
    def test_self_divergence_zero(self, random_channels):
        for ch in random_channels[:4]:
            r = np.full(ch.input_size, 1.0 / ch.input_size)
            assert dmc.divergence_conditional(ch, ch, r) == 0.0

    def test_binary_oracle(self):
        g, p = dmc.bsc(0.5), dmc.bsc(0.4)
        got = dmc.divergence_conditional(g, p, [0.5, 0.5])
        assert got == pytest.approx(binary_divergence(0.5, 0.4), abs=1e-12)

    def test_support_mismatch_infinite(self, bsc002):
        g = dmc.Dmc(np.array([[1.0, 0.0], [0.0, 1.0]]))
        p = dmc.Dmc(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert dmc.divergence_conditional(g, p, [0.5, 0.5]) == math.inf

    def test_nonnegative_and_zero_iff_equal_on_support(self, random_channels):
        rng = np.random.default_rng(1)
        for ch in random_channels[:5]:
            for _ in range(40):
                g = dmc.Dmc(rng.dirichlet(np.ones(ch.output_size), size=ch.input_size))
                r = rng.dirichlet(np.ones(ch.input_size))
                d = dmc.divergence_conditional(g, ch, r)
                assert d >= 0.0
                if d == 0.0:
                    for x in np.flatnonzero(r > 0):
                        assert np.allclose(g.rows[x], ch.rows[x], atol=1e-9)

    def test_dimension_mismatch(self, bsc002, bec04):
        with pytest.raises(ValueError):
            dmc.divergence_conditional(bec04, bsc002, [0.5, 0.5])


@st.composite
def symmetry_channels(draw):
    """Channels with 2 or 3 inputs and at most 6 outputs: random rows, or
    built output-symmetric from blocks (a constant column, or |X| columns
    of a circulant), columns shuffled, and then possibly two entries of a
    row swapped, which usually breaks the symmetry."""
    nx = draw(st.integers(2, 3))
    weight = st.integers(0, 3)  # small integers, so that entries coincide
    if draw(st.booleans()):
        ny = draw(st.integers(2, 6))
        rows = [draw(st.lists(weight, min_size=ny, max_size=ny).filter(any))
                for _ in range(nx)]
    else:
        columns = []
        while len(columns) < 2 or len(columns) + nx <= 6 and draw(st.booleans()):
            if draw(st.booleans()):
                columns.append([draw(weight)] * nx)
            else:
                first = draw(st.lists(weight, min_size=nx, max_size=nx))
                columns += [[first[(y - x) % nx] for x in range(nx)] for y in range(nx)]
        columns = draw(st.permutations(columns))
        rows = [list(row) for row in zip(*columns)]
        if draw(st.booleans()):
            x = draw(st.integers(0, nx - 1))
            a, b = draw(st.lists(st.integers(0, len(columns) - 1), min_size=2, max_size=2))
            rows[x][a], rows[x][b] = rows[x][b], rows[x][a]
        if not all(any(row) for row in rows):
            rows = [[1] * len(columns)] * nx
    return dmc.Dmc([[w / sum(row) for w in row] for row in rows])


class TestSymmetryPartition:
    def test_bsc_single_block(self, bsc002):
        assert dmc.output_symmetry_partition(bsc002) == [(0, 1)]

    def test_bec_splits_erasure(self, bec04):
        # the erasure column forms its own class
        assert dmc.output_symmetry_partition(bec04) == [(0, 1), (2,)]

    def test_z_channel_not_symmetric(self, z05):
        assert dmc.output_symmetry_partition(z05) is None
        assert dmc.is_output_symmetric(z05) is False

    def test_large_alphabets(self):
        assert dmc.output_symmetry_partition(dmc.Dmc(np.full((2, 9), 1.0 / 9))) == [
            tuple(range(9))]
        # rows permuted within outputs 0-3 and within outputs 4-9
        row = np.array([.30, .10, .05, .02, .20, .12, .08, .06, .04, .03])
        row /= row.sum()
        ch = dmc.Dmc([row, np.concatenate([row[3::-1], row[:3:-1]])])
        assert dmc.output_symmetry_partition(ch) == [(0, 3), (1, 2), (4, 9), (5, 8), (6, 7)]
        uneven = np.full((2, 9), 1.0 / 9)
        uneven[0, :2] += (0.01, -0.01)
        assert dmc.is_output_symmetric(dmc.Dmc(uneven)) is False
        # the parametric focusing path, not the general program (about 1.4 s)
        start = time.perf_counter()
        fast = ex.focusing_bound(ch, 0.1)
        assert time.perf_counter() - start < 0.05
        assert fast == pytest.approx(ex._focusing_general(ch, 0.1), rel=1e-12)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_column_classes_agree_with_exhaustive_search(self, data):
        ch = data.draw(symmetry_channels())
        found = dmc.output_symmetry_partition(ch)
        assert (found is None) is (exhaustive_symmetry_partition(ch) is None)
        if found is not None:
            assert sorted(y for block in found for y in block) == list(range(ch.output_size))
            assert all(dmc._block_is_symmetric(ch.rows[:, block]) for block in found)

    def test_uniform_input_optimal_for_symmetric(self, bsc002, bec04):
        for ch in (bsc002, bec04):
            c, _ = dmc.capacity(ch)
            uni = np.full(ch.input_size, 1.0 / ch.input_size)
            assert dmc.mutual_information(ch, uni) >= c - 1e-9


class TestC1:
    def test_bsc_closed_form(self, bsc002):
        # oracle: (1 - 2p) ln((1-p)/p)
        expected = (1 - 0.04) * math.log(0.98 / 0.02)
        assert dmc.c1(bsc002) == pytest.approx(expected, abs=1e-12)

    def test_identical_rows(self):
        ch = dmc.Dmc(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert dmc.c1(ch) == 0.0

    def test_z_channel_infinite(self, z05):
        # row for input 0 puts no mass on output 1, which input 1 reaches
        assert dmc.c1(z05) == math.inf
