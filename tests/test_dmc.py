import math

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaylab import dmc, exponents as ex, optimize
from delaylab.dmc import LN2
from oracles import awgn, blahut_arimoto, capacity_two_inputs, exhaustive_symmetry_partition


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

    @pytest.mark.parametrize("matrix", [[0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]]], 1.0])
    def test_matrix_must_be_two_dimensional(self, matrix):
        with pytest.raises(ValueError, match="^channel matrix must be two-dimensional$"):
            dmc.Dmc(matrix)

    def test_alphabets_at_least_two(self):
        with pytest.raises(ValueError):
            dmc.Dmc(np.array([[1.0], [1.0]]))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            dmc.validate_distribution([0.4, 0.4])
        with pytest.raises(ValueError):
            dmc.validate_distribution([0.5, 0.5], size=3)
        with pytest.raises(ValueError, match="^input distribution must be a vector$"):
            dmc.validate_distribution([[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("make, value, message", [
        (dmc.bsc, -0.1, "crossover"), (dmc.bsc, 1.1, "crossover"),
        (dmc.bec, -0.1, "erasure"), (dmc.bec, 1.5, "erasure"),
        (dmc.z_channel, -0.1, "nulling"), (dmc.z_channel, 1.1, "nulling"),
    ])
    def test_family_parameter_ranges(self, make, value, message):
        with pytest.raises(ValueError, match=rf"^{message} probability must be in \[0, 1\]$"):
            make(value)

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


SPARSE_FOUND = [[1.0, 0.0, 0.0, 0.0],
                [0.8656819830010691, 0.003351373859728697, 0.0, 0.13096664313920223],
                [0.6793717039909878, 0.0, 0.16198084588356929, 0.1586474501254428]]


def recomputed_gap(ch, c, q):
    """max_x D(P_x || qP) - c, each divergence by ``divergence_rows``."""
    out = q @ ch.rows
    return max(dmc.divergence_rows(row, out) for row in ch.rows) - c


def assert_steps(monkeypatch, ch, steps):
    """``dmc.capacity(ch)``, asserting that it takes exactly ``steps`` steps:
    it raises at a cap of one fewer and returns at that cap."""
    if steps > 0:
        monkeypatch.setattr(dmc, "CAPACITY_MAX_ITER", steps - 1)
        with pytest.raises(dmc.ConvergenceError):
            dmc.capacity(ch)
    monkeypatch.setattr(dmc, "CAPACITY_MAX_ITER", steps)
    return dmc.capacity(ch)


def capacity_events(monkeypatch, ch):
    """Run ``dmc.capacity(ch)`` and return what it did, in order: ("S", k)
    for each bordered Newton solve on k free inputs, ("C", q, certificate)
    for each point certified, and last ("R", value, q), what it returned."""
    events = []
    certificate, lstsq = dmc._certificate, np.linalg.lstsq

    def certified(p, q):
        result = certificate(p, q)
        events.append(("C", q, result))
        return result

    def solved(a, b, rcond):
        events.append(("S", len(b) - 1))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(dmc, "_certificate", certified)
    monkeypatch.setattr(np.linalg, "lstsq", solved)
    events.append(("R", *dmc.capacity(ch)))
    return events


def accepted_steps(events):
    """The kind of each step ``capacity_events`` recorded: "blahut-arimoto"
    where the certified point is the Blahut-Arimoto step from the iterate,
    "newton" where a trial lowered the gap."""
    (_, q, cert), *trials = [event for event in events if event[0] == "C"]
    kinds = []
    for _, trial, result in trials:
        step = q * np.exp(cert[2] - cert[2].max())
        if np.array_equal(trial, step / step.sum()):
            kinds.append("blahut-arimoto")
        elif result[1] < cert[1]:
            kinds.append("newton")
        else:
            continue
        q, cert = trial, result
    return kinds


def sparse_channels(rng, count):
    """``count`` channels without output symmetry: 2-4 inputs, 2-5 outputs,
    Dirichlet(0.5) rows with each entry zeroed with probability 0.25, then
    0.05 added at one random output of each row, renormalized."""
    channels = []
    while len(channels) < count:
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.full(ny, 0.5), size=nx)
        rows[rng.random((nx, ny)) < 0.25] = 0.0
        rows[np.arange(nx), rng.integers(0, ny, size=nx)] += 0.05
        ch = dmc.Dmc(rows / rows.sum(axis=1, keepdims=True))
        if not ch.symmetric:
            channels.append(ch)
    return channels


def stress_channels(rng, count):
    """``count`` channels of 2-6 letters in turn with a duplicate row, one
    row within 1e-6 of a vertex, and all rows within 1e-3 of one another."""
    channels = []
    for i in range(count):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rows = rng.dirichlet(np.full(ny, 0.7), size=nx)
        if i % 3 == 0:
            rows[-1] = rows[0]
        elif i % 3 == 1:
            rows[0] = 1e-6 * rows[0] + (1.0 - 1e-6) * np.eye(ny)[rng.integers(ny)]
        else:
            rows = (1.0 - 1e-3) * rows[0] + 1e-3 * rows
        channels.append(dmc.Dmc(rows / rows.sum(axis=1, keepdims=True)))
    return channels


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
        assert c == pytest.approx(capacity_two_inputs(ch), abs=1e-13)
        assert dmc.mutual_information(ch, q) == c

    def test_optimal_input_leaves_one_input_unused(self):
        ch = dmc.Dmc(UNUSED_INPUT)
        c, q = dmc.capacity(ch)
        two = capacity_two_inputs(dmc.Dmc(UNUSED_INPUT[:2]))
        assert two == pytest.approx(0.1866961064598132, abs=1e-15)
        assert c == pytest.approx(two, abs=1e-13)
        assert q[2] == 0.0  # the ratio test's blocking input leaves exactly

    def test_small_mass_row_just_outside_the_tolerance(self):
        # q* puts 0.0045 on row 0, whose divergence at the certified o* sits
        # 2.45e-12 below the maximum, outside CAPACITY_TOL: the active set
        # once kept rows 1 and 2 only, and the certificate failed by 2.1e-6
        ch = dmc.Dmc([[0.39506173, 0.52674897, 0.0781893],
                      [0.47081712, 0.17120623, 0.35797665],
                      [0.11794871882051283, 0.6564102534358975, 0.22564102774358974]])
        c, q = dmc.capacity(ch)
        c_ba, q_ba = blahut_arimoto(ch, 1e-14)
        assert abs(c - c_ba) <= 1e-12
        assert dmc.mutual_information(ch, q) == c
        assert q == pytest.approx(q_ba, abs=1e-6)
        assert q[0] > 0.004

    def test_sparse_rows_certified(self):
        # recovering q* from the min-max program's o* by plain least squares
        # once missed the certificate here by 2.0e-11
        ch = dmc.Dmc(SPARSE_FOUND)
        c, q = dmc.capacity(ch)
        assert dmc.mutual_information(ch, q) == c
        assert c == pytest.approx(blahut_arimoto(ch, 1e-13)[0], abs=1e-12)

    def test_four_inputs_on_three_outputs_certify(self):
        # every row lies at divergence C from the optimal output law, and
        # four inputs on three outputs leave q* free along a line: the
        # certificate and qP are unique, q* is not
        ch = dmc.Dmc([[0.5646716586493792, 0.3549533660824307, 0.08037497526819018],
                      [0.22304563397577257, 0.4126182574319587, 0.36433610859226884],
                      [0.34216198224300465, 0.1548071074023596, 0.5030309103546359],
                      [0.29547062504388244, 0.19873735988170516, 0.5057920150744125]])
        c, q = dmc.capacity(ch)
        c_ba, q_ba = blahut_arimoto(ch, 1e-14)
        assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL
        assert dmc.mutual_information(ch, q) == c
        assert c == pytest.approx(c_ba, abs=1e-12)
        assert q @ ch.rows == pytest.approx(q_ba @ ch.rows, abs=1e-6)

    def test_z_channel_certifies_and_the_cap_raises_with_the_gap(self, monkeypatch, z05):
        c, _ = assert_steps(monkeypatch, z05, 4)
        assert c == pytest.approx(math.log(1.25), abs=1e-15)
        monkeypatch.setattr(dmc, "CAPACITY_MAX_ITER", 1)
        with pytest.raises(dmc.ConvergenceError, match="capacity iteration cap") as err:
            dmc.capacity(z05)
        assert dmc.CAPACITY_TOL < err.value.residual < math.inf

    @pytest.mark.parametrize("rows, steps", [
        ([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]], 4),  # ASYM3
        (UNUSED_INPUT, 4), (NEARLY_USELESS, 1), (CIRCULANT, 0)])
    def test_step_counts(self, monkeypatch, rows, steps):
        ch = dmc.Dmc(rows)
        c, q = assert_steps(monkeypatch, ch, steps)
        assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL

    @pytest.mark.parametrize("nx, ny, steps", [(4, 8, 4), (8, 16, 8), (16, 32, 18)])
    def test_quantized_awgn(self, monkeypatch, nx, ny, steps):
        ch = awgn(nx, ny)
        assert not ch.symmetric
        c, q = assert_steps(monkeypatch, ch, steps)
        assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL
        assert c == pytest.approx(blahut_arimoto(ch, 1e-13)[0], abs=1e-12)

    def test_blocked_input_leaves_the_free_set(self, monkeypatch):
        # input 1 reaches the edge in the first step; in the third it has no
        # mass and D(P_1 || qP) > I(q), but the Newton step would push it
        # negative: it leaves, and the system is solved again on inputs 0
        # and 2 before any trial point is certified
        ch = dmc.Dmc([[0.9981813830188839, 0.001818616981116002],
                      [0.8886814679380933, 0.11131853206190666],
                      [0.8841793470414531, 0.115820652958547]])
        events = capacity_events(monkeypatch, ch)
        kinds = "".join(kind for kind, *_ in events)
        assert "SS" in kinds
        first = kinds.index("SS")
        assert events[first + 1][1] < events[first][1]  # a smaller system
        c, q = events[-1][1:]
        assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL
        assert q[1] == 0.0
        assert c == pytest.approx(capacity_two_inputs(dmc.Dmc(ch.rows[[0, 2]])), abs=1e-13)

    def test_blahut_arimoto_step_where_newton_fails(self, monkeypatch):
        # from the seeded sparse sweep: output 0 is reached by input 1
        # alone, whose optimal mass is about 1e-26; one step's Newton trials
        # all fail to lower the gap
        ch = dmc.Dmc([[0.0, 0.10488234682428088, 0.0, 0.155372086801844, 0.7397455663738752],
                      [0.0018000948276732823, 0.05918660522216342, 0.1402316674665262,
                       0.013767344263281418, 0.7850142882203558],
                      [0.0, 0.1803351508457321, 0.6599238563488896, 0.12766462121832023,
                       0.032076371587058186]])
        events = capacity_events(monkeypatch, ch)
        kinds = accepted_steps(events)
        assert kinds.count("blahut-arimoto") == 1 and len(kinds) == 9
        c, q = events[-1][1:]
        assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL
        assert 0.0 < q[1] < 1e-20

    def test_blahut_arimoto_steps_alone_are_the_oracle(self, monkeypatch, z05):
        # with every Newton solve not finite, each step is a Blahut-Arimoto
        # step, by the oracle's own expressions
        asym3 = dmc.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]])
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: (np.full(len(b), np.nan),))
        for ch in (z05, asym3):
            c, q = dmc.capacity(ch)
            c_ba, q_ba = blahut_arimoto(ch, dmc.CAPACITY_TOL)
            assert c == c_ba and np.array_equal(q, q_ba)

    def test_infinite_gap_where_an_output_loses_its_last_mass(self, monkeypatch):
        # input 1 alone reaches output 1 and shrinks on the log scale; a
        # trial where its mass underflows leaves output 1 without mass, and
        # its +inf gap is rejected
        ch = dmc.Dmc([[0.15378132091852872, 0.0, 0.8462186790814713],
                      [0.6523281094480465, 0.0006413116391233299, 0.3470305789128301],
                      [1.0, 0.0, 0.0]])
        events = capacity_events(monkeypatch, ch)
        unreached = [event[1] for event in events if event[0] == "C" and event[2][1] == math.inf]
        assert unreached and all((q @ ch.rows)[1] == 0.0 for q in unreached)
        c, q = events[-1][1:]
        assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL
        assert q[1] > 0.0

    def test_seeded_sweep(self, monkeypatch):
        # 1,600 seeded sparse channels without output symmetry, the 3x4
        # channel the min-max program once failed on, and a stress slice of
        # duplicate rows, a row within 1e-6 of a vertex and rows within
        # 1e-3 of one another; every one certifies by the recomputed gap
        # within 20 steps (9 at most when written)
        channels = [dmc.Dmc(SPARSE_FOUND)]
        for seed in (11, 12, 13, 14):
            channels += sparse_channels(np.random.default_rng(seed), 400)
        channels += stress_channels(np.random.default_rng(7), 150)
        monkeypatch.setattr(dmc, "CAPACITY_MAX_ITER", 20)
        for ch in channels:
            c, q = dmc.capacity(ch)
            assert recomputed_gap(ch, c, q) <= dmc.CAPACITY_TOL, ch.rows.tolist()
            if ch.input_size == 2:
                assert c == pytest.approx(capacity_two_inputs(ch), abs=1e-13)


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

    @settings(max_examples=300)
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
