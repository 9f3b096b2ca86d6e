import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delaylab import dmc, ncl_scheme as ncl, queue_model as qm
from delaylab.bec_lab import fit_delay_exponent, substream
from delaylab.exponents import e0_max, gallager_e0
from oracles import loop_ncl_exact_tiny

E0_BSC_RHO1 = 0.4462871026284195  # ln2 - ln(1 + 2 sqrt(0.02 * 0.98))


@pytest.fixture(scope="module")
def tiny_params(bsc002):
    e0, q = e0_max(bsc002, 1.0)
    return ncl.NclParams(n=2, c=2, l=1, k=3, rho=1.0, q=q,
                         rate=math.log(8) / 12, e0=e0)


class TestSelectParams:
    def test_rho_one_gives_list_size_one(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.3, delta=0.01, k=10, rho=1.0)
        assert prm.l == 0

    def test_formula_recomputation(self, bsc002):
        # spreadsheet-style oracle for rho=1, k=10, Delta=0.01
        prm = ncl.select_params(bsc002, rate=0.3, delta=0.01, k=10, rho=1.0)
        e0 = E0_BSC_RHO1
        assert prm.c == max(1, math.ceil(math.log(16) / (10 * e0))) == 1
        r = max(0.0, math.log(0.01 * prm.c * 10) / (prm.c * 10 * e0))
        n = math.ceil(e0 / (e0 - 0.3) * (2 + 2 * r))
        assert prm.n == max(n, prm.l + 1)
        assert prm.slack_chunks >= (prm.ctilde - 0.3) * prm.n / prm.ctilde - 1

    def test_rho_four_needs_list_four(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.1, delta=0.01, k=10, rho=4.0)
        assert prm.l == 2
        assert prm.c >= 3

    def test_infeasible_rate_rejected(self, bsc002):
        with pytest.raises(ValueError):
            ncl.select_params(bsc002, rate=0.5, delta=0.01, k=10, rho=1.0)

    def test_structural_invariants_enforced(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        with pytest.raises(ValueError):
            ncl.NclParams(n=2, c=1, l=1, k=3, rho=1.0, q=q, rate=0.1, e0=e0)
        with pytest.raises(ValueError):
            ncl.NclParams(n=1, c=2, l=1, k=3, rho=1.0, q=q, rate=0.1, e0=e0)
        with pytest.raises(ValueError):
            ncl.NclParams(n=2, c=2, l=1, k=3, rho=3.0, q=q, rate=0.1, e0=e0)


class TestTransmissionTailBound:
    def test_probability_clamp(self, tiny_params):
        assert ncl.transmission_tail_bound(tiny_params, 1) <= 1.0

    def test_closed_form_value(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        prm = ncl.NclParams(n=4, c=4, l=0, k=10, rho=1.0, q=q, rate=0.3, e0=e0)
        assert ncl.transmission_tail_bound(prm, 1) == pytest.approx(
            math.exp(-40 * E0_BSC_RHO1), rel=1e-9)

    def test_t_must_be_positive(self, tiny_params):
        with pytest.raises(ValueError):
            ncl.transmission_tail_bound(tiny_params, 0)


class TestExactTiny:
    def test_zero_committed_errors(self, bsc002, tiny_params):
        # 0 by construction (the control slots are error-free): this guards
        # the trace's schema only
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 20_000, seed=4)
        assert tr.committed_errors == 0
        assert tr.decomposition_exact()

    def test_empirical_tails_below_bound(self, bsc002, tiny_params):
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 30_000, seed=8)
        chunks = tr.transmission_times // tiny_params.ck
        offset = math.ceil(tiny_params.t_tilde)
        for t in (1, 2, 3):
            emp = float((chunks > offset + t).mean())
            bound = ncl.transmission_tail_bound(tiny_params, t)
            se = math.sqrt(max(bound * (1 - bound), 1e-12) / len(chunks))
            assert emp <= bound + 3 * se

    def test_noiseless_channel_confirms_first_chunk(self, tiny_params):
        # with a clean channel only random-codebook collisions (two hypotheses
        # drawing identical prefixes) can push a block past the first chunk
        clean = dmc.Dmc(np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]))
        tr = ncl.simulate_ncl_exact_tiny(clean, tiny_params, 2_000, seed=5)
        assert tr.committed_errors == 0
        first_chunk = math.ceil(tiny_params.t_tilde) * tiny_params.ck
        assert float((tr.transmission_times == first_chunk).mean()) > 0.97

    def test_feedback_lag_keeps_correctness(self, bsc002, tiny_params):
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 5_000, seed=6,
                                         feedback_lag=2)
        assert tr.committed_errors == 0

    def test_size_caps_enforced(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        big = ncl.NclParams(n=10, c=2, l=1, k=3, rho=1.0, q=q, rate=0.05, e0=e0)
        with pytest.raises(ValueError):
            ncl.simulate_ncl_exact_tiny(bsc002, big, 10, seed=0)
        with pytest.raises(ValueError):
            ncl.simulate_ncl_exact_tiny(bsc002, big, 10, seed=0, n_messages=10_000)

    def test_reproducible(self, bsc002, tiny_params):
        a = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 2_000, seed=11)
        b = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 2_000, seed=11)
        assert np.array_equal(a.transmission_times, b.transmission_times)


class TestChunkUniforms:
    """``_chunk_uniforms`` against plain sequential draws of numpy's own
    generator: block j's row of chunk c is words j D to (j + 1) D - 1 of
    ``substream(seed, 4, c)``."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 5])
    def test_matches_sequential_draws(self, seed):
        # block 0, gaps between blocks, a first block past 0, and D of every
        # residue mod 4, so the skip ends at each word of a Philox counter
        for draws in (1, 3, 4, 6, 9, 54):
            for blocks in ([0], [0, 1, 2], [0, 2, 7], [3], [5, 6, 11], [1, 4, 5]):
                for chunk in (0, 2):
                    blocks = np.array(blocks)
                    got = ncl._chunk_uniforms(seed, chunk, blocks, draws)
                    stream = substream(seed, 4, chunk).random((blocks[-1] + 1) * draws)
                    want = [stream[j * draws:(j + 1) * draws] for j in blocks]
                    assert np.array_equal(got, want), (draws, list(blocks), chunk)

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ncl._chunk_uniforms(-1, 0, np.array([0]), 4)

    def test_generator_count(self, bsc002, tiny_params, monkeypatch):
        """Generators built by one 6,000-block run of the benchmark's
        exact-tiny config at seed 5: one for the messages and one per batch
        and chunk.  A change may lower this pin but never raise it, so a
        generator per block cannot come back."""
        calls = []

        def counted(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(ncl, "substream", counted)
        ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 6_000, seed=5, n_messages=8)
        assert len(calls) == 42


def assert_same_trace(a, b):
    for name in ("arrival_times", "service_starts", "transmission_times",
                 "commit_times"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.committed_errors == b.committed_errors
    assert a.meta == b.meta


@st.composite
def exact_tiny_cases(draw):
    """A random 2-3-input channel with zero entries, an (n, c, l, k)
    geometry within the exact-mode cap, a feedback lag, a codebook of at
    most 64 messages (explicit or the default) and the number of blocks per
    decode batch."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    weights = st.lists(st.integers(0, 4), min_size=ny, max_size=ny).filter(any)
    rows = np.array([draw(weights) for _ in range(nx)], dtype=float)
    p = dmc.Dmc(rows / rows.sum(axis=1, keepdims=True))
    q = np.array(draw(st.lists(st.integers(1, 4), min_size=nx, max_size=nx)), dtype=float)
    q /= q.sum()
    l = draw(st.integers(0, 2))
    c, n = draw(st.integers(l + 1, l + 2)), draw(st.integers(l + 1, l + 2))
    k = draw(st.integers(1 if c > 1 else 2, ncl.EXACT_TINY_MAX_BLOCK_USES // (n * c)))
    rho = float(2**l)
    e0 = gallager_e0(p, rho, q)
    assume(e0 > 1e-3)
    ceiling = min(e0 / rho, math.log(64) / (n * c * k))
    params = ncl.NclParams(n=n, c=c, l=l, k=k, rho=rho, q=q,
                           rate=draw(st.floats(0.05, 0.95)) * ceiling, e0=e0)
    lag = draw(st.integers(1, params.ck - 1))
    n_messages = draw(st.one_of(st.none(), st.integers(2, 12)))
    return p, params, lag, n_messages, draw(st.integers(2, 5))


class TestExactTinyMatchesLoop:
    """The batched simulator against the block-by-block loop it replaced:
    equal traces, error counts and metadata, bit for bit."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=exact_tiny_cases(), extra=st.sampled_from((-1, 0, 1)),
           seed=st.integers(0, 2**31 - 1))
    def test_random_channels_and_geometries(self, case, extra, seed):
        p, params, lag, n_messages, batch = case
        m = n_messages or max(2, round(math.exp(params.block_period * params.rate)))
        used = params.ck - (lag - 1)
        horizon = batch + extra
        with pytest.MonkeyPatch.context() as mp:
            # a budget of exactly `batch` blocks, so horizons straddle it
            mp.setattr(ncl, "EXACT_TINY_BATCH_DRAWS", batch * (m + 1) * used)
            fast = ncl.simulate_ncl_exact_tiny(p, params, horizon, seed,
                                               n_messages=n_messages, feedback_lag=lag)
        slow = loop_ncl_exact_tiny(p, params, horizon, seed,
                                   n_messages=n_messages, feedback_lag=lag)
        assert_same_trace(fast, slow)

    @pytest.mark.parametrize("extra", (-1, 0, 1))
    def test_module_batch_boundary(self, bsc002, tiny_params, extra):
        used = tiny_params.ck
        batch = ncl.EXACT_TINY_BATCH_DRAWS // ((8 + 1) * used)
        for lag in (1, 2):
            fast = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, batch + extra, 3,
                                               n_messages=8, feedback_lag=lag)
            slow = loop_ncl_exact_tiny(bsc002, tiny_params, batch + extra, 3,
                                       n_messages=8, feedback_lag=lag)
            assert_same_trace(fast, slow)

    def test_both_caps_one_block_per_batch(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        params = ncl.NclParams(n=2, c=2, l=1, k=6, rho=1.0, q=q,
                               rate=math.log(8) / 24, e0=e0)
        m = ncl.EXACT_TINY_MAX_CODEWORDS
        assert params.block_period == ncl.EXACT_TINY_MAX_BLOCK_USES
        assert ncl.EXACT_TINY_BATCH_DRAWS // ((m + 1) * params.ck) == 0
        for lag in (1, 3):
            fast = ncl.simulate_ncl_exact_tiny(bsc002, params, 16, 9, n_messages=m,
                                               feedback_lag=lag)
            slow = loop_ncl_exact_tiny(bsc002, params, 16, 9, n_messages=m,
                                       feedback_lag=lag)
            assert_same_trace(fast, slow)
            assert fast.transmission_times.max() > params.ck  # later chunks read

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5])
    def test_seeds_beyond_one_word(self, bsc002, tiny_params, seed):
        horizon = ncl.EXACT_TINY_BATCH_DRAWS // ((8 + 1) * tiny_params.ck) + 40
        fast = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, horizon, seed, n_messages=8)
        slow = loop_ncl_exact_tiny(bsc002, tiny_params, horizon, seed, n_messages=8)
        assert_same_trace(fast, slow)

    def test_codebook_needs_two_messages(self, bsc002, tiny_params):
        for m in (0, 1):
            with pytest.raises(ValueError, match="at least 2 messages"):
                ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, n_messages=m)


class TestBoundDriven:
    def test_light_traffic_delay_is_assembly_plus_service(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.02, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 50_000, seed=3)
        minimum = prm.block_period + (math.ceil(prm.t_tilde) + 1) * prm.ck \
            + prm.l * prm.k
        delays = tr.end_to_end()
        assert delays.min() == minimum
        assert float((delays == minimum).mean()) > 0.8
        assert float(tr.queueing().mean()) < prm.ck  # queueing vanishes

    def test_exponent_near_e0_with_generous_slack(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.1, delta=1e-4, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 400_000, seed=9)
        fit = tr.measure_exponent(ncl.default_delay_grid(prm, 5), min_misses=20)
        assert abs(fit.slope - prm.e0) <= 0.15 * prm.e0

    def test_fit_carries_finite_ci(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.2, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 200_000, seed=4)
        fit = tr.measure_exponent(ncl.default_delay_grid(prm), min_misses=30)
        assert math.isfinite(fit.ci_low) and math.isfinite(fit.ci_high)
        assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_fit_drops_the_warmup_blocks(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.2, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 20_000, seed=4)
        grid = ncl.default_delay_grid(prm)
        fit = tr.measure_exponent(grid, min_misses=30)
        want = fit_delay_exponent(tr.end_to_end()[ncl.WARMUP_BLOCKS:], grid, 30)
        assert (fit.slope, fit.ci_low, fit.ci_high) == (want.slope, want.ci_low, want.ci_high)
        assert list(fit.miss_counts) == list(want.miss_counts)

    def test_fig12_anchor_rate_037(self, bsc002):
        # an achievable fixed-delay exponent of at least 0.9 * 0.44 at 0.37 nats
        prm = ncl.select_params(bsc002, rate=0.37, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 400_000, seed=2)
        fit = tr.measure_exponent(ncl.default_delay_grid(prm, 6), min_misses=30)
        assert fit.slope >= 0.9 * 0.44
        assert ncl.queueing_exponent_bound(prm) >= 0.9 * 0.44

    @pytest.mark.parametrize("rate,rho,k,seed", [(0.02, 1.0, 10, 3), (0.2, 1.0, 10, 7),
                                                 (0.37, 1.0, 10, 2), (0.1, 4.0, 10, 5),
                                                 (0.3, 2.0, 3, 11)])
    def test_matches_scaled_point_queue(self, bsc002, rate, rho, k, seed):
        # the composition the simulator replaced: a point queue in chunk
        # units on the offset-geometric law, scaled by ck, l k on commits
        prm = ncl.select_params(bsc002, rate=rate, delta=0.05, k=k, rho=rho)
        tr = ncl.simulate_ncl_bound_driven(prm, 4_000, seed=seed)
        law = qm.offset_geometric_service(math.ceil(prm.t_tilde),
                                          math.exp(-prm.ck * prm.e0))
        queue = qm.simulate_point_queue(qm.QueueConfig(prm.n, 4_000, seed), law)
        ck = prm.ck
        assert np.array_equal(tr.arrival_times, queue.arrival_times * ck)
        assert np.array_equal(tr.service_starts,
                              (queue.completion_times - queue.service_times) * ck)
        assert np.array_equal(tr.transmission_times, queue.service_times * ck)
        assert np.array_equal(tr.commit_times,
                              queue.completion_times * ck + prm.l * prm.k)
        assert (tr.assembly, tr.termination) == (prm.block_period, prm.l * prm.k)
        assert tr.meta == {"mode": "bound_driven", "beta_eff": law.tail_beta,
                           "seed": seed}

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_needs_one_block(self, bsc002, tiny_params, blocks):
        prm = ncl.select_params(bsc002, rate=0.2, delta=0.05, k=10, rho=1.0)
        with pytest.raises(ValueError, match="at least one block"):
            ncl.simulate_ncl_bound_driven(prm, blocks)
        with pytest.raises(ValueError, match="at least one block"):
            ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, blocks)

    def test_decomposition_exact(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.3, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 20_000, seed=1)
        assert tr.decomposition_exact()
        assert tr.committed_errors == 0


class TestDelayedFeedback:
    def test_identity_at_phi_one(self, tiny_params):
        adjusted, factor = ncl.delayed_feedback_adjust(tiny_params, 1)
        assert factor == 1.0
        assert adjusted.rate == tiny_params.rate

    def test_throughput_factor(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        prm = ncl.NclParams(n=4, c=3, l=0, k=10, rho=1.0, q=q, rate=0.3, e0=e0)
        _, factor = ncl.delayed_feedback_adjust(prm, 3)
        assert factor == pytest.approx(28 / 30, abs=1e-12)

    def test_lag_cannot_reach_chunk(self, tiny_params):
        with pytest.raises(ValueError):
            ncl.delayed_feedback_adjust(tiny_params, tiny_params.ck)


class TestTwoStream:
    def test_rho_one_split(self, bsc002):
        split = ncl.two_stream_split(bsc002, E0_BSC_RHO1 / 2)
        assert split.rho == pytest.approx(1.0, abs=1e-4)
        assert split.psi == pytest.approx(0.5, abs=1e-4)
        assert split.e_prime == pytest.approx(E0_BSC_RHO1 / 2, abs=1e-4)

    def test_balance_identity_over_rho_sweep(self, bsc002):
        e0_one = e0_max(bsc002, 1.0)[0]
        for rho in np.geomspace(0.1, 8.0, 20):
            e0_rho = e0_max(bsc002, float(rho))[0]
            psi = e0_rho / (e0_one + e0_rho)
            split = ncl.TwoStreamSplit(psi=psi, rho=float(rho),
                                       e_prime=psi * e0_one,
                                       e0_rho=e0_rho, e0_one=e0_one)
            assert abs(split.psi * e0_one - (1 - split.psi) * e0_rho) <= 1e-9

    def test_identity_violation_rejected(self, bsc002):
        e0_one = e0_max(bsc002, 1.0)[0]
        with pytest.raises(ValueError):
            ncl.TwoStreamSplit(psi=0.4, rho=1.0, e_prime=0.4 * e0_one,
                               e0_rho=e0_one, e0_one=e0_one)

    def test_measured_exponent_near_target(self, bsc002):
        split = ncl.two_stream_split(bsc002, 0.2231435)
        fit, details = ncl.simulate_two_stream(bsc002, split, 150_000, seed=6)
        assert abs(fit.slope - split.e_prime) <= 0.2 * split.e_prime


class TestQueueingExponentBound:
    def test_is_the_queue_bound_of_the_service_law_per_use(self, bsc002):
        # exactly the D/G/1 bound of the offset-geometric law at period n,
        # divided by ck, where there is slack; 0 where there is none
        seen = set()
        for rho in (0.5, 1.0, 2.0):
            e0, q = e0_max(bsc002, rho)
            for n, c, l, k in ((4, 2, 1, 3), (10, 3, 1, 5), (20, 4, 2, 10)):
                if rho > 2**l:
                    continue
                for frac in np.linspace(0.05, 0.999, 25):
                    prm = ncl.NclParams(n=n, c=c, l=l, k=k, rho=rho, q=q,
                                        rate=float(frac) * e0 / rho, e0=e0)
                    got = ncl.queueing_exponent_bound(prm)
                    if prm.slack_chunks >= 1:
                        law = qm.offset_geometric_service(math.ceil(prm.t_tilde),
                                                          math.exp(-prm.ck * e0))
                        assert got == qm.tail_exponent_bound(n, law) / prm.ck
                        seen.add("slack" if got > 0 else "boundary")
                    else:
                        assert got == 0.0
                        seen.add("none")
        assert seen == {"slack", "boundary", "none"}

    def test_beta_eff_is_the_chunk_erasure(self, tiny_params):
        assert tiny_params.beta_eff == math.exp(-tiny_params.ck * tiny_params.e0)
        assert ncl.transmission_tail_bound(tiny_params, 2) == tiny_params.beta_eff ** 2


class TestSchemeCurve:
    def test_monotone_in_c(self, bsc002):
        # growing the chunk (fortification overhead per use shrinking) never
        # lowers the guaranteed exponent
        e0, q = e0_max(bsc002, 1.0)
        for c1, c2 in ((2, 4), (3, 9)):
            p1 = ncl.NclParams(n=8, c=c1, l=0, k=10, rho=1.0, q=q, rate=0.3, e0=e0)
            p2 = ncl.NclParams(n=8, c=c2, l=0, k=10, rho=1.0, q=q, rate=0.3, e0=e0)
            assert ncl.queueing_exponent_bound(p2) >= ncl.queueing_exponent_bound(p1) - 1e-12

    def test_shipped_schemes_ordering(self, bsc002):
        rates = np.linspace(0.05, 0.40, 8)
        curves = {}
        for n, c, l in ((10, 3, 2), (20, 4, 3), (50, 8, 6)):
            curves[(n, c, l)] = dict(ncl.scheme_exponent_curve(bsc002, n, c, l, 50, rates))
        # bigger schemes dominate at high rates; every curve is nonincreasing
        for key, cur in curves.items():
            vals = [cur[float(r)] for r in rates]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
        assert curves[(50, 8, 6)][0.40] >= curves[(10, 3, 2)][0.40]

    @pytest.mark.parametrize("n,c,l,message", [(10, 2, 2, "disambiguation"), (2, 3, 2, "n > l")],
                             ids=["c_below_l_plus_1", "n_not_above_l"])
    def test_invalid_geometry_raises(self, bsc002, n, c, l, message):
        # once read as a zero exponent at every rate
        with pytest.raises(ValueError, match=message):
            ncl.scheme_exponent_curve(bsc002, n, c, l, 50, [0.1, 0.2])
