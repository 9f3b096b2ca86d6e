import math
from dataclasses import replace

import numpy as np
import pytest

from delaylab import dmc, ncl_scheme as ncl, queue_model as qm
from delaylab.bec_lab import fit_delay_exponent, substream
from delaylab.exponents import e0_max
from oracles import codebook_ncl_chunks

E0_BSC_RHO1 = 0.4462871026284195  # ln2 - ln(1 + 2 sqrt(0.02 * 0.98))


def assert_one_fifo_server(tr, params):
    """Every block starts service once it is assembled and once the block
    before it has left the one server, l k uses before that block commits,
    and takes a positive whole number of chunks."""
    starts = tr.done_times - tr.service_times - params.l * params.k
    assert np.all(starts >= tr.arrival_times)
    assert np.all(starts[1:] >= tr.done_times[:-1] - params.l * params.k)
    assert np.all(tr.service_times > 0)
    assert np.all(tr.service_times % params.ck == 0)


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

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
    def test_nonpositive_rho_rejected(self, bsc002, rho):
        # rho = 0 divided E0(0) = 0 by zero
        with pytest.raises(ValueError, match=f"rho must be positive, got {rho}"):
            ncl.select_params(bsc002, rate=0.1, delta=0.01, k=10, rho=rho)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_rate_rejected(self, bsc002, rate):
        # -1 once failed inside the service model, "offset must be nonnegative"
        with pytest.raises(ValueError, match=f"^rate must be a positive finite number, "
                                             f"got {rate}$"):
            ncl.select_params(bsc002, rate=rate, delta=0.01, k=10, rho=1.0)

    @pytest.mark.parametrize("delta", [0.0, -0.01])
    def test_nonpositive_delta_rejected(self, bsc002, delta):
        with pytest.raises(ValueError, match=rf"^delta must be a positive finite number, "
                                             rf"got {delta}$"):
            ncl.select_params(bsc002, rate=0.1, delta=delta, k=10, rho=1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_delta_rejected(self, bsc002, delta):
        # nan once passed the check and inf raised OverflowError from math.ceil
        with pytest.raises(ValueError, match=rf"^delta must be a positive finite number, "
                                             rf"got {delta}$"):
            ncl.select_params(bsc002, rate=0.1, delta=delta, k=10, rho=1.0)

    def test_fortification_period_must_be_positive(self, bsc002):
        with pytest.raises(ValueError, match="^fortification period must be a positive "
                                             "integer$"):
            ncl.select_params(bsc002, rate=0.1, delta=0.01, k=0, rho=1.0)

    def test_rate_at_e0_over_rho_rejected(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        with pytest.raises(ValueError, match=r"^rate must be below E0\(rho\)/rho "
                                             r"\(positive slack\)$"):
            ncl.NclParams(n=2, c=2, l=1, k=3, rho=1.0, q=q, rate=e0, e0=e0)

    def test_whole_float_geometry_becomes_ints(self, bsc002):
        e0, q = e0_max(bsc002, 1.0)
        params = ncl.NclParams(n=2.0, c=2.0, l=1.0, k=3.0, rho=1.0, q=q,
                               rate=math.log(8) / 12, e0=e0)
        assert [type(getattr(params, f)) for f in "nclk"] == [int] * 4
        assert params.block_period == 12 and type(params.block_period) is int

    @pytest.mark.parametrize("seed", [math.nan, math.inf, 2.5])
    def test_bad_seed_named_before_the_run(self, bsc002, tiny_params, seed):
        for run in (lambda: ncl.simulate_ncl_bound_driven(tiny_params, 10, seed),
                    lambda: ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, seed)):
            with pytest.raises(ValueError, match="^seed must be a whole number, got "):
                run()

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
    def test_one_fifo_server(self, bsc002, tiny_params):
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 20_000, seed=4)
        assert_one_fifo_server(tr, tiny_params)

    def test_empirical_tails_below_bound(self, bsc002, tiny_params):
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 30_000, seed=8)
        chunks = tr.service_times // tiny_params.ck
        offset = math.ceil(tiny_params.t_tilde)
        for t in (1, 2, 3):
            emp = float((chunks > offset + t).mean())
            bound = ncl.transmission_tail_bound(tiny_params, t)
            se = math.sqrt(max(bound * (1 - bound), 1e-12) / len(chunks))
            assert emp <= bound + 3 * se

    def test_noiseless_channel_confirms_first_chunk(self, tiny_params):
        # with a clean channel only competitors at the truth's distance (two
        # codewords with identical prefixes) can push a block past a chunk
        clean = dmc.Dmc(np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]))
        tr = ncl.simulate_ncl_exact_tiny(clean, tiny_params, 2_000, seed=5)
        first_chunk = math.ceil(tiny_params.t_tilde) * tiny_params.ck
        assert float((tr.service_times == first_chunk).mean()) > 0.97

    def test_feedback_lag_keeps_correctness(self, bsc002, tiny_params):
        # discarding the last output of each chunk leaves fewer outputs to
        # decide on, so blocks take more chunks on the same one-server schedule
        lagged = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 5_000, seed=6,
                                             feedback_lag=2)
        plain = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 5_000, seed=6)
        assert_one_fifo_server(lagged, tiny_params)
        assert lagged.meta["feedback_lag"] == 2
        assert lagged.service_times.mean() > plain.service_times.mean()

    def test_feedback_lag_below_the_chunk(self, bsc002, tiny_params):
        with pytest.raises(ValueError, match="^feedback lag must satisfy 1 <= phi < ck$"):
            ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, feedback_lag=tiny_params.ck)

    def test_size_caps_enforced(self, bsc002, tiny_params):
        # the one cap left: M below 2^62, so the int64 counts hold it
        for m in (2**62, 2**70):
            with pytest.raises(ValueError, match="fewer than 2\\^62 messages"):
                ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, n_messages=m)
        e0, q = e0_max(bsc002, 1.0)
        long_block = ncl.NclParams(n=50, c=2, l=1, k=3, rho=1.0, q=q, rate=0.3, e0=e0)
        with pytest.raises(ValueError, match="fewer than 2\\^62 messages"):
            ncl.simulate_ncl_exact_tiny(bsc002, long_block, 10)  # M = e^90 by default
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, n_messages=2**62 - 1)
        assert tr.meta["n_messages"] == 2**62 - 1

    def test_codebook_needs_two_messages(self, bsc002, tiny_params):
        for m in (0, 1):
            with pytest.raises(ValueError, match="at least 2 messages"):
                ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, n_messages=m)

    @pytest.mark.parametrize("rows,why", [([[1.0, 0.0], [0.5, 0.5]], "needs a BSC"),
                                          ([[0.5, 0.5], [0.5, 0.5]], "BSC\\(1/2\\)"),
                                          ([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]], "needs a BSC")],
                             ids=["z05", "bsc05", "erasure_like"])
    def test_rejects_other_channels(self, tiny_params, rows, why):
        with pytest.raises(ValueError, match=why):
            ncl.simulate_ncl_exact_tiny(dmc.Dmc(np.array(rows)), tiny_params, 10)

    def test_rejects_non_uniform_input(self, bsc002, tiny_params):
        skewed = replace(tiny_params, q=np.array([0.25, 0.75]))
        with pytest.raises(ValueError, match="uniform input"):
            ncl.simulate_ncl_exact_tiny(bsc002, skewed, 10)

    def test_flipped_bsc_is_the_same_run(self, bsc002, tiny_params):
        # BSC(0.98) is BSC(0.02) with its outputs relabelled: same rankings
        flipped = dmc.Dmc(np.array([[0.02, 0.98], [0.98, 0.02]]))
        a = ncl.simulate_ncl_exact_tiny(flipped, tiny_params, 3_000, seed=2)
        b = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 3_000, seed=2)
        assert np.array_equal(a.service_times, b.service_times)

    def test_reproducible(self, bsc002, tiny_params):
        a = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 2_000, seed=11)
        b = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 2_000, seed=11)
        assert np.array_equal(a.service_times, b.service_times)

    def test_prefix_stable(self, bsc002, tiny_params):
        # block j reads only the seed and blocks 0..j: a longer run keeps
        # every earlier block's chunk count
        short = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 3_000, seed=9,
                                            n_messages=256)
        long = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 6_000, seed=9,
                                           n_messages=256)
        assert np.array_equal(short.service_times, long.service_times[:3_000])

    @pytest.mark.parametrize("bins", [5, 1000])
    def test_slice_bound_changes_no_output(self, bsc002, tiny_params, monkeypatch, bins):
        want = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 500, seed=3,
                                           n_messages=64, feedback_lag=2)
        monkeypatch.setattr(ncl, "EXACT_SPREAD_BINS", bins)
        got = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 500, seed=3,
                                          n_messages=64, feedback_lag=2)
        assert np.array_equal(got.service_times, want.service_times)

    @pytest.mark.parametrize("group", [1, 7])
    def test_block_groups_change_no_output(self, bsc002, tiny_params, monkeypatch, group):
        # each group draws on chunk c's generators where the last group left
        # them, so the streams run in block order as in one group
        want = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 500, seed=3,
                                           n_messages=64, feedback_lag=2)
        monkeypatch.setattr(ncl, "EXACT_GROUP_BLOCKS", group)
        got = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 500, seed=3,
                                          n_messages=64, feedback_lag=2)
        for field in ("arrival_times", "service_times", "done_times"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.meta == want.meta

    def test_runs_select_params_geometry(self, bsc002):
        # the bound-driven workload's operating point: a 40-use block and
        # M = 2,981, beyond the codebook run's caps of 24 uses and 4,096
        prm = ncl.select_params(bsc002, rate=0.2, delta=0.05, k=10, rho=1.0)
        assert (prm.n, prm.c, prm.l, prm.k) == (4, 1, 0, 10)
        tr = ncl.simulate_ncl_exact_tiny(bsc002, prm, 2_000, seed=1)
        assert tr.meta["n_messages"] == 2981
        law = np.bincount(tr.service_times // prm.ck, minlength=6)[1:] / 2_000
        assert law[1] > 0.6 and law[0] > 0.2 and law[3:].sum() < 0.01

    def test_runs_beyond_2_to_the_40(self, bsc002, tiny_params):
        tr = ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 200, seed=4,
                                         n_messages=2**40 + 1)
        chunks = tr.service_times // tiny_params.ck
        # 40 bits over 0.86 bit per use need about 47 outputs: 8 chunks of 6
        assert 6 <= np.median(chunks) <= 10

    def test_negative_seed_raises_numpys_error(self, bsc002, tiny_params):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 10, seed=-1)

    def test_generator_count(self, bsc002, tiny_params, monkeypatch):
        """Generators built by one 6,000-block run of the benchmark's
        exact-tiny config at seed 5: one for the messages and two per chunk.
        A change may lower this pin but never raise it, so a generator per
        block cannot come back."""
        calls = []

        def counted(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(ncl, "substream", counted)
        ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, 6_000, seed=5, n_messages=8)
        assert len(calls) == 7


def homogeneity_p_value(a, b):
    """Chi-square homogeneity p-value of the chunk-count laws of two runs,
    the sparse tail merged until its last class holds at least 10 blocks."""
    from scipy.special import chdtrc
    top = max(a.max(), b.max())
    table = np.array([np.bincount(a, minlength=top + 1)[1:],
                      np.bincount(b, minlength=top + 1)[1:]], dtype=float)
    while table.shape[1] > 2 and table[:, -1].sum() < 10:
        table = np.concatenate([table[:, :-2], table[:, -2:].sum(axis=1, keepdims=True)],
                               axis=1)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return chdtrc(table.shape[1] - 1, ((table - expected) ** 2 / expected).sum())


class TestExactTinyMatchesCodebook:
    """The distance-count sampler against real random codebooks: the same
    chunk-count law by a chi-square homogeneity test, 20,000 blocks a side."""

    @pytest.mark.parametrize("geometry,m,lag", [((2, 2, 1, 3), 8, 1), ((2, 2, 1, 3), 64, 1),
                                                ((2, 2, 1, 3), 256, 1), ((2, 2, 1, 3), 8, 2),
                                                ((3, 1, 0, 4), 16, 1)],
                             ids=["m8", "m64", "m256", "m8_lag2", "l0_m16"])
    def test_chunk_law(self, bsc002, geometry, m, lag):
        n, c, l, k = geometry
        e0, q = e0_max(bsc002, 1.0)
        params = ncl.NclParams(n=n, c=c, l=l, k=k, rho=1.0, q=q,
                               rate=math.log(8) / (n * c * k), e0=e0)
        codebook = codebook_ncl_chunks(bsc002, params, 20_000, 1, m, lag)
        sampled = ncl.simulate_ncl_exact_tiny(bsc002, params, 20_000, seed=1,
                                              n_messages=m, feedback_lag=lag)
        assert homogeneity_p_value(codebook, sampled.service_times // params.ck) > 0.01


class TestBoundDriven:
    def test_light_traffic_delay_is_assembly_plus_service(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.02, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 50_000, seed=3)
        minimum = prm.block_period + (math.ceil(prm.t_tilde) + 1) * prm.ck \
            + prm.l * prm.k
        delays = tr.delays()
        assert delays.min() == minimum
        assert float((delays == minimum).mean()) > 0.8
        queueing = tr.done_times - tr.service_times - prm.l * prm.k - tr.arrival_times
        assert float(queueing.mean()) < prm.ck  # queueing vanishes

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
        want = fit_delay_exponent(tr.delays()[ncl.WARMUP_BLOCKS:], grid, 30)
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
        law = qm.ServiceTimeModel(math.ceil(prm.t_tilde), math.exp(-prm.ck * prm.e0))
        queue = qm.simulate_point_queue(law, prm.n, 4_000, seed)
        ck = prm.ck
        assert np.array_equal(tr.arrival_times, queue.arrival_times * ck)
        assert np.array_equal(tr.service_times, queue.service_times * ck)
        assert np.array_equal(tr.done_times, queue.done_times * ck + prm.l * prm.k)
        assert tr.shift == prm.block_period
        assert tr.meta == {"mode": "bound_driven", "beta_eff": law.tail_beta,
                           "seed": seed}

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_needs_one_block(self, bsc002, tiny_params, blocks):
        prm = ncl.select_params(bsc002, rate=0.2, delta=0.05, k=10, rho=1.0)
        with pytest.raises(ValueError, match="at least one block"):
            ncl.simulate_ncl_bound_driven(prm, blocks)
        with pytest.raises(ValueError, match="at least one block"):
            ncl.simulate_ncl_exact_tiny(bsc002, tiny_params, blocks)

    @pytest.mark.parametrize("points", [0, -1, 2.5, math.nan, math.inf])
    def test_delay_grid_needs_a_positive_whole_count(self, tiny_params, points):
        # 0 and -1 gave an empty grid, which the fit then blamed on its
        # caller, and 2.5 gave 3 deadlines
        with pytest.raises(ValueError, match=f"^points must be a positive integer, got {points}$"):
            ncl.default_delay_grid(tiny_params, points)

    def test_delay_grid_takes_a_whole_float_count(self, tiny_params):
        grid = ncl.default_delay_grid(tiny_params, 3.0)
        assert grid.dtype == np.int64
        assert np.array_equal(grid, ncl.default_delay_grid(tiny_params, 3))
        assert len(ncl.default_delay_grid(tiny_params, 1)) == 1

    def test_one_fifo_server(self, bsc002):
        prm = ncl.select_params(bsc002, rate=0.3, delta=0.05, k=10, rho=1.0)
        tr = ncl.simulate_ncl_bound_driven(prm, 20_000, seed=1)
        assert_one_fifo_server(tr, prm)


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

    def test_exponent_and_balance_violations_rejected(self):
        with pytest.raises(ValueError, match=r"^exponent must equal psi E0\(1\)$"):
            ncl.TwoStreamSplit(psi=0.5, rho=1.0, e_prime=0.6, e0_rho=1.0, e0_one=1.0)
        # psi within 1e-9 of its formula, but E0 large enough that the two
        # sides of the balance differ by 1e-6
        psi = 0.5 + 5e-10
        with pytest.raises(ValueError, match="^balance identity"):
            ncl.TwoStreamSplit(psi=psi, rho=1.0, e_prime=psi * 1e3, e0_rho=1e3, e0_one=1e3)

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
                        law = qm.ServiceTimeModel(math.ceil(prm.t_tilde), math.exp(-prm.ck * e0))
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

    def test_figure_16_solves_each_exponent_once(self, bsc002, monkeypatch):
        # the exponent depends on the rate only through the slack, so each
        # distinct (rho, slack) is solved once: figure 16's three schemes
        # made 2,578 BEC focusing inversions when each (rate, rho) solved its
        # own, for 1,816 distinct arguments
        calls, solve = [], qm.bec_focusing_exponent_bits
        monkeypatch.setattr(qm, "bec_focusing_exponent_bits",
                            lambda *args: calls.append(args) or solve(*args))
        rates = np.linspace(0.02, 0.43, 22)
        schemes = ((10, 3, 2), (20, 4, 3), (50, 8, 6))
        curves = [ncl.scheme_exponent_curve(bsc002, n, c, l, 50, rates) for n, c, l in schemes]
        assert len(calls) == len(set(calls)) == 1816
        for (n, c, l), got in zip(schemes, curves):
            # the curve of the loop that solved every (rate, rho)
            want = []
            for rate in rates:
                best = 0.0
                for rho in np.geomspace(1e-2, 2**l, ncl.SCHEME_RHO_POINTS).tolist():
                    e0, q = e0_max(bsc002, rho)
                    if rate < e0 / rho:
                        best = max(best, ncl.queueing_exponent_bound(ncl.NclParams(
                            n=n, c=c, l=l, k=50, rho=rho, q=q, rate=float(rate), e0=e0)))
                want.append((float(rate), best))
            assert [(r.hex(), e.hex()) for r, e in got] == [(r.hex(), e.hex()) for r, e in want]

    @pytest.mark.parametrize("n,c,l,message", [(10, 2, 2, "disambiguation"), (2, 3, 2, "n > l")],
                             ids=["c_below_l_plus_1", "n_not_above_l"])
    def test_invalid_geometry_raises(self, bsc002, n, c, l, message):
        # once read as a zero exponent at every rate
        with pytest.raises(ValueError, match=message):
            ncl.scheme_exponent_curve(bsc002, n, c, l, 50, [0.1, 0.2])
