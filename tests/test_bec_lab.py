import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaylab import bec_lab as bl
from delaylab.dmc import LN2
from oracles import fit_delay_exponent_lstsq, series_by_search


def birth_death_tail(beta: float, d: float) -> float:
    """Stationary miss probability of the rate-1/2 queue at delay d."""
    return (beta / (1.0 - beta)) ** d


def birth_death_numeric(beta: float, kmax: int = 400, sweeps: int = 200_000,
                        tol: float = 1e-14) -> np.ndarray:
    """Stationary law by power iteration of the truncated chain."""
    p_up, p_dn = beta**2, (1 - beta) ** 2
    v = np.zeros(kmax + 1)
    v[0] = 1.0
    for _ in range(sweeps):
        w = np.zeros_like(v)
        w[0] = v[0] * (1 - p_up) + v[1] * p_dn
        w[1:-1] = v[:-2] * p_up + v[1:-1] * (1 - p_up - p_dn) + v[2:] * p_dn
        w[-1] = v[-1] * (1 - p_dn) + v[-2] * p_up
        if np.abs(w - v).sum() < tol:
            return w
        v = w
    return v


def parity_loop(beta: float, rate_bits: float, horizon: int,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The causal parity decoder one channel use at a time.

    Returns the decode times and the parity deficit (undecoded symbols minus
    unerased parities held against them) after each use.
    """
    z = bl._erasure_pattern(beta, horizon, seed)
    a = bl._arrival_times(rate_bits, horizon)
    arrival_mark = np.zeros(horizon + 1, dtype=np.int32)
    np.add.at(arrival_mark, a, 1)
    dt = np.full(len(a), np.inf)
    deficit = np.zeros(horizon + 1, dtype=np.int32)
    u = 0        # symbols in the current ambiguous group
    credit = 0   # unerased parities held against that group
    g0 = 0       # index of the first undecoded bit
    zl = z.tolist()
    al = arrival_mark.tolist()
    for t in range(1, horizon + 1):
        if u - credit > 0 and zl[t]:
            credit += 1
            if credit == u:
                dt[g0:g0 + u] = t  # the renewal frees the whole group
                g0 += u
                u = 0
                credit = 0
        u += al[t]
        deficit[t] = u - credit
    return dt, deficit[1:]


def quiet(simulate, *args) -> bl.SimTrace:
    """``simulate(*args)``, silent about a rate at or above capacity, which
    is legal here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return simulate(*args)


def assert_causal_and_conserving(trace, stride):
    """No bit decodes before the use after its arrival, and the backlog the
    series reports is never negative: no bit leaves before it arrives."""
    delays = trace.delays()
    assert np.all(delays[np.isfinite(delays)] >= 1)
    assert trace.series(stride)["queue_len"].min() >= 0


@pytest.fixture(scope="module")
def fifo_run():
    return bl.simulate_fifo(beta=0.4, rate_bits=0.5, horizon=2_000_000, seed=17)


class TestSubstreamUniforms:
    """``substream`` against numpy's own generator: skipping ``start`` words
    by ``advance`` (Philox makes four per counter step) and then drawing
    ``count`` equals the sequential draws, and sibling keys give different
    streams.  The exact-tiny chunk uniforms rest on both."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("prefix", [(4,), (), (7, 2**40)])
    def test_matches_numpy_streams(self, seed, prefix):
        keys = [0, 1, 2**32 - 1]
        heads = [bl.substream(seed, *prefix, j).random(4) for j in keys]
        for a in range(len(keys)):
            for b in range(a):
                assert not np.array_equal(heads[a], heads[b]), (keys[a], keys[b])
        for start in range(8):
            for count in (1, 3, 4, 109):
                for j in keys:
                    rng = bl.substream(seed, *prefix, j)
                    rng.bit_generator.advance(start // 4)
                    rng.random(start % 4)
                    want = bl.substream(seed, *prefix, j).random(start + count)[start:]
                    assert np.array_equal(rng.random(count), want), (start, count, j)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            bl.simulate_fifo(beta=1.2, rate_bits=0.5, horizon=100)
        with pytest.raises(ValueError):
            bl.simulate_fifo(beta=0.4, rate_bits=0.0, horizon=100)
        with pytest.raises(ValueError,
                           match="^horizon must be a whole number of at least 2 uses, got 1$"):
            bl.simulate_fifo(beta=0.4, rate_bits=0.5, horizon=1)

    @pytest.mark.parametrize("rate", [0.0, -0.5])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="^rate must be positive$"):
            bl.simulate_fifo(beta=0.4, rate_bits=rate, horizon=100)

    def test_arrivals_past_the_horizon_are_never_built(self):
        # ceil(i / 1e-300) was cast to int64 before the horizon cut: the
        # trace held INT64_MIN arrival times, with an invalid-cast warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = bl.simulate_fifo(beta=0.4, rate_bits=1e-300, horizon=5000)
        assert tr.arrival_times.dtype == np.int64
        assert len(tr.arrival_times) == 0

    def test_whole_float_counts_become_ints(self):
        # a horizon of 100.0 reached numpy's cumsum dtype as a float and raised
        # TypeError; the seed reached numpy's SeedSequence
        tr = bl.simulate_fifo(0.4, 0.5, 100.0, seed=3.0)
        assert type(tr.horizon) is int
        assert np.array_equal(tr.done_times, bl.simulate_fifo(0.4, 0.5, 100, 3).done_times)

    @pytest.mark.parametrize("seed", [math.nan, math.inf, -math.inf, 1.5])
    def test_bad_seed_named_at_construction(self, seed):
        with pytest.raises(ValueError, match="^seed must be a whole number, got "):
            bl.simulate_fifo(0.4, 0.5, 100, seed)

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            bl.simulate_fifo(0.4, 0.5, 100, -1)

    def test_supercritical_warns_but_runs(self):
        # the warning names the caller's line, also where the parity run
        # reads the FIFO run
        for simulate in (bl.simulate_fifo, bl.simulate_causal_parity_nofeedback):
            with pytest.warns(UserWarning, match="^rate 0.75 >= capacity 0.6: queue is "
                                                 "unstable;") as record:
                simulate(beta=0.4, rate_bits=0.75, horizon=10_000)
            assert [w.filename for w in record] == [__file__]


class TestFifo:
    def test_noiseless_channel_immediate_decode(self):
        tr = bl.simulate_fifo(beta=1e-12, rate_bits=0.5, horizon=50_000, seed=1)
        # every bit is served successfully at its first opportunity
        assert np.all(tr.delays() == 1)
        assert tr.series()["queue_len"].max() <= 1
        fit = bl.measure_delay_exponent(tr, [2, 5, 8])
        assert fit.unbounded

    def test_decode_times_fifo_ordered(self, fifo_run):
        d = fifo_run.done_times
        assert np.all(np.diff(d[np.isfinite(d)]) >= 0)

    def test_conservation_every_step(self):
        tr = bl.simulate_fifo(beta=0.4, rate_bits=0.5, horizon=20_000, seed=3)
        assert_causal_and_conserving(tr, stride=1)

    def test_deterministic_given_seed(self):
        cfg = dict(beta=0.4, rate_bits=0.5, horizon=30_000, seed=9)
        a = bl.simulate_fifo(**cfg)
        b = bl.simulate_fifo(**cfg)
        assert np.array_equal(a.done_times, b.done_times)

    def test_matches_literal_queue_loop(self):
        # independent oracle: simulate the queue one use at a time
        cfg = dict(beta=0.4, rate_bits=0.5, horizon=40_000, seed=5)
        tr = bl.simulate_fifo(**cfg)
        rng = bl.substream(cfg["seed"], 0)
        z = rng.random(cfg["horizon"] + 1) < 0.6
        z[0] = False
        from collections import deque
        queue, decode, nxt = deque(), {}, 1
        for t in range(1, cfg["horizon"] + 1):
            if queue and z[t]:
                decode[queue.popleft()] = t
            if t % 2 == 0:
                queue.append(t // 2)
        for i in range(1, len(tr.arrival_times) + 1):
            expect = decode.get(i, math.inf)
            assert tr.done_times[i - 1] == expect

    def test_queue_law_matches_birth_death(self, fifo_run):
        samples = bl.queue_seen_by_arrivals(fifo_run)[fifo_run.steady:]
        stat, pvalue = bl.queue_law_chisquare(samples, 0.4)
        assert pvalue > 0.01

    def test_queue_tail_geometric(self, fifo_run):
        # P(backlog seen by an arrival >= k) = (beta/(1-beta))^(2k)
        samples = bl.queue_seen_by_arrivals(fifo_run)[fifo_run.steady:]
        nb = 100
        batches = np.array_split(samples, nb)
        for k in (1, 2, 3):
            means = np.array([(b >= k).mean() for b in batches])
            p_hat = means.mean()
            se = means.std(ddof=1) / math.sqrt(nb)
            assert abs(p_hat - (2 / 3) ** (2 * k)) <= 3 * se

    def test_miss_probability_matches_closed_form(self, fifo_run):
        for d in (7, 10, 14):
            p, se = bl.miss_probability(fifo_run, d)
            assert abs(p - (2 / 3) ** d) <= 3.5 * se

    def test_miss_probability_inside_burn_in_is_undetermined(self):
        # beta = 0.45 burns in 100,000 uses, longer than the whole run
        tr = bl.simulate_fifo(beta=0.45, rate_bits=0.5, horizon=5_000, seed=1)
        p, se = bl.miss_probability(tr, 5)
        assert math.isnan(p) and math.isnan(se)

    def test_general_rational_rate_runs(self):
        tr = bl.simulate_fifo(beta=0.25, rate_bits=2 / 3, horizon=200_000, seed=4)
        assert_causal_and_conserving(tr, stride=7)
        fit = bl.measure_delay_exponent(tr, range(6, 30, 3), min_misses=20)
        assert fit.slope > 0


    @pytest.mark.parametrize("rate_bits,beta", [(0.37, 0.5), (2 / 3, 0.25), (0.9, 0.05)])
    def test_general_rate_matches_literal_queue_loop(self, rate_bits, beta):
        # the unit-service FIFO in success-index time against one use at a time
        horizon, seed = 20_000, 6
        tr = bl.simulate_fifo(beta, rate_bits, horizon, seed)
        z = bl._erasure_pattern(beta, horizon, seed)
        arrivals = tr.arrival_times.tolist()
        decode, nxt = [], 0  # decode times of bits 1..len(decode); bits 1..nxt arrived
        for t in range(1, horizon + 1):
            if len(decode) < nxt and z[t]:
                decode.append(t)
            while nxt < len(arrivals) and arrivals[nxt] == t:
                nxt += 1
        decode += [math.inf] * (len(arrivals) - len(decode))
        assert tr.done_times.tolist() == decode


    def test_queue_seen_needs_fifo_decode_times(self):
        tr = bl.SimTrace(arrival_times=np.array([1, 2]), done_times=np.array([5.0, 4.0]),
                         steady=0, horizon=10)
        with pytest.raises(ValueError, match="^decode times must be FIFO-ordered$"):
            bl.queue_seen_by_arrivals(tr)


class TestFifoCompletions:
    def test_matches_recursion(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 50, 1000):
            a = np.sort(rng.integers(0, 3 * n + 1, n))
            t = rng.integers(1, 7, n)
            ref, c = [], 0
            for ai, ti in zip(a.tolist(), t.tolist()):
                c = max(ai, c) + ti
                ref.append(c)
            assert bl.fifo_completions(a, t).tolist() == ref

    def test_idle_start_and_scale_equivariance(self):
        a = np.array([5, 5, 6, 30], dtype=np.int64)
        t = np.array([2, 1, 4, 3], dtype=np.int64)
        assert bl.fifo_completions(a, t).tolist() == [7, 8, 12, 33]
        assert np.array_equal(bl.fifo_completions(7 * a, 7 * t),
                              7 * bl.fifo_completions(a, t))


class TestSeries:
    @pytest.mark.parametrize("simulate", [bl.simulate_fifo,
                                          bl.simulate_causal_parity_nofeedback])
    @pytest.mark.parametrize("stride", [1, 3, 7, 10])
    @pytest.mark.parametrize("horizon", [2, 11, 12_347, 100_003])
    def test_bucket_counts_match_binary_search(self, simulate, stride, horizon):
        # near capacity, so the horizon ends with bits undecoded (decode time inf)
        tr = simulate(0.4, 0.55, horizon, seed=horizon)
        if horizon > 11:
            assert np.isinf(tr.done_times).any()
        assert stride == 1 or horizon % stride
        got, want = tr.series(stride), series_by_search(tr, stride)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert np.array_equal(got[name], want[name])

    @pytest.mark.parametrize("stride", [12_347, 12_348, 10**30, 1e300])
    def test_stride_past_the_horizon_samples_t_1(self, stride):
        # every stride of at least the horizon, past int64 too, gives the one
        # row at t = 1
        tr = bl.simulate_fifo(0.4, 0.55, 12_347, seed=5)
        got, want = tr.series(stride), series_by_search(tr, tr.horizon)
        assert list(got["time"]) == [1]
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert np.array_equal(got[name], want[name])


class TestBirthDeath:
    def test_pi0(self):
        pi = bl.birth_death_stationary(0.4)
        assert pi[0] == pytest.approx(5.0 / 9, abs=1e-12)

    def test_small_beta_point_mass(self):
        pi = bl.birth_death_stationary(1e-6)
        assert pi[0] == pytest.approx(1.0, abs=1e-11)

    def test_tail_identity_even_d(self):
        # sum_{i >= d/2} pi_i telescopes to (beta/(1-beta))^d
        for beta in (0.2, 0.4):
            pi = bl.birth_death_stationary(beta, kmax=400)
            for d in (4, 8, 12):
                assert pi[d // 2:].sum() == pytest.approx(
                    birth_death_tail(beta, d), rel=1e-10)

    def test_matches_power_iteration(self):
        pi = bl.birth_death_stationary(0.4, kmax=60)
        num = birth_death_numeric(0.4, kmax=400)
        assert np.allclose(pi[:20], num[:20], atol=1e-10)

    def test_transient_chain_rejected(self):
        # beta <= 0 was rejected as if it were too large
        for beta in (0.5, 0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1/2\), where the "
                                                 f"chain is positive recurrent, got {beta}$"):
                bl.birth_death_stationary(beta)

    def test_chisquare_rejects_an_empty_sample(self):
        # a run no longer than its burn-in leaves no steady arrival
        tr = bl.simulate_fifo(0.4, 0.5, 1000, seed=3)
        samples = bl.queue_seen_by_arrivals(tr)[tr.steady:]
        assert len(samples) == 0
        with pytest.raises(ValueError, match="^samples must hold at least one queue length$"):
            bl.queue_law_chisquare(samples, 0.4)

    @pytest.mark.parametrize("beta", [0.7, -0.1, math.nan, 0.5, 0.0, math.inf])
    def test_chisquare_rejects_beta_outside_the_recurrent_range(self, beta):
        # the chain's stationary law exists for beta in (0, 1/2) only
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1/2\), where the chain is "
                                             f"positive recurrent, got {beta}$"):
            bl.queue_law_chisquare(np.zeros(1000, dtype=np.int64), beta)


class TestParityCode:
    def test_noiseless_decodes_immediately(self):
        cfg = dict(beta=1e-12, rate_bits=0.5, horizon=20_000, seed=2)
        tr = bl.simulate_causal_parity_nofeedback(**cfg)
        assert np.all(tr.delays() == 1)
        assert tr.series()["queue_len"].max() <= 1

    def test_deficit_equals_fifo_queue_pathwise(self):
        cfg = dict(beta=0.4, rate_bits=0.5, horizon=500_000, seed=23)
        dt, deficit = parity_loop(**cfg)
        fifo = bl.simulate_fifo(**cfg)
        parity = bl.simulate_causal_parity_nofeedback(**cfg)
        assert np.array_equal(parity.done_times, dt)
        assert np.array_equal(deficit, fifo.series()["queue_len"])

    @pytest.mark.parametrize("beta,rate_bits", [(0.4, 0.5), (0.3, 0.6), (0.2, 0.37),
                                                (0.4, 0.75)])
    @pytest.mark.parametrize("horizon", [2, 3, 17, 1000, 200_003])
    def test_matches_loop_oracle(self, beta, rate_bits, horizon):
        cfg = beta, rate_bits, horizon, 23
        dt, deficit = parity_loop(*cfg)
        parity = quiet(bl.simulate_causal_parity_nofeedback, *cfg)
        assert np.array_equal(parity.done_times, dt)
        # the parity deficit is the FIFO backlog, pathwise
        assert np.array_equal(deficit, quiet(bl.simulate_fifo, *cfg).series()["queue_len"])

    @settings(max_examples=60)
    @given(beta=st.floats(0.02, 0.95), rate_bits=st.floats(0.05, 1.5),
           horizon=st.integers(2, 3000), seed=st.integers(0, 2**31 - 1))
    def test_parity_fifo_identity(self, beta, rate_bits, horizon, seed):
        # rates up to 1.5 bits per use run well above capacity 1 - beta
        cfg = beta, rate_bits, horizon, seed
        dt, deficit = parity_loop(*cfg)
        fifo = quiet(bl.simulate_fifo, *cfg)
        parity = quiet(bl.simulate_causal_parity_nofeedback, *cfg)
        assert np.array_equal(parity.done_times, dt)
        assert np.array_equal(deficit, fifo.series()["queue_len"])
        assert np.array_equal(parity.arrival_times, fifo.arrival_times)

    def test_feedback_free_miss_rate_worse(self):
        cfg = dict(beta=0.4, rate_bits=0.5, horizon=2_000_000, seed=29)
        fifo = bl.simulate_fifo(**cfg)
        parity = bl.simulate_causal_parity_nofeedback(**cfg)
        m_fifo, _ = bl.miss_probability(fifo, 12)
        m_par, _ = bl.miss_probability(parity, 12)
        assert m_par > m_fifo

    def test_conservation(self):
        tr = bl.simulate_causal_parity_nofeedback(beta=0.4, rate_bits=0.5, horizon=20_000, seed=2)
        assert_causal_and_conserving(tr, stride=1)


class TestUnionBound:
    def test_vanishes_with_beta(self):
        assert bl.union_bound_exact(1e-9, 0.5, 50, 10) < 1e-8

    def test_dominates_empirical(self, fifo_run):
        for d in (8, 14, 20):
            p, se = bl.miss_probability(fifo_run, d)
            assert bl.union_bound_exact(0.4, 0.5, 200, d) >= p - 3 * se

    def test_monotone_in_d(self):
        vals = [bl.union_bound_exact(0.4, 0.5, 100, d) for d in range(5, 40, 5)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_log_slope_near_focusing_exponent(self):
        ds = np.arange(20, 61, 5)
        ub = [bl.union_bound_exact(0.4, 0.5, 200, int(d)) for d in ds]
        slope = np.polyfit(ds, -np.log(ub), 1)[0]
        assert abs(slope - math.log(1.5)) <= 0.1 * math.log(1.5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bl.union_bound_exact(0.4, 0.5, 0, 5)


class TestDelayExponent:
    def test_fifo_half_rate_slope(self, fifo_run):
        fit = bl.measure_delay_exponent(fifo_run, range(10, 41, 2))
        assert abs(fit.slope - math.log(1.5)) <= 0.15 * math.log(1.5)
        assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_supercritical_slope_near_zero(self):
        tr = quiet(bl.simulate_fifo, 0.4, 0.75, 1_000_000, 31)
        fit = bl.measure_delay_exponent(tr, range(10, 41, 5))
        # rate above capacity: the focusing bound is zero and so is the slope
        assert abs(fit.slope) <= 0.06

    def test_zero_misses_reported_unbounded(self):
        tr = bl.simulate_fifo(beta=1e-12, rate_bits=0.5, horizon=100_000, seed=2)
        fit = bl.measure_delay_exponent(tr, [5, 10, 15])
        assert fit.unbounded
        assert fit.slope == math.inf


class TestFitDelayExponent:
    def test_sorted_counts_match_naive(self):
        rng = np.random.default_rng(3)
        delays = rng.geometric(0.3, 5_000).astype(float)
        delays[rng.random(5_000) < 0.01] = np.inf
        grid = np.array([0.0, 1.0, 2.5, 3.0, 7.0, 40.0, 1e9, np.inf])
        counts = bl._miss_counts(np.sort(delays), grid)
        assert counts.tolist() == [int((delays > d).sum()) for d in grid]

    def test_single_deadline_with_misses_is_undetermined(self):
        fifo = bl.simulate_fifo(0.4, 0.5, 200_000, 1)
        fit = bl.measure_delay_exponent(fifo, [20, 28, 33, 43])
        assert len(fit.d_values) == 1
        assert math.isnan(fit.slope)
        assert math.isnan(fit.ci_low) and math.isnan(fit.ci_high)
        assert fit.widened_ci is True
        assert not fit.unbounded

    def test_flags_are_python_bools(self, fifo_run):
        for grid in ([10, 12], range(10, 41, 2)):
            fit = bl.measure_delay_exponent(fifo_run, grid)
            assert type(fit.widened_ci) is bool
            assert type(fit.unbounded) is bool
        assert bl.measure_delay_exponent(fifo_run, [10, 12]).widened_ci is True

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="no delays left to fit"):
            bl.fit_delay_exponent(np.array([], dtype=np.int64), [1, 2, 3], min_misses=10)

    def test_sample_too_short_to_bootstrap(self):
        delays = np.arange(1, 500) % 7
        fit = bl.fit_delay_exponent(delays, [1, 2, 3], min_misses=10)
        assert math.isfinite(fit.slope)
        assert math.isnan(fit.ci_low) and fit.widened_ci is True


def _fit_sample(rng):
    """A sample, deadlines and ``min_misses`` for ``fit_delay_exponent``:
    1,000 to 20,000 geometric delays, a quarter of them samples of 1 to 3
    bootstrap blocks, half with some infinite delays; a top deadline with 0.5
    to 200 expected misses, so that some resamples see none there; grids
    with one distinct deadline, with duplicates, of integers or of reals."""
    n = int(rng.integers(1000, 4000) if rng.random() < 0.25 else
            np.exp(rng.uniform(np.log(4000), np.log(20_000))))
    p = rng.uniform(0.05, 0.6)
    delays = rng.geometric(p, n) - 1
    if rng.random() < 0.5:
        delays = delays.astype(float)
        delays[rng.random(n) < rng.uniform(0, 0.01)] = np.inf
    top_misses = np.exp(rng.uniform(np.log(0.5), np.log(8 if rng.random() < 0.5 else 200)))
    d_top = np.log(n / top_misses) / -np.log1p(-p)
    m = int(rng.integers(1, 12))
    grid = np.append(rng.uniform(0, d_top, m - 1), d_top)
    form = rng.random()
    if form < 0.06:
        grid = np.repeat(np.floor(grid[:1]), m + 1)
    elif form < 0.3:
        grid = np.concatenate([np.floor(grid), np.floor(grid[: m // 2 + 1])])
    elif form < 0.7:
        grid = np.floor(grid)
    return delays, grid.tolist(), int(rng.choice([1, 1, 1, 3, 10, 30]))


def _fit_bits(fit):
    return ([float(x).hex() for x in (fit.slope, fit.ci_low, fit.ci_high)],
            fit.d_values.tobytes(), fit.miss_probs.tobytes(), fit.miss_counts.tobytes(),
            fit.unbounded, fit.widened_ci)


class TestExactBootstrap:
    """The CI solves only the bootstrap slopes its percentiles read by lstsq,
    and must equal the all-lstsq fit bit for bit."""

    def test_matches_all_lstsq_oracle(self):
        rng = np.random.default_rng(43)
        cases = Counter()
        for _ in range(300):
            delays, grid, min_misses = _fit_sample(rng)
            want = fit_delay_exponent_lstsq(delays, grid, min_misses)
            got = bl.fit_delay_exponent(delays, grid, min_misses)
            assert _fit_bits(got) == _fit_bits(want), (grid, min_misses)
            with_ci = not math.isnan(got.ci_low)
            cases["ci"] += with_ci
            cases["one deadline"] += with_ci and bool(got.d_values[0] == got.d_values[-1])
            cases["ties"] += with_ci and len(delays) < 4000
            cases["inf"] += with_ci and bool(np.isinf(delays).any())
        # every kind of sample is covered, each by 10 or more fits with a CI
        assert min(cases.values()) >= 10, cases

    def test_slope_calls_pinned(self, monkeypatch):
        # one lstsq for the fit and one for each of the four order statistics
        # that the percentiles read, against 201 when every resample ran it
        calls = []
        slope = bl._slope
        monkeypatch.setattr(bl, "_slope", lambda a, p: calls.append(1) or slope(a, p))
        tr = bl.simulate_fifo(0.4, 0.5, 1_000_000, seed=7)
        fit = bl.measure_delay_exponent(tr, range(10, 41, 2))
        assert math.isfinite(fit.ci_low) and math.isfinite(fit.ci_high)
        assert len(calls) == 5
