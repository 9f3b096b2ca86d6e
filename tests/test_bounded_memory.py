"""Bounded memory of the simulators, the delay fits and the CLI's sim runs.

A run holds the arrays it returns plus working buffers of
``bec_lab.CHUNK_LENGTH`` values; the FIFO run also holds its erasure pattern
(a byte per use) and the success counts its recursion reads (four bytes per
bit).  A CLI run holds no more, its series and the trace writer's
matrices included.  The budgets are measured with tracemalloc, which numpy
reports its allocations to, after one warm-up call, so that first-use
imports and caches are not counted.  Then the chunked passes against the one-shot forms that
``oracles`` keeps, at lengths on both sides of the chunk boundaries: every
comparison is exact."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from delaylab import bec_lab as bl, cli, ncl_scheme as ncl, queue_model as qm
from oracles import (erasure_pattern_oneshot, fifo_completions_oneshot, fit_delay_exponent_lstsq,
                     miss_counts_float, parity_decode_oneshot, series_by_search,
                     simulate_fifo_oneshot)

CHUNK = bl.CHUNK_LENGTH
LENGTHS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
ALLOWANCE = 4 * CHUNK * 8  # bytes: four float64 working buffers


def traced_peak(run):
    """(run(), the traced peak in bytes above what was held before it)."""
    run()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


BEC = bl.BecConfig(beta=0.4, rate_bits=0.5, horizon=1_000_000, seed=7)
QUEUE = qm.QueueConfig(arrival_period=5, horizon=500_000, seed=7)
SERVICE = qm.offset_geometric_service(2, 0.25)


def fifo_working_bytes(trace) -> int:
    """The FIFO run's own state: its erasure pattern and success counts."""
    return trace.horizon + 1 + 4 * len(trace.arrival_times)


class TestBudgets:
    @pytest.mark.parametrize("simulate", [bl.simulate_fifo,
                                          bl.simulate_causal_parity_nofeedback])
    def test_fifo_runs(self, simulate):
        trace, peak = traced_peak(lambda: simulate(BEC))
        kept = nbytes(trace.arrival_times, trace.decode_times)
        assert peak <= kept + fifo_working_bytes(trace) + ALLOWANCE

    def test_point_queue(self):
        trace, peak = traced_peak(lambda: qm.simulate_point_queue(QUEUE, SERVICE))
        kept = nbytes(trace.arrival_times, trace.completion_times, trace.service_times)
        assert peak <= kept + ALLOWANCE

    def test_ncl_bound_driven(self, bsc002):
        params = ncl.select_params(bsc002, 0.2, 0.05, 10, 1.0)
        trace, peak = traced_peak(lambda: ncl.simulate_ncl_bound_driven(params, 280_000, 7))
        kept = nbytes(trace.arrival_times, trace.service_starts, trace.transmission_times,
                      trace.commit_times)
        assert peak <= kept + ALLOWANCE
        grid = ncl.default_delay_grid(params).tolist()
        _, peak = traced_peak(lambda: trace.measure_exponent(grid, 30))
        assert peak <= ALLOWANCE

    def test_fits_hold_no_delay_sample(self):
        trace = bl.simulate_fifo(BEC)
        _, peak = traced_peak(lambda: bl.measure_delay_exponent(trace, range(10, 41, 2)))
        assert peak <= ALLOWANCE

    def test_cli_sim_bec(self, tmp_path):
        cfg = tmp_path / "bec.json"
        cfg.write_text(json.dumps({"beta": BEC.beta, "rate_bits": BEC.rate_bits,
                                   "horizon": BEC.horizon}))
        argv = ["sim", "bec", str(cfg), "--seed", "7", "--out", str(tmp_path / "out")]
        code, peak = traced_peak(lambda: cli.main(argv))
        assert code == 0
        trace = bl.simulate_fifo(BEC)
        series = trace.series(BEC.horizon // 100_000)
        kept = nbytes(trace.arrival_times, trace.decode_times, *series.values())
        assert peak <= kept + fifo_working_bytes(trace) + ALLOWANCE

    def test_cli_sim_queue(self, tmp_path):
        cfg = tmp_path / "queue.json"
        cfg.write_text(json.dumps({"service": {"kind": "offset_geometric", "offset": 2,
                                               "beta": 0.25},
                                   "arrival_period": 5, "horizon": QUEUE.horizon,
                                   "d_grid": [6, 9, 12, 15, 18]}))
        argv = ["sim", "queue", str(cfg), "--seed", "7", "--out", str(tmp_path / "out")]
        code, peak = traced_peak(lambda: cli.main(argv))
        assert code == 0
        trace = qm.simulate_point_queue(QUEUE, SERVICE)
        kept = nbytes(trace.arrival_times, trace.completion_times, trace.service_times)
        assert peak <= kept + ALLOWANCE


class TestChunkBoundaries:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_fifo_completions(self, n, dtype):
        rng = np.random.default_rng(n)
        arrivals = np.sort(rng.integers(0, 3 * n + 1, n)).astype(dtype)
        service = rng.integers(1, 7, n)
        got = bl.fifo_completions(arrivals, service)
        want = fifo_completions_oneshot(arrivals, service)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    def test_fifo_completions_take_integers(self):
        with pytest.raises(TypeError, match="integer times"):
            bl.fifo_completions(np.arange(3), np.full(3, 2.0))

    @pytest.mark.parametrize("uses", [3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_erasure_pattern(self, uses):
        cfg = bl.BecConfig(beta=0.3, rate_bits=0.5, horizon=uses - 1, seed=uses)
        assert np.array_equal(bl._erasure_pattern(cfg), erasure_pattern_oneshot(cfg))

    @pytest.mark.parametrize("bits", LENGTHS)
    def test_fifo_and_parity_runs(self, bits):
        # at rate 1/2 the bits arriving before use 2 bits + 1 are exactly bits
        cfg = bl.BecConfig(beta=0.3, rate_bits=0.5, horizon=2 * bits + 1, seed=bits)
        a, d = simulate_fifo_oneshot(cfg)
        fifo = bl.simulate_fifo(cfg)
        assert len(a) == bits
        assert np.array_equal(fifo.arrival_times, a)
        assert np.array_equal(fifo.decode_times, d)
        parity = bl.simulate_causal_parity_nofeedback(cfg)
        assert np.array_equal(parity.decode_times, parity_decode_oneshot(a, d))
        for stride in (1, 7):
            want = series_by_search(fifo, stride)
            for name, column in fifo.series(stride).items():
                assert np.array_equal(column, want[name]), name

    def test_fifo_run_with_undecoded_bits(self):
        # a rate above capacity leaves a backlog past the horizon
        with pytest.warns(UserWarning):
            cfg = bl.BecConfig(beta=0.5, rate_bits=0.75, horizon=3 * CHUNK + 5, seed=2)
        a, d = simulate_fifo_oneshot(cfg)
        fifo = bl.simulate_fifo(cfg)
        assert np.isfinite(d).sum() > CHUNK and np.isinf(d).any()
        assert np.array_equal(fifo.decode_times, d)
        parity = bl.simulate_causal_parity_nofeedback(cfg)
        assert np.array_equal(parity.decode_times, parity_decode_oneshot(a, d))

    @pytest.mark.parametrize("size", LENGTHS)
    def test_service_samples(self, size):
        for svc in (SERVICE, qm.truncated_geometric_service(0.6, 3)):
            got = svc.sample(bl.substream(size, 1), size)
            want = svc.inverse_cdf(bl.substream(size, 1).random(size))
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_integer_miss_counts(self):
        rng = np.random.default_rng(5)
        delays = np.sort(np.concatenate([rng.integers(-40, 40, 3 * CHUNK + 5),
                                         [np.iinfo(np.int64).max, np.iinfo(np.int64).min]]))
        grid = np.array([-np.inf, -2.0**63, -1e30, -3.5, -3.0, 0.0, 0.5, 7.0, 39.0, 39.5,
                         2.0**62, 2.0**63, 1e30, np.inf, np.nan])
        values, times = np.unique(delays, return_counts=True)
        # Python compares its ints with floats exactly
        exact = [sum(c for v, c in zip(values.tolist(), times.tolist()) if v > d)
                 for d in grid.tolist()]
        assert bl._miss_counts(delays, grid).tolist() == exact
        small = np.sort(rng.integers(0, 50, 1000))  # within float's exact integers
        assert np.array_equal(bl._miss_counts(small, grid), miss_counts_float(small, grid))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_point_fit_counts(self, n):
        rng = np.random.default_rng(n)
        ends = rng.integers(5, 60, n)
        starts = rng.integers(0, 5, n)
        delays = ends - starts + 3
        grid = [np.inf, 20, 8.5, 30.0, 2]  # in no order, +inf and whole deadlines
        fit, counts, _ = bl._point_fit([(ends, starts, 3)], grid, 1)
        assert np.array_equal(counts, miss_counts_float(np.sort(delays), grid))
        ascending = counts[np.argsort(grid)]  # the fit keeps every deadline with a miss
        assert np.array_equal(fit.miss_counts, ascending[ascending > 0])

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_fit_matches_one_shot_fit(self, n):
        rng = np.random.default_rng(n)
        delays = rng.geometric(0.3, n).astype(float)
        delays[rng.random(n) < 0.001] = np.inf
        grid = [2, 4, 6, 8, 10, 12, np.inf]
        got = bl.fit_delay_exponent(delays, grid, 20)
        want = fit_delay_exponent_lstsq(delays, grid, 20)
        for field in ("slope", "ci_low", "ci_high", "widened_ci"):
            assert getattr(got, field) == getattr(want, field), field
        for field in ("d_values", "miss_probs", "miss_counts"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_traces_pool_in_order(self):
        traces = [bl.simulate_fifo(bl.BecConfig(0.3, 0.5, 3 * CHUNK + 5, seed))
                  for seed in (1, 2)]
        grid = list(range(4, 30, 3))
        pooled = []
        for t in traces:
            stop = np.searchsorted(t.arrival_times, t.horizon - max(grid), side="right")
            pooled.append(t.delays()[t.steady_start():stop])
        got = bl.measure_delay_exponent(traces, grid, 20)
        want = bl.fit_delay_exponent(np.concatenate(pooled), grid, 20)
        assert (got.slope, got.ci_low, got.ci_high) == (want.slope, want.ci_low, want.ci_high)
        assert np.array_equal(got.miss_counts, want.miss_counts)

    def test_ncl_fit_reads_the_steady_delays(self, bsc002):
        params = ncl.select_params(bsc002, 0.2, 0.05, 10, 1.0)
        trace = ncl.simulate_ncl_bound_driven(params, 3 * CHUNK + 5, 4)
        grid = ncl.default_delay_grid(params).tolist()
        got = trace.measure_exponent(grid, 30)
        want = bl.fit_delay_exponent(trace.steady_delays(), grid, 30)
        assert (got.slope, got.ci_low, got.ci_high) == (want.slope, want.ci_low, want.ci_high)
        assert not math.isnan(got.slope)
        assert np.array_equal(got.miss_counts, want.miss_counts)
