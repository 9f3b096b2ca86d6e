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
from oracles import (check_envelope_oneshot, coupled_dominance_check_oneshot,
                     erasure_pattern_oneshot, fifo_completions_oneshot, fit_delay_exponent_lstsq,
                     miss_counts_float, miss_probability_oneshot, parity_decode_oneshot,
                     queue_seen_by_arrivals_oneshot, series_by_search, simulate_fifo_oneshot)

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
        kept = nbytes(trace.arrival_times, trace.done_times)
        assert peak <= kept + fifo_working_bytes(trace) + ALLOWANCE

    def test_point_queue(self):
        trace, peak = traced_peak(lambda: qm.simulate_point_queue(QUEUE, SERVICE))
        kept = nbytes(trace.arrival_times, trace.done_times, trace.service_times)
        assert peak <= kept + ALLOWANCE

    def test_ncl_bound_driven(self, bsc002):
        params = ncl.select_params(bsc002, 0.2, 0.05, 10, 1.0)
        trace, peak = traced_peak(lambda: ncl.simulate_ncl_bound_driven(params, 280_000, 7))
        kept = nbytes(trace.arrival_times, trace.service_starts, trace.transmission_times,
                      trace.done_times)
        assert peak <= kept + ALLOWANCE
        grid = ncl.default_delay_grid(params).tolist()
        _, peak = traced_peak(lambda: trace.measure_exponent(grid, 30))
        assert peak <= ALLOWANCE

    def test_fits_hold_no_delay_sample(self):
        trace = bl.simulate_fifo(BEC)
        _, peak = traced_peak(lambda: bl.measure_delay_exponent(trace, range(10, 41, 2)))
        assert peak <= ALLOWANCE

    @pytest.mark.parametrize("statistic", [
        lambda trace: bl.miss_probability(trace, 10), bl.queue_seen_by_arrivals],
        ids=["miss_probability", "queue_seen_by_arrivals"])
    def test_acceptance_statistics(self, statistic):
        trace = bl.simulate_fifo(BEC)
        result, peak = traced_peak(lambda: statistic(trace))
        assert peak <= (result.nbytes if isinstance(result, np.ndarray) else 0) + ALLOWANCE

    @pytest.mark.parametrize("check", [qm.coupled_dominance_check,
                                       qm.ServiceTimeModel.check_envelope],
                             ids=["coupled_dominance_check", "check_envelope"])
    def test_service_checks(self, check):
        _, peak = traced_peak(lambda: check(qm.truncated_geometric_service(0.4, 3)))
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
        kept = nbytes(trace.arrival_times, trace.done_times, *series.values())
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
        kept = nbytes(trace.arrival_times, trace.done_times, trace.service_times)
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
        assert np.array_equal(fifo.done_times, d)
        parity = bl.simulate_causal_parity_nofeedback(cfg)
        assert np.array_equal(parity.done_times, parity_decode_oneshot(a, d))
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
        assert np.array_equal(fifo.done_times, d)
        parity = bl.simulate_causal_parity_nofeedback(cfg)
        assert np.array_equal(parity.done_times, parity_decode_oneshot(a, d))

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

    @pytest.mark.parametrize("bits", LENGTHS)
    def test_acceptance_statistics(self, bits):
        with pytest.warns(UserWarning):  # near capacity: bits left undecoded
            cfg = bl.BecConfig(beta=0.45, rate_bits=0.55, horizon=2 * bits + 1, seed=bits)
        trace = bl.simulate_fifo(cfg)
        backlog = queue_seen_by_arrivals_oneshot(trace)
        assert np.array_equal(bl.queue_seen_by_arrivals(trace), backlog)
        for d in (0, 3, 3.5, 7, 1e9, -2.0):
            got, want = bl.miss_probability(trace, d), miss_probability_oneshot(trace, d)
            assert [x.hex() for x in got] == [x.hex() for x in want], d

    def test_fifo_order_checked_across_chunks(self):
        done = np.arange(1.0, 2 * CHUNK + 1)
        done[[CHUNK - 1, CHUNK]] = done[[CHUNK, CHUNK - 1]]
        run = bl.SimTrace(arrival_times=np.arange(2 * CHUNK), done_times=done, steady=0,
                          horizon=2 * CHUNK + 1)
        with pytest.raises(ValueError, match="^decode times must be FIFO-ordered$"):
            bl.queue_seen_by_arrivals(run)

    @pytest.mark.parametrize("samples", LENGTHS)
    def test_coupled_dominance_check(self, samples):
        for svc, envelope in [(qm.truncated_geometric_service(0.4, 3), None),
                              (qm.geometric_service(0.5), 0.4), (qm.geometric_service(0.3), 0.3)]:
            report = qm.coupled_dominance_check(svc, samples, envelope)
            assert report.samples == samples
            assert (report.violations, report.max_excess) == \
                coupled_dominance_check_oneshot(svc, samples, envelope)

    @pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK + 1, qm.ENVELOPE_SAMPLES])
    def test_check_envelope(self, samples, monkeypatch):
        monkeypatch.setattr(qm, "ENVELOPE_SAMPLES", samples)
        for svc, envelope in [(qm.geometric_service(0.4), None), (qm.geometric_service(0.5), 0.35),
                              (qm.offset_geometric_service(2, 0.25), 0.6),
                              (qm.ServiceTimeModel(3, 0.9, 2), 0.05)]:
            try:
                svc.check_envelope(envelope)
                message = None
            except ValueError as exc:
                message = str(exc)
            assert message == check_envelope_oneshot(svc, envelope)


def two_runs(kind, channel):
    """Two runs of ``kind`` on seeds 1 and 2, the FIFO, parity, queue and
    bound-driven runs each of more than three chunks of items, and the
    grid and ``min_misses`` to fit them on."""
    items = 3 * CHUNK + 5
    params = ncl.select_params(channel, 0.2, 0.05, 10, 1.0)

    def run(seed):
        if kind in ("fifo", "parity"):
            # at rate 1/2 the bits arriving before use 2 items + 1 are exactly items
            cfg = bl.BecConfig(beta=0.3, rate_bits=0.5, horizon=2 * items + 1, seed=seed)
            simulate = bl.simulate_fifo if kind == "fifo" else bl.simulate_causal_parity_nofeedback
            return simulate(cfg)
        if kind == "queue":
            return qm.simulate_point_queue(qm.QueueConfig(5, items, seed), SERVICE)
        if kind == "bound_driven":
            return ncl.simulate_ncl_bound_driven(params, items, seed)
        return ncl.simulate_ncl_exact_tiny(channel, params, 4_000, seed)

    grid, min_misses = {"fifo": (list(range(4, 30, 3)), 20), "parity": (list(range(4, 30, 3)), 20),
                        "queue": ([6, 9, 12, 15, 18], 50),
                        "bound_driven": (ncl.default_delay_grid(params).tolist(), 30),
                        # most blocks commit after one or two chunks, 50 or 60 uses
                        "exact_tiny": ([45, 55, 65, 75], 5)}[kind]
    return [run(1), run(2)], grid, min_misses


def fit_bits(fit):
    return ([float(x).hex() for x in (fit.slope, fit.ci_low, fit.ci_high)],
            fit.d_values.tobytes(), fit.miss_probs.tobytes(), fit.miss_counts.tobytes(),
            fit.unbounded, fit.widened_ci)


KINDS = ["fifo", "parity", "queue", "bound_driven", "exact_tiny"]


class TestOneRecord:
    """Every simulator returns a ``bec_lab.DelayRun``, and every fit reads
    its steady delays censored at its horizon less the largest deadline."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_fits_read_the_censored_steady_delays(self, bsc002, kind):
        runs, grid, min_misses = two_runs(kind, bsc002)
        kept = []
        for run in runs:
            # censored by a mask over the arrival times, not by a search
            arrived = run.arrival_times[run.steady:] <= run.horizon - max(grid)
            kept.append(run.delays()[run.steady:][arrived])
            assert 0 < arrived.sum() < len(arrived) or run.horizon == math.inf
            want = bl.fit_delay_exponent(kept[-1], grid, min_misses)
            assert not math.isnan(want.slope)
            assert fit_bits(bl.measure_delay_exponent(run, grid, min_misses)) == fit_bits(want)
            if isinstance(run, ncl.NclTrace):  # a grid may be any iterable
                assert fit_bits(run.measure_exponent(iter(grid), min_misses)) == fit_bits(want)
        # the runs pool in order
        want = bl.fit_delay_exponent(np.concatenate(kept), grid, min_misses)
        assert fit_bits(bl.measure_delay_exponent(runs, iter(grid), min_misses)) == fit_bits(want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_steady_is_the_warmup_rule(self, bsc002, kind):
        runs, _, _ = two_runs(kind, bsc002)
        for run in runs:
            assert isinstance(run, bl.DelayRun)
            if kind in ("fifo", "parity"):
                # the bits that arrive from use burn_in_steps(beta) on, at beta = 0.3
                first = int(np.flatnonzero(run.arrival_times >= bl.burn_in_steps(0.3))[0])
                assert (run.steady, run.horizon, run.shift) == (first, 2 * (3 * CHUNK + 5) + 1, 0)
            elif kind == "queue":
                assert (run.steady, run.horizon, run.shift) == (qm.WARMUP_MESSAGES, math.inf, 0)
            else:
                params = ncl.select_params(bsc002, 0.2, 0.05, 10, 1.0)
                assert (run.steady, run.horizon, run.shift) == \
                    (ncl.WARMUP_BLOCKS, math.inf, params.block_period)
