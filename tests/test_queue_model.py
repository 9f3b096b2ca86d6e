import dataclasses
import math

import numpy as np
import pytest

from delaylab import queue_model as qm
from delaylab.bec_lab import fit_delay_exponent, measure_delay_exponent
from delaylab.dmc import LN2
from delaylab.exponents import bec_focusing_exponent_bits


class TestServiceTimeModel:
    def test_shipped_models_validate(self):
        # construction no longer checks the envelope: check it explicitly
        qm.geometric_service(0.4).check_envelope()
        qm.offset_geometric_service(2, 0.25).check_envelope()
        qm.truncated_geometric_service(0.4, 3).check_envelope()

    def test_construction_draws_no_samples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("constructing a service-time model drew samples")

        monkeypatch.setattr(qm.ServiceTimeModel, "sample", refuse)
        monkeypatch.setattr(qm.ServiceTimeModel, "check_envelope", refuse)
        monkeypatch.setattr(qm, "substream", refuse)
        qm.geometric_service(0.4)
        qm.offset_geometric_service(2, 0.25)
        qm.truncated_geometric_service(0.4, 3)
        qm.ServiceTimeModel(offset=1, tail_beta=0.3, cap=4)
        assert "validate" not in {f.name for f in dataclasses.fields(qm.ServiceTimeModel)}

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            qm.geometric_service(1.5)
        with pytest.raises(ValueError):
            qm.ServiceTimeModel(offset=-1, tail_beta=0.4)
        for cap in (0, -2):
            with pytest.raises(ValueError, match="cap"):
                qm.ServiceTimeModel(offset=0, tail_beta=0.4, cap=cap)

    def test_whole_float_parameters_become_ints(self):
        # a float offset gave float64 service and completion times
        svc = qm.ServiceTimeModel(offset=2.0, tail_beta=0.3, cap=4.0)
        assert type(svc.offset) is int and type(svc.cap) is int
        cfg = qm.QueueConfig(arrival_period=5.0, horizon=300.0, seed=2.0)
        assert [type(v) for v in (cfg.arrival_period, cfg.horizon, cfg.seed)] == [int] * 3
        tr = qm.simulate_point_queue(cfg, svc)
        assert tr.service_times.dtype == tr.done_times.dtype == np.int64
        ref = qm.simulate_point_queue(qm.QueueConfig(5, 300, 2),
                                      qm.ServiceTimeModel(offset=2, tail_beta=0.3, cap=4))
        assert np.array_equal(tr.done_times, ref.done_times)

    @pytest.mark.parametrize("seed", [math.nan, math.inf, 0.5])
    def test_bad_seed_named_at_construction(self, seed):
        with pytest.raises(ValueError, match="^seed must be a whole number, got "):
            qm.QueueConfig(5, 300, seed)

    def test_one_law_for_every_model(self):
        # T = offset + min(Geom(beta), cap): the offset is never dropped
        u = qm.substream(3, 1).random(10_000)
        geo = qm.geometric_service(0.5).inverse_cdf(u)
        assert np.array_equal(qm.ServiceTimeModel(offset=3, tail_beta=0.5).inverse_cdf(u),
                              3 + geo)
        assert np.array_equal(qm.ServiceTimeModel(offset=2, tail_beta=0.5, cap=4)
                              .inverse_cdf(u), 2 + np.minimum(geo, 4))
        assert np.array_equal(qm.truncated_geometric_service(0.5, 4).inverse_cdf(u),
                              np.minimum(geo, 4))

    def test_envelope_checker_catches_heavier_tail(self):
        # a geometric(0.5) sampler against an envelope claiming beta = 0.35
        svc = qm.geometric_service(0.5)
        with pytest.raises(ValueError):
            svc.check_envelope(envelope_beta=0.35)
        svc.check_envelope(envelope_beta=0.6)  # looser envelope is fine

    def test_geometric_tail_law(self):
        svc = qm.geometric_service(0.4)
        t = svc.sample(qm.substream(0, 5), 400_000)
        assert t.min() >= 1
        for k in (1, 3, 6):
            assert (t > k).mean() == pytest.approx(0.4**k, abs=3e-3)


class TestCoupling:
    def test_geometric_coupled_to_itself_is_equal(self):
        svc = qm.geometric_service(0.4)
        u = qm.substream(1, 2).random(100_000)
        assert np.array_equal(svc.inverse_cdf(u),
                              qm.geometric_service(0.4).inverse_cdf(u))
        report = qm.coupled_dominance_check(svc, samples=100_000)
        assert report.ok and report.max_excess == 0

    def test_truncation_only_shrinks(self):
        report = qm.coupled_dominance_check(
            qm.truncated_geometric_service(0.4, 3), samples=1_000_000)
        assert report.ok

    def test_negative_control_detected(self):
        heavy = qm.geometric_service(0.5)
        report = qm.coupled_dominance_check(heavy, samples=200_000,
                                            envelope_beta=0.4)
        assert not report.ok
        assert report.violations > 0

    def test_offset_models_rejected(self):
        with pytest.raises(ValueError):
            qm.coupled_dominance_check(qm.offset_geometric_service(1, 0.4))


class TestSimulation:
    def test_deterministic_unit_service(self):
        # min(geometric, 1) is the constant service time 1
        svc = qm.truncated_geometric_service(0.4, 1)
        tr = qm.simulate_point_queue(qm.QueueConfig(2, 5_000, seed=3), svc)
        assert np.array_equal(tr.done_times, tr.arrival_times + 1)
        assert np.all(tr.waiting_times() == 0)

    def test_lindley_recursion_identity(self):
        svc = qm.geometric_service(0.4)
        cfg = qm.QueueConfig(arrival_period=2, horizon=100_000, seed=5)
        tr = qm.simulate_point_queue(cfg, svc)
        w = tr.waiting_times()
        t = tr.service_times
        ref = np.zeros(len(t))
        for i in range(1, len(t)):
            ref[i] = max(0.0, ref[i - 1] + t[i - 1] - 2)
        assert np.array_equal(w, ref)

    def test_steady_delays_drop_the_warmup(self):
        tr = qm.simulate_point_queue(qm.QueueConfig(5, 300, seed=2),
                                     qm.offset_geometric_service(2, 0.25))
        steady = tr.delays()[qm.WARMUP_MESSAGES:]
        got = measure_delay_exponent(tr, [3, 4, 5], 1)
        want = fit_delay_exponent(steady, [3, 4, 5], 1)
        assert (got.slope, got.miss_probs.tolist()) == (want.slope, want.miss_probs.tolist())
        assert np.array_equal(got.miss_counts / (300 - qm.WARMUP_MESSAGES), got.miss_probs)

    def test_geometric_matches_bec_fifo_exponent(self):
        # same renewal structure as the rate-1/2 erasure FIFO scheme
        svc = qm.geometric_service(0.4)
        tr = qm.simulate_point_queue(qm.QueueConfig(2, 2_000_000, seed=11), svc)
        fit = measure_delay_exponent(tr, range(10, 41, 2), 50)
        assert abs(fit.slope - math.log(1.5)) <= 0.1 * math.log(1.5)


    @pytest.mark.parametrize("period, horizon, message", [
        (0, 10, "^arrival period must be a positive integer$"),
        (2, 0, "^horizon must be a whole number of at least 1 message, got 0$"),
    ])
    def test_config_checks(self, period, horizon, message):
        with pytest.raises(ValueError, match=message):
            qm.QueueConfig(period, horizon)

    @pytest.mark.parametrize("period", [2**61, 2**70])
    def test_times_beyond_int64_rejected(self, period):
        # 2^61 once wrapped to 1,500 negative arrival times, and 2^70 was
        # "Python int too large to convert to C long"
        with pytest.raises(ValueError, match=f"^arrival_period {period} is too long for "
                                             "3000 messages"):
            qm.simulate_point_queue(qm.QueueConfig(period, 3000, 1), qm.geometric_service(0.25))

    @pytest.mark.parametrize("offset", [2**63 - 1, 2**70])
    def test_offset_beyond_int64_rejected(self, offset):
        # 2^70 was "Python int too large to convert to C long" at sampling
        with pytest.raises(ValueError, match=r"^offset must be at most \d+, so that every "
                                             "service time fits in int64, got "):
            qm.offset_geometric_service(offset, 0.25)

    def test_largest_offset_samples_within_int64(self):
        # the largest Geom(0.25) draw, at the largest uniform below 1, is 27
        top = np.iinfo(np.int64).max
        svc = qm.offset_geometric_service(top - 27, 0.25)
        assert svc.inverse_cdf(np.nextafter(1.0, 0.0)) == top
        assert qm.ServiceTimeModel(top - 3, 0.25, cap=3).inverse_cdf(0.999) == top
        with pytest.raises(ValueError, match="^offset must be at most 9223372036854775804,"):
            qm.ServiceTimeModel(top - 2, 0.25, cap=3)

    def test_service_times_beyond_int64_name_the_offset(self):
        # the arrivals fit, their services do not: it blamed arrival_period
        svc = qm.offset_geometric_service(2**62, 0.25)
        with pytest.raises(ValueError, match=f"^service offset {2**62} with arrival_period 5 "
                                             "is too long for 3000 messages"):
            qm.simulate_point_queue(qm.QueueConfig(5, 3000, 1), svc)

    def test_long_period_runs_to_its_bound(self):
        m, svc = 2**40, qm.offset_geometric_service(2, 0.25)
        tr = qm.simulate_point_queue(qm.QueueConfig(m, 3000, 1), svc)
        assert np.all(tr.arrival_times == m * np.arange(1, 3001))
        assert np.all(tr.delays() >= svc.offset + 1)
        # the BEC inversion once stopped at eta = 1e9 and raised here
        assert abs(qm.tail_exponent_bound(m, svc) + math.log(0.25)) <= 1e-12


class TestMeasuredExponent:
    def test_fit_carries_finite_ci(self):
        svc = qm.offset_geometric_service(2, 0.25)
        tr = qm.simulate_point_queue(qm.QueueConfig(5, 400_000, seed=3), svc)
        fit = measure_delay_exponent(tr, [6, 9, 12, 15, 18], 50)
        assert math.isfinite(fit.ci_low) and math.isfinite(fit.ci_high)
        assert fit.ci_low <= fit.slope <= fit.ci_high
        assert type(fit.widened_ci) is bool

    def test_single_deadline_with_misses_is_undetermined(self):
        svc = qm.offset_geometric_service(2, 0.25)
        tr = qm.simulate_point_queue(qm.QueueConfig(5, 2_000, seed=0), svc)
        fit = measure_delay_exponent(tr, [6, 9, 12, 15, 18], 50)
        assert fit.d_values.tolist() == [6.0]
        assert math.isnan(fit.slope) and math.isnan(fit.ci_high)
        assert fit.widened_ci is True


class TestTailExponentBound:
    def test_reduces_to_half_rate_erasure_case(self):
        assert qm.tail_exponent_bound(2, qm.geometric_service(0.4)) == pytest.approx(
            math.log(1.5), abs=1e-9)

    def test_no_slack_gives_zero(self):
        svc = qm.offset_geometric_service(2, 0.25)
        assert qm.tail_exponent_bound(3, svc) == 0.0

    def test_reduced_rate_case(self):
        svc = qm.offset_geometric_service(2, 0.25)
        expected = bec_focusing_exponent_bits(0.25, 1.0 / 3) * LN2
        assert qm.tail_exponent_bound(5, svc) == pytest.approx(expected, abs=1e-12)

    def test_is_the_reduced_rate_exponent_at_the_slack(self):
        for svc in (qm.geometric_service(0.4), qm.offset_geometric_service(2, 0.25),
                    qm.truncated_geometric_service(0.3, 4)):
            for m in range(svc.offset + 1, svc.offset + 12):
                assert qm.tail_exponent_bound(m, svc) == \
                    qm.reduced_rate_exponent(svc.tail_beta, m - svc.offset)

    def test_reduced_rate_exponent_zero_without_slack(self):
        assert qm.reduced_rate_exponent(0.25, 0) == 0.0
        assert qm.reduced_rate_exponent(0.25, -2) == 0.0
        assert qm.reduced_rate_exponent(0.25, 1) == 0.0  # R'' = 1 >= 1 - beta
        assert qm.reduced_rate_exponent(0.25, 2) > 0.0

    def test_period_must_exceed_offset(self):
        with pytest.raises(ValueError):
            qm.tail_exponent_bound(2, qm.offset_geometric_service(2, 0.25))

    def test_measured_exponent_respects_bound(self):
        svc = qm.offset_geometric_service(2, 0.25)
        bound = qm.tail_exponent_bound(5, svc)
        tr = qm.simulate_point_queue(qm.QueueConfig(5, 2_000_000, seed=13), svc)
        fit = measure_delay_exponent(tr, range(6, 40, 3), 50)
        assert fit.slope >= bound * 0.85

    def test_every_shipped_model_respects_bound(self):
        cases = [
            (qm.geometric_service(0.4), 2),
            (qm.geometric_service(0.25), 2),
            (qm.truncated_geometric_service(0.4, 4), 2),
            (qm.offset_geometric_service(1, 0.3), 3),
        ]
        for svc, m in cases:
            bound = qm.tail_exponent_bound(m, svc)
            tr = qm.simulate_point_queue(qm.QueueConfig(m, 1_000_000, seed=7), svc)
            fit = measure_delay_exponent(tr, range(2 * m, 24 * m, m), 50)
            assert fit.slope >= bound * 0.85 - 1e-9
