"""The input contract of the public API: a bad number raises ``ValueError``.

The callables are everything ``delaylab/__init__.py`` exports, dataclass
constructors included, and their numeric parameters are read off the
signatures: those annotated ``int`` or ``float`` (or either ``| None``).  nan
must raise in each of them; so must +-inf, since every such parameter asks
for a finite value; and a fraction must raise wherever an integer is asked
for.  A new public function is checked as soon as it is exported: the tests
fail until it has a valid call in ``VALID``, which the bad values are put
into one at a time, or its parameters an entry, with the reason, in
``EXEMPT``.  The second part pins each input that once came back as a
number, or as an unrelated error, instead of a ``ValueError`` naming the
argument."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaylab
from delaylab import bec_lab as bl, dmc, exponents as ex, ncl_scheme as ncl, queue_model as qm

NAN, INF = math.nan, math.inf
BSC = dmc.bsc(0.02)
PARAMS = ncl.select_params(BSC, 0.1, 0.05, 10, 1.0)
TINY = ncl.NclParams(n=2, c=2, l=1, k=3, rho=1.0, q=np.array([0.5, 0.5]),
                     rate=math.log(8) / 12, e0=ex.e0_max(BSC, 1.0)[0])
SPLIT = ncl.two_stream_split(BSC, 0.1)
FIFO = bl.simulate_fifo(0.3, 0.5, 20_000)
NCL_RUN = ncl.simulate_ncl_bound_driven(PARAMS, 200)
SVC = qm.ServiceTimeModel(offset=0, tail_beta=0.4)

# keyword arguments of one call that succeeds, per public callable with a
# numeric parameter
VALID = {
    "FocusingPoint": dict(eta=1.0, rate=0.2, exponent=0.2, lambda_star=0.5),
    "NclParams": {field.name: getattr(PARAMS, field.name) for field in dataclasses.fields(PARAMS)},
    "ServiceTimeModel": dict(offset=1, tail_beta=0.4, cap=5),
    "TwoStreamSplit": {field.name: getattr(SPLIT, field.name) for field in dataclasses.fields(SPLIT)},
    "bec": dict(beta=0.4),
    "bec_anytime_capacity": dict(beta=0.4, alpha_bits=0.5),
    "bec_focusing_exponent_bits": dict(beta=0.4, rate_bits=0.3),
    "bec_focusing_point_bits": dict(beta=0.4, eta=1.0),
    "bec_lowrate_floor": dict(beta=0.01, r=1.0),
    "birth_death_stationary": dict(beta=0.3, kmax=10),
    "bound_at_rate": dict(p=BSC, name="focusing", r=0.3, fortify_k=50),
    "bound_curve": dict(p=BSC, name="esp", rates=[0.1, 0.3], fortify_k=50),
    "bsc": dict(p=0.02),
    "burnashev_bound": dict(p=BSC, r_bar=0.3, fortify_k=None),
    "coupled_dominance_check": dict(svc=SVC, samples=1000, envelope_beta=0.4),
    "delayed_feedback_adjust": dict(params=PARAMS, phi=2),
    "divergence_rate": dict(p=BSC, fortify_k=50),
    "e0_max": dict(p=BSC, rho=0.7, fortify_k=50),
    "fit_delay_exponent": dict(delays=np.arange(4000) % 20, d_grid=[2, 4, 8], min_misses=10),
    "focusing_bound": dict(p=BSC, r=0.3, fortify_k=50),
    "focusing_parametric_curve": dict(p=BSC, eta_grid=[0.5, 1.0], fortify_k=50),
    "gallager_e0": dict(p=BSC, rho=0.7, q=[0.5, 0.5], fortify_k=50),
    "haroutunian": dict(p=BSC, r=0.3, variant="standard"),
    "identity_channel": dict(size=3),
    "maximize_concave_1d": dict(f=lambda x: -(x - 1.0) ** 2, lo=0.0, hi=3.0, tol=1e-9),
    "maximize_e0": dict(rows=[[0.9, 0.1], [0.2, 0.8]], rho=0.7),
    "maximize_over_simplex": dict(f=lambda q: -float(q @ q), dim=2, tol=1e-6),
    "measure_delay_exponent": dict(traces=FIFO, d_grid=[2, 4, 6], min_misses=10),
    "minimize_convex_on_simplex": dict(oracle=lambda q: (float(q @ q), 2.0 * q), dim=2),
    "minimize_over_channels": dict(objective=lambda g: float(g.rows[0, 0]),
                                   feasible=lambda g: True, dims=(2, 2), restarts=1),
    "miss_probability": dict(trace=FIFO, d=4.0),
    "random_coding_list": dict(p=BSC, r=0.3, list_size=2, fortify_k=50),
    "select_params": dict(p=BSC, rate=0.1, delta=0.05, k=10, rho=1.0),
    "simulate_causal_parity_nofeedback": dict(beta=0.4, rate_bits=0.5, horizon=100, seed=0),
    "simulate_fifo": dict(beta=0.4, rate_bits=0.5, horizon=100, seed=0),
    "simulate_ncl_bound_driven": dict(params=PARAMS, horizon_blocks=20, seed=0),
    "simulate_ncl_exact_tiny": dict(p=BSC, params=TINY, horizon_blocks=5, seed=0,
                                    n_messages=8, feedback_lag=1),
    "simulate_point_queue": dict(svc=SVC, arrival_period=3, horizon=10, seed=0),
    "simulate_two_stream": dict(p=BSC, split=SPLIT, horizon_blocks=200, seed=0, k=10,
                                delta=0.05),
    "sphere_packing": dict(p=BSC, r=0.3, fortify_k=50),
    "tail_exponent_bound": dict(m=3, svc=SVC),
    "timesharing_curve": dict(p=BSC, rho_grid=[0.5, 2.0], fortify_k=50),
    "timesharing_exponent": dict(p=BSC, rho=0.7, fortify_k=50),
    "transmission_tail_bound": dict(params=PARAMS, t=2),
    "two_stream_split": dict(p=BSC, rate=0.1),
    "union_bound_exact": dict(beta=0.3, rate_bits=0.5, i=5, d=4),
    "z_channel": dict(nulling=0.5),
    "zero_error_feedback_capacity": dict(p=BSC, fortify_k=50),
}

RECORD = "a record of results, whose fields are data: a value may be nan or +inf"
# (callable, parameter) -> why a bad number there needs no ValueError; a
# parameter of None exempts every numeric parameter of the callable
EXEMPT = {
    ("nats_from_bits", None): "a unit conversion: nan and +-inf convert exactly",
    ("bits_from_nats", None): "a unit conversion: nan and +-inf convert exactly",
    ("ConvergenceError", None): "an error report: its residual is +inf where no point is "
                                "feasible",
    ("ConvexSolution", None): RECORD,
    ("E0Solution", None): RECORD,
    ("Search1DResult", None): RECORD,
    ("DelayExponentFit", None): RECORD + " (an unbounded fit has slope +inf, an "
                                "undetermined one nan)",
    ("SimTrace", None): RECORD + "; the simulators build it from checked arguments",
}

NUMERIC = re.compile(r"(int|float)( \| None)?")


def public_callables() -> dict:
    """Every function and class that ``delaylab`` exports."""
    return {name: obj for name, obj in vars(delaylab).items()
            if not name.startswith("_") and callable(obj)}


def numeric_parameters(obj) -> dict[str, str]:
    """name -> "int" or "float" for each parameter of ``obj``, or field of a
    dataclass, annotated with that type (or with it | None)."""
    if dataclasses.is_dataclass(obj):
        typed = [(field.name, field.type) for field in dataclasses.fields(obj) if field.init]
    else:
        typed = [(p.name, p.annotation) for p in inspect.signature(obj).parameters.values()]
    return {name: NUMERIC.fullmatch(kind)[1] for name, kind in typed
            if isinstance(kind, str) and NUMERIC.fullmatch(kind)}


CASES = [(name, param, kind) for name, obj in sorted(public_callables().items())
         if (name, None) not in EXEMPT
         for param, kind in numeric_parameters(obj).items() if (name, param) not in EXEMPT]


def test_every_public_callable_with_a_number_is_covered():
    public = public_callables()
    assert {name for name, _, _ in CASES} == set(VALID)
    for name, param in EXEMPT:
        assert name in public
        assert param is None or param in numeric_parameters(public[name])
    assert len(CASES) >= 70


def test_the_annotations_are_read():
    assert numeric_parameters(delaylab.sphere_packing) == {"r": "float", "fortify_k": "int"}
    assert numeric_parameters(delaylab.simulate_point_queue) == {
        "arrival_period": "int", "horizon": "int", "seed": "int"}


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_call_runs(name):
    public_callables()[name](**VALID[name])


@pytest.mark.parametrize("name, param, kind", CASES, ids=[f"{n}.{p}" for n, p, _ in CASES])
@settings(max_examples=4)
@given(fraction=st.floats(1.0, 1e6).filter(lambda x: x != math.floor(x)))
def test_a_bad_number_raises(name, param, kind, fraction):
    for value in (NAN, INF, -INF, *([fraction] if kind == "int" else [])):
        with pytest.raises(ValueError):
            public_callables()[name](**{**VALID[name], param: value})


def test_infinite_delays_and_deadlines_are_data():
    # a delay that never ends misses every finite deadline, and no delay
    # misses a deadline of +inf, which the fit then leaves out
    fit = bl.fit_delay_exponent([1.0, 2.0, INF, 3.0] * 300, [1, 2, INF], 1)
    assert fit.d_values.tolist() == [1, 2]
    assert fit.miss_counts.tolist() == [900, 600]
    # and a finite nonpositive rate has an infinite BEC focusing exponent
    assert ex.bec_focusing_exponent_bits(0.4, -1.0) == INF


@pytest.mark.parametrize("call, message", [
    (lambda: ex.bound_at_rate(BSC, "focusing", 0.3, fortify_k=NAN), "^fortification period"),
    (lambda: ex.bound_at_rate(BSC, "timesharing", 0.3, fortify_k=NAN), "^fortification period"),
    (lambda: ex.bound_curve(BSC, "esp", [0.1, 0.3], NAN), "fortification period"),
    (lambda: ex.sphere_packing(BSC, 0.1, fortify_k=INF), "^fortification period"),
    (lambda: ex.bound_at_rate(BSC, "focusing", 0.3, fortify_k=2.5), "^fortification period"),
    (lambda: ncl.select_params(BSC, 0.1, 0.05, 2.5, 1.0), "^fortification period"),
    (lambda: ncl.select_params(BSC, 0.1, 0.05, NAN, 1.0), "^fortification period"),
    (lambda: ex.random_coding_list(BSC, 0.1, 2.5), "^list size"),
    (lambda: ex.random_coding_list(BSC, 0.1, NAN), "^list size"),
    (lambda: dmc.validate_distribution([NAN, 1.0]), "^input distribution"),
    (lambda: dmc.divergence_conditional(BSC, BSC, [NAN, 1.0]), "^input distribution"),
    (lambda: ex.gallager_e0(BSC, 1.0, [NAN, 1.0]), "^input distribution"),
    (lambda: ex.bec_focusing_exponent_bits(0.4, NAN), "^rate must be finite, got nan$"),
    (lambda: ex.bec_focusing_point_bits(0.4, NAN), "^eta must be finite, got nan$"),
    (lambda: ex.bec_lowrate_floor(0.4, NAN), "^r must be finite, got nan$"),
    (lambda: bl.simulate_fifo(0.4, NAN, 100), "^rate must be finite, got nan$"),
    (lambda: ncl.NclParams(**{**VALID["NclParams"], "rate": NAN}), "^rate must be below"),
    (lambda: bl.union_bound_exact(NAN, 0.5, 5, 5), "^erasure probability"),
    (lambda: ncl.transmission_tail_bound(PARAMS, NAN), "^t must be a positive integer"),
    (lambda: ncl.scheme_exponent_curve(BSC, 10, 3, 2, 50, [NAN]), "^rate must be finite"),
    (lambda: ex.divergence_rate(BSC, NAN), "^fortification period"),
    (lambda: bl.fit_delay_exponent(np.arange(4000) % 20, [NAN, 2, 3], 10), "deadlines"),
    (lambda: bl.fit_delay_exponent([1.0, NAN, 2.0, 3.0], [1, 2], 1), "delays"),
    (lambda: ex.focusing_parametric_curve(BSC, [1.0, NAN]), "^eta grid must be positive$"),
    (lambda: bl.fit_delay_exponent(np.array([1, 2, 3, 50]), [], 1), "^d_grid"),
    (lambda: bl.measure_delay_exponent(FIFO, []), "^d_grid"),
    (lambda: NCL_RUN.measure_exponent(iter([])), "^d_grid"),
    (lambda: bl.measure_delay_exponent([], [2, 4, 6]), "^traces must hold at least one run$"),
    (lambda: FIFO.series(0), "^stride must be a positive integer, got 0$"),
    (lambda: FIFO.series(-1), "^stride must be a positive integer, got -1$"),
    (lambda: FIFO.series(2.5), "^stride must be a positive integer, got 2.5$"),
    (lambda: FIFO.series(NAN), "^stride must be a positive integer, got nan$"),
    (lambda: SVC.sample(bl.substream(0, 1), 2.5), "^size must be a nonnegative integer, got 2.5$"),
    (lambda: SVC.sample(bl.substream(0, 1), NAN), "^size must be a nonnegative integer, got nan$"),
], ids=["focusing_k_nan", "timesharing_k_nan", "curve_k_nan", "esp_k_inf", "focusing_k_frac",
        "select_k_frac", "select_k_nan", "list_size_frac", "list_size_nan", "law_nan",
        "divergence_law_nan", "e0_law_nan", "bec_exponent_rate", "bec_point_eta",
        "bec_floor_r", "fifo_rate", "ncl_params_rate", "union_beta", "tail_t",
        "scheme_rate", "divergence_rate_k", "fit_deadline", "fit_delay", "parametric_eta",
        "fit_empty_grid", "measure_empty_grid", "ncl_measure_empty_grid", "measure_no_runs",
        "series_stride_0", "series_stride_neg", "series_stride_frac", "series_stride_nan",
        "sample_size_frac", "sample_size_nan"])
def test_once_answered_with_a_number(call, message):
    # each of these returned a number, nan included, or raised another
    # error, instead of a ValueError naming the argument
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_floats_count_as_their_ints():
    # the record methods take a whole number of any numeric type, as check_count does
    for name, column in FIFO.series(2.0).items():
        assert np.array_equal(column, FIFO.series(2)[name]), name
    assert np.array_equal(SVC.sample(bl.substream(0, 1), 3.0), SVC.sample(bl.substream(0, 1), 3))
