"""Command-line front door: channel ingestion, bound tables and curves,
simulations, and figure-data reproduction.

Every input (channel files, sim configs and their nested ``service`` and
``channel`` objects, ``--rate``, the grids, ``--bounds``) is read field by
field through ``_take``; a field that its kind or mode does not read exits 2
naming it.  Exit codes: 0 ok, 2 parse failure or a file that cannot be
read or written (an ``OSError``, such as an output path under a missing
directory or a regular file), 3 infeasible rate, 4 unknown target, 5 a
solver hit its iteration cap or missed its certificate (message has the
residual).  All diagnostics go to stderr, one line each, a warning as
"delaylab: warning: <message>"; stdout carries only requested tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bec_lab, ncl_scheme, queue_model
from .dmc import (LN2, ConvergenceError, Dmc, bec, bits_from_nats, bsc, nats_from_bits,
                  z_channel)
from .exponents import (
    KNOWN_BOUNDS,
    CurveError,
    _list_size,
    bound_at_rate,
    bound_curves,
    capacity_slope_focusing,
    capacity_slope_timesharing,
    e0_max,
    focusing_parametric_curve,
    solved_as,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_UNKNOWN = 4
EXIT_SOLVER = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")


def _fields(value, what: str) -> dict:
    """A copy of the JSON object ``value`` for ``_take`` to empty; any other value exits 2."""
    if type(value) is not dict:
        raise CliError(EXIT_PARSE, f"{what} must be a JSON object, got {value!r}")
    return dict(value)


def _take(fields: dict, name: str, default=..., read=None):
    """Remove field ``name`` from ``fields`` and return ``read(value, name)``
    (the value itself without ``read``), or ``default`` when it is absent;
    an absent field without a default exits 2."""
    if name not in fields:
        if default is ...:
            raise CliError(EXIT_PARSE, f"missing field '{name}'")
        return default
    value = fields.pop(name)
    return value if read is None else read(value, name)


def _done(fields: dict, what: str) -> None:
    """Exit 2 naming every field of ``what`` that no ``_take`` removed."""
    if fields:
        raise CliError(EXIT_PARSE, f"unread field(s) in {what}: {', '.join(fields)}")


def _count(value, name: str, least: int = 1) -> int:
    """A JSON integer, positive (or, with ``least`` 0, nonnegative)."""
    if type(value) is not int or value < least:
        sign = "positive" if least == 1 else "nonnegative"
        raise CliError(EXIT_PARSE, f"{name} must be a {sign} integer, got {value!r}")
    return value


_natural = functools.partial(_count, least=0)  # a nonnegative JSON integer


def _or_none(read):
    """``read`` that returns a JSON null as None, as if the field were absent."""
    return lambda value, name: None if value is None else read(value, name)


def _real(value, name: str) -> float:
    """A JSON number inside the float range, not a boolean."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise CliError(EXIT_PARSE, f"{name} must be a finite number, got {value!r}")
    return float(value)


def _grid(value, name: str) -> list[float]:
    """A nonempty list of finite numbers: an empty deadline list leaves
    nothing to fit (omit the field for the kind's default grid)."""
    if type(value) is not list:
        raise CliError(EXIT_PARSE, f"{name} must be a list of numbers, got {value!r}")
    if not value:
        raise CliError(EXIT_PARSE, f"{name} must not be empty (omit it for the default grid)")
    return [_real(d, f"{name} entry") for d in value]


def _channel(value, name: str) -> Dmc:
    """A channel object {matrix, name?}; ``name`` is its default name.  The
    matrix is a list of rows, each a list of numbers or decimal strings."""
    fields = _fields(value, name)
    matrix = _take(fields, "matrix")
    label = str(_take(fields, "name", name))
    _done(fields, name)
    try:
        if type(matrix) is not list or not all(type(row) is list for row in matrix):
            raise TypeError(f"want a list of rows, got {matrix!r}")
        return Dmc(np.array([[float(v) for v in row] for row in matrix]), name=label)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(EXIT_PARSE, f"{name}: bad matrix: {exc}")


def load_channel(path: str) -> tuple[Dmc, int | None]:
    """Parse a channel file {name?, matrix, k?}: probabilities may be floats
    or decimal strings, and k, the fortification period, is a positive
    integer (null is absent)."""
    fields = _fields(_load_json(path), path)
    fortify_k = _take(fields, "k", None, _or_none(_count))
    return _channel(fields, Path(path).stem), fortify_k


def _parse_grid(text: str, option: str) -> np.ndarray:
    try:
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad {option} '{text}' (want lo:hi:count): {exc}")
    return np.linspace(_real(lo, f"{option} start"), _real(hi, f"{option} end"),
                       _count(num, f"{option} count"))


def _bound_names(text: str) -> list[str]:
    """The names of a comma list; an unknown one exits 4, none at all 2."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise CliError(EXIT_PARSE, f"--bounds names no bound, got '{text}'")
    for name in names:
        if name not in KNOWN_BOUNDS and _list_size(name) is None:
            raise CliError(EXIT_UNKNOWN, f"unknown bound '{name}' "
                           f"(known: {', '.join(KNOWN_BOUNDS)}, erL)")
    return names


def _solve_once(channel: Dmc, fortify_k: int | None, names: list[str],
                rate: float) -> list[tuple[str, float]]:
    """(name, bound_at_rate(s)) for every name, s the bound ``solved_as``
    names, each distinct s solved once.  A ``ValueError`` exits 3 with the
    message "<name>: <error>", naming the bound that was asked for."""
    rows, solved = [], {}
    for name in names:
        try:
            same = solved_as(channel, name, fortify_k)
            if same not in solved:
                solved[same] = bound_at_rate(channel, same, rate, fortify_k)
        except ValueError as exc:
            raise CliError(EXIT_INFEASIBLE, f"{name}: {exc}")
        rows.append((name, solved[same]))
    return rows


def _curve_columns(channel: Dmc, fortify_k: int | None, names: list[str],
                   rates) -> dict[str, list[float]]:
    """The curve on ``rates`` of every name, all the distinct bounds that
    ``solved_as`` names in one ``bound_curves`` run.  A ``ValueError`` exits
    3 with the message "<name> <error>", naming the first bound asked for,
    in the order asked, whose solve fails, as solving them one by one
    would."""
    firsts, failed = {}, None  # each distinct solve: the first name asking for it
    for name in names:
        try:
            firsts.setdefault(solved_as(channel, name, fortify_k), name)
        except ValueError as exc:
            failed = CliError(EXIT_INFEASIBLE, f"{name} {exc}")
            break
    try:
        curves = bound_curves(channel, [(same, rates, fortify_k) for same in firsts])
    except CurveError as exc:
        raise CliError(EXIT_INFEASIBLE, f"{[*firsts.values()][exc.column]} {exc}")
    if failed:
        raise failed
    solved = dict(zip(firsts, curves))
    return {name: solved[solved_as(channel, name, fortify_k)] for name in names}


def cmd_bounds(args) -> int:
    channel, fortify_k = load_channel(args.channel)
    rate = _real(args.rate, "--rate")
    rate_nats = nats_from_bits(rate) if args.bits else rate
    if rate_nats < 0:
        raise CliError(EXIT_INFEASIBLE, "rate must be nonnegative")
    names = _bound_names(args.bounds)
    rows = _solve_once(channel, fortify_k, names, rate_nats)
    print("bound,rate_nats,rate_bits,value_nats,value_bits")
    for name, val in rows:
        print(f"{name},{_fmt(rate_nats)},{_fmt(bits_from_nats(rate_nats))},"
              f"{_fmt(val)},{_fmt(bits_from_nats(val))}")
    return EXIT_OK


def _write_curve_csv(path: Path, rates: np.ndarray, columns: dict[str, list[float]]) -> None:
    names = list(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write("rate_nats,rate_bits," + ",".join(names) + "\n")
        for i, r in enumerate(rates):
            vals = ",".join(_fmt(columns[n][i]) for n in names)
            fh.write(f"{_fmt(r)},{_fmt(bits_from_nats(r))},{vals}\n")


def _check_writable(path: Path) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise, before the
    work that fills it, and leave no file behind: one the check creates is
    removed again, an existing one is opened without truncating it."""
    existed = path.exists()
    with open(path, "a"):
        pass
    if not existed:
        path.unlink()


def cmd_curve(args) -> int:
    if args.eta_grid and (args.rate_grid or args.bits):
        raise CliError(EXIT_PARSE, "--eta-grid takes neither --rate-grid nor --bits")
    channel, fortify_k = load_channel(args.channel)
    names = _bound_names(args.bounds)
    if args.eta_grid:
        etas = _parse_grid(args.eta_grid, "--eta-grid")
        if np.any(etas <= 0):
            raise CliError(EXIT_INFEASIBLE, "eta grid must be positive")
    else:
        rates = np.sort(_parse_grid(args.rate_grid or "0.01:0.5:25", "--rate-grid"))
        if args.bits:
            rates = rates * LN2
        if np.any(rates < 0):
            raise CliError(EXIT_INFEASIBLE, "rates must be nonnegative")
    out = Path(args.out)
    _check_writable(out)
    if args.eta_grid:
        rates = np.array([e0_max(channel, eta, fortify_k)[0] / eta
                          for eta in sorted(etas, reverse=True)])
    columns = _curve_columns(channel, fortify_k, names, rates)
    if args.format == "json":
        payload = {
            "channel": channel.name,
            "digest": channel.digest(),
            "rate_nats": [float(r) for r in rates],
            "bounds": {n: [None if math.isinf(v) else v for v in vals]
                       for n, vals in columns.items()},
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write_curve_csv(out, rates, columns)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------

# rows formatted per write: bounds the byte matrices built for them, about
# a hundred bytes a row, near the working buffers of the simulators
TRACE_CHUNK_ROWS = 1 << 14


def _text_field(text: str, rows: int) -> np.ndarray:
    """``text`` in every row, as a (len(text), rows) uint8 matrix."""
    code = np.frombuffer(text.encode(), dtype=np.uint8)
    return np.broadcast_to(code[:, None], (len(code), rows))


def _int_field(col: np.ndarray) -> np.ndarray:
    """``str`` of each int of ``col``, which must be nonnegative, as a (W,
    rows) uint8 matrix of right-aligned decimal digits, W the largest
    value's digit count, leading positions NUL for the writer to delete."""
    if col.dtype.kind not in "iu" or col.min() < 0:
        raise ValueError(f"trace columns hold nonnegative integers, got {col.dtype} values")
    top = int(col.max())
    width = len(str(top))
    q = col.astype(np.uint32 if top <= np.iinfo(np.uint32).max else np.uint64)
    field = np.zeros((width, len(col)), dtype=np.uint8)
    for pos in reversed(range(width)):
        nxt = q // 10
        field[pos] = q - 10 * nxt
        field[pos] += 48
        if pos < width - 1:
            field[pos] *= q != 0
        q = nxt
    return field


def _write_trace_csv(path: Path, header: list[str], columns_by_trial) -> None:
    """Write ``header``, then one row "trial,v1,v2,..." per index of each
    trial's equal-length numpy columns of nonnegative ints (all that the
    simulators record).  Each chunk of rows is one uint8 matrix with a row
    per byte position of the CSV line and a column per CSV row, NUL where a
    field is shorter than its widest value; the chunk's text is the
    transposed matrix's bytes with every NUL deleted."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for trial, columns in enumerate(columns_by_trial):
            rows = len(columns[0])
            for start in range(0, rows, TRACE_CHUNK_ROWS):
                stop = min(start + TRACE_CHUNK_ROWS, rows)
                parts = [_text_field(f"{trial},", stop - start)]
                for j, col in enumerate(columns):
                    parts.append(_int_field(col[start:stop]))
                    sep = "\n" if j == len(columns) - 1 else ","
                    parts.append(_text_field(sep, stop - start))
                fh.write(np.concatenate(parts).T.tobytes().translate(None, b"\0"))


def _summary_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=float) + "\n")


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _fit_payload(fit: bec_lab.DelayExponentFit) -> dict:
    return {
        "exponent": _finite_or_none(fit.slope),
        "unbounded": bool(fit.unbounded),
        "ci": [_finite_or_none(fit.ci_low), _finite_or_none(fit.ci_high)],
        "widened_ci": bool(fit.widened_ci),
        "d_grid": [float(d) for d in fit.d_values],
        "miss_probs": [float(p) for p in fit.miss_probs],
        "miss_counts": [int(c) for c in fit.miss_counts],
    }


def _sim_bec(fields: dict, seed: int, out: Path) -> dict:
    scheme = _take(fields, "scheme", "fifo")
    if scheme not in ("fifo", "parity"):
        raise CliError(EXIT_UNKNOWN, f"unknown bec scheme '{scheme}'")
    horizon = _take(fields, "horizon", read=_count)
    trials = _take(fields, "trials", 1, _count)
    d_grid = _take(fields, "d_grid", list(range(10, 41, 2)), _grid)
    stride = _take(fields, "trace_stride", max(1, horizon // 100_000), _count)
    beta, rate_bits = _take(fields, "beta", read=_real), _take(fields, "rate_bits", read=_real)
    _done(fields, f"bec {scheme} config")

    simulate = (bec_lab.simulate_fifo if scheme == "fifo"
                else bec_lab.simulate_causal_parity_nofeedback)
    traces = [simulate(beta, rate_bits, horizon, seed + trial) for trial in range(trials)]
    fit = bec_lab.measure_delay_exponent(traces, d_grid)
    names = ["time", "arrivals_cum", "decoded_cum", "queue_len"]
    # each trial's series replaces its trace, so the write holds no trace
    series = [traces.pop(0).series(stride) for _ in range(trials)]
    _write_trace_csv(out / "trace.csv", ["trial"] + names,
                     ([s[n] for n in names] for s in series))
    return {"sim": f"bec_{scheme}", "fit": _fit_payload(fit)}


def _service(value, name: str) -> queue_model.ServiceTimeModel:
    """A queue config's service object {kind?, beta, offset or cap as the kind needs}."""
    fields = _fields(value, name)
    kind = _take(fields, "kind", "geometric")
    if kind not in ("geometric", "offset_geometric", "truncated_geometric"):
        raise CliError(EXIT_UNKNOWN, f"unknown service kind '{kind}'")
    offset = _take(fields, "offset", read=_natural) if kind == "offset_geometric" else 0
    beta = _take(fields, "beta", read=_real)
    cap = _take(fields, "cap", read=_count) if kind == "truncated_geometric" else None
    _done(fields, f"{kind} {name}")
    return queue_model.ServiceTimeModel(offset=offset, tail_beta=beta, cap=cap)


def _sim_queue(fields: dict, seed: int, out: Path) -> dict:
    svc = _take(fields, "service", read=_service)
    m = _take(fields, "arrival_period", read=_count)
    horizon = _take(fields, "horizon", read=_count)
    trials = _take(fields, "trials", 1, _count)
    d_grid = _take(fields, "d_grid", list(range(2 * m, 20 * m, m)), _grid)
    _done(fields, "queue config")

    traces = [queue_model.simulate_point_queue(svc, m, horizon, seed + trial)
              for trial in range(trials)]
    # the summary writes no CI, and reports every deadline, not only the fitted ones
    segments, d_grid = bec_lab._segments(traces, d_grid)
    fit, counts, _ = bec_lab._point_fit(segments, d_grid, min_misses=50)
    n_delays = sum(len(ends) for ends, _, _ in segments)
    bound = queue_model.tail_exponent_bound(m, svc) if m > svc.offset else None
    _write_trace_csv(out / "trace.csv", ["trial", "arrival", "completion", "service"],
                     [[tr.arrival_times, tr.done_times, tr.service_times]
                      for tr in traces])
    return {
        "sim": "queue",
        "fit": {"exponent": _finite_or_none(fit.slope),
                "d_grid": list(map(float, d_grid)),
                "miss_probs": (counts / n_delays).tolist(),
                "miss_counts": counts.tolist()},
        "tail_exponent_bound": bound,
    }


def _sim_ncl(fields: dict, seed: int, out: Path) -> dict:
    mode = _take(fields, "mode", "bound_driven")
    if mode not in ("bound_driven", "exact_tiny", "two_stream"):
        raise CliError(EXIT_UNKNOWN, f"unknown ncl mode '{mode}'")
    channel = _take(fields, "channel", read=_channel)
    rate = _take(fields, "rate", read=_real)
    delta = _take(fields, "delta", 0.05, _real)
    k = _take(fields, "k", 10, _count)
    blocks = _take(fields, "horizon_blocks", 100_000, _count)
    if mode == "two_stream":  # fits on its own deadlines
        _done(fields, f"ncl {mode} config")
        split = ncl_scheme.two_stream_split(channel, rate)
        fit, _ = ncl_scheme.simulate_two_stream(
            channel, split, blocks, seed=seed, k=k, delta=delta)
        return {"sim": "ncl_two_stream", "fit": _fit_payload(fit),
                "psi": split.psi, "rho": split.rho,
                "target_exponent": split.e_prime,
                "committed_errors": 0}
    rho = _take(fields, "rho", 1.0, _real)
    # an explicit scheme geometry, all three or none, overrides the formulas
    geometry = ({name: _take(fields, name, read=_count) for name in ("n", "c", "l")}
                if "n" in fields else {})
    min_misses = _take(fields, "min_misses", 30, _count)
    d_grid = _take(fields, "d_grid", None, _grid)
    if mode == "exact_tiny":
        n_messages = _take(fields, "n_messages", None, _or_none(_natural))
        feedback_lag = _take(fields, "feedback_lag", 1, _count)
    _done(fields, f"ncl {mode} config")
    params = replace(ncl_scheme.select_params(channel, rate, delta, k, rho), **geometry)
    if mode == "bound_driven":
        trace = ncl_scheme.simulate_ncl_bound_driven(params, blocks, seed)
    else:
        trace = ncl_scheme.simulate_ncl_exact_tiny(channel, params, blocks, seed,
                                                   n_messages=n_messages,
                                                   feedback_lag=feedback_lag)
    fit = trace.measure_exponent(d_grid or ncl_scheme.default_delay_grid(params).tolist(),
                                 min_misses=min_misses)
    starts = trace.done_times - trace.service_times
    starts -= params.l * params.k
    _write_trace_csv(out / "trace.csv",
                     ["trial", "arrival", "service_start", "transmission", "commit"],
                     [[trace.arrival_times, starts, trace.service_times, trace.done_times]])
    return {
        "sim": f"ncl_{mode}",
        "fit": _fit_payload(fit),
        "committed_errors": 0,
        "params": {"n": params.n, "c": params.c, "l": params.l, "k": params.k,
                   "rho": params.rho, "rate": params.rate,
                   "slack_chunks": params.slack_chunks},
        "guaranteed_exponent": ncl_scheme.queueing_exponent_bound(params),
    }


def cmd_sim(args) -> int:
    config = _load_json(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runners = {"bec": _sim_bec, "queue": _sim_queue, "ncl": _sim_ncl}
    summary = runners[args.kind](_fields(config, f"{args.kind} config"), args.seed, out)
    summary["seed"] = args.seed
    summary["config"] = config
    _summary_json(out / "summary.json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _curves(ch: Dmc, columns: dict[str, tuple]) -> dict[str, list[float]]:
    """The curve of every column of ``columns``, which maps its label to
    (bound name, rates, fortify_k), all solved in one ``bound_curves`` run."""
    return dict(zip(columns, bound_curves(ch, list(columns.values()))))


def _named(names: tuple[str, ...], rates: np.ndarray) -> dict:
    """The unfortified ``_curves`` columns of ``names`` on ``rates``, each
    labelled by its own name."""
    return {name: (name, rates, None) for name in names}


def _bound_figure(out: Path, file: str, channel_label: str, rates: np.ndarray,
                  cols: dict[str, list[float]], **manifest) -> dict:
    """Write the columns ``cols`` on ``rates`` to ``out / file``; return the
    manifest that names the channel and the columns, plus ``manifest``."""
    _write_curve_csv(out / file, rates, cols)
    return {"channel": channel_label, "curves": list(cols), **manifest}


def _figure_4(out: Path) -> dict:
    rates = np.linspace(0.02, 0.21, 20)
    return _bound_figure(out, "zchannel_bounds.csv", "Z(0.5)", rates,
                         _curves(z_channel(0.5), _named(("esp", "haroutunian"), rates)),
                         rate_grid_nats=[float(rates[0]), float(rates[-1]), len(rates)])


def _bsc_rate_grid(ch: Dmc) -> np.ndarray:
    cap = ch.capacity_solution[0]
    return np.linspace(cap / 50, cap * 0.995, 60)


def _figure_6(out: Path) -> dict:
    ch = bsc(0.02)
    rates = _bsc_rate_grid(ch)
    lambdas = [1 / 8, 1 / 2, 7 / 8]
    envelopes = {f"envelope_lambda_{lam:g}": ("esp", lam * rates, None) for lam in lambdas}
    cols = _curves(ch, _named(("esp", "focusing", "burnashev"), rates) | envelopes)
    for lam, label in zip(lambdas, envelopes):  # E_sp(lambda R) / (1 - lambda)
        cols[label] = [e / (1 - lam) for e in cols[label]]
    return _bound_figure(out, "bsc002_focusing_family.csv", "BSC(0.02)", rates, cols,
                         lambdas=lambdas)


def _figure_7(out: Path) -> dict:
    ch = bsc(0.003)
    cap = ch.capacity_solution[0]
    rates = np.linspace(0.55 * cap, 0.995 * cap, 40)
    return _bound_figure(out, "bsc0003_focusing_vs_burnashev.csv", "BSC(0.003)", rates,
                         _curves(ch, _named(("focusing", "burnashev"), rates)),
                         note="high-rate regime; the curves cross")


def _figure_8(out: Path) -> dict:
    ch = bsc(0.02)
    rates = _bsc_rate_grid(ch)
    return _bound_figure(out, "bsc002_delay_bounds.csv", "BSC(0.02)", rates,
                         _curves(ch, _named(("esp", "focusing", "timesharing"), rates)
                                 | {"random_coding": ("er", rates, None)}),
                         capacity_slopes={"focusing": capacity_slope_focusing(ch),
                                          "timesharing": capacity_slope_timesharing(ch)})


def _figure_9(out: Path) -> dict:
    rates = np.linspace(0.02, 0.41, 40)
    return _bound_figure(out, "bec04_bounds.csv", "BEC(0.4)", rates,
                         _curves(bec(0.4), _named(("esp", "focusing"), rates)),
                         ultimate_limit_nats=-math.log(0.4))


def _figure_12(out: Path) -> dict:
    ch = bsc(0.02)
    rates = _bsc_rate_grid(ch)
    e0_one = e0_max(ch, 1.0)[0]
    return _bound_figure(out, "bsc002_slack.csv", "BSC(0.02)", rates,
                         _curves(ch, _named(("esp", "focusing"), rates))
                         | {"list1_tangent": [max(0.0, e0_one - float(r)) for r in rates]},
                         anchor={"rate_nats": 0.37, "achievable_exponent": e0_one},
                         note="list-size-1 operation: exponent E0(1) sustained at any rate "
                              "below E0(1), slack fraction = 1 - rate/E0(1)")


def _figure_13(out: Path) -> dict:
    ch = bsc(0.02)
    etas = np.geomspace(0.02, 30.0, 60)
    for label, k in (("plain", None), ("fortified_k50", 50)):
        rates, db = [], []
        for pt in focusing_parametric_curve(ch, etas, k):
            lam = min(max(pt.lambda_star, 1e-12), 1 - 1e-12)
            rates.append(pt.rate)
            db.append(10.0 * math.log10((1 - lam) / lam))
        _write_curve_csv(out / f"bsc002_past_future_{label}.csv", rates,
                         {"future_past_ratio_db": db})
    return {"channel": "BSC(0.02)", "files": ["plain", "fortified_k50"],
            "quantity": "10 log10((1-lambda*)/lambda*)"}


def _figure_14(out: Path) -> dict:
    ch = bsc(0.02)
    rates = np.linspace(0.02, 0.60, 60)
    return _bound_figure(out, "bsc002_fortified_bounds.csv", "BSC(0.02) and 1/50-fortified",
                         rates, _curves(ch, {f"{name}_{label}": (name, rates, k)
                                             for label, k in (("plain", None),
                                                              ("fortified_k50", 50))
                                             for name in ("esp", "focusing")}))


def _figure_16(out: Path) -> dict:
    ch = bsc(0.02)
    rates = np.linspace(0.02, 0.43, 22)
    schemes = [(10, 3, 2), (20, 4, 3), (50, 8, 6)]
    cols = _curves(ch, {"esp": ("esp", rates, None),
                        "focusing_fortified": ("focusing", rates, 50)})
    for n, c, l in schemes:
        curve = ncl_scheme.scheme_exponent_curve(ch, n, c, l, 50, rates)
        cols[f"scheme_{n}_{c}_{l}"] = [e for _, e in curve]
    _write_curve_csv(out / "bsc002_ncl_schemes.csv", rates, cols)
    return {"channel": "1/50-fortified BSC(0.02)", "schemes": schemes,
            "note": "guaranteed-floor curves; qualitative reproduction "
                    "(ordering and shape)"}


FIGURES = {4: _figure_4, 6: _figure_6, 7: _figure_7, 8: _figure_8, 9: _figure_9,
           12: _figure_12, 13: _figure_13, 14: _figure_14, 16: _figure_16}


def cmd_figure(args) -> int:
    if args.id not in FIGURES:
        raise CliError(EXIT_UNKNOWN,
                       f"unknown figure id {args.id}; known: {sorted(FIGURES)}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = FIGURES[args.id](out)
    manifest["figure"] = args.id
    _summary_json(out / "MANIFEST.json", manifest)
    return EXIT_OK


@functools.cache  # built on first use, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="delaylab",
                                 description="reliability-vs-delay bounds and simulators")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate bounds at one rate")
    b.add_argument("channel")
    b.add_argument("--rate", type=float, required=True, help="in nats (or bits with --bits)")
    b.add_argument("--bits", action="store_true", help="rate given in bits")
    b.add_argument("--bounds", required=True, help="comma list, e.g. esp,focusing,er4")
    b.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("curve", help="sample bounds over a grid into a file")
    c.add_argument("channel")
    c.add_argument("--bounds", required=True)
    c.add_argument("--rate-grid", help="lo:hi:count in nats (or bits with --bits)")
    c.add_argument("--eta-grid", help="lo:hi:count parametric grid (no --rate-grid, --bits)")
    c.add_argument("--bits", action="store_true")
    c.add_argument("--out", required=True)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.set_defaults(fn=cmd_curve)

    s = sub.add_parser("sim", help="run a simulator from a config file")
    s.add_argument("kind", choices=("bec", "queue", "ncl"))
    s.add_argument("config")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sim)

    f = sub.add_parser("figure", help="reproduce one figure's curve data")
    f.add_argument("id", type=int)
    f.add_argument("--out-dir", required=True)
    f.set_defaults(fn=cmd_figure)
    return ap


def _show_warning(message, *_) -> None:
    """Print a warning as one diagnostic line."""
    print(f"delaylab: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every UserWarning (an unstable sim rate) prints as one line at each
    # occurrence, in a fresh interpreter as in one that has run the line
    # before; other categories keep the caller's filters
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = _show_warning
        try:
            return args.fn(args)
        except CliError as exc:
            print(f"delaylab: {exc}", file=sys.stderr)
            return exc.code
        except (ValueError, OverflowError) as exc:
            print(f"delaylab: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except ConvergenceError as exc:
            print(f"delaylab: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        except OSError as exc:
            print(f"delaylab: {exc}", file=sys.stderr)
            return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
