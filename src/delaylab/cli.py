"""Command-line front door: channel ingestion, bound tables and curves,
simulations, and figure-data reproduction.

Exit codes: 0 ok, 2 parse failure, 3 infeasible rate, 4 unknown target,
5 a solver hit its iteration cap or missed its certificate (message has the residual).
Environment: FDL_SEED overrides sim's --seed, FDL_THREADS caps sim parallelism.
All diagnostics go to stderr; stdout carries only requested tables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bec_lab, ncl_scheme, queue_model
from .dmc import (LN2, ConvergenceError, Dmc, bec, bits_from_nats, bsc, nats_from_bits,
                  z_channel)
from .dmc import _block_is_symmetric  # declared-partition verification
from .exponents import (
    KNOWN_BOUNDS,
    bound_at_rate,
    bound_curve,
    capacity_slope_focusing,
    capacity_slope_timesharing,
    e0_max,
    focusing_parametric_curve,
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


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")


def load_channel(path: str) -> tuple[Dmc, int | None]:
    """Parse a channel file {name, matrix, k?, partition?}; probabilities may
    be floats or decimal strings.  A declared partition is verified."""
    spec = _load_json(path)
    try:
        matrix = [[float(v) for v in row] for row in spec["matrix"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: bad matrix: {exc}")
    try:
        channel = Dmc(np.array(matrix), name=str(spec.get("name", Path(path).stem)))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}")
    fortify_k = spec.get("k")
    if fortify_k is not None and (int(fortify_k) != fortify_k or fortify_k < 1):
        raise CliError(EXIT_PARSE, f"{path}: fortification period must be a positive integer")
    declared = spec.get("partition")
    if declared is not None:
        seen = sorted(y for block in declared for y in block)
        if seen != list(range(channel.output_size)):
            raise CliError(EXIT_PARSE, f"{path}: partition must cover every output once")
        for block in declared:
            if not _block_is_symmetric(channel.rows[:, sorted(block)]):
                raise CliError(EXIT_PARSE, f"{path}: declared partition block {block} "
                               "is not symmetric")
    return channel, (int(fortify_k) if fortify_k is not None else None)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, num = text.split(":")
        grid = np.linspace(float(lo), float(hi), int(num))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad grid '{text}' (want lo:hi:count): {exc}")
    if len(grid) < 1:
        raise CliError(EXIT_PARSE, "grid needs at least one point")
    return grid


def _check_bounds(names: list[str]) -> None:
    for name in names:
        if name in KNOWN_BOUNDS:
            continue
        if name.startswith("er") and name[2:].isdigit():
            continue
        raise CliError(EXIT_UNKNOWN, f"unknown bound '{name}' "
                       f"(known: {', '.join(KNOWN_BOUNDS)}, erL)")


def cmd_bounds(args) -> int:
    channel, fortify_k = load_channel(args.channel)
    rate_nats = nats_from_bits(args.rate) if args.bits else args.rate
    if rate_nats < 0:
        raise CliError(EXIT_INFEASIBLE, "rate must be nonnegative")
    names = [n.strip() for n in args.bounds.split(",") if n.strip()]
    _check_bounds(names)
    rows = []
    for name in names:
        try:
            val = bound_at_rate(channel, name, rate_nats, fortify_k)
        except ValueError as exc:
            raise CliError(EXIT_INFEASIBLE, f"{name}: {exc}")
        rows.append((name, val))
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


def cmd_curve(args) -> int:
    channel, fortify_k = load_channel(args.channel)
    names = [n.strip() for n in args.bounds.split(",") if n.strip()]
    _check_bounds(names)
    if args.eta_grid:
        etas = _parse_grid(args.eta_grid)
        if np.any(etas <= 0):
            raise CliError(EXIT_INFEASIBLE, "eta grid must be positive")
        e0s = [e0_max(channel, eta, fortify_k)[0] for eta in sorted(etas, reverse=True)]
        rates = np.array([e / eta for e, eta in zip(e0s, sorted(etas, reverse=True))])
    else:
        rates = np.sort(_parse_grid(args.rate_grid or "0.01:0.5:25"))
        if args.bits:
            rates = rates * LN2
        if np.any(rates < 0):
            raise CliError(EXIT_INFEASIBLE, "rates must be nonnegative")
    columns, solved = {}, {}
    for name in names:
        same = "focusing" if name == "viterbi" else name  # one bound, two readings
        if same not in solved:
            try:
                solved[same] = bound_curve(channel, same, rates, fortify_k)
            except ValueError as exc:
                raise CliError(EXIT_INFEASIBLE, f"{name} {exc}")
        columns[name] = solved[same]
    out = Path(args.out)
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

def _resolve_seed(args) -> int:
    env = os.environ.get("FDL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(EXIT_PARSE, f"FDL_SEED must be an integer, got '{env}'")
    return args.seed


def _n_threads() -> int:
    env = os.environ.get("FDL_THREADS")
    if env is None:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise CliError(EXIT_PARSE, f"FDL_THREADS must be an integer, got '{env}'")


def _count(config: dict, name: str, default: int | None = None, least: int = 1) -> int:
    """A JSON integer field of a sim config, positive (or, with ``least`` 0,
    nonnegative); required without a default."""
    value = config[name] if default is None else config.get(name, default)
    if type(value) is not int or value < least:
        sign = "positive" if least == 1 else "nonnegative"
        raise CliError(EXIT_PARSE, f"{name} must be a {sign} integer, got {value!r}")
    return value


def _run_trials(fn, trials: int):
    """Deterministic per-trial work; aggregation is by trial index regardless
    of completion order, so thread count never changes the results."""
    n = _n_threads()
    if n == 1 or trials == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, range(trials)))


# rows formatted per write: bounds the byte matrix built for them
TRACE_CHUNK_ROWS = 1 << 16


def _text_field(text: str, rows: int) -> np.ndarray:
    """``text`` in every row, as a (len(text), rows) uint8 matrix."""
    code = np.frombuffer(text.encode(), dtype=np.uint8)
    return np.broadcast_to(code[:, None], (len(code), rows))


def _int_field(col: np.ndarray) -> np.ndarray:
    """``str`` of each int of ``col`` as a (1 + W, rows) uint8 matrix: a sign
    slot, then W right-aligned decimal digits, W the largest value's digit
    count.  The slot of a non-negative value and every leading position are
    NUL, for the writer to delete."""
    v = col.astype(np.int64, casting="safe", copy=False)
    neg = v < 0
    # |v| in uint64, as ~v + 1 = -(v + 1) + 1 for a negative v: ~v never
    # overflows, while -v does at int64's minimum
    mag = np.where(neg, ~v, v).astype(np.uint64)
    mag += neg
    top = int(mag.max())
    width = len(str(top))
    q = mag.astype(np.uint32) if top <= np.iinfo(np.uint32).max else mag
    field = np.zeros((1 + width, len(v)), dtype=np.uint8)
    field[0] = neg * np.uint8(ord("-"))
    for pos in range(width, 0, -1):
        nxt = q // 10
        field[pos] = q - 10 * nxt
        field[pos] += 48
        if pos < width:
            field[pos] *= q != 0
        q = nxt
    return field


def _float_field(col: np.ndarray) -> np.ndarray:
    """``_fmt`` of each float of ``col`` as a (K, rows) uint8 matrix, each
    string NUL-padded to the longest one's K bytes."""
    text = np.array([_fmt(x).encode() for x in col.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), -1).T


def _write_trace_csv(path: Path, header: list[str], columns_by_trial) -> None:
    """Write ``header``, then one row "trial,v1,v2,..." per index of each
    trial's equal-length numpy columns: integer columns as ``str`` of the
    int, float columns through ``_fmt``.  Each chunk of rows is one uint8
    matrix with a row per byte position of the CSV line and a column per CSV
    row, NUL where a field is shorter than its widest value; the chunk's
    text is the transposed matrix's bytes with every NUL deleted."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for trial, columns in enumerate(columns_by_trial):
            rows = len(columns[0])
            for start in range(0, rows, TRACE_CHUNK_ROWS):
                stop = min(start + TRACE_CHUNK_ROWS, rows)
                parts = [_text_field(f"{trial},", stop - start)]
                for j, col in enumerate(columns):
                    part = col[start:stop]
                    parts.append(_float_field(part) if col.dtype.kind == "f"
                                 else _int_field(part))
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


def _sim_bec(config: dict, seed: int, out: Path) -> dict:
    scheme = config.get("scheme", "fifo")
    if scheme not in ("fifo", "parity"):
        raise CliError(EXIT_UNKNOWN, f"unknown bec scheme '{scheme}'")
    horizon = _count(config, "horizon")
    trials = _count(config, "trials", 1)
    d_grid = config.get("d_grid", list(range(10, 41, 2)))
    stride = _count(config, "trace_stride", max(1, horizon // 100_000))

    def one(trial):
        cfg = bec_lab.BecConfig(beta=config["beta"], rate_bits=config["rate_bits"],
                                horizon=horizon, seed=seed + trial)
        if scheme == "fifo":
            return bec_lab.simulate_fifo(cfg)
        return bec_lab.simulate_causal_parity_nofeedback(cfg)

    traces = _run_trials(one, trials)
    fit = bec_lab.measure_delay_exponent(traces, d_grid)
    names = ["time", "arrivals_cum", "decoded_cum", "queue_len"]
    series = (tr.series(stride) for tr in traces)
    _write_trace_csv(out / "trace.csv", ["trial"] + names,
                     ([s[n] for n in names] for s in series))
    return {"sim": f"bec_{scheme}", "fit": _fit_payload(fit)}


def _sim_queue(config: dict, seed: int, out: Path) -> dict:
    svc_cfg = config["service"]
    kind = svc_cfg.get("kind", "geometric")
    try:
        if kind == "geometric":
            svc = queue_model.geometric_service(svc_cfg["beta"])
        elif kind == "offset_geometric":
            svc = queue_model.offset_geometric_service(_count(svc_cfg, "offset", least=0),
                                                       svc_cfg["beta"])
        elif kind == "truncated_geometric":
            svc = queue_model.truncated_geometric_service(svc_cfg["beta"], _count(svc_cfg, "cap"))
        else:
            raise CliError(EXIT_UNKNOWN, f"unknown service kind '{kind}'")
    except (KeyError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad service model: {exc}")
    m = _count(config, "arrival_period")
    horizon = _count(config, "horizon")
    trials = _count(config, "trials", 1)
    d_grid = config.get("d_grid", list(range(2 * m, 20 * m, m)))

    def one(trial):
        cfg = queue_model.QueueConfig(arrival_period=m, horizon=horizon, seed=seed + trial)
        return queue_model.simulate_point_queue(cfg, svc)

    traces = _run_trials(one, trials)
    delays = np.concatenate([tr.steady_delays() for tr in traces])
    fit = bec_lab.fit_delay_exponent(delays, d_grid, min_misses=50)
    # the summary reports every deadline, not only the fitted ones
    counts = bec_lab._miss_counts(np.sort(delays), np.asarray(d_grid, float))
    bound = queue_model.tail_exponent_bound(m, svc) if m > svc.offset else None
    _write_trace_csv(out / "trace.csv", ["trial", "arrival", "completion", "service"],
                     [[tr.arrival_times, tr.completion_times, tr.service_times]
                      for tr in traces])
    return {
        "sim": "queue",
        "fit": {"exponent": _finite_or_none(fit.slope),
                "d_grid": list(map(float, d_grid)),
                "miss_probs": (counts / len(delays)).tolist(),
                "miss_counts": counts.tolist()},
        "tail_exponent_bound": bound,
    }


def _sim_ncl(config: dict, seed: int, out: Path) -> dict:
    mode = config.get("mode", "bound_driven")
    try:
        channel = Dmc(np.array(config["channel"]["matrix"]),
                      name=config["channel"].get("name", "channel"))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad channel: {exc}")
    rate = float(config["rate"])
    k = _count(config, "k", 10)
    blocks = _count(config, "horizon_blocks", 100_000)
    feedback_lag = _count(config, "feedback_lag", 1)
    min_misses = _count(config, "min_misses", 30)
    try:
        if mode == "two_stream":
            split = ncl_scheme.two_stream_split(channel, rate)
            fit, _ = ncl_scheme.simulate_two_stream(
                channel, split, blocks, seed=seed, k=k, delta=float(config.get("delta", 0.05)))
            return {"sim": "ncl_two_stream", "fit": _fit_payload(fit),
                    "psi": split.psi, "rho": split.rho,
                    "target_exponent": split.e_prime,
                    "committed_errors": 0}
        params = ncl_scheme.select_params(
            channel, rate, float(config.get("delta", 0.05)), k,
            float(config.get("rho", 1.0)))
        if "n" in config:  # explicit scheme geometry overrides the formulas
            params = replace(params, n=_count(config, "n"), c=_count(config, "c"),
                             l=_count(config, "l"))
    except ValueError as exc:
        raise CliError(EXIT_INFEASIBLE, str(exc))
    if mode == "bound_driven":
        trace = ncl_scheme.simulate_ncl_bound_driven(params, blocks, seed)
    elif mode == "exact_tiny":
        trace = ncl_scheme.simulate_ncl_exact_tiny(
            channel, params, blocks, seed,
            n_messages=config.get("n_messages"),
            feedback_lag=feedback_lag)
    else:
        raise CliError(EXIT_UNKNOWN, f"unknown ncl mode '{mode}'")
    d_grid = config.get("d_grid") or ncl_scheme.default_delay_grid(params).tolist()
    fit = trace.measure_exponent(d_grid, min_misses=min_misses)
    _write_trace_csv(out / "trace.csv",
                     ["trial", "arrival", "service_start", "transmission", "commit"],
                     [[trace.arrival_times, trace.service_starts,
                       trace.transmission_times, trace.commit_times]])
    return {
        "sim": f"ncl_{mode}",
        "fit": _fit_payload(fit),
        "committed_errors": trace.committed_errors,
        "params": {"n": params.n, "c": params.c, "l": params.l, "k": params.k,
                   "rho": params.rho, "rate": params.rate,
                   "slack_chunks": params.slack_chunks},
        "guaranteed_exponent": ncl_scheme.queueing_exponent_bound(params),
    }


def cmd_sim(args) -> int:
    config = _load_json(args.config)
    seed = _resolve_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runners = {"bec": _sim_bec, "queue": _sim_queue, "ncl": _sim_ncl}
    if args.kind not in runners:
        raise CliError(EXIT_UNKNOWN, f"unknown sim kind '{args.kind}'")
    try:
        summary = runners[args.kind](config, seed, out)
    except KeyError as exc:
        raise CliError(EXIT_PARSE, f"config missing field: {exc}")
    summary["seed"] = seed
    summary["config"] = config
    _summary_json(out / "summary.json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _figure_4(out: Path) -> dict:
    ch = z_channel(0.5)
    rates = np.linspace(0.02, 0.21, 20)
    _write_curve_csv(out / "zchannel_bounds.csv", rates,
                     {name: bound_curve(ch, name, rates) for name in ("esp", "haroutunian")})
    return {"channel": "Z(0.5)", "curves": ["esp", "haroutunian"],
            "rate_grid_nats": [float(rates[0]), float(rates[-1]), len(rates)]}


def _bsc_rate_grid(ch: Dmc, points: int = 60) -> np.ndarray:
    cap = ch.capacity_solution[0]
    return np.linspace(cap / 50, cap * 0.995, points)


def _figure_6(out: Path) -> dict:
    ch = bsc(0.02)
    rates = _bsc_rate_grid(ch)
    cols = {name: bound_curve(ch, name, rates) for name in ("esp", "focusing", "burnashev")}
    for lam in (1 / 8, 1 / 2, 7 / 8):
        cols[f"envelope_lambda_{lam:g}"] = [
            e / (1 - lam) for e in bound_curve(ch, "esp", lam * rates)
        ]
    _write_curve_csv(out / "bsc002_focusing_family.csv", rates, cols)
    return {"channel": "BSC(0.02)", "curves": list(cols),
            "lambdas": [1 / 8, 1 / 2, 7 / 8]}


def _figure_7(out: Path) -> dict:
    ch = bsc(0.003)
    cap = ch.capacity_solution[0]
    rates = np.linspace(0.55 * cap, 0.995 * cap, 40)
    cols = {name: bound_curve(ch, name, rates) for name in ("focusing", "burnashev")}
    _write_curve_csv(out / "bsc0003_focusing_vs_burnashev.csv", rates, cols)
    return {"channel": "BSC(0.003)", "curves": list(cols),
            "note": "high-rate regime; the curves cross"}


def _figure_8(out: Path) -> dict:
    ch = bsc(0.02)
    rates = _bsc_rate_grid(ch)
    cols = {name: bound_curve(ch, name, rates) for name in ("esp", "focusing", "timesharing")}
    cols["random_coding"] = bound_curve(ch, "er", rates)
    _write_curve_csv(out / "bsc002_delay_bounds.csv", rates, cols)
    return {"channel": "BSC(0.02)", "curves": list(cols),
            "capacity_slopes": {
                "focusing": capacity_slope_focusing(ch),
                "timesharing": capacity_slope_timesharing(ch),
            }}


def _figure_9(out: Path) -> dict:
    ch = bec(0.4)
    rates = np.linspace(0.02, 0.41, 40)
    cols = {name: bound_curve(ch, name, rates) for name in ("esp", "focusing")}
    _write_curve_csv(out / "bec04_bounds.csv", rates, cols)
    return {"channel": "BEC(0.4)", "curves": list(cols),
            "ultimate_limit_nats": -math.log(0.4)}


def _figure_12(out: Path) -> dict:
    ch = bsc(0.02)
    rates = _bsc_rate_grid(ch)
    e0_one = e0_max(ch, 1.0)[0]
    cols = {name: bound_curve(ch, name, rates) for name in ("esp", "focusing")}
    cols["list1_tangent"] = [max(0.0, e0_one - float(r)) for r in rates]
    _write_curve_csv(out / "bsc002_slack.csv", rates, cols)
    return {"channel": "BSC(0.02)", "curves": list(cols),
            "anchor": {"rate_nats": 0.37, "achievable_exponent": e0_one},
            "note": "list-size-1 operation: exponent E0(1) sustained at any rate "
                    "below E0(1), slack fraction = 1 - rate/E0(1)"}


def _lambda_ratio_curve(ch: Dmc, fortify_k, etas) -> tuple[list, list]:
    pts = focusing_parametric_curve(ch, etas, fortify_k)
    rates, ratio_db = [], []
    for pt in pts:
        lam = min(max(pt.lambda_star, 1e-12), 1 - 1e-12)
        rates.append(pt.rate)
        ratio_db.append(10.0 * math.log10((1 - lam) / lam))
    return rates, ratio_db


def _figure_13(out: Path) -> dict:
    ch = bsc(0.02)
    etas = np.geomspace(0.02, 30.0, 60)
    for label, k in (("plain", None), ("fortified_k50", 50)):
        rates, db = _lambda_ratio_curve(ch, k, etas)
        _write_curve_csv(out / f"bsc002_past_future_{label}.csv", rates,
                         {"future_past_ratio_db": db})
    return {"channel": "BSC(0.02)", "files": ["plain", "fortified_k50"],
            "quantity": "10 log10((1-lambda*)/lambda*)"}


def _figure_14(out: Path) -> dict:
    ch = bsc(0.02)
    rates = np.linspace(0.02, 0.60, 60)
    cols = {}
    for label, k in (("plain", None), ("fortified_k50", 50)):
        cols[f"esp_{label}"] = bound_curve(ch, "esp", rates, k)
        cols[f"focusing_{label}"] = bound_curve(ch, "focusing", rates, k)
    _write_curve_csv(out / "bsc002_fortified_bounds.csv", rates, cols)
    return {"channel": "BSC(0.02) and 1/50-fortified", "curves": list(cols)}


def _figure_16(out: Path) -> dict:
    ch = bsc(0.02)
    rates = np.linspace(0.02, 0.43, 22)
    schemes = [(10, 3, 2), (20, 4, 3), (50, 8, 6)]
    cols = {"esp": bound_curve(ch, "esp", rates),
            "focusing_fortified": bound_curve(ch, "focusing", rates, 50)}
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="delaylab",
                                 description="reliability-vs-delay bounds and simulators")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate bounds at one rate")
    b.add_argument("channel")
    b.add_argument("--rate", type=float, required=True)
    unit = b.add_mutually_exclusive_group()
    unit.add_argument("--bits", action="store_true", help="rate given in bits")
    unit.add_argument("--nats", action="store_true", help="rate given in nats (default)")
    b.add_argument("--bounds", required=True, help="comma list, e.g. esp,focusing,er4")
    b.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("curve", help="sample bounds over a grid into a file")
    c.add_argument("channel")
    c.add_argument("--bounds", required=True)
    c.add_argument("--rate-grid", help="lo:hi:count in nats (or bits with --bits)")
    c.add_argument("--eta-grid", help="lo:hi:count parametric grid")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"delaylab: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"delaylab: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"delaylab: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
