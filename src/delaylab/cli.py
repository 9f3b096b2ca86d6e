"""Command-line front door: channel ingestion, bound tables and curves,
simulations, and figure-data reproduction.

Exit codes: 0 ok, 2 parse failure, 3 infeasible rate, 4 unknown target,
5 a numerical solver hit its iteration cap (the message carries its residual).
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
from pathlib import Path

import numpy as np

from . import bec_lab, ncl_scheme, queue_model
from .dmc import LN2, ConvergenceError, Dmc, bits_from_nats, nats_from_bits
from .dmc import _block_is_symmetric  # declared-partition verification
from .exponents import (
    KNOWN_BOUNDS,
    bound_at_rate,
    burnashev_bound,
    capacity_slope_focusing,
    e0_max,
    sphere_packing,
    timesharing_curve,
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
    columns = {}
    for name in names:
        vals = []
        for r in rates:
            try:
                vals.append(bound_at_rate(channel, name, float(r), fortify_k))
            except ValueError as exc:
                raise CliError(EXIT_INFEASIBLE, f"{name} at rate {r}: {exc}")
        columns[name] = vals
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


def _run_trials(fn, trials: int):
    """Deterministic per-trial work; aggregation is by trial index regardless
    of completion order, so thread count never changes the results."""
    n = _n_threads()
    if n == 1 or trials == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, range(trials)))


# rows formatted per write: bounds the value tuple and the string built from it
TRACE_CHUNK_ROWS = 1 << 16


def _write_trace_csv(path: Path, header: list[str], columns_by_trial) -> None:
    """Write ``header``, then one row "trial,v1,v2,..." per index of each
    trial's equal-length numpy columns: integer columns as %d, float columns
    through ``_fmt``.  Each chunk of rows is one %-format of a repeated line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for trial, columns in enumerate(columns_by_trial):
            floats = [col.dtype.kind == "f" for col in columns]
            width = len(columns)
            line = f"{trial}," + ",".join("%s" if f else "%d" for f in floats) + "\n"
            rows = len(columns[0])
            for start in range(0, rows, TRACE_CHUNK_ROWS):
                stop = min(start + TRACE_CHUNK_ROWS, rows)
                values = [None] * ((stop - start) * width)
                for j, (col, is_float) in enumerate(zip(columns, floats)):
                    part = col[start:stop].tolist()
                    values[j::width] = [_fmt(v) for v in part] if is_float else part
                fh.write((line * (stop - start)) % tuple(values))


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
    trials = int(config.get("trials", 1))
    d_grid = config.get("d_grid", list(range(10, 41, 2)))
    stride = int(config.get("trace_stride", max(1, int(config["horizon"]) // 100_000)))

    def one(trial):
        cfg = bec_lab.BecConfig(beta=config["beta"], rate_bits=config["rate_bits"],
                                horizon=int(config["horizon"]), seed=seed + trial)
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
            svc = queue_model.offset_geometric_service(int(svc_cfg["offset"]), svc_cfg["beta"])
        elif kind == "truncated_geometric":
            svc = queue_model.truncated_geometric_service(svc_cfg["beta"], int(svc_cfg["cap"]))
        else:
            raise CliError(EXIT_UNKNOWN, f"unknown service kind '{kind}'")
    except (KeyError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad service model: {exc}")
    m = int(config["arrival_period"])
    trials = int(config.get("trials", 1))
    d_grid = config.get("d_grid", list(range(2 * m, 20 * m, m)))

    def one(trial):
        cfg = queue_model.QueueConfig(arrival_period=m, horizon=int(config["horizon"]),
                                      seed=seed + trial)
        return queue_model.simulate_point_queue(cfg, svc)

    traces = _run_trials(one, trials)
    delays = np.concatenate([tr.delays()[100:] for tr in traces])
    fit = bec_lab.fit_delay_exponent(delays, d_grid, min_misses=50)
    # the summary reports every deadline, not only the fitted ones
    counts = bec_lab._miss_counts(np.sort(delays), np.asarray(d_grid, float))
    bound = (queue_model.tail_exponent_bound(m, svc)
             if m > svc.offset else None)
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
    k = int(config.get("k", 10))
    try:
        if mode == "two_stream":
            split = ncl_scheme.two_stream_split(channel, rate)
            fit, details = ncl_scheme.simulate_two_stream(
                channel, split, int(config.get("horizon_blocks", 100_000)),
                seed=seed, k=k, delta=float(config.get("delta", 0.05)))
            return {"sim": "ncl_two_stream", "fit": _fit_payload(fit),
                    "psi": split.psi, "rho": split.rho,
                    "target_exponent": split.e_prime,
                    "committed_errors": 0}
        params = ncl_scheme.select_params(
            channel, rate, float(config.get("delta", 0.05)), k,
            float(config.get("rho", 1.0)))
        if "n" in config:  # explicit scheme geometry overrides the formulas
            from dataclasses import replace
            params = replace(params, n=int(config["n"]), c=int(config["c"]),
                             l=int(config["l"]))
    except ValueError as exc:
        raise CliError(EXIT_INFEASIBLE, str(exc))
    blocks = int(config.get("horizon_blocks", 100_000))
    if mode == "bound_driven":
        trace = ncl_scheme.simulate_ncl_bound_driven(params, blocks, seed)
    elif mode == "exact_tiny":
        trace = ncl_scheme.simulate_ncl_exact_tiny(
            channel, params, blocks, seed,
            n_messages=config.get("n_messages"),
            feedback_lag=int(config.get("feedback_lag", 1)))
    else:
        raise CliError(EXIT_UNKNOWN, f"unknown ncl mode '{mode}'")
    d_grid = config.get("d_grid") or ncl_scheme.default_delay_grid(params).tolist()
    fit = trace.measure_exponent(d_grid, min_misses=int(config.get("min_misses", 30)))
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
    from .dmc import z_channel
    ch = z_channel(0.5)
    rates = np.linspace(0.02, 0.21, 20)
    esp = [sphere_packing(ch, r) for r in rates]
    har = [bound_at_rate(ch, "haroutunian", float(r)) for r in rates]
    _write_curve_csv(out / "zchannel_bounds.csv", rates,
                     {"esp": esp, "haroutunian": har})
    return {"channel": "Z(0.5)", "curves": ["esp", "haroutunian"],
            "rate_grid_nats": [float(rates[0]), float(rates[-1]), len(rates)]}


def _bsc_rate_grid(p: float, points: int = 60) -> np.ndarray:
    from .dmc import bsc, capacity
    cap = capacity(bsc(p))[0]
    return np.linspace(cap / 50, cap * 0.995, points)


def _figure_6(out: Path) -> dict:
    from .dmc import bsc
    ch = bsc(0.02)
    rates = _bsc_rate_grid(0.02)
    cols = {
        "esp": [sphere_packing(ch, r) for r in rates],
        "focusing": [bound_at_rate(ch, "focusing", float(r)) for r in rates],
        "burnashev": [burnashev_bound(ch, float(r)) for r in rates],
    }
    for lam in (1 / 8, 1 / 2, 7 / 8):
        cols[f"envelope_lambda_{lam:g}"] = [
            sphere_packing(ch, lam * float(r)) / (1 - lam) for r in rates
        ]
    _write_curve_csv(out / "bsc002_focusing_family.csv", rates, cols)
    return {"channel": "BSC(0.02)", "curves": list(cols),
            "lambdas": [1 / 8, 1 / 2, 7 / 8]}


def _figure_7(out: Path) -> dict:
    from .dmc import bsc, capacity
    ch = bsc(0.003)
    cap = capacity(ch)[0]
    rates = np.linspace(0.55 * cap, 0.995 * cap, 40)
    cols = {
        "focusing": [bound_at_rate(ch, "focusing", float(r)) for r in rates],
        "burnashev": [burnashev_bound(ch, float(r)) for r in rates],
    }
    _write_curve_csv(out / "bsc0003_focusing_vs_burnashev.csv", rates, cols)
    return {"channel": "BSC(0.003)", "curves": list(cols),
            "note": "high-rate regime; the curves cross"}


def _figure_8(out: Path) -> dict:
    from .dmc import bsc
    ch = bsc(0.02)
    rates = _bsc_rate_grid(0.02)
    cols = {
        "esp": [sphere_packing(ch, r) for r in rates],
        "focusing": [bound_at_rate(ch, "focusing", float(r)) for r in rates],
        "timesharing": [bound_at_rate(ch, "timesharing", float(r)) for r in rates],
        "random_coding": [bound_at_rate(ch, "er", float(r)) for r in rates],
    }
    _write_curve_csv(out / "bsc002_delay_bounds.csv", rates, cols)
    return {"channel": "BSC(0.02)", "curves": list(cols),
            "capacity_slopes": {
                "focusing": capacity_slope_focusing(ch),
                "timesharing": float(timesharing_curve(ch, [0.05, 0.1]).meta["capacity_slope"]),
            }}


def _figure_9(out: Path) -> dict:
    from .dmc import bec
    ch = bec(0.4)
    rates = np.linspace(0.02, 0.41, 40)
    cols = {
        "esp": [sphere_packing(ch, r) for r in rates],
        "focusing": [bound_at_rate(ch, "focusing", float(r)) for r in rates],
    }
    _write_curve_csv(out / "bec04_bounds.csv", rates, cols)
    return {"channel": "BEC(0.4)", "curves": list(cols),
            "ultimate_limit_nats": -math.log(0.4)}


def _figure_12(out: Path) -> dict:
    from .dmc import bsc
    ch = bsc(0.02)
    rates = _bsc_rate_grid(0.02)
    e0_one = e0_max(ch, 1.0)[0]
    cols = {
        "esp": [sphere_packing(ch, r) for r in rates],
        "focusing": [bound_at_rate(ch, "focusing", float(r)) for r in rates],
        "list1_tangent": [max(0.0, e0_one - float(r)) for r in rates],
    }
    _write_curve_csv(out / "bsc002_slack.csv", rates, cols)
    return {"channel": "BSC(0.02)", "curves": list(cols),
            "anchor": {"rate_nats": 0.37, "achievable_exponent": e0_one},
            "note": "list-size-1 operation: exponent E0(1) sustained at any rate "
                    "below E0(1), slack fraction = 1 - rate/E0(1)"}


def _lambda_ratio_curve(ch: Dmc, fortify_k, etas) -> tuple[list, list]:
    from .exponents import focusing_parametric_curve
    pts = focusing_parametric_curve(ch, etas, fortify_k)
    rates, ratio_db = [], []
    for pt in pts:
        lam = min(max(pt.lambda_star, 1e-12), 1 - 1e-12)
        rates.append(pt.rate)
        ratio_db.append(10.0 * math.log10((1 - lam) / lam))
    return rates, ratio_db


def _figure_13(out: Path) -> dict:
    from .dmc import bsc
    ch = bsc(0.02)
    etas = np.geomspace(0.02, 30.0, 60)
    for label, k in (("plain", None), ("fortified_k50", 50)):
        rates, db = _lambda_ratio_curve(ch, k, etas)
        with open(out / f"bsc002_past_future_{label}.csv", "w", newline="\n") as fh:
            fh.write("rate_nats,rate_bits,future_past_ratio_db\n")
            for r, v in zip(rates, db):
                fh.write(f"{_fmt(r)},{_fmt(bits_from_nats(r))},{_fmt(v)}\n")
    return {"channel": "BSC(0.02)", "files": ["plain", "fortified_k50"],
            "quantity": "10 log10((1-lambda*)/lambda*)"}


def _figure_14(out: Path) -> dict:
    from .dmc import bsc
    ch = bsc(0.02)
    rates = np.linspace(0.02, 0.60, 60)
    cols = {}
    for label, k in (("plain", None), ("fortified_k50", 50)):
        cols[f"esp_{label}"] = [sphere_packing(ch, float(r), k) for r in rates]
        cols[f"focusing_{label}"] = [
            bound_at_rate(ch, "focusing", float(r), k) if r > 0 else math.inf
            for r in rates
        ]
    _write_curve_csv(out / "bsc002_fortified_bounds.csv", rates, cols)
    return {"channel": "BSC(0.02) and 1/50-fortified", "curves": list(cols)}


def _figure_16(out: Path) -> dict:
    from .dmc import bsc
    ch = bsc(0.02)
    rates = np.linspace(0.02, 0.43, 22)
    schemes = [(10, 3, 2), (20, 4, 3), (50, 8, 6)]
    cols = {"esp": [sphere_packing(ch, float(r)) for r in rates],
            "focusing_fortified": [bound_at_rate(ch, "focusing", float(r), 50)
                                   for r in rates]}
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
