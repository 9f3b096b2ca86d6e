"""Seeded request lists for the four benchmark workloads.

Every workload is a list of ``Request`` objects, each one in-process call to
``delaylab.cli.main(argv)``.  A request list depends only on (workload, seed,
seconds): ``seconds`` sets how much work a run holds (sized so that the
unmodified program takes about that long on a 2-core machine), and ``seed``
draws the inputs.  Input files (channels, simulation configs) are written
into the run's work directory during set-up.

This module uses only numpy, never delaylab, so that building the inputs
does not warm any of the program's caches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)

WORKLOADS = ("curves_symmetric", "curves_asymmetric", "point_queries", "simulations")

# Three curve requests per shipped channel, which together ask for all seven
# bounds: the two cheapest, then er4 and burnashev, then the three that invert
# E0 by bisection.  One request per channel would leave 13 requests of very
# different cost, so p50 and p90 would each be a single request on a gap
# between cost classes; three groups make 21 requests with p50 and p90 inside
# clusters of similar requests.
SYMMETRIC_CURVE_GROUPS = ("esp,er", "er4,burnashev", "focusing,viterbi,timesharing")
SYMMETRIC_QUERY_BOUNDS = "esp,er,er4,haroutunian,focusing,timesharing,burnashev"
ASYMMETRIC_QUERY_BOUNDS = "esp,er"
FIGURES = (6, 7, 8, 9, 12, 13, 14, 16)

# one fixed asymmetric 3x3 channel; its capacity is 0.2245 nats
ASYM3_MATRIX = [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]]


@dataclass
class Request:
    """One CLI call plus what the correctness check needs to know about it.

    ``kind`` is one of "curve", "bounds", "figure", "sim"; ``info`` carries the
    channel matrix, fortification period, requested rates and so on.
    """
    argv: list[str]
    kind: str
    out: str | None = None
    info: dict = field(default_factory=dict)


def capacity_nats(matrix, tol: float = 1e-13) -> float:
    """Blahut-Arimoto capacity, independent of the program under test."""
    rows = np.asarray(matrix, dtype=float)
    q = np.full(rows.shape[0], 1.0 / rows.shape[0])
    mask = rows > 0
    logrows = np.where(mask, np.log(np.where(mask, rows, 1.0)), 0.0)
    for _ in range(200_000):
        out = q @ rows
        logout = np.log(np.where(out > 0, out, 1.0))
        d = np.sum(np.where(mask, rows * (logrows - logout), 0.0), axis=1)
        lower, upper = float(q @ d), float(d.max())
        if upper - lower <= tol:
            return lower
        q = q * np.exp(d - upper)
        q /= q.sum()
    return lower


def zero_error_feedback_capacity(matrix, fortify_k: int | None) -> float:
    """C_0,f for channels whose input rows all share an output letter (every
    channel this benchmark uses): 0, plus ln2/k when fortified."""
    rows = np.asarray(matrix, dtype=float) > 0
    shared = all(np.any(rows[a] & rows[b])
                 for a in range(len(rows)) for b in range(a + 1, len(rows)))
    if not shared:
        raise ValueError("channel with a zero-error pair of inputs")
    return LN2 / fortify_k if fortify_k else 0.0


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _grid_arg(lo: float, hi: float, num: int) -> tuple[str, list[float]]:
    """A lo:hi:count grid string and the rates the CLI will parse from it."""
    lo, hi = float(lo), float(hi)
    return f"{lo!r}:{hi!r}:{num}", np.sort(np.linspace(lo, hi, num)).tolist()


def curves_symmetric(rng, seconds: float, inp: Path, out: Path, channels: Path):
    """Full-grid curves on the shipped output-symmetric channels, one request
    per channel and ``SYMMETRIC_CURVE_GROUPS`` entry, plus the figure bundles
    built on them and the erasure-channel half-bit point."""
    reqs = []
    points = max(10, round(7 * seconds))
    shipped = (("bsc002", "bsc", 0.02), ("bsc0003", "bsc", 0.003),
               ("bsc002_fortified50", "bsc", 0.02), ("bec04", "bec", 0.4))
    for stem, family, param in shipped:
        spec = json.loads((channels / f"{stem}.json").read_text())
        matrix = [[float(v) for v in row] for row in spec["matrix"]]
        cap = capacity_nats(matrix)
        # the grid starts at 1e-4 nats on every seed; the seed moves its top
        grid, rates = _grid_arg(1e-4, cap * (0.97 + 0.02 * rng.random()), points)
        for i, bounds in enumerate(SYMMETRIC_CURVE_GROUPS):
            dest = out / f"curve_{stem}_{i}.csv"
            reqs.append(Request(
                ["curve", str(channels / f"{stem}.json"), "--bounds", bounds,
                 "--rate-grid", grid, "--out", str(dest)],
                "curve", str(dest),
                {"matrix": matrix, "fortify_k": spec.get("k"), "rates": rates,
                 "bounds": bounds.split(","), "symmetric": True, "family": family,
                 "param": param}))
    for fig in FIGURES:
        dest = out / f"figure_{fig}"
        reqs.append(Request(["figure", str(fig), "--out-dir", str(dest)],
                            "figure", str(dest), {"figure": fig}))
    bec = json.loads((channels / "bec04.json").read_text())["matrix"]
    reqs.append(Request(
        ["bounds", str(channels / "bec04.json"), "--rate", "0.5", "--bits",
         "--bounds", "esp,focusing"],
        "bounds", None,
        {"matrix": bec, "fortify_k": None, "rate": 0.5 * LN2,
         "bounds": ["esp", "focusing"], "symmetric": True, "family": "bec",
         "param": 0.4, "pinned": {"esp": 0.020411, "focusing": math.log(1.5)},
         "pinned_tol": 5e-7}))
    return reqs


# curve requests per rate on Z(0.5), grouped so that requests of similar cost
# cluster (see SYMMETRIC_CURVE_GROUPS)
Z_CURVE_GROUPS = ("esp,er,haroutunian", "timesharing", "tilde")


def curves_asymmetric(rng, seconds: float, inp: Path, out: Path, channels: Path):
    """Curves on channels without output symmetry: Z(0.5) with esp, er,
    timesharing, haroutunian and tilde, one request per rate and bound group,
    and a fixed 3x3 channel with esp and er, one request per bound.

    The rates are fixed, not drawn: the multi-start channel search stops on
    patience, so its cost jumps by +-10% with the rate, which would measure
    the draw rather than the program.  The seed orders the requests.
    """
    z_points = max(1, round(0.15 * seconds))
    a3_points = max(1, round(0.06 * seconds))
    z_path = str(channels / "z05.json")
    z_matrix = json.loads((channels / "z05.json").read_text())["matrix"]
    a3_path = _write_json(inp / "asym3.json", {"name": "asym3", "matrix": ASYM3_MATRIX})
    plan = [(z_path, z_matrix, b, r, "csv")
            for b in Z_CURVE_GROUPS for r in np.linspace(0.03, 0.20, z_points)]
    plan += [(a3_path, ASYM3_MATRIX, b, r, "json")
             for b in ("esp", "er") for r in np.linspace(0.05, 0.15, a3_points)]
    reqs = []
    for i, (path, matrix, bounds, rate, fmt) in enumerate(plan):
        grid, rates = _grid_arg(rate, rate, 1)
        dest = out / f"curve_{i:02d}_{Path(path).stem}.{fmt}"
        reqs.append(Request(
            ["curve", path, "--bounds", bounds, "--rate-grid", grid, "--out", str(dest),
             "--format", fmt],
            "curve", str(dest),
            {"matrix": matrix, "fortify_k": None, "rates": rates,
             "bounds": bounds.split(","), "symmetric": False, "format": fmt}))
    return [reqs[i] for i in rng.permutation(len(reqs))]


def _random_channel(rng, family: str) -> tuple[list[list[float]], float | None]:
    """A fresh channel of ``family`` and its defining parameter (if any)."""
    if family == "bsc":
        p = float(rng.uniform(0.005, 0.3))
        return [[1 - p, p], [p, 1 - p]], p
    if family == "bec":
        b = float(rng.uniform(0.05, 0.7))
        return [[1 - b, 0.0, b], [0.0, 1 - b, b]], b
    if family == "sym3":
        eps, w = float(rng.uniform(0.02, 0.4)), float(rng.uniform(0.0, 1.0))
        v = [1 - eps, eps * w, eps * (1 - w)]
        return [v, [v[2], v[0], v[1]], [v[1], v[2], v[0]]], None
    if rng.random() < 0.5:  # Z channel
        b = float(rng.uniform(0.1, 0.6))
        return [[1.0, 0.0], [b, 1 - b]], None
    a, b = float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.2, 0.5))
    return [[1 - a, a], [b, 1 - b]], None


def point_queries(rng, seconds: float, inp: Path, out: Path, channels: Path):
    """One-off bound queries, each on a fresh channel at one random rate.

    Exactly a quarter of the queries are on asymmetric 2x2 channels, the
    expensive class (~0.5 s against ~25 ms): p50 then falls in the middle of
    the cheap class and p90 in the middle of the expensive one.
    """
    total = max(100, round(5 * seconds))
    n_asym = total // 4
    families = ["asym2"] * n_asym + [("bsc", "bec", "sym3")[i % 3]
                                     for i in range(total - n_asym)]
    families = [families[i] for i in rng.permutation(total)]
    reqs = []
    for i, family in enumerate(families):
        matrix, param = _random_channel(rng, family)
        rate = capacity_nats(matrix) * float(rng.uniform(0.0, 0.999))
        bounds = ASYMMETRIC_QUERY_BOUNDS if family == "asym2" else SYMMETRIC_QUERY_BOUNDS
        path = _write_json(inp / f"q{i:04d}.json", {"name": f"q{i}", "matrix": matrix})
        reqs.append(Request(
            ["bounds", path, "--rate", repr(rate), "--bounds", bounds],
            "bounds", None,
            {"matrix": matrix, "fortify_k": None, "rate": rate,
             "bounds": bounds.split(","), "symmetric": family != "asym2",
             "family": family, "param": param}))
    return reqs


SIM_REPEATS = 3


def simulations(rng, seconds: float, inp: Path, out: Path, channels: Path):
    """Every simulator the CLI exposes, sized so no single one dominates, each
    run ``SIM_REPEATS`` times on its own seed: a handful of multi-second
    requests would make p50 and p90 single requests.

    The FIFO and parity runs of one repeat share a seed, so they see the
    same erasures.
    """
    s = max(1.0, seconds) / SIM_REPEATS
    bsc = [[0.98, 0.02], [0.02, 0.98]]
    configs = [
        ("bec", "fifo", {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5,
                         "horizon": int(250_000 * s)}),
        ("bec", "parity", {"scheme": "parity", "beta": 0.4, "rate_bits": 0.5,
                           "horizon": int(250_000 * s)}),
        ("queue", "queue", {"service": {"kind": "offset_geometric", "offset": 2,
                                        "beta": 0.25},
                            "arrival_period": 5, "horizon": int(130_000 * s),
                            "d_grid": [6, 9, 12, 15, 18]}),
        ("ncl", "bound_driven", {"mode": "bound_driven", "channel": {"matrix": bsc},
                                 "rate": 0.2, "k": 10,
                                 "horizon_blocks": int(70_000 * s)}),
        ("ncl", "exact_tiny", {"mode": "exact_tiny", "channel": {"matrix": bsc},
                               "rate": math.log(8) / 12, "rho": 1.0, "k": 3,
                               "n": 2, "c": 2, "l": 1, "n_messages": 8,
                               "horizon_blocks": int(1_500 * s)}),
        ("ncl", "two_stream", {"mode": "two_stream", "channel": {"matrix": bsc},
                               "rate": 0.2231435,
                               "horizon_blocks": int(25_000 * s)}),
    ]
    for kind, label, config in configs:
        _write_json(inp / f"sim_{label}.json", config)
    reqs = []
    for rep in range(SIM_REPEATS):
        sim_seed = int(rng.integers(0, 2**31 - 1))
        for kind, label, config in configs:
            dest = out / f"sim_{rep}_{label}"
            reqs.append(Request(
                ["sim", kind, str(inp / f"sim_{label}.json"), "--seed", str(sim_seed),
                 "--out", str(dest)],
                "sim", str(dest),
                {"sim": kind, "label": label, "config": config, "seed": sim_seed}))
    return reqs


GENERATORS = {
    "curves_symmetric": curves_symmetric,
    "curves_asymmetric": curves_asymmetric,
    "point_queries": point_queries,
    "simulations": simulations,
}


def build(workload: str, seed: int, seconds: float, work: Path, channels: Path) -> list[Request]:
    """Write the inputs of one run under ``work`` and return its requests."""
    inp, out = work / "inputs", work / "outputs"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return GENERATORS[workload](rng, seconds, inp, out, channels)
