"""Correctness checks on the CLI's outputs.

A request fails when the CLI exits nonzero, raises, or writes an output that
breaks one of these checks:

* closed forms: sphere-packing of a BSC is D(delta || p) with h(delta) = ln2 - R
  and of a BEC(beta) is d(1 - R/ln2 || beta); the focusing bound of an
  output-symmetric channel is E0(eta) at E0(eta)/eta = R (uniform input); the
  BEC(0.4) half-bit point is esp 0.020411, focusing ln 1.5;
* identities: haroutunian == esp on output-symmetric channels, viterbi == focusing;
* orderings: er <= erL <= esp <= haroutunian, tilde <= haroutunian,
  esp <= focusing, timesharing <= focusing, every curve nonincreasing in R,
  and a finite esp wherever R > C_0,f;
* simulations: ncl committed_errors == 0, FIFO decode no later than parity
  decode on the shared erasure pattern, conservation and FIFO order in the
  traces, and every summary.json field of its schema type;
* figures: every value within 1e-6 of the seed commit's output, and the
  esp, focusing, timesharing and random-coding columns of the output put
  through the curve checks above (``FIGURE_BOUNDS``).

Each failure is named and marked known or not.  A failure is known only when
it is one of ``KNOWN_DEFECTS`` *and* occurs where that defect of the
unmodified program can occur (see ``esp_divergence_edge`` and
``check_sim``); the same check failing anywhere else is unexpected.  Known
failures still count as failed requests; only an unexpected one makes a run
incorrect.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import LN2, zero_error_feedback_capacity

TOL = 1e-6  # solver tolerance of every bound
REFERENCE = Path(__file__).resolve().parent / "reference"
RHO_MAX = 64.0  # the cap on rho of the program's sphere-packing search

KNOWN_DEFECTS = {
    "esp_finite": "sphere_packing returns inf above C_0,f where E0(rho) - rho R "
                  "still climbs between rho = 57.6 and rho = 64 (haroutunian too on "
                  "output-symmetric channels, where it returns sphere_packing)",
    "summary_schema.fit.widened_ci": "summary.json of a bec sim writes widened_ci "
                                     "as a float (numpy bool through json default=float)",
}


def _close(a: float, b: float, tol: float = TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# reference values from closed forms
# ---------------------------------------------------------------------------

def _binary_divergence(x: float, y: float) -> float:
    total = 0.0
    if x > 0:
        total += x * math.log(x / y)
    if x < 1:
        total += (1 - x) * math.log((1 - x) / (1 - y))
    return total


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing ``f`` on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def esp_closed_form(family: str, param: float, r: float, fortify_k=None) -> float | None:
    """Sphere-packing exponent of a BSC(p) or BEC(beta); fortification by
    ln2/k shifts the rate axis.  None for other families."""
    if fortify_k:
        r -= LN2 / fortify_k
    if family == "bsc":
        p = min(param, 1 - param)
        h = lambda d: -d * math.log(d) - (1 - d) * math.log(1 - d)
        target = LN2 - r
        if target >= LN2:
            return _binary_divergence(0.5, p)
        delta = _bisect(lambda d: h(d) - target, p, 0.5)
        return _binary_divergence(delta, p)
    if family == "bec":
        return _binary_divergence(1 - r / LN2, param)
    return None


def _e0(matrix: np.ndarray, rho: float, fortify_k=None, q=None) -> float:
    """Gallager's E0(rho, q); q defaults to the uniform input."""
    q = np.full(matrix.shape[0], 1.0 / matrix.shape[0]) if q is None else q
    inner = (q[:, None] * matrix ** (1.0 / (1.0 + rho))).sum(axis=0)
    shift = rho * LN2 / fortify_k if fortify_k else 0.0
    return -math.log(float((inner ** (1.0 + rho)).sum())) + shift


def _e0_max(matrix: np.ndarray, rho: float, fortify_k, symmetric: bool) -> float | None:
    """max_q E0(rho, q): the uniform input on an output-symmetric channel, a
    golden-section search over q on a two-input channel (E0 is -ln of a
    function convex in q, so unimodal), None otherwise."""
    if symmetric:
        return _e0(matrix, rho, fortify_k)
    if matrix.shape[0] != 2:
        return None
    f = lambda s: _e0(matrix, rho, fortify_k, np.array([s, 1.0 - s]))
    lo, hi, g = 0.0, 1.0, (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (lo, b) if f(a) > f(b) else (a, hi)
    return f(0.5 * (lo + hi))


@functools.lru_cache(maxsize=None)
def esp_divergence_edge(matrix_json: str, fortify_k, symmetric: bool) -> float:
    """The rate below which the program's sphere_packing reports a diverging
    supremum.  It returns inf when E0(64) - 64 R > E0(57.6) - 57.6 R (and its
    search ends near 64), i.e. only for R below the slope of the secant of
    max_q E0 over [57.6, 64].  0.0 where ``_e0_max`` is not known."""
    rows = np.asarray(json.loads(matrix_json), dtype=float)
    lo = 0.9 * RHO_MAX
    hi_e0, lo_e0 = (_e0_max(rows, rho, fortify_k, symmetric) for rho in (RHO_MAX, lo))
    return 0.0 if hi_e0 is None else (hi_e0 - lo_e0) / (RHO_MAX - lo)


@functools.lru_cache(maxsize=None)
def _focusing_reference(matrix_json: str, r: float, fortify_k) -> float:
    return focusing_parametric(json.loads(matrix_json), r, fortify_k)


def focusing_parametric(matrix, r: float, fortify_k=None) -> float:
    """Focusing bound of an output-symmetric channel: E0(eta) with
    E0(eta)/eta = R, solved by bisection on log(eta)."""
    rows = np.asarray(matrix, dtype=float)
    g = lambda u: r - _e0(rows, math.exp(u), fortify_k) / math.exp(u)
    eta = math.exp(_bisect(g, math.log(1e-9), math.log(1e9)))
    return _e0(rows, eta, fortify_k)


# ---------------------------------------------------------------------------
# bound tables and curves
# ---------------------------------------------------------------------------

class Failures(list):
    """(name, detail, known) triples; ``known`` marks a failure of
    ``KNOWN_DEFECTS`` found where that defect can occur."""

    def add(self, name: str, detail: str, known: bool = False) -> None:
        assert not known or name in KNOWN_DEFECTS, name
        self.append((name, detail, known))


def _check_point(fails: Failures, info: dict, r: float, vals: dict, where: str) -> None:
    """Checks at one rate of one channel: orderings, identities, closed forms."""
    c0f = zero_error_feedback_capacity(info["matrix"], info.get("fortify_k"))
    for name, v in vals.items():
        if math.isnan(v) or v < 0:
            fails.add("nonnegative", f"{where}: {name} = {v}")
    above_c0f = r > c0f * (1 + 1e-9) + 1e-12
    if above_c0f:
        for name in ("esp", "haroutunian", "tilde", "focusing", "viterbi"):
            if math.isinf(vals.get(name, 0.0)):
                # on output-symmetric channels haroutunian *is* sphere_packing
                # (unfortified)
                failure = "esp" if name == "haroutunian" and info["symmetric"] else name
                known = failure == "esp" and r < esp_divergence_edge(
                    json.dumps(info["matrix"]),
                    info.get("fortify_k") if name == "esp" else None,
                    info["symmetric"]) * (1 + 1e-6)
                fails.add(f"{failure}_finite",
                          f"{where}: {name} = inf at R = {r} > C_0,f = {c0f}", known)
        # a value already reported as wrongly infinite takes no further part
        vals = {n: v for n, v in vals.items() if not math.isinf(v)}
    chain = ["er"] + sorted(n for n in vals if n.startswith("er") and n[2:].isdigit())
    chain = [n for n in chain + ["esp", "haroutunian"] if n in vals]
    for lo, hi in zip(chain, chain[1:]):
        if vals[lo] > vals[hi] + TOL * max(1.0, abs(vals[hi])):
            fails.add(f"ordering.{lo}_{hi}", f"{where}: {vals[lo]} > {vals[hi]}")
    for lo, hi in (("tilde", "haroutunian"), ("esp", "focusing"),
                   ("timesharing", "focusing")):
        if lo in vals and hi in vals and vals[lo] > vals[hi] + TOL * max(1.0, abs(vals[hi])):
            fails.add(f"ordering.{lo}_{hi}", f"{where}: {vals[lo]} > {vals[hi]}")
    if "viterbi" in vals and "focusing" in vals and not _close(vals["viterbi"], vals["focusing"]):
        fails.add("identity.viterbi_focusing", f"{where}: {vals['viterbi']} != {vals['focusing']}")
    if info["symmetric"] and "haroutunian" in vals and "esp" in vals \
            and not _close(vals["haroutunian"], vals["esp"]):
        fails.add("identity.haroutunian_esp", f"{where}: {vals['haroutunian']} != {vals['esp']}")
    family = info.get("family")
    if "esp" in vals and math.isfinite(vals["esp"]) and family in ("bsc", "bec") and above_c0f:
        ref = esp_closed_form(family, info["param"], r, info.get("fortify_k"))
        if not _close(vals["esp"], ref):
            fails.add("closed_form.esp", f"{where}: {vals['esp']} vs {ref}")
    if "focusing" in vals and info["symmetric"] and above_c0f:
        ref = _focusing_reference(json.dumps(info["matrix"]), r, info.get("fortify_k"))
        if not _close(vals["focusing"], ref):
            fails.add("closed_form.focusing", f"{where}: {vals['focusing']} vs {ref}")
    for name, ref in info.get("pinned", {}).items():
        if abs(vals[name] - ref) > info["pinned_tol"] * max(1.0, abs(ref)):
            fails.add(f"pinned.{name}", f"{where}: {vals[name]} vs {ref}")


def check_bounds(info: dict, stdout: str) -> Failures:
    fails = Failures()
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["bound", "rate_nats", "rate_bits", "value_nats", "value_bits"]:
        fails.add("format", "bad bounds header")
        return fails
    body = rows[1:]
    if [row[0] for row in body] != info["bounds"]:
        fails.add("format", f"bounds {[row[0] for row in body]} != {info['bounds']}")
        return fails
    vals = {}
    r = info["rate"]
    for name, rn, rb, vn, vb in body:
        if not _close(float(rn), r, 1e-12) or not _close(float(rb), r / LN2, 1e-12):
            fails.add("format", f"{name}: rate {rn} != {r}")
        v = float(vn)
        if not _close(float(vb), v / LN2, 1e-12):
            fails.add("format", f"{name}: bits column {vb} != {v} / ln 2")
        vals[name] = v
    _check_point(fails, info, r, vals, f"R={r!r}")
    return fails


def _read_curve(info: dict, path: Path, fails: Failures) -> dict | None:
    if info.get("format") == "json":
        payload = json.loads(path.read_text())
        rates = payload["rate_nats"]
        cols = {n: [math.inf if v is None else float(v) for v in vals]
                for n, vals in payload["bounds"].items()}
        if sorted(cols) != sorted(info["bounds"]):
            fails.add("format", f"columns {sorted(cols)}")
            return None
    else:
        rows = list(csv.reader(path.open()))
        if rows[0] != ["rate_nats", "rate_bits"] + info["bounds"]:
            fails.add("format", f"bad curve header {rows[0]}")
            return None
        rates = [float(row[0]) for row in rows[1:]]
        for row in rows[1:]:
            if not _close(float(row[1]), float(row[0]) / LN2, 1e-12):
                fails.add("format", f"bits column {row[1]} at {row[0]}")
        cols = {n: [float(row[2 + i]) for row in rows[1:]] for i, n in enumerate(info["bounds"])}
    if len(rates) != len(info["rates"]) or not all(
            _close(a, b, 1e-12) for a, b in zip(rates, info["rates"])):
        fails.add("format", "rate grid differs from the request")
        return None
    return {"rates": rates, "cols": cols}


def _curve_findings(info: dict, table: dict) -> set:
    """Every check on the points known so far of one channel's curves:
    ``table`` maps rate -> {bound: value}."""
    found = Failures()
    rates = sorted(table)
    for bound in sorted({b for row in table.values() for b in row}):
        seq = [(r, table[r][bound]) for r in rates if bound in table[r]]
        for (_, a), (r, b) in zip(seq, seq[1:]):
            if b > a + TOL * max(1.0, abs(a)):
                found.add("nonincreasing", f"{bound}: {a} -> {b} at R = {r!r}")
    for r in rates:
        _check_point(found, info, r, table[r], f"R={r!r}")
    return set(found)


def check_curve(info: dict, out: str, peers: dict) -> Failures:
    """Checks on one curve together with every earlier curve of the same
    channel (orderings between bounds, monotonicity across requests); a
    failure is charged to the request whose points complete it."""
    fails = Failures()
    curve = _read_curve(info, Path(out), fails)
    if curve is None:
        return fails
    key = ("curve", json.dumps(info["matrix"]), info.get("fortify_k"))
    table = peers.setdefault(key, {})
    merged = {r: dict(row) for r, row in table.items()}
    for i, r in enumerate(curve["rates"]):
        merged.setdefault(r, {}).update({n: v[i] for n, v in curve["cols"].items()})
    fails.extend(sorted(_curve_findings(info, merged) - _curve_findings(info, table)))
    peers[key] = merged
    return fails


# ---------------------------------------------------------------------------
# figures: the seed commit's outputs are the reference, and their bound
# columns pass the curve checks
# ---------------------------------------------------------------------------

def _bsc(p: float) -> list:
    return [[1 - p, p], [p, 1 - p]]


FIGURE_CHANNELS = {
    "bsc002": {"matrix": _bsc(0.02), "family": "bsc", "param": 0.02},
    "bsc0003": {"matrix": _bsc(0.003), "family": "bsc", "param": 0.003},
    "bec04": {"matrix": [[0.6, 0.0, 0.4], [0.0, 0.6, 0.4]], "family": "bec", "param": 0.4},
}
_PLAIN = {"esp": ("bsc002", None, "esp"), "focusing": ("bsc002", None, "focusing")}
# figure -> CSV file -> column -> (channel, fortification period, bound)
FIGURE_BOUNDS = {
    6: {"bsc002_focusing_family.csv": _PLAIN},
    7: {"bsc0003_focusing_vs_burnashev.csv": {"focusing": ("bsc0003", None, "focusing")}},
    8: {"bsc002_delay_bounds.csv": {**_PLAIN, "timesharing": ("bsc002", None, "timesharing"),
                                    "random_coding": ("bsc002", None, "er")}},
    9: {"bec04_bounds.csv": {"esp": ("bec04", None, "esp"),
                             "focusing": ("bec04", None, "focusing")}},
    12: {"bsc002_slack.csv": _PLAIN},
    14: {"bsc002_fortified_bounds.csv": {
        "esp_plain": ("bsc002", None, "esp"), "focusing_plain": ("bsc002", None, "focusing"),
        "esp_fortified_k50": ("bsc002", 50, "esp"),
        "focusing_fortified_k50": ("bsc002", 50, "focusing")}},
    16: {"bsc002_ncl_schemes.csv": {"esp": ("bsc002", None, "esp"),
                                    "focusing_fortified": ("bsc002", 50, "focusing")}},
}


def check_figure_bounds(figure: int, directory: Path) -> Failures:
    """The curve checks (closed forms, orderings, monotonicity) on the bound
    columns of one figure's CSV files."""
    fails = Failures()
    for name, columns in FIGURE_BOUNDS.get(figure, {}).items():
        rows = list(csv.DictReader((directory / name).open()))
        tables: dict = {}
        for column, (channel, fortify_k, bound) in columns.items():
            table = tables.setdefault((channel, fortify_k), {})
            for row in rows:
                table.setdefault(float(row["rate_nats"]), {})[bound] = float(row[column])
        for (channel, fortify_k), table in tables.items():
            info = dict(FIGURE_CHANNELS[channel], fortify_k=fortify_k, symmetric=True)
            for failure, detail, known in sorted(_curve_findings(info, table)):
                fails.add(failure, f"figure {figure} {name}: {detail}", known)
    return fails


def _values_match(a, b) -> bool:
    if isinstance(b, dict):
        return isinstance(a, dict) and a.keys() == b.keys() and all(
            _values_match(a[k], b[k]) for k in b)
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(
            _values_match(x, y) for x, y in zip(a, b))
    if isinstance(b, bool) or not isinstance(b, (int, float)):
        return type(a) is type(b) and a == b
    return isinstance(a, (int, float)) and not isinstance(a, bool) and _close(a, b)


def check_figure(info: dict, out: str) -> Failures:
    fails = Failures()
    got_dir, ref_dir = Path(out), REFERENCE / f"figure_{info['figure']}"
    got_files = sorted(p.name for p in got_dir.iterdir())
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    if got_files != ref_files:
        fails.add("format", f"files {got_files} != {ref_files}")
        return fails
    manifest = json.loads((got_dir / "MANIFEST.json").read_text())
    if manifest.get("figure") != info["figure"] or type(manifest.get("figure")) is not int:
        fails.add("manifest.figure", f"figure field {manifest.get('figure')!r}")
    if not _values_match(manifest, json.loads((ref_dir / "MANIFEST.json").read_text())):
        fails.add("reference.manifest", f"figure {info['figure']} MANIFEST.json")
    for name in ref_files:
        if not name.endswith(".csv"):
            continue
        got = list(csv.reader((got_dir / name).open()))
        ref = list(csv.reader((ref_dir / name).open()))
        if got[0] != ref[0] or len(got) != len(ref):
            fails.add("format", f"{name}: shape or header differs from the reference")
            continue
        for grow, rrow in zip(got[1:], ref[1:]):
            bad = [(h, g, r) for h, g, r in zip(ref[0], grow, rrow)
                   if not _close(float(g), float(r))]
            if bad:
                fails.add("reference.values", f"{name}: {bad[:3]}")
                break
    fails.extend(check_figure_bounds(info["figure"], got_dir))
    return fails


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------

NUM = (int, float)
OPT_NUM = (int, float, type(None))

FIT_SCHEMA = {"exponent": OPT_NUM, "unbounded": bool, "ci": list, "widened_ci": bool,
              "d_grid": list, "miss_probs": list, "miss_counts": list}
QUEUE_FIT_SCHEMA = {"exponent": OPT_NUM, "d_grid": list, "miss_probs": list,
                    "miss_counts": list}
SUMMARY_SCHEMA = {
    "bec": {"sim": str, "fit": FIT_SCHEMA, "seed": int, "config": dict},
    "queue": {"sim": str, "fit": QUEUE_FIT_SCHEMA, "tail_exponent_bound": OPT_NUM,
              "seed": int, "config": dict},
    "ncl": {"sim": str, "fit": FIT_SCHEMA, "committed_errors": int,
            "params": {"n": int, "c": int, "l": int, "k": int, "rho": NUM,
                       "rate": NUM, "slack_chunks": int},
            "guaranteed_exponent": NUM, "seed": int, "config": dict},
    "two_stream": {"sim": str, "fit": FIT_SCHEMA, "psi": NUM, "rho": NUM,
                   "target_exponent": NUM, "committed_errors": int, "seed": int,
                   "config": dict},
}


def _is(value, types) -> bool:
    types = types if isinstance(types, tuple) else (types,)
    if isinstance(value, bool) and bool not in types:
        return False
    return isinstance(value, types)


def _check_schema(fails: Failures, payload: dict, schema: dict, prefix: str,
                  known: frozenset = frozenset()) -> None:
    """Type checks of ``payload``; failures named in ``known`` are marked known."""
    if set(payload) != set(schema):
        fails.add(f"{prefix}.keys", f"{sorted(payload)} != {sorted(schema)}")
    for key, want in schema.items():
        if key not in payload:
            continue
        name = f"{prefix}.{key}"
        if isinstance(want, dict):
            if isinstance(payload[key], dict):
                _check_schema(fails, payload[key], want, name, known)
            else:
                fails.add(name, f"{payload[key]!r} is not an object")
        elif not _is(payload[key], want):
            fails.add(name, f"{payload[key]!r} is not {want}", name in known)
    fit = payload.get("fit") if prefix == "summary_schema" else None
    if isinstance(fit, dict):
        lists = {"ci": OPT_NUM, "d_grid": NUM, "miss_probs": NUM, "miss_counts": int}
        for key, want in lists.items():
            if isinstance(fit.get(key), list) and not all(_is(v, want) for v in fit[key]):
                fails.add(f"summary_schema.fit.{key}[]", f"{fit[key]!r}")


def _trace(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_sim(info: dict, out: str, peers: dict) -> Failures:
    fails = Failures()
    out = Path(out)
    summary = json.loads((out / "summary.json").read_text())
    label = info["label"]
    schema = SUMMARY_SCHEMA["two_stream" if label == "two_stream" else info["sim"]]
    # the seed's float widened_ci is known on the erasure-channel simulations only
    known = frozenset({"summary_schema.fit.widened_ci"} if info["sim"] == "bec" else ())
    _check_schema(fails, summary, schema, "summary_schema", known)
    if summary.get("config") != info["config"] or summary.get("seed") != info["seed"]:
        fails.add("summary.config", "config or seed differs from the request")
    if info["sim"] == "ncl" and summary.get("committed_errors") != 0:
        fails.add("ncl.committed_errors", f"{summary.get('committed_errors')!r}")
    if label == "two_stream":
        return fails
    header, data = _trace(out / "trace.csv")
    if info["sim"] == "bec":
        if header != ["trial", "time", "arrivals_cum", "decoded_cum", "queue_len"]:
            fails.add("format", f"trace header {header}")
            return fails
        if np.any(data[:, 2] != data[:, 3] + data[:, 4]):
            fails.add("bec.conservation", "arrivals != decoded + queue")
        if np.any(np.diff(data[:, 3]) < 0):
            fails.add("bec.decoded_monotone", "decoded count decreases")
        peers[("bec", label, info["seed"])] = data
        fifo = peers.get(("bec", "fifo", info["seed"]))
        parity = peers.get(("bec", "parity", info["seed"]))
        if fifo is not None and parity is not None:  # the second run of the pair
            if fifo.shape != parity.shape or np.any(fifo[:, 1] != parity[:, 1]):
                fails.add("bec.coupling", "FIFO and parity traces sample different times")
            elif np.any(fifo[:, 3] < parity[:, 3]):
                fails.add("bec.fifo_before_parity", "parity decoded a bit before FIFO did")
    elif info["sim"] == "queue":
        if header != ["trial", "arrival", "completion", "service"]:
            fails.add("format", f"trace header {header}")
            return fails
        arrival, completion, service = data[:, 1], data[:, 2], data[:, 3]
        offset = info["config"]["service"]["offset"]
        if np.any(service < offset + 1):
            fails.add("queue.service_support", "service time below offset + 1")
        if np.any(completion < arrival + service) or np.any(np.diff(completion) <= 0):
            fails.add("queue.fifo", "completion before arrival + service, or out of order")
    else:
        if header != ["trial", "arrival", "service_start", "transmission", "commit"]:
            fails.add("format", f"trace header {header}")
            return fails
        arrival, start, trans, commit = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
        if np.any(start < arrival) or np.any(commit < start + trans):
            fails.add("ncl.timing", "service before arrival, or commit before transmission ends")
    return fails


def check(req, stdout: str, peers: dict) -> Failures:
    """Run every check that applies to one completed request."""
    if req.kind == "bounds":
        return check_bounds(req.info, stdout)
    if req.kind == "curve":
        return check_curve(req.info, req.out, peers)
    if req.kind == "figure":
        return check_figure(req.info, req.out)
    return check_sim(req.info, req.out, peers)

