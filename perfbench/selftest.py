"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  Checks:

1. two traced runs with the same seed give identical per-layer call and
   iteration counts, on a small case of every workload;
2. every output (CSV, JSON, stdout) is byte-identical with tracing on and off;
3. every wrapper counts the calls made through each module that bound its
   name, and a tiny real request is counted layer by layer;
4. the closed-form references reproduce the pinned erasure-channel values;
   the seed commit's figure outputs in ``reference/`` pass the closed-form,
   ordering and monotonicity checks on their bound columns; the program's
   sphere-packing exponent is finite above the rate where ``checks`` stops
   treating an infinite one as the known defect; and every per-layer metric
   of BENCHMARK.json names a traced layer.

Exits 0 when all pass, 1 otherwise, printing each failure.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent

# (workload, seconds, max requests): a few seconds of work each
SMALL_CASES = (
    ("curves_symmetric", 1, 3),
    ("curves_asymmetric", 1, 1),
    ("point_queries", 1, 8),
    ("simulations", 3, None),
)


def run_worker(workload: str, seconds: float, max_requests, trace: int, work: Path) -> dict:
    tag = f"{workload}-trace{trace}-{len(list(work.glob('*.json')))}"
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work / tag),
           "--result", str(result)]
    if max_requests is not None:
        cmd += ["--max-requests", str(max_requests)]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=300)
    return json.loads(result.read_text())


def counts(result: dict) -> dict:
    return {layer: (s["calls"], s["iterations"]) for layer, s in result["layers"].items()}


def check_runs(work: Path) -> list[str]:
    errors = []
    for workload, seconds, max_requests in SMALL_CASES:
        plain = run_worker(workload, seconds, max_requests, 0, work)
        traced = [run_worker(workload, seconds, max_requests, 1, work) for _ in range(2)]
        if counts(traced[0]) != counts(traced[1]):
            diff = {k: (v, counts(traced[1]).get(k)) for k, v in counts(traced[0]).items()
                    if counts(traced[1]).get(k) != v}
            errors.append(f"{workload}: traced counts differ between runs: {diff}")
        if not any(calls for calls, _ in counts(traced[0]).values()):
            errors.append(f"{workload}: the traced run counted no calls")
        for run in (traced[0], traced[1]):
            got = [r["digests"] for r in run["requests"]]
            want = [r["digests"] for r in plain["requests"]]
            if got != want:
                errors.append(f"{workload}: outputs differ with tracing on")
                break
        print(f"{workload}: {len(plain['requests'])} requests, "
              f"{sum(c for c, _ in counts(traced[0]).values())} traced calls", flush=True)
    return errors


def check_bindings() -> list[str]:
    """Every binding is wrapped, and a call through it is counted once."""
    sys.path.insert(0, str(ROOT / "src"))
    from delaylab import cli, dmc, exponents, ncl_scheme
    from tracing import METHODS, Tracer

    method_layers = {m[3] for m in METHODS}
    errors = []
    tracer = Tracer()
    tracer.install()
    try:
        for layer, bindings in tracer.bindings.items():
            if len(bindings) == 0:
                errors.append(f"{layer}: bound nowhere")
            for binding in bindings:
                owner_name, attr = binding.rsplit(".", 1)
                if layer in method_layers:  # the owner is a class
                    mod, cls = owner_name.rsplit(".", 1)
                    owner = getattr(importlib.import_module(mod), cls)
                else:
                    owner = importlib.import_module(owner_name)
                target = getattr(owner, attr)
                if getattr(target, "layer", None) != layer:
                    errors.append(f"{binding}: not wrapped")
                    continue
                before = tracer.stats[layer].calls
                # no arguments: the wrapped function raises, the call still counts
                with contextlib.redirect_stderr(io.StringIO()), \
                        contextlib.suppress(TypeError, SystemExit):
                    target(*(["--no-such-option"] if layer == "cli.main" else []))
                if tracer.stats[layer].calls != before + 1:
                    errors.append(f"{binding}: call not counted")
        wrapped = {id(getattr(f, "__wrapped__", None)) for mod in tracer._modules()
                   for f in vars(mod).values() if hasattr(f, "layer")}
        for mod in tracer._modules():
            for attr, value in vars(mod).items():
                if id(value) in wrapped:
                    errors.append(f"{mod.__name__}.{attr}: still the unwrapped function")

        # a tiny real case through three importing modules of e0_max
        for layer in tracer.stats.values():
            layer.calls = layer.iterations = 0
        ch = dmc.bsc(0.1)
        for mod in (exponents, ncl_scheme, cli):
            mod.e0_max(ch, 1.0)
        e0 = tracer.stats["exponents.e0_max"].calls
        ge0 = tracer.stats["exponents.gallager_e0"].calls
        if (e0, ge0) != (3, 3):
            errors.append(f"e0_max via exponents, ncl_scheme, cli: counted {e0} "
                          f"e0_max and {ge0} gallager_e0 calls, want 3 and 3")
        bec = str(ROOT / "channels" / "bec04.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["bounds", bec, "--rate", "0.5", "--bits", "--bounds", "esp,focusing"])
        got = {k: tracer.stats[k].calls for k in
               ("cli.main", "exponents.bound_at_rate", "exponents.sphere_packing",
                "exponents.focusing_bound")}
        if rc != 0 or got != {"cli.main": 1, "exponents.bound_at_rate": 2,
                              "exponents.sphere_packing": 1, "exponents.focusing_bound": 1}:
            errors.append(f"tiny bounds request: rc {rc}, counted {got}")
        if tracer.stats["optimize.maximize_concave_1d"].iterations <= 0:
            errors.append("golden-section iterations not counted")

        # excluded time (the host-speed probes) is no span's time
        def busy():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.05:
                pass
            tracer.exclude(time.perf_counter() - t0)
        tracer._wrap("selftest.busy", busy)()
        spent = tracer.stats.pop("selftest.busy")
        if spent.calls != 1 or spent.self_s > 0.01 or spent.total_s > 0.01:
            errors.append(f"excluded time still counted: {spent}")
    finally:
        tracer.uninstall()
    if getattr(exponents.e0_max, "layer", None) is not None:
        errors.append("uninstall left a wrapper in place")
    return errors


def check_references() -> list[str]:
    from checks import (FIGURE_BOUNDS, FIGURE_CHANNELS, LN2, REFERENCE, check_figure_bounds,
                        esp_closed_form, esp_divergence_edge, focusing_parametric)
    from workloads import capacity_nats
    sys.path.insert(0, str(ROOT / "src"))
    from delaylab import dmc, exponents
    errors = []
    for figure in FIGURE_BOUNDS:
        for name, detail, _ in check_figure_bounds(figure, REFERENCE / f"figure_{figure}"):
            errors.append(f"reference figure {figure}: {name}: {detail}")
    z_channel = [[1.0, 0.0], [0.25, 0.75]]
    for matrix, fortify_k, symmetric in (
            (FIGURE_CHANNELS["bsc002"]["matrix"], None, True),
            (FIGURE_CHANNELS["bsc0003"]["matrix"], None, True),
            (FIGURE_CHANNELS["bsc002"]["matrix"], 50, True), (z_channel, None, False)):
        edge = esp_divergence_edge(json.dumps(matrix), fortify_k, symmetric) * (1 + 1e-6)
        for r in (edge, 2 * edge):
            if math.isinf(exponents.sphere_packing(dmc.Dmc(matrix), r, fortify_k)):
                errors.append(f"{matrix} k={fortify_k}: esp = inf at R = {r}, above "
                              f"the known defect's edge")
    bec = [[0.6, 0.0, 0.4], [0.0, 0.6, 0.4]]
    if abs(esp_closed_form("bec", 0.4, 0.5 * LN2) - 0.020411) > 5e-7:
        errors.append("BEC esp closed form")
    if abs(focusing_parametric(bec, 0.5 * LN2) - math.log(1.5)) > 1e-9:
        errors.append("BEC focusing closed form")
    if abs(capacity_nats(bec) - 0.6 * LN2) > 1e-12:
        errors.append("BEC capacity")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {"trace.wall_s", "trace.overhead_s", "cli.out_bytes"}
    from tracing import FUNCTIONS, METHODS
    known = {f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs} | {m[3] for m in METHODS}
    for metric in spec["per_layer"]:
        layer, stat = metric["name"].rsplit(".", 1)
        if metric["name"] not in layers and (layer not in known or stat not in
                                             ("calls", "iterations", "self_s", "total_s")):
            errors.append(f"per-layer metric {metric['name']} names no traced layer")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return errors


def main() -> int:
    work = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        errors = check_references() + check_bindings() + check_runs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
