"""delaylab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads: curves_symmetric,
curves_asymmetric, point_queries, simulations (see BENCHMARK.json for why
each exists).  The run is sized by ``run_seconds`` of BENCHMARK.json: the
request list holds about that much work for the unmodified program, and a
faster program finishes sooner.  ``--seconds`` is accepted so that the
benchmark can be called with its run length, but must equal ``run_seconds``:
runs of another size would not be comparable with the recorded ones.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s      median over three fresh interpreters of importing delaylab and
               building the run's inputs (two set-up-only probes plus the
               measured run)
  wall_s       first request sent to last result received (the sum of the
               request latencies: the loop is closed)
  req_ms_p50/  per-request latency percentiles; the sample count is printed
  req_ms_p90   as ``requests``
  peak_rss_mb  ru_maxrss of the measured interpreter
Times are rescaled to a reference host speed sampled every 0.1 s while the
run executes (see worker.py); the unscaled wall and set-up times are printed too.
--trace 1 prints the per-layer metrics of BENCHMARK.json from a traced run
(layer times rescaled by that run's overall host-speed factor), plus
``trace.overhead_s``: traced wall_s minus the wall_s of an untraced run of the
same inputs made just before it.

Every request's output is checked (see checks.py).  ``fail_ratio`` = failed
requests / attempted requests is printed with the failures by name; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when a request failed a check other than a
known defect of ``checks.KNOWN_DEFECTS`` where that defect can occur.  The exit code is 0 when the run
completed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curves_symmetric", "curves_asymmetric", "point_queries", "simulations")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # the whole run, children included


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="delaylab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal run_seconds of BENCHMARK.json, which sizes the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    """One client, one thread: no FDL_* overrides, single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if k not in ("FDL_SEED", "FDL_THREADS")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, seconds: int, work: Path, tag: str, trace: int, deadline: float,
               extra: tuple = ()) -> dict:
    """Start worker.py in a fresh interpreter, wait for it, return its result."""
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work / tag), "--result", str(result),
           *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    return json.loads(result.read_text())


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(measured: dict, setup_samples: list[float]) -> dict:
    lat = [r["latency_ms"] for r in measured["requests"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": measured["wall_s"],
        "req_ms_p50": percentile(lat, 50),
        "req_ms_p90": percentile(lat, 90),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict, names: list[str]) -> dict:
    """Layer counts as counted; layer times rescaled by the traced run's
    overall host-speed factor, like the end-to-end times."""
    layers = traced["layers"]
    speed = traced["wall_s"] / traced["raw_wall_s"]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = traced["wall_s"] - untraced["wall_s"]
        elif name == "trace.wall_s":
            values[name] = traced["wall_s"]
        elif name == "cli.out_bytes":
            values[name] = sum(r["out_bytes"] for r in traced["requests"])
        else:
            layer, stat = name.rsplit(".", 1)
            if layer not in layers:
                raise KeyError(f"per-layer metric {name} names no traced layer")
            values[name] = layers[layer][stat] * (speed if stat.endswith("_s") else 1)
    return values


def summarize_failures(requests: list[dict]):
    """Failed requests, whether all failures are known defects, and the
    number of failed requests and the first detail per (check, known)."""
    failed, unexpected, by_name, example = 0, False, Counter(), {}
    for r in requests:
        keys = {(name, known) for name, _, known in r["failures"]}
        if keys:
            failed += 1
            unexpected |= not all(known for _, known in keys)
        by_name.update(keys)
        for name, detail, known in r["failures"]:
            example.setdefault((name, known), detail.strip().splitlines()[-1][:160])
    return failed, not unexpected, by_name, example


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "delaylab" / "cli.py").is_file() or not (ROOT / "channels").is_dir():
        print(f"run.py: no delaylab source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"run.py: --seconds {args.seconds:g} != run_seconds {seconds} of "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = (ROOT / ".perfbench_out"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            untraced = run_worker(args, seconds, work, "untraced", 0, deadline)
            measured = run_worker(args, seconds, work, "traced", 1, deadline)
            metric_specs = spec["per_layer"]
            values = per_layer(measured, untraced, [m["name"] for m in metric_specs])
            trace_file = work.parent / f"{args.workload}-seed{args.seed}.spans.json"
            trace_file.write_text(json.dumps({
                "layers": measured["layers"], "bindings": measured["bindings"],
                "requests": [{k: r[k] for k in ("argv", "rc", "latency_ms", "raw_latency_ms")}
                             for r in measured["requests"]]}, indent=1))
        else:
            probes = [run_worker(args, seconds, work, f"setup{i}", 0, deadline, ("--setup-only",))
                      for i in range(SETUP_PROBES)]
            measured = run_worker(args, seconds, work, "measured", 0, deadline)
            probes.append(measured)
            raw_setup = [p["raw_setup_s"] for p in probes]
            metric_specs = spec["end_to_end"]
            values = end_to_end(measured, [p["setup_s"] for p in probes])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    requests = measured["requests"]
    failed, correct, by_name, example = summarize_failures(requests)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {seconds}  "
          f"trace: {args.trace}")
    print(f"requests: {len(requests)}")
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"unscaled: wall {measured['raw_wall_s']:.6g} s, set-up "
              f"{statistics.median(raw_setup):.6g} s")
    print(f"fail_ratio: {failed / len(requests):.6g} ({failed} of {len(requests)} requests)")
    for (name, known), count in sorted(by_name.items()):
        label = "known defect" if known else "UNEXPECTED"
        print(f"  failed check {name}: {count} requests ({label}), "
              f"e.g. {example[name, known]}")
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": len(requests), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
