"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work DIR --result FILE [--setup-only] [--max-requests K]

Set-up is timed from the first line of this file: importing delaylab (and
numpy/scipy with it) and writing the run's inputs.  The requests then run in
a closed loop, one client on one thread: each is one in-process call to
``delaylab.cli.main(argv)`` with stdout captured, timed on its own.  The
module caches start cold because the interpreter is new.  After the last
request the outputs are checked and digested, outside the timed region, and
everything is written to FILE as JSON.  ``run.py`` starts this script;
``--setup-only`` stops after set-up, and ``--max-requests`` keeps the first
K requests (the self-test uses it for small cases).

Host-speed calibration.  The benchmark runs on shared 2-vCPU hosts whose
speed drifts by up to 2x within minutes and swings within seconds, while the
program's work is deterministic.  So every time is reported rescaled to a
reference host speed: ``SpeedProbe`` times a fixed pure-Python loop from a
SIGALRM handler every ``PROBE_PERIOD_S``, in the main thread, between the
program's bytecodes.  An interval of t seconds, less the probes that ran
inside it, becomes t * PROBE_REF_S / (mean loop time of the probes inside it
and next to it).  The loop is the benchmark's own code, so a change to the
program cannot move it.  Raw times are kept next to the rescaled ones.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


PROBE_LOOPS = 20_000
PROBE_REF_S = 0.00133  # the loop's time on an uncontended 2-vCPU host, Python 3.11.7
PROBE_PERIOD_S = 0.1


class SpeedProbe:
    """Samples the host's speed every PROBE_PERIOD_S while started."""

    def __init__(self):
        self.ends: list[float] = []   # perf_counter at the end of each probe
        self.costs: list[float] = []  # the probe loop's duration
        self.on_sample = None         # called with each probe's duration

    def sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        t1 = perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(3):  # so that the last interval has probes after it too
            self.sample()

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, rescaled) seconds of program time in [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        raw = t1 - t0 - sum(self.costs[lo:hi])
        near = self.costs[max(lo - 1, 0):hi + 1]
        return raw, raw * PROBE_REF_S / (sum(near) / len(near))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-requests", type=int, default=None)
    return ap.parse_args(argv)


def digest_outputs(req, stdout: str) -> dict:
    """sha256 of every file the request wrote, and of its stdout."""
    digests = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    if req.out is not None:
        out = Path(req.out)
        files = sorted(out.rglob("*")) if out.is_dir() else [out]
        for f in files:
            if f.is_file():
                digests[str(f.relative_to(out.parent))] = hashlib.sha256(
                    f.read_bytes()).hexdigest()
    return digests


def output_bytes(req, stdout: str) -> int:
    total = len(stdout.encode())
    if req.out is not None:
        out = Path(req.out)
        files = out.rglob("*") if out.is_dir() else [out]
        total += sum(f.stat().st_size for f in files if f.is_file())
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import delaylab.cli  # noqa: F401  (timed: this is the user's import cost)
    import workloads

    requests = workloads.build(args.workload, args.seed, args.seconds, args.work,
                               ROOT / "channels")
    if args.max_requests is not None:
        requests = requests[:args.max_requests]
    t_setup = perf_counter()
    if args.setup_only:
        probe.stop()
        raw, scaled = probe.rescale(T_START, t_setup)
        args.result.write_text(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        probe.on_sample = tracer.exclude  # probes inside a span are not its time
    cli = sys.modules["delaylab.cli"]

    records = []
    for req in requests:
        buf = io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(req.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:  # a request that raises is a failed request, not a crash
            rc, error = None, traceback.format_exc(limit=3)
        records.append((req, rc, error, t0, perf_counter(), buf.getvalue()))
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw_setup_s, setup_s = probe.rescale(T_START, t_setup)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if tracer is not None:
        probe.on_sample = None
        tracer.uninstall()
        result["layers"] = tracer.snapshot()
        result["bindings"] = tracer.bindings

    import checks
    peers: dict = {}
    out_requests = []
    for req, rc, error, t0, t1, stdout in records:
        raw, scaled = probe.rescale(t0, t1)
        if error is not None:
            fails = [("exception", error, False)]
        elif rc != 0:
            fails = [("exit_code", f"exit code {rc!r}", False)]
        else:
            try:
                fails = list(checks.check(req, stdout, peers))
            except Exception:  # an unreadable output fails its request
                fails = [("unreadable_output", traceback.format_exc(limit=3), False)]
        out_requests.append({
            "argv": req.argv, "kind": req.kind, "rc": rc,
            "latency_ms": 1000.0 * scaled, "raw_latency_ms": 1000.0 * raw,
            "failures": fails,
            "out_bytes": output_bytes(req, stdout) if rc == 0 else 0,
            "digests": digest_outputs(req, stdout) if rc == 0 else {},
        })
    result.update({
        "wall_s": sum(r["latency_ms"] for r in out_requests) / 1000.0,
        "raw_wall_s": sum(r["raw_latency_ms"] for r in out_requests) / 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "requests": out_requests,
    })
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
