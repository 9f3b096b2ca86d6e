import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delaylab import cli, exponents
from delaylab.dmc import LN2, ConvergenceError
from oracles import row_loop_trace_csv

CHANNELS = Path(__file__).resolve().parent.parent / "channels"
GOLDEN = Path(__file__).resolve().parent / "data"


def run(argv):
    return cli.main([str(a) for a in argv])


class TestChannelParsing:
    def test_decimal_strings_accepted(self):
        ch, k = cli.load_channel(str(CHANNELS / "bsc002.json"))
        assert ch.rows[0, 0] == 0.98
        assert k is None

    def test_fortification_period(self):
        ch, k = cli.load_channel(str(CHANNELS / "bsc002_fortified50.json"))
        assert k == 50

    def test_declared_partition_verified(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x",
            "matrix": [[0.6, 0.0, 0.4], [0.0, 0.6, 0.4]],
            "partition": [[0, 2], [1]],
        }))
        with pytest.raises(cli.CliError) as err:
            cli.load_channel(str(bad))
        assert err.value.code == cli.EXIT_PARSE

    def test_invalid_matrix_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrix": [[0.7, 0.2], [0.5, 0.5]]}))
        assert run(["bounds", bad, "--rate", "0.1", "--bounds", "esp"]) == 2
        assert "delaylab" in capsys.readouterr().err

    def test_non_finite_matrix_rejected(self, tmp_path, capsys):
        for token in ("NaN", '"nan"', "Infinity"):
            bad = tmp_path / "bad.json"
            bad.write_text('{"matrix": [[%s, 1.0], [0.5, 0.5]]}' % token)
            with pytest.raises(cli.CliError) as err:
                cli.load_channel(str(bad))
            assert err.value.code == cli.EXIT_PARSE
            assert run(["bounds", bad, "--rate", "0.1", "--bounds", "esp"]) == cli.EXIT_PARSE
            assert "finite" in capsys.readouterr().err


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # Z(0.5) is not output-symmetric, so its capacity runs the min-max program
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import delaylab.cli; "
                "from delaylab.dmc import capacity, z_channel; capacity(z_channel(0.5)); "
                "print(any(m.startswith('scipy') for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestBounds:
    def test_table_values(self, capsys):
        assert run(["bounds", CHANNELS / "bec04.json", "--rate", "0.5",
                    "--bits", "--bounds", "esp,focusing"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "bound,rate_nats,rate_bits,value_nats,value_bits"
        esp = lines[1].split(",")
        assert float(esp[3]) == pytest.approx(0.020410997260, abs=1e-9)
        foc = lines[2].split(",")
        assert float(foc[3]) == pytest.approx(math.log(1.5), abs=1e-9)

    def test_unknown_bound_exit4(self, capsys):
        assert run(["bounds", CHANNELS / "bec04.json", "--rate", "0.1",
                    "--bounds", "esp,nonsense"]) == 4

    def test_infeasible_rate_exit3(self, capsys):
        assert run(["bounds", CHANNELS / "bsc002.json", "--rate", "0.99",
                    "--bounds", "burnashev"]) == 3

    def test_three_input_haroutunian(self, tmp_path, capsys):
        # the standard Haroutunian exponent of a 3x3 channel without output
        # symmetry: the convex program over the output law, at or above esp
        path = tmp_path / "asym3.json"
        path.write_text(json.dumps({"name": "asym3", "matrix": [
            [0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]]}))
        assert run(["bounds", path, "--rate", "0.1", "--bounds", "esp,haroutunian"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        esp, har = (float(row["value_nats"]) for row in rows)
        assert har == pytest.approx(0.02953012574062, abs=1e-10)
        assert esp <= har

    def test_capacity_bounds_on_a_nearly_useless_channel(self, tmp_path, capsys):
        # C = 1.74e-6 nats: the bounds that read the certified capacity
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({"name": "weak", "matrix": [
            [0.97709924, 0.02290076], [0.97765363, 0.02234637]]}))
        assert run(["bounds", path, "--rate", "5e-7",
                    "--bounds", "focusing,timesharing,burnashev"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["bound"] for row in rows] == ["focusing", "timesharing", "burnashev"]
        assert all(0.0 < float(row["value_nats"]) < math.inf for row in rows)

    def test_haroutunian_at_a_divergence_rate_equal_to_capacity(self, tmp_path, capsys):
        # R_inf = C = ln 2 = 1 bit: E+ is 0 there, though the convex
        # program's domain has no interior
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"name": "split", "matrix": [
            [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]}))
        assert run(["bounds", path, "--rate", "1", "--bits", "--bounds", "haroutunian"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(rows[0]["value_nats"]) == 0.0

    def test_tilde_at_most_haroutunian_in_every_row(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run(["curve", CHANNELS / "z05.json", "--bounds", "haroutunian,tilde",
                    "--rate-grid", "0.0:0.4:6", "--out", out]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6
        for row in rows:
            assert float(row["tilde"]) <= float(row["haroutunian"])

    def test_seed_option_removed(self):
        # no bound depends on a seed; only sim takes --seed
        for argv in (["bounds", CHANNELS / "z05.json", "--rate", "0.1", "--bounds", "tilde"],
                     ["curve", CHANNELS / "z05.json", "--bounds", "tilde", "--out", "x.csv"]):
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--seed", "1"])
            assert exc.value.code == cli.EXIT_PARSE

    def test_solver_cap_exit5(self, capsys, monkeypatch):
        def capped(rows, rho):
            raise ConvergenceError("E0 solver iteration cap exceeded", 2.5e-7)

        monkeypatch.setattr(exponents, "maximize_e0", capped)
        assert run(["bounds", CHANNELS / "z05.json", "--rate", "0.1",
                    "--bounds", "esp"]) == cli.EXIT_SOLVER == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == \
            "delaylab: E0 solver iteration cap exceeded (residual 2.500e-07)"


class TestCurve:
    def test_csv_round_trip_and_units(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", "esp,er",
                    "--rate-grid", "0.05:0.55:11", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 11
        for row in rows:
            # unit discipline to 1e-12 and bit-exact float round trip
            assert abs(float(row["rate_bits"]) * LN2 - float(row["rate_nats"])) <= 1e-12
            assert repr(float(row["esp"])) == row["esp"]

    def test_inf_token(self, tmp_path):
        ch = tmp_path / "identity.json"
        ch.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "c.csv"
        assert run(["curve", ch, "--bounds", "esp", "--rate-grid", "0.2:0.2:1",
                    "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 1
        assert rows[0]["esp"] == "inf"
        assert math.isinf(float(rows[0]["esp"]))

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["curve", CHANNELS / "bec04.json", "--bounds", "focusing",
                    "--rate-grid", "0.1:0.4:4", "--out", out,
                    "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rate_nats"]) == 4

    @pytest.mark.parametrize("stem", ["bsc002", "bec04"])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, stem):
        # tests/data/curve_<stem>.csv was written by this same command before
        # the E0 kernel was shared between E0 and its slope: any byte that
        # moves is a change of the behaviour contract
        out = tmp_path / f"curve_{stem}.csv"
        assert run(["curve", CHANNELS / f"{stem}.json", "--bounds",
                    "esp,er,focusing,timesharing", "--rate-grid", "1e-4:0.5:12",
                    "--out", out]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == (GOLDEN / f"curve_{stem}.csv").read_bytes()

    def test_viterbi_is_the_focusing_column_solved_once(self, tmp_path, monkeypatch):
        solved = []
        curve = cli.bound_curve

        def counted(channel, name, rates, fortify_k=None):
            solved.append(name)
            return curve(channel, name, rates, fortify_k)

        monkeypatch.setattr(cli, "bound_curve", counted)
        out = tmp_path / "c.csv"
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds",
                    "focusing,viterbi,timesharing", "--rate-grid", "1e-4:0.5:12",
                    "--out", out]) == 0
        assert solved == ["focusing", "timesharing"]
        rows = list(csv.DictReader(open(out)))
        assert [r["viterbi"] for r in rows] == [r["focusing"] for r in rows]
        ch, _ = cli.load_channel(CHANNELS / "bsc002.json")
        assert [r["focusing"] for r in rows] == [
            repr(exponents.focusing_bound(ch, float(r["rate_nats"]))) for r in rows]

    def test_rate_that_fails_is_named(self, tmp_path, capsys):
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", "esp,timesharing",
                    "--rate-grid", "0:0.5:3", "--out", tmp_path / "c.csv"]) == \
            cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "delaylab: timesharing at rate 0.0: rate must be positive\n")


def trace_columns(case):
    """Per-trial numpy columns for one trace-writer case."""
    rng = np.random.default_rng(11)
    chunk = cli.TRACE_CHUNK_ROWS

    def ints(n):
        return rng.integers(-2**62, 2**62, n)

    def floats(n):
        special = [0.1, 1e16, 5e-324, math.inf, -math.inf, math.nan, -0.0, 1 / 3]
        return np.resize(np.array(special), n) * rng.choice([1.0, -1.0], n)

    if case == "int64":
        return [[ints(1000), ints(1000), np.arange(1000, dtype=np.int64)]]
    if case == "float":
        return [[floats(1000), ints(1000), floats(1000)]]
    if case == "trials_one_empty":
        return [[ints(n), floats(n)] for n in (5, 0, 7, 3)]
    if case == "int64_extremes":
        info = np.iinfo(np.int64)
        edges = np.array([info.min, info.max, 0, 1, -1, 9, 10, -10, info.min + 1,
                          info.max - 1, 10**18, -10**18], dtype=np.int64)
        return [[np.concatenate([edges, ints(20)]), rng.permutation(np.resize(edges, 32))]]
    if case == "all_zero":
        return [[np.zeros(100, dtype=np.int64), ints(100)]]
    if case == "width_across_chunk":
        # at most one digit in the first chunk, up to 19 in the next
        small = rng.integers(-9, 10, chunk)
        wide = rng.integers(-10**18, 10**18 + 1, 1000)
        return [[np.concatenate([small, wide]), np.concatenate([wide, small])]]
    if case == "twelve_trials":
        return [[ints(n), np.arange(n, dtype=np.int64)] for n in range(3, 15)]
    if case == "one_row_trial":
        return [[ints(n), floats(n)] for n in (1, 4, 1)]
    rows = chunk + {"chunk_minus_1": -1, "chunk": 0, "chunk_plus_1": 1}[case]
    return [[ints(rows), floats(rows)], [floats(rows), ints(rows)]]


class TestTraceWriter:
    @pytest.mark.parametrize("case", ["int64", "float", "trials_one_empty",
                                      "int64_extremes", "all_zero", "width_across_chunk",
                                      "twelve_trials", "one_row_trial",
                                      "chunk_minus_1", "chunk", "chunk_plus_1"])
    def test_matches_row_loop_oracle(self, tmp_path, case):
        trials = trace_columns(case)
        header = ["trial"] + [f"c{j}" for j in range(len(trials[0]))]
        cli._write_trace_csv(tmp_path / "chunked.csv", header, trials)
        row_loop_trace_csv(tmp_path / "oracle.csv", header,
                           [list(zip(*(col.tolist() for col in cols))) for cols in trials])
        assert (tmp_path / "chunked.csv").read_bytes() == \
               (tmp_path / "oracle.csv").read_bytes()


class TestSim:
    def test_bec_determinism(self, tmp_path):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4,
                                   "rate_bits": 0.5, "horizon": 100_000,
                                   "d_grid": [8, 12, 16]}))
        for d in ("a", "b"):
            assert run(["sim", "bec", cfg, "--seed", "7",
                        "--out", tmp_path / d]) == 0
        assert (tmp_path / "a/summary.json").read_bytes() == \
               (tmp_path / "b/summary.json").read_bytes()
        assert (tmp_path / "a/trace.csv").read_bytes() == \
               (tmp_path / "b/trace.csv").read_bytes()

    def test_summary_flags_are_json_booleans(self, tmp_path):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4,
                                   "rate_bits": 0.5, "horizon": 50_000,
                                   "d_grid": [8, 12, 16]}))
        assert run(["sim", "bec", cfg, "--seed", "7", "--out", tmp_path / "s"]) == 0
        fit = json.loads((tmp_path / "s/summary.json").read_text())["fit"]
        assert type(fit["widened_ci"]) is bool
        assert type(fit["unbounded"]) is bool

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4,
                                   "rate_bits": 0.5, "horizon": 50_000}))
        monkeypatch.setenv("FDL_SEED", "123")
        assert run(["sim", "bec", cfg, "--seed", "7", "--out", tmp_path / "s"]) == 0
        assert json.loads((tmp_path / "s/summary.json").read_text())["seed"] == 123

    def test_threads_do_not_change_summary(self, tmp_path, monkeypatch):
        # trace.csv as well: trials are written in trial order
        configs = {
            "bec": {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5,
                    "horizon": 50_000, "trials": 4, "d_grid": [8, 12]},
            "queue": {"service": {"kind": "offset_geometric", "offset": 2, "beta": 0.25},
                      "arrival_period": 5, "horizon": 20_000, "trials": 4,
                      "d_grid": [6, 9, 12]},
        }
        for kind, config in configs.items():
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(json.dumps(config))
            for threads in ("4", "1"):
                monkeypatch.setenv("FDL_THREADS", threads)
                assert run(["sim", kind, cfg, "--seed", "3",
                            "--out", tmp_path / f"{kind}{threads}"]) == 0
            for name in ("summary.json", "trace.csv"):
                assert (tmp_path / f"{kind}4" / name).read_bytes() == \
                       (tmp_path / f"{kind}1" / name).read_bytes()

    def test_queue_summary_respects_bound(self, tmp_path):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "service": {"kind": "offset_geometric", "offset": 2, "beta": 0.25},
            "arrival_period": 5, "horizon": 400_000,
            "d_grid": [6, 9, 12, 15, 18]}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "q"]) == 0
        s = json.loads((tmp_path / "q/summary.json").read_text())
        assert s["fit"]["exponent"] >= s["tail_exponent_bound"] * 0.85

    def test_ncl_exact_tiny_zero_errors(self, tmp_path):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({
            "mode": "exact_tiny",
            "channel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
            "rate": math.log(8) / 12, "rho": 1.0, "k": 3,
            "n": 2, "c": 2, "l": 1, "n_messages": 8,
            "horizon_blocks": 3000}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == 0
        s = json.loads((tmp_path / "n/summary.json").read_text())
        assert s["committed_errors"] == 0

    EXACT_TINY = {"mode": "exact_tiny",
                  "channel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
                  "rate": math.log(8) / 12, "rho": 1.0, "k": 3,
                  "n": 2, "c": 2, "l": 1, "n_messages": 8}

    # sha256 of (trace.csv, summary.json), recorded from the block-by-block
    # simulator, for 6,000 blocks of EXACT_TINY at each seed
    EXACT_TINY_DIGESTS = {
        5: ("aea8b7c85d4cc1cb19dee9efbe87fffcae8eee6aa550b9db13997ac538674900",
            "ef04f504a4e01c1f745a49da8f9777bde02cf94bf46374285b1569ef727a520c"),
        17: ("2d7ce4789d2e8a4eb6c7b5790e39bb51f50366a4f94190a0c6378c761c524ef5",
             "27d9a1fefa351144206c15ca5cce94cd920b7a395e8cec794573859a32dc166e"),
    }

    # sha256 of trace.csv at seed 7, recorded from the %-format row writer
    # that the byte-matrix writer replaced; the fifo run crosses a
    # TRACE_CHUNK_ROWS boundary in each of its two trials
    TRACE_DIGESTS = {
        "bec_fifo": ("bec", {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5,
                             "horizon": 80_000, "trials": 2, "d_grid": [8, 12, 16]},
                     "5163eebeac03e4fbd4ed7b2290749a6c91af6d8323ee74477d6eae1035c5bedc"),
        "bec_parity": ("bec", {"scheme": "parity", "beta": 0.4, "rate_bits": 0.5,
                               "horizon": 30_000, "trials": 2, "d_grid": [8, 12, 16]},
                       "fac94dc71e7f7992740807136d4cf973d95164aa873aee5303313741ea8eeaad"),
        "queue": ("queue", {"service": {"kind": "offset_geometric", "offset": 2,
                                        "beta": 0.25},
                            "arrival_period": 5, "horizon": 20_000, "trials": 2,
                            "d_grid": [6, 9, 12]},
                  "d82d0b82d95abf8bf42725a0872d13827f18ac7cec0ec6a6c1831f6cd8e1f7e0"),
        "ncl_bound_driven": ("ncl", {"mode": "bound_driven",
                                     "channel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
                                     "rate": 0.2, "horizon_blocks": 20_000},
                             "87d48ffbec764e30b6504fb40bb49222b155ded6daf887c5e78e9542752c59ea"),
    }

    @pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
    def test_trace_bytes_are_pinned(self, tmp_path, name):
        kind, config, digest = self.TRACE_DIGESTS[name]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sim", kind, cfg, "--seed", "7", "--out", tmp_path / "s"]) == 0
        trace = (tmp_path / "s/trace.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == digest

    TWO_STREAM = {"mode": "two_stream", "channel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
                  "rate": 0.2231435, "horizon_blocks": 20_000}

    # sha256 of summary.json at seed 7, recorded before the bound-driven run
    # stopped going through the point queue: the four TRACE_DIGESTS configs
    # and TWO_STREAM, which writes no trace
    SUMMARY_DIGESTS = {
        "bec_fifo": "81fc2ca96473248aea4d4d102d0898022ff78a7edf20ba1ca08363dd2612c3a6",
        "bec_parity": "e1665a8f8b4a0d283459bdcc67b734b1598ed822ef4a85aad4be690a682618ba",
        "queue": "9f030730d2b31f5faef27b77c3a2f8228107cdf5db4029fb8c4e72009aaf66c2",
        "ncl_bound_driven": "9401f7e769fee14bb8d4b667fc25b094711f3ea6933f926d84b2408068676f72",
        "ncl_two_stream": "4580d3aa90977e0ac1b0f7a3b6815c83634cc503073d5bdb3b1e577e7b932669",
    }

    @pytest.mark.parametrize("name", sorted(SUMMARY_DIGESTS))
    def test_summary_bytes_are_pinned(self, tmp_path, name):
        kind, config = (("ncl", self.TWO_STREAM) if name == "ncl_two_stream"
                        else self.TRACE_DIGESTS[name][:2])
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sim", kind, cfg, "--seed", "7", "--out", tmp_path / "s"]) == 0
        summary = (tmp_path / "s/summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == self.SUMMARY_DIGESTS[name]

    COUNT_FIELDS = [
        ("bec", {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5, "horizon": 5000},
         "horizon"),
        ("bec", {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5, "horizon": 5000},
         "trials"),
        ("queue", {"service": {"kind": "geometric", "beta": 0.4}, "arrival_period": 2,
                   "horizon": 5000}, "horizon"),
        ("queue", {"service": {"kind": "geometric", "beta": 0.4}, "arrival_period": 2,
                   "horizon": 5000}, "trials"),
        ("ncl", {**TRACE_DIGESTS["ncl_bound_driven"][1], "horizon_blocks": 500},
         "horizon_blocks"),
        ("ncl", {**EXACT_TINY, "horizon_blocks": 500}, "horizon_blocks"),
        ("ncl", TWO_STREAM, "horizon_blocks"),
    ]

    @pytest.mark.parametrize("value", [-3, 0, 200.5, 1.5, True, "100", None])
    @pytest.mark.parametrize("kind,config,field", COUNT_FIELDS,
                             ids=[f"{c.get('mode', k)}-{f}" for k, c, f in COUNT_FIELDS])
    def test_count_fields_must_be_positive_integers(self, tmp_path, capsys, kind,
                                                    config, field, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, field: value}))
        assert run(["sim", kind, cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        assert f"{field} must be a positive integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "s/summary.json").exists()

    GEOMETRIC_QUEUE = {"service": {"kind": "geometric", "beta": 0.4}, "arrival_period": 2,
                       "horizon": 5000}
    INTEGER_FIELDS = [
        ("queue", GEOMETRIC_QUEUE, (), "arrival_period"),
        ("queue", {**GEOMETRIC_QUEUE, "service": {"kind": "truncated_geometric",
                                                  "beta": 0.4, "cap": 3}},
         ("service",), "cap"),
        ("ncl", {**TRACE_DIGESTS["ncl_bound_driven"][1], "horizon_blocks": 500}, (), "k"),
        ("ncl", {**EXACT_TINY, "horizon_blocks": 500}, (), "n"),
        ("ncl", {**EXACT_TINY, "horizon_blocks": 500}, (), "c"),
        ("ncl", {**EXACT_TINY, "horizon_blocks": 500}, (), "l"),
        ("ncl", {**EXACT_TINY, "horizon_blocks": 500}, (), "feedback_lag"),
        ("ncl", {**TRACE_DIGESTS["ncl_bound_driven"][1], "horizon_blocks": 500}, (),
         "min_misses"),
        ("bec", {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5, "horizon": 5000}, (),
         "trace_stride"),
    ]

    @pytest.mark.parametrize("value", [-3, 0, 2.5, 2.0, True, "2", None])
    @pytest.mark.parametrize("kind,config,path,field", INTEGER_FIELDS,
                             ids=[f"{k}-{f}" for k, _, _, f in INTEGER_FIELDS])
    def test_integer_fields_are_not_truncated(self, tmp_path, capsys, kind, config,
                                              path, field, value):
        # a fractional value used to run truncated and exit 0
        config = json.loads(json.dumps(config))
        inner = config
        for key in path:
            inner = inner[key]
        inner[field] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sim", kind, cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        assert f"{field} must be a positive integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "s/summary.json").exists()

    @pytest.mark.parametrize("value", [-1, 2.5, 2.0, True, "2", None])
    def test_queue_offset_is_a_nonnegative_integer(self, tmp_path, capsys, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**self.GEOMETRIC_QUEUE, "service": {
            "kind": "offset_geometric", "offset": value, "beta": 0.25}, "arrival_period": 5}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        assert f"offset must be a nonnegative integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "s/summary.json").exists()

    def test_queue_offset_zero_runs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**self.GEOMETRIC_QUEUE, "service": {
            "kind": "offset_geometric", "offset": 0, "beta": 0.25}, "arrival_period": 5}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "s"]) == 0

    def test_summary_is_strict_json(self, tmp_path):
        # at seed 5 every miss falls below the grid, so the fit is unbounded
        # and its exponent and CI are written as null
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "horizon_blocks": 6000}))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for seed, digests in self.EXACT_TINY_DIGESTS.items():
            out = tmp_path / f"n{seed}"
            assert run(["sim", "ncl", cfg, "--seed", seed, "--out", out]) == 0
            fit = json.loads((out / "summary.json").read_text(), parse_constant=reject)["fit"]
            if seed == 5:
                assert fit["unbounded"] is True
                assert fit["exponent"] is None
                assert fit["ci"] == [None, None]
            for name, digest in zip(("trace.csv", "summary.json"), digests):
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("mode", ["exact_tiny", "bound_driven", "two_stream"])
    def test_run_inside_burn_in_exits_nonzero(self, tmp_path, capsys, mode):
        # the fit drops the first 10 blocks, so 10 blocks leave nothing to fit
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "mode": mode, "horizon_blocks": 10}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_INFEASIBLE
        assert "no delays left to fit" in capsys.readouterr().err
        assert not (tmp_path / "n/summary.json").exists()

    @pytest.mark.parametrize("n_messages", [0, 1])
    def test_codebook_below_two_messages_exits_nonzero(self, tmp_path, capsys, n_messages):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "n_messages": n_messages,
                                   "horizon_blocks": 100}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_INFEASIBLE
        assert "at least 2 messages" in capsys.readouterr().err
        assert not (tmp_path / "n/summary.json").exists()

    def test_exact_tiny_negative_seed_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "horizon_blocks": 100}))
        assert run(["sim", "ncl", cfg, "--seed", "-1",
                    "--out", tmp_path / "n"]) == cli.EXIT_INFEASIBLE == 3
        assert "expected non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "n/summary.json").exists()

    def test_ncl_bad_channel_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({
            "mode": "bound_driven", "channel": {"matrix": [[0.7, 0.2], [0.5, 0.5]]},
            "rate": 0.2, "horizon_blocks": 1000}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_PARSE
        assert "sum to 1" in capsys.readouterr().err

    def test_queue_fit_reports_every_deadline(self, tmp_path):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "service": {"kind": "offset_geometric", "offset": 2, "beta": 0.25},
            "arrival_period": 5, "horizon": 100_000,
            "d_grid": [15, 6, 9, 12, 18]}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "q"]) == 0
        fit = json.loads((tmp_path / "q/summary.json").read_text())["fit"]
        assert set(fit) == {"exponent", "d_grid", "miss_probs", "miss_counts"}
        assert fit["d_grid"] == [15.0, 6.0, 9.0, 12.0, 18.0]
        counts = fit["miss_counts"]
        assert counts[1] >= counts[2] >= counts[3] >= counts[0] >= counts[4]

    def test_bad_config_exit2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run(["sim", "bec", cfg, "--out", tmp_path / "x"]) == 2
        cfg2 = tmp_path / "missing.json"
        cfg2.write_text(json.dumps({"scheme": "fifo", "beta": 0.4}))
        assert run(["sim", "bec", cfg2, "--out", tmp_path / "y"]) == 2


# The MANIFEST.json of every figure: each key's JSON type; a dict schema
# lists the nested keys, a one-item list the type of every element.  Types
# are matched exactly, so a boolean passes only where the schema says bool
# (and is then a JSON true/false), and "figure" must be an int.
MANIFEST_SCHEMAS = {
    4: {"channel": str, "curves": [str], "figure": int, "rate_grid_nats": [(float, int)]},
    6: {"channel": str, "curves": [str], "figure": int, "lambdas": [float]},
    7: {"channel": str, "curves": [str], "figure": int, "note": str},
    8: {"capacity_slopes": {"focusing": float, "timesharing": float}, "channel": str,
        "curves": [str], "figure": int},
    9: {"channel": str, "curves": [str], "figure": int, "ultimate_limit_nats": float},
    12: {"anchor": {"achievable_exponent": float, "rate_nats": float}, "channel": str,
         "curves": [str], "figure": int, "note": str},
    13: {"channel": str, "figure": int, "files": [str], "quantity": str},
    14: {"channel": str, "curves": [str], "figure": int},
    16: {"channel": str, "figure": int, "note": str, "schemes": [[int]]},
}


def schema_mismatches(value, schema, where="MANIFEST"):
    if isinstance(schema, dict):
        if type(value) is not dict or value.keys() != schema.keys():
            return [f"{where}: keys {sorted(value) if type(value) is dict else value!r}"]
        return [m for k, sub in schema.items()
                for m in schema_mismatches(value[k], sub, f"{where}.{k}")]
    if isinstance(schema, list):
        if type(value) is not list:
            return [f"{where}: {value!r} is not a list"]
        return [m for i, v in enumerate(value)
                for m in schema_mismatches(v, schema[0], f"{where}[{i}]")]
    types = schema if isinstance(schema, tuple) else (schema,)
    return [] if type(value) in types else [f"{where}: {value!r} is not {types}"]


class TestFigures:
    def test_unknown_figure_exit4(self, tmp_path):
        assert run(["figure", "99", "--out-dir", tmp_path]) == 4

    def test_every_figure_has_a_manifest_schema(self):
        assert MANIFEST_SCHEMAS.keys() == cli.FIGURES.keys()

    @pytest.mark.parametrize("fig", sorted(set(MANIFEST_SCHEMAS) - {4}))
    def test_manifest_schema(self, fig, tmp_path):
        assert run(["figure", fig, "--out-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert schema_mismatches(manifest, MANIFEST_SCHEMAS[fig]) == []
        assert manifest["figure"] == fig

    def test_figure_4_shows_strict_gap(self, tmp_path):
        # the slowest figure: its manifest schema is checked here
        assert run(["figure", "4", "--out-dir", tmp_path]) == 0
        rows = list(csv.DictReader(open(tmp_path / "zchannel_bounds.csv")))
        gaps = [float(r["haroutunian"]) - float(r["esp"]) for r in rows]
        assert max(gaps) >= 1e-3
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["figure"] == 4
        assert schema_mismatches(manifest, MANIFEST_SCHEMAS[4]) == []

    # sha256 of figure outputs recorded before figure 13 wrote through
    # _write_curve_csv and the scheme curves through reduced_rate_exponent
    FIGURE_DIGESTS = {
        13: {"bsc002_past_future_plain.csv":
             "7635b734c1d1c0487e4d8d458212062ee29b36867b18b38b0f3d8eec0c636512",
             "bsc002_past_future_fortified_k50.csv":
             "47ec9d6ae2b62d8682ee7b7f9c1a59c51c572956367d517fe5bea426eea9ba1a"},
        16: {"bsc002_ncl_schemes.csv":
             "37f1d7715ff9b4fa52feee07462d284f751d11b216da9e241fe1e665347cd0f4"},
    }

    @pytest.mark.parametrize("fig", sorted(FIGURE_DIGESTS))
    def test_figure_bytes_are_pinned(self, tmp_path, fig):
        assert run(["figure", fig, "--out-dir", tmp_path]) == 0
        for name, digest in self.FIGURE_DIGESTS[fig].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_figure_6_curve_family(self, tmp_path):
        assert run(["figure", "6", "--out-dir", tmp_path]) == 0
        rows = list(csv.DictReader(open(tmp_path / "bsc002_focusing_family.csv")))
        for row in rows:
            env = min(float(row[f"envelope_lambda_{l:g}"]) for l in (0.125, 0.5, 0.875))
            assert env >= float(row["focusing"]) - 1e-9  # envelope property
