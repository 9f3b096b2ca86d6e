import csv
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
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import delaylab.cli; "
                "print('scipy.stats' in sys.modules)")
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
    rows = chunk + {"chunk_minus_1": -1, "chunk": 0, "chunk_plus_1": 1}[case]
    return [[ints(rows), floats(rows)], [floats(rows), ints(rows)]]


class TestTraceWriter:
    @pytest.mark.parametrize("case", ["int64", "float", "trials_one_empty",
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

    def test_summary_is_strict_json(self, tmp_path):
        # an exact-tiny run whose misses all fall below the grid has an
        # unbounded fit; its exponent and CI are written as null
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({
            "mode": "exact_tiny",
            "channel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
            "rate": math.log(8) / 12, "rho": 1.0, "k": 3,
            "n": 2, "c": 2, "l": 1, "n_messages": 8,
            "horizon_blocks": 6000}))
        assert run(["sim", "ncl", cfg, "--seed", "5", "--out", tmp_path / "n"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "n/summary.json").read_text()
        fit = json.loads(text, parse_constant=reject)["fit"]
        assert fit["unbounded"] is True
        assert fit["exponent"] is None
        assert fit["ci"] == [None, None]

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

    def test_figure_6_curve_family(self, tmp_path):
        assert run(["figure", "6", "--out-dir", tmp_path]) == 0
        rows = list(csv.DictReader(open(tmp_path / "bsc002_focusing_family.csv")))
        for row in rows:
            env = min(float(row[f"envelope_lambda_{l:g}"]) for l in (0.125, 0.5, 0.875))
            assert env >= float(row["focusing"]) - 1e-9  # envelope property
