import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaylab import cli, exponents, ncl_scheme
from delaylab.dmc import LN2, ConvergenceError, bsc
from oracles import row_loop_trace_csv

CHANNELS = Path(__file__).resolve().parent.parent / "channels"
GOLDEN = Path(__file__).resolve().parent / "data"


def run(argv):
    return cli.main([str(a) for a in argv])


def fill(argv, out: Path) -> list[str]:
    """``argv`` as strings, with "{out}" in each replaced by ``out``."""
    return [str(a).replace("{out}", str(out)) for a in argv]


def files(root: Path) -> dict:
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


class TestParserReuse:
    def test_one_parser_serves_every_request_of_a_process(self, tmp_path, capsys):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        config = tmp_path / "bec.json"
        config.write_text(json.dumps({"scheme": "parity", "beta": 0.4, "rate_bits": 0.5,
                                      "horizon": 30_000}))
        requests = [
            ["bounds", CHANNELS / "bsc002.json", "--rate", "0.1", "--bounds",
             "esp,haroutunian,viterbi"],
            ["curve", CHANNELS / "bec04.json", "--bounds", "esp,focusing",
             "--rate-grid", "0.05:0.3:4", "--out", "{out}/c.csv"],
            ["sim", "bec", config, "--seed", "3", "--out", "{out}/sim"],
            ["bounds", CHANNELS / "bsc002.json", "--rate"],  # malformed: exit 2
            ["bounds", CHANNELS / "z05.json", "--rate", "0.1", "--bits", "--bounds",
             "esp,er4"],
        ]
        env = {k: v for k, v in os.environ.items() if not k.startswith("FDL_")}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        codes = []
        for i, argv in enumerate(requests):
            shared, fresh = tmp_path / f"shared{i}", tmp_path / f"fresh{i}"
            shared.mkdir()
            fresh.mkdir()
            try:
                code = cli.main(fill(argv, shared))
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            alone = subprocess.run([sys.executable, "-m", "delaylab.cli", *fill(argv, fresh)],
                                   capture_output=True, text=True, env=env)
            assert (code, got.out, got.err) == (alone.returncode, alone.stdout, alone.stderr)
            assert files(shared) == files(fresh)
            codes.append(code)
        assert codes == [0, 0, 0, cli.EXIT_PARSE, 0]
        assert cli.build_parser() is parser


class TestChannelParsing:
    def test_decimal_strings_accepted(self):
        ch, k = cli.load_channel(str(CHANNELS / "bsc002.json"))
        assert ch.rows[0, 0] == 0.98
        assert k is None

    def test_fortification_period(self):
        ch, k = cli.load_channel(str(CHANNELS / "bsc002_fortified50.json"))
        assert k == 50

    @pytest.mark.parametrize("field,value", [
        ("k", [50]), ("k", {"a": 1}), ("k", "abc"), ("k", True), ("k", 50.0), ("k", 2.5),
        ("k", 0), ("k", -1),
        ("partition", 5), ("partition", [[0, "1"], [2]]), ("partition", [0, 1, 2]),
        ("partition", [[0, True], [2]]), ("partition", [[0, 1], [2], []]),
        ("partition", [[0, 1], [3]]), ("partition", [[0, 1], [2]]),
    ])
    def test_malformed_fields_exit_2_naming_the_field(self, tmp_path, capsys, field, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"matrix": [[0.6, 0.0, 0.4], [0.0, 0.6, 0.4]],
                                    field: value}))
        assert run(["bounds", path, "--rate", "0.1", "--bounds", "esp"]) == cli.EXIT_PARSE
        # a declared partition is no longer read (symmetry comes from the
        # matrix), so any value of it is an unread field
        assert (f"unread field(s) in c: {field}\n" if field == "partition"
                else f"{field} must") in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [5, [0.5, 0.5], [[0.5, 0.5], "0.5"]])
    def test_matrix_not_a_list_of_rows_exits_2(self, tmp_path, capsys, matrix):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrix": matrix}))
        assert run(["bounds", bad, "--rate", "0.1", "--bounds", "esp"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == \
            f"delaylab: bad: bad matrix: want a list of rows, got {matrix!r}\n"

    def test_invalid_matrix_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrix": [[0.7, 0.2], [0.5, 0.5]]}))
        assert run(["bounds", bad, "--rate", "0.1", "--bounds", "esp"]) == 2
        assert "delaylab" in capsys.readouterr().err

    def test_subnormal_entry_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrix": [[1, 0, 0], [0.1875, 0.6875, 0.125],
                                              [2.225073858507201e-313, 0, 1]]}))
        assert run(["bounds", bad, "--rate", "0.2", "--bounds", "esp"]) == cli.EXIT_PARSE
        assert "P(0|2) = 2.2250738585e-313 is subnormal" in capsys.readouterr().err

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
        # Z(0.5) is not output-symmetric, so its capacity takes Newton steps
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import delaylab.cli; "
                "from delaylab.dmc import capacity, z_channel; capacity(z_channel(0.5)); "
                "print(any(m.startswith('scipy') for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_tilde_request_leaves_scipy_unloaded(self):
        # the tilde certificate fits its multipliers with numpy alone
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import delaylab.cli; "
                "status = delaylab.cli.main(['bounds', sys.argv[2], '--rate', '0.1', "
                "'--bounds', 'tilde']); "
                "print(status, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, str(src), str(CHANNELS / "z05.json")],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 False"

    def test_every_command_leaves_scipy_unloaded(self, tmp_path):
        # scipy is deferred to the acceptance statistics, which no command runs
        src = Path(__file__).resolve().parent.parent / "src"
        bsc002 = {"matrix": [[0.98, 0.02], [0.02, 0.98]]}
        configs = {
            "bec": {"beta": 0.4, "rate_bits": 0.5, "horizon": 60_000},
            "queue": {"service": {"kind": "offset_geometric", "offset": 2, "beta": 0.25},
                      "arrival_period": 5, "horizon": 5_000},
            "ncl": {"channel": bsc002, "rate": 0.2, "horizon_blocks": 2_000},
            "exact_tiny": {"mode": "exact_tiny", "channel": bsc002, "rate": math.log(8) / 12,
                           "k": 3, "n": 2, "c": 2, "l": 1, "n_messages": 8,
                           "horizon_blocks": 500},
            "two_stream": {"mode": "two_stream", "channel": bsc002, "rate": 0.2231435,
                           "horizon_blocks": 2_000},
        }
        requests = [["bounds", str(CHANNELS / "z05.json"), "--rate", "0.1", "--bounds",
                     ",".join([*exponents.KNOWN_BOUNDS, "er4"])],
                    ["curve", str(CHANNELS / "bsc002.json"), "--bounds", "esp,focusing",
                     "--rate-grid", "0.05:0.3:4", "--out", str(tmp_path / "curve.csv")],
                    ["figure", "9", "--out-dir", str(tmp_path / "figure")]]
        for name, config in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            kind = name if name in ("bec", "queue") else "ncl"
            requests.append(["sim", kind, str(path), "--out", str(tmp_path / name)])
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import delaylab.cli; "
                "codes = [delaylab.cli.main(argv) for argv in json.loads(sys.argv[2])]; "
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, str(src), json.dumps(requests)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == f"{[0] * len(requests)} []"


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

    @pytest.mark.parametrize("name,code", [
        ("er", 0), ("er1", 0), ("er12", 0),
        ("er0", 4), ("er01", 4), ("er007", 4), ("er-1", 4), ("er+2", 4), ("er 2", 4),
        ("er1.0", 4), ("er\u00b2", 4), ("er\u0661", 4),
    ])
    def test_list_size_names(self, capsys, name, code):
        # er<L> names L >= 1 without a leading zero, in ASCII digits
        assert run(["bounds", CHANNELS / "bsc002.json", "--rate", "0.1",
                    "--bounds", name]) == code
        captured = capsys.readouterr()
        if code == cli.EXIT_UNKNOWN:
            assert captured.err.startswith(f"delaylab: unknown bound '{name}'")
        else:
            assert captured.out.splitlines()[1].startswith(f"{name},")

    def test_each_distinct_bound_is_solved_once(self, capsys, monkeypatch):
        solved = []
        solve = cli.bound_at_rate

        def counted(channel, name, r, fortify_k=None):
            solved.append(name)
            return solve(channel, name, r, fortify_k)

        monkeypatch.setattr(cli, "bound_at_rate", counted)
        assert run(["bounds", CHANNELS / "bsc002.json", "--rate", "0.1", "--bounds",
                    "esp,haroutunian,focusing,viterbi,esp"]) == 0
        assert solved == ["esp", "focusing"]
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        values = [(row["bound"], row["value_nats"]) for row in rows]
        ch, _ = cli.load_channel(CHANNELS / "bsc002.json")
        esp, foc = repr(exponents.sphere_packing(ch, 0.1)), repr(exponents.focusing_bound(ch, 0.1))
        assert values == [("esp", esp), ("haroutunian", repr(exponents.haroutunian(ch, 0.1))),
                          ("focusing", foc), ("viterbi", foc), ("esp", esp)]
        assert esp == values[1][1]

    def test_haroutunian_is_its_own_solve_without_output_symmetry(self, capsys, monkeypatch):
        solved = []
        solve = cli.bound_at_rate

        def counted(channel, name, r, fortify_k=None):
            solved.append(name)
            return solve(channel, name, r, fortify_k)

        monkeypatch.setattr(cli, "bound_at_rate", counted)
        assert run(["bounds", CHANNELS / "z05.json", "--rate", "0.1", "--bounds",
                    "esp,haroutunian,viterbi"]) == 0
        assert solved == ["esp", "haroutunian", "focusing"]
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        ch, _ = cli.load_channel(CHANNELS / "z05.json")
        assert rows[1]["value_nats"] == repr(exponents.haroutunian(ch, 0.1))
        assert rows[0]["value_nats"] != rows[1]["value_nats"]

    def test_fortified_haroutunian_is_fortified_esp(self, tmp_path, capsys):
        # both Haroutunian exponents: fortified tilde exited 3 until it was
        # solved as esp on output-symmetric channels
        fortified = CHANNELS / "bsc002_fortified50.json"
        assert run(["bounds", fortified, "--rate", "0.3",
                    "--bounds", "esp,haroutunian,tilde"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["value_nats"] for row in rows] == ["0.16244658751683283"] * 3
        out = tmp_path / "c.csv"
        assert run(["curve", fortified, "--bounds", "esp,haroutunian,tilde",
                    "--rate-grid", "0.05:0.6:6", "--out", out]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["haroutunian"] for row in rows] == [row["esp"] for row in rows]
        assert [row["tilde"] for row in rows] == [row["esp"] for row in rows]

    @pytest.mark.parametrize("matrix,name", [
        ([[1.0, 0.0], [0.5, 0.5]], "tilde"),
        ([[1.0, 0.0], [0.5, 0.5]], "haroutunian"),
    ])
    def test_fortified_exponents_without_a_program_exit3(self, tmp_path, capsys, matrix,
                                                          name):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"matrix": matrix, "k": 50}))
        assert run(["bounds", path, "--rate", "0.1", "--bounds", f"esp,{name}"]) == \
            cli.EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"delaylab: {name}: under fortification: ")
        assert run(["curve", path, "--bounds", f"esp,{name}", "--rate-grid", "0.1:0.2:2",
                    "--out", tmp_path / "c.csv"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith(f"delaylab: {name} under fortification: ")

    def test_infeasible_rate_exit3(self, capsys):
        assert run(["bounds", CHANNELS / "bsc002.json", "--rate", "0.99",
                    "--bounds", "burnashev"]) == 3

    def test_negative_rate_exit3(self, capsys):
        assert run(["bounds", CHANNELS / "bsc002.json", "--rate", "-0.1",
                    "--bounds", "esp"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == "delaylab: rate must be nonnegative\n"

    def test_two_stream_root_beyond_rho_1e8_exit5(self, capsys):
        # this once exited 1 with a ZeroDivisionError traceback
        assert run(["bounds", CHANNELS / "bec04.json", "--rate", "1e-18",
                    "--bounds", "timesharing"]) == cli.EXIT_SOLVER
        assert capsys.readouterr().err == (
            "delaylab: two-stream rate root beyond rho = 1e8 (residual 2.567e-09)\n")

    def test_fortified_burnashev(self, capsys):
        # inf up to the fortified capacity, about 0.609 nats, which 0.6 is below
        fortified = CHANNELS / "bsc002_fortified50.json"
        for rate in ("0.3", "0.6"):
            assert run(["bounds", fortified, "--rate", rate, "--bounds", "burnashev"]) == 0
            [row] = csv.DictReader(capsys.readouterr().out.splitlines())
            assert row["value_nats"] == "inf"
        assert run(["bounds", fortified, "--rate", "0.61", "--bounds", "burnashev"]) == 3
        assert "average rate must lie in [0, C]" in capsys.readouterr().err

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

    @pytest.mark.parametrize("rate", ["0", "1e-13"])
    def test_zero_capacity_channel(self, tmp_path, capsys, rate):
        # equal rows: C = C1 = 0; Burnashev divided by C, and the R = 0
        # sphere-packing closed form printed -0.0
        path = tmp_path / "useless.json"
        path.write_text(json.dumps({"name": "useless", "matrix": [[0.3, 0.7], [0.3, 0.7]]}))
        names = ["esp", "haroutunian", "tilde", "burnashev"] if rate == "0" else ["burnashev"]
        assert run(["bounds", path, "--rate", rate, "--bounds", ",".join(names)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["bound"] for row in rows] == names
        assert all(row["value_nats"] == row["value_bits"] == "0.0" for row in rows)

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
        # the E0 kernel was shared between E0 and its slope, and its esp
        # column again when sphere packing began its search at rho = 1: any
        # byte that moves is a change of the behaviour contract
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

    def test_eta_grid_rates_and_columns(self, tmp_path):
        # the rates are E0(eta)/eta, in decreasing eta, bit for bit, and
        # every column is bound_curve at those rates
        out = tmp_path / "c.csv"
        names = ["esp", "focusing", "timesharing"]
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", ",".join(names),
                    "--eta-grid", "0.5:4:8", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        ch, _ = cli.load_channel(CHANNELS / "bsc002.json")
        etas = sorted(np.linspace(0.5, 4.0, 8), reverse=True)
        rates = [exponents.e0_max(ch, eta)[0] / eta for eta in etas]
        assert [float(row["rate_nats"]) for row in rows] == rates
        for name in names:
            assert [float(row[name]) for row in rows] == exponents.bound_curve(ch, name, rates)

    def test_nonpositive_eta_exit3(self, tmp_path, capsys):
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", "focusing",
                    "--eta-grid", "0:2:3", "--out", tmp_path / "c.csv"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == "delaylab: eta grid must be positive\n"

    @pytest.mark.parametrize("extra", [["--rate-grid", "0.1:0.2:3"], ["--bits"]],
                             ids=["rate_grid", "bits"])
    def test_eta_grid_clash_exit2(self, tmp_path, capsys, extra):
        # both options once went unread next to --eta-grid
        out = tmp_path / "c.csv"
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", "focusing",
                    "--eta-grid", "0.5:4:4", *extra, "--out", out]) == cli.EXIT_PARSE
        assert "--eta-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_bits_grid_is_the_nats_grid_times_ln2(self, tmp_path):
        out = tmp_path / "c.csv"
        names = ["esp", "focusing", "timesharing"]
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", ",".join(names),
                    "--rate-grid", "0.1:0.5:3", "--bits", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        ch, _ = cli.load_channel(CHANNELS / "bsc002.json")
        rates = np.linspace(0.1, 0.5, 3) * LN2
        assert [row["rate_nats"] for row in rows] == [repr(float(r)) for r in rates]
        for name in names:
            assert [row[name] for row in rows] == [
                repr(v) for v in exponents.bound_curve(ch, name, rates)]

    @pytest.mark.parametrize("grid, code, message", [
        ("-0.1:0.2:3", cli.EXIT_INFEASIBLE, "delaylab: rates must be nonnegative\n"),
        ("0.1:0.2", cli.EXIT_PARSE, "delaylab: bad --rate-grid '0.1:0.2' (want lo:hi:count): "),
    ], ids=["negative", "no_count"])
    def test_bad_rate_grid(self, tmp_path, capsys, grid, code, message):
        out = tmp_path / "c.csv"
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", "esp",
                    f"--rate-grid={grid}", "--out", out]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_rate_that_fails_is_named(self, tmp_path, capsys):
        assert run(["curve", CHANNELS / "bsc002.json", "--bounds", "esp,timesharing",
                    "--rate-grid", "0:0.5:3", "--out", tmp_path / "c.csv"]) == \
            cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "delaylab: timesharing at rate 0.0: rate must be positive\n")


def trace_columns(case):
    """Per-trial numpy columns of nonnegative ints for one trace-writer case."""
    rng = np.random.default_rng(11)
    chunk = cli.TRACE_CHUNK_ROWS

    def ints(n):
        return rng.integers(0, 2**62, n)

    def short(n):  # one to four digits
        return rng.integers(0, 10**rng.integers(1, 5, n))

    if case == "int64":
        return [[ints(1000), short(1000), np.arange(1000, dtype=np.int64)]]
    if case == "trials_one_empty":
        return [[ints(n), short(n)] for n in (5, 0, 7, 3)]
    if case == "int64_extremes":
        top = np.iinfo(np.int64).max
        # the digits switch from uint32 to uint64 above 2^32 - 1
        edges = np.array([0, 1, 9, 10, 99, 100, top, top - 1, 10**18, 10**18 - 1,
                          2**32 - 1, 2**32], dtype=np.int64)
        return [[np.concatenate([edges, ints(20)]), rng.permutation(np.resize(edges, 32))]]
    if case == "all_zero":
        return [[np.zeros(100, dtype=np.int64), ints(100)]]
    if case == "width_across_chunk":
        # one digit in the first chunk, up to 19 in the next
        small = rng.integers(0, 10, chunk)
        wide = rng.integers(0, 10**18 + 1, 1000)
        return [[np.concatenate([small, wide]), np.concatenate([wide, small])]]
    if case == "twelve_trials":
        return [[ints(n), np.arange(n, dtype=np.int64)] for n in range(3, 15)]
    if case == "one_row_trial":
        return [[ints(n), short(n)] for n in (1, 4, 1)]
    rows = chunk + {"chunk_minus_1": -1, "chunk": 0, "chunk_plus_1": 1}[case]
    return [[ints(rows), short(rows)], [short(rows), ints(rows)]]


class TestTraceWriter:
    @pytest.mark.parametrize("case", ["int64", "trials_one_empty",
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

    @pytest.mark.parametrize("column", [np.array([3.0, 1.5]), np.array([3, -1])],
                             ids=["float", "negative"])
    def test_rejects_other_columns(self, tmp_path, column):
        # the simulators record only nonnegative integers
        with pytest.raises(ValueError, match="nonnegative integers"):
            cli._write_trace_csv(tmp_path / "t.csv", ["trial", "a", "b"],
                                 [[np.arange(2), column]])


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one stderr line
    naming it; each of these once ended in a traceback and exit 1."""

    def assert_one_line(self, capsys, argv, name):
        assert run(argv) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("delaylab: [Errno ") and err.endswith(f"{name}'\n")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_curve(self, tmp_path, capsys):
        curve = ["curve", CHANNELS / "bsc002.json", "--bounds", "esp",
                 "--rate-grid", "0.1:0.2:2", "--out"]
        missing = tmp_path / "missing" / "x.csv"
        self.assert_one_line(capsys, curve + [missing], str(missing))
        for form in ("csv", "json"):
            self.assert_one_line(capsys, curve + [tmp_path, "--format", form], str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", [["--rate-grid", "0.05:0.3:10"], ["--eta-grid", "0.5:4:5"]])
    def test_curve_fails_before_solving(self, tmp_path, capsys, monkeypatch, grid):
        solves = []
        for name in ("bound_curve", "e0_max"):
            solve = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, solve=solve, **k:
                                solves.append(1) or solve(*a, **k))
        missing = tmp_path / "missing" / "x.csv"
        self.assert_one_line(capsys, ["curve", CHANNELS / "z05.json", "--bounds",
                                      "haroutunian,tilde,focusing", *grid, "--out", missing],
                             str(missing))
        assert solves == []
        # a writable path is solved and written as before
        assert run(["curve", CHANNELS / "z05.json", "--bounds", "esp", *grid,
                    "--out", tmp_path / "ok.csv"]) == 0
        assert solves and (tmp_path / "ok.csv").read_text().startswith("rate_nats,rate_bits,esp\n")

    def test_curve_failure_after_the_check_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def infeasible(*args):
            raise ValueError("infeasible")
        monkeypatch.setattr(cli, "bound_curve", infeasible)
        curve = ["curve", CHANNELS / "bsc002.json", "--bounds", "esp",
                 "--rate-grid", "0.1:0.2:2", "--out"]
        assert run(curve + [tmp_path / "new.csv"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == "delaylab: esp infeasible\n"
        assert list(tmp_path.iterdir()) == []
        # an existing file is left as it was
        old = tmp_path / "old.csv"
        old.write_text("kept\n")
        assert run(curve + [old]) == cli.EXIT_INFEASIBLE
        assert old.read_text() == "kept\n" and list(tmp_path.iterdir()) == [old]

    def test_figure(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        under = tmp_path / "file" / "fig"
        self.assert_one_line(capsys, ["figure", "9", "--out-dir", under], str(under))

    def test_sim(self, tmp_path, capsys):
        cfg = tmp_path / "bec.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5,
                                   "horizon": 1000}))
        under = cfg / "sim"
        self.assert_one_line(capsys, ["sim", "bec", cfg, "--out", under], str(under))


class TestSim:
    def test_unknown_bec_scheme_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "bec.json"
        cfg.write_text(json.dumps({"scheme": "lifo", "beta": 0.4, "rate_bits": 0.5,
                                   "horizon": 1000}))
        assert run(["sim", "bec", cfg, "--out", tmp_path / "s"]) == cli.EXIT_UNKNOWN
        assert capsys.readouterr().err == "delaylab: unknown bec scheme 'lifo'\n"

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

    def test_bec_stride_past_int64_writes_the_row_at_t_1(self, tmp_path):
        # every stride of at least the horizon, past int64 too, samples t = 1
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5,
                                   "horizon": 50_000, "d_grid": [8, 12, 16],
                                   "trace_stride": 10**30}))
        assert run(["sim", "bec", cfg, "--out", tmp_path / "s"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "s/trace.csv")))
        assert [(r["trial"], r["time"]) for r in rows] == [("0", "1")]

    def test_summary_flags_are_json_booleans(self, tmp_path):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4,
                                   "rate_bits": 0.5, "horizon": 50_000,
                                   "d_grid": [8, 12, 16]}))
        assert run(["sim", "bec", cfg, "--seed", "7", "--out", tmp_path / "s"]) == 0
        fit = json.loads((tmp_path / "s/summary.json").read_text())["fit"]
        assert type(fit["widened_ci"]) is bool
        assert type(fit["unbounded"]) is bool

    def test_rerun_is_byte_identical(self, tmp_path):
        # trace.csv as well: trials run and are written in trial order
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
            for rerun in ("a", "b"):
                assert run(["sim", kind, cfg, "--seed", "3",
                            "--out", tmp_path / f"{kind}{rerun}"]) == 0
            for name in ("summary.json", "trace.csv"):
                assert (tmp_path / f"{kind}a" / name).read_bytes() == \
                       (tmp_path / f"{kind}b" / name).read_bytes()

    def test_queue_summary_respects_bound(self, tmp_path):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "service": {"kind": "offset_geometric", "offset": 2, "beta": 0.25},
            "arrival_period": 5, "horizon": 400_000,
            "d_grid": [6, 9, 12, 15, 18]}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "q"]) == 0
        s = json.loads((tmp_path / "q/summary.json").read_text())
        assert s["fit"]["exponent"] >= s["tail_exponent_bound"] * 0.85

    @pytest.mark.parametrize("power, code", [(40, 0), (61, 3), (70, 3)])
    def test_queue_arrival_periods_up_to_int64(self, tmp_path, capsys, power, code):
        # 2^40 once exited 5 from the BEC inversion's fixed cap eta = 1e9;
        # 2^61 exited 5 after a run with negative arrival times, and 2^70
        # exited 3 with "Python int too large to convert to C long"
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "service": {"kind": "offset_geometric", "offset": 2, "beta": 0.25},
            "arrival_period": 2**power, "horizon": 3000}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "q"]) == code
        if code == 0:
            s = json.loads((tmp_path / "q/summary.json").read_text())
            assert abs(s["tail_exponent_bound"] + math.log(0.25)) <= 1e-12
        else:
            assert capsys.readouterr().err.startswith(
                f"delaylab: arrival_period {2**power} is too long")

    @pytest.mark.parametrize("offset, message", [
        (2**70, f"delaylab: offset must be at most {2**63 - 28}, so that every service "
                f"time fits in int64, got {2**70}"),
        (2**62, f"delaylab: service offset {2**62} with arrival_period 5 is too long"),
    ])
    def test_queue_offsets_beyond_int64_exit_3(self, tmp_path, capsys, offset, message):
        # 2^70 exited 3 with "Python int too large to convert to C long",
        # and 2^62 blamed the arrival period
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "service": {"kind": "offset_geometric", "offset": offset, "beta": 0.25},
            "arrival_period": 5, "horizon": 3000}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "q"]) == 3
        assert capsys.readouterr().err.startswith(message)

    def test_unstable_bec_rate_warns_in_one_line_per_run(self, tmp_path, capsys):
        # the warning printed as "<string>:7: UserWarning: ...", a location
        # inside a generated __init__, and once per process, not per run
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps({"scheme": "parity", "beta": 0.4, "rate_bits": 0.75,
                                   "horizon": 60_000, "trials": 2}))
        line = ("delaylab: warning: rate 0.75 >= capacity 0.6: queue is unstable; run is "
                "legal but miss probabilities will not decay\n")
        for out in ("a", "b"):
            assert run(["sim", "bec", cfg, "--out", tmp_path / out]) == 0
            assert capsys.readouterr() == ("", 2 * line)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        alone = subprocess.run([sys.executable, "-m", "delaylab.cli", "sim", "bec", str(cfg),
                                "--out", str(tmp_path / "c")],
                               capture_output=True, text=True, env=env)
        assert (alone.returncode, alone.stdout, alone.stderr) == (0, "", 2 * line)
        assert files(tmp_path / "a") == files(tmp_path / "c")

    def test_bec_rate_with_no_arrival_in_the_horizon(self, tmp_path, capsys):
        # the arrivals were once cast to int64 before the horizon cut, with
        # an invalid-cast warning and INT64_MIN arrival times
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps({"scheme": "fifo", "beta": 0.4, "rate_bits": 1e-300,
                                   "horizon": 5000}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sim", "bec", cfg, "--out", tmp_path / "b"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "delaylab: no delays left to fit: lengthen the run past its burn-in\n")

    @pytest.mark.parametrize("rate", [-1.0, 0.0])
    def test_ncl_nonpositive_rate_is_named(self, tmp_path, capsys, rate):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({"mode": "bound_driven", "channel": {"matrix": BSC002},
                                   "rate": rate, "horizon_blocks": 300}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            f"delaylab: rate must be a positive finite number, got {rate}\n")

    @pytest.mark.parametrize("rate", [1e-300, 5e-324])
    def test_two_stream_root_beyond_rho_1e8_exit5(self, tmp_path, capsys, rate):
        # these once exited 5 from the back-off and 3 with "cannot convert
        # float NaN to integer", after a split at rho = 4.5e299 and inf
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.TWO_STREAM, "rate": rate, "horizon_blocks": 300}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_SOLVER
        assert capsys.readouterr().err == (
            "delaylab: two-stream rate root beyond rho = 1e8 (residual 3.304e-09)\n")

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

    # sha256 of (trace.csv, summary.json) for 6,000 blocks of EXACT_TINY at
    # each seed, decoded from the competitors' distance counts; its chunk law
    # matches the codebook decode's (test_ncl_scheme)
    EXACT_TINY_DIGESTS = {
        5: ("707ca66e555d4b6e8b4ff87fd072f673046aaeb343d930729c99137f7235a236",
            "d101997646b268b47798e2488be886a704f5f14ed526478579f2f52917b4078a"),
        17: ("9032cf717aa378d7eb71078687713e8cf834b0b5d7814cb39d6d52b7a3338945",
             "0684b29cf3c2c3f7662bb5ec1903b544a69ae41f82000fef20711d0ae66fd5dc"),
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

    # sha256 of (summary.json, trace.csv) at seed 7 for the benchmark's
    # `simulations` sizes (perfbench/workloads.py at run_seconds 12),
    # recorded before the FIFO success counts, the trace counts and the
    # bootstrap CI stopped using binary searches and per-resample lstsq
    BENCH_SIZE_DIGESTS = {
        "bec_fifo": ("bec", {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5,
                             "horizon": 1_000_000},
                     "4e767ff3087b92c1e3139c3254b659bb498975150c2fe8e1a9cedc7c6072d4a2",
                     "5bbf472ee8c5e63437975a768bebc6a2716ea6b45eec5fb491e99c4d624cfb87"),
        "bec_parity": ("bec", {"scheme": "parity", "beta": 0.4, "rate_bits": 0.5,
                               "horizon": 1_000_000},
                       "71b2881da02795128ad7622ceda6e5caa71597307ddf47a204737e93462479d3",
                       "2182bbba91a6ec856ebf748c47b4f2cfd11424018dcae38691ce9b23ba619dce"),
        "queue": ("queue", {"service": {"kind": "offset_geometric", "offset": 2,
                                        "beta": 0.25},
                            "arrival_period": 5, "horizon": 520_000,
                            "d_grid": [6, 9, 12, 15, 18]},
                  "6590ba1512a4f63aa245a4934d5998d3f85602f52af7b8c1b86b08b037ba7425",
                  "9704438bbdb44f6ff82226b1405b2f41f1db2c2190ae82057139382b7da06a20"),
        "ncl_bound_driven": ("ncl", {"mode": "bound_driven",
                                     "channel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
                                     "rate": 0.2, "k": 10, "horizon_blocks": 280_000},
                             "72625ed35eb157aaf678e0b5e416af4e0c654d25004041760cbde1e3754a38bb",
                             "b3d008fe7d53d7d8e87d2f4dfcec49d8b8cef82ff5d4b681f70d7db086f4d9f9"),
    }

    @pytest.mark.parametrize("name", sorted(BENCH_SIZE_DIGESTS))
    def test_benchmark_size_bytes_are_pinned(self, tmp_path, name):
        kind, config, *digests = self.BENCH_SIZE_DIGESTS[name]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sim", kind, cfg, "--seed", "7", "--out", tmp_path / "s"]) == 0
        assert [hashlib.sha256((tmp_path / "s" / f).read_bytes()).hexdigest()
                for f in ("summary.json", "trace.csv")] == digests

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

    BEC = {"scheme": "fifo", "beta": 0.4, "rate_bits": 0.5, "horizon": 5000}
    REAL_FIELDS = [
        ("bec", BEC, (), "beta", "0.4", "beta"),
        ("bec", BEC, (), "rate_bits", None, "rate_bits"),
        ("bec", BEC, (), "beta", 10**400, "beta"),
        ("bec", BEC, (), "beta", math.nan, "beta"),
        ("bec", BEC, (), "d_grid", [8, "12"], "d_grid entry"),
        ("queue", GEOMETRIC_QUEUE, ("service",), "beta", "0.3", "beta"),
        ("queue", GEOMETRIC_QUEUE, (), "d_grid", [4, True], "d_grid entry"),
        ("ncl", EXACT_TINY, (), "rho", True, "rho"),
        ("ncl", EXACT_TINY, (), "rate", "0.17", "rate"),
        ("ncl", EXACT_TINY, (), "delta", math.inf, "delta"),
        ("ncl", EXACT_TINY, (), "d_grid", ["a"], "d_grid entry"),
    ]

    @pytest.mark.parametrize("kind,config,path,field,value,name", REAL_FIELDS,
                             ids=[f"{k}-{f}-{type(v).__name__}"
                                  for k, _, _, f, v, _ in REAL_FIELDS])
    def test_real_fields_must_be_finite_numbers(self, tmp_path, capsys, kind, config,
                                                path, field, value, name):
        # a string once failed with a TypeError traceback, a boolean ran as
        # 0 or 1, and a non-numeric deadline exited 3; an int beyond the
        # float range is not finite either
        config = json.loads(json.dumps(config))
        inner = config
        for key in path:
            inner = inner[key]
        inner[field] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sim", kind, cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        bad = value[-1] if type(value) is list else value
        assert f"{name} must be a finite number, got {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "s/summary.json").exists()

    def test_d_grid_must_be_a_list(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**self.BEC, "d_grid": 12}))
        assert run(["sim", "bec", cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        assert "d_grid must be a list of numbers, got 12" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,config", [("bec", BEC), ("queue", GEOMETRIC_QUEUE),
                                             ("ncl", EXACT_TINY)])
    def test_empty_d_grid_exits_2(self, tmp_path, capsys, kind, config):
        # it exited 3 in bec ("max() arg is an empty sequence"), wrote an
        # empty fit in queue and took the default grid in ncl
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, "d_grid": []}))
        assert run(["sim", kind, cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        assert "d_grid must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "s/summary.json").exists()

    @pytest.mark.parametrize("value", [2.5, "8", True, -1])
    def test_n_messages_is_a_nonnegative_integer(self, tmp_path, capsys, value):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "n_messages": value,
                                   "horizon_blocks": 100}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_PARSE
        assert (f"n_messages must be a nonnegative integer, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "n/summary.json").exists()

    def test_queue_offset_zero_runs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**self.GEOMETRIC_QUEUE, "service": {
            "kind": "offset_geometric", "offset": 0, "beta": 0.25}, "arrival_period": 5}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "s"]) == 0

    def test_summary_is_strict_json(self, tmp_path):
        # at seed 5 one deadline has misses, so the exponent and CI are
        # written as null; at seed 17 two have, and the fit is finite
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "horizon_blocks": 6000}))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for seed, digests in self.EXACT_TINY_DIGESTS.items():
            out = tmp_path / f"n{seed}"
            assert run(["sim", "ncl", cfg, "--seed", seed, "--out", out]) == 0
            fit = json.loads((out / "summary.json").read_text(), parse_constant=reject)["fit"]
            assert (fit["exponent"] is None) is (seed == 5)
            assert (fit["ci"] == [None, None]) is (seed == 5)
            assert fit["unbounded"] is False
            for name, digest in zip(("trace.csv", "summary.json"), digests):
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    # the EXACT_TINY fields that each mode does not read
    UNREAD_BY_MODE = {"exact_tiny": (), "bound_driven": ("n_messages",),
                      "two_stream": ("rho", "n", "c", "l", "n_messages")}

    @pytest.mark.parametrize("mode", ["exact_tiny", "bound_driven", "two_stream"])
    def test_run_inside_burn_in_exits_nonzero(self, tmp_path, capsys, mode):
        # the fit drops the first 10 blocks, so 10 blocks leave nothing to fit
        cfg = tmp_path / "n.json"
        config = {k: v for k, v in self.EXACT_TINY.items() if k not in self.UNREAD_BY_MODE[mode]}
        cfg.write_text(json.dumps({**config, "mode": mode, "horizon_blocks": 10}))
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

    @pytest.mark.parametrize("change,message", [
        ({"channel": {"matrix": [[1.0, 0.0], [0.5, 0.5]]}, "rate": 0.1}, "needs a BSC"),
        ({"n_messages": 2**62}, "fewer than 2^62 messages"),
    ], ids=["z05", "m_2_to_the_62"])
    def test_exact_tiny_outside_its_decoder_exits_3(self, tmp_path, capsys, change,
                                                    message):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, **change, "horizon_blocks": 100}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_INFEASIBLE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "n/summary.json").exists()

    def test_exact_tiny_non_uniform_input_exits_3(self, tmp_path, capsys, monkeypatch):
        # e0_max picks the uniform input on every BSC, so skew it by hand
        e0_max = ncl_scheme.e0_max
        monkeypatch.setattr(ncl_scheme, "e0_max",
                            lambda p, rho: (e0_max(p, rho)[0], np.array([0.25, 0.75])))
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({**self.EXACT_TINY, "horizon_blocks": 100}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "n"]) == cli.EXIT_INFEASIBLE
        assert "uniform input" in capsys.readouterr().err
        assert not (tmp_path / "n/summary.json").exists()

    def test_two_stream_d_grid_exits_2(self, tmp_path, capsys):
        # it was silently dropped for the mode's own deadlines
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**self.TWO_STREAM, "horizon_blocks": 300,
                                   "d_grid": [5, 6]}))
        assert run(["sim", "ncl", cfg, "--out", tmp_path / "s"]) == cli.EXIT_PARSE
        assert "unread field(s) in ncl two_stream config: d_grid" in capsys.readouterr().err
        assert not (tmp_path / "s/summary.json").exists()

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

    def test_unknown_service_kind_exit4(self, tmp_path, capsys):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({"service": {"kind": "mystery", "beta": 0.4},
                                   "arrival_period": 2, "horizon": 1000}))
        assert run(["sim", "queue", cfg, "--out", tmp_path / "q"]) == cli.EXIT_UNKNOWN
        assert "unknown service kind 'mystery'" in capsys.readouterr().err

    def test_bad_config_exit2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run(["sim", "bec", cfg, "--out", tmp_path / "x"]) == 2
        cfg2 = tmp_path / "missing.json"
        cfg2.write_text(json.dumps({"scheme": "fifo", "beta": 0.4}))
        assert run(["sim", "bec", cfg2, "--out", tmp_path / "y"]) == 2


BSC002 = [[0.98, 0.02], [0.02, 0.98]]

# a small valid input of every sim kind, mode and service kind, which
# between them use every field; the property below starts from each
VALID_SIMS = {
    "bec_fifo": ("bec", {"scheme": "fifo", "beta": 0.2, "rate_bits": 0.5, "horizon": 6000}),
    "bec_parity": ("bec", {"scheme": "parity", "beta": 0.2, "rate_bits": 0.5,
                           "horizon": 6000, "trials": 2, "d_grid": [4, 8],
                           "trace_stride": 7}),
    "queue_geometric": ("queue", {"service": {"kind": "geometric", "beta": 0.4},
                                  "arrival_period": 3, "horizon": 3000}),
    "queue_offset": ("queue", {"service": {"kind": "offset_geometric", "offset": 2,
                                           "beta": 0.25},
                               "arrival_period": 5, "horizon": 3000, "d_grid": [6, 9]}),
    "queue_truncated": ("queue", {"service": {"kind": "truncated_geometric", "beta": 0.4,
                                              "cap": 3},
                                  "arrival_period": 4, "horizon": 3000, "trials": 2}),
    "ncl_bound_driven": ("ncl", {"mode": "bound_driven",
                                 "channel": {"matrix": BSC002, "name": "bsc"},
                                 "rate": 0.2, "delta": 0.05, "k": 10, "rho": 1.0,
                                 "horizon_blocks": 300, "min_misses": 5,
                                 "d_grid": [40, 60]}),
    "ncl_exact_tiny": ("ncl", {**TestSim.EXACT_TINY, "horizon_blocks": 300,
                               "feedback_lag": 2}),
    "ncl_two_stream": ("ncl", {**TestSim.TWO_STREAM, "horizon_blocks": 300, "k": 10,
                               "delta": 0.05}),
}
VALID_CHANNEL_FILE = {"name": "x", "matrix": BSC002, "k": 50}
ALL_FIELDS = sorted({f for _, config in VALID_SIMS.values() for f in config}
                    | {"kind", "offset", "cap", "matrix", "name", "partition"})

# JSON values of every type; integers stay small, because a count field
# sets the size of a run, so a large one is a long run rather than a
# malformed input
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
NON_OBJECTS = JSON_VALUES.filter(lambda v: type(v) is not dict)
SELECTORS = ["fifo", "parity", "geometric", "offset_geometric", "truncated_geometric",
             "bound_driven", "exact_tiny", "two_stream"]


def like(value):
    """JSON values of the type of ``value``, and any JSON value: a changed
    field then often keeps its type, so that the extremes of each type
    reach the simulators."""
    same = {int: st.integers(-3, 40), float: st.floats(),
            str: st.sampled_from(SELECTORS) | st.text(max_size=6),
            list: st.lists(st.floats() | st.integers(-3, 40), max_size=3)}.get(type(value))
    return JSON_VALUES if same is None else same | JSON_VALUES


@st.composite
def one_field_changed(draw):
    """(argv kind, JSON input): a valid input with one field replaced,
    added or dropped, or the input or its nested object replaced by a
    value that is not an object."""
    start = draw(st.sampled_from(sorted(VALID_SIMS) + ["channel_file"]))
    kind, config = (("channel", VALID_CHANNEL_FILE) if start == "channel_file"
                    else VALID_SIMS[start])
    config = json.loads(json.dumps(config))
    how = draw(st.sampled_from(["replace", "add", "drop", "not_an_object"]))
    if how == "replace":
        field = draw(st.sampled_from(sorted(config)))
        config[field] = draw(like(config[field]))
    elif how == "add":
        config[draw(st.sampled_from(ALL_FIELDS) | st.text(max_size=6))] = draw(JSON_VALUES)
    elif how == "drop":
        del config[draw(st.sampled_from(sorted(config)))]
    else:
        nested = [name for name in ("service", "channel") if name in config]
        where = draw(st.sampled_from([None] + nested))
        if where is None:
            config = draw(NON_OBJECTS)
        else:
            config[where] = draw(NON_OBJECTS)
    return kind, config


def run_input(kind: str, config, root: Path) -> int:
    """``cli.main`` on ``config`` written to a file under ``root``: a
    channel file's ``bounds`` query, or a sim config's run."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / "input.json"
    path.write_text(json.dumps(config))
    if kind == "channel":
        return run(["bounds", path, "--rate", "0.1", "--bounds", "esp"])
    return run(["sim", kind, path, "--seed", "3", "--out", root / "out"])


def sim_summary(kind: str, config, root: Path) -> dict:
    assert run_input(kind, config, root) == 0
    summary = json.loads((root / "out" / "summary.json").read_text())
    summary.pop("config")
    return summary


class TestFieldReader:
    @pytest.mark.parametrize("name", sorted(VALID_SIMS))
    def test_valid_starting_points_run(self, tmp_path, name):
        assert run_input(*VALID_SIMS[name], tmp_path) == 0

    def test_valid_channel_file_runs(self, tmp_path):
        assert run_input("channel", VALID_CHANNEL_FILE, tmp_path) == 0

    @settings(max_examples=400)
    @given(case=one_field_changed())
    def test_one_changed_field_never_crashes(self, case):
        with tempfile.TemporaryDirectory() as root:
            assert run_input(*case, Path(root)) in (0, 2, 3, 4)

    # (kind, config, the unread fields the message names); each was
    # silently ignored before, and wrote the same outputs as without it
    UNREAD = {
        "bound_driven_exact_tiny_fields": (
            "ncl", {**VALID_SIMS["ncl_bound_driven"][1], "feedback_lag": 5, "n_messages": 3},
            "ncl bound_driven config: feedback_lag, n_messages"),
        "two_stream_fit_fields": (
            "ncl", {**VALID_SIMS["ncl_two_stream"][1], "min_misses": 5, "rho": 2.0},
            "ncl two_stream config: min_misses, rho"),
        "geometry_without_n": (
            "ncl", {**VALID_SIMS["ncl_bound_driven"][1], "c": 4, "l": 3},
            "ncl bound_driven config: c, l"),
        "queue_bec_field": (
            "queue", {**VALID_SIMS["queue_geometric"][1], "rate_bits": 0.5},
            "queue config: rate_bits"),
        "geometric_service_cap": (
            "queue", {**VALID_SIMS["queue_geometric"][1],
                      "service": {"kind": "geometric", "beta": 0.4, "cap": 3}},
            "geometric service: cap"),
        "ncl_channel_k": (
            "ncl", {**VALID_SIMS["ncl_bound_driven"][1],
                    "channel": {"matrix": BSC002, "k": 5}},
            "channel: k"),
        "bec_typo": ("bec", {**VALID_SIMS["bec_fifo"][1], "horizn": 5},
                     "bec fifo config: horizn"),
    }

    @pytest.mark.parametrize("name", sorted(UNREAD))
    def test_unread_field_exits_2_naming_it(self, tmp_path, capsys, name):
        kind, config, fields = self.UNREAD[name]
        assert run_input(kind, config, tmp_path) == cli.EXIT_PARSE
        assert capsys.readouterr().err == f"delaylab: unread field(s) in {fields}\n"
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("kind,config,where", [
        ("queue", {**VALID_SIMS["queue_geometric"][1], "service": 5}, "service"),
        ("bec", [VALID_SIMS["bec_fifo"][1]], "bec config"),
        ("ncl", {**VALID_SIMS["ncl_bound_driven"][1], "channel": 5}, "channel"),
        ("channel", [BSC002], "input.json"),
    ], ids=["queue_service", "bec_array", "ncl_channel", "channel_file_array"])
    def test_input_that_is_not_an_object_exits_2(self, tmp_path, capsys, kind, config,
                                                  where):
        # each once failed with a traceback (exit 1)
        assert run_input(kind, config, tmp_path) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("delaylab: ") and f"{where} must be a JSON object" in err

    def test_unknown_mode_exits_4_before_solving(self, tmp_path, capsys, monkeypatch):
        # it exited 3 "infeasible" after an E0 solve
        def no_solve(*args):
            raise AssertionError("solved before the mode was checked")

        monkeypatch.setattr(ncl_scheme, "select_params", no_solve)
        config = {**VALID_SIMS["ncl_bound_driven"][1], "mode": "foo", "rate": 5.0}
        assert run_input("ncl", config, tmp_path) == cli.EXIT_UNKNOWN
        assert capsys.readouterr().err == "delaylab: unknown ncl mode 'foo'\n"

    @pytest.mark.parametrize("extra", [{"n": 2}, {"n": 2, "c": 2}, {"c": 2, "l": 1}])
    def test_geometry_fields_go_together(self, tmp_path, capsys, extra):
        config = {k: v for k, v in VALID_SIMS["ncl_exact_tiny"][1].items()
                  if k not in ("n", "c", "l")}
        assert run_input("ncl", {**config, **extra}, tmp_path) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "missing field" in err if "n" in extra else "unread field(s)" in err

    def test_null_is_absent_for_k_and_n_messages(self, tmp_path):
        channel = tmp_path / "ch.json"
        channel.write_text(json.dumps({"matrix": BSC002, "k": None}))
        assert cli.load_channel(str(channel))[1] is None
        config = VALID_SIMS["ncl_exact_tiny"][1]
        nulled = sim_summary("ncl", {**config, "n_messages": None}, tmp_path / "a")
        absent = {k: v for k, v in config.items() if k != "n_messages"}
        assert nulled == sim_summary("ncl", absent, tmp_path / "b")

    @pytest.mark.parametrize("argv,message", [
        (["bounds", CHANNELS / "bsc002.json", "--rate", "nan", "--bounds", "esp"],
         "--rate must be a finite number, got nan"),
        (["bounds", CHANNELS / "z05.json", "--rate", "nan", "--bounds", "haroutunian"],
         "--rate must be a finite number, got nan"),
        (["bounds", CHANNELS / "bsc002.json", "--rate", "inf", "--bits", "--bounds", "esp"],
         "--rate must be a finite number, got inf"),
        (["curve", CHANNELS / "bsc002.json", "--bounds", "esp", "--rate-grid", "0.1:nan:3",
          "--out", "{out}/c.csv"], "--rate-grid end must be a finite number, got nan"),
        (["curve", CHANNELS / "bsc002.json", "--bounds", "focusing", "--eta-grid",
          "0.1:inf:3", "--out", "{out}/c.csv"], "--eta-grid end must be a finite number"),
        (["curve", CHANNELS / "bsc002.json", "--bounds", "esp", "--rate-grid", "0.1:0.2:0",
          "--out", "{out}/c.csv"], "--rate-grid count must be a positive integer, got 0"),
        (["bounds", CHANNELS / "bsc002.json", "--rate", "0.1", "--bounds", ""],
         "--bounds names no bound"),
        (["bounds", CHANNELS / "bsc002.json", "--rate", "0.1", "--bounds", " , "],
         "--bounds names no bound"),
    ], ids=["rate_nan_bsc", "rate_nan_z05", "rate_inf_bits", "rate_grid_nan",
            "eta_grid_inf", "grid_count_0", "bounds_empty", "bounds_commas"])
    def test_option_values_exit_2(self, tmp_path, capsys, argv, message):
        # the first two printed 0.0 and ln 2, the grids ran, and an empty
        # --bounds printed a header only, each with exit 0
        assert run(fill(argv, tmp_path)) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not (tmp_path / "c.csv").exists()

    def test_rho_zero_exits_3(self, tmp_path, capsys):
        # select_params divided by zero (exit 1)
        config = {**VALID_SIMS["ncl_bound_driven"][1], "rho": 0}
        assert run_input("ncl", config, tmp_path) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == "delaylab: rho must be positive, got 0.0\n"


@pytest.fixture(scope="module")
def benchmark_workloads():
    """perfbench/workloads.py, loaded from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestShippedInputs:
    def test_benchmark_sim_configs_are_accepted(self, tmp_path, benchmark_workloads):
        requests = benchmark_workloads.build("simulations", 0, 0.0, tmp_path, CHANNELS)
        configs = {tuple(req.argv[:3]) for req in requests}
        assert len(configs) == 6
        for i, (_, kind, path) in enumerate(sorted(configs)):
            assert run(["sim", kind, path, "--out", tmp_path / f"run{i}"]) == 0

    @pytest.mark.parametrize("path", sorted(CHANNELS.glob("*.json")), ids=lambda p: p.stem)
    def test_channel_files_are_accepted(self, path, capsys):
        assert run(["bounds", path, "--rate", "0.1", "--bounds", "esp"]) == 0


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

    # sha256 of every file each figure writes.  Figure 13's and 16's CSV
    # digests were recorded before figure 13 wrote through _write_curve_csv
    # and the scheme curves through reduced_rate_exponent; figure 16's esp
    # column re-recorded when sphere packing began its search at rho = 1
    # (each value checked against 50-digit mpmath).  The other figures'
    # digests, and every MANIFEST.json, were recorded before the bound
    # figures shared one builder, ``_bound_figure``.
    FIGURE_DIGESTS = {
        4: {"zchannel_bounds.csv":
            "be2ad1a44b8ea58843a66b496e7a8e1fff2f0ce31615c59cd531a2950f141315",
            "MANIFEST.json":
            "379c386bb46553a556ef3bf91bb195a2ab82f724fb34af2b519a1c9ba86a0aae"},
        6: {"bsc002_focusing_family.csv":
            "544b02698ab91050f95ba4fd511cc4c3cfe7a88014cc44a5ea06f1fa436c7239",
            "MANIFEST.json":
            "175d6489b1d6088da93d4bb5a3b221c02073326c42893eed0944cbeba03d6821"},
        7: {"bsc0003_focusing_vs_burnashev.csv":
            "2a6fb1e3bd1f0c80b747e80370b3ff9edb8c79ed890d4dd4c9099458d16963b9",
            "MANIFEST.json":
            "8e0b33ebd159d41a4fef4bb42a0d4192fb7125a763f09c76b3e09a3325d0c56d"},
        8: {"bsc002_delay_bounds.csv":
            "b4124a71bf4da74094ce0ac0bc5c3a30f63c26aa5dac4a0290d1ea0633d7b172",
            "MANIFEST.json":
            "9b6ac17342a13e5275dc08c874b7632eb7836ad9a9ff4b473c8d616b02ae294a"},
        9: {"bec04_bounds.csv":
            "81ba0864a700fb8ee44f05ea026d0f602efc0115f27e00909007e74efb1c87b2",
            "MANIFEST.json":
            "c2bbe9542e225a135f61754aea46b911700825dcfe4b4e99d19943c4777aa61e"},
        12: {"bsc002_slack.csv":
             "2f04b7a42b09771093590aae829d02d084827d331240ba3f8710e38b1c2956ad",
             "MANIFEST.json":
             "53b2504174ab786685b8d0a65e7575044dfaf1f2d26fde9d38c1731aa3e1b754"},
        13: {"bsc002_past_future_plain.csv":
             "7635b734c1d1c0487e4d8d458212062ee29b36867b18b38b0f3d8eec0c636512",
             "bsc002_past_future_fortified_k50.csv":
             "47ec9d6ae2b62d8682ee7b7f9c1a59c51c572956367d517fe5bea426eea9ba1a",
             "MANIFEST.json":
             "4df8a67f9f444ae3172fd1a3b98fd0c38539e5165de89b17b332d26060e1b697"},
        14: {"bsc002_fortified_bounds.csv":
             "87de46581cf0d78d4d5cd7a9b6c0c8732f9f063da35b7693d8f5156c319d98f7",
             "MANIFEST.json":
             "fe9ba003c3f982b807f790c3564bada6fcda5d0b2249a81d9565554f4ffdeab2"},
        16: {"bsc002_ncl_schemes.csv":
             "fdf6749b76ba5f6dfc21df7b17d06d54c54ae3e1d54cbd9da4776a344845675d",
             "MANIFEST.json":
             "90fba15d2966b22856a6b4cbc3f81004ec5b5f1a3f2e28cbc2d1bd2ac139cb9a"},
    }

    @pytest.mark.parametrize("fig", sorted(FIGURE_DIGESTS))
    def test_figure_bytes_are_pinned(self, tmp_path, fig):
        assert run(["figure", fig, "--out-dir", tmp_path]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.FIGURE_DIGESTS[fig])
        for name, digest in self.FIGURE_DIGESTS[fig].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_figure_16_reads_its_scheme_rho_from_the_store(self, tmp_path, monkeypatch):
        # each scheme's 48 rho are one-step lanes on the channel's E0 store,
        # so the request runs the E0 kernel 4 times (289 when each was an
        # e0_max call, which solves E0 again); every column equals, as hex
        # floats, what its bound or scheme curve gives alone on a new channel
        runs, kernel = [], exponents._e0_kernel
        monkeypatch.setattr(exponents, "_e0_kernel",
                            lambda *args: runs.append(args[1]) or kernel(*args))
        assert run(["figure", "16", "--out-dir", tmp_path]) == 0
        assert len(runs) <= 10
        monkeypatch.undo()
        rows = list(csv.DictReader(open(tmp_path / "bsc002_ncl_schemes.csv")))
        rates = np.linspace(0.02, 0.43, 22)
        assert [float(row["rate_nats"]) for row in rows] == rates.tolist()
        want = {"esp": [exponents.bound_at_rate(bsc(0.02), "esp", r) for r in rates],
                "focusing_fortified": [exponents.bound_at_rate(bsc(0.02), "focusing", r, 50)
                                       for r in rates]}
        for n, c, l in ((10, 3, 2), (20, 4, 3), (50, 8, 6)):
            want[f"scheme_{n}_{c}_{l}"] = [
                e for _, e in ncl_scheme.scheme_exponent_curve(bsc(0.02), n, c, l, 50, rates)]
        for name, values in want.items():
            assert [float(row[name]).hex() for row in rows] == [v.hex() for v in values], name

    def test_figure_6_curve_family(self, tmp_path):
        assert run(["figure", "6", "--out-dir", tmp_path]) == 0
        rows = list(csv.DictReader(open(tmp_path / "bsc002_focusing_family.csv")))
        for row in rows:
            env = min(float(row[f"envelope_lambda_{l:g}"]) for l in (0.125, 0.5, 0.875))
            assert env >= float(row["focusing"]) - 1e-9  # envelope property
