from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from efcert import cli, logmeasure, zeroestimate
from efcert.errors import InputError
from efcert.sysdesc import catalog_file

from oracles import log_distance_oracle


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestN0Command:
    def test_value_112(self, capsys):
        code, out, _ = run_cli(capsys, "n0", "--m", "2", "--q", "1",
                               "--exponent-bound", "2")
        assert code == 0
        assert json.loads(out)["n0_bound"] == 112


class TestConstructCommand:
    def test_hand_instance(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "exp_pair",
                               "--n", "1", "--eps1", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == 3
        assert doc["polynomials"] == ["z + 2", "z - 2"]
        assert doc["achieved_order"] == 3


class TestParamsCommand:
    def test_bessel(self, capsys):
        code, out, _ = run_cli(capsys, "params", "bessel_j0")
        assert code == 0
        doc = json.loads(out)
        assert (doc["p"], doc["q"], doc["E"]) == (0, 1, "1")
        assert doc["n0_bound"] == 112


class TestBoundCommand:
    def test_certified_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "exp_pair", "--xi", "1",
                               "--target", "3,-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "certified"
        bound = F(doc["certificate"]["lower_bound"])
        assert 0 < bound <= F("0.76578938644648548")

    def test_exhausted_exit_two(self, capsys, tmp_path):
        dep = {
            "m": 2,
            "A": [["1", "0"], ["0", "1"]],
            "seeds": [["1"], ["1"]],
            "growth": {"C": "1", "D": "1", "provenance": "user-supplied"},
            "exponent_bound": {"global": "0"},
        }
        p = tmp_path / "dependent.json"
        p.write_text(json.dumps(dep), encoding="utf-8")
        code, out, _ = run_cli(capsys, "bound", str(p), "--xi", "1",
                               "--target", "1,-1", "--n-max", "5")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "exhausted_n"
        assert all(a["status"] == "RankDeficientLadder"
                   for a in doc["attempts"])

    def test_input_errors_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "bound", "exp_pair", "--xi", "1",
                               "--target", "0,0")
        assert code == 3 and "nonzero" in err
        code, _, _ = run_cli(capsys, "params", "missing_system")
        assert code == 3
        code, _, _ = run_cli(capsys, "bound", "exp_pair", "--xi", "x",
                             "--target", "1,0")
        assert code == 3

    def test_exponent_data_computed_once(self, capsys, monkeypatch):
        # n_max = 4 n0 and the report's parameter block share one
        # computation of the exponent data
        calls = []
        exponent_data = zeroestimate.exponent_data

        def counting(system):
            calls.append(system)
            return exponent_data(system)

        monkeypatch.setattr(zeroestimate, "exponent_data", counting)
        code, out, _ = run_cli(capsys, "bound", "bessel_j0", "--xi", "1/2",
                               "--target", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_max"] == 4 * doc["parameters"]["n0_bound"] == 448
        assert len(calls) == 1

    def test_missing_exponent_bound(self, capsys, tmp_path):
        # infinity is irregular for A = (1): without --n-max there is no n0
        # and so no default n_max; with it, the report has no n0
        p = tmp_path / "no_exponent_bound.json"
        p.write_text(json.dumps({
            "m": 1, "A": [["1"]], "seeds": [["1"]],
            "growth": {"C": "1", "D": "1", "provenance": "user-supplied"}}),
            encoding="utf-8")
        argv = ("bound", str(p), "--xi", "1", "--target", "1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("error: irregular singular point infinity: supply "
                       "exponent_bound['infinity'] or a global bound\n")
        code, out, _ = run_cli(capsys, *argv, "--n-max", "2")
        assert code == 0
        assert json.loads(out)["parameters"]["n0_bound"] is None


class TestInputErrors:
    @pytest.mark.parametrize("doc, field", [
        ({"exponent_bound": {"global": "x"}}, "exponent_bound"),
        ({"A": [["2/z"]], "seeds": [["0"]]}, "seeds"),
        ({"T": "1/z"}, "T"),
        ({"seeds": [["0"]]}, "seeds"),
        ({"labels": [[1]]}, "labels"),
    ], ids=["bound_value", "seeds_free", "T_rational", "seeds_zero",
            "labels_not_strings"])
    def test_system_file_names_file_and_field(self, doc, field, capsys,
                                              tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"m": 1, "A": [["1"]], "seeds": [["1"]],
                                    **doc}), encoding="utf-8")
        code, out, err = run_cli(capsys, "params", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: field {field!r}: ")
        assert err.count("\n") == 1

    def test_malformed_target(self, capsys):
        assert run_cli(capsys, "bound", "bessel_j0", "--xi", "1",
                       "--target", "1,x") == (
            3, "", "error: target must be comma-separated integers: '1,x'\n")


class TestLogboundCommand:
    def test_bessel_quarter(self, capsys):
        code, out, _ = run_cli(capsys, "logbound", "bessel_j0", "--xi", "1",
                               "--approx", "-1/4", "--n-max", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "certified"
        bound = F(doc["result"]["bound"])
        assert 0 < bound <= F("0.01764")
        oracle = log_distance_oracle("bessel_j0", F(1), -1, 4)
        assert bound <= oracle

    def test_irrational_key_at_a_rescaled_point(self, capsys, tmp_path):
        # rescale carries the irrational key over as it does global and
        # infinity; it used to parse it as a point and crash
        doc = json.loads(catalog_file("bessel_j0").read_text())
        doc["exponent_bound"] = {"irrational": "3", "infinity": "2", "0": "1"}
        path = tmp_path / "j0_irrational_key.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "logbound", str(path), "--xi", "1/2",
                               "--approx", "-1/8")
        assert code == 0
        bound = F(json.loads(out)["result"]["bound"])
        assert 0 < bound <= log_distance_oracle("bessel_j0", F(1, 2), -1, 8)

    def test_both_routes_fail_exits_2(self, capsys, tmp_path):
        # f = e^z and the approximation 1 = ln f(1) exactly: no interval
        # separates f(1) from e^1, and n_max 2 exhausts the forms route
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "m": 1, "A": [["1"]], "T": "1", "seeds": [["1"]],
            "growth": {"C": "1", "D": "1"},
            "exponent_bound": {"global": "0"}}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "logbound", str(path), "--xi", "1",
                               "--approx", "1", "--n-max", "2")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "exhausted_n"
        assert doc["error"] == ("forms route exhausted and interval route "
                                "cannot separate f(1) from exp(1) at 1024 "
                                "bits")


class TestExpDuplicateComponent:
    @pytest.mark.parametrize("xi, approx", [("1", "2"), ("1/2", "1"),
                                            ("-4", "-8")])
    def test_interval_route_decides_at_once(self, xi, approx):
        # exp_pair is (e^z, e^2z): at xi z its second component is
        # exp(approx z), so the augmented components are dependent and the
        # forms route, which no n certifies, is not run.  A child process, so
        # that a hang fails on the timeout.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "efcert.cli", "logbound", "exp_pair",
             "--xi", xi, "--approx", approx],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        res = json.loads(proc.stdout)["result"]
        assert res["path"] == "interval"
        assert res["forms_certificate"] is None
        assert res["forms_failure"].startswith("component 2 (exp(2*z))")
        bound = F(res["bound"])
        assert 0 < bound <= F(res["oracle_distance"]["lo"])
        # ln e^xi = xi
        assert bound < abs(F(xi) - F(approx))


class TestLowPrecisionLogMeasure:
    """At 2 bits, J0(12/5) ~ 0.0025 and e^-6 ~ 0.0025 are told apart
    neither from 0 nor from each other: f(xi) doubles its bits until its
    enclosure is positive, and the interval route doubles them until the
    two enclosures separate.  Every bound lies below the oracle."""

    XI = F(12, 5)

    def test_logbound_refines_both_enclosures(self, capsys, monkeypatch):
        # ("value", bits) per enclosure of f(xi) asked for and ("exp",
        # width) per enclosure of e^beta, in call order
        calls = []
        value, eval_exp = logmeasure._PointState.value, logmeasure.eval_exp

        def recording_value(state, bits):
            calls.append(("value", bits))
            return value(state, bits)

        def recording_exp(beta, width):
            calls.append(("exp", width))
            return eval_exp(beta, width)

        monkeypatch.setattr(logmeasure._PointState, "value", recording_value)
        monkeypatch.setattr(logmeasure, "eval_exp", recording_exp)
        code, out, _ = run_cli(capsys, "logbound", "bessel_j0", "--xi",
                               "12/5", "--approx", "-6", "--precision", "2")
        assert code == 0
        result = json.loads(out)["result"]
        first_exp = calls.index(("exp", F(1, 4)))
        assert calls[0] == ("value", 2)
        assert ("value", 4) in calls[:first_exp]       # positivity doubling
        assert ("exp", F(1, 16)) in calls[first_exp:]  # separation doubling
        assert F(result["f_value"]["lo"]) > 0
        bound = F(result["bound"])
        assert 0 < bound <= log_distance_oracle("bessel_j0", self.XI, -6, 1)

    def test_scan_rows_below_the_oracle(self, capsys, tmp_path, monkeypatch):
        results = []
        lower_bound = logmeasure.log_lower_bound

        def recording(*args, **kwargs):
            results.append(lower_bound(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(logmeasure, "log_lower_bound", recording)
        out_csv = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "scan", "bessel_j0", "--xi", "12/5",
                             "--bmax", "2", "--window", "1",
                             "--precision", "2", "--csv", str(out_csv))
        assert code == 0
        rows = [line.split(",")
                for line in out_csv.read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == \
            [("1", "-6"), ("1", "-5"), ("2", "-13"), ("2", "-11")]
        for b, a, bound, *_ in rows:
            assert 0 < F(bound) <= log_distance_oracle(
                "bessel_j0", self.XI, int(a), int(b))
        # a row whose enclosures leave |f - e^beta| < f/2 undecided
        assert None in [r.half_value_guard for r in results]


class TestScanCommand:
    def test_csv_columns_and_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, "scan", "bessel_j0", "--xi", "1",
                               "--bmax", "2", "--window", "1",
                               "--n-max", "12", "--csv", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "b,a,bound,oracle_distance,path,n_used"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == \
            [("1", "-1"), ("1", "0"), ("2", "-1"), ("2", "1")]
        for r in rows:
            assert F(r[2]) > 0
        summary = json.loads(out)
        assert summary["rows"] == 4 and summary["certified_rows"] == 4

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_csv_exits_3(self, where, tmp_path):
        # A child process, so that a crash shows its traceback on stderr.
        target = tmp_path / "missing" / "x.csv" if where != "directory" \
            else tmp_path
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "efcert.cli", "scan", "bessel_j0",
             "--xi", "1/2", "--bmax", "2", "--window", "1/2",
             "--csv", str(target)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {target}")
        assert proc.stdout == ""

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_csv_fails_before_any_row(self, where, capsys,
                                                 tmp_path, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(logmeasure, "log_lower_bound", no_rows)
        target = tmp_path / "missing" / "x.csv" if where != "directory" \
            else tmp_path
        code, out, err = run_cli(capsys, "scan", "bessel_j0", "--xi", "1",
                                 "--bmax", "2", "--window", "1",
                                 "--csv", str(target))
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {target}")

    def test_failed_scan_leaves_the_csv_as_it_was(self, capsys, tmp_path,
                                                  monkeypatch):
        def failing_row(*args, **kwargs):
            raise InputError("row failed")

        monkeypatch.setattr(logmeasure, "log_lower_bound", failing_row)
        target = tmp_path / "scan.csv"
        target.write_text("old\n")
        code, _, err = run_cli(capsys, "scan", "bessel_j0", "--xi", "1",
                               "--bmax", "2", "--window", "1",
                               "--csv", str(target))
        assert code == 3 and err == "error: row failed\n"
        assert target.read_text() == "old\n"

    def test_jobs_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "scan", "bessel_j0", "--xi", "1",
                                 "--bmax", "2", "--window", "1",
                                 "--n-max", "12", "--jobs", "1")
        code4, out4, _ = run_cli(capsys, "scan", "bessel_j0", "--xi", "1",
                                 "--bmax", "2", "--window", "1",
                                 "--n-max", "12", "--jobs", "4")
        assert code1 == code4 == 0
        assert out1 == out4


class TestPrecisionOption:
    @pytest.mark.parametrize("precision", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["bound", "exp_pair", "--xi", "1", "--target", "3,-1"],
        ["logbound", "bessel_j0", "--xi", "1", "--approx", "-1/4"],
        ["scan", "bessel_j0", "--xi", "1", "--bmax", "3", "--window", "1"],
    ], ids=["bound", "logbound", "scan"])
    def test_nonpositive_precision_exits_3(self, argv, precision):
        # A child process, so that a hang fails on the timeout and a crash
        # shows its traceback on stderr.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "efcert.cli", *argv,
             "--precision", precision],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "precision" in proc.stderr


class TestWorkCeilings:
    @pytest.mark.parametrize("argv, option", [
        (["construct", "bessel_j0", "--n", "100000"], "--n"),
        (["bound", "bessel_j0", "--xi", "1/2", "--target", "1,1",
          "--n-start", "500"], "--n-start"),
        (["bound", "bessel_j0", "--xi", "1/2", "--target", "1,1",
          "--n-max", "100000"], "--n-max"),
        (["logbound", "bessel_j0", "--xi", "1/2", "--approx", "0",
          "--precision", "10000000"], "--precision"),
        (["scan", "bessel_j0", "--xi", "1/2", "--bmax", "1000000",
          "--window", "1/2"], "--bmax"),
        (["scan", "bessel_j0", "--xi", "1/2", "--bmax", "3",
          "--window", "1/2", "--n-max", "97"], "--n-max"),
        (["scan", "bessel_j0", "--xi", "1/2", "--bmax", "2",
          "--window", "1e309"], "--window"),
        (["scan", "bessel_j0", "--xi", "1/2", "--bmax", "2",
          "--window", "201/100"], "--window"),
        (["bound", "bessel_j0", "--xi", "1000", "--target", "1,2"], "--xi"),
        (["logbound", "bessel_j0", "--xi", "-9", "--approx", "0"], "--xi"),
        (["scan", "kummer_1_3_1_2", "--xi", "17/2", "--bmax", "2",
          "--window", "1/2"], "--xi"),
        (["logbound", "bessel_j0", "--xi", "1", "--approx", "1000"],
         "--approx"),
        (["logbound", "bessel_j0", "--xi", "1", "--approx", "-65/2"],
         "--approx"),
        (["logbound", "bessel_j0", "--xi", "1", "--approx", "1e4"],
         "--approx"),
    ], ids=["n", "n_start", "n_max", "precision", "bmax", "scan_n_max",
            "window_beyond_float", "window", "xi_bound", "xi_logbound",
            "xi_scan", "approx", "approx_negative", "approx_exponent"])
    def test_over_ceiling_exits_3(self, argv, option):
        # A child process, so that a hang fails on the timeout and a crash
        # shows its traceback on stderr.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "efcert.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=30)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {option} ")
        assert "exceeds the ceiling" in proc.stderr

    def test_ceiling_itself_allowed(self):
        at = argparse.Namespace(n=cli._MAX_N, n_start=cli._MAX_N,
                                n_max=cli._MAX_N, bmax=cli._MAX_BMAX,
                                precision=cli._MAX_PRECISION)
        cli._check_ceilings(at)
        for dest in vars(at):
            over = argparse.Namespace(**vars(at))
            setattr(over, dest, getattr(at, dest) + 1)
            with pytest.raises(InputError, match="exceeds the ceiling"):
                cli._check_ceilings(over)


    def test_window_ceiling_itself_allowed(self):
        for window in (str(cli._MAX_WINDOW), "-1", "1/2"):
            cli._check_ceilings(argparse.Namespace(window=window))
        with pytest.raises(InputError, match="exceeds the ceiling"):
            cli._check_ceilings(argparse.Namespace(
                window=f"{cli._MAX_WINDOW}.001"))

    def test_xi_and_approx_ceilings_themselves_allowed(self):
        # both signs up to the ceiling, per command for --xi
        assert sorted(cli._MAX_XI) == ["bound", "logbound", "scan"]
        for command, ceiling in cli._MAX_XI.items():
            for xi in (str(ceiling), f"-{ceiling}", "1/2"):
                cli._check_ceilings(argparse.Namespace(subcommand=command,
                                                       xi=xi))
            with pytest.raises(InputError, match="^--xi .* exceeds the "
                                                 "ceiling"):
                cli._check_ceilings(argparse.Namespace(
                    subcommand=command, xi=f"-{ceiling}.001"))
        for approx in (str(cli._MAX_APPROX), f"-{cli._MAX_APPROX}", "-1/4"):
            cli._check_ceilings(argparse.Namespace(subcommand="logbound",
                                                   xi="1", approx=approx))
        with pytest.raises(InputError, match="^--approx .* exceeds the "
                                             "ceiling"):
            cli._check_ceilings(argparse.Namespace(
                subcommand="logbound", xi="1",
                approx=f"{cli._MAX_APPROX}.001"))

    def test_digest_cases_and_benchmark_grid_below_the_ceilings(self):
        # every pinned report and every op the benchmark can run
        import test_report_digests
        sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        argvs = [case.split() for case in test_report_digests.CASES]
        argvs += [list(op.argv) for name in workloads.WORKLOADS
                  for op in workloads.grid(name)]
        assert len(argvs) > 53 + 20
        for argv in argvs:
            cli._check_ceilings(cli._PARSER.parse_args(
                cli._join_negative_values(argv)))


class TestExponentNotation:
    @pytest.mark.parametrize("argv", [
        ["logbound", "bessel_j0", "--xi", "1", "--approx", "1e4000000"],
        ["scan", "bessel_j0", "--xi", "1", "--bmax", "2",
         "--window", "1e-4000000"],
    ], ids=["approx", "window"])
    def test_large_exponent_exits_3_at_once(self, argv):
        # Fraction evaluates 1e<k> before any check, in time that grows
        # faster than k (2.2 s for this k; 1e999999999 asks for 415 MB).  A
        # child process, so that a hang fails on the timeout and a crash
        # shows its traceback on stderr.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "efcert.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=10)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: rational ")
        assert "exponent of more than 1000" in proc.stderr


class TestOversizedReport:
    @pytest.mark.parametrize("xi", ["500", "1/1" + "0" * 200],
                             ids=["xi_500", "xi_1e-200"])
    def test_exits_3_without_traceback(self, xi):
        # The report would hold an integer beyond Python's 4,300-digit
        # int-to-str limit.  A child process, so that a crash shows its
        # traceback on stderr.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "efcert.cli", "bound", "bessel_j0",
             "--xi", xi, "--target", "1,2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "digits" in proc.stderr


class TestParserReuse:
    def test_built_once_and_output_repeats(self, capsys, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting)
        argv = ("scan", "bessel_j0", "--xi", "1", "--bmax", "2",
                "--window", "1", "--n-max", "12")
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first
        code, out, err = run_cli(capsys, "construct", "bessel_j0",
                                 "--n", "x")
        assert (code, out) == (3, "")
        assert err.startswith("error: argument --n: invalid int value")
        assert run_cli(capsys, *argv) == first
        assert built == []


class TestOversizedSystemFile:
    @staticmethod
    def params(path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "efcert.cli", "params", str(path)],
            capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("expr", [
        "1" * 5000, "(1+z)^3000", "((1+z)^40)^40", "((((2^64)^64)^64)^64)^64",
        "*".join(["(1+z)^256"] * 8), "(" * 400 + "z" + ")" * 400,
    ], ids=["literal", "power", "nested_power", "constant_power", "product",
            "nested_parens"])
    def test_exits_3_without_traceback(self, expr, tmp_path):
        doc = {"m": 1, "A": [[expr]], "seeds": [["1"]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = self.params(path)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {path}: field 'A[0][0]': ")
        assert proc.stderr.count("\n") == 1

    def test_nested_json_exits_3_without_traceback(self, tmp_path):
        # json.loads raises RecursionError on 1,000 nested arrays
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
        proc = self.params(path)
        assert proc.returncode == 3
        assert proc.stderr == f"error: {path}: JSON nested too deeply\n"


class TestLargeRationalPole:
    def test_params_finishes_within_2s(self, tmp_path):
        # A simple pole at a 25-digit integer: a root search by trial
        # division up to the square root of the constant term ran for hours.
        pole = "1000000000000000000000007"
        doc = {"m": 1, "A": [[f"1/(z-{pole})"]], "seeds": [["1"]],
               "growth": {"C": "1", "D": "1", "provenance": "catalog"},
               "exponent_bound": {"global": "2"}}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "efcert.cli", "params", str(path)],
            capture_output=True, text=True, env=env, timeout=2)
        assert proc.returncode == 0
        points = json.loads(proc.stdout)["exponent_points"]
        assert [p["point"] for p in points] == [pole, "infinity"]


class TestEmitCommand:
    def test_reserialization_stable(self, capsys):
        code, out1, _ = run_cli(capsys, "emit", "bessel_j0")
        assert code == 0
        assert out1 == catalog_file("bessel_j0").read_text(encoding="utf-8")


class TestArgvPreprocessing:
    def test_negative_rational_after_space(self):
        argv = cli._join_negative_values(
            ["logbound", "x", "--approx", "-1/4", "--xi", "1"])
        assert "--approx=-1/4" in argv

    def test_unrelated_args_untouched(self):
        argv = ["bound", "s", "--n-max", "5"]
        assert cli._join_negative_values(argv) == argv


class TestReadableErrors:
    @pytest.mark.parametrize("argv", [
        ("logbound", "bessel_j0", "--xi", "3", "--approx", "0"),
        ("scan", "bessel_j0", "--xi", "3", "--bmax", "2", "--window", "1/2"),
    ], ids=["logbound", "scan"])
    def test_negative_value_named_at_the_given_point(self, capsys, argv):
        # J0(3) = -0.2600519549019...; the rescaled system evaluates at 1
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("error: f(3) is negative, in [-0.260051954902, "
                       "-0.260051954901]; negate the function and retry\n")

    def test_zero_denominator_on_the_command_line(self, capsys):
        code, out, err = run_cli(capsys, "bound", "bessel_j0", "--xi", "1/0",
                                 "--target", "1,2")
        assert (code, out) == (3, "")
        assert err == "error: malformed rational '1/0': zero denominator\n"

    def test_zero_denominator_in_a_system_file(self, capsys, tmp_path):
        doc = json.loads(catalog_file("bessel_j0").read_text())
        doc["growth"]["C"] = "1/0"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "params", str(path))
        assert (code, out) == (3, "")
        assert err == (f"error: {path}: field 'growth': malformed rational "
                       f"'1/0': zero denominator\n")
