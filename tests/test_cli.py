from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from efcert import cli
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
