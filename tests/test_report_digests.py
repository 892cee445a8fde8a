"""Byte-for-byte pins of CLI reports.

Each case runs ``efcert.cli.main`` in-process and compares the exit code and
the sha256 digests of stdout and stderr with those recorded in
``report_digests.json``.  Any change to a report fails here, so a speed-up
that must leave the reports alone is checked by this test alone.

When a change of output is deliberate, regenerate the digests with

    PYTHONPATH=src python tests/test_report_digests.py --write

and say in the change description which reports moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from efcert import cli

DIGEST_FILE = Path(__file__).with_name("report_digests.json")

CASES = (
    [f"construct {name} --n {n}"
     for name in ("bessel_j0", "kummer_1_3_1_2", "exp_pair")
     for n in range(1, 13)]
    + [f"params {name}"
       for name in ("bessel_j0", "kummer_1_3_1_2", "exp_pair")]
    + ["bound exp_pair --xi 1 --target 3,-1",
       "bound kummer_1_3_1_2 --xi 1/2 --target 1,2",
       "bound bessel_j0 --xi 3/7 --target 29134,132813",
       # two deep ops of the benchmark's bound_deep grid (n = 14 and n = 20)
       "bound bessel_j0 --xi 1/2 --target 1957114438056792,7581229628729569",
       "bound bessel_j0 --xi 1/2 --target "
       "1485874387333457676604801,5755797775937679673467204",
       "logbound bessel_j0 --xi 1 --approx -1/4",
       "logbound kummer_1_3_1_2 --xi 1/2 --approx 1/3",
       "logbound kummer_1_3_1_2 --xi 1 --approx 7/3",
       "logbound bessel_j0 --xi 2/3 --approx -2/9",
       "scan bessel_j0 --xi 1/2 --bmax 4 --window 1/2",
       "scan kummer_1_3_1_2 --xi 1/2 --bmax 4 --window 1/2",
       # large kernels, and columns that carry b^N N! from beta = a/b
       "construct kummer_1_3_1_2 --n 48",
       "construct bessel_j0 --n 40",
       "logbound bessel_j0 --xi 1 --approx -141909497/530262807"]
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(case: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case.split())
    return {"code": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def _recorded() -> dict:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def test_every_case_recorded():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES,
                         ids=[case.replace(" ", "_") for case in CASES])
def test_report_digest(case):
    assert run_case(case) == _recorded()[case]


def write_digests() -> None:
    digests = {case: run_case(case) for case in CASES}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    write_digests()
