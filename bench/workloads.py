"""Workload inputs and output checks.

The seed picks evaluation points and target heights; efcert receives only
the generated CLI arguments.  Every input comes from a finite grid, so
``golden.json`` holds the digest of every op that any seed can produce.

A workload is a cycle of rounds with one op per stratum: a target height for
``bound_deep``, a system for ``scan``.  The seed gives each stratum a
starting evaluation point, and each round moves every stratum on to the next
point.  Every run therefore spends its time on the same strata, with the
points spread evenly over them, whatever the seed.

The strata are chosen so that the order statistics the benchmark reports
land inside a group of ops of equal cost.  ``bound_deep`` has three depth
classes, each about three times the cost of the one below: one shallow
stratum (n about 9), two mid strata (n = 14) and two deep strata (n = 20).
Of the about 70 ops of a run, the median is then a mid op and the tail op
(10 samples above it) a deep one near the middle of the deep group.  On a
2-core test machine a height series spread evenly from 1e7 to 1e29 made the
median swing by 30% from seed to seed, because it fell where n steps from
14 to 17.  ``scan``
uses ``--bmax 10`` only.  A run holds only about 20 scans, so its median and
tail sit near the middle of them, and mixing ``--bmax`` 8, 9 and 10 put
those ranks on the boundaries between the three costs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

WORKLOADS = ("bound_deep", "scan")

# bound_deep: points where J0 > 0 and the nearest convergents to the heights
# below certify at the same n for every point.
BOUND_POINTS = ("1/2", "4/7", "3/5", "5/8", "7/12", "9/16")
# log10 of the target heights, one op each per round.
BOUND_HEIGHTS = (8.0, 15.3, 15.3, 24.5, 24.5)
# A target is the convergent nearest a stratum's height, within a decade.
HEIGHT_SLACK = 1.0
MIN_HEIGHT, MAX_HEIGHT = 10 ** 6, 10 ** 30

# scan: points where both components are positive (J0 > 0 below 2.40).
SCAN_SYSTEMS = ("bessel_j0", "kummer_1_3_1_2")
SCAN_POINTS = ("1/4", "1/3", "1/2", "2/3", "3/4", "1")
SCAN_BMAX = 10
SCAN_WINDOW = Fraction(1, 2)


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output must satisfy."""

    argv: tuple[str, ...]
    system: str
    x: Fraction
    target: tuple[int, int] | None = None
    bmax: int | None = None

    @property
    def key(self) -> str:
        """The command without ``--jobs``: output does not depend on it, so
        a many-job op is checked against the one-job digest."""
        argv = list(self.argv)
        if "--jobs" in argv:
            i = argv.index("--jobs")
            del argv[i:i + 2]
        return " ".join(argv)

    def with_jobs(self, jobs: int) -> "Op":
        argv = [a for a in self.key.split(" ")]
        return Op(tuple(argv + ["--jobs", str(jobs)]), self.system, self.x,
                  self.target, self.bmax)


def climbing_convergents(x: str) -> list[tuple[int, int]]:
    """Targets (p, q) at xi = x with height in [1e6, 1e30].

    (p, q) runs over the continued-fraction convergents of -J0'(x)/J0(x)
    with p/q below the ratio: the ones above it certify at n = 1, while
    these climb to n >= 8 from height 1e6 on.
    """
    alpha = oracle.j0_ratio(Fraction(x))
    ratio = Fraction(alpha)
    return [(p, q) for p, q in oracle.convergents(alpha, MAX_HEIGHT)
            if Fraction(p, q) < ratio
            and MIN_HEIGHT <= max(p, q) <= MAX_HEIGHT]


def bound_target(x: str, height: float) -> tuple[int, int] | None:
    """The climbing convergent at x whose height is nearest 10**height."""
    near = [(abs(math.log10(max(p, q)) - height), (p, q))
            for p, q in climbing_convergents(x)]
    near = [t for t in near if t[0] <= HEIGHT_SLACK]
    return min(near)[1] if near else None


def bound_op(x: str, target: tuple[int, int]) -> Op:
    p, q = target
    return Op(("bound", "bessel_j0", "--xi", x, "--target", f"{p},{q}"),
              "bessel_j0", Fraction(x), target=target)


def scan_op(system: str, x: str, bmax: int) -> Op:
    return Op(("scan", system, "--xi", x, "--bmax", str(bmax),
               "--window", str(SCAN_WINDOW)), system, Fraction(x), bmax=bmax)


def _cell(workload: str, stratum, x: str) -> Op | None:
    if workload == "bound_deep":
        target = bound_target(x, stratum)
        return None if target is None else bound_op(x, target)
    return scan_op(stratum, x, SCAN_BMAX)


def _layout(workload: str):
    if workload == "bound_deep":
        return BOUND_HEIGHTS, BOUND_POINTS
    return SCAN_SYSTEMS, SCAN_POINTS


def grid(workload: str) -> list[Op]:
    """Every op the workload can run, for any seed."""
    strata, points = _layout(workload)
    cells = {_cell(workload, s, x) for s in strata for x in points}
    return sorted((op for op in cells if op is not None),
                  key=lambda op: op.key)


def rounds(workload: str, seed: int):
    """The seed's rounds, without end.  A point without a target near a
    stratum's height passes the stratum on to the next point."""
    strata, points = _layout(workload)
    rng = random.Random(f"{workload}:{seed}")
    start = [rng.randrange(len(points)) for _ in strata]
    cells = {}
    for r in itertools.count():
        rnd = []
        for k, stratum in enumerate(strata):
            for j in range(len(points)):
                x = points[(start[k] + r + j) % len(points)]
                if (k, x) not in cells:
                    cells[(k, x)] = _cell(workload, stratum, x)
                if cells[(k, x)] is not None:
                    rnd.append(cells[(k, x)])
                    break
        yield rnd


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """The checked result of one op."""

    error: str | None
    oracle_violations: int
    bounds: list[Fraction]
    degrees: list[int]


def check(op: Op, code: int, stdout: str, stderr: str) -> Outcome:
    if code != 0:
        return Outcome(f"exit code {code}: {stderr.strip()[:200]}", 0, [], [])
    try:
        if op.target is not None:
            return _check_bound(op, stdout)
        return _check_scan(op, stdout, stderr)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return Outcome(f"malformed output: {exc!r}", 0, [], [])


def _check_bound(op: Op, stdout: str) -> Outcome:
    doc = json.loads(stdout)
    cert = doc["certificate"]
    if doc["status"] != "certified" or cert["lower_bound"] is None:
        return Outcome(f"status {doc['status']}", 0, [], [])
    bound = Fraction(cert["lower_bound"])
    p, q = op.target
    ok = 0 < bound and oracle.j0_bound_holds(bound, p, q, op.x)
    return Outcome(None if ok else f"bound {bound} not below |L0|",
                   0 if ok else 1, [bound], [cert["n"]])


def _check_scan(op: Op, stdout: str, stderr: str) -> Outcome:
    table = list(csv.reader(io.StringIO(stdout)))
    header, body = table[0], table[1:]
    col = {name: i for i, name in enumerate(header)}
    summary = json.loads(stderr)
    expected = oracle.scan_rows(op.system, op.x, op.bmax, SCAN_WINDOW)
    got = [(int(r[col["b"]]), int(r[col["a"]])) for r in body]
    if got != expected:
        return Outcome(f"rows {got} differ from the oracle's {expected}",
                       0, [], [])
    if summary["rows"] != len(body) or summary["certified_rows"] != len(body):
        return Outcome(f"summary {summary} disagrees with the table", 0, [],
                       [])
    bounds, degrees, violations = [], [], 0
    for r in body:
        bound = Fraction(r[col["bound"]])
        b, a = int(r[col["b"]]), int(r[col["a"]])
        if not (0 < bound and oracle.log_bound_holds(bound, op.system, op.x,
                                                     a, b)):
            violations += 1
        bounds.append(bound)
        if r[col["n_used"]]:
            degrees.append(int(r[col["n_used"]]))
    error = None if violations == 0 else \
        f"{violations} row bounds not below |ln f - a/b|"
    return Outcome(error, violations, bounds, degrees)
