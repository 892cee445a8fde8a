"""efcert benchmark: one workload, one process, one client in a closed loop.

    python3 bench/run.py --workload bound_deep --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, and the run fails without printing a result when it is missing.
Each op is one ``efcert`` CLI command, run in-process through
``efcert.cli.main`` with stdout and stderr captured.  Every op's output is
checked against the oracle in ``oracle.py`` and against the sha256 digests in
``golden.json``.

With ``--trace 0`` the run reports the end-to-end metrics with tracing off.
Every time metric is scaled to a fixed machine speed: see ``Speed``.
With ``--trace 1`` it runs each op twice, untraced and then traced, and
reports per-layer self times, call counts and problem sizes, the tracing
overhead, and whether the traced call counts match a cProfile pass of the
cheapest op.  A traced ``scan`` run also runs its first round with
``--jobs 2``, for the thread pool's parallel efficiency.

The last line of stdout is the result; the line before it holds the run's
metadata (Python version, CPU count, seed, commit, digest and oracle counts).
``--write-golden`` runs every op of every workload's grid once and rewrites
``golden.json``; use it only when a change is meant to alter the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
TAIL_SAMPLES = 10
# A traced scan run also runs its first round with this many jobs: the only
# place the thread pool in logmeasure.measure_scan runs.
POOL_JOBS = 2
# Only scan calls these layers, so their self times read exactly 0 on
# bound_deep.  They go on the metadata line with the rest of the layer
# table, but not into the per-layer metrics.
SCAN_ONLY_TIMES = ("efunction.rescale.s", "efunction.augment_exp.s",
                   "evalcert.eval_exp.s", "logmeasure.log_lower_bound.s",
                   "logmeasure.measure_scan.s")


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------

def _efcert_modules() -> list[str]:
    return [k for k in sys.modules if k == "efcert" or k.startswith("efcert.")]


def load_program():
    """Put ``src/`` first on the path and check that efcert comes from it."""
    src = ROOT / "src"
    if not (src / "efcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no efcert sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("efcert.cli")
    if Path(cli.__file__).resolve().parent != (src / "efcert").resolve():
        raise SystemExit(f"error: efcert imported from {cli.__file__}")
    return cli


def setup_once(systems: list[str]) -> float:
    """Seconds to import efcert afresh and parse the workload's systems."""
    for name in _efcert_modules():
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("efcert.cli")
    sysdesc = importlib.import_module("efcert.sysdesc")
    for name in systems:
        sysdesc.parse_system(sysdesc.resolve_system_path(name))
    return time.perf_counter() - t0


def run_op(cli, op: workloads.Op):
    """(exit code, stdout, stderr, seconds) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(op.argv))
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def digest(stdout: str, stderr: str) -> str:
    """sha256 over stdout and stderr; ``scan`` writes its CSV to stdout and
    its summary JSON to stderr."""
    h = hashlib.sha256(stdout.encode())
    h.update(b"\0")
    h.update(stderr.encode())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# On a shared host the speed of a core swings with the load of other
# tenants: on a 2-core test machine one op, repeated back to back, took
# between 0.31 and 0.61 s within 40 s, and the unscaled throughput of 50 s
# runs spread by 0.14-0.28 (interquartile range over median, 10 seeds).
# The swings last minutes, so longer runs do not remove them.  A fixed piece of
# exact arithmetic that shares no code with efcert slows down with it: the
# log of its time tracked the log of an op's time with slope 0.94-0.98 and
# correlation 0.8-0.9.  So every timed interval is divided by the mean of
# the reference times right before and right after it, and multiplied by
# REF_SECONDS: times are in seconds of a machine that runs the reference in
# REF_SECONDS.  The raw wall times go on the metadata line.
REF_SECONDS = 0.018
REF_SIZE = 16


def reference_work() -> Fraction:
    """Fraction elimination of a fixed REF_SIZE x REF_SIZE matrix; the last
    pivot."""
    rng = random.Random(7)
    m = [[Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))
          for _ in range(REF_SIZE)] for _ in range(REF_SIZE)]
    for c in range(REF_SIZE):
        for r in range(c + 1, REF_SIZE):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[-1][-1]


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Speed:
    """Scales each timed interval by the reference times around it.  Call
    ``scale`` right after every interval, so that the reference it takes is
    the one before the next interval."""

    def __init__(self):
        self.last = time_reference()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        ref = time_reference()
        factor = 2 * REF_SECONDS / (self.last + ref)
        self.last = ref
        self.factors.append(factor)
        return seconds * factor


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.oracle_violations = 0
        self.digest_mismatches = 0
        self.digests_checked = 0
        self.errors: list[str] = []
        self.times: list[float] = []      # scaled by Speed
        self.raw_times: list[float] = []
        self.bounds = []
        self.degrees: list[int] = []
        self.report_bytes: list[int] = []
        # len(bounds), len(degrees) when the last complete round ended
        self.complete = (0, 0)

    def record(self, op, code, stdout, stderr, dt, exc=None,
               sample=True) -> bool:
        """Check one op's output and count it; a passing op adds its bounds,
        degrees and report size to the samples unless ``sample`` is False."""
        self.attempted += 1
        if exc is not None:
            outcome = workloads.Outcome(f"{type(exc).__name__}: {exc}", 0,
                                        [], [])
        else:
            outcome = workloads.check(op, code, stdout, stderr)
            want = self.golden.get(op.key)
            self.digests_checked += 1
            if want != digest(stdout, stderr):
                self.digest_mismatches += 1
                self.errors.append(f"digest mismatch: {op.key}")
        self.oracle_violations += outcome.oracle_violations
        if outcome.error is not None:
            self.failed += 1
            self.errors.append(f"{op.key}: {outcome.error}")
            return False
        if not sample:
            return True
        self.bounds.extend(outcome.bounds)
        self.degrees.extend(outcome.degrees)
        self.report_bytes.append(len(stdout.encode()) + len(stderr.encode()))
        return True

    def attempt(self, cli, op, sample=True):
        """Run and check one op; its seconds, or None when it failed."""
        try:
            code, out, err, dt = run_op(cli, op)
        except Exception as exc:  # an op that raises is a failed op
            self.record(op, None, "", "", 0.0, exc)
            return None
        return dt if self.record(op, code, out, err, dt,
                                 sample=sample) else None


def op_cycle(workload: str, seed: int):
    for rnd in workloads.rounds(workload, seed):
        yield from rnd


def first_round(workload: str, seed: int) -> list:
    return next(workloads.rounds(workload, seed))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the largest sample that still has
    TAIL_SAMPLES samples above it; the smallest sample when none has."""
    s = sorted(times)
    i = max(len(s) - 1 - TAIL_SAMPLES, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def setup_time(systems: list[str]) -> tuple[float, float]:
    """(scaled, raw) medians of SETUP_REPEATS set-ups."""
    speed = Speed()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(setup_once(systems))
        scaled.append(speed.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(run: Run, setup_s: float) -> dict:
    """The bounded metrics.  bound_bits and n_mean are output properties, so
    they come from the rounds that completed: a cut-off round would weigh
    its strata unevenly.  bound_bits is a mean, not a median: the median of
    a bound_deep run sits on one of six values, one per point of its middle
    stratum, and flipped between them from seed to seed."""
    value, _ = tail(run.times)
    n_bounds, n_degrees = run.complete
    bits = [-math.log2(b.numerator) + math.log2(b.denominator)
            for b in run.bounds[:n_bounds or None]]
    degrees = run.degrees[:n_degrees or None]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(run.times) / sum(run.times), "1/s"),
        "op_p50_s": (statistics.median(run.times), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "bound_bits": (statistics.fmean(bits), "bits"),
        "n_mean": (statistics.fmean(degrees), "degree"),
    }


def measure(cli, workload: str, seed: int, seconds: float, run: Run,
            speed: Speed):
    t_end = time.perf_counter() + seconds
    for rnd in workloads.rounds(workload, seed):
        for op in rnd:
            if time.perf_counter() >= t_end:
                return
            dt = run.attempt(cli, op)
            scaled = speed.scale(dt or 0.0)
            if dt is not None:
                run.times.append(scaled)
                run.raw_times.append(dt)
        run.complete = (len(run.bounds), len(run.degrees))


def measure_traced(cli, workload: str, seed: int, seconds: float, run: Run):
    """Each op untraced, then traced.  Sizes and call counts are averaged
    over the first round only, which always completes, so they repeat
    exactly for a seed; self times are averaged over every traced op."""
    first = first_round(workload, seed)
    traces = []
    pairs = []
    t_end = time.perf_counter() + seconds
    cheapest = None
    for i, op in enumerate(op_cycle(workload, seed)):
        if i >= len(first) and time.perf_counter() >= t_end:
            break
        plain = run.attempt(cli, op)
        with layers.Tracer() as tracer:
            traced = run.attempt(cli, op)
            op_trace = tracer.take()
        if plain is None or traced is None:
            continue
        traces.append((op, i < len(first), op_trace, traced))
        pairs.append((plain, traced))
        if cheapest is None or plain < cheapest[0]:
            cheapest = (plain, op, op_trace)
    mismatches = cprofile_check(cli, cheapest[1], cheapest[2]) \
        if cheapest else {}
    return traces, pairs, pool_pass(cli, traces, run), mismatches


def pool_pass(cli, traces, run: Run) -> list:
    """(jobs-1 wall, trace, wall) of each scan op of the first round run
    again, traced, with POOL_JOBS jobs; ``bound`` has no --jobs."""
    pooled = []
    for op, in_first, _, plain_wall in traces:
        if not in_first or op.bmax is None:
            continue
        with layers.Tracer() as tracer:
            wall = run.attempt(cli, op.with_jobs(POOL_JOBS))
            op_trace = tracer.take()
        if wall is not None:
            pooled.append((plain_wall, op_trace, wall))
    return pooled


def cprofile_check(cli, op, op_trace) -> dict:
    """Layer call counts of one traced op against a cProfile pass of the
    same op.  cProfile follows only the calling thread, so the check uses
    one-job ops."""
    counts = layers.profile_calls(lambda: run_op(cli, op))
    return {name: (op_trace.calls.get(name, 0), n)
            for name, n in counts.items()
            if op_trace.calls.get(name, 0) != n}


def per_layer(traces, pairs, pooled, run: Run) -> dict:
    counted = [t for _, first, t, _ in traces if first]
    every = [t for _, _, t, _ in traces]
    walls = [w for _, _, _, w in traces]
    metrics = {}
    for name in layers.NAMES:
        metrics[f"{name}.s"] = (
            statistics.fmean(t.self_ns.get(name, 0) for t in every) / 1e9,
            "s")
        metrics[f"{name}.calls"] = (
            statistics.fmean(t.calls.get(name, 0) for t in counted), "count")
    for key in layers.SIZES:
        metrics[key] = (statistics.fmean(t.sizes.get(key, 0)
                                         for t in counted), "count")
    attempts = sum(t.calls.get("forms.certified_lower_bound", 0)
                   for t in counted)
    certified = sum(t.sums.get("forms.certified", 0) for t in counted)
    metrics["forms.attempts"] = (attempts / len(counted), "count")
    metrics["forms.certified_per_attempt"] = (
        certified / attempts if attempts else 0.0, "ratio")
    rows = sum(t.calls.get("logmeasure.log_lower_bound", 0) for t in counted)
    wins = sum(t.sums.get("logmeasure.forms_route_wins", 0) for t in counted)
    # A bound op has the forms route only; a scan row has both.
    metrics["logmeasure.forms_route_share"] = (
        wins / rows if rows else 1.0, "ratio")
    # Work-unit CPU time over the capacity of the jobs: of the POOL_JOBS
    # pass on scan, of the one-job ops on bound_deep.
    eff, jobs = ([t for _, t, _ in pooled], POOL_JOBS) if pooled \
        else (every, 1)
    metrics["logmeasure.parallel_efficiency"] = (
        sum(t.busy_cpu_ns for t in eff)
        / (jobs * sum(t.root_ns for t in eff)), "ratio")
    metrics["cli.report_bytes"] = (statistics.fmean(run.report_bytes),
                                   "bytes")
    metrics["trace.overhead_frac"] = (
        sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1.0, "ratio")
    metrics["trace.coverage"] = (
        sum(t.root_child_ns for t in every) / (sum(walls) * 1e9), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------

def write_golden(cli) -> int:
    golden = {}
    for workload in ("bound_deep", "scan"):
        for op in workloads.grid(workload):
            code, out, err, dt = run_op(cli, op)
            outcome = workloads.check(op, code, out, err)
            if outcome.error is not None:
                print(f"error: {op.key}: {outcome.error}", file=sys.stderr)
                return 1
            golden[op.key] = digest(out, err)
            print(f"{dt:7.3f}s  {op.key}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.write_golden:
        return write_golden(load_program())
    if args.workload is None:
        ap.error("--workload is required")

    load_program()
    systems = sorted({op.system for op in workloads.grid(args.workload)})
    setup_s, raw_setup_s = setup_time(systems)
    cli = importlib.import_module("efcert.cli")
    run = Run(json.loads(GOLDEN.read_text()))
    # Warm-up, checked but not timed: fills the program's factorial cache
    # and the oracle's caches.
    run.attempt(cli, first_round(args.workload, args.seed)[0], sample=False)

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(),
    }
    mismatches = {}
    if args.trace:
        traces, pairs, pooled, mismatches = measure_traced(
            cli, args.workload, args.seed, args.seconds, run)
        table = per_layer(traces, pairs, pooled, run)
        metrics = {k: v for k, v in table.items()
                   if k not in SCAN_ONLY_TIMES}
        meta["layers"] = {k: v for k, (v, _) in table.items()}
        meta["cprofile_mismatches"] = mismatches
        meta["hook_errors"] = sum(t.hook_errors for _, _, t, _ in traces)
        meta["trace_overhead_frac"] = metrics["trace.overhead_frac"][0]
        if pooled:
            meta["pool_speedup"] = (sum(w1 for w1, _, _ in pooled)
                                    / sum(w for _, _, w in pooled))
    else:
        speed = Speed()
        measure(cli, args.workload, args.seed, args.seconds, run, speed)
        metrics = end_to_end(run, setup_s) if run.times else {}
        if run.times:
            meta["raw_setup_s"] = raw_setup_s
            meta["raw_ops_per_s"] = len(run.raw_times) / sum(run.raw_times)
            meta["raw_op_p50_s"] = statistics.median(run.raw_times)
            meta["raw_op_tail_s"] = tail(run.raw_times)[0]
            meta["speed_factor_p50"] = statistics.median(speed.factors)
        meta["op_tail_percentile"] = tail(run.times)[1] if run.times else 0
        meta["op_tail_samples"] = len(run.times)
    meta.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "oracle_violations": run.oracle_violations,
        "digests_checked": run.digests_checked,
        "digest_mismatches": run.digest_mismatches,
        "errors": run.errors[:10],
    })
    correct = (meta["failed"] == 0 and meta["digest_mismatches"] == 0
               and not mismatches and bool(metrics))
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
