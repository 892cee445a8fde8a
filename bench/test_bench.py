"""Tests of the benchmark's own parts: oracle, output checks, digests and
tracer.  Run with ``PYTHONPATH=src python -m pytest bench``."""

from __future__ import annotations

import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import layers
import oracle
import run
import workloads

CLI = run.load_program()

# J0(1), J0'(1), 1F1(1/3;1/2;1) and its derivative from mpmath at 60 digits.
J0_1 = Decimal("0.765197686557966551449717526102663220909274289755325")
DJ0_1 = Decimal("-0.440050585744933515959682203718914913127372301992765")
F_1 = Decimal("2.08211017117906001131676059313215778528851352919179")
DF_1 = Decimal("1.64959924546307558910271536573062842682609865449064")


def close(a: Decimal, b: Decimal) -> bool:
    return abs(a - b) < Decimal(10) ** -48


def test_oracle_values():
    j0, dj0 = oracle.bessel_j0(Fraction(1))
    assert close(j0, J0_1) and close(dj0, DJ0_1)
    f, df = oracle.kummer(Fraction(1, 3), Fraction(1, 2), Fraction(1))
    assert close(f, F_1) and close(df, DF_1)


def test_oracle_derivatives_match_difference_quotients():
    h = Fraction(1, 10 ** 20)
    x = Fraction(3, 5)
    for fn in (oracle.bessel_j0,
               lambda t: oracle.kummer(Fraction(1, 3), Fraction(1, 2), t)):
        with localcontext() as ctx:
            ctx.prec = oracle.PRECISION
            quotient = (fn(x + h)[0] - fn(x - h)[0]) * h.denominator / 2
            assert abs(quotient - fn(x)[1]) < Decimal(10) ** -30


def small_bound_op():
    """The shallowest bound_deep op at xi = 1/2 (n = 9, 0.1 s)."""
    height = workloads.BOUND_HEIGHTS[0]
    return workloads.bound_op("1/2", workloads.bound_target("1/2", height))


def test_targets_are_convergents_in_range():
    for x in workloads.BOUND_POINTS:
        alpha = oracle.j0_ratio(Fraction(x))
        for p, q in workloads.climbing_convergents(x):
            assert 10 ** 6 <= max(p, q) <= 10 ** 30
            assert Fraction(p, q) < Fraction(alpha)
            # a convergent is closer to alpha than 1/q^2
            assert abs(Fraction(p, q) - Fraction(alpha)) < Fraction(1, q * q)


def bound_stdout(lower_bound: Fraction) -> str:
    return json.dumps({"status": "certified", "certificate": {
        "lower_bound": f"{lower_bound.numerator}/{lower_bound.denominator}",
        "n": 9}})


def test_oracle_flags_a_bound_just_above_the_true_value():
    op = small_bound_op()
    true = Fraction(oracle.j0_linear_form(*op.target, op.x))
    eps = Fraction(1, 10 ** 12)
    above = workloads.check(op, 0, bound_stdout(true * (1 + eps)), "")
    below = workloads.check(op, 0, bound_stdout(true * (1 - eps)), "")
    assert above.error is not None and above.oracle_violations == 1
    assert below.error is None and below.oracle_violations == 0


def test_oracle_flags_a_scan_row_just_above_the_true_distance():
    op = workloads.scan_op("kummer_1_3_1_2", "1/2", 2)
    rows = oracle.scan_rows(op.system, op.x, 2, workloads.SCAN_WINDOW)

    def table(scale):
        lines = ["b,a,bound,oracle_distance,path,n_used"]
        for b, a in rows:
            d = Fraction(oracle.log_distance(op.system, op.x, a, b)) * scale
            lines.append(f"{b},{a},{d.numerator}/{d.denominator},0,interval,1")
        return "\n".join(lines) + "\n"

    summary = json.dumps({"rows": len(rows), "certified_rows": len(rows)})
    high = workloads.check(op, 0, table(1 + Fraction(1, 10 ** 12)), summary)
    low = workloads.check(op, 0, table(1 - Fraction(1, 10 ** 12)), summary)
    assert high.oracle_violations == len(rows) and high.error is not None
    assert low.oracle_violations == 0 and low.error is None


def test_real_ops_pass_the_oracle_and_their_digests():
    golden = json.loads(run.GOLDEN.read_text())
    scan = workloads.scan_op("bessel_j0", "1/2", workloads.SCAN_BMAX)
    for op in (small_bound_op(), scan):
        code, out, err, _ = run.run_op(CLI, op)
        outcome = workloads.check(op, code, out, err)
        assert outcome.error is None and outcome.bounds
        assert golden[op.key] == run.digest(out, err)


def test_a_digest_mismatch_is_counted_apart_from_failures():
    op = small_bound_op()
    record = run.Run({op.key: "0" * 64})
    record.attempt(CLI, op)
    assert (record.attempted, record.failed) == (1, 0)
    assert record.digest_mismatches == 1


def test_speed_scales_each_interval_by_the_references_around_it(monkeypatch):
    refs = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(run, "time_reference", lambda: next(refs))
    speed = run.Speed()
    assert speed.scale(1.0) == pytest.approx(run.REF_SECONDS / 0.020)
    assert speed.scale(2.0) == pytest.approx(2.0 * run.REF_SECONDS / 0.025)


def test_golden_covers_every_op_of_every_workload():
    golden = json.loads(run.GOLDEN.read_text())
    for workload in workloads.WORKLOADS:
        assert all(op.key in golden for op in workloads.grid(workload))


def test_rounds_repeat_for_a_seed_and_cover_every_stratum():
    for workload in workloads.WORKLOADS:
        a = list(itertools.islice(workloads.rounds(workload, 3), 4))
        assert a == list(itertools.islice(workloads.rounds(workload, 3), 4))
        strata, _ = workloads._layout(workload)
        assert all(len(rnd) == len(strata) for rnd in a)


def traced(op):
    with layers.Tracer() as tracer:
        code, out, err, wall = run.run_op(CLI, op)
        trace = tracer.take()
    assert code == 0 and trace.hook_errors == 0
    return trace, wall


def test_problem_size_counters_repeat_exactly():
    op = small_bound_op()
    first, _ = traced(op)
    second, _ = traced(op)
    assert first.sizes == second.sizes
    assert dict(first.calls) == dict(second.calls)
    assert set(first.sizes) == set(layers.SIZES)
    assert all(value > 0 for value in first.sizes.values())
    assert first.sizes["forms.n_reached"] >= 8


def test_wrappers_are_removed_on_exit():
    import efcert.auxiliary
    import efcert.forms
    before = efcert.forms.construct
    with layers.Tracer():
        assert efcert.forms.construct is not before
        assert efcert.auxiliary.construct is efcert.forms.construct
    assert efcert.forms.construct is before


@pytest.mark.parametrize("op", [
    small_bound_op(),
    workloads.scan_op("bessel_j0", "1/2", 3),
], ids=["bound", "scan"])
def test_traced_calls_match_cprofile(op):
    trace, wall = traced(op)
    counts = layers.profile_calls(lambda: run.run_op(CLI, op))
    assert {k: trace.calls.get(k, 0) for k in counts} == counts
    assert trace.root_child_ns <= trace.root_ns <= wall * 1e9
    assert trace.root_child_ns >= 0.9 * trace.root_ns


def test_thread_pool_rows_keep_their_own_spans():
    one = workloads.scan_op("kummer_1_3_1_2", "1/2", 3)
    two = one.with_jobs(2)
    trace1, _ = traced(one)
    trace2, _ = traced(two)
    assert dict(trace1.calls) == dict(trace2.calls)
    assert trace1.sizes == trace2.sizes
    assert all(ns >= 0 for ns in trace2.self_ns.values())
