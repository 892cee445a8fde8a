"""Acceptance criteria, one test per criterion (criterion 6 split in two).

Each test prints a single line

    ACCEPTANCE <criterion>: PASS|FAIL -- <detail>

(visible with pytest -s).  Canonical report strings for the heavyweight
criteria are cached so the determinism criterion can re-run everything from
scratch and compare bytes.

Note on criterion 6: the b=4, a=-1 oracle distance |ln J0(1) + 1/4| is
checked against the reference 0.01762106 to 8 digits.  The acceptance text
stated 0.01762999, a miscomputation: the true value is
0.0176210647374331122988..., on which mpmath, the direct-summation oracle
and a bracket from efcert's own exact enclosures agree.  The test proves its
reference itself, with neither efcert nor the oracles: since
ln J0(1) = -1/4 - d, the reference r satisfies r < d < r + 1e-8 exactly when
e^(-1/4-r-1e-8) < J0(1) < e^(-1/4-r), and an exact Fraction bracket of the
alternating series for e^(-x) settles both inequalities against the 50-digit
published value J01_REF.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F

from efcert import cli
from efcert.auxiliary import construct, vanishing_order_target
from efcert.efunction import augment_exp, extract_params
from efcert.evalcert import eval_component, eval_exp
from efcert.forms import (adaptive_bound, build_ladder, evaluate_forms,
                          ladder_length)
from efcert.algebra import det_exact
from efcert.logmeasure import LogConfig, measure_scan
from efcert.zeroestimate import n0_bound, n0_for_system

from conftest import build_exp_pair, build_j0, build_kummer
from oracles import linear_form_oracle, log_distance_oracle

_REPORTS: dict[str, str] = {}

# Published values, truncated after 53 decimals: each is within 1e-50.
E_REF = F("2.71828182845904523536028747135266249775724709369995957")
E2_REF = F("7.38905609893065022723042746057500781318031557055184732")
J01_REF = F("0.76519768655796655144971752610266322090927428975532524")


def _line(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {tag}: {status}{suffix}")


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_formulas():
    start = time.time()
    ok = (
        vanishing_order_target(2, 1, F(1, 4)) == 3
        and vanishing_order_target(2, 8, F(1, 4)) == 15
        and vanishing_order_target(3, 10, F(1, 6)) == 31
        and ladder_length(2, 1, 0, 8, F(1, 4)) - 2 == 3
        and ladder_length(2, 0, 0, 4, F(1, 4)) - 2 == 1
        and ladder_length(3, 1, 0, 12, F(1, 6)) - 3 == 5
        and n0_bound(2, 1, 2).value == 112
        and n0_bound(2, 0, 0).value == 24
        and n0_bound(3, 1, 2).value == 324
    )
    elapsed = time.time() - start
    _line("criterion 1 (formulas)", ok and elapsed < 1.0,
          f"tau/t1/n0 hand values, {elapsed:.3f}s")
    assert ok and elapsed < 1.0


# -- criteria 2 and 3 --------------------------------------------------------

def _run_criterion_2() -> tuple[str, float]:
    start = time.time()
    rows = []
    for name, builder in (("exp_pair", build_exp_pair),
                          ("bessel_j0", build_j0),
                          ("kummer_1f1", build_kummer)):
        sys = builder()
        for n in range(2, 25):
            basis = construct(sys, n)
            series = sys.coefficients(basis.tau - 1)
            combo = series[0].mul_poly(basis.polys[0])
            for p, s in zip(basis.polys[1:], series[1:]):
                combo = combo + s.mul_poly(p)
            assert combo.valuation() is None, (name, n)   # zero through tau-1
            assert basis.achieved_order >= basis.tau, (name, n)
            rows.append({"system": name, "n": n, "tau": basis.tau,
                         "achieved": basis.achieved_order,
                         "exact": basis.achieved_exact,
                         "height": str(basis.height)})
    return _canon(rows), time.time() - start


def test_criterion_2_construction_soundness():
    report, elapsed = _run_criterion_2()
    _REPORTS["c2"] = report
    ok = elapsed < 60.0
    _line("criterion 2 (construction soundness)", ok,
          f"3 systems x n=2..24, exact series check, {elapsed:.1f}s")
    assert ok


def _run_criterion_3() -> tuple[str, float]:
    start = time.time()
    rows = []
    for name, builder in (("exp_pair", build_exp_pair),
                          ("bessel_j0", build_j0),
                          ("kummer_1f1", build_kummer)):
        sys = builder()
        params = extract_params(sys)
        for n in range(2, 25):
            basis = construct(sys, n)
            k_len = ladder_length(sys.m, params.q, params.p, n, basis.eps1)
            ladder = build_ladder(basis, sys, k_len)
            for k, row in enumerate(ladder.rows):
                for p in row:
                    assert p.degree <= n + k * params.q, (name, n, k)
            order = basis.achieved_order + k_len * (params.q + 1) + 8
            series = sys.coefficients(order)
            combos = []
            for row in ladder.rows:
                acc = series[0].mul_poly(row[0])
                for p, s in zip(row[1:], series[1:]):
                    acc = acc + s.mul_poly(p)
                combos.append(acc)
            for k in range(k_len - 1):
                derived = combos[k].derivative().mul_poly(sys.T)
                upto = min(derived.order, combos[k + 1].order)
                assert combos[k + 1].truncate(upto) == derived.truncate(upto), \
                    (name, n, k)
            rows.append({"system": name, "n": n, "K": k_len,
                         "max_deg": max(p.degree for r in ladder.rows
                                        for p in r)})
    return _canon(rows), time.time() - start


def test_criterion_3_ladder_identity_and_degrees():
    report, elapsed = _run_criterion_3()
    _REPORTS["c3"] = report
    _line("criterion 3 (ladder identity, degree bounds)", True,
          f"all k <= m+t1 over the criterion-2 grid, {elapsed:.1f}s")


# -- criterion 4 -------------------------------------------------------------

def _run_criterion_4() -> str:
    pair = build_exp_pair()
    basis = construct(pair, 1, F(1, 4))
    ladder = build_ladder(basis, pair, 2)
    forms = evaluate_forms(ladder, F(1))
    delta = det_exact([list(r) for r in forms.rows])
    doc = {
        "polys": [[str(c) for c in p.coeffs] for p in basis.polys],
        "row2": [[str(c) for c in p.coeffs] for p in ladder.rows[1]],
        "forms": [list(r) for r in forms.rows],
        "delta": delta,
    }
    assert [list(p.coeffs) for p in basis.polys] == [[2, 1], [-2, 1]]
    assert [list(p.coeffs) for p in ladder.rows[1]] == [[3, 1], [-3, 2]]
    assert forms.rows == ((3, -1), (4, -1))
    assert delta == 1
    return _canon(doc)


def test_criterion_4_hand_instance():
    _REPORTS["c4"] = _run_criterion_4()
    _line("criterion 4 (hand-derived instance)", True,
          "P=(2+z, z-2), row2=(3+z, 2z-3), forms=(3,-1),(4,-1), delta=1")


# -- criterion 5 -------------------------------------------------------------

def _criterion_5_targets() -> list[tuple[int, int]]:
    rng = random.Random(0xEFCE57)
    targets = []
    while len(targets) < 26:
        t = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        if t != (0, 0):
            targets.append(t)
    return targets


def _run_criterion_5() -> tuple[str, float, int]:
    start = time.time()
    targets = _criterion_5_targets()
    rows = []
    checked = 0
    for name, builder in (("exp_pair", build_exp_pair),
                          ("bessel_j0", build_j0)):
        sys = builder()
        for xi in (F(1), F(1, 2)):
            for target in targets:
                cert = adaptive_bound(sys, xi, target, n_max=40)
                assert cert.certified, (name, xi, target)
                oracle = linear_form_oracle(name, target, xi, dps=100)
                assert cert.lower_bound <= oracle, (name, xi, target)
                checked += 1
                rows.append({"system": name, "xi": str(xi),
                             "target": list(target), "n": cert.n,
                             "bound": f"{cert.lower_bound.numerator}/"
                                      f"{cert.lower_bound.denominator}"})
    return _canon(rows), time.time() - start, checked


def test_criterion_5_bound_validity():
    report, elapsed, checked = _run_criterion_5()
    _REPORTS["c5"] = report
    ok = checked >= 100 and elapsed < 600.0
    _line("criterion 5 (bound vs 100-digit oracle)", ok,
          f"{checked} random targets, exact inequality, {elapsed:.1f}s")
    assert ok


# -- criterion 6 -------------------------------------------------------------

def _run_criterion_6() -> tuple[str, float, list]:
    start = time.time()
    j0 = build_j0()
    rows = measure_scan(j0, 1, 12, 1, LogConfig(n_max=24))
    assert rows, "scan produced no rows"
    for row in rows:
        assert row.certified and row.bound > 0, (row.b, row.a)
        oracle = log_distance_oracle("bessel_j0", F(1), row.a, row.b, dps=100)
        assert row.bound <= oracle, (row.b, row.a)
    report = _canon([cli.logresult_dict(r) for r in rows])
    return report, time.time() - start, rows


def test_criterion_6_log_measure_soundness():
    report, elapsed, rows = _run_criterion_6()
    _REPORTS["c6"] = report
    pairs = [(r.b, r.a) for r in rows]
    ok = (4, -1) in pairs and elapsed < 900.0
    _line("criterion 6 (log-measure soundness)", ok,
          f"{len(rows)} reduced a/b rows, b <= 12, certified and <= oracle, "
          f"{elapsed:.1f}s")
    assert ok


def _exp_neg_bracket(x: F) -> tuple[F, F]:
    """Exact (lower, upper) bracket of e^(-x) for 0 < x < 1.

    The terms x^k/k! of the alternating series decrease, so two consecutive
    partial sums lie on either side of the limit; 24 terms leave a width
    below 1/23! < 1e-22.
    """
    assert 0 < x < 1
    partial, term, sums = F(0), F(1), []
    for k in range(24):
        partial += term
        sums.append(partial)
        term *= -x / (k + 1)
    return min(sums[-2:]), max(sums[-2:])


def test_criterion_6_reference_digit_string():
    # The b=4, a=-1 oracle distance d = |ln J0(1) + 1/4| equals the proven
    # reference r to 8 digits.  ln J0(1) = -1/4 - d, so r < d < r + 1e-8
    # holds exactly when e^(-1/4-r-1e-8) < J0(1) < e^(-1/4-r).
    reference = F("0.01762106")
    digit = F(1, 10 ** 8)
    j01_err = F(1, 10 ** 50)
    below_lo, _ = _exp_neg_bracket(F(1, 4) + reference)
    _, above_hi = _exp_neg_bracket(F(1, 4) + reference + digit)
    proven = below_lo > J01_REF + j01_err and above_hi < J01_REF - j01_err
    oracle = log_distance_oracle("bessel_j0", F(1), -1, 4, dps=100)
    ok = proven and abs(oracle - reference) < F(1, 10 ** 8)
    bracket = f"{float(reference):.8f} < d < {float(reference + digit):.8f}"
    _line("criterion 6 (reference digits)", ok,
          f"{bracket} {'proven' if proven else 'NOT proven'}, "
          f"oracle {float(oracle):.15f}")
    assert proven, f"{bracket} does not hold for d = |ln J0(1) + 1/4|"
    assert ok, (f"oracle {float(oracle):.15f} is 1e-8 or more from the proven "
                f"reference {float(reference):.8f}")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_beta_independence():
    rng = random.Random(0xBE7A)
    j0 = build_j0()
    betas = []
    while len(betas) < 20:
        beta = F(rng.randint(-1000, 1000), rng.randint(1, 100))
        if abs(beta) <= 10:
            betas.append(beta)
    structural = set()
    ok = True
    for beta in betas:
        aug = augment_exp(j0, beta)
        params = extract_params(aug)
        n0 = n0_for_system(aug).value
        structural.add((aug.m, params.p, params.q, params.T, n0))
        ok = ok and params.E == max(F(1), abs(beta))
        ok = ok and aug.growth.C == max(F(1), abs(beta))
        ok = ok and aug.growth.D == 2 * beta.denominator
    ok = ok and len(structural) == 1
    m, p, q, t, n0 = next(iter(structural))
    _line("criterion 7 (beta independence)", ok,
          f"20 betas: (m,p,q,n0)=({m},{p},{q},{n0}) fixed; "
          f"E,C,D vary as max(1,|b|), max(1,|b|), 2 den(b)")
    assert ok


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_interval_evaluator():
    start = time.time()
    width = F(1, 10 ** 50)
    pair = build_exp_pair()
    j0 = build_j0()
    iv_e = eval_exp(1, width)
    iv_e2 = eval_component(pair, 1, 1, width)
    iv_j = eval_component(j0, 0, 1, width)
    ok = (iv_e.lo <= E_REF <= iv_e.hi and iv_e.width <= width
          and iv_e2.lo <= E2_REF <= iv_e2.hi and iv_e2.width <= width
          and iv_j.lo <= J01_REF <= iv_j.hi and iv_j.width <= width)
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _line("criterion 8 (interval evaluator)", ok,
          f"e, e^2, J0(1) at width 1e-50 contain 50-digit refs, {elapsed:.2f}s")
    assert ok


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_determinism(capsys):
    reruns = {
        "c2": lambda: _run_criterion_2()[0],
        "c3": lambda: _run_criterion_3()[0],
        "c4": _run_criterion_4,
        "c5": lambda: _run_criterion_5()[0],
        "c6": lambda: _run_criterion_6()[0],
    }
    ok = True
    details = []
    for key, runner in reruns.items():
        first = _REPORTS.get(key)
        made_here = first is None       # its criterion did not run first
        if made_here:
            first = runner()
        identical = runner() == first
        details.append(f"{key}: {'identical' if identical else 'DIFFERS'}"
                       + (" (both runs here)" if made_here else ""))
        ok = ok and identical

    # scan output must also be independent of the thread count
    code1 = cli.main(["scan", "bessel_j0", "--xi", "1", "--bmax", "3",
                      "--window", "1", "--n-max", "12", "--jobs", "1"])
    out1 = capsys.readouterr().out
    code4 = cli.main(["scan", "bessel_j0", "--xi", "1", "--bmax", "3",
                      "--window", "1", "--n-max", "12", "--jobs", "4"])
    out4 = capsys.readouterr().out
    jobs_ok = code1 == code4 == 0 and out1 == out4
    ok = ok and jobs_ok
    details.append(f"scan jobs 1 vs 4: {'identical' if jobs_ok else 'DIFFERS'}")
    _line("criterion 9 (determinism)", ok, "; ".join(details))
    assert ok
