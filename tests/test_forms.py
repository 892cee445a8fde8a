from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from efcert import forms
from efcert.algebra import Poly, RatFunc, cofactor, det_exact, rank
from efcert.auxiliary import (_combination, construct, default_eps1,
                              remainder)
from efcert.efunction import augment_exp, catalog, extract_params, make_system
from efcert.errors import (ExhaustedN, InputError, RankDeficientLadder,
                           SingularEvaluationPoint)
from efcert.forms import (BoundCertificate, adaptive_bound, build_ladder,
                          certified_lower_bound, evaluate_forms, ladder_length)
from efcert.efunction import GrowthCertificate
from efcert.evalcert import eval_component

from conftest import build_j0
from oracles import linear_form_oracle, ref_combination
from test_acceptance import _criterion_5_targets


# -- references: the Poly/Fraction ladder that the integer rows replace

def ref_ladder_rows(basis, sys, K):
    """P_{k+1,j} = T P_{k,j}' + sum_i P_{k,i} (T A)_{i,j} on Poly rows."""
    rows = [tuple(basis.polys)]
    for _ in range(K - 1):
        prev = rows[-1]
        nxt = []
        for j in range(sys.m):
            acc = sys.T * prev[j].derivative()
            for i in range(sys.m):
                if not prev[i].is_zero():
                    acc = acc + prev[i] * sys.TA[i][j]
            nxt.append(acc)
        rows.append(tuple(nxt))
    return rows


def ref_mul(a, b):
    """The integer polynomial product before the multiply-add form."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def ref_next_row(row, lam_t, lam_ta):
    """The integer ladder step before the multiply-add form: every term a
    list of its own, summed by zip_longest."""
    out = []
    for j in range(len(row)):
        terms = [ref_mul(lam_t, forms._derivative(row[j]))]
        terms += [ref_mul(p, lam_ta[i][j]) for i, p in enumerate(row)]
        acc = [sum(cs) for cs in itertools.zip_longest(*terms, fillvalue=0)]
        while acc and not acc[-1]:
            acc.pop()
        out.append(tuple(acc))
    return tuple(out)


# zeros, small integers and negative or positive integers of several limbs
int_coeffs = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-2 ** 200, 2 ** 200))
int_polys = st.one_of(st.lists(int_coeffs, max_size=9).map(tuple),
                      st.lists(st.just(0), max_size=3).map(tuple))


def rationals(max_den):
    return st.builds(F, st.integers(-50, 50), st.integers(1, max_den))


LADDER_SYSTEMS = ["bessel", "kummer", "exp_pair", "bessel_exp_third"]


@pytest.fixture(scope="module")
def ladder_systems(j0, kummer, exp_pair):
    return {"bessel": j0, "kummer": kummer, "exp_pair": exp_pair,
            "bessel_exp_third": augment_exp(j0, F(1, 3))}


def _ladder(sys, n):
    basis = construct(sys, n)
    params = extract_params(sys)
    K = ladder_length(sys.m, params.q, params.p, n, basis.eps1)
    return basis, K, build_ladder(basis, sys, K)


def dependent_pair():
    """f1 = f2 = e^z, Q(z)-dependent: no ladder reaches rank 2."""
    a = ((RatFunc.constant(1), RatFunc.zero()),
         (RatFunc.zero(), RatFunc.constant(1)))
    return make_system(a, ((F(1),), (F(1),)),
                       growth=GrowthCertificate(F(1), F(1)),
                       exponent_bound={"global": F(0)})


class TestLadderLength:
    @pytest.mark.parametrize("m,q,p,n,eps1,expected", [
        (2, 1, 0, 8, F(1, 4), 5),
        (2, 0, 0, 4, F(1, 4), 3),
        (3, 1, 0, 12, F(1, 6), 8),
    ])
    def test_values(self, m, q, p, n, eps1, expected):
        assert ladder_length(m, q, p, n, eps1) == expected


class TestBuildLadder:
    def test_exp_pair_second_row(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        ladder = build_ladder(basis, exp_pair, 2)
        assert ladder.rows[1] == (Poly([3, 1]), Poly([-3, 2]))

    def test_length_one_is_basis(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        ladder = build_ladder(basis, exp_pair, 1)
        assert ladder.rows == (basis.polys,)

    def test_j0_degree_bounds(self, j0):
        basis = construct(j0, 2, F(1, 4))
        ladder = build_ladder(basis, j0, 5)
        for k, row in enumerate(ladder.rows):
            for p in row:
                assert p.degree <= 2 + k      # n + (k-1) q, 1-based k

    def test_ladder_series_identity(self, j0):
        basis = construct(j0, 3)
        k_len = 4
        ladder = build_ladder(basis, j0, k_len)
        order = basis.achieved_order + k_len * 2 + 8
        series = j0.coefficients(order)
        combos = [ref_combination(row, series, 0, order + 1)
                  for row in ladder.rows]
        for k in range(k_len - 1):
            derivative = [j * c for j, c in enumerate(combos[k])][1:]
            derived = ref_combination([j0.T], [derivative], 0, order)
            assert combos[k + 1][:order] == derived


class TestIntegerLadder:
    """The ladder is built, checked and evaluated on integer rows; these
    compare it with ref_ladder_rows and oracles.ref_combination."""

    @pytest.mark.parametrize("name", LADDER_SYSTEMS)
    def test_rows_and_series_match_reference(self, name, ladder_systems):
        sys = ladder_systems[name]
        lam = sys.clear_factor
        for n in range(1, 13):
            basis, K, ladder = _ladder(sys, n)
            assert list(ladder.rows) == ref_ladder_rows(basis, sys, K)
            for k, row in enumerate(ladder.scaled_rows):
                assert row == tuple(tuple(int(c * lam ** k) for c in p.coeffs)
                                    for p in ladder.rows[k])
            order = basis.achieved_order + K * (ladder.q + 1) + 8
            series = sys.coefficients(order)
            d, columns = sys.integer_coefficients(order)
            for k, row in enumerate(ladder.scaled_rows):
                got = [F(v, d * lam ** k)
                       for v in _combination(row, columns, 0, order + 1)]
                assert got == ref_combination(ladder.rows[k], series, 0,
                                              order + 1), (n, k)

    @pytest.mark.parametrize("name", LADDER_SYSTEMS)
    def test_evaluation_matches_fraction_horner(self, name, ladder_systems):
        sys = ladder_systems[name]
        for n in (1, 4, 9):
            _, _, ladder = _ladder(sys, n)
            for xi in (F(1, 2), F(4, 7), F(1), F(3)):
                forms_at = evaluate_forms(ladder, xi)
                for k, row in enumerate(ladder.rows):
                    s = (xi.denominator ** ladder.degree_bounds[k]
                         * ladder.clear_factor ** k)
                    assert forms_at.row_scales[k] == s
                    assert forms_at.rows[k] == tuple(s * p(xi) for p in row)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.tuples(
        st.lists(st.lists(rationals(12), max_size=6), min_size=m, max_size=m),
        st.lists(st.lists(rationals(30), min_size=9, max_size=9),
                 min_size=m, max_size=m),
        st.integers(0, 8))))
    def test_combination_matches_fraction_reference(self, case):
        coeffs, cols, start = case
        polys = [Poly(c) for c in coeffs]
        lam = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
        d = math.lcm(*(c.denominator for col in cols for c in col))
        ints = [[int(c * lam) for c in p.coeffs] for p in polys]
        columns = [[int(c * d) for c in col] for col in cols]
        got = [F(v, lam * d) for v in _combination(ints, columns, start, 9)]
        assert got == ref_combination(polys, cols, start, 9)


class TestIntegerProducts:
    """forms._mul_into and forms._next_row against the forms they
    replaced."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(int_polys, int_polys, st.lists(int_coeffs, max_size=12))
    def test_mul_into_matches_reference(self, a, b, out):
        # into an empty list, the sparse operand on either side, and added
        # into a list shorter or longer than the product
        assert forms._mul_into([], a, b) == ref_mul(a, b)
        assert forms._mul_into([], list(b), list(a)) == ref_mul(a, b)
        prod = ref_mul(a, b)
        width = max(len(out), len(prod))
        expected = [x + y for x, y in zip(out + [0] * width,
                                          prod + [0] * width)][:width]
        acc = list(out)
        assert forms._mul_into(acc, a, b) is acc and acc == expected

    def test_mul_into_examples(self):
        assert forms._mul_into([], (), (1, 2)) == []
        assert forms._mul_into([7], (3,), ()) == [7]
        assert forms._mul_into([], (0, 0), (5,)) == [0, 0]
        # (1 - z)(1 + z + z^2) = 1 - z^3, the sparse operand on either side
        assert forms._mul_into([], (1, -1), (1, 1, 1)) == [1, 0, 0, -1]
        assert forms._mul_into([], (1, 1, 1), (1, -1)) == [1, 0, 0, -1]
        assert forms._mul_into([1, 1], (1, -1), (1, 1, 1)) == [2, 1, 0, -1]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.tuples(
        st.lists(int_polys, min_size=m, max_size=m), int_polys,
        st.lists(st.lists(int_polys, min_size=m, max_size=m),
                 min_size=m, max_size=m))))
    def test_next_row_matches_reference(self, case):
        row, lam_t, lam_ta = case
        assert forms._next_row(row, lam_t, lam_ta) \
            == ref_next_row(row, lam_t, lam_ta)


class TestEvaluateForms:
    def test_exp_pair_rows_at_one(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        ladder = build_ladder(basis, exp_pair, 2)
        forms = evaluate_forms(ladder, 1)
        assert forms.rows == ((3, -1), (4, -1))
        assert forms.row_scales == (1, 1)
        assert det_exact([list(r) for r in forms.rows]) == 1

    def test_half_point_scales(self, j0):
        basis = construct(j0, 3)
        ladder = build_ladder(basis, j0, 4)
        forms = evaluate_forms(ladder, F(1, 2))
        for k, s in enumerate(forms.row_scales):
            assert s == 2 ** (3 + k)      # den(xi)^(n + k q), q = 1

    def test_singular_point_rejected(self, j0):
        basis = construct(j0, 2)
        ladder = build_ladder(basis, j0, 3)
        with pytest.raises(SingularEvaluationPoint):
            evaluate_forms(ladder, 0)


def tail_majorants(rem, power, xi, t_poly, count):
    """The first count terms rem.tail_bound(mu) G(mu), mu > cutoff, of the
    series that _operator_tail_sum bounds, from its docstring's G."""
    dt, x = t_poly.degree, abs(xi)
    pref = ((1 + dt) * t_poly.max_abs_coeff()) ** power
    for mu in range(rem.cutoff + 1, rem.cutoff + 1 + count):
        prod = math.prod(mu + i * (dt - 1) for i in range(power))
        x_factor = max(x ** (mu - power), x ** (mu - power + power * dt))
        yield rem.tail_bound(mu) * pref * prod * x_factor


class TestCertifiedLowerBound:
    def test_exp_pair_hand_target(self, exp_pair):
        cert = adaptive_bound(exp_pair, 1, (3, -1), n_max=20)
        oracle = linear_form_oracle("exp_pair", (3, -1), F(1))
        assert cert.certified
        assert 0 < cert.lower_bound <= oracle

    def test_zero_target_rejected(self, exp_pair):
        with pytest.raises(InputError):
            certified_lower_bound(exp_pair, 1, (0, 0), 3)

    def test_nonpositive_precision_rejected(self, exp_pair):
        for bits in (0, -1):
            with pytest.raises(InputError):
                certified_lower_bound(exp_pair, 1, (3, -1), 3,
                                      precision_bits=bits)
            with pytest.raises(InputError):
                adaptive_bound(exp_pair, 1, (3, -1), precision_bits=bits)

    def test_sign_invariance(self, exp_pair):
        a = certified_lower_bound(exp_pair, 1, (3, -1), 4)
        b = certified_lower_bound(exp_pair, 1, (-3, 1), 4)
        assert a.lower_bound == b.lower_bound
        assert a.status == b.status

    def test_singular_xi(self, j0):
        with pytest.raises(SingularEvaluationPoint):
            certified_lower_bound(j0, 0, (1, 1), 3)

    def test_bound_below_oracle_sample(self, j0, exp_pair):
        rng = random.Random(424242)
        for name, sys in (("bessel_j0", j0), ("exp_pair", exp_pair)):
            for xi in (F(1), F(1, 2)):
                for _ in range(5):
                    target = (rng.randint(-1000, 1000),
                              rng.randint(-1000, 1000))
                    if target == (0, 0):
                        target = (1, 0)
                    cert = adaptive_bound(sys, xi, target, n_max=40)
                    oracle = linear_form_oracle(name, target, xi)
                    assert cert.lower_bound <= oracle, (name, xi, target)

    def test_integer_delta_at_least_one(self, j0):
        cert = adaptive_bound(j0, 1, (5, -3), n_max=20)
        assert abs(cert.delta) >= 1

    def test_upper_bounds_match_per_row_reference(self, j0):
        # (T d/dz)^k is applied step by step across the selected rows; the
        # reference starts again from R for every row
        aug = augment_exp(j0, F(1, 2))
        basis = construct(aug, 4)
        rem = remainder(basis, aug, basis.achieved_order + 30)
        xi = F(1, 2)
        rows = [0, 2, 3, 6]
        scales = [3, 5, 7, 11, 13, 17, 19]

        def reference(k):
            poly = Poly(F(c, rem.denominator) for c in rem.numerators)
            for _ in range(k):
                poly = aug.T * poly.derivative()
            tail = F(*forms._operator_tail_sum(rem, k, xi, aug.T))
            return scales[k] * (abs(poly(xi)) + tail)

        assert forms._scaled_form_upper_bounds(rem, rows, xi, scales, aug.T) \
            == tuple(reference(k) for k in rows)

    @pytest.mark.parametrize("xi", [F(3, 2), F(-7, 4)])
    def test_tail_past_one(self, j0, xi):
        # |xi| > 1: X(mu) in the tail is |xi|^(mu - p + p deg T)
        params = extract_params(j0)
        for target in ((1, 1), (3, -5), (2, 7), (-4, 9)):
            cert = adaptive_bound(j0, xi, target, n_max=40)
            oracle = linear_form_oracle("bessel_j0", target, xi)
            assert cert.certified and cert.lower_bound <= oracle
            # U_k of every ladder row against R cut 200 orders past the
            # cutoff, evaluated exactly
            basis = construct(j0, cert.n)
            K = ladder_length(j0.m, params.q, params.p, cert.n, basis.eps1)
            scales = evaluate_forms(build_ladder(basis, j0, K), xi).row_scales
            cutoff = forms._remainder_cutoff(basis, K, j0.T.degree,
                                             j0.growth.C, xi)
            rem = remainder(basis, j0, cutoff)
            uppers = forms._scaled_form_upper_bounds(rem, list(range(K)), xi,
                                                     scales, j0.T)
            assert cert.row_upper_bounds == tuple(
                uppers[k - 1] for k in cert.selected_rows)
            longer = remainder(basis, j0, cutoff + 200)
            poly = Poly(F(c, longer.denominator) for c in longer.numerators)
            for k in range(K):
                assert uppers[k] >= scales[k] * abs(poly(xi)), (target, k)
                poly = j0.T * poly.derivative()
                # twice the first tail term bounds 200 terms of the series
                assert F(*forms._operator_tail_sum(rem, k, xi, j0.T)) >= sum(
                    tail_majorants(rem, k, xi, j0.T, 200)), (target, k)

    def test_tail_rejects_a_cutoff_that_breaks_the_halving_rule(self, j0):
        basis = construct(j0, 4)
        rem = remainder(basis, j0, basis.achieved_order + 30)
        forms._operator_tail_sum(rem, 6, F(1, 2), j0.T)
        with pytest.raises(AssertionError):      # mu < 3 power
            forms._operator_tail_sum(rem, rem.cutoff, F(1, 2), j0.T)
        with pytest.raises(AssertionError):      # 4 C |xi| > mu + 1 - n
            forms._operator_tail_sum(rem, 0, F(rem.cutoff), j0.T)


class TestAdaptive:
    def test_dependent_pair_exhausts_with_rank_diagnostics(self):
        # f1 = f2 = e^z is Q(z)-dependent: rank can never reach 2
        dep = dependent_pair()
        with pytest.raises(ExhaustedN) as info:
            adaptive_bound(dep, 1, (1, -1), n_start=1, n_max=6)
        assert info.value.attempts
        assert all(rec.status == "RankDeficientLadder"
                   for rec in info.value.attempts)

    def test_given_component_intervals_are_used(self, j0, monkeypatch):
        aug = augment_exp(j0, F(-1, 4))
        target = (1, 0, -1)
        width = F(1, 2 ** 256)
        intervals = [eval_component(aug, i, 1, width) for i in range(3)]
        plain = adaptive_bound(aug, 1, target, n_max=20)

        def fail(*args):
            raise AssertionError("component_intervals ignored")

        monkeypatch.setattr(forms, "eval_component", fail)
        assert adaptive_bound(aug, 1, target, n_max=20,
                              component_intervals=intervals) == plain

    def test_empty_range_exhausts(self, exp_pair):
        with pytest.raises(ExhaustedN):
            adaptive_bound(exp_pair, 1, (1, -1), n_start=5, n_max=4)

    def test_small_form_needs_larger_n(self, exp_pair):
        # a target aligned with e/e^2 needs a few degrees but certifies
        cert = adaptive_bound(exp_pair, 1, (1, -1), n_start=1, n_max=12)
        oracle = linear_form_oracle("exp_pair", (1, -1), F(1))
        assert cert.certified and cert.lower_bound <= oracle


class TestRationalClearing:
    def test_augmented_system_at_half(self, j0):
        # T stays z after adjoining exp(z/3), so T*A has a rational entry;
        # forms clear both den(xi) and the ladder denominator 3^k
        aug = augment_exp(j0, F(1, 3))
        assert aug.clear_factor == 3
        basis = construct(aug, 2)
        ladder = build_ladder(basis, aug, 4)
        forms = evaluate_forms(ladder, F(1, 2))
        for k, s in enumerate(forms.row_scales):
            assert s == 2 ** ladder.degree_bounds[k] * 3 ** k
        cert = adaptive_bound(aug, F(1, 2), (2, -5, 3), n_max=24)
        assert cert.certified and abs(cert.delta) >= 1


class TestRankAtThreshold:
    def test_exp_pair_full_rank_at_n0(self, exp_pair):
        # n0 = 24 for (m, q, E) = (2, 0, 0); the evaluated ladder rows span
        from efcert.algebra import rank
        from efcert.zeroestimate import n0_for_system
        n0 = n0_for_system(exp_pair).value
        assert n0 == 24
        basis = construct(exp_pair, n0)
        k_len = ladder_length(2, 0, 0, n0, basis.eps1)
        ladder = build_ladder(basis, exp_pair, k_len)
        forms = evaluate_forms(ladder, F(1))
        assert rank(forms.rows) == 2


# -- the lazy ladder against the certificate of the full one

def ref_certificate(sys, xi, target, n, intervals):
    """certified_lower_bound on the full ladder: all K rows built and
    evaluated, then the rows selected in order."""
    m = sys.m
    params = extract_params(sys)
    basis = construct(sys, n)
    eps1 = basis.eps1
    K = ladder_length(m, params.q, params.p, n, eps1)
    ladder = build_ladder(basis, sys, K)
    assert len(ladder.scaled_rows) == K
    at = evaluate_forms(ladder, xi)
    rows = at.rows
    chosen = [target]
    selected = []
    for k in range(K):
        if len(selected) == m - 1:
            break
        if rank(chosen + [rows[k]]) > len(chosen):
            chosen.append(rows[k])
            selected.append(k)
    if len(selected) < m - 1:
        raise RankDeficientLadder(
            f"ladder rows have rank {rank(rows)} < m = {m} at n = {n}")
    matrix = [list(rows[k]) for k in selected] + [list(target)]
    delta = det_exact(matrix)
    target_cofs = [cofactor(matrix, m - 1, l) for l in range(m)]
    ell = max((l for l in range(m) if target_cofs[l]),
              key=lambda l: (intervals[l].abs_lower(), -l))
    f_lower = intervals[ell].abs_lower()
    cutoff = forms._remainder_cutoff(basis, K, max(sys.T.degree, 0),
                                     sys.growth.C, xi)
    uppers = forms._scaled_form_upper_bounds(
        remainder(basis, sys, cutoff), selected, xi, at.row_scales, sys.T)
    form_cofs = tuple(cofactor(matrix, j, ell) for j in range(m - 1))
    slack = ((m - 1) * max(abs(c) for c in form_cofs) * max(uppers)
             if m > 1 else F(0))
    numerator = f_lower * abs(delta) - slack
    bound = numerator / abs(target_cofs[ell]) if numerator > 0 else None
    return BoundCertificate(
        status=forms.CERTIFIED if bound is not None else forms.NOT_CERTIFIED,
        n=n, eps1=eps1, xi=xi, target=target,
        selected_rows=tuple(k + 1 for k in selected), ell=ell, delta=delta,
        target_cofactor=target_cofs[ell], form_cofactors=form_cofs,
        row_upper_bounds=uppers, f_ell_lower=f_lower, lower_bound=bound)


# The (xi, target) ops of the benchmark's bound_deep grid, on J0.
BOUND_DEEP_GRID = [
    ("1/2", (20184959, 78190016)),
    ("1/2", (1957114438056792, 7581229628729569)),
    ("1/2", (1485874387333457676604801, 5755797775937679673467204)),
    ("3/5", (9925921, 31574667)),
    ("3/5", (498661577914250, 1586258168721771)),
    ("3/5", (6780810585596324788376303, 21569971817252884213286354)),
    ("4/7", (20287473, 68067691)),
    ("4/7", (223440654314934, 749678849344457)),
    ("4/7", (2021663505637101732337815, 6783001845901801205875993)),
    ("5/8", (49897845, 151746488)),
    ("5/8", (2381170423293456, 7241480049173573)),
    ("5/8", (6402371424008672027811366, 19470527804655187294889789)),
    ("7/12", (32770190, 107506719)),
    ("7/12", (115263936133357, 378137801237123)),
    ("7/12", (4472333582168829872234590, 14672051327517104272326947)),
    ("9/16", (13884284, 47387605)),
    ("9/16", (1613952967506149, 5508484680431430)),
    ("9/16", (1090429611735880285395639, 3721678966034060841890656)),
]


def _equivalence_cases(j0, exp_pair):
    for x, target in BOUND_DEEP_GRID:
        yield j0, F(x), target
    for sys in (exp_pair, j0):
        for xi in (F(1), F(1, 2)):
            for target in _criterion_5_targets():
                yield sys, xi, target
    yield augment_exp(j0, F(1, 3)), F(1, 2), (2, -5, 3)


def _loop_attempts(sys, xi, target, bits):
    """(certificate, reference) for every attempt of the adaptive loop up
    to the one that certifies, on enclosures of width 2^-bits."""
    intervals = [eval_component(sys, i, xi, F(1, 2 ** bits))
                 for i in range(sys.m)]
    for n in range(1, 41):
        cert = certified_lower_bound(sys, xi, target, n,
                                     precision_bits=bits,
                                     component_intervals=intervals)
        yield cert, ref_certificate(sys, xi, target, n, intervals)
        if cert.certified:
            return
    raise AssertionError(f"no certification by n = 40 at {xi}, {target}")


def _refuted(cert):
    """An attempt failed from the enclosures carries no U_j (m >= 2)."""
    return not cert.certified and cert.row_upper_bounds == ()


class TestLazyLadder:
    """Rows are built, checked and evaluated only as the row selection
    reaches them."""

    def test_certificates_match_full_ladder(self, j0, exp_pair):
        # every attempt of the adaptive loop, up to the one that certifies;
        # a refuted attempt skips the U_j, so only they may differ
        attempts = 0
        for sys, xi, target in _equivalence_cases(j0, exp_pair):
            for cert, ref in _loop_attempts(sys, xi, target, 256):
                if _refuted(cert):
                    assert not ref.certified, (xi, target, cert.n)
                    ref = replace(ref, row_upper_bounds=())
                assert cert == ref, (xi, target, cert.n)
                attempts += 1
        assert attempts > 200, attempts

    def test_row_one_builds_no_further_row(self, j0, monkeypatch):
        calls = []
        next_row = forms._next_row
        monkeypatch.setattr(forms, "_next_row",
                            lambda *args: calls.append(1) or next_row(*args))
        cert = certified_lower_bound(j0, F(1, 2), (20184959, 78190016), 3)
        assert cert.selected_rows == (1,)
        assert calls == []

    def test_rank_deficient_ladder_builds_every_row(self, monkeypatch):
        # f1 = f2 = e^z: the selection passes every row without rank m
        dep = dependent_pair()
        params = extract_params(dep)
        calls = []
        next_row = forms._next_row
        monkeypatch.setattr(forms, "_next_row",
                            lambda *args: calls.append(1) or next_row(*args))
        for n in (1, 3, 6):
            calls.clear()
            with pytest.raises(RankDeficientLadder) as info:
                certified_lower_bound(dep, 1, (1, -1), n)
            K = ladder_length(2, params.q, params.p, n, default_eps1(2))
            assert len(calls) == K - 1
            with pytest.raises(RankDeficientLadder) as ref:
                ref_certificate(dep, F(1), (1, -1), n, None)
            assert str(info.value) == str(ref.value)
            assert str(info.value).startswith("ladder rows have rank 1 < m")

    def test_rows_past_the_ladder_rejected(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        ladder = build_ladder(basis, exp_pair, 2)
        for k in (-1, 2):
            with pytest.raises(IndexError):
                ladder.row(k)

    def test_corrupt_column_detected_before_any_row(self, monkeypatch):
        # one stored Taylor numerator of J0' is off by one: the column check
        # fails although only row 1 is built, and with K = 1 no identity
        # between rows runs at all
        for K, level in itertools.product((1, 4), (2, 12)):
            sys = build_j0()
            basis = construct(sys, 3)
            sys.integer_coefficients(basis.achieved_order + 4 * K + 8)
            nums = list(sys._nums)
            nums[level * sys.m + 1] += 1
            monkeypatch.setattr(sys, "_nums", nums)
            with pytest.raises(AssertionError, match="integer column"):
                build_ladder(basis, sys, K)


    def test_column_check_resumes_from_the_order_checked(self, monkeypatch):
        # a fresh system checks from order 0; a ladder at order o leaves the
        # check at o, and the next ladder of the system, at a higher order,
        # checks the orders past o and catches a numerator corrupted there
        sys = build_j0()
        assert sys._ladder_step is None
        low = construct(sys, 3)
        build_ladder(low, sys, 1)
        checked = low.achieved_order + 2 + 8        # K (q + 1) + 8, q = 1
        assert sys._ladder_step.order == checked
        high = construct(sys, 6)
        order = high.achieved_order + 2 + 8
        assert order > checked + 2
        sys.integer_coefficients(order)
        nums = list(sys._nums)
        nums[(checked + 1) * sys.m + 1] += 1
        monkeypatch.setattr(sys, "_nums", nums)
        for _ in range(2):                 # a failed check is not recorded
            with pytest.raises(AssertionError, match="integer column"):
                build_ladder(high, sys, 1)
            assert sys._ladder_step.order == checked

    def test_each_column_coefficient_checked_once(self, monkeypatch):
        # over an adaptive loop of 14 attempts, and over rows of a scan that
        # adjoin exp(beta z) to one base: the base's windows follow on from
        # each other across attempts and rows, and each augmented system
        # checks its exp column alone, from order 0
        windows = []
        check = forms._check_columns

        def recording(lam_t, rows, columns, start, stop, first):
            windows.append((len(rows), first, start, stop))
            return check(lam_t, rows, columns, start, stop, first)

        monkeypatch.setattr(forms, "_check_columns", recording)
        sys = build_j0()
        cert = adaptive_bound(sys, F(1, 2), (1957114438056792,
                                             7581229628729569))
        assert cert.n == 14 and len(cert.attempts) == 13
        assert len(windows) > 1
        assert [w[2] for w in windows] == [0] + [w[3] for w in windows[:-1]]
        assert windows[-1][3] == sys._ladder_step.order
        windows.clear()
        base = build_j0()
        for n, beta in zip((1, 3, 2), (F(-1, 4), F(1, 3), F(-2, 9))):
            aug = augment_exp(base, beta)
            certified_lower_bound(aug, 1, (1, 0, -1), n)
        base_windows = [w for w in windows if w[:2] == (2, 0)]
        exp_windows = [w for w in windows if w[:2] == (1, 2)]
        assert len(base_windows) + len(exp_windows) == len(windows)
        assert len(base_windows) == 2      # n = 2 needs no order past n = 3
        assert [w[2] for w in exp_windows] == [0, 0, 0]
        assert [w[2] for w in base_windows] \
            == [0] + [w[3] for w in base_windows[:-1]]


class TestRefutation:
    """Attempts that the enclosures alone show to fail skip the remainder
    and the U_j."""

    @pytest.mark.parametrize("bits", [256, 16])
    def test_refutes_only_failing_attempts(self, j0, exp_pair, bits):
        # every attempt of the adaptive loop on the bound_deep grid, the
        # criterion-5 targets and an m = 3 case, enumerated in order: no
        # attempt the full computation certifies is refuted, and at 256
        # bits every failing one is
        failing = refuted = 0
        for sys, xi, target in _equivalence_cases(j0, exp_pair):
            for cert, ref in _loop_attempts(sys, xi, target, bits):
                if ref.certified:
                    assert cert == ref, (xi, target, cert.n)
                else:
                    assert not cert.certified, (xi, target, cert.n)
                    failing += 1
                    refuted += _refuted(cert)
        assert failing > 200, failing
        if bits == 256:
            assert refuted == failing

    def test_refuted_attempt_builds_no_remainder(self, j0, monkeypatch):
        calls = []
        rem = forms.remainder
        monkeypatch.setattr(forms, "remainder",
                            lambda *args: calls.append(1) or rem(*args))
        target = (20184959, 78190016)
        failed = certified_lower_bound(j0, F(1, 2), target, 3)
        assert _refuted(failed) and calls == []
        assert certified_lower_bound(j0, F(1, 2), target, 9).certified
        assert calls == [1]

    @pytest.mark.parametrize("target", [(1,), (7,), (-3,), (10 ** 30,)])
    def test_one_component_builds_no_remainder(self, target, monkeypatch):
        # m = 1 has no form rows, so no U_j and no slack to build
        def refuse(*args):
            raise AssertionError("remainder built at m = 1")

        sys = catalog("exp", beta=F(1, 3))[0]
        xi = F(1, 2)
        intervals = [eval_component(sys, 0, xi, F(1, 2 ** 256))]
        degrees = (1, 2, 5, 20)
        refs = [ref_certificate(sys, xi, target, n, intervals)
                for n in degrees]
        monkeypatch.setattr(forms, "remainder", refuse)
        monkeypatch.setattr(forms, "_remainder_cutoff", refuse)
        for n, ref in zip(degrees, refs):
            cert = certified_lower_bound(sys, xi, target, n,
                                         component_intervals=intervals)
            assert cert.certified and cert.row_upper_bounds == ()
            assert cert == ref
