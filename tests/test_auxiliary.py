from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from efcert import auxiliary, forms
from efcert.algebra import Poly
from efcert.auxiliary import (construct, default_eps1, remainder,
                              vanishing_order_target)
from efcert.efunction import augment_exp, extract_params
from efcert.errors import InputError
from efcert.forms import (adaptive_bound, build_ladder, certified_lower_bound,
                          evaluate_forms, ladder_length)

from conftest import build_exp_pair, build_j0, build_kummer
from oracles import ref_combination


def fractions(rem):
    """The remainder's coefficients as Fractions."""
    return [F(c, rem.denominator) for c in rem.numerators]


# zeros, small integers and negative or positive integers of several limbs
int_coeffs = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-2 ** 200, 2 ** 200))


@st.composite
def combination_cases(draw):
    """(polys, columns, start, stop): empty windows and one-coefficient
    windows, empty, all-zero and over-long polynomials, and columns holding
    stop or a few more coefficients."""
    stop = draw(st.integers(0, 14))
    start = draw(st.integers(0, stop))
    count = draw(st.integers(0, 3))
    polys = [tuple(draw(st.one_of(
        st.lists(int_coeffs, max_size=stop + 4),
        st.lists(st.just(0), max_size=4)))) for _ in range(count)]
    columns = [tuple(draw(st.lists(int_coeffs, min_size=stop,
                                   max_size=stop + 3)))
               for _ in range(count)]
    return polys, columns, start, stop


class TestVanishingTarget:
    @pytest.mark.parametrize("m,n,eps1,expected", [
        (2, 1, F(1, 4), 3),
        (2, 8, F(1, 4), 15),
        (3, 10, F(1, 6), 31),
    ])
    def test_values(self, m, n, eps1, expected):
        assert vanishing_order_target(m, n, eps1) == expected

    def test_eps1_range(self):
        with pytest.raises(InputError):
            vanishing_order_target(2, 4, F(1, 3))   # 1/3 = 1/(2m-1)
        with pytest.raises(InputError):
            vanishing_order_target(2, 4, 0)

    def test_default(self):
        assert default_eps1(2) == F(1, 4)
        assert default_eps1(3) == F(1, 6)


class TestConstruct:
    def test_exp_pair_hand_instance(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        assert basis.tau == 3
        assert basis.polys == (Poly([2, 1]), Poly([-2, 1]))
        assert basis.achieved_order == 3 and basis.achieved_exact
        assert basis.height == 2

    def test_kernel_dimension_never_empty(self, j0, exp_pair, kummer):
        for sys in (j0, exp_pair, kummer):
            for n in range(1, 7):
                basis = construct(sys, n)
                assert any(not p.is_zero() for p in basis.polys)
                assert basis.achieved_order >= basis.tau

    def test_j0_vanishing_to_order_12(self, j0):
        basis = construct(j0, 2, F(1, 4))
        assert basis.tau == 5
        assert basis.achieved_order >= 5
        stop = min(basis.achieved_order, 13)
        assert ref_combination(basis.polys, j0.coefficients(12), 0, stop) \
            == [0] * stop

    def test_primitive_concatenated_vector(self, j0):
        basis = construct(j0, 3)
        flat = [c for p in basis.polys for c in p.coeffs]
        g = 0
        for c in flat:
            assert c.denominator == 1
            g = math.gcd(g, abs(c.numerator))
        assert g == 1

    def test_determinism(self, j0):
        a = construct(j0, 5)
        b = construct(j0, 5)
        assert a == b

    def test_polys_are_a_view_of_int_polys(self, j0, kummer, exp_pair):
        # the P_i are stored once, as integer tuples without trailing zeros;
        # == and hash read them as they read the Poly tuple before
        def old_key(b):
            return (b.n, b.eps1, b.tau, b.polys, b.achieved_order,
                    b.achieved_exact, b.height)

        bases = [construct(sys, n) for sys in (j0, kummer, exp_pair)
                 for n in (1, 2, 5)]
        bases += [construct(build_j0(), 2), construct(j0, 2, F(1, 8))]
        for b in bases:
            assert b.polys == tuple(Poly(p) for p in b.int_polys)
            assert all(type(c) is int for p in b.int_polys for c in p)
            assert all(not p or p[-1] for p in b.int_polys)
            assert b.m == len(b.polys)
            assert hash(b) == hash(old_key(b))
        for a in bases:
            for b in bases:
                assert (a == b) == (old_key(a) == old_key(b))
        assert bases[1] == bases[-2] and bases[1] is not bases[-2]


class TestResumedOrderBasis:
    def test_adaptive_loop_processes_each_order_once(self, monkeypatch):
        # the middle-height op at xi = 1/2 of the benchmark's bound_deep grid
        processed = []
        advance = auxiliary.OrderBasis.advance

        def counting(self, columns, tau):
            processed.append(tau - self.order)
            advance(self, columns, tau)

        monkeypatch.setattr(auxiliary.OrderBasis, "advance", counting)
        cert = adaptive_bound(build_j0(), F(1, 2),
                              (1957114438056792, 7581229628729569))
        assert cert.certified and len(cert.attempts) == cert.n - 1 >= 10
        taus = [vanishing_order_target(2, n, default_eps1(2))
                for n in range(1, cert.n + 1)]
        assert len(processed) == cert.n
        assert sum(processed) == taus[-1] < sum(taus)

    def test_construct_matches_a_fresh_system(self, j0):
        # the session's j0 carries its basis from test to test
        twin = build_j0()
        for n in (5, 3, 3, 7, 6, 9):
            assert construct(j0, n) == construct(twin, n)
            assert construct(j0, n) == construct(build_j0(), n)


class TestCombination:
    """auxiliary._combination against the Poly reference."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(combination_cases())
    def test_matches_reference(self, case):
        polys, columns, start, stop = case
        assert auxiliary._combination(polys, columns, start, stop) \
            == ref_combination(polys, columns, start, stop)

    def test_windows(self):
        p = [(0, -3, 0, 2 ** 70)]
        col = [tuple(range(-5, 5))]
        for start, stop in ((0, 10), (4, 10), (6, 7), (9, 9), (0, 0)):
            assert auxiliary._combination(p, col, start, stop) \
                == ref_combination(p, col, start, stop)
        assert auxiliary._combination([()], col, 2, 6) == [0] * 4

    def test_short_column_rejected(self):
        p = [(1, 2), (3,)]
        assert auxiliary._combination(p, [(1, 1, 1), (1, 1, 1)], 0, 3) \
            == [4, 6, 6]
        with pytest.raises(ValueError):
            auxiliary._combination(p, [(1, 1, 1), (1, 1)], 0, 3)
        with pytest.raises(ValueError):
            auxiliary._combination(p, [(1, 1), (1, 1, 1)], 2, 3)


class TestRemainder:
    def test_exp_pair_coefficients(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        rem = remainder(basis, exp_pair, 5)
        assert rem.denominator == 120             # the columns' 5!
        assert fractions(rem)[3] == F(1, 6)       # a_3/3! with a_3 = 1
        assert fractions(rem)[:3] == [F(0), F(0), F(0)]

    def test_cutoff_below_tau_rejected(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        with pytest.raises(InputError):
            remainder(basis, exp_pair, 2)

    def test_tail_formula_value(self, exp_pair):
        # m(n+1) B Chat^(nu+1)/(nu-n)! = 2*2*2*2^(nu+1)/(nu-1)! here
        basis = construct(exp_pair, 1, F(1, 4))
        rem = remainder(basis, exp_pair, 6)
        for nu in (7, 9, 14):
            expected = F(8) * F(2) ** (nu + 1) / math.factorial(nu - 1)
            assert rem.tail_bound(nu) == expected

    @pytest.mark.parametrize("fixture", ["exp_pair", "bessel", "kummer"])
    def test_tail_overestimates_exact_coefficients(self, fixture, exp_pair,
                                                   j0, kummer):
        sys = {"exp_pair": exp_pair, "bessel": j0, "kummer": kummer}[fixture]
        basis = construct(sys, 2)
        small = remainder(basis, sys, max(basis.tau, basis.achieved_order))
        wide = fractions(remainder(basis, sys, 52))
        for nu in range(small.cutoff + 1, 51):
            assert abs(wide[nu]) <= small.tail_bound(nu), nu

    def test_tail_needs_nu_beyond_n(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        rem = remainder(basis, exp_pair, 5)
        with pytest.raises(ValueError):
            rem.tail_bound(1)


class TestSharedRemainder:
    """R = sum P_i f_i is computed once per attempt and kept on the basis;
    the construction, the ladder check and the remainder all read it."""

    @pytest.mark.parametrize("name", ["bessel", "kummer", "exp_pair",
                                      "bessel_exp_half"])
    def test_matches_reference(self, name, j0, kummer, exp_pair):
        sys = {"bessel": j0, "kummer": kummer, "exp_pair": exp_pair,
               "bessel_exp_half": augment_exp(j0, F(1, 2))}[name]
        for n in range(1, 17):
            basis = construct(sys, n)
            cutoff = max(basis.tau, basis.achieved_order) + 6
            series = sys.coefficients(cutoff)
            ref = ref_combination(basis.polys, series, 0, cutoff + 1)
            d, nums = basis._r
            assert len(nums) == basis.achieved_order + 1
            assert [F(c, d) for c in nums] == ref[:len(nums)]
            rem = remainder(basis, sys, cutoff)
            assert rem.denominator == sys.integer_coefficients(cutoff)[0]
            assert fractions(rem) == ref

    @pytest.mark.parametrize("name", ["exp_pair", "bessel", "kummer",
                                      "bessel_exp_half"])
    def test_store_denominator_leaves_results_unchanged(self, name, j0,
                                                        kummer, exp_pair):
        # The usual order (construct, ladder, remainder) against a remainder
        # past the ladder's order first, which leaves the store over a larger
        # denominator than the ladder reads.  construct's own store is over
        # the denominator of its search limit.
        sys = {"bessel": j0, "kummer": kummer, "exp_pair": exp_pair,
               "bessel_exp_half": augment_exp(j0, F(1, 2))}[name]
        params = extract_params(sys)
        xi = F(1, 2)
        below_limit = 0
        for n in range(1, 7):
            usual = construct(sys, n)
            K = ladder_length(sys.m, params.q, params.p, n, usual.eps1)
            order = usual.achieved_order + K * (params.q + 1) + 8  # the ladder's
            below_limit += usual._r[0] != sys.integer_coefficients(order)[0]
            ladder = build_ladder(usual, sys, K)
            cutoff = max(usual.achieved_order, usual.tau) + K + 30
            rem = remainder(usual, sys, cutoff)
            early = construct(sys, n)
            remainder(early, sys, cutoff + 40)
            assert early._r[0] == sys.integer_coefficients(cutoff + 40)[0]
            assert build_ladder(early, sys, K).scaled_rows == ladder.scaled_rows
            early_rem = remainder(early, sys, cutoff)
            assert early_rem == rem
            scales = evaluate_forms(ladder, xi).row_scales
            rows = list(range(K))
            assert (forms._scaled_form_upper_bounds(early_rem, rows, xi,
                                                    scales, sys.T)
                    == forms._scaled_form_upper_bounds(rem, rows, xi, scales,
                                                       sys.T))
        assert below_limit

    @pytest.mark.parametrize("name", ["bessel", "kummer", "exp_pair",
                                      "bessel_exp_half"])
    def test_ladder_extends_the_store(self, name, j0, kummer, exp_pair,
                                      monkeypatch):
        # row 2's identity check reads N_0 = D R from the basis's store:
        # only the coefficients past it are computed, once
        sys = {"bessel": j0, "kummer": kummer, "exp_pair": exp_pair,
               "bessel_exp_half": augment_exp(j0, F(1, 2))}[name]
        calls = []
        combination = auxiliary._combination

        def counting(polys, columns, start, stop):
            calls.append((tuple(map(tuple, polys)), start, stop))
            return combination(polys, columns, start, stop)

        monkeypatch.setattr(auxiliary, "_combination", counting)
        monkeypatch.setattr(forms, "_combination", counting)
        params = extract_params(sys)
        for n in range(1, 7):
            basis = construct(sys, n)
            K = ladder_length(sys.m, params.q, params.p, n, basis.eps1)
            ladder = build_ladder(basis, sys, K)
            known = len(basis._r[1])
            calls.clear()
            ladder.row(1)
            order = ladder._order
            assert len(basis._r[1]) == order + 1
            assert [(start, stop) for polys, start, stop in calls
                    if polys == basis.int_polys] == [(known, order + 1)]
            cutoff = order + 5
            ref = ref_combination(basis.polys, sys.coefficients(cutoff), 0,
                                  cutoff + 1)
            assert fractions(remainder(basis, sys, cutoff)) == ref

    def test_ladder_identity_failure_detected(self, exp_pair, monkeypatch):
        # the integer row step gets 2 lambda T S' in place of lambda T S'
        basis = construct(exp_pair, 1, F(1, 4))
        next_row = forms._next_row
        monkeypatch.setattr(forms, "_next_row",
                            lambda row, lam_t, lam_ta: next_row(
                                row, [2 * c for c in lam_t], lam_ta))
        ladder = build_ladder(basis, exp_pair, 2)
        # row 2 is built, and checked against row 1, when it is first asked for
        with pytest.raises(AssertionError, match="ladder identity failed"):
            ladder.row(1)

    def test_other_system_rejected(self, j0, kummer):
        basis = construct(j0, 3)
        with pytest.raises(InputError):
            build_ladder(basis, kummer, 3)
        with pytest.raises(InputError):
            build_ladder(basis, kummer, 1)
        with pytest.raises(InputError):
            remainder(basis, kummer, basis.achieved_order + 4)
        with pytest.raises(InputError):          # a different m as well
            build_ladder(basis, augment_exp(j0, 1), 3)
        # an equal system built separately has the same coefficients
        twin = build_j0()
        assert twin is not j0
        build_ladder(basis, twin, 3)
        remainder(basis, twin, basis.achieved_order + 4)

    def test_one_kernel_basis_per_construct(self, monkeypatch):
        calls = []
        kernel_basis = auxiliary.kernel_basis
        monkeypatch.setattr(auxiliary, "kernel_basis",
                            lambda m: calls.append(1) or kernel_basis(m))
        for build in (build_j0, build_kummer, build_exp_pair):
            sys = build()
            for n in (1, 6, 12, 3):
                calls.clear()
                construct(sys, n)
                assert len(calls) == 1, (build, n)

    def test_each_coefficient_computed_once(self, j0, monkeypatch):
        calls = []
        bases = []
        combination = auxiliary._combination
        construct_fn = forms.construct

        def counting(polys, series, start, stop):
            calls.append((polys, start, stop))
            return combination(polys, series, start, stop)

        def capturing(*args, **kwargs):
            bases.append(construct_fn(*args, **kwargs))
            return bases[-1]

        monkeypatch.setattr(auxiliary, "_combination", counting)
        monkeypatch.setattr(forms, "_combination", counting)
        monkeypatch.setattr(forms, "construct", capturing)
        cert = certified_lower_bound(j0, F(1, 2), (137, -250), 6)
        assert cert.n == 6
        (basis,) = bases
        r_polys = [[c.numerator for c in p.coeffs] for p in basis.polys]
        spans = sorted((start, stop) for polys, start, stop in calls
                       if [list(p) for p in polys] == r_polys)
        covered = []
        for start, stop in spans:
            covered.extend(range(start, stop))
        assert covered == list(range(len(basis._r[1])))
        assert len(basis._r[1]) > basis.achieved_order + 24
