from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from efcert.algebra import Poly
from efcert.auxiliary import (construct, default_eps1, remainder,
                              vanishing_order_target)
from efcert.errors import InputError


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
        series = j0.coefficients(12)
        combo = series[0].mul_poly(basis.polys[0]) \
            + series[1].mul_poly(basis.polys[1])
        for k in range(min(basis.achieved_order, 13)):
            assert combo.coefficient(k) == 0

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


class TestRemainder:
    def test_exp_pair_coefficients(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        rem = remainder(basis, exp_pair, 5)
        assert rem.coeffs[3] == F(1, 6)           # a_3/3! with a_3 = 1
        assert rem.coeffs[:3] == (F(0), F(0), F(0))

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
        wide = remainder(basis, sys, 52)
        for nu in range(small.cutoff + 1, 51):
            assert abs(wide.coeffs[nu]) <= small.tail_bound(nu), nu

    def test_tail_needs_nu_beyond_n(self, exp_pair):
        basis = construct(exp_pair, 1, F(1, 4))
        rem = remainder(basis, exp_pair, 5)
        with pytest.raises(ValueError):
            rem.tail_bound(1)
