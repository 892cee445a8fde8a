from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from efcert.algebra import (Poly, RatFunc, RatSeries, cofactor, det_exact,
                            kernel_basis)


class TestKernel:
    def test_single_equation(self):
        assert kernel_basis([[1, 1]]) == [(1, -1)]

    def test_full_rank_identity(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_rank_two_kernel(self):
        # row reduction by hand: x1 = -2 x2 - 3 x3
        assert kernel_basis([[1, 2, 3]]) == [(2, -1, 0), (3, 0, -1)]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(20240811)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[F(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(cols)] for _ in range(rows)]
            for vec in kernel_basis(m):
                assert all(sum(r[j] * vec[j] for j in range(cols)) == 0
                           for r in m)
                # primitive with positive leading entry
                nonzero = [e for e in vec if e]
                assert nonzero and nonzero[0] > 0

    def test_needs_a_column(self):
        with pytest.raises(ValueError):
            kernel_basis([])


class TestDeterminant:
    def test_identity(self):
        assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_two_by_two_expansion(self):
        assert det_exact([[3, -1], [4, -1]]) == 1

    def test_repeated_row(self):
        assert det_exact([[2, 5, 1], [0, 3, 3], [2, 5, 1]]) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_expansion(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            d = det_exact(m)
            for i in range(n):
                expansion = sum(m[i][j] * cofactor(m, i, j) for j in range(n))
                assert expansion == d


class TestCofactor:
    def test_identity(self):
        assert cofactor([[1, 0], [0, 1]], 0, 0) == 1

    def test_sign_rule(self):
        # delete row 2, column 1 (1-indexed): minor [-1], sign (-1)^3
        assert cofactor([[3, -1], [4, -1]], 1, 0) == 1

    def test_one_by_one_convention(self):
        assert cofactor([[5]], 0, 0) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            cofactor([[1, 0], [0, 1]], 2, 0)


class TestPoly:
    def test_derivative_examples(self):
        assert Poly([1, 0, 1]).derivative() == Poly([0, 2])
        assert Poly([2, 1]).derivative() == Poly([1])
        assert Poly([7]).derivative() == Poly([])

    def test_zero_degree_sentinel(self):
        assert Poly([]).degree == -1
        assert Poly([0, 0]).degree == -1

    def test_divmod_gcd(self):
        p = Poly([-1, 0, 1])          # z^2 - 1
        q = Poly([1, 1])              # z + 1
        quo, rem = p.divmod(q)
        assert rem.is_zero() and quo == Poly([-1, 1])
        assert p.gcd(q) == Poly([1, 1])

    def test_dilate_and_shift(self):
        p = Poly([1, 2, 3])
        assert p.dilate(F(1, 2)) == Poly([1, 1, F(3, 4)])
        assert p.shift(1)(0) == p(1)

    def test_rational_canonicality(self):
        assert F(2, 4) == F(1, 2)
        assert F(-3, -6) == F(1, 2)
        assert F(5, -10).denominator == 2


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(Poly([-1, 0, 1]), Poly([1, 1]))   # (z^2-1)/(z+1) = z-1
        assert f.is_polynomial()
        assert f.to_poly() == Poly([-1, 1])

    def test_pole_order(self):
        f = RatFunc(Poly([1]), Poly([0, 0, 1]))       # 1/z^2
        assert f.pole_order_at(0) == 2
        assert f.pole_order_at(1) == 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly([1]), Poly([]))


class TestRatSeries:
    def test_truncating_arithmetic(self):
        a = RatSeries([1, 1, 1, 1])
        b = RatSeries([1, 2])
        assert (a + b).order == 1
        assert (a * b).coeffs == (F(1), F(3))

    def test_mul_poly_keeps_order(self):
        s = RatSeries([1, 0, 0, 0])
        assert s.mul_poly(Poly([0, 1])).coeffs == (F(0), F(1), F(0), F(0))

    def test_valuation(self):
        assert RatSeries([0, 0, 3]).valuation() == 2
        assert RatSeries([0, 0]).valuation() is None
