from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from efcert.algebra import Poly, RatFunc
from efcert.efunction import augment_exp, catalog, make_system
from efcert.errors import InputError, IrregularSingularPoint
from efcert.zeroestimate import (exponent_ceiling, exponent_data,
                                 indicial_exponents, n0_bound, n0_for_system)


class TestN0Formula:
    @pytest.mark.parametrize("m,q,e,expected", [
        (2, 1, 2, 112),
        (2, 0, 0, 24),
        (3, 1, 2, 324),
    ])
    def test_values(self, m, q, e, expected):
        assert n0_bound(m, q, e).value == expected

    def test_monotone_in_each_argument(self):
        for m in range(1, 5):
            for q in range(0, 4):
                for e in range(0, 4):
                    v = n0_bound(m, q, e).value
                    assert n0_bound(m + 1, q, e).value > v
                    assert n0_bound(m, q, e + 1).value > v
                    assert n0_bound(m, q + 1, e).value > v

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            n0_bound(0, 1, 1)
        with pytest.raises(InputError):
            n0_bound(1, -1, 1)


class TestIndicial:
    def test_bessel_at_zero(self, j0):
        # residue matrix [[0,0],[0,-1]] of the first-order system: the
        # companion gauge shifts the scalar double exponent {0,0} to {0,-1}
        data = indicial_exponents(j0, 0)
        assert not data.ordinary
        assert data.exponents == (F(-1), F(0))
        assert data.residual_degree == 0
        assert data.max_modulus == 1

    def test_exp_pair_ordinary_at_zero(self, exp_pair):
        data = indicial_exponents(exp_pair, 0)
        assert data.ordinary
        assert data.exponents == ()

    def test_half_exponent(self):
        # z y' = (1/2) y: only the zero series solution, exponent 1/2 at 0
        sys = make_system(((RatFunc(Poly.one(), Poly([0, 2])),),), ((F(0),),))
        data = indicial_exponents(sys, 0)
        assert data.exponents == (F(1, 2),)

    def test_bessel_ordinary_elsewhere(self, j0):
        assert indicial_exponents(j0, 1).ordinary

    def test_bessel_irregular_at_infinity(self, j0):
        with pytest.raises(IrregularSingularPoint):
            indicial_exponents(j0, "infinity")

    def test_exp_block(self):
        for beta in (2, 0, F(-5, 3)):
            assert exponent_ceiling(catalog("exp", beta=beta)[0]) == 0


class TestExponentData:
    def test_bessel_ceiling(self, j0):
        data = exponent_data(j0)
        points = {e.point: e for e in data.entries}
        assert points["0"].kind == "regular"
        assert points["infinity"].kind == "irregular"
        assert data.ceiling == 2

    def test_missing_bound_reported(self):
        z = Poly.x()
        a = ((RatFunc.zero(), RatFunc(Poly.one())),
             (RatFunc.constant(-1), RatFunc(-Poly.one(), z)))
        bare = make_system(a, ((F(1),), (F(0),)))   # no exponent_bound
        from efcert.errors import MissingExponentBound
        with pytest.raises(MissingExponentBound):
            exponent_ceiling(bare)

    def test_n0_for_bessel(self, j0):
        assert n0_for_system(j0).value == 112

    def test_beta_independence(self, j0):
        rng = random.Random(5)
        values = set()
        for _ in range(10):
            beta = F(rng.randint(-30, 30), rng.randint(1, 7))
            values.add(n0_for_system(augment_exp(j0, beta)).value)
        assert values == {324}
