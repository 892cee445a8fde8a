from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from efcert.algebra import Poly, RatFunc
from efcert.efunction import augment_exp, catalog, make_system
from efcert.errors import InputError, IrregularSingularPoint
from efcert.zeroestimate import (_rational_roots, exponent_ceiling,
                                 exponent_data, indicial_exponents, n0_bound,
                                 n0_for_system)


# -- reference: the divisor enumeration that _rational_roots replaces

def ref_divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def ref_rational_roots(p):
    """Every candidate +-num/den with num | a0 and den | a_d, tried in order;
    each root found is divided out and the search restarts."""
    roots = []
    prim = p.primitive()
    while prim.degree >= 1:
        a0_val = prim.valuation()
        if a0_val and a0_val > 0:
            roots.extend([F(0)] * a0_val)
            prim = Poly(prim.coeffs[a0_val:])
            continue
        a0 = abs(prim.coeffs[0].numerator)
        ad = abs(prim.leading().numerator)
        found = None
        for num in ref_divisors(a0):
            for d in ref_divisors(ad):
                if math.gcd(num, d) != 1:
                    continue
                for cand in (F(num, d), F(-num, d)):
                    if prim(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        prim = prim.divmod(Poly((-found, 1)))[0].primitive()
    return sorted(roots), prim


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


class TestRationalRoots:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(-30, 30)),
                    max_size=4),
           st.lists(st.integers(-30, 30), min_size=1, max_size=5)
           .filter(any))
    def test_matches_divisor_reference(self, factors, cofactor):
        # degree <= 4 + 4: four linear factors qz - p and a cofactor
        p = Poly(cofactor)
        for q, r in factors:
            p = p * Poly((-r, q))
        roots, rest = _rational_roots(p)
        ref_roots, ref_rest = ref_rational_roots(p)
        assert roots == ref_roots
        assert rest == ref_rest

    def test_high_degree_matches_reference(self):
        # degree 44: the square-free part takes a gcd of degree-44 and
        # degree-43 polynomials, which must stay fast
        rng = random.Random(11)
        cofactor = Poly([rng.randint(-9, 9) for _ in range(40)] + [1])
        p = cofactor * Poly((0, -1, 2)) * Poly((-1, 2)) * Poly((5, 3))
        roots, rest = _rational_roots(p)
        assert (roots, rest) == ref_rational_roots(p)
        assert roots.count(F(1, 2)) == 2
        assert F(0) in roots and F(-5, 3) in roots

    @pytest.mark.parametrize("coeffs,roots,rest", [
        ((), [], ()),
        ((-4,), [], (-1,)),
        ((0, 0, 3), [F(0), F(0)], (1,)),
        ((-1000000000000000000000007, 1), [F(1000000000000000000000007)],
         (1,)),
        ((1, 0, 1), [], (1, 0, 1)),
        ((-2, 0, 1), [], (-2, 0, 1)),
        ((1, -2, 1), [F(1), F(1)], (1,)),
        ((-3, 6, 1, -2), [F(1, 2)], (3, 0, -1)),
    ])
    def test_examples(self, coeffs, roots, rest):
        assert _rational_roots(Poly(coeffs)) == (roots, Poly(rest))
