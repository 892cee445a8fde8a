from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from efcert import cli
from efcert.algebra import Poly, RatFunc
from efcert.efunction import augment_exp, catalog, make_system, rescale
from efcert.errors import (InputError, IrregularSingularPoint,
                           MissingExponentBound)
from efcert.sysdesc import system_from_dict
from efcert.zeroestimate import (INFINITY, _pole_residue, _rational_roots,
                                 exponent_data, indicial_exponents, n0_bound,
                                 n0_for_system)

# Simple poles at -3 and 1/2, a double pole at 2/3, holomorphic at 0.  By
# hand: at -3 the residue matrix is diag(5/2, -1); at 1/2 it is [[0, 1],
# [2, 0]], with characteristic polynomial x^2 - 2 and Cauchy bound 3; at
# infinity (A ~ R/z, residue -R) it is [[-5/2, -1], [-2, 1]], with
# characteristic polynomial x^2 + 3x/2 - 9/2 = (x + 3)(x - 3/2).
FINITE_POLES = {
    "m": 2,
    "A": [["5/(2*z+6)", "2/(2*z-1)"],
          ["4/(2*z-1)", "-1/(z+3)+1/(3*z-2)^2"]],
    "seeds": [["1"], ["0"]],
}


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
            assert exponent_data(catalog("exp", beta=beta)[0]).ceiling == 0


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
        with pytest.raises(MissingExponentBound):
            exponent_data(bare).ceiling

    def test_n0_for_bessel(self, j0):
        assert n0_for_system(j0).value == 112

    def test_beta_independence(self, j0):
        rng = random.Random(5)
        values = set()
        for _ in range(10):
            beta = F(rng.randint(-30, 30), rng.randint(1, 7))
            values.add(n0_for_system(augment_exp(j0, beta)).value)
        assert values == {324}


class TestFinitePoles:
    def test_exponents_by_point(self):
        sys = system_from_dict({**FINITE_POLES,
                                "exponent_bound": {"2/3": "2"}})
        points = {e.point: e for e in exponent_data(sys).entries}
        assert list(points) == ["-3", "1/2", "2/3", INFINITY]
        at_m3 = points["-3"]
        assert at_m3.kind == "regular"
        assert at_m3.data.exponents == (F(-1), F(5, 2))
        assert at_m3.data.residual_degree == 0
        at_half = points["1/2"]
        assert at_half.kind == "regular"
        assert at_half.data.exponents == ()
        assert at_half.data.residual_degree == 2
        assert at_half.data.residual_bound == 3
        assert points["2/3"].kind == "irregular"
        assert points["2/3"].user_bound == 2
        assert points[INFINITY].data.exponents == (F(-3), F(3, 2))
        assert [e.modulus for e in points.values()] == [F(5, 2), 3, 2, 3]
        n0 = n0_for_system(sys)
        assert (n0.q, n0.exponent_ceiling) == (4, 3)
        assert n0.value == 2 * 5 * 2 ** 2 * (3 + 5 * 2 + 1) == 560
        assert n0.points == exponent_data(sys).entries

    def test_params_report(self, capsys, tmp_path):
        path = tmp_path / "finite_poles.json"
        for bound, points in ((None, None), ({"2/3": "2"}, [
                ["-3", "regular", "5/2"], ["1/2", "regular", "3"],
                ["2/3", "irregular", "2"], ["infinity", "regular", "3"]])):
            path.write_text(json.dumps({**FINITE_POLES,
                                        "exponent_bound": bound}))
            assert cli.main(["params", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["m"], doc["p"], doc["q"]) == (2, 0, 4)
            if points is None:
                assert doc["exponent_points"] is None
                assert doc["n0_bound"] is None
                continue
            assert [[e["point"], e["kind"], e["modulus"]]
                    for e in doc["exponent_points"]] == points
            assert (doc["exponent_ceiling"], doc["n0_bound"]) == (3, 560)

    def test_double_pole_needs_bound(self):
        sys = system_from_dict(FINITE_POLES)
        with pytest.raises(IrregularSingularPoint):
            indicial_exponents(sys, F(2, 3))
        with pytest.raises(MissingExponentBound):
            exponent_data(sys)


class TestExponentBoundKeys:
    """exponent_bound keys are canonical from the moment the system is
    built: a point in any spelling is the str(Fraction) that exponent_data
    looks up, and the names global, infinity and irrational stay."""

    HALF = {"m": 1, "A": [["1/(2*z-1)^2"]], "seeds": [["1"]],
            "growth": {"C": "4", "D": "4"}}

    @pytest.mark.parametrize("key", ["1/2", "0.5", "2/4", "+.5", " 1/2 "])
    def test_point_spellings(self, key):
        # the double pole at 1/2 is irregular, so its bound is the user's
        sys = system_from_dict({**self.HALF,
                                "exponent_bound": {key: "3", "infinity": "0"}})
        assert sys.exponent_bound == {"1/2": 3, "infinity": 0}
        assert n0_for_system(sys).value == 42

    def test_names_stay(self):
        bound = {"global": F(1), "infinity": F(2), "irrational": F(3)}
        sys = system_from_dict({**self.HALF, "exponent_bound": {
            k: str(v) for k, v in bound.items()}})
        assert sys.exponent_bound == bound

    @pytest.mark.parametrize("bound", [
        {"foo": "1"}, {"Infinity": "1"}, {"": "1"}, {"1e3": "1"},
        {"1e999999999": "1"}, {"1/0": "1"}, {"1/2/3": "1"},
        {"0.5": "1", "1/2": "2"}])
    def test_other_keys_rejected(self, bound):
        with pytest.raises(InputError, match="exponent_bound"):
            system_from_dict({**self.HALF, "exponent_bound": bound})

    def test_other_key_exits_3(self, capsys, tmp_path):
        path = tmp_path / "word_key.json"
        path.write_text(json.dumps({**self.HALF,
                                    "exponent_bound": {"irrationals": "1"}}))
        assert cli.main(["params", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: field 'exponent_bound': exponent_bound key "
            "'irrationals' is neither a rational point nor one of global, "
            "infinity, irrational\n")


class TestIrrationalRoots:
    """T = z^2 - 2 has no rational root: exponent_data gives it one entry,
    "irrational", whose bound only the table can supply.  Infinity is an
    ordinary point."""

    DOC = {"m": 1, "A": [["1/(z^2-2)"]], "seeds": [["1"]]}

    def test_missing_bound_names_irrational(self):
        with pytest.raises(MissingExponentBound, match="'irrational'"):
            exponent_data(system_from_dict(self.DOC))

    @pytest.mark.parametrize("key", ["irrational", "global"])
    def test_user_entry(self, key):
        sys = system_from_dict({**self.DOC, "exponent_bound": {key: "7/2"}})
        first, last = exponent_data(sys).entries
        assert (first.point, first.kind, first.data, first.modulus) == \
            ("irrational", "user", None, F(7, 2))
        assert (last.point, last.kind) == (INFINITY, "ordinary")
        assert exponent_data(sys).ceiling == 4

    @pytest.mark.parametrize("xi", [F(1, 2), F(-3), F(5, 7)])
    def test_entry_survives_rescale(self, xi):
        sys = system_from_dict({**self.DOC,
                                "exponent_bound": {"irrational": "7/2"}})
        scaled = rescale(sys, xi)
        assert scaled.exponent_bound == {"irrational": F(7, 2)}
        first, _ = exponent_data(scaled).entries
        assert (first.point, first.kind, first.modulus) == \
            ("irrational", "user", F(7, 2))


def _entry(a, e, k, n0, q):
    """(N, D) = ((z - a)^k N0, (z - a)^e Q), not reduced."""
    za = Poly((-a, 1))
    num, denom = Poly(n0), Poly(q)
    for _ in range(k):
        num = num * za
    for _ in range(e):
        denom = denom * za
    return num, denom


small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entries = st.tuples(small, st.integers(0, 3), st.integers(0, 2),
                    st.lists(small, max_size=4),
                    st.lists(small, min_size=1, max_size=4).filter(any))


class TestPoleResidue:
    def test_pole_order(self):
        f = RatFunc(Poly([1]), Poly([0, 0, 1]))       # 1/z^2
        assert _pole_residue(f, F(0))[0] == 2
        assert _pole_residue(f, F(1)) == (0, 0)

    def test_examples(self):
        f = RatFunc(Poly([3]), Poly([-1, 2]))         # 3/(2z - 1)
        assert _pole_residue(f, F(1, 2)) == (1, F(3, 2))
        assert _pole_residue(f, INFINITY) == (1, F(-3, 2))
        assert _pole_residue(RatFunc.constant(7), INFINITY) == (2, 0)
        assert _pole_residue(RatFunc.zero(), F(0)) == (0, 0)
        assert _pole_residue(RatFunc.zero(), INFINITY) == (0, 0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(entries)
    def test_at_the_point(self, data):
        a, e, k, n0, q = data
        num, denom = _entry(*data)
        n0, q = Poly(n0), Poly(q)
        assume(q(a) != 0 and (n0.is_zero() or n0(a) != 0))
        order, residue = _pole_residue(RatFunc(num, denom), a)
        if n0.is_zero() or e <= k:
            assert (order, residue) == (0, 0)
        else:
            assert order == e - k
            if order == 1:
                assert residue == n0(a) / q(a)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(entries)
    def test_at_infinity(self, data):
        num, denom = _entry(*data)
        order, residue = _pole_residue(RatFunc(num, denom), INFINITY)
        if num.is_zero():
            assert (order, residue) == (0, 0)
            return
        assert order == max(0, num.degree - denom.degree + 2)
        if order == 1:
            assert residue == -num.leading() / denom.leading()


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
