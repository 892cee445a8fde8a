from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_exp_pair, build_j0, build_kummer
from efcert.efunction import augment_exp
from efcert.evalcert import RatInterval, _grid_bits, eval_component, eval_exp

# 55-digit references (standard published expansions; cross-checked against
# mpmath direct summation in tests/oracles.py)
E_REF = F("2.718281828459045235360287471352662497757247093699959575")
E2_REF = F("7.389056098930650227230427460575007813180315570551847324")
J01_REF = F("0.7651976865579665514497175261026632209092742897553252419")


# -- reference: the Fraction Horner that the integer enclosures replace

def ref_geometric_tail(c, x_abs, n):
    """c (c|x|)^(n+1)/(n+1)! / (1 - c|x|/(n+2)), or None if n+2 <= c|x|."""
    t = c * x_abs
    if n + 2 <= t:
        return None
    return c * t ** (n + 1) / math.factorial(n + 1) / (1 - t / (n + 2))


def ref_taylor_enclosure(coefficients, c, x, width):
    """Enclosure of sum_k a_k x^k for coefficients(n) = [a_0, ..., a_n] as
    Fractions: the same truncation order, tail and rounding, with the
    partial sum by Fraction Horner."""
    if x == 0:
        return RatInterval.point(coefficients(0)[0])
    x_abs = abs(x)
    n = max(4, int(c * x_abs) + 2)
    while True:
        tail = ref_geometric_tail(c, x_abs, n)
        if tail is not None and tail <= width / 4:
            break
        n += max(4, n // 2)
    acc = F(0)
    for a in reversed(coefficients(n)):
        acc = acc * x + a
    return RatInterval(acc - tail, acc + tail).outward_round(_grid_bits(width))


def ref_eval_exp(r, width):
    return ref_taylor_enclosure(
        lambda n: [F(1, math.factorial(k)) for k in range(n + 1)],
        F(1), F(r), F(width))


def ref_eval_component(sys, i, x, width):
    return ref_taylor_enclosure(lambda n: sys.coefficients(n)[i].coeffs,
                                F(sys.growth.C), F(x), F(width))


ENCLOSURE_SYSTEMS = {
    "j0": build_j0(),
    "kummer": build_kummer(),
    "exp_pair": build_exp_pair(),
    "j0_exp_-3_7": augment_exp(build_j0(), F(-3, 7)),
    "kummer_exp_3_2": augment_exp(build_kummer(), F(3, 2)),
}
POINTS = [F(-7, 3), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


class TestAgainstFractionHorner:
    @pytest.mark.parametrize("name", sorted(ENCLOSURE_SYSTEMS))
    def test_eval_component(self, name):
        sys = ENCLOSURE_SYSTEMS[name]
        for width in (F(1, 10 ** 6), F(1, 2 ** 256)):
            for x in POINTS:
                for i in range(sys.m):
                    assert eval_component(sys, i, x, width) \
                        == ref_eval_component(sys, i, x, width), (x, i)

    def test_eval_exp(self):
        for width in (F(1), F(1, 10 ** 6), F(1, 2 ** 256)):
            for r in POINTS + [F(-13, 3), F(7, 2), F(20)]:
                assert eval_exp(r, width) == ref_eval_exp(r, width), r

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(ENCLOSURE_SYSTEMS)), st.integers(0, 2),
           st.fractions(-4, 4, max_denominator=60), st.integers(1, 320))
    def test_random_points(self, name, i, x, bits):
        sys = ENCLOSURE_SYSTEMS[name]
        i = min(i, sys.m - 1)
        width = F(1, 2 ** bits)
        assert eval_component(sys, i, x, width) \
            == ref_eval_component(sys, i, x, width)
        assert eval_exp(x, width) == ref_eval_exp(x, width)


def points_of(iv, ts):
    return [iv.lo + t * (iv.hi - iv.lo) for t in ts]


rationals = st.builds(F, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 300))
intervals = st.tuples(rationals, rationals).map(
    lambda p: RatInterval(min(p), max(p)))
# positions inside an interval, as fractions of its width
positions = st.lists(st.integers(0, 96), max_size=3).map(
    lambda ts: [F(0), F(1)] + [F(t, 96) for t in ts])


class TestRatIntervalContainment:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(intervals, intervals, positions, positions)
    def test_arithmetic(self, a, b, ts, us):
        sub = a - b
        for x in points_of(a, ts):
            for y in points_of(b, us):
                assert sub.lo <= x - y <= sub.hi

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(intervals, positions, st.integers(1, 80))
    def test_outward_round(self, a, ts, bits):
        rounded = a.outward_round(bits)
        grid = F(1, 2 ** bits)
        assert rounded.lo.denominator <= 2 ** bits
        assert rounded.hi.denominator <= 2 ** bits
        assert a.lo - grid < rounded.lo and rounded.hi < a.hi + grid
        for x in points_of(a, ts):
            assert rounded.lo <= x <= rounded.hi


class TestRatInterval:
    def test_abs_lower_examples(self):
        assert RatInterval(-1, 2).abs_lower() == 0
        assert RatInterval(F(1, 3), F(1, 2)).abs_lower() == F(1, 3)
        assert RatInterval(-2, -1).abs_lower() == 1

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RatInterval(1, 0)

    def test_arithmetic_containment(self):
        a = RatInterval(F(1, 3), F(1, 2))
        b = RatInterval(F(-1), F(2))
        s = a - b
        assert s.lo == F(1, 3) - 2 and s.hi == F(1, 2) + 1

    def test_outward_round(self):
        iv = RatInterval(F(1, 3), F(1, 3))
        r = iv.outward_round(8)
        assert r.lo <= F(1, 3) <= r.hi
        assert r.lo.denominator <= 256 and r.hi.denominator <= 256

    def test_strictly_positive(self):
        assert RatInterval(F(1, 10), 1).strictly_positive()
        assert not RatInterval(0, 1).strictly_positive()


class TestGridBits:
    def test_smallest_grid_within_an_eighth(self):
        rng = random.Random(7)
        widths = [F(1, 2 ** k) for k in range(1100)]
        widths += [F(2 ** k) for k in range(1, 12)]
        widths += [w * (1 + F(s, 2 ** 80)) for w in widths[:64]
                   for s in (-1, 1)]
        widths += [F(rng.randint(1, 10 ** rng.randint(1, 40)),
                     rng.randint(1, 10 ** rng.randint(1, 60)))
                   for _ in range(2000)]
        for w in widths:
            b = _grid_bits(w)
            assert b >= 1
            assert F(1, 2 ** b) <= w / 8
            assert b == 1 or F(1, 2 ** (b - 1)) > w / 8


class TestEvalExp:
    def test_zero_is_point(self):
        assert eval_exp(0, F(1, 10)) == RatInterval.point(1)

    def test_e_at_width_1e10(self):
        iv = eval_exp(1, F(1, 10 ** 10))
        assert iv.width <= F(1, 10 ** 10)
        assert iv.lo <= E_REF <= iv.hi

    def test_negative_quarter(self):
        # e^(-1/4) = 0.77880078307140486824...
        iv = eval_exp(F(-1, 4), F(1, 10 ** 12))
        assert iv.lo <= F("0.7788007830714048682") <= iv.hi

    def test_width_contract_various(self):
        for r, w in [(F(7, 2), F(1, 10 ** 6)), (F(-13, 3), F(1, 10 ** 30))]:
            iv = eval_exp(r, w)
            assert iv.width <= w


class TestEvalComponent:
    def test_exp_at_one(self, exp_pair):
        iv = eval_component(exp_pair, 0, 1, F(1, 10 ** 10))
        assert iv.lo <= E_REF <= iv.hi
        iv2 = eval_component(exp_pair, 1, 1, F(1, 10 ** 10))
        assert iv2.lo <= E2_REF <= iv2.hi

    def test_j0_at_one(self, j0):
        iv = eval_component(j0, 0, 1, F(1, 10 ** 10))
        assert iv.width <= F(1, 10 ** 10)
        assert iv.lo <= J01_REF <= iv.hi

    def test_at_zero_exact_point(self, j0):
        assert eval_component(j0, 0, 0, F(1, 100)) == RatInterval.point(1)
        assert eval_component(j0, 1, 0, F(1, 100)) == RatInterval.point(0)

    def test_deep_width(self, j0):
        iv = eval_component(j0, 0, 1, F(1, 10 ** 50))
        assert iv.width <= F(1, 10 ** 50)
        assert iv.lo <= J01_REF <= iv.hi

    def test_refinement_never_disjoint(self, j0):
        prev = None
        for k in (5, 10, 20, 40):
            iv = eval_component(j0, 0, F(1, 2), F(1, 10 ** k))
            if prev is not None:
                assert iv.lo <= prev.hi and prev.lo <= iv.hi
            prev = iv

    def test_requires_growth(self):
        from efcert.algebra import RatFunc
        from efcert.efunction import make_system
        from efcert.errors import MissingGrowthCertificate
        sys = make_system(((RatFunc.constant(1),),), ((F(1),),))
        with pytest.raises(MissingGrowthCertificate):
            eval_component(sys, 0, 1, F(1, 100))
