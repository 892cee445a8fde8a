from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from efcert import forms, logmeasure
from efcert.algebra import Poly, RatFunc
from efcert.efunction import (GrowthCertificate, augment_exp, make_system,
                              rescale)
from efcert.errors import (DegenerateFit, InputError, MissingExponentBound,
                           NonPositiveValue)
from efcert.evalcert import RatInterval, eval_component, eval_exp
from efcert.logmeasure import (LogBoundResult, LogConfig, exponent_fit,
                               log_lower_bound, measure_scan)
from efcert.sysdesc import system_from_dict

from oracles import log_distance_oracle

CFG = LogConfig(n_max=20)


class TestLogLowerBound:
    def test_j0_minus_quarter(self, j0):
        res = log_lower_bound(j0, 1, -1, 4, CFG)
        oracle = log_distance_oracle("bessel_j0", F(1), -1, 4)
        assert res.certified
        assert 0 < res.bound <= oracle
        # the certified oracle enclosure brackets the true distance
        assert res.oracle_distance.lo <= oracle <= res.oracle_distance.hi
        assert res.half_value_guard is True

    def test_true_distance_digits(self, j0):
        # |ln J0(1) + 1/4| = 0.01762106473743311...: mpmath agrees, and the
        # package's own exact arithmetic brackets it with no logarithms:
        # ln J0(1) = -1/4 - d, so  e^(-1/4 - d) > J0(1)  iff  d < distance.
        oracle = log_distance_oracle("bessel_j0", F(1), -1, 4)
        assert abs(oracle - F("0.0176210647374331")) < F(1, 10 ** 13)
        from efcert.evalcert import eval_component, eval_exp
        width = F(1, 10 ** 40)
        j01 = eval_component(j0, 0, 1, width)
        below = eval_exp(-F(1, 4) - F("0.01762106"), width)
        above = eval_exp(-F(1, 4) - F("0.01762107"), width)
        assert below.lo > j01.hi        # distance > 0.01762106
        assert above.hi < j01.lo        # distance < 0.01762107

    def test_j0_zero_approximation(self, j0):
        res = log_lower_bound(j0, 1, 0, 1, CFG)
        oracle = log_distance_oracle("bessel_j0", F(1), 0, 1)
        assert abs(oracle - F("0.2676210647374331")) < F(1, 10 ** 12)
        assert res.certified and res.bound <= oracle

    def test_negative_value_rejected(self, j0):
        with pytest.raises(NonPositiveValue):
            log_lower_bound(j0, F(5, 2), 0, 1, CFG)

    def test_forms_route_agrees_in_sign(self, j0):
        res = log_lower_bound(j0, 1, -1, 4, CFG)
        oracle = log_distance_oracle("bessel_j0", F(1), -1, 4)
        if res.forms_bound is not None:
            assert 0 < res.forms_bound <= oracle

    def test_rescale_idempotence(self, j0):
        direct = log_lower_bound(j0, F(1, 2), -1, 8, CFG)
        pre = log_lower_bound(rescale(j0, F(1, 2)), 1, -1, 8, CFG)
        assert direct.bound == pre.bound
        assert direct.status == pre.status
        assert direct.path == pre.path

    def test_beta_parameter_reporting(self, j0):
        res = log_lower_bound(j0, 1, -3, 7, CFG)
        assert res.beta_independent_params["m"] == 3
        assert res.beta_independent_params["n0_bound"] == 324
        assert res.beta_dependent_params["D"] == F(14)   # 2 den(beta)

    def test_n0_computed_once(self, j0, monkeypatch):
        calls = []
        n0_for_system = logmeasure.n0_for_system

        def counting(sys):
            calls.append(sys)
            return n0_for_system(sys)

        monkeypatch.setattr(logmeasure, "n0_for_system", counting)
        monkeypatch.setattr(forms, "n0_for_system", counting)
        res = log_lower_bound(j0, 1, -1, 4)          # n_max = 4 n0
        assert len(calls) == 1
        assert res.beta_independent_params["n0_bound"] == 324

    def test_missing_exponent_bound(self):
        bare = _bessel_without_exponent_bound()
        with pytest.raises(MissingExponentBound):
            log_lower_bound(bare, 1, -1, 4)
        res = log_lower_bound(bare, 1, -1, 4, LogConfig(n_max=3))
        assert res.certified
        assert res.beta_independent_params["n0_bound"] is None


class TestMeasureScan:
    def test_b_up_to_three(self, j0):
        rows = measure_scan(j0, 1, 3, 1, CFG)
        pairs = [(r.b, r.a) for r in rows]
        assert pairs == [(1, -1), (1, 0), (2, -1), (2, 1),
                         (3, -2), (3, -1), (3, 1), (3, 2)]
        assert all(r.certified and r.bound > 0 for r in rows)
        # -1/4 is excluded at b_max = 3
        assert (4, -1) not in pairs

    def test_soundness_against_oracle(self, j0):
        rows = measure_scan(j0, 1, 3, F(1, 2), CFG)
        for r in rows:
            oracle = log_distance_oracle("bessel_j0", F(1), r.a, r.b)
            assert r.bound <= oracle

    def test_window_beyond_float_rejected(self, j0):
        with pytest.raises(InputError, match="window"):
            measure_scan(j0, F(1, 2), 2, F(10) ** 309, CFG)

    def test_centre_beyond_float(self, monkeypatch):
        # f = (z+1) e^(800 z), so f(1) = 2 e^800 > 1.8e308 and ln f(1) =
        # 800.69...: the scan centre is an exact logarithm, not a float's.
        # The rows themselves are stubbed; membership still runs exactly.
        sys = system_from_dict({
            "m": 1, "A": [["800 + 1/(z+1)"]], "seeds": [["1"]],
            "growth": {"C": "801", "D": "1"},
            "exponent_bound": {"global": "1"}})
        monkeypatch.setattr(logmeasure, "log_lower_bound",
                            lambda sys, xi, a, b, config, _state: (a, b))
        assert measure_scan(sys, 1, 1, F(1, 2), LogConfig(n_max=1)) \
            == [(801, 1)]

    def test_zero_window_empty(self, j0):
        assert measure_scan(j0, 1, 3, 0, CFG) == []

    def test_narrow_window(self, j0):
        # ln J0(1) = -0.2676...; no integer lies within 0.1 of it
        assert measure_scan(j0, 1, 1, F(1, 10), CFG) == []
        rows = measure_scan(j0, 1, 1, F(3, 10), CFG)
        assert [(r.b, r.a) for r in rows] == [(1, 0)]

    def test_jobs_independent(self, j0):
        rows = measure_scan(j0, 1, 2, 1, CFG)
        assert rows
        for r in rows:
            single = log_lower_bound(j0, 1, r.a, r.b, CFG)
            assert (r.b, r.a, r.bound, r.path) \
                == (single.b, single.a, single.bound, single.path)


def _bessel_without_exponent_bound():
    z = Poly.x()
    a = ((RatFunc.zero(), RatFunc(Poly.one())),
         (RatFunc.constant(-1), RatFunc(-Poly.one(), z)))
    return make_system(a, ((F(1),), (F(0),)), growth=GrowthCertificate(1, 2))


def _quadratic():
    # f = 2 + 3z + z^2: n0 of the augmented system is 216 at beta = 0 and
    # 192 otherwise, so n0 is shared only among nonzero beta
    a = ((RatFunc(Poly([3, 2]), Poly([2, 3, 1])),),)
    return make_system(a, ((F(2),),), growth=GrowthCertificate(2, 1),
                       exponent_bound={"infinity": F(0)})


class TestMembership:
    """_exp_leq_value(r, V) decides e^r <= V exactly from any starting
    precision; the scan starts it at 8 bits."""

    START = logmeasure._MEMBERSHIP_START_BITS

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.fractions(min_value=-4, max_value=4, max_denominator=50),
           st.integers(min_value=-2 ** 6, max_value=2 ** 6).filter(bool),
           st.integers(min_value=6, max_value=40))
    def test_against_the_exact_order_of_exponents(self, s, k, j):
        # V = e^s, so e^r <= V iff r <= s: r runs within 2^-6 of ln V
        r = s + F(k, 2 ** (j + 6))
        bits = []

        def value(b):
            bits.append(b)
            return eval_exp(s, F(1, 2 ** b))

        assert logmeasure._exp_leq_value(r, value, self.START, 1024) \
            == (r <= s)
        assert bits[0] == self.START

    @pytest.mark.parametrize("offset", [F(1, 64), F(1, 1000), F(1, 10 ** 9)])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_against_a_decimal_logarithm(self, offset, side):
        with localcontext() as ctx:
            ctx.prec = 60
            ln2 = Decimal(2).ln()
        r = F(ln2) + side * offset
        assert logmeasure._exp_leq_value(
            r, lambda b: RatInterval.point(2), self.START, 1024) \
            == (side < 0)

    def test_undecidable_at_the_cap(self):
        bits = []

        def one(b):
            bits.append(b)
            return RatInterval.point(1)

        with pytest.raises(InputError, match="cannot decide"):
            logmeasure._exp_leq_value(F(0), one, self.START, 1024)
        assert bits == [8, 16, 32, 64, 128, 256, 512, 1024]


class TestSharedScanState:
    @pytest.mark.parametrize("xi", [F(1, 4), F(1, 2), F(1)])
    @pytest.mark.parametrize("name", ["j0", "kummer"])
    def test_rows_equal_independent_calls(self, name, xi, request):
        sys = request.getfixturevalue(name)
        rows = measure_scan(sys, xi, 5, F(1, 2), CFG)
        assert rows
        for row in rows:
            assert row == log_lower_bound(sys, xi, row.a, row.b, CFG)
        if (name, xi) == ("kummer", F(1)):
            # some rows truncate the base components at C' = |beta| > C
            assert any(abs(r.beta) > sys.growth.C for r in rows)

    def test_component_intervals_follow_growth_constant(self, kummer):
        state = logmeasure._PointState(kummer, F(1), CFG)
        width = F(1, 2 ** CFG.precision_bits)
        for beta in (F(1, 2), F(6, 5), F(1), F(7, 5), F(6, 5), F(-3, 2)):
            aug = augment_exp(kummer, beta)
            assert state.component_intervals(aug) \
                == [eval_component(aug, i, 1, width) for i in range(3)]

    def test_n0_keyed_on_beta_zero(self):
        rows = measure_scan(_quadratic(), F(-1, 2), 3, F(1, 2))
        n0 = {(r.b, r.a): r.beta_independent_params["n0_bound"]
              for r in rows}
        assert n0 == {(1, 0): 216, (2, -1): 192, (3, -2): 192, (3, -1): 192}

    def test_shared_work_runs_once(self, j0, monkeypatch):
        calls = {"n0": 0, "rescale": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(logmeasure, "n0_for_system",
                            counted("n0", logmeasure.n0_for_system))
        monkeypatch.setattr(forms, "n0_for_system", logmeasure.n0_for_system)
        monkeypatch.setattr(logmeasure, "rescale",
                            counted("rescale", logmeasure.rescale))
        rows = measure_scan(j0, F(1, 2), 3, 1)
        assert len(rows) > 2 and any(r.a == 0 for r in rows)
        assert calls == {"n0": 2, "rescale": 1}

    def test_missing_exponent_bound(self):
        bare = _bessel_without_exponent_bound()
        with pytest.raises(MissingExponentBound):
            measure_scan(bare, 1, 2, 1)
        rows = measure_scan(bare, 1, 2, 1, LogConfig(n_max=3))
        assert rows and all(r.certified for r in rows)
        assert all(r.beta_independent_params["n0_bound"] is None
                   for r in rows)


def _fake_row(b: int, a: int, bound: F) -> LogBoundResult:
    iv = RatInterval(F(1), F(1))
    return LogBoundResult(
        xi=F(1), a=a, b=b, beta=F(a, b), status="certified", bound=bound,
        path="interval", forms_certificate=None, forms_failure=None,
        forms_bound=None, interval_bound=bound, omega_upper=F(1),
        f_value=iv, exp_value=iv, oracle_distance=None, half_value_guard=None,
        beta_dependent_params={}, beta_independent_params={})


class TestExponentFit:
    def test_synthetic_exponential(self):
        rows = []
        for b in range(1, 9):
            bound = F(math.exp(-2 * b)).limit_denominator(10 ** 12)
            rows.append(_fake_row(b, 0, bound))
        c_fit, d_fit = exponent_fit(rows)
        assert abs(c_fit - 2) < 0.01
        assert abs(d_fit - 1) < 0.01

    def test_single_b_degenerate(self):
        rows = [_fake_row(3, a, F(1, 100)) for a in (-1, 0, 1)]
        with pytest.raises(DegenerateFit):
            exponent_fit(rows)

    def test_scan_fit_finite(self, j0):
        rows = measure_scan(j0, 1, 4, 1, CFG)
        c_fit, d_fit = exponent_fit(rows)
        assert math.isfinite(c_fit) and math.isfinite(d_fit)
