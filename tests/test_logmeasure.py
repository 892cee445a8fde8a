from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from efcert.efunction import rescale
from efcert.errors import DegenerateFit, NonPositiveValue
from efcert.evalcert import RatInterval
from efcert.logmeasure import (LogBoundResult, LogConfig, exponent_fit,
                               log_lower_bound, measure_scan)

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
