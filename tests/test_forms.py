from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from efcert.algebra import Poly, RatFunc, det_exact
from efcert.auxiliary import construct
from efcert.efunction import augment_exp, make_system
from efcert.errors import (ExhaustedN, InputError, RankDeficientLadder,
                           SingularEvaluationPoint)
from efcert.forms import (adaptive_bound, build_ladder, certified_lower_bound,
                          evaluate_forms, ladder_length)
from efcert.efunction import GrowthCertificate

from oracles import linear_form_oracle


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
        combos = []
        for row in ladder.rows:
            acc = series[0].mul_poly(row[0])
            for p, s in zip(row[1:], series[1:]):
                acc = acc + s.mul_poly(p)
            combos.append(acc)
        for k in range(k_len - 1):
            derived = combos[k].derivative().mul_poly(j0.T)
            upto = min(derived.order, combos[k + 1].order)
            assert combos[k + 1].truncate(upto) == derived.truncate(upto)


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


class TestAdaptive:
    def test_dependent_pair_exhausts_with_rank_diagnostics(self):
        # f1 = f2 = e^z is Q(z)-dependent: rank can never reach 2
        a = ((RatFunc.constant(1), RatFunc.zero()),
             (RatFunc.zero(), RatFunc.constant(1)))
        dep = make_system(a, ((F(1),), (F(1),)),
                          growth=GrowthCertificate(F(1), F(1)),
                          exponent_bound={"global": F(0)})
        with pytest.raises(ExhaustedN) as info:
            adaptive_bound(dep, 1, (1, -1), n_start=1, n_max=6)
        assert info.value.attempts
        assert all(rec.status == "RankDeficientLadder"
                   for rec in info.value.attempts)

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
        from efcert.algebra import RowBasis
        from efcert.zeroestimate import n0_for_system
        n0 = n0_for_system(exp_pair).value
        assert n0 == 24
        basis = construct(exp_pair, n0)
        k_len = ladder_length(2, 0, 0, n0, basis.eps1)
        ladder = build_ladder(basis, exp_pair, k_len)
        forms = evaluate_forms(ladder, F(1))
        rb = RowBasis(2)
        rank = sum(1 for row in forms.rows if rb.offer(row))
        assert rank == 2
