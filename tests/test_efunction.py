from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from efcert.algebra import Poly, RatFunc, lcm_list
from efcert.efunction import (DiffSystem, GrowthCertificate, augment_exp,
                              catalog, extract_params, make_system, rescale)
from efcert.errors import (AllComponentsZero, InconsistentSeeds, InputError,
                           UnderdeterminedSeeds)

from conftest import build_exp_pair


def bessel_A():
    z = Poly.x()
    return ((RatFunc.zero(), RatFunc(Poly.one())),
            (RatFunc.constant(-1), RatFunc(-Poly.one(), z)))


class TestCoefficients:
    def test_exp_pair(self, exp_pair):
        s1, s2 = exp_pair.coefficients(2)
        assert s1.coeffs == (F(1), F(1), F(1, 2))
        assert s2.coeffs == (F(1), F(2), F(2))

    def test_bessel_series(self, j0):
        # oracle: J0 = sum (-1)^n (z/2)^(2n) / n!^2, expanded by hand
        s = j0.coefficients(4)[0]
        assert s.coeffs == (F(1), F(0), F(-1, 4), F(0), F(1, 64))

    def test_bessel_closed_form_to_order_30(self, j0):
        s = j0.coefficients(30)[0]
        for n in range(16):
            expected = F((-1) ** n, 4 ** n * math.factorial(n) ** 2)
            assert s.coefficient(2 * n) == expected
            if 2 * n + 1 <= 30:
                assert s.coefficient(2 * n + 1) == 0

    def test_inconsistent_seeds(self):
        # the recurrence at order 0 forces J0'(0) = 0
        with pytest.raises(InconsistentSeeds):
            DiffSystem(bessel_A(), Poly.x(), ((F(1),), (F(1),)))

    def test_underdetermined_seeds(self):
        with pytest.raises(UnderdeterminedSeeds):
            DiffSystem(bessel_A(), Poly.x(), ((), (F(0),)))

    def test_kummer_seed_pinned_by_recurrence(self):
        # f'(0) = a/b is forced; an empty second seed list still works
        z = Poly.x()
        a_mat = ((RatFunc.zero(), RatFunc(Poly.one())),
                 (RatFunc(Poly.constant(F(1, 3)), z),
                  RatFunc(Poly((F(-1, 2), 1)), z)))
        sys = make_system(a_mat, ((F(1),), (F(2, 3),)))
        assert sys.coefficients(1)[1].coefficient(0) == F(2, 3)


class TestExtractParams:
    def test_bessel(self, j0):
        p = extract_params(j0)
        assert (p.p, p.q, p.E) == (0, 1, F(1))
        assert p.T == Poly.x()

    def test_exp_pair(self, exp_pair):
        p = extract_params(exp_pair)
        assert (p.p, p.q, p.E) == (0, 0, F(2))

    def test_augmented_rational_beta(self, j0):
        p = extract_params(augment_exp(j0, F(5, 2)))
        assert p.E == F(5, 2)

    def test_all_zero(self):
        sys = make_system(((RatFunc.constant(1),),), ((F(0),),))
        with pytest.raises(AllComponentsZero):
            extract_params(sys)


class TestAugmentExp:
    def test_recovers_exp_pair(self, exp_pair):
        base, _ = catalog("exp", beta=1)
        built = augment_exp(base, 2)
        assert built.T == exp_pair.T
        assert built.A == exp_pair.A
        assert built.seeds == exp_pair.seeds

    def test_j0_certificate_update(self, j0):
        aug = augment_exp(j0, F(1, 2))
        assert aug.m == 3
        assert aug.T == Poly.x()
        assert aug.growth.C == F(1)
        assert aug.growth.D == F(4)

    def test_beta_zero_appends_constant_one(self, j0):
        aug = augment_exp(j0, 0)
        s = aug.coefficients(5)[2]
        assert s.coeffs == (F(1), 0, 0, 0, 0, 0)

    def test_last_component_is_exp_series(self, j0):
        beta = F(-3, 7)
        aug = augment_exp(j0, beta)
        s = aug.coefficients(12)[3 - 1]
        for k in range(13):
            assert s.coefficient(k) == beta ** k / math.factorial(k)

    def test_q_unchanged_when_T_nonconstant(self, j0, kummer):
        for sys in (j0, kummer):
            q0 = extract_params(sys).q
            for beta in (F(2), F(-5, 3), F(7, 2)):
                assert extract_params(augment_exp(sys, beta)).q == q0


class TestRescale:
    def test_exp_scaling(self):
        base, _ = catalog("exp", beta=1)
        doubled = rescale(base, 2)
        s = doubled.coefficients(6)[0]
        for k in range(7):
            assert s.coefficient(k) == F(2) ** k / math.factorial(k)

    def test_identity(self, j0):
        assert rescale(j0, 1) == j0

    def test_half_bessel_entries(self, j0):
        r = rescale(j0, F(1, 2))
        # the -1/z entry is scale invariant, the constant entries scale
        assert r.A[1][1] == RatFunc(-Poly.one(), Poly.x())
        assert r.A[0][1] == RatFunc.constant(F(1, 2))
        assert r.T == Poly([0, 2])

    def test_dilated_coefficients(self, j0):
        xi = F(3, 5)
        r = rescale(j0, xi)
        orig = j0.coefficients(40)
        scaled = r.coefficients(40)
        for i in range(2):
            for k in range(41):
                assert scaled[i].coefficient(k) == \
                    orig[i].coefficient(k) * xi ** k

    def test_certificate_update(self, j0):
        r = rescale(j0, F(-7, 3))
        assert r.growth.C == F(7, 3)
        assert r.growth.D == F(6)

    def test_zero_rejected(self, j0):
        with pytest.raises(InputError):
            rescale(j0, 0)


class TestCatalog:
    def test_exp_rational(self):
        sys, cert = catalog("exp", beta=F(3, 7))
        assert (cert.C, cert.D) == (F(1), F(7))
        p = extract_params(sys)
        assert (p.p, p.q, p.E) == (0, 0, F(7))

    def test_bessel_certificate(self):
        _, cert = catalog("bessel_j0")
        assert (cert.C, cert.D) == (F(1), F(2))

    def test_kummer_seeds(self, kummer):
        s = kummer.coefficients(3)[0]
        # phi_k = (1/3)_k / (1/2)_k
        phi = [F(1), F(2, 3), F(16, 27), F(224, 405)]
        for k in range(4):
            assert s.coefficient(k) == phi[k] / math.factorial(k)

    def test_invalid_kummer_parameter(self):
        with pytest.raises(InputError):
            catalog("1f1", a=F(1, 3), b=F(-2))

    def test_unknown_name(self):
        with pytest.raises(InputError):
            catalog("airy")

    def test_polynomial_kummer_certificate(self):
        sys, cert = catalog("1f1", a=F(-2), b=F(1, 2))
        s = sys.coefficients(6)[0]
        assert all(s.coefficient(k) == 0 for k in range(3, 7))
        assert cert.C >= 1 and cert.D >= 1


class TestGrowthCertificates:
    @pytest.mark.parametrize("builder", ["exp_pair", "bessel_j0", "kummer"])
    def test_bounds_hold_to_k_200(self, builder, exp_pair, j0, kummer):
        sys = {"exp_pair": exp_pair, "bessel_j0": j0, "kummer": kummer}[builder]
        cert = sys.growth
        series = sys.coefficients(200)
        for i in range(sys.m):
            dens = []
            for k in range(201):
                phi = series[i].coefficient(k) * math.factorial(k)
                assert abs(phi) <= cert.C ** (k + 1), (builder, i, k)
                dens.append(phi.denominator)
                assert lcm_list(dens) <= cert.D ** (k + 1), (builder, i, k)

    def test_certificate_validation(self):
        with pytest.raises(InputError):
            GrowthCertificate(F(1, 2), F(1))
        with pytest.raises(InputError):
            GrowthCertificate(F(1), F(1), "guessed")


def test_deterministic_rebuild():
    a = build_exp_pair()
    b = build_exp_pair()
    assert a == b
    assert a.coefficients(30) == b.coefficients(30)


def test_random_beta_augmentations_keep_structure(j0):
    rng = random.Random(99)
    base_T = j0.T
    for _ in range(8):
        beta = F(rng.randint(-40, 40), rng.randint(1, 9))
        aug = augment_exp(j0, beta)
        assert aug.T == base_T
        p = extract_params(aug)
        assert (p.p, p.q) == (0, 1)
        assert p.E == max(F(1), abs(beta))
