from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from efcert import efunction
from efcert.algebra import Poly, RatFunc
from efcert.efunction import (DiffSystem, GrowthCertificate, augment_exp,
                              catalog, extract_params, make_system, rescale)
from efcert.errors import (AllComponentsZero, InconsistentSeeds, InputError,
                           UnderdeterminedSeeds)

from conftest import build_exp_pair, build_j0, build_kummer


def ref_augment(sys, beta):
    """augment_exp built the generic way: the block matrix A, with T A and
    clear_factor computed entry by entry by DiffSystem."""
    beta = F(beta)
    m = sys.m
    a = [tuple(sys.A[i]) + (RatFunc.zero(),) for i in range(m)]
    a.append((RatFunc.zero(),) * m + (RatFunc.constant(beta),))
    growth = GrowthCertificate(max(sys.growth.C, abs(beta)),
                               sys.growth.D * beta.denominator,
                               sys.growth.provenance)
    return DiffSystem(a, sys.T, sys.seeds + ((F(1),),),
                      labels=sys.labels + (f"exp({beta}*z)",), growth=growth,
                      exponent_bound=sys.exponent_bound)


AUGMENT_BETAS = [F(0), F(-3, 7), F(3, 2), F(6, 5), F(-9, 2)]


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


def closed_form(name, order):
    """The Taylor columns of a test system up to the given order, from the
    closed form of its first component f: the second is f' (exp(2 z) next to
    exp(z)), and bessel_two_thirds is (J0, J0') at 2 z / 3."""
    k = range(order + 2)
    f = {"bessel": [F((-1) ** (n // 2), 4 ** (n // 2)
                      * math.factorial(n // 2) ** 2) if n % 2 == 0 else F(0)
                    for n in k],
         "kummer": [F(math.prod(F(1, 3) + j for j in range(n)),
                      math.prod(F(1, 2) + j for j in range(n))
                      * math.factorial(n)) for n in k],
         "exp_pair": [F(1, math.factorial(n)) for n in k]}
    f["bessel_two_thirds"] = f["bessel"]
    first = f[name][:order + 1]
    if name == "exp_pair":
        second = [c * 2 ** n for n, c in enumerate(first)]
    else:
        second = [(n + 1) * f[name][n + 1] for n in range(order + 1)]
    if name == "bessel_two_thirds":
        first, second = ([c * F(2, 3) ** n for n, c in enumerate(col)]
                         for col in (first, second))
    return [tuple(first), tuple(second)]


STORE_SYSTEMS = {"bessel": build_j0, "kummer": build_kummer,
                 "exp_pair": build_exp_pair,
                 "bessel_two_thirds": lambda: rescale(build_j0(), F(2, 3))}


class TestCoefficientStore:
    """One integer store per system, solved into to exactly the order asked
    by one elimination of the recurrence, resumed on each miss;
    coefficients is a Fraction view of it.  Fresh systems, so the requests
    below are the first each store sees after its seed probe."""

    @pytest.mark.parametrize("name", list(STORE_SYSTEMS))
    def test_against_the_recurrence(self, name):
        # the recurrence's solution is the closed form's series
        sys = STORE_SYSTEMS[name]()
        for order in (17, 0, 5, 40, 23, 90):
            ref = closed_form(name, order)
            assert [s.coeffs for s in sys.coefficients(order)] == ref
            d, columns = sys.integer_coefficients(order)
            assert [tuple(F(c, d) for c in col) for col in columns] == ref
            assert d == math.lcm(*(c.denominator for col in ref for c in col))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(STORE_SYSTEMS)),
           st.lists(st.integers(0, 70), min_size=1, max_size=6))
    def test_any_order_sequence_matches_a_fresh_system(self, name, orders):
        sys = STORE_SYSTEMS[name]()
        for order in orders:
            fresh = STORE_SYSTEMS[name]()
            assert sys.integer_coefficients(order) \
                == fresh.integer_coefficients(order)

    def test_each_equation_inserted_once(self, monkeypatch):
        # the seed probe solves to 4; a miss inserts only the equations past
        # the last one inserted, up to order + deg T + 4, whichever view asks
        inserted = []
        insert = DiffSystem._insert_equation

        def recording(sys, n, i):
            inserted.append((id(sys), n, i))
            return insert(sys, n, i)

        monkeypatch.setattr(DiffSystem, "_insert_equation", recording)
        j0 = build_j0()
        for order in (5, 6, 7, 13, 30, 0, 31, 47, 100):
            j0.integer_coefficients(order)
            j0.coefficients(order)
        assert inserted == [(id(j0), n, i) for n in range(100 + 1 + 5)
                            for i in range(2)]
        inserted.clear()
        base = build_kummer()
        aug = augment_exp(base, F(3, 2))
        for order in (17, 0, 5, 40, 23, 90):
            aug.coefficients(order)
            aug.integer_coefficients(order + 1)
        extract_params(aug)
        assert inserted == [(id(base), n, i) for n in range(91 + 1 + 5)
                            for i in range(2)]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.builds(F, st.integers(-50, 50), st.integers(1, 20)),
           st.builds(F, st.integers(-50, 50), st.integers(1, 20)),
           st.lists(st.integers(0, 40), min_size=1, max_size=6))
    def test_elimination_fill_in(self, d, c, orders):
        # A = [[1/z, 1/z], [0, 2/z]]: at each order N >= 3 the equation of
        # component 2, (N-2) c_{N,2} = 0, is reduced by the stored equation
        # of component 1, (N-1) c_{N,1} - c_{N,2} = 0, and so gains the
        # unknown c_{N,1}.  The solution is y1 = d z + c z^2, y2 = c z^2
        z = Poly.x()
        a_mat = ((RatFunc(Poly.one(), z), RatFunc(Poly.one(), z)),
                 (RatFunc.zero(), RatFunc(Poly.constant(2), z)))
        sys = make_system(a_mat, ((0, d, c), (0, 0, c)))
        for order in orders:
            den, columns = sys.integer_coefficients(order)
            zeros = [F(0)] * order
            assert [[F(e, den) for e in col] for col in columns] == [
                ([F(0), d, c] + zeros)[:order + 1],
                ([F(0), F(0), c] + zeros)[:order + 1]]

    @pytest.mark.parametrize("k", [6, 9])
    def test_indicial_root_past_the_seeds(self, k):
        # y' = (k/z) y: the z^L coefficient reads (L - k) c_L = 0, so c_0 = 0
        # is forced and c_k is free unless a seed pins it.  The orders below
        # k do not need c_k (solving past the order asked once made them
        # raise); asking for k raises, and raises the same again
        a_mat = ((RatFunc(Poly.constant(k), Poly.x()),),)
        sys = make_system(a_mat, ((F(0),),))
        assert sys.integer_coefficients(k - 1) == (1, [(0,) * k])
        for _ in range(2):
            with pytest.raises(UnderdeterminedSeeds) as exc:
                sys.integer_coefficients(k)
            assert str(exc.value) == (f"coefficient of z^{k} in component 1 "
                                      f"is not pinned; supply more seed terms")
        assert sys.coefficients(k - 1)[0].coeffs == (0,) * k
        with pytest.raises(InconsistentSeeds) as exc:
            make_system(a_mat, ((F(1),),))
        assert str(exc.value) == ("recurrence at order 0, component 1 "
                                  "(seeds violate the system)")
        sys = make_system(a_mat, ((F(0),) * k + (F(5),),))
        d, (col,) = sys.integer_coefficients(3 * k)
        assert (d, col) == (1, (0,) * k + (5,) + (0,) * (2 * k))


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
        # no seeds at all: z y' = -y pins every coefficient to 0
        unseeded = make_system(((RatFunc(Poly.constant(-1), Poly.x()),),),
                               ((),))
        with pytest.raises(AllComponentsZero):
            extract_params(unseeded)

    def test_computed_once_per_system(self, monkeypatch):
        # the first call reads the store; later calls read nothing
        sys = build_kummer()
        calls = []
        store = sys.integer_coefficients

        def counting(order):
            calls.append(order)
            return store(order)

        monkeypatch.setattr(sys, "integer_coefficients", counting)
        first = extract_params(sys)
        searched = list(calls)
        assert all(extract_params(sys) is first for _ in range(3))
        assert searched and calls == searched

    def test_vanishing_search_reads_the_store_first(self, monkeypatch):
        # p lies below the longest seed, which the seed probe solved, so no
        # system is solved further, not even one whose seeds are all zero
        solved = []
        solve = DiffSystem._solve
        monkeypatch.setattr(DiffSystem, "_solve", lambda s, order:
                            solved.append(order) or solve(s, order))
        kummer = build_kummer()
        z5 = make_system(((RatFunc(Poly.constant(5), Poly.x()),),),
                         ((F(0),) * 5 + (F(1),),))
        zero = make_system(((RatFunc.constant(1),),), ((F(0),),))
        probes = list(solved)
        assert extract_params(kummer).p == 0
        assert extract_params(z5).p == 5
        with pytest.raises(AllComponentsZero):
            extract_params(zero)
        assert solved == probes

    def test_all_zero_raises_on_every_call(self):
        sys = make_system(((RatFunc.constant(1),),), ((F(0),),))
        messages = []
        for _ in range(3):
            with pytest.raises(AllComponentsZero) as exc:
                extract_params(sys)
            messages.append(str(exc.value))
        assert messages == ["every seed is zero, so every component vanishes "
                            "identically; vanishing order undefined"] * 3

    def test_augmented_vanishing_order(self, kummer):
        # z e^z vanishes to order 1 at 0; every augmented system has p = 0
        # (exp(beta z) starts at 1) and the base's q
        z = Poly.x()
        z_exp = make_system(((RatFunc(Poly((1, 1)), z),),), ((F(0), F(1)),))
        assert extract_params(z_exp).p == 1
        for base in (z_exp, kummer, rescale(build_j0(), F(2, 3))):
            q = extract_params(base).q
            for beta in (F(0), F(2), F(-5, 3), F(7, 2)):
                p = extract_params(augment_exp(base, beta))
                assert (p.p, p.q) == (0, q)


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

    @pytest.mark.parametrize("beta", [F(0), F(1, 3), F(-2), F(7, 5)])
    def test_columns_match_recurrence(self, beta, monkeypatch):
        # the augmented columns extend the base's and the closed form
        # beta^k/k!; solving the (m+1)-component recurrence (ref_augment's)
        # gives the same, and the augmented system never solves it
        j0 = catalog("bessel_j0")[0]
        bases = (j0, catalog("1f1", a=F(1, 3), b=F(1, 2))[0],
                 rescale(j0, F(2, 3)))
        orders = (3, 17, 40)
        refs = [[ref_augment(base, beta).coefficients(order)
                 for order in orders] for base in bases]
        solved = []
        solve = DiffSystem._solve
        monkeypatch.setattr(DiffSystem, "_solve", lambda sys, order:
                            solved.append(sys.m) or solve(sys, order))
        for base, ref in zip(bases, refs):
            aug = augment_exp(base, beta)
            assert [aug.coefficients(order) for order in orders] == ref
        assert solved and set(solved) == {2}     # never the m = 3 system

    @pytest.mark.parametrize("name", ["bessel", "kummer", "exp_pair",
                                      "bessel_exp_third"])
    def test_integer_columns(self, name, j0, kummer):
        # requested out of order, so the numerators are extended, reused and
        # truncated; D is the lcm of exactly the requested denominators
        sys = {"bessel": j0, "kummer": kummer, "exp_pair": build_exp_pair(),
               "bessel_exp_third": augment_exp(j0, F(1, 3))}[name]
        for order in (17, 0, 5, 40, 23, 90):
            d, columns = sys.integer_coefficients(order)
            series = sys.coefficients(order)
            assert d == math.lcm(*(c.denominator for s in series
                                   for c in s.coeffs))
            assert columns == [tuple(c * d for c in s.coeffs)
                               for s in series]

    @pytest.mark.parametrize("beta", AUGMENT_BETAS)
    def test_derived_equals_generic(self, beta, j0, kummer):
        for base in (j0, kummer, rescale(j0, F(2, 3)), build_exp_pair()):
            aug, ref = augment_exp(base, beta), ref_augment(base, beta)
            assert aug.A == ref.A
            assert aug.TA == ref.TA
            assert aug.clear_factor == ref.clear_factor
            assert aug == ref and ref == aug
            assert (aug.m, aug.T, aug.seeds, aug.labels, aug.growth,
                    aug.exponent_bound) == (ref.m, ref.T, ref.seeds,
                                            ref.labels, ref.growth,
                                            ref.exponent_bound)

    @pytest.mark.parametrize("beta", AUGMENT_BETAS)
    def test_augmented_integer_columns(self, beta, j0, kummer):
        # -9/2 exceeds the growth constant C of both bases; the orders are
        # requested out of order, and D is the lcm of exactly the requested
        # denominators
        for base in (j0, kummer):
            aug = augment_exp(base, beta)
            for order in (17, 0, 5, 40, 23, 90):
                d, columns = aug.integer_coefficients(order)
                series = aug.coefficients(order)
                assert d == math.lcm(*(c.denominator for s in series
                                       for c in s.coeffs))
                assert columns == [tuple(c * d for c in s.coeffs)
                                   for s in series]

    def test_columns_built_once_per_order(self, j0, monkeypatch):
        calls = []
        closed_form = efunction.exp_numerators

        def counting(beta, order):
            calls.append(order)
            return closed_form(beta, order)

        monkeypatch.setattr(efunction, "exp_numerators", counting)
        aug = augment_exp(j0, F(-3, 7))
        assert calls == []                  # no seed probe of its own
        d, first = aug.integer_coefficients(30)
        expected = (d, list(first))
        first[2] = ()                       # alters the caller's list only
        assert aug.integer_coefficients(30) == expected
        assert aug.integer_coefficients(12)[0] != d
        assert aug.integer_coefficients(30) == expected
        assert calls == [30, 12]
        assert all(type(col) is tuple for col in expected[1])
        assert augment_exp(j0, F(-3, 7)).integer_coefficients(30) == expected

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
                assert math.lcm(*dens) <= cert.D ** (k + 1), (builder, i, k)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.builds(F, st.integers(-60, 60), st.integers(1, 30)),
           st.builds(F, st.integers(-60, 60), st.integers(1, 30)))
    @example(F(7, 2), F(1, 3))
    @example(F(-5, 2), F(3, 4))
    @example(F(7, 30), F(1, 7))
    @example(F(2), F(-1, 2))
    def test_kummer_bounds_hold_to_k_150(self, a, b):
        # a outside 0 < a <= b takes the C > 1 branch, and a composite
        # den(a) the factoring loop
        assume(not (b.denominator == 1 and b <= 0))
        cert = efunction.kummer_growth_certificate(a, b)
        phi, den = F(1), 1
        for k in range(151):
            assert abs(phi) <= cert.C ** (k + 1), k
            den = math.lcm(den, phi.denominator)
            assert den <= cert.D ** (k + 1), k
            phi *= (a + k) / (b + k)

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
