from __future__ import annotations

import math
import operator
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from efcert import algebra, auxiliary
from efcert.algebra import (Poly, RatFunc, cofactor, common_numerators,
                            det_exact, exp_numerators, kernel_basis,
                            prefix_numerators, rank)
from efcert.sysdesc import catalog_file, parse_system

from oracles import ref_truncated_span


# -- reference: the Fraction eliminations that kernel_basis and rank replace

def ref_kernel(matrix):
    """Gauss-Jordan over Fraction with first-nonzero pivoting, the pivot row
    scaled to 1; one kernel vector per free column, made primitive with its
    first nonzero entry positive."""
    rows = [[F(e) for e in row] for row in matrix]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        d = 1
        for e in vec:
            d = d * e.denominator // math.gcd(d, e.denominator)
        ints = [int(e * d) for e in vec]
        g = 0
        for e in ints:
            g = math.gcd(g, abs(e))
        ints = [e // g for e in ints]
        if next(e for e in ints if e) < 0:
            ints = [-e for e in ints]
        basis.append(tuple(ints))
    return basis


def ref_rank(matrix):
    """Offer the rows one at a time to an echelon basis over Fraction and
    count the rows that are independent of those before them."""
    echelon = []
    for row in matrix:
        v = [F(e) for e in row]
        for lead, basis_row in echelon:
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, basis_row)]
        lead = next((k for k, e in enumerate(v) if e != 0), None)
        if lead is not None:
            echelon.append((lead, [a / v[lead] for a in v]))
            echelon.sort(key=lambda t: t[0])
    return len(echelon)


_PRIME = algebra._GCD_PRIME
# integers near multiples of the prime, over 1, 2, 3 or multiples of it
_near_prime_fracs = st.builds(
    F,
    st.one_of(st.integers(-20, 20),
              st.builds(lambda k, r: k * _PRIME + r, st.integers(-3, 3),
                        st.integers(-3, 3))),
    st.sampled_from([1, 2, 3, _PRIME, 6 * _PRIME]))


def ref_gcd(a, b):
    """Euclid on the Fraction remainders, made monic at the end."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a if a.is_zero() else a.monic()


def vanishing_matrix(columns, n, tau):
    """Row k holds the z^k coefficient of sum_i P_i F_i as a linear form in
    the coefficients P_i[nu], at index i(n+1) + nu."""
    m = len(columns)
    return [[columns[i][k - nu] if nu <= k else 0
             for i in range(m) for nu in range(n + 1)] for k in range(tau)]


def fresh_span(columns, n, tau):
    """The span at degree n of an OrderBasis advanced from order 0 to tau."""
    basis = auxiliary.OrderBasis(len(columns))
    basis.advance(columns, tau)
    return basis.span(n)


def random_matrix(rng):
    """A rows x cols rational matrix of rank at most k (a product of random
    rows x k and k x cols factors), sometimes with a zero row or column, and
    sometimes given with int entries."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    k = rng.randint(0, min(rows, cols))

    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    left = [[entry() for _ in range(k)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(k)]
    m = [[sum((left[i][t] * right[t][j] for t in range(k)), F(0))
          for j in range(cols)] for i in range(rows)]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [F(0)] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = F(0)
    if rng.random() < 0.2:
        m = [[int(e * 12) for e in row] for row in m]
    return m


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

    def test_kernel_vectors_share_the_pivot_lcm(self):
        # L = lcm(2, 4) = 4 for every free column, though the row pivoted
        # on 4 is zero at free column 2; kernel_basis makes each primitive
        rows, pivots = [[2, 0, 1, 0], [0, 4, 0, 1]], [0, 1]
        assert algebra._kernel_vectors(rows, pivots, 4) == [[-2, 0, 4, 0],
                                                            [0, -1, 0, 4]]
        assert kernel_basis(rows) == [(1, 0, -2, 0), (0, 1, 0, -4)]


class TestAgainstFractionReference:
    def test_random_matrices(self):
        rng = random.Random(20261018)
        ranks = set()
        for _ in range(2000):
            m = random_matrix(rng)
            assert kernel_basis(m) == ref_kernel(m), m
            assert rank(m) == ref_rank(m), m
            ranks.add((rank(m), min(len(m), len(m[0]))))
        # rank-deficient and full-rank matrices both occur
        assert any(r < full for r, full in ranks)
        assert any(r == full for r, full in ranks)

    @pytest.mark.parametrize("name", ["bessel_j0", "kummer_1_3_1_2",
                                      "exp_pair"])
    def test_vanishing_matrices(self, name):
        """construct's polynomials are the least kernel vector (max-norm,
        then lexicographic) of the dense vanishing matrix built from the
        integer Taylor columns, and rank agrees with the reference."""
        system = parse_system(catalog_file(name))
        m = system.m
        for n in range(1, 13):
            basis = auxiliary.construct(system, n)
            _, columns = system.integer_coefficients(basis.tau)
            matrix = vanishing_matrix(columns, n, basis.tau)
            kernel = ref_kernel(matrix)
            vec = min(kernel, key=lambda v: (max(abs(e) for e in v), v))
            assert basis.polys == tuple(Poly(vec[i * (n + 1):(i + 1) * (n + 1)])
                                        for i in range(m))
            assert rank(matrix) == ref_rank(matrix) == m * (n + 1) - len(kernel)

    def test_rank_examples(self):
        assert rank([]) == 0
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[1, 2], [2, 4], [F(1, 2), 1]]) == 1
        assert rank([[F(1, 3), 0], [0, F(2, 7)]]) == 2
        with pytest.raises(ValueError):
            rank([[1, 2], [3]])


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


def laplace_det(m):
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestCommonDenominator:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=10 ** 6), max_size=12),
           st.integers(0, 12))
    def test_numerators_over_the_lcm(self, values, cut):
        nums, steps, lcm = prefix_numerators(values)
        assert lcm == math.lcm(*(v.denominator for v in values))
        assert common_numerators(nums, steps) == (lcm,
                                                  [v * lcm for v in values])
        # extending a prefix gives the prefix of the whole
        head, tail = values[:cut], values[cut:]
        nums_h, steps_h, lcm_h = prefix_numerators(head)
        nums_t, steps_t, lcm_t = prefix_numerators(tail, lcm_h)
        assert (nums_h + nums_t, steps_h + steps_t, lcm_t) \
            == (nums, steps, lcm)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.fractions(-60, 60, max_denominator=40), st.integers(0, 40))
    @example(F(0), 0)
    @example(F(0), 7)
    @example(F(5, 3), 0)
    def test_exp_numerators(self, beta, order):
        # D is the lcm of the reduced denominators of beta^k/k!
        coeffs = [beta ** k / math.factorial(k) for k in range(order + 1)]
        d = math.lcm(*(c.denominator for c in coeffs))
        assert exp_numerators(beta, order) == (d, [c * d for c in coeffs])

    def test_exp_numerators_at_one(self):
        # the Taylor numerators of e^z that eval_exp reads
        for n in range(41):
            fac = math.factorial(n)
            assert exp_numerators(F(1), n) == (
                fac, [fac // math.factorial(k) for k in range(n + 1)])

    def test_exp_numerators_at_minus_one(self):
        for n in range(41):
            fac = math.factorial(n)
            assert exp_numerators(F(-1), n) == (
                fac, [(-1) ** k * fac // math.factorial(k)
                      for k in range(n + 1)])

    def test_exp_numerators_with_common_factor(self):
        # beta = 6/5 at order 4: the e_k = 6^k 5^(4-k) 4!/k! share
        # g = gcd(4!, 6^4) = 24, so D = 5^4 4!/24 = 625; beta^k/k! is
        # 1, 6/5, 18/25, 36/125, 54/625
        assert math.gcd(math.factorial(4), 6 ** 4) == 24
        assert exp_numerators(F(6, 5), 4) == (625, [625, 750, 450, 180, 54])


integer_matrices = st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-6, 6), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


class TestKernelProperties:
    # small entries, so dependent rows and zero columns occur
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(integer_matrices, st.data())
    def test_scaled_rows_and_annihilation(self, m, data):
        divisors = data.draw(st.lists(st.integers(1, 10 ** 6),
                                      min_size=len(m), max_size=len(m)))
        scaled = [[F(e, q) for e in row] for row, q in zip(m, divisors)]
        kernel = kernel_basis(m)
        assert kernel_basis(scaled) == kernel
        assert rank(scaled) == rank(m) == len(m[0]) - len(kernel)
        for vec in kernel:
            assert all(sum(e * v for e, v in zip(row, vec)) == 0
                       for row in m)


@st.composite
def vanishing_problems(draw):
    """(columns, n, tau) with m = 1..3 integer columns of length tau.  The
    columns share p leading zeros.  Each is random with entries up to 2^200,
    c a^k b^(tau-1-k) like an exp column over b^N N!, or small (so residuals
    tie and cancel); after the first, also zero or a multiple of an earlier
    one.  All of them may carry a common power of b."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    tau = draw(st.integers(1, m * (n + 1) + 1))
    p = min(draw(st.integers(0, 3)), tau - 1)
    b = draw(st.integers(1, 2 ** 40))
    columns = []
    for i in range(m):
        kind = draw(st.sampled_from(("big", "power", "small", "multiple",
                                     "zero")[:5 if i else 3]))
        if kind == "zero":
            body = [0] * (tau - p)
        elif kind == "multiple":
            c = draw(st.integers(-5, 5).filter(bool))
            body = [c * e for e in columns[draw(st.integers(0, i - 1))][p:]]
        elif kind == "power":
            a, c = draw(st.integers(-2 ** 20, 2 ** 20)), draw(st.integers(1, 9))
            body = [c * a ** k * b ** (tau - 1 - k) for k in range(tau - p)]
        else:
            bound = 2 ** 200 if kind == "big" else 2
            body = draw(st.lists(st.integers(-bound, bound),
                                 min_size=tau - p, max_size=tau - p))
        columns.append([0] * p + body)
    scale = b ** draw(st.integers(0, 3))
    return [[scale * e for e in col] for col in columns], n, tau


@st.composite
def echelon_spans(draw):
    """(span, width): a basis of a proper subspace of Q^width, drawn so that
    read right to left it reduces to echelon rows with pivot entries of
    2, 3, 4 or 6 (so that the row written for a free column may have content
    > 1) and entries in -2..2, often 0, at the free columns; the rows are
    then mixed by elementary row operations."""
    width = draw(st.integers(2, 8))
    pivots = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1,
                                 max_size=width - 1)))
    rows = []
    for p in pivots:
        row = [0] * width
        row[p] = draw(st.sampled_from((2, 3, 4, 6)))
        for c in range(p + 1, width):
            if c not in pivots:
                row[c] = draw(st.integers(-2, 2))
        rows.append(row)
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                        st.integers(0, len(rows) - 1)),
                              max_size=4)):
        if i != j:
            c = draw(st.integers(-3, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return [row[::-1] for row in rows], width


def _pivot_and_degree(vec, w):
    """(i, d) for d the largest degree of the blocks P_i of vec and i the
    last block of that degree."""
    degs = [max((nu for nu in range(w) if vec[i * w + nu]), default=-1)
            for i in range(len(vec) // w)]
    d = max(degs)
    return max(i for i, e in enumerate(degs) if e == d), d


class TestOrderBasisKernel:
    """auxiliary's order-basis route to the vanishing kernel against the
    Fraction elimination of the dense vanishing matrix."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(vanishing_problems())
    def test_matches_dense_kernel(self, problem):
        columns, n, tau = problem
        w = n + 1
        matrix = vanishing_matrix(columns, n, tau)
        kernel = ref_kernel(matrix)
        span = fresh_span(columns, n, tau)
        assert auxiliary._canonical_kernel(span, len(columns) * w) == kernel
        # a basis of the kernel in weak Popov form: the z^j b_l keep the
        # pivot block l of b_l, one vector per (pivot block, degree)
        assert len(span) == len(kernel)
        assert all(sum(map(operator.mul, row, vec)) == 0
                   for row in matrix for vec in span)
        pairs = [_pivot_and_degree(vec, w) for vec in span]
        assert len(set(pairs)) == len(pairs)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(echelon_spans())
    def test_any_kernel_basis_gives_the_dense_kernel(self, case):
        span, width = case
        matrix = [list(v) for v in ref_kernel(span)]
        assert auxiliary._canonical_kernel(span, width) == ref_kernel(matrix)

    def test_written_rows_not_primitive_and_zero_at_free_columns(self):
        # the span read right to left reduces to [2,0,1,0], [0,4,0,1]: each
        # row is zero at one free column, and with L = lcm(2, 4) the row
        # written for free column 2 is (-2, 0, 4, 0), of content 2
        echelon = [[2, 0, 1, 0], [0, 4, 0, 1]]
        span = [echelon[0][::-1],
                [a + b for a, b in zip(echelon[0][::-1], echelon[1][::-1])]]
        assert algebra._reduce_rows([v[::-1] for v in span]) \
            == (echelon, [0, 1])
        matrix = [list(v) for v in ref_kernel(span)]
        assert auxiliary._canonical_kernel(span, 4) == ref_kernel(matrix)

    def test_zero_matrix_gives_every_unit_vector(self):
        span = fresh_span([[0, 0, 0], [0, 0, 0]], 1, 3)
        assert auxiliary._canonical_kernel(span, 4) == [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_one_column(self):
        # P F = O(z^2) with F(0) != 0 forces P = c z^2
        span = fresh_span([[1, 1, 1]], 2, 2)
        assert span == [[0, 0, 1]]
        assert auxiliary._canonical_kernel(span, 3) == [(0, 0, 1)]

    def test_full_column_rank_has_no_span(self):
        span = fresh_span([[1, 2, 3, 5]], 1, 4)
        assert span == []
        assert auxiliary._canonical_kernel(span, 2) == []


class TestResumedOrderBasis:
    """One OrderBasis per system, resumed across (n, tau) requests, against
    a basis built for each request alone that drops its rows past degree
    n."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(vanishing_problems(), st.data())
    def test_resumed_spans_match_fresh(self, problem, data):
        # the requests ascend, repeat or descend in tau, and n moves freely,
        # so rows pass degree n; between requests the columns gain a common
        # factor, as they do when the store's denominator grows
        columns, n_top, tau_top = problem
        requests = data.draw(st.lists(
            st.tuples(st.integers(1, n_top + 2), st.integers(1, tau_top)),
            min_size=1, max_size=6))
        if data.draw(st.booleans()):
            requests.sort(key=lambda r: r[1])
        sys = SimpleNamespace(m=len(columns), _order_basis=None)
        scale = 1
        for n, tau in requests:
            scale *= data.draw(st.integers(1, 2 ** 64))
            scaled = [[scale * e for e in col] for col in columns]
            basis = auxiliary._system_order_basis(sys, scaled, tau)
            assert basis.order == tau
            span = basis.span(n)
            assert span == ref_truncated_span(columns, n, tau)
            assert span == fresh_span(columns, n, tau)

    def test_rows_past_degree_n_stay(self):
        # exp(z), exp(2z), exp(3z) over 9!: order 7 leaves one row of
        # degree 3, past n = 2, which a basis for n = 2 alone drops;
        # resuming to order 10 for n = 3 needs it
        columns = [[a ** k * math.factorial(9) // math.factorial(k)
                    for k in range(10)] for a in (1, 2, 3)]
        sys = SimpleNamespace(m=3, _order_basis=None)
        basis = auxiliary._system_order_basis(sys, columns, 7)
        assert basis.degs == [3, 2, 2]
        assert basis.span(2) == ref_truncated_span(columns, 2, 7)
        resumed = auxiliary._system_order_basis(sys, columns, 10)
        assert resumed is basis
        assert basis.span(3) == ref_truncated_span(columns, 3, 10)
        assert len(basis.span(3)) == 2

    def test_lower_order_starts_afresh(self):
        columns = [[1, 1, 1, 1], [1, 2, 4, 8]]
        sys = SimpleNamespace(m=2, _order_basis=None)
        first = auxiliary._system_order_basis(sys, columns, 4)
        again = auxiliary._system_order_basis(sys, columns, 4)
        lower = auxiliary._system_order_basis(sys, columns, 2)
        assert again is first and lower is not first
        assert lower.order == 2 and sys._order_basis is lower
        assert lower.span(1) == ref_truncated_span(columns, 1, 2)


class TestAgainstLaplaceExpansion:
    # small entries, so zero pivots, row swaps and singular matrices occur
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(square_matrices)
    def test_det_and_cofactors(self, m):
        n = len(m)
        assert det_exact(m) == laplace_det(m)
        for i in range(n):
            for j in range(n):
                minor = [row[:j] + row[j + 1:] for r, row in enumerate(m)
                         if r != i]
                assert cofactor(m, i, j) == (-1) ** (i + j) * laplace_det(minor)


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(*[st.lists(st.one_of(st.fractions(min_value=-20, max_value=20,
                                             max_denominator=6),
                                _near_prime_fracs), max_size=5)] * 3,
           st.booleans())
    def test_gcd_matches_fraction_euclid(self, common, a, b, lead_p):
        # also residues that collide modulo the prime of the coprimality
        # test, denominators it divides, and with lead_p a leading
        # coefficient it divides
        g, pa, pb = Poly(common), Poly(a), Poly(b)
        if lead_p and not pa.is_zero():
            pa = pa + Poly([0] * pa.degree + [(_PRIME - 1) * pa.leading()])
        x, y = g * pa, g * pb
        assert x.gcd(y) == ref_gcd(x, y)
        if not (x.is_zero() or y.is_zero()) \
                and algebra._coprime_mod_prime(x, y):
            assert ref_gcd(x, y) == Poly.one()

    def test_coprime_modulo_prime_cases(self):
        z, one = Poly([0, 1]), Poly.one()
        # coprime over Q, but z and z + p meet modulo p: Euclid decides
        assert not algebra._coprime_mod_prime(z, Poly([_PRIME, 1]))
        assert z.gcd(Poly([_PRIME, 1])) == one
        # the prime divides a leading coefficient: no verdict, as a common
        # factor p z + 1 is the constant 1 modulo p
        lead_p = Poly([1, _PRIME])
        assert not algebra._coprime_mod_prime(lead_p, z + one)
        assert lead_p.gcd(z + one) == one
        assert not algebra._coprime_mod_prime(lead_p, lead_p * z)
        assert lead_p.gcd(lead_p * z) == lead_p.monic()
        # a common factor is never taken for coprime
        shared = Poly([2, 3]) * Poly([F(1, 7), 5, 1])
        assert not algebra._coprime_mod_prime(shared, Poly([2, 3]) * z)
        assert shared.gcd(Poly([2, 3]) * z) == Poly([F(2, 3), 1])
        # high-order poles: coprime at once
        a = Poly([1, 1])
        b = Poly([2, 1])
        for _ in range(5):
            a, b = a * a, b * b
        assert algebra._coprime_mod_prime(a, b)
        assert a.gcd(b) == one == ref_gcd(a, b)

    def test_dilate_and_shift(self):
        p = Poly([1, 2, 3])
        assert p.dilate(F(1, 2)) == Poly([1, 1, F(3, 4)])

    def test_rational_canonicality(self):
        assert F(2, 4) == F(1, 2)
        assert F(-3, -6) == F(1, 2)
        assert F(5, -10).denominator == 2


small_fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
polys = st.lists(small_fracs, max_size=4).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, st.lists(small_fracs, max_size=3).map(Poly),
                     st.lists(small_fracs, min_size=1, max_size=3)
                     .map(Poly).filter(lambda p: not p.is_zero()))


class TestRingLaws:
    """Poly and RatFunc are commutative rings with the usual identities."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(polys, polys, polys)
    def test_poly(self, a, b, c):
        zero, one = Poly.zero(), Poly.one()
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and (a * zero).is_zero()
        assert (a - a).is_zero() and -(-a) == a and a - b == -(b - a)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(ratfuncs, ratfuncs, ratfuncs)
    def test_ratfunc(self, f, g, h):
        zero, one = RatFunc.zero(), RatFunc.constant(1)
        assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
        assert f + g == g + f and f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + zero == f and f * one == f and (f * zero).is_zero()
        assert (f - f).is_zero() and -(-f) == f

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(polys, nonzero_polys, polys)
    def test_ratfunc_of_polys(self, p, q, r):
        # p/q + r = (p + q r)/q, and a polynomial is its own quotient by 1
        assert RatFunc(p, q) + RatFunc(r) == RatFunc(p + q * r, q)
        assert RatFunc(r).is_polynomial() and RatFunc(r).to_poly() == r


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(Poly([-1, 0, 1]), Poly([1, 1]))   # (z^2-1)/(z+1) = z-1
        assert f.is_polynomial()
        assert f.to_poly() == Poly([-1, 1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly([1]), Poly([]))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(polys, nonzero_polys, nonzero_polys)
    def test_matches_euclid_normalisation(self, p, q, common):
        # the Euclid is skipped when num or denom is a nonzero constant
        for num, denom in ((p, q), (common * p, common * q)):
            g = num.gcd(denom)
            ref_num, ref_denom = num.divmod(g)[0], denom.divmod(g)[0]
            lead = ref_denom.leading()
            f = RatFunc(num, denom)
            assert (f.num, f.denom) \
                == (ref_num.scale(1 / lead), ref_denom.scale(1 / lead))


    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(polys, nonzero_polys, polys, nonzero_polys, nonzero_polys)
    @example(Poly([1]), Poly([0, 1, 1]), Poly([1]), Poly([0, -1, 1]),
             Poly([1, 1]))
    def test_sum_matches_the_normalised_cross_product(self, p, q, r, s,
                                                      common):
        # sums with coprime denominators, with a shared factor, and with a
        # shared factor that the numerator cancels in part or in full; the
        # example is 1/(z(z+1)) + 1/(z(z-1)) = 2/(z(z^2 - 1))
        for f, g in ((RatFunc(p, q), RatFunc(r, s)),
                     (RatFunc(p, q * common), RatFunc(r, s * common)),
                     (RatFunc(p, q * common), RatFunc(-p, q * common)),
                     (RatFunc(p, q * common), RatFunc(r * q, q * common))):
            total = f + g
            ref = RatFunc(f.num * g.denom + g.num * f.denom,
                          f.denom * g.denom)
            assert (total.num, total.denom) == (ref.num, ref.denom)
            if ref.is_zero():
                assert total == RatFunc.zero()
