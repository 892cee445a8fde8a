"""Auxiliary polynomial construction.

Given a system with m components and a degree bound n, find integer
polynomials P_1..P_m of degree <= n, not all zero, such that

    R := sum_i P_i f_i      vanishes at 0 to order >= tau,
    tau = m(n+1) - floor(eps1 n) - 1,       0 < eps1 < 1/(2m-1).

The vanishing conditions are tau exact linear equations in the m(n+1)
coefficients, so a nontrivial kernel always exists.  The kernel is found as
a Hermite-Pade problem: an order basis of the integer Taylor columns at
order tau, whose multiples of degree <= n span it, costs O(m tau) integer
row operations instead of a dense tau x m(n+1) elimination.  The basis
never drops a row, so it does not depend on n: each system keeps one
(OrderBasis) and construct resumes it from the order it last reached, so
the adaptive loop over n = 1, 2, ... processes each order once.  Its span
at degree n is exactly that of a basis built for n alone (see OrderBasis).
That span is then put back into the canonical basis of the dense route
(primitive kernel vectors from the reduced row echelon form of the
vanishing matrix): one fraction-free elimination of the span read right to
left gives a row basis of the matrix in echelon form, and one kernel_basis
of that basis the canonical kernel (_canonical_kernel).  The basis vector
of least max-norm (ties broken lexicographically) is returned.
The achieved order of vanishing is then computed, not assumed, by extending
the series until a nonzero coefficient appears.

The remainder R comes with a rigorous tail record: writing R = sum r_nu z^nu
and using |phi_{k,i}| <= C^(k+1) from the growth certificate,

    |r_nu| <= m (n+1) B Chat^(nu+1) / (nu - n)!     for nu > n,

with B the max coefficient modulus of the P_i and Chat = C, which the growth
certificate keeps >= 1: each of the m(n+1) terms b_{i,j} phi_{nu-j,i}/(nu-j)!
is at most B Chat^(nu+1)/(nu-n)!.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import (Poly, Rational, _kernel_vectors, _primitive,
                      _reduce_rows, kernel_basis)
from .efunction import DiffSystem
from .errors import InputError, MissingGrowthCertificate

_ACHIEVED_SEARCH_SLACK = 8


def default_eps1(m: int) -> Fraction:
    return Fraction(1, 2 * m)


def validate_eps1(m: int, eps1: Rational | None) -> Fraction:
    """eps1 as a Fraction, default_eps1(m) when None; InputError unless
    0 < eps1 < 1/(2m-1)."""
    eps1 = default_eps1(m) if eps1 is None else Fraction(eps1)
    if not 0 < eps1.numerator * (2 * m - 1) < eps1.denominator:
        raise InputError(
            f"eps1 must lie in (0, 1/{2 * m - 1}) for m={m}, got {eps1}")
    return eps1


def vanishing_order_target(m: int, n: int, eps1: Rational) -> int:
    """tau = m(n+1) - floor(eps1 n) - 1."""
    eps1 = validate_eps1(m, eps1)
    return m * (n + 1) - math.floor(eps1 * n) - 1


@dataclass(frozen=True)
class AuxiliaryBasis:
    """Integer polynomials P_1..P_m with ord_0(sum P_i f_i) >= tau.

    The P_i are stored once, as int_polys: integer coefficient tuples in
    ascending degree without trailing zeros; polys is their Poly view, built
    on access.  achieved_order is the exact vanishing order when
    achieved_exact is True; otherwise the search hit its limit and the order
    is >= achieved_order.  height is the max coefficient modulus over all
    P_i.

    Left out of == and repr, it keeps its system and the coefficients r_nu
    of R = sum P_i f_i found so far as [D, [D r_0, D r_1, ...]], D a
    denominator of the integer columns, which the ladder's first identity
    check and the remainder extend in place (_remainder_upto).
    """

    n: int
    eps1: Fraction
    tau: int
    int_polys: tuple[tuple[int, ...], ...]
    achieved_order: int
    achieved_exact: bool
    height: int
    _system: DiffSystem = field(compare=False, repr=False)
    _r: list = field(compare=False, repr=False)

    @property
    def polys(self) -> tuple[Poly, ...]:
        return tuple(Poly(p) for p in self.int_polys)

    @property
    def m(self) -> int:
        return len(self.int_polys)


def _trimmed(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The integer coefficients without trailing zeros, as Poly trims."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _combination(polys: Sequence[Sequence[int]],
                 columns: Sequence[Sequence[int]], start: int, stop: int
                 ) -> list[int]:
    """Coefficients start..stop-1 of sum_i P_i F_i for integer coefficient
    lists P_i and integer series F_i, each F_i known to order stop-1.

    Each nonzero coefficient c = P_i[j] adds c F_i shifted by j into the
    window in one multiply-add pass over slices, so the cost follows the
    nonzero coefficients of the P_i, not the window length.
    """
    out = [0] * (stop - start)
    for p, col in zip(polys, columns):
        if len(col) < stop:
            raise ValueError(f"a column holds {len(col)} coefficients, "
                             f"fewer than {stop}")
        for j, c in enumerate(p[:stop]):
            if c:
                lo = max(start, j)
                out[lo - start:] = map(operator.add, out[lo - start:],
                                       map(c.__mul__, col[lo - j:stop - j]))
    return out


def check_system(basis: AuxiliaryBasis, sys: DiffSystem):
    """InputError unless sys is the system the basis was constructed for."""
    if sys != basis._system:
        raise InputError("the system differs from the one the auxiliary "
                         "basis was constructed for")


def _remainder_upto(basis: AuxiliaryBasis, d: int,
                    columns: Sequence[Sequence[int]], order: int) -> list[int]:
    """R's coefficients D r_0..D r_order over D, given the integer columns
    of the basis's system to the order over their denominator D, as the
    caller holds them (remainder, and the ladder's first identity check):
    only the coefficients the basis's store lacks are computed, and kept in
    it.  The store's denominator and D are prefix lcms of the same column
    denominators, so one divides the other."""
    r_d, r = basis._r
    if len(r) <= order:
        e = math.lcm(r_d, d)
        new = _combination(basis.int_polys, columns, len(r), order + 1)
        r[:] = [c * (e // r_d) for c in r] + [c * (e // d) for c in new]
        basis._r[0] = r_d = e
    scale = r_d // d
    return [c // scale for c in r[:order + 1]]


class OrderBasis:
    """An order basis of integer Taylor columns F_1..F_m, resumed order by
    order: after advance(columns, tau) its rows b_l satisfy
    ord_0(b_l . F) >= tau, and span(n) reads off a basis of the vectors P
    (P_i[nu] at index i(n+1) + nu, deg P_i <= n) with ord_0(sum_i P_i F_i)
    >= tau.

    M-Basis with a uniform shift (Beckermann & Labahn, SIAM J. Matrix Anal.
    Appl. 15, 1994; Giorgi, Jeannerod & Villard, ISSAC 2003): start from the
    m unit rows; at each order k divide the residuals (the z^k coefficients
    of b_l . F) by their gcd, take as pivot the row with a nonzero residual
    and the least (degree, index), replace every other such row b_l by
    r_pi b_l - r_l b_pi made primitive, and multiply the pivot by z.  The
    rows stay in weak Popov form, the top-degree part of b_l ending in block
    l, with their degrees as counted, so by the predictable-degree property
    the z^j b_l, j <= n - deg b_l, are a basis of the degree-n solutions.

    No row is ever dropped, so one basis serves every n: the rows of degree
    <= n evolve exactly as they would in a basis that dropped each row once
    its degree passed n.  A row of degree > n pivots only when no row of
    degree <= n has a nonzero residual, and then it changes only rows of
    degree >= its own.  Otherwise the pivot is the same row, and g, the gcd
    of a larger set of residuals, divides the dropping basis's g, so each
    new row is a positive multiple of the one that basis forms, and the
    primitive part cancels the factor.  The columns may be brought to a
    larger common denominator between calls: that scales every residual of
    one order by the same factor, which the division by g cancels.

    A row is kept interleaved, P_i[nu] at index nu m + i, so that one slice
    of the reversed, interleaved columns holds every F_i[k - nu] a residual
    needs, and multiplying by z shifts the row by m.
    """

    __slots__ = ("rows", "degs", "order")

    def __init__(self, m: int):
        self.rows = [[int(i == l) for i in range(m)] for l in range(m)]
        self.degs = [0] * m
        self.order = 0

    def advance(self, columns: Sequence[Sequence[int]], tau: int):
        """Process the orders from self.order up to tau - 1; the columns
        hold F_i[0..tau-1] at least."""
        if tau <= self.order:
            return
        rows, degs = self.rows, self.degs
        m = len(rows)
        series = [0] * (m * tau)         # series[(tau-1-k) m + i] = F_i[k]
        for i, col in enumerate(columns):
            series[i::m] = col[:tau][::-1]
        for top in range((tau - 1 - self.order) * m, -1, -m):
            # row l has m(deg b_l + 1) entries, deg b_l <= k, so the window
            # stays inside the series
            window = series[top:top + m * (max(degs) + 1)]
            res = {}
            for l, row in enumerate(rows):
                r = sum(map(operator.mul, row, window))
                if r:
                    res[l] = r
            if not res:
                continue
            g = math.gcd(*res.values())
            pi = min(res, key=degs.__getitem__)   # least (degree, index)
            bp, rp = rows[pi], res.pop(pi) // g
            for l, r in res.items():       # deg b_l >= deg b_pi
                r //= g
                row = rows[l]
                rows[l] = _primitive([rp * a - r * b for a, b in zip(row, bp)]
                                     + [rp * a for a in row[len(bp):]])
            degs[pi] += 1
            rows[pi] = [0] * m + bp
        self.order = tau

    def span(self, n: int) -> list[list[int]]:
        """The z^j b_l, j <= n - deg b_l, over the rows of degree <= n, as
        vectors P_i[nu] at index i(n+1) + nu."""
        m = len(self.rows)
        size = m * (n + 1)
        out = []
        for row, d in zip(self.rows, self.degs):
            for j in range(n - d + 1):
                shifted = [0] * (j * m) + row
                shifted += [0] * (size - len(shifted))
                out.append([e for i in range(m) for e in shifted[i::m]])
        return out


def _system_order_basis(sys: DiffSystem, columns: Sequence[Sequence[int]],
                        tau: int) -> OrderBasis:
    """The system's OrderBasis advanced to order tau: resumed from the
    order it reached, or started afresh when that is past tau."""
    basis = sys._order_basis
    if basis is None or basis.order > tau:
        basis = sys._order_basis = OrderBasis(sys.m)
    basis.advance(columns, tau)
    return basis


def _canonical_kernel(span: list[list[int]], width: int
                      ) -> list[tuple[int, ...]]:
    """kernel_basis of the vanishing matrix, from a basis of its kernel.

    One fraction-free elimination (algebra._reduce_rows) of the span read
    right to left gives its echelon rows row_r with pivots p_r, and
    algebra._kernel_vectors, the rule kernel_basis writes its own vectors
    with, one kernel vector of the reversed span per free column phi:
    x_phi = L and x_{p_r} = -row_r[phi] L / row_r[p_r], L the lcm of all
    pivot entries.  Read back, it is a row-space vector of the matrix,
    nonzero at the matrix's pivot width - 1 - phi and zero at its other
    pivots.  With the vectors taken in reverse, that is a row basis already
    in echelon form, not made primitive, and kernel_basis of it, which
    depends only on the row space, does no row operations and returns the
    matrix's own kernel basis.  A zero matrix has every unit vector.
    """
    if not span:
        return []
    rows, pivots = _reduce_rows([v[::-1] for v in span])
    basis = [v[::-1] for v in reversed(_kernel_vectors(rows, pivots, width))]
    return kernel_basis(basis or [[0] * width])


def construct(sys: DiffSystem, n: int, eps1: Rational | None = None
              ) -> AuxiliaryBasis:
    """Solve the vanishing conditions exactly through an order basis and
    pick the smallest vector (max-norm, then lexicographic) of the canonical
    kernel basis as the auxiliary basis.

    The order basis is the system's own, advanced to tau(n) from the order
    an earlier call left it at (afresh when that is past tau(n)); its rows
    of degree <= n give the same span as a basis built for n alone, so the
    result does not depend on the calls before."""
    if n < 1:
        raise InputError("construct requires n >= 1")
    m = sys.m
    eps1 = validate_eps1(m, eps1)
    tau = vanishing_order_target(m, n, eps1)
    limit = tau + m * (n + 1) + _ACHIEVED_SEARCH_SLACK
    d, ext = sys.integer_coefficients(limit)
    span = _system_order_basis(sys, ext, tau).span(n)
    kernel = _canonical_kernel(span, m * (n + 1))
    if not kernel:
        raise AssertionError(
            "vanishing system has full column rank; dimension count violated")
    vec = min(kernel, key=lambda v: (max(map(abs, v)), v))
    ints = tuple(_trimmed(vec[i * (n + 1):(i + 1) * (n + 1)])
                 for i in range(m))

    r = _combination(ints, ext, 0, tau)
    for k, c in enumerate(r):
        if c:
            raise AssertionError(f"vanishing condition failed at order {k}")
    while len(r) <= limit and not any(r[tau:]):
        r += _combination(ints, ext, len(r), len(r) + 1)
    exact = any(r[tau:])
    return AuxiliaryBasis(n=n, eps1=eps1, tau=tau, int_polys=ints,
                          achieved_order=len(r) - 1 if exact else limit + 1,
                          achieved_exact=exact,
                          height=max(map(abs, vec)), _system=sys, _r=[d, r])


@dataclass(frozen=True)
class RemainderSeries:
    """Exact leading coefficients of R plus a factorial-decay tail record.

    R stays on integers: numerators[nu] / denominator is the coefficient of
    z^nu for nu <= cutoff, over the denominator D of the system's integer
    columns to the cutoff.  For nu beyond the cutoff, tail_bound(nu)
    majorizes |coefficient of z^nu|.
    """

    denominator: int
    numerators: tuple[int, ...]
    cutoff: int
    m: int
    n: int
    height: int
    c_hat: Fraction

    def tail_bound(self, nu: int) -> Fraction:
        if nu <= self.n:
            raise ValueError(f"tail bound needs nu > n = {self.n}")
        return (self.m * (self.n + 1) * self.height
                * self.c_hat ** (nu + 1) / math.factorial(nu - self.n))


def remainder(basis: AuxiliaryBasis, sys: DiffSystem, cutoff: int
              ) -> RemainderSeries:
    """Exact coefficients of R up to the cutoff with the certified tail."""
    if cutoff < basis.tau:
        raise InputError(f"cutoff {cutoff} below vanishing target {basis.tau}")
    if cutoff < basis.achieved_order and basis.achieved_exact:
        raise InputError(
            f"cutoff {cutoff} below achieved vanishing order "
            f"{basis.achieved_order}")
    if sys.growth is None:
        raise MissingGrowthCertificate("remainder tail needs a growth certificate")
    check_system(basis, sys)
    d, columns = sys.integer_coefficients(cutoff)
    nums = _remainder_upto(basis, d, columns, cutoff)
    return RemainderSeries(denominator=d, numerators=tuple(nums),
                           cutoff=cutoff, m=sys.m, n=basis.n,
                           height=basis.height,
                           c_hat=sys.growth.C)
