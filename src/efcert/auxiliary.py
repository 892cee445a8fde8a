"""Auxiliary polynomial construction.

Given a system with m components and a degree bound n, find integer
polynomials P_1..P_m of degree <= n, not all zero, such that

    R := sum_i P_i f_i      vanishes at 0 to order >= tau,
    tau = m(n+1) - floor(eps1 n) - 1,       0 < eps1 < 1/(2m-1).

The vanishing conditions are tau exact linear equations in the m(n+1)
coefficients, so a nontrivial kernel always exists.  The kernel is found as
a Hermite-Pade problem: an order basis of the integer Taylor columns at
order tau, whose multiples of degree <= n span it, costs O(m tau) integer
row operations instead of a dense tau x m(n+1) elimination.  That span is
then put back into the canonical basis of the dense route (primitive kernel
vectors from the reduced row echelon form of the vanishing matrix), and the
basis vector of least max-norm (ties broken lexicographically) is returned.
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

from .algebra import Poly, Rational, _primitive, kernel_basis
from .efunction import DiffSystem
from .errors import InputError, MissingGrowthCertificate

_ACHIEVED_SEARCH_SLACK = 8


def default_eps1(m: int) -> Fraction:
    return Fraction(1, 2 * m)


def validate_eps1(m: int, eps1: Rational | None) -> Fraction:
    """eps1 as a Fraction, default_eps1(m) when None; InputError unless
    0 < eps1 < 1/(2m-1)."""
    eps1 = default_eps1(m) if eps1 is None else Fraction(eps1)
    if not 0 < eps1 < Fraction(1, 2 * m - 1):
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

    achieved_order is the exact vanishing order when achieved_exact is True;
    otherwise the search hit its limit and the order is >= achieved_order.
    height is the max coefficient modulus over all P_i.

    Left out of == and repr, it keeps its system, the P_i as integer tuples
    (int_polys) and the coefficients r_nu of R = sum P_i f_i found so far as
    [D, [D r_0, D r_1, ...]], D a denominator of the integer columns, which
    the ladder check and the remainder extend in place.
    """

    n: int
    eps1: Fraction
    tau: int
    polys: tuple[Poly, ...]
    achieved_order: int
    achieved_exact: bool
    height: int
    _system: DiffSystem = field(compare=False, repr=False)
    int_polys: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    _r: list = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.polys)


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


def _remainder_upto(basis: AuxiliaryBasis, sys: DiffSystem, order: int
                    ) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """(D, columns, D r_0..D r_order): the integer columns to the order over
    their denominator D, and R's coefficients over D, computing only those
    the basis lacks.  The store's denominator and D are prefix lcms of the
    same column denominators, so one divides the other."""
    check_system(basis, sys)
    d, columns = sys.integer_coefficients(order)
    r_d, r = basis._r
    if len(r) <= order:
        e = math.lcm(r_d, d)
        new = _combination(basis.int_polys, columns, len(r), order + 1)
        r[:] = [c * (e // r_d) for c in r] + [c * (e // d) for c in new]
        basis._r[0] = r_d = e
    scale = r_d // d
    return d, columns, [c // scale for c in r[:order + 1]]


def _vanishing_span(columns: Sequence[Sequence[int]], n: int, tau: int
                    ) -> list[list[int]]:
    """A basis of the vectors P (P_i[nu] at index i(n+1) + nu, deg P_i <= n)
    with ord_0(sum_i P_i F_i) >= tau, from an order basis of the columns.

    M-Basis with a uniform shift (Beckermann & Labahn, SIAM J. Matrix Anal.
    Appl. 15, 1994; Giorgi, Jeannerod & Villard, ISSAC 2003): start from the
    m unit rows; at each order k < tau divide the residuals (the z^k
    coefficients of b_l . F) by their gcd, take as pivot the row with a
    nonzero residual and the least (degree, index), replace every other such
    row b_l by r_pi b_l - r_l b_pi made primitive, and multiply the pivot by
    z.  A row whose degree passes n can no longer contribute and is dropped.
    The rows stay in weak Popov form, the top-degree part of b_l ending in
    block l, with their degrees as counted, so by the predictable-degree
    property the z^j b_l, j <= n - deg b_l, are a basis.

    A row is kept interleaved, P_i[nu] at index nu m + i, so that one slice
    of the reversed, interleaved columns holds every F_i[k - nu] a residual
    needs, and multiplying by z shifts the row by m.
    """
    m, size = len(columns), len(columns) * (n + 1)
    series = [0] * (m * (tau + n))   # series[(tau-1-k) m + i] = F_i[k], then 0
    for i, col in enumerate(columns):
        series[i:m * tau:m] = col[:tau][::-1]
    rows = {}
    for l in range(m):
        rows[l] = [0] * size
        rows[l][l] = 1
    degs = [0] * m
    for top in range((tau - 1) * m, -1, -m):        # top = (tau-1-k) m
        window = series[top:top + size]
        res = {}
        for l, row in rows.items():
            r = sum(map(operator.mul, row, window))
            if r:
                res[l] = r
        if not res:
            continue
        g = math.gcd(*res.values())
        pi = min(res, key=degs.__getitem__)   # least (degree, index)
        bp, rp = rows[pi], res.pop(pi) // g
        for l, r in res.items():
            r //= g
            rows[l] = _primitive([rp * a - r * b for a, b in zip(rows[l], bp)])
        degs[pi] += 1
        if degs[pi] > n:
            del rows[pi]
        else:      # the degree-n slots of bp are 0, so the shift drops zeros
            rows[pi] = [0] * m + bp[:-m]
    span = []
    for l, row in rows.items():
        for j in range(n - degs[l] + 1):
            shifted = [0] * (j * m) + row[:size - j * m]
            span.append([e for i in range(m) for e in shifted[i::m]])
    return span


def _canonical_kernel(span: list[list[int]], width: int
                      ) -> list[tuple[int, ...]]:
    """kernel_basis of the vanishing matrix, from a basis of its kernel.

    The kernel of the span read right to left gives, read back, one row-space
    vector per pivot of the matrix (pivots taken left to right), nonzero at
    its pivot and zero at the others: a multiple of its reduced row echelon
    row.  kernel_basis of those rows does no row operations and returns the
    matrix's own kernel basis.  A zero matrix has every unit vector.
    """
    if not span:
        return []
    rref = [d[::-1] for d in reversed(kernel_basis([v[::-1] for v in span]))]
    return kernel_basis(rref or [[0] * width])


def construct(sys: DiffSystem, n: int, eps1: Rational | None = None
              ) -> AuxiliaryBasis:
    """Solve the vanishing conditions exactly through an order basis and
    pick the smallest vector (max-norm, then lexicographic) of the canonical
    kernel basis as the auxiliary basis."""
    if n < 1:
        raise InputError("construct requires n >= 1")
    m = sys.m
    eps1 = validate_eps1(m, eps1)
    tau = vanishing_order_target(m, n, eps1)
    limit = tau + m * (n + 1) + _ACHIEVED_SEARCH_SLACK
    d, ext = sys.integer_coefficients(limit)
    kernel = _canonical_kernel(_vanishing_span(ext, n, tau), m * (n + 1))
    if not kernel:
        raise AssertionError(
            "vanishing system has full column rank; dimension count violated")
    vec = min(kernel, key=lambda v: (max(abs(e) for e in v), v))
    polys = tuple(Poly(vec[i * (n + 1):(i + 1) * (n + 1)]) for i in range(m))
    ints = tuple(tuple(c.numerator for c in p.coeffs) for p in polys)

    r = _combination(ints, ext, 0, tau)
    for k, c in enumerate(r):
        if c:
            raise AssertionError(f"vanishing condition failed at order {k}")
    while len(r) <= limit and not any(r[tau:]):
        r += _combination(ints, ext, len(r), len(r) + 1)
    exact = any(r[tau:])
    return AuxiliaryBasis(n=n, eps1=eps1, tau=tau, polys=polys,
                          achieved_order=len(r) - 1 if exact else limit + 1,
                          achieved_exact=exact,
                          height=max(abs(e) for e in vec), _system=sys,
                          int_polys=ints, _r=[d, r])


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
    d, _, nums = _remainder_upto(basis, sys, cutoff)
    return RemainderSeries(denominator=d, numerators=tuple(nums),
                           cutoff=cutoff, m=sys.m, n=basis.n,
                           height=basis.height,
                           c_hat=sys.growth.C)
