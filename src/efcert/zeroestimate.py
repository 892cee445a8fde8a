"""Local exponent data at singular points and the rank-threshold bound.

The ladder of derived forms is guaranteed to contain m independent forms
once the construction degree passes a threshold n0.  That threshold is
bounded by

    n0 <= 2 (q+1) m^2 (E_ceil + (q+1) m + 1)

where E_ceil is an integer upper bound for the maximal modulus of the
(generalized) local exponents of the system at its finite singularities and
at infinity.  Where A has at most a simple pole, the exponents are the
eigenvalues of the residue matrix, reported as rational roots of its
characteristic polynomial plus a Cauchy modulus bound for any irrational
remainder.  Each entry's pole order and residue are read off its reduced
numerator N and denominator D in closed form: at a rational a from the
multiplicity of a in D and N(a), at infinity from deg N - deg D and the
leading coefficients.  Worse poles consume user or catalog supplied modulus
bounds: no Newton-polygon machinery is attempted at irregular points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .algebra import Poly, RatFunc, Rational
from .efunction import DiffSystem, extract_params
from .errors import (InputError, IrregularSingularPoint,
                     MissingExponentBound)

INFINITY = "infinity"


@dataclass(frozen=True)
class N0Bound:
    """The rank threshold bound together with the inputs that produced it."""

    value: int
    m: int
    q: int
    exponent_ceiling: int
    points: tuple[PointExponents, ...] = ()   # set by n0_for_system


def n0_bound(m: int, q: int, exponent_ceiling: int) -> N0Bound:
    """2 (q+1) m^2 (E + (q+1) m + 1) with E an integer exponent bound."""
    if m < 1 or q < 0 or exponent_ceiling < 0:
        raise InputError("n0_bound requires m >= 1, q >= 0, exponent bound >= 0")
    value = 2 * (q + 1) * m * m * (exponent_ceiling + (q + 1) * m + 1)
    return N0Bound(value=value, m=m, q=q, exponent_ceiling=exponent_ceiling)


# ---------------------------------------------------------------------------
# Indicial exponents at a simple pole
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicialData:
    """Exponents of the system at one point.

    ``exponents`` lists the rational eigenvalues of the residue matrix;
    ``residual_degree``/``residual_bound`` describe the factor of the
    characteristic polynomial with no rational root (irrational eigenvalues
    are only tracked through a modulus bound).  ``ordinary`` is set when the
    point is not a singularity at all, with everything else empty.
    """

    point: str
    ordinary: bool
    exponents: tuple[Fraction, ...]
    residual_degree: int
    residual_bound: Fraction | None

    @property
    def max_modulus(self) -> Fraction:
        best = Fraction(0)
        for e in self.exponents:
            best = max(best, abs(e))
        if self.residual_bound is not None:
            best = max(best, self.residual_bound)
        return best


def _char_poly(matrix: Sequence[Sequence[Fraction]]) -> Poly:
    """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier."""
    m = len(matrix)
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[m] = Fraction(1)
    work = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        for i in range(m):
            work[i][i] += coeffs[m - k + 1]
        nxt = [[sum(matrix[i][r] * work[r][j] for r in range(m))
                for j in range(m)] for i in range(m)]
        trace = sum(nxt[i][i] for i in range(m))
        coeffs[m - k] = -trace / k
        work = nxt
    return Poly(coeffs)


def _rational_roots(p: Poly) -> tuple[list[Fraction], Poly]:
    """All rational roots (with multiplicity, ascending) and the primitive
    root-free cofactor.

    A rational root of the primitive square-free part has a denominator
    dividing its leading coefficient L, and two such rationals differ by at
    least 1/L^2.  So each real root is enclosed in an interval of width below
    1/(2L^2), and the rational with denominator <= L nearest to it, the only
    candidate, is tested exactly.  No divisor of a coefficient is enumerated.
    """
    prim = p.primitive()
    zeros = prim.valuation() or 0
    roots = [Fraction(0)] * zeros
    prim = Poly(prim.coeffs[zeros:])
    if prim.degree < 1:
        return roots, prim
    square_free = prim.divmod(prim.gcd(prim.derivative()))[0].primitive()
    coeffs = [int(c) for c in square_free.coeffs]
    lead = abs(coeffs[-1])
    width = Fraction(1, 2 * lead * lead)
    found = set()
    for sign in (1, -1):
        mirrored = [c * sign ** i for i, c in enumerate(coeffs)]
        for x in _positive_root_points(mirrored, width):
            cand = sign * x.limit_denominator(lead)
            if square_free(cand) == 0:
                found.add(cand)
    for root in found:
        while prim(root) == 0:
            roots.append(root)
            prim = prim.divmod(Poly((-root, 1)))[0].primitive()
    return sorted(roots), prim


def _positive_root_points(coeffs: list[int], width: Fraction
                          ) -> list[Fraction]:
    """One point closer than width to each positive root of a square-free
    integer polynomial (coefficients from degree 0 up, constant term
    nonzero).

    Descartes' rule of signs with bisection (Collins & Akritas, SYMSAC
    1976): all roots lie in (0, 2^e) by the Cauchy bound; q(x) = s(2^e x)
    has them in (0, 1), where the sign changes of (x+1)^d q(1/(x+1)) bound
    their number from above and equal it when they are 0 or 1.  Intervals
    are halved until each holds one root and is narrower than width.
    """
    lead = abs(coeffs[-1])
    e = (2 + max(abs(c) for c in coeffs[:-1]) // lead).bit_length()
    points = []
    stack = [([c << (e * i) for i, c in enumerate(coeffs)], 0, 0)]
    while stack:
        q, c, j = stack.pop()
        changes = _sign_changes(_shift_by_one(q[::-1]))
        if changes == 0:
            continue
        if changes == 1 and Fraction(1 << e, 1 << j) < width:
            points.append(Fraction(c << e, 1 << j))
            continue
        d = len(q) - 1
        left = [a << (d - i) for i, a in enumerate(q)]
        right = _shift_by_one(left)
        if right[0] == 0:
            points.append(Fraction((2 * c + 1) << e, 1 << (j + 1)))
            right = right[1:]
        stack += [(left, 2 * c, j + 1), (right, 2 * c + 1, j + 1)]
    return points


def _shift_by_one(coeffs: list[int]) -> list[int]:
    """Coefficients of q(x + 1) from those of q, degree 0 first."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += out[k + 1]
    return out


def _sign_changes(coeffs: list[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _cauchy_bound(p: Poly) -> Fraction:
    """1 + max |c_i / c_d|: every root has modulus below this."""
    lead = abs(p.leading())
    return 1 + max(abs(c) / lead for c in p.coeffs[:-1])


def _pole_residue(entry: RatFunc, point: Fraction | str
                  ) -> tuple[int, Fraction]:
    """(pole order, residue) of a reduced entry N/D of A at a rational point
    or at infinity; the residue is that of a simple pole, and 0 otherwise.

    At a rational a the order is the multiplicity of a in D, found by
    repeated synthetic division by z - a (linear in deg D per unit of
    multiplicity), and for D = (z - a) R the residue is N(a)/R(a).  At
    infinity the system in w = 1/z has the matrix -w^-2 A(1/w): the order is
    max(0, deg N - deg D + 2), and a simple pole has residue -lc(N)/lc(D).
    """
    num, denom = entry.num, entry.denom
    if num.is_zero():
        return 0, Fraction(0)
    if point == INFINITY:
        order = max(0, num.degree - denom.degree + 2)
        if order != 1:
            return order, Fraction(0)
        return order, -num.leading() / denom.leading()
    order, coeffs = 0, denom.coeffs
    while True:
        value, quotient = Fraction(0), []
        for c in reversed(coeffs):
            value = value * point + c
            quotient.append(value)
        if value:
            break
        order += 1
        coeffs = quotient[-2::-1]
    # value is what is left of D, at a: R(a) when the order is 1
    return order, num(point) / value if order == 1 else Fraction(0)


def indicial_exponents(sys: DiffSystem, point: Rational | str) -> IndicialData:
    """Exponents of the system at a finite rational point or at "infinity".

    The point must either be ordinary (empty result) or a simple pole of A
    (exponents are the residue matrix eigenvalues); anything worse raises
    IrregularSingularPoint, in which case the caller must supply a modulus
    bound.
    """
    if point != INFINITY:
        point = Fraction(point)
    poles = [[_pole_residue(entry, point) for entry in row] for row in sys.A]
    worst = max(order for row in poles for order, _ in row)
    if worst == 0:
        return IndicialData(point=str(point), ordinary=True, exponents=(),
                            residual_degree=0, residual_bound=None)
    if worst > 1:
        raise IrregularSingularPoint(
            f"pole of order {worst} at {point}: supply an exponent bound")
    residue = [[res for _, res in row] for row in poles]
    roots, rest = _rational_roots(_char_poly(residue))
    bound = _cauchy_bound(rest) if rest.degree >= 1 else None
    return IndicialData(point=str(point), ordinary=False, exponents=tuple(roots),
                        residual_degree=max(rest.degree, 0), residual_bound=bound)


# ---------------------------------------------------------------------------
# Assembling the exponent ceiling for a system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointExponents:
    point: str
    kind: str              # "regular" | "irregular" | "ordinary" | "user"
    data: IndicialData | None
    user_bound: Fraction | None

    @property
    def modulus(self) -> Fraction:
        vals = [Fraction(0)]
        if self.data is not None:
            vals.append(self.data.max_modulus)
        if self.user_bound is not None:
            vals.append(self.user_bound)
        return max(vals)


@dataclass(frozen=True)
class ExponentData:
    """Per-point exponent information covering every finite singularity of
    the system (roots of T) and the point at infinity."""

    entries: tuple[PointExponents, ...]

    @property
    def max_modulus(self) -> Fraction:
        return max((e.modulus for e in self.entries), default=Fraction(0))

    @property
    def ceiling(self) -> int:
        return math.ceil(self.max_modulus)


def exponent_data(sys: DiffSystem) -> ExponentData:
    """Collect exponents at all rational roots of T, any irrational T factor,
    and infinity, filling gaps from the system's exponent_bound table.

    A "global" key in exponent_bound covers every point.  The assembled
    ceiling never falls below a computed exact value, so a stale user bound
    can only make the threshold larger, not unsound.
    """
    bounds = sys.exponent_bound or {}
    global_bound = bounds.get("global")
    entries: list[PointExponents] = []

    def resolve(point_key: str, compute) -> PointExponents:
        user = bounds.get(point_key, global_bound)
        try:
            data = compute()
        except IrregularSingularPoint:
            if user is None:
                raise MissingExponentBound(
                    f"irregular singular point {point_key}: supply "
                    f"exponent_bound[{point_key!r}] or a global bound")
            return PointExponents(point_key, "irregular", None, user)
        if data.ordinary:
            return PointExponents(point_key, "ordinary", data, user)
        return PointExponents(point_key, "regular", data, user)

    roots, rest = _rational_roots(sys.T)
    for root in sorted(set(roots)):
        entries.append(resolve(str(root), lambda r=root: indicial_exponents(sys, r)))
    if rest.degree >= 1:
        user = bounds.get("irrational", global_bound)
        if user is None:
            raise MissingExponentBound(
                "T has irrational roots; supply exponent_bound['irrational'] "
                "or a global bound")
        entries.append(PointExponents("irrational", "user", None, user))
    entries.append(resolve(INFINITY, lambda: indicial_exponents(sys, INFINITY)))
    return ExponentData(entries=tuple(entries))


def n0_for_system(sys: DiffSystem) -> N0Bound:
    q = extract_params(sys).q
    data = exponent_data(sys)
    return replace(n0_bound(sys.m, q, data.ceiling), points=data.entries)
