"""Local exponent data at singular points and the rank-threshold bound.

The ladder of derived forms is guaranteed to contain m independent forms
once the construction degree passes a threshold n0.  That threshold is
bounded by

    n0 <= 2 (q+1) m^2 (E_ceil + (q+1) m + 1)

where E_ceil is an integer upper bound for the maximal modulus of the
(generalized) local exponents of the system at its finite singularities and
at infinity.  This module computes exponents exactly where the system has a
simple pole at a rational point (eigenvalues of the residue matrix, reported
as rational roots of the characteristic polynomial plus a Cauchy modulus
bound for any irrational remainder) and otherwise consumes user or catalog
supplied modulus bounds: no Newton-polygon machinery is attempted at
irregular points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """All rational roots (with multiplicity, ascending) and the root-free
    cofactor."""
    roots: list[Fraction] = []
    prim = p.primitive()
    while prim.degree >= 1:
        a0_val = prim.valuation()
        if a0_val and a0_val > 0:
            for _ in range(a0_val):
                roots.append(Fraction(0))
            prim = Poly(prim.coeffs[a0_val:])
            continue
        a0 = abs(prim.coeffs[0].numerator)
        ad = abs(prim.leading().numerator)
        found = None
        for num in sorted(_divisors(a0)):
            for d in sorted(_divisors(ad)):
                if math.gcd(num, d) != 1:
                    continue
                for cand in (Fraction(num, d), Fraction(-num, d)):
                    if prim(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        prim = prim.divmod(Poly((-found, 1)))[0].primitive()
    return sorted(roots), prim


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _cauchy_bound(p: Poly) -> Fraction:
    """1 + max |c_i / c_d|: every root has modulus below this."""
    lead = abs(p.leading())
    if p.degree <= 0:
        return Fraction(0)
    return 1 + max(abs(c) / lead for c in p.coeffs[:-1])


def _residue_analysis(point: str, entries: Sequence[Sequence[RatFunc]],
                      local_var_shift: Fraction | None) -> IndicialData:
    """Shared simple-pole analysis; entries are already expressed in a local
    coordinate w with the point at w = shift (finite case) or w = 0 (infinity
    case, pre-transformed)."""
    at = Fraction(0) if local_var_shift is None else local_var_shift
    orders = [[e.pole_order_at(at) for e in row] for row in entries]
    worst = max(max(row) for row in orders)
    if worst == 0:
        return IndicialData(point=point, ordinary=True, exponents=(),
                            residual_degree=0, residual_bound=None)
    if worst > 1:
        raise IrregularSingularPoint(
            f"pole of order {worst} at {point}: supply an exponent bound")
    shift_poly = Poly((-at, 1))
    residue = [[entry.mul_poly(shift_poly)(at) for entry in row]
               for row in entries]
    roots, rest = _rational_roots(_char_poly(residue))
    bound = _cauchy_bound(rest) if rest.degree >= 1 else None
    return IndicialData(point=point, ordinary=False, exponents=tuple(roots),
                        residual_degree=max(rest.degree, 0), residual_bound=bound)


def indicial_exponents(sys: DiffSystem, point: Rational | str) -> IndicialData:
    """Exponents of the system at a finite rational point or at "infinity".

    The point must either be ordinary (empty result) or a simple pole of A
    (exponents are the residue matrix eigenvalues); anything worse raises
    IrregularSingularPoint, in which case the caller must supply a modulus
    bound.
    """
    if isinstance(point, str) and point == INFINITY:
        transformed = [[_at_infinity(entry) for entry in row]
                       for row in sys.A]
        return _residue_analysis(INFINITY, transformed, None)
    at = Fraction(point)
    return _residue_analysis(str(at), sys.A, at)


def _at_infinity(entry: RatFunc) -> RatFunc:
    """Rewrite F(z) dz-systems in the coordinate w = 1/z: the matrix becomes
    -w^{-2} F(1/w)."""
    num, denom = entry.num, entry.denom
    dn, dd = max(num.degree, 0), max(denom.degree, 0)
    rev_num = Poly(tuple(reversed(num.coeffs)))
    rev_den = Poly(tuple(reversed(denom.coeffs)))
    shift = dd - dn
    w2 = Poly((0, 0, 1))
    if shift >= 0:
        new_num = -(rev_num * Poly((0,) * shift + (1,)))
        new_den = rev_den * w2
    else:
        new_num = -rev_num
        new_den = rev_den * w2 * Poly((0,) * (-shift) + (1,))
    return RatFunc(new_num, new_den)


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
        if data.residual_degree > 0 and user is None:
            # Irrational eigenvalues: the Cauchy bound in data covers them.
            return PointExponents(point_key, "regular", data, None)
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


def exponent_ceiling(sys: DiffSystem) -> int:
    return exponent_data(sys).ceiling


def n0_for_system(sys: DiffSystem) -> N0Bound:
    params = extract_params(sys)
    return n0_bound(sys.m, params.q, exponent_ceiling(sys))
