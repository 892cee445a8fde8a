"""Exact arithmetic substrate: rationals, dense polynomials, rational
functions, truncated power series, and exact linear algebra.

All numbers are :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms, positive denominator), so every value in the package is exact.
Polynomials are dense coefficient tuples indexed by degree.  The linear
algebra is deliberately small and deterministic: first-nonzero pivoting in
row-major order, kernel vectors scaled to primitive integer vectors with a
positive leading entry, so repeated runs produce identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def den(r: Rational) -> int:
    """Positive denominator of r in reduced form."""
    return Fraction(r).denominator


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def lcm_list(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out = _lcm(out, abs(v)) if v else out
    return out


# ---------------------------------------------------------------------------
# Dense polynomials over Q
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    The zero polynomial has degree -1 (the distinguished sentinel); otherwise
    the leading coefficient is nonzero.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def constant(c: Rational | int) -> "Poly":
        return Poly((Fraction(c),))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def max_abs_coeff(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return max(abs(c) for c in self.coeffs)

    # -- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Rational | int) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(())
        return Poly(tuple(a * c for a in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __call__(self, x: Rational | int) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def dilate(self, s: Rational | int) -> "Poly":
        """P(s*z) as a polynomial in z."""
        s = Fraction(s)
        power = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * power)
            power *= s
        return Poly(out)

    def shift(self, a: Rational | int) -> "Poly":
        """P(z + a) via Horner on polynomial coefficients."""
        a = Fraction(a)
        acc = Poly(())
        za = Poly((a, 1))
        for c in reversed(self.coeffs):
            acc = acc * za + Poly.constant(c)
        return acc

    # -- normal forms

    def content(self) -> Fraction:
        """gcd of numerators over lcm of denominators; 0 for the zero poly."""
        if not self.coeffs:
            return Fraction(0)
        num = 0
        d = 1
        for c in self.coeffs:
            num = math.gcd(num, abs(c.numerator))
            d = _lcm(d, c.denominator)
        return Fraction(num, d)

    def primitive(self) -> "Poly":
        """Integer-coefficient polynomial with content 1 and the sign of the
        leading coefficient preserved."""
        c = self.content()
        if c == 0:
            return self
        return self.scale(1 / c)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    # -- division, gcd

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        dlead = other.leading()
        ddeg = other.degree
        for k in range(len(rem) - 1, ddeg - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / dlead
            q[k - ddeg] = f
            for j, c in enumerate(other.coeffs):
                rem[k - ddeg + j] -= f * c
        return Poly(q), Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.monic()

    def valuation(self) -> int | None:
        """Order of vanishing at 0, or None for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    # -- dunder plumbing

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of two polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "denom")

    def __init__(self, num: Poly, denom: Poly | None = None):
        if denom is None:
            denom = Poly.one()
        if denom.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(denom)
        if not g.is_zero() and g.degree >= 1:
            num = num.divmod(g)[0]
            denom = denom.divmod(g)[0]
        lead = denom.leading()
        object.__setattr__(self, "num", num.scale(1 / lead))
        object.__setattr__(self, "denom", denom.scale(1 / lead))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def constant(c: Rational | int) -> "RatFunc":
        return RatFunc(Poly.constant(c))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(Poly.zero())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.denom.degree == 0

    def to_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num.scale(1 / self.denom.leading())

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.denom + other.num * self.denom,
                       self.denom * other.denom)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.denom)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.denom * other.denom)

    def mul_poly(self, p: Poly) -> "RatFunc":
        return RatFunc(self.num * p, self.denom)

    def scale(self, c: Rational | int) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.denom)

    def dilate(self, s: Rational | int) -> "RatFunc":
        """F(s*z)."""
        return RatFunc(self.num.dilate(s), self.denom.dilate(s))

    def __call__(self, x: Rational | int) -> Fraction:
        d = self.denom(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def pole_order_at(self, a: Rational | int) -> int:
        """Order of the pole at z=a (0 if regular there)."""
        if self.is_zero():
            return 0
        za = Poly((-Fraction(a), 1))
        order = 0
        d = self.denom
        while True:
            q, r = d.divmod(za)
            if not r.is_zero():
                break
            order += 1
            d = q
        if order == 0:
            return 0
        n = self.num
        while order > 0:
            q, r = n.divmod(za)
            if not r.is_zero():
                break
            order -= 1
            n = q
        return order

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.denom == other.denom)

    def __hash__(self) -> int:
        return hash((self.num, self.denom))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.denom!r})"


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------

class RatSeries:
    """Exact power series truncation: coefficients c_0..c_N.

    Arithmetic between two series truncates to the smaller order, so a result
    never pretends to know more coefficients than its inputs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational | int]):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("RatSeries is immutable")

    @property
    def order(self) -> int:
        """Largest index with a known coefficient."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "RatSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncation")
        return RatSeries(self.coeffs[:order + 1])

    def __add__(self, other: "RatSeries") -> "RatSeries":
        n = min(self.order, other.order)
        return RatSeries(tuple(self.coeffs[k] + other.coeffs[k]
                               for k in range(n + 1)))

    def __sub__(self, other: "RatSeries") -> "RatSeries":
        n = min(self.order, other.order)
        return RatSeries(tuple(self.coeffs[k] - other.coeffs[k]
                               for k in range(n + 1)))

    def __mul__(self, other: "RatSeries") -> "RatSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RatSeries(out)

    def mul_poly(self, p: Poly) -> "RatSeries":
        """Product with an exact polynomial; keeps this truncation order."""
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for j, b in enumerate(p.coeffs):
            if b == 0 or j > n:
                continue
            for i in range(n + 1 - j):
                a = self.coeffs[i]
                if a:
                    out[i + j] += a * b
        return RatSeries(out)

    def scale(self, c: Rational | int) -> "RatSeries":
        c = Fraction(c)
        return RatSeries(tuple(a * c for a in self.coeffs))

    def derivative(self) -> "RatSeries":
        if self.order < 0:
            return self
        return RatSeries(tuple(k * self.coeffs[k]
                               for k in range(1, self.order + 1)))

    def valuation(self) -> int | None:
        """Index of the first nonzero known coefficient, None if all vanish
        up to the truncation order."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, RatSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"RatSeries({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def _as_fraction_rows(matrix: Sequence[Sequence[Rational | int]]) -> list[list[Fraction]]:
    rows = [[Fraction(e) for e in row] for row in matrix]
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("matrix rows have unequal lengths")
    return rows


def _primitive_sign_normalized(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to integer entries with content 1 and first
    nonzero entry positive."""
    d = 1
    for e in vec:
        d = _lcm(d, e.denominator)
    ints = [int(e * d) for e in vec]
    g = 0
    for e in ints:
        g = math.gcd(g, abs(e))
    if g > 1:
        ints = [e // g for e in ints]
    for e in ints:
        if e:
            if e < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


def kernel_basis(matrix: Sequence[Sequence[Rational | int]]) -> list[tuple[int, ...]]:
    """Exact basis of the right kernel as primitive integer vectors.

    Deterministic: reduced row echelon form with first-nonzero pivoting, one
    kernel vector per free column (ascending), each divided by its content
    with the first nonzero entry made positive.  Empty list iff the matrix
    has full column rank.
    """
    rows = _as_fraction_rows(matrix)
    if not rows or not rows[0]:
        raise ValueError("kernel_basis needs at least one column")
    ncols = len(rows[0])
    pivots: list[int] = []
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
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        basis.append(_primitive_sign_normalized(vec))
    return basis


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss fraction-free
    elimination)."""
    rows = [[int(e) for e in row] for row in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det_exact requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def cofactor(matrix: Sequence[Sequence[int]], i: int, j: int) -> int:
    """Signed minor (-1)^(i+j) det(M without row i, column j); 0-indexed.

    The cofactor of a 1x1 matrix is 1 (empty determinant convention).
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("cofactor requires a square matrix")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"cofactor indices ({i}, {j}) out of range for n={n}")
    minor = [[int(matrix[r][c]) for c in range(n) if c != j]
             for r in range(n) if r != i]
    sign = -1 if (i + j) % 2 else 1
    return sign * det_exact(minor)


class RowBasis:
    """Incremental exact rank tracking for integer/rational row vectors.

    Used to select ladder rows: rows are offered one at a time and accepted
    iff they increase the rank.  Deterministic (no pivot choices beyond
    first-nonzero).
    """

    def __init__(self, width: int):
        self.width = width
        self._echelon: list[tuple[int, list[Fraction]]] = []

    def _reduce(self, row: Sequence[Rational | int]) -> list[Fraction]:
        v = [Fraction(e) for e in row]
        for lead, basis_row in self._echelon:
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, basis_row)]
        return v

    def offer(self, row: Sequence[Rational | int]) -> bool:
        """Add the row if independent of the current basis; report success."""
        v = self._reduce(row)
        for k, e in enumerate(v):
            if e != 0:
                v = [a / e for a in v]
                self._echelon.append((k, v))
                self._echelon.sort(key=lambda t: t[0])
                return True
        return False
