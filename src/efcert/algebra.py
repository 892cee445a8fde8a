"""Exact arithmetic substrate: integer coefficient helpers, polynomials and
rational functions over Q, and exact linear algebra.

Coefficients are ``fractions.Fraction`` (lowest terms, positive denominator)
or integers, never floats.  ``prefix_numerators`` and ``common_numerators``
put runs of coefficients over one common denominator, ``exp_numerators`` is
the one source of the Taylor numerators of exp(beta z) (e^z at beta = 1),
and ``horner`` evaluates an integer polynomial at a/d as an integer.
``Poly`` is an immutable dense coefficient tuple indexed by degree;
``RatFunc`` a reduced quotient of two.  The linear algebra clears each row's
denominators once: one fraction-free Gauss-Jordan elimination
(``_reduce_rows``) serves ``kernel_basis`` and ``rank``, one rule
(``_kernel_vectors``) writes the kernel vectors of its echelon rows, and
``det_exact`` and ``cofactor`` use Bareiss elimination.  Pivoting is
first-nonzero in row-major order and kernel vectors are primitive with a
positive leading entry, so repeated runs give identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def prefix_numerators(values: Iterable[Fraction], lcm: int = 1
                      ) -> tuple[list[int], list[int], int]:
    """(numerators, steps, L) for the prefix lcms L_p of the denominators of
    the values, L_{-1} = lcm: numerators[p] = values[p] * L_p, steps[p] =
    L_p / L_{p-1}, and L the last L_p."""
    nums, steps = [], []
    for v in values:
        nxt = math.lcm(lcm, v.denominator)
        steps.append(nxt // lcm)
        lcm = nxt
        nums.append(v.numerator * (lcm // v.denominator))
    return nums, steps, lcm


def common_numerators(nums: Sequence[int], steps: Sequence[int]
                      ) -> tuple[int, list[int]]:
    """(L, [nums[p] * L / L_p]) for the prefix_numerators of some values
    (from lcm 1): the values over their common denominator L.  Going down
    from the top multiplies by the steps instead of dividing L by each
    denominator, which costs quadratic time once L is large."""
    out = [0] * len(nums)
    scale = 1
    for p in range(len(nums) - 1, -1, -1):
        out[p] = nums[p] * scale
        scale *= steps[p]
    return scale, out


def exp_numerators(beta: Fraction, order: int) -> tuple[int, list[int]]:
    """The Taylor coefficients beta^k/k! of exp(beta z), k = 0..order, as
    (D, [D beta^k/k!]) with D the lcm of their denominators.

    With beta = a/b they are e_k / E for e_k = a^k b^(order-k) order!/k!
    and E = e_0 = b^order order!; the lcm of their denominators is E / g,
    g the gcd of the e_k, so no coefficient is reduced on its own.  That gcd
    is gcd(e_0, e_order) = gcd(order!, a^order): a prime p dividing a has
    v_p(e_k) = k v_p(a) + v_p(order!/k!) > v_p(order!) for k >= 1, since
    v_p(k!) < k, and any other prime does not divide e_order = a^order.
    The ladder multiplies once per level, by b k; at a = 1 there is no
    power pass and g = 1, and at g = 1 no division, so beta = 1,
    (order!, [order!/k!]), costs what the bare factorial ladder does.
    """
    a, b = beta.as_integer_ratio()
    nums, top = [1], 1        # b^(order-k) order!/k! for k = order, ..., 0
    for bk in range(b * order, 0, -b):
        top *= bk
        nums.append(top)
    nums.reverse()
    if a != 1:
        power = 1
        for k in range(order + 1):
            nums[k] *= power
            power *= a
        g = math.gcd(nums[0], nums[-1])
        if g != 1:
            nums = [e // g for e in nums]
    return nums[0], nums


def horner(p: Sequence[int], a: int, d: int) -> int:
    """sum_j p[j] a^j d^(len(p)-1-j): d^deg p times p(a/d)."""
    acc, dp = 0, 1
    for c in reversed(p):
        acc = acc * a + c * dp
        dp *= d
    return acc


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

    # -- normal forms

    def content(self) -> Fraction:
        """gcd of numerators over lcm of denominators; 0 for the zero poly."""
        return Fraction(math.gcd(*(c.numerator for c in self.coeffs)),
                        math.lcm(*(c.denominator for c in self.coeffs)))

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
        """Monic gcd.  A pair of nonzero polynomials that _coprime_mod_prime
        proves coprime has gcd 1 at once.  Otherwise Euclid runs over Q, each
        remainder made primitive, so the coefficients stay integers of
        moderate size instead of growing fractions."""
        if self.coeffs and other.coeffs and _coprime_mod_prime(self, other):
            return Poly.one()
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1].primitive()
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


# a prime near 2^61 for _coprime_mod_prime: it divides a given leading
# coefficient only by rare accident, and a gcd modulo it costs word-sized
# arithmetic however large the integer coefficients are
_GCD_PRIME = 2 ** 61 - 1


def _residues(p: Poly) -> list[int] | None:
    """The coefficients of the integer form of p (p times the lcm of its
    denominators) modulo _GCD_PRIME, or None when the prime divides the
    leading one."""
    lcm = math.lcm(*(c.denominator for c in p.coeffs))
    out = [c.numerator * (lcm // c.denominator) % _GCD_PRIME
           for c in p.coeffs]
    return out if out[-1] else None


def _coprime_mod_prime(a: Poly, b: Poly) -> bool:
    """True when the nonzero a and b are coprime modulo _GCD_PRIME, which
    divides neither leading coefficient of their integer forms; then they
    are coprime over Q.

    Let G in Z[z] be a primitive gcd of the primitive forms of a and b
    (Gauss's lemma).  It divides them, so its leading coefficient divides
    theirs, and the prime does not divide it: G keeps its degree modulo the
    prime, where it divides both, and so their gcd there.  A constant gcd
    modulo the prime therefore makes G constant.  An integer form is its
    content times the primitive form, and the prime divides neither factor
    when it does not divide the leading coefficient, so the integer forms
    have the same gcd modulo the prime as the primitive ones.  False means
    only that this test cannot tell.
    """
    a, b = _residues(a), _residues(b)
    if a is None or b is None:
        return False
    p = _GCD_PRIME
    while len(b) > 1:                 # Euclid modulo p on dense lists
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % p
            s = len(a) - 1 - db
            a[s:-1] = [(x - f * y) % p for x, y in zip(a[s:-1], b)]
            a.pop()                   # a[-1] - f b[-1] = 0 modulo p
            while a and not a[-1]:
                a.pop()
        if not a:
            return False              # b divides a: degree >= 1
        a, b = b, a
    return True


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
        if denom.degree >= 1 and num.degree != 0:
            # otherwise the gcd is 1: denom or num is a nonzero constant
            g = num.gcd(denom)
            if g.degree >= 1:
                num = num.divmod(g)[0]
                denom = denom.divmod(g)[0]
        lead = denom.leading()
        object.__setattr__(self, "num", num.scale(1 / lead))
        object.__setattr__(self, "denom", denom.scale(1 / lead))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def constant(c: Rational | int) -> "RatFunc":
        """c over 1: reduced, with a monic denominator, as it stands."""
        return RatFunc._of(Poly.constant(c), _POLY_ONE)

    @staticmethod
    def zero() -> "RatFunc":
        """The one zero: RatFunc is immutable, so it is shared."""
        return _RATFUNC_ZERO

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.denom.degree == 0

    def to_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num.scale(1 / self.denom.leading())

    @classmethod
    def _of(cls, num: Poly, denom: Poly) -> "RatFunc":
        """A rational function on a reduced pair with a monic denominator,
        not normalised again."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "denom", denom)
        return f

    def __add__(self, other: "RatFunc") -> "RatFunc":
        # as fractions.Fraction adds (Knuth, TAOCP 4.5.1): with g = gcd(b, d)
        # of the reduced a/b and c/d, the only common factors of the sum's
        # numerator and denominator are those of its numerator and g
        a, b, c, d = self.num, self.denom, other.num, other.denom
        g = b.gcd(d)
        if g.degree == 0:
            return RatFunc._of(a * d + c * b, b * d)
        b_g, d_g = b.divmod(g)[0], d.divmod(g)[0]
        t = a * d_g + c * b_g
        if t.is_zero():
            return RatFunc.zero()
        g2 = t.gcd(g)
        if g2.degree == 0:
            return RatFunc._of(t, b_g * d)
        return RatFunc._of(t.divmod(g2)[0], b_g * d.divmod(g2)[0])

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.denom == other.denom)

    def __hash__(self) -> int:
        return hash((self.num, self.denom))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.denom!r})"


_POLY_ONE = Poly.one()
_RATFUNC_ZERO = RatFunc._of(Poly.zero(), _POLY_ONE)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [e // g for e in row] if g > 1 else row


def _reduce_rows(matrix: Sequence[Sequence[Rational | int]]
                 ) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers: the nonzero rows, each a
    primitive integer multiple of its RREF row, and their pivot columns.

    Integer rows are made primitive as they are; the denominators of a row
    with Fraction entries are cleared first, through each entry's numerator
    and denominator (math.gcd refuses a Fraction).  Gauss-Jordan elimination
    with first-nonzero pivoting replaces row_i by p row_i - f row_r (p the pivot,
    f the entry of row_i in the pivot column) and divides out the content,
    so rows stay integral and small (fraction-free elimination after
    Bareiss, Math. Comp. 1968).
    """
    rows = []
    for row in matrix:
        try:
            rows.append(_primitive(list(row)))
        except TypeError:
            d = math.lcm(*(e.denominator for e in row))
            rows.append(_primitive([e.numerator * (d // e.denominator)
                                    for e in row]))
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _primitive([pv * e - f * p
                                      for e, p in zip(row, prow)])
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _kernel_vectors(rows: Sequence[Sequence[int]], pivots: Sequence[int],
                    width: int) -> list[list[int]]:
    """One kernel vector of the echelon rows (as _reduce_rows returns them)
    per free column phi, ascending: x_phi = L and x_{p_r} = -row_r[phi] L /
    row_r[p_r], L the lcm of all pivot entries, which makes every division
    exact.  The vectors are not made primitive."""
    lcm = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    out = []
    for free in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[free] = lcm
        for row, p in zip(rows, pivots):
            vec[p] = -row[free] * lcm // row[p]
        out.append(vec)
    return out


def kernel_basis(matrix: Sequence[Sequence[Rational | int]]) -> list[tuple[int, ...]]:
    """Exact basis of the right kernel as primitive integer vectors.

    Deterministic: reduced row echelon form with first-nonzero pivoting, one
    kernel vector per free column (ascending, from _kernel_vectors), each
    divided by its content with the first nonzero entry made positive.  The
    primitive part does not depend on the common multiple the vector was
    written with.  Empty list iff the matrix has full column rank.
    """
    if not matrix or not matrix[0]:
        raise ValueError("kernel_basis needs at least one column")
    rows, pivots = _reduce_rows(matrix)
    basis = []
    for vec in _kernel_vectors(rows, pivots, len(matrix[0])):
        vec = _primitive(vec)
        if next(e for e in vec if e) < 0:
            vec = [-e for e in vec]
        basis.append(tuple(vec))
    return basis


def rank(matrix: Sequence[Sequence[Rational | int]]) -> int:
    """Exact rank of a rational matrix given as a list of rows."""
    return len(_reduce_rows(matrix)[1])


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
