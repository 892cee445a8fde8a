"""Certified evaluation with rational-endpoint intervals.

Values of the modelled entire functions at rational points are produced as
intervals [lo, hi] with exact rational endpoints: an exact partial sum of the
Taylor series plus a proven tail majorant from the growth certificate.  The
partial sum is one integer Horner over the coefficient numerators and their
common denominator (``DiffSystem.integer_coefficients``, or n!/k! over n! for
e^r), made a ``Fraction`` once.  No floating point is involved anywhere, so
downstream comparisons (sign tests, lower bounds) are exact.

Tail majorant: if the scaled coefficients satisfy |phi_k| <= C^(k+1), then

    |sum_{k>N} phi_k x^k / k!| <= C (C|x|)^(N+1)/(N+1)! * (1 - C|x|/(N+2))^(-1)

valid as soon as N+2 > C|x| (geometric comparison of consecutive terms).
``_small_tail`` tests it against the target width on cross-multiplied
integers and makes a ``Fraction`` only of the tail it accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Rational, exp_numerators, horner
from .errors import MissingGrowthCertificate


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Rational | int) -> "RatInterval":
        x = Fraction(x)
        return RatInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def abs_lower(self) -> Fraction:
        """Exact lower bound for |x| over the interval."""
        if self.lo > 0:
            return self.lo
        if self.hi < 0:
            return -self.hi
        return Fraction(0)

    def abs_upper(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def outward_round(self, bits: int) -> "RatInterval":
        """Round endpoints outward onto the dyadic grid 2^-bits.

        Caps denominator growth: both endpoints get denominator <= 2^bits at
        the cost of widening by at most 2^(1-bits).
        """
        scale = 1 << bits
        lo = Fraction((self.lo.numerator * scale) // self.lo.denominator, scale)
        hi_num = -((-self.hi.numerator * scale) // self.hi.denominator)
        return RatInterval(lo, Fraction(hi_num, scale))


# ---------------------------------------------------------------------------
# Series evaluation
# ---------------------------------------------------------------------------

def _grid_bits(width: Fraction) -> int:
    """Smallest b >= 1 with 2^-b <= width/8, i.e. num * 2^b >= 8 den."""
    num, den8 = width.numerator, 8 * width.denominator
    bits = max(1, den8.bit_length() - num.bit_length())
    return bits if num << bits >= den8 else bits + 1


def _small_tail(c: Fraction, x_abs: Fraction, n: int,
                width: Fraction) -> Fraction | None:
    """The tail majorant of the module docstring at truncation order n, or
    None unless it is valid (n+2 > c|x|) and at most width/4.  With
    t = c x_abs = tn/td and gap = (n+2) td - tn, it is c tn^(n+1) (n+2) over
    den(c) td^n (n+1)! gap; the comparison runs on those integers, so only
    an accepted tail becomes a Fraction."""
    tn = c.numerator * x_abs.numerator
    td = c.denominator * x_abs.denominator
    gap = (n + 2) * td - tn
    if gap <= 0:
        return None
    num = c.numerator * tn ** (n + 1) * (n + 2)
    den = c.denominator * td ** n * math.factorial(n + 1) * gap
    if 4 * width.denominator * num > width.numerator * den:
        return None
    return Fraction(num, den)


def _taylor_enclosure(coefficients, c: Fraction, x: Fraction,
                      width: Fraction) -> RatInterval:
    """Interval of width <= width containing sum_k a_k x^k, where
    coefficients(n) gives a_0..a_n as (D, [D a_0, ..., D a_n]), integers
    over a common denominator D, and a_k = phi_k/k! with |phi_k| <= c^(k+1).

    The truncation order n grows until the tail majorant is valid and at
    most width/4 (_small_tail).  The partial sum is exact (one integer
    Horner over D den(x)^n).  At x = 0 the value a_0 is returned as a point.
    """
    if x == 0:
        d, nums = coefficients(0)
        return RatInterval.point(Fraction(nums[0], d))
    x_abs = abs(x)
    n = max(4, int(c * x_abs) + 2)
    while (tail := _small_tail(c, x_abs, n, width)) is None:
        n += max(4, n // 2)
    d, nums = coefficients(n)
    acc = Fraction(horner(nums, x.numerator, x.denominator),
                   d * x.denominator ** n)
    return RatInterval(acc - tail, acc + tail).outward_round(_grid_bits(width))


def eval_component(sys, i: int, x: Rational | int,
                   target_width: Rational) -> RatInterval:
    """Interval of width <= target_width containing component i of the
    system's solution vector at the rational point x.

    Requires a growth certificate on the system; the truncation order grows
    until the tail majorant is valid and small enough.  The partial sum runs
    on the system's integer columns (DiffSystem.integer_coefficients).
    """
    x = Fraction(x)
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    if sys.growth is None:
        raise MissingGrowthCertificate(
            "eval_component needs a growth certificate")

    def coefficients(n: int) -> tuple[int, tuple[int, ...]]:
        d, columns = sys.integer_coefficients(n)
        return d, columns[i]

    return _taylor_enclosure(coefficients, Fraction(sys.growth.C), x, width)


def eval_exp(r: Rational | int, target_width: Rational) -> RatInterval:
    """Interval of width <= target_width containing e^r for rational r."""
    r = Fraction(r)
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    # e^r = sum r^k/k!: phi_k = 1 <= 1^(k+1)
    return _taylor_enclosure(lambda n: exp_numerators(Fraction(1), n),
                             Fraction(1), r, width)


def exp_upper_bound(r: Rational | int) -> Fraction:
    """Cheap certified rational upper bound for e^r (width 1 interval)."""
    return eval_exp(r, Fraction(1)).hi
