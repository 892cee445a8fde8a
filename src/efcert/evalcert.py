"""Certified evaluation with rational-endpoint intervals.

Values of the modelled entire functions at rational points are produced as
intervals [lo, hi] with exact rational endpoints: an exact partial sum of the
Taylor series plus a proven tail majorant from the growth certificate,
rounded outward onto a dyadic grid.  The partial sum is one integer Horner
(over ``DiffSystem.integer_column``, or, for e^r, the numerators n!/k! over
n! that ``algebra.exp_numerators`` gives at beta = 1), and each endpoint is
one floor or ceiling division of integers, made a ``Fraction`` once.  No
floating point is involved anywhere, so downstream comparisons
(sign tests, lower bounds) are exact.

Tail majorant: if the scaled coefficients satisfy |phi_k| <= C^(k+1), then

    |sum_{k>N} phi_k x^k / k!| <= C (C|x|)^(N+1)/(N+1)! * (1 - C|x|/(N+2))^(-1)

valid as soon as N+2 > C|x| (geometric comparison of consecutive terms).
``_small_tail`` tests it against the target width on cross-multiplied
integers and returns the tail it accepts as a numerator and denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Rational, exp_numerators, horner
from .errors import MissingGrowthCertificate

_ONE = Fraction(1)


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

    def decimal(self, places: int = 12) -> str:
        """[lo, hi] as decimals rounded outward to the given places, so
        the printed interval still encloses this one."""
        scale = 10 ** places
        ends = (math.floor(self.lo * scale), math.ceil(self.hi * scale))
        text = [f"{'-' if e < 0 else ''}{abs(e) // scale}."
                f"{abs(e) % scale:0{places}d}" for e in ends]
        return f"[{text[0]}, {text[1]}]"


# ---------------------------------------------------------------------------
# Series evaluation
# ---------------------------------------------------------------------------

def _grid_bits(width: Fraction) -> int:
    """Smallest b >= 1 with 2^-b <= width/8, i.e. num * 2^b >= 8 den."""
    num, den8 = width.numerator, 8 * width.denominator
    bits = max(1, den8.bit_length() - num.bit_length())
    return bits if num << bits >= den8 else bits + 1


def _small_tail(c: Fraction, x_abs: Fraction, n: int,
                width: Fraction) -> tuple[int, int] | None:
    """The tail majorant of the module docstring at truncation order n as
    (num, den), or None unless it is valid (n+2 > c|x|) and at most width/4.
    With t = c x_abs = tn/td and gap = (n+2) td - tn, it is c tn^(n+1) (n+2)
    over den(c) td^n (n+1)! gap; both are positive."""
    tn = c.numerator * x_abs.numerator
    td = c.denominator * x_abs.denominator
    gap = (n + 2) * td - tn
    if gap <= 0:
        return None
    num = c.numerator * tn ** (n + 1) * (n + 2)
    den = c.denominator * td ** n * math.factorial(n + 1) * gap
    if 4 * width.denominator * num > width.numerator * den:
        return None
    return num, den


def _taylor_enclosure(coefficients, c: Fraction, x: Fraction,
                      width: Fraction) -> RatInterval:
    """Interval of width <= width containing sum_k a_k x^k, where
    coefficients(n) gives a_0..a_n as (D, [D a_0, ..., D a_n]), integers
    over a denominator D > 0, and a_k = phi_k/k! with |phi_k| <= c^(k+1).

    The truncation order n grows until the tail majorant num/den is valid
    and at most width/4 (_small_tail).  The partial sum is exact, S/Q for
    the integer Horner S at x = a/d and Q = D d^n; lo and hi are floor and
    ceiling of 2^g (S den -+ num Q) / (Q den) over 2^g, g = _grid_bits(width),
    which widens by at most 2^(1-g) <= width/4.  At x = 0 the value a_0 is
    returned as a point.
    """
    if x == 0:
        d, nums = coefficients(0)
        return RatInterval.point(Fraction(nums[0], d))
    x_abs = abs(x)
    n = max(4, int(c * x_abs) + 2)
    while (tail := _small_tail(c, x_abs, n, width)) is None:
        n += max(4, n // 2)
    num, den = tail
    d, nums = coefficients(n)
    q = d * x.denominator ** n
    s, t = horner(nums, x.numerator, x.denominator) * den, num * q
    g = _grid_bits(width)
    lo = ((s - t) << g) // (q * den)
    hi = -((-(s + t) << g) // (q * den))
    return RatInterval(Fraction(lo, 1 << g), Fraction(hi, 1 << g))


def eval_component(sys, i: int, x: Rational | int,
                   target_width: Rational) -> RatInterval:
    """Interval of width <= target_width containing component i of the
    system's solution vector at the rational point x.

    Requires a growth certificate on the system; the truncation order grows
    until the tail majorant is valid and small enough.  The partial sum runs
    on the system's integer column i (DiffSystem.integer_column).
    """
    x = Fraction(x)
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    if sys.growth is None:
        raise MissingGrowthCertificate(
            "eval_component needs a growth certificate")
    return _taylor_enclosure(lambda n: sys.integer_column(i, n),
                             Fraction(sys.growth.C), x, width)


def eval_exp(r: Rational | int, target_width: Rational) -> RatInterval:
    """Interval of width <= target_width containing e^r for rational r."""
    r = Fraction(r)
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    # e^r = sum r^k/k!: phi_k = 1 <= 1^(k+1)
    return _taylor_enclosure(lambda n: exp_numerators(_ONE, n), _ONE, r, width)


def exp_upper_bound(r: Rational | int) -> Fraction:
    """Cheap certified rational upper bound for e^r (width 1 interval)."""
    return eval_exp(r, Fraction(1)).hi
