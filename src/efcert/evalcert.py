"""Certified evaluation with rational-endpoint intervals.

Values of the modelled entire functions at rational points are produced as
intervals [lo, hi] with exact rational endpoints: an exact partial sum of the
Taylor series plus a proven tail majorant from the growth certificate.  No
floating point is involved anywhere, so downstream comparisons (sign tests,
lower bounds) are exact.

Tail majorant: if the scaled coefficients satisfy |phi_k| <= C^(k+1), then

    |sum_{k>N} phi_k x^k / k!| <= C (C|x|)^(N+1)/(N+1)! * (1 - C|x|/(N+2))^(-1)

valid as soon as N+2 > C|x| (geometric comparison of consecutive terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Rational
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

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        ps = (self.lo * other.lo, self.lo * other.hi,
              self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(ps), max(ps))

    def scale(self, c: Rational | int) -> "RatInterval":
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

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


def _geometric_tail(c: Fraction, x_abs: Fraction, n: int) -> Fraction | None:
    """Bound on |sum_{k>n} phi_k x^k/k!| under |phi_k| <= c^(k+1), or None if
    the validity condition n+2 > c|x| fails."""
    t = c * x_abs
    if n + 2 <= t:
        return None
    head = c * t ** (n + 1) / Fraction(_factorial(n + 1))
    return head / (1 - t / (n + 2))


_FACT_CACHE = [1]


def _factorial(n: int) -> int:
    while len(_FACT_CACHE) <= n:
        _FACT_CACHE.append(_FACT_CACHE[-1] * len(_FACT_CACHE))
    return _FACT_CACHE[n]


def eval_component(sys, i: int, x: Rational | int,
                   target_width: Rational) -> RatInterval:
    """Interval of width <= target_width containing component i of the
    system's solution vector at the rational point x.

    Requires a growth certificate on the system; the truncation order grows
    until the tail majorant is valid and small enough.
    """
    x = Fraction(x)
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    if sys.growth is None:
        raise MissingGrowthCertificate(
            "eval_component needs a growth certificate")
    c = Fraction(sys.growth.C)
    x_abs = abs(x)
    if x == 0:
        seed = sys.coefficients(0)[i].coefficient(0)
        return RatInterval.point(seed)
    n = max(4, int(c * x_abs) + 2)
    while True:
        tail = _geometric_tail(c, x_abs, n)
        if tail is not None and tail <= width / 4:
            break
        n += max(4, n // 2)
    series = sys.coefficients(n)[i]
    acc = Fraction(0)
    for k in range(n, -1, -1):
        acc = acc * x + series.coefficient(k)
    return RatInterval(acc - tail, acc + tail).outward_round(_grid_bits(width))


def eval_exp(r: Rational | int, target_width: Rational) -> RatInterval:
    """Interval of width <= target_width containing e^r for rational r."""
    r = Fraction(r)
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    if r == 0:
        return RatInterval.point(1)
    r_abs = abs(r)
    n = max(4, int(r_abs) + 2)
    while True:
        # |sum_{k>n} r^k/k!| <= |r|^(n+1)/(n+1)! * (1 - |r|/(n+2))^(-1)
        if n + 2 > r_abs:
            head = r_abs ** (n + 1) / Fraction(_factorial(n + 1))
            tail = head / (1 - r_abs / (n + 2))
            if tail <= width / 4:
                break
        n += max(4, n // 2)
    acc = Fraction(0)
    for k in range(n, -1, -1):
        acc = acc * r + Fraction(1, _factorial(k))
    return RatInterval(acc - tail, acc + tail).outward_round(_grid_bits(width))


def exp_upper_bound(r: Rational | int) -> Fraction:
    """Cheap certified rational upper bound for e^r (width 1 interval)."""
    return eval_exp(r, Fraction(1)).hi
