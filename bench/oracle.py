"""Independent high-precision reference values, standard library only.

Nothing here imports efcert.  Values come from the closed-form
hypergeometric series, summed in ``decimal`` at ``PRECISION`` significant
digits or more:

    J0(x)  = sum_k (-1)^k (x/2)^(2k) / (k!)^2,
    J0'(x) = -J1(x) = -sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!),
    1F1(a;b;x) = sum_k (a)_k / (b)_k x^k / k!,
    d/dx 1F1(a;b;x) = (a/b) 1F1(a+1;b+1;x).

Targets are generated from 120-digit values; about 60 digits are needed to
fix every convergent up to height 1e30.  A certified bound can agree with the true
value to 80 digits and more, because the determinant certificate recovers
the linear form almost exactly, so the checks double the precision until the
comparison is decided.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

PRECISION = 120
MAX_PRECISION = 3840


def value_error(digits: int) -> Fraction:
    """Absolute error allowed on a reference value of modulus <= 10 summed
    at ``digits`` digits; far above the series and rounding error."""
    return Fraction(1, 10 ** (digits - 12))


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _series(first: Decimal, ratio, digits: int) -> Decimal:
    """Sum first * prod ratio(k) until the terms fall below the precision."""
    eps = Decimal(10) ** -(digits + 5)
    total = Decimal(0)
    term = first
    k = 0
    while True:
        total += term
        k += 1
        term *= ratio(k)
        if abs(term) < eps and k > 4:
            return total


@functools.lru_cache(maxsize=None)
def bessel_j0(x: Fraction, digits: int = PRECISION) -> tuple[Decimal, Decimal]:
    """(J0(x), J0'(x)) for rational x with |x| <= 4."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        h2 = _dec(x / 2) ** 2
        j0 = _series(Decimal(1), lambda k: -h2 / (k * k), digits)
        j1 = _series(_dec(x / 2), lambda k: -h2 / (k * (k + 1)), digits)
        return +j0, -j1


@functools.lru_cache(maxsize=None)
def kummer(a: Fraction, b: Fraction, x: Fraction,
           digits: int = PRECISION) -> tuple[Decimal, Decimal]:
    """(1F1(a;b;x), d/dx 1F1(a;b;x)) for rational a, b > 0 and |x| <= 2."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        xd = _dec(x)

        def f(a, b):
            return _series(Decimal(1),
                           lambda k: _dec((a + k - 1) / (b + k - 1)) * xd / k,
                           digits)

        return +f(a, b), _dec(a / b) * f(a + 1, b + 1)


# Component 1 of each packaged system the scan workload uses.
SCAN_FUNCTIONS = {
    "bessel_j0": lambda x, digits=PRECISION: bessel_j0(x, digits)[0],
    "kummer_1_3_1_2": lambda x, digits=PRECISION: kummer(
        Fraction(1, 3), Fraction(1, 2), x, digits)[0],
}


def j0_ratio(x: Fraction) -> Decimal:
    """-J0'(x) / J0(x) = J1(x) / J0(x), whose convergents p/q make the
    linear form p J0(x) + q J0'(x) small."""
    j0, dj0 = bessel_j0(x)
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        return -dj0 / j0


def convergents(alpha: Decimal, max_height: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of alpha > 0 with max(p, q) up to
    the first one above max_height."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        out = []
        p0, q0, p1, q1 = 1, 0, int(alpha), 1
        frac = alpha - int(alpha)
        out.append((p1, q1))
        while max(p1, q1) <= max_height and frac != 0:
            inv = 1 / frac
            a = int(inv)
            frac = inv - a
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            out.append((p1, q1))
        return out


def _below(bound: Fraction, value, error) -> bool:
    """Whether bound < v, where value(digits) is within error(digits) of v.
    The precision doubles until the comparison is decided; a bound still
    within the error at MAX_PRECISION digits counts as not below."""
    digits = PRECISION
    while True:
        v, e = Fraction(value(digits)), error(digits)
        if bound <= v - e:
            return True
        if bound >= v + e or digits >= MAX_PRECISION:
            return False
        digits *= 2


def j0_linear_form(p: int, q: int, x: Fraction,
                   digits: int = PRECISION) -> Decimal:
    """|p J0(x) + q J0'(x)|."""
    j0, dj0 = bessel_j0(x, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 10
        return abs(Decimal(p) * j0 + Decimal(q) * dj0)


def j0_bound_holds(bound: Fraction, p: int, q: int, x: Fraction) -> bool:
    """Whether bound < |p J0(x) + q J0'(x)|."""
    return _below(bound, lambda d: j0_linear_form(p, q, x, d),
                  lambda d: (abs(p) + abs(q) + 1) * value_error(d))


def log_distance(system: str, x: Fraction, a: int, b: int,
                 digits: int = PRECISION) -> Decimal:
    """|ln f(x) - a/b| for component 1 of a scan system; f(x) > 0."""
    value = SCAN_FUNCTIONS[system](x, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 10
        return abs(value.ln() - Decimal(a) / Decimal(b))


def log_bound_holds(bound: Fraction, system: str, x: Fraction, a: int,
                    b: int) -> bool:
    """Whether bound < |ln f(x) - a/b|; f(x) lies in (1/10, 10) on the
    benchmark's points, so ln f(x) is as accurate as f(x)."""
    return _below(bound, lambda d: log_distance(system, x, a, b, d),
                  lambda d: 20 * value_error(d))


def scan_rows(system: str, x: Fraction, bmax: int,
              window: Fraction) -> list[tuple[int, int]]:
    """Every reduced a/b with b <= bmax and |a/b - ln f(x)| <= window, as
    sorted (b, a) pairs."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        ln_f = SCAN_FUNCTIONS[system](x).ln()
        w = _dec(window)
        rows = []
        for b in range(1, bmax + 1):
            lo = math.floor((ln_f - w) * b)
            hi = math.ceil((ln_f + w) * b)
            for a in range(lo, hi + 1):
                if math.gcd(a, b) == 1 and abs(Decimal(a) / b - ln_f) <= w:
                    rows.append((b, a))
        return sorted(rows)
