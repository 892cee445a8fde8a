"""Independent references for the test suite.

The value oracles evaluate by direct summation of the defining series with
mpmath at an explicit working precision, deliberately sharing no code with
the package (which is pure rational arithmetic).  Conversions to Fraction
are exact (binary mantissa and exponent), so oracle comparisons against the
package's exact rationals introduce no parsing error beyond the oracle's own
truncation.

ref_combination forms exact series sums with ``Poly``, the package's
Fraction polynomial, and shares nothing with the integer multiply-adds of
``auxiliary._combination`` that it checks.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from efcert.algebra import Poly


def ref_combination(polys, series, start, stop) -> list[Fraction]:
    """Coefficients start..stop-1 of sum_i P_i s_i, each product formed as
    a Poly: P_i (a Poly or a coefficient sequence) times s_i cut to orders
    0..stop-1, which s_i must cover."""
    total = Poly.zero()
    for p, s in zip(polys, series):
        if len(s) < stop:
            raise ValueError(f"series known to order {len(s) - 1}, "
                             f"not {stop - 1}")
        p = p if isinstance(p, Poly) else Poly(p)
        total = total + p * Poly(s[:stop])
    return [total.coefficient(k) for k in range(start, stop)]


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def exp_direct(x, dps: int = 110):
    """sum x^k / k! by direct summation."""
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) \
            else mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)
        k = 0
        while True:
            total += term
            k += 1
            term = term * x / k
            if abs(term) < mpmath.mpf(10) ** (-dps - 15) and k > abs(x) + 4:
                return +total


def j0_direct(x, dps: int = 110):
    """sum (-1)^n x^(2n) / (4^n n!^2)."""
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) \
            else mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)
        n = 0
        while True:
            total += term
            n += 1
            term = term * (-(x * x)) / (4 * n * n)
            if abs(term) < mpmath.mpf(10) ** (-dps - 15) and n > abs(x):
                return +total


def j0_deriv_direct(x, dps: int = 110):
    """Termwise derivative of the series above."""
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) \
            else mpmath.mpf(x)
        total = mpmath.mpf(0)
        n = 1
        term = -x / 2                     # 2n x^(2n-1) (-1)^n / (4^n n!^2), n=1
        while True:
            total += term
            n += 1
            term = term * (-(x * x)) / (4 * n * n) * (2 * n) / (2 * n - 2)
            if abs(term) < mpmath.mpf(10) ** (-dps - 15) and n > abs(x):
                return +total


def kummer_direct(a: Fraction, b: Fraction, x, dps: int = 110):
    """sum (a)_k / ((b)_k k!) x^k."""
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) \
            else mpmath.mpf(x)
        am = mpmath.mpf(a.numerator) / a.denominator
        bm = mpmath.mpf(b.numerator) / b.denominator
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)
        k = 0
        while True:
            total += term
            term = term * (am + k) / (bm + k) * x / (k + 1)
            k += 1
            if abs(term) < mpmath.mpf(10) ** (-dps - 15) and k > abs(x) + 4:
                return +total


def kummer_deriv_direct(a: Fraction, b: Fraction, x, dps: int = 110):
    """(a/b) 1F1(a+1; b+1; x)."""
    with mpmath.workdps(dps + 10):
        lead = mpmath.mpf(a.numerator) / a.denominator \
            * mpmath.mpf(b.denominator) / b.numerator
        return lead * kummer_direct(a + 1, b + 1, x, dps)


def component_oracles(name: str, dps: int = 110):
    """Direct-summation evaluators for the components of a catalog system."""
    if name == "exp_pair":
        return (lambda x: exp_direct(x, dps),
                lambda x: exp_direct(2 * Fraction(x), dps))
    if name == "bessel_j0":
        return (lambda x: j0_direct(x, dps),
                lambda x: j0_deriv_direct(x, dps))
    if name == "kummer":
        a, b = Fraction(1, 3), Fraction(1, 2)
        return (lambda x: kummer_direct(a, b, x, dps),
                lambda x: kummer_deriv_direct(a, b, x, dps))
    raise ValueError(name)


def linear_form_oracle(name: str, coeffs, xi, dps: int = 110) -> Fraction:
    """|sum coeffs_i f_i(xi)| at dps digits, as an exact Fraction of the
    computed float (no string round trip)."""
    fns = component_oracles(name, dps)
    with mpmath.workdps(dps + 10):
        total = mpmath.mpf(0)
        for c, fn in zip(coeffs, fns):
            total += c * fn(Fraction(xi))
        return abs(mpf_to_fraction(total))


def log_distance_oracle(name: str, xi, a: int, b: int,
                        dps: int = 110) -> Fraction:
    """|ln f1(xi) - a/b| at dps digits (mpmath log on the direct sum)."""
    fns = component_oracles(name, dps)
    with mpmath.workdps(dps + 10):
        value = fns[0](Fraction(xi))
        dist = abs(mpmath.log(value) - mpmath.mpf(a) / b)
        return mpf_to_fraction(dist)
