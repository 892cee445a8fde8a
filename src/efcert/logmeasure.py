"""Certified lower bounds on |ln f(xi) - a/b|.

The pipeline rests on the mean value theorem: with beta = a/b and omega
strictly between exp(beta) and f(xi) > 0,

    |ln f(xi) - a/b| = |f(xi) - exp(beta)| / omega,

so a lower bound for the linear form f(xi) - exp(beta) divided by an upper
bound for omega bounds the log distance.  Two routes produce the linear-form
bound: the ladder certificate on the system rescaled to xi = 1 and augmented
with the component exp(beta z) (target coefficients 1, 0, ..., 0, -1), and a
direct interval subtraction.  Both are computed; the larger wins and the
result records which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Rational
from .efunction import DiffSystem, augment_exp, extract_params, rescale
from .errors import (DegenerateFit, ExhaustedN, InputError,
                     MissingExponentBound, NonPositiveValue,
                     SingularEvaluationPoint)
from .evalcert import RatInterval, eval_component, eval_exp
from .forms import CERTIFIED, NOT_CERTIFIED, BoundCertificate, adaptive_bound
from .zeroestimate import n0_for_system

PATH_FORMS = "forms"
PATH_INTERVAL = "interval"
PATH_NONE = "none"


@dataclass(frozen=True)
class LogConfig:
    """Precision and degree limits of the pipeline; defaults match the CLI.

    Intervals start at width 2^-precision_bits and are refined by doubling
    the bits up to max_precision_bits; the forms route tries n = 1..n_max
    (4 n0 when None) at the default eps1.
    """

    precision_bits: int = 256
    max_precision_bits: int = 1024
    n_max: int | None = None

    def __post_init__(self):
        if self.precision_bits < 1:
            raise InputError("precision must be >= 1 bit")


@dataclass(frozen=True)
class LogBoundResult:
    xi: Fraction
    a: int
    b: int
    beta: Fraction
    status: str
    bound: Fraction | None
    path: str
    forms_certificate: BoundCertificate | None
    forms_failure: str | None
    forms_bound: Fraction | None          # scaled by omega already
    interval_bound: Fraction              # scaled by omega already
    omega_upper: Fraction
    f_value: RatInterval
    exp_value: RatInterval
    oracle_distance: RatInterval | None   # certified enclosure, diagnostic
    half_value_guard: bool | None         # |f - e^beta| < f/2 annotation
    beta_dependent_params: dict
    beta_independent_params: dict

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def _positive_value_interval(sys: DiffSystem, comp: int, x: Fraction,
                             config: LogConfig) -> RatInterval:
    bits = config.precision_bits
    iv = eval_component(sys, comp, x, Fraction(1, 2 ** bits))
    if not iv.strictly_positive():
        if iv.hi <= 0:
            raise NonPositiveValue(
                f"component value at {x} is negative; negate the function "
                f"and retry (interval [{iv.lo}, {iv.hi}])")
        while not iv.strictly_positive() and bits < config.max_precision_bits:
            bits *= 2
            iv = eval_component(sys, comp, x, Fraction(1, 2 ** bits))
        if not iv.strictly_positive():
            raise NonPositiveValue(
                f"component value at {x} not strictly positive at precision "
                f"{bits} bits (interval [{iv.lo}, {iv.hi}])")
    return iv


def log_lower_bound(sys: DiffSystem, xi: Rational, a: int, b: int,
                    config: LogConfig = LogConfig()) -> LogBoundResult:
    """Certified positive lower bound for |ln f(xi) - a/b|, f = component 1.

    Requires f(xi) > 0 (checked by interval, refining as needed) and
    xi T(xi) != 0.  The forms route failing to certify is recorded, not
    fatal, as long as the interval route separates f(xi) from exp(a/b);
    ExhaustedN propagates only when both routes fail.
    """
    xi = Fraction(xi)
    if b < 1:
        raise InputError("approximation denominator b must be >= 1")
    if xi == 0 or sys.T(xi) == 0:
        raise SingularEvaluationPoint(
            f"xi T(xi) = 0 at xi = {xi}: desingularization is unsupported, "
            f"choose a nonsingular point")
    beta = Fraction(a, b)

    base = sys if xi == 1 else rescale(sys, xi)
    f_iv = _positive_value_interval(base, 0, Fraction(1), config)
    exp_iv = eval_exp(beta, Fraction(1, 2 ** config.precision_bits))

    aug = augment_exp(base, beta)
    target = (1,) + (0,) * (sys.m - 1) + (-1,)
    forms_cert = None
    forms_failure = None
    try:
        forms_cert = adaptive_bound(aug, Fraction(1), target,
                                    n_max=config.n_max,
                                    precision_bits=config.precision_bits)
    except ExhaustedN as exc:
        forms_failure = f"{exc} ({len(exc.attempts)} attempts)"

    # Mean value conversion: omega lies between f(1) and exp(beta).
    omega_upper = max(f_iv.hi, exp_iv.hi)
    omega_lower = min(f_iv.lo, exp_iv.lo)

    diff = f_iv - exp_iv
    bits = config.precision_bits
    f_ref, exp_ref = f_iv, exp_iv
    while diff.abs_lower() == 0 and bits < config.max_precision_bits:
        bits *= 2
        f_ref = eval_component(base, 0, Fraction(1), Fraction(1, 2 ** bits))
        exp_ref = eval_exp(beta, Fraction(1, 2 ** bits))
        diff = f_ref - exp_ref

    interval_bound = diff.abs_lower() / omega_upper
    forms_bound = None
    if forms_cert is not None and forms_cert.lower_bound is not None:
        forms_bound = forms_cert.lower_bound / omega_upper

    candidates = [(interval_bound, PATH_INTERVAL)]
    if forms_bound is not None:
        candidates.append((forms_bound, PATH_FORMS))
    best, path = max(candidates, key=lambda t: t[0])
    if best > 0:
        status, bound = CERTIFIED, best
    else:
        status, bound, path = NOT_CERTIFIED, None, PATH_NONE
        if forms_failure is not None:
            raise ExhaustedN(
                f"forms route exhausted and interval route cannot separate "
                f"f({xi}) from exp({beta}) at {bits} bits", [])

    if diff.abs_upper() < f_iv.lo / 2:
        guard = True
    elif diff.abs_lower() >= f_iv.hi / 2:
        guard = False
    else:
        guard = None

    oracle = None
    if omega_lower > 0:
        oracle = RatInterval(diff.abs_lower() / omega_upper,
                             diff.abs_upper() / omega_lower)

    aug_params = extract_params(aug)
    try:
        n0 = n0_for_system(aug).value
    except MissingExponentBound:
        n0 = None
    beta_dep = {
        "E": aug_params.E,
        "C": aug.growth.C if aug.growth else None,
        "D": aug.growth.D if aug.growth else None,
    }
    beta_indep = {
        "m": aug.m,
        "p": aug_params.p,
        "q": aug_params.q,
        "T": aug_params.T,
        "n0_bound": n0,
    }
    return LogBoundResult(
        xi=xi, a=a, b=b, beta=beta, status=status, bound=bound, path=path,
        forms_certificate=forms_cert, forms_failure=forms_failure,
        forms_bound=forms_bound, interval_bound=interval_bound,
        omega_upper=omega_upper, f_value=f_iv, exp_value=exp_iv,
        oracle_distance=oracle, half_value_guard=guard,
        beta_dependent_params=beta_dep, beta_independent_params=beta_indep)


# ---------------------------------------------------------------------------
# Scanning rational approximations
# ---------------------------------------------------------------------------

def _exp_leq_value(r: Fraction, value_fn, bits_start: int,
                   bits_cap: int) -> bool:
    """Exact truth of e^r <= V, where value_fn(bits) returns certified
    enclosures of V.  Terminates whenever e^r != V (always, for V with
    irrational log and rational r)."""
    bits = bits_start
    while True:
        ev = eval_exp(r, Fraction(1, 2 ** bits))
        fv = value_fn(bits)
        if ev.hi < fv.lo:
            return True
        if ev.lo > fv.hi:
            return False
        if bits >= bits_cap:
            raise InputError(
                f"cannot decide e^{r} vs value at {bits} bits; is ln of the "
                f"value rational?")
        bits *= 2


def measure_scan(sys: DiffSystem, xi: Rational, b_max: int,
                 window: Rational, config: LogConfig = LogConfig()
                 ) -> list[LogBoundResult]:
    """One row per reduced a/b with b <= b_max and |a/b - ln f(xi)| <= window.

    Membership is decided exactly through the equivalence
    a/b - w <= ln V <= a/b + w  iff  e^(a/b - w) <= V <= e^(a/b + w).
    Rows are computed one after another and returned sorted by (b, a).
    """
    xi = Fraction(xi)
    window = Fraction(window)
    if b_max < 1:
        raise InputError("b_max must be >= 1")
    if window < 0:
        raise InputError("window must be >= 0")
    base = sys if xi == 1 else rescale(sys, xi)
    f_iv = _positive_value_interval(base, 0, Fraction(1), config)

    cache: dict[int, RatInterval] = {}

    def value_fn(bits: int) -> RatInterval:
        if bits not in cache:
            cache[bits] = eval_component(base, 0, Fraction(1),
                                         Fraction(1, 2 ** bits))
        return cache[bits]

    ln_mid = math.log(float(Fraction(f_iv.lo + f_iv.hi, 2)))
    w_f = float(window)
    pairs = []
    for b in range(1, b_max + 1):
        lo = math.floor(b * (ln_mid - w_f)) - 2
        hi = math.ceil(b * (ln_mid + w_f)) + 2
        for a in range(lo, hi + 1):
            if math.gcd(abs(a), b) != 1:
                continue
            r = Fraction(a, b)
            inside = (_exp_leq_value(r - window, value_fn, 64,
                                     config.max_precision_bits)
                      and not _exp_leq_value(r + window, value_fn, 64,
                                             config.max_precision_bits))
            # e^(r+w) <= V means a/b + w <= ln V: strictly outside the window
            if inside:
                pairs.append((b, a))
    pairs.sort()
    return [log_lower_bound(sys, xi, a, b, config) for b, a in pairs]


def exponent_fit(rows: Sequence[LogBoundResult]) -> tuple[float, float]:
    """Least-squares fit of ln(-ln bound) against ln b over certified rows.

    Returns (c_fit, d_fit) for the shape bound ~ exp(-c b^d).  Diagnostic
    only; raises DegenerateFit without >= 3 distinct b with bounds in (0, 1).
    """
    points = []
    for row in rows:
        if not row.certified or row.bound is None:
            continue
        if not 0 < row.bound < 1:
            continue
        neg_log = -(math.log(row.bound.numerator)
                    - math.log(row.bound.denominator))
        points.append((math.log(row.b), math.log(neg_log)))
    bs = {round(x, 12) for x, _ in points}
    if len(bs) < 3:
        raise DegenerateFit(
            f"need >= 3 distinct denominators with usable bounds, have {len(bs)}")
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        raise DegenerateFit("denominators do not vary")
    d_fit = (n * sxy - sx * sy) / denom
    intercept = (sy - d_fit * sx) / n
    return math.exp(intercept), d_fit
