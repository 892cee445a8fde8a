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
                     MissingExponentBound, NonPositiveValue)
from .evalcert import RatInterval, eval_component, eval_exp
from .forms import (CERTIFIED, NOT_CERTIFIED, BoundCertificate,
                    _check_evaluation_point, _check_precision, adaptive_bound,
                    default_n_max)
from .zeroestimate import n0_for_system

PATH_FORMS = "forms"
PATH_INTERVAL = "interval"
PATH_NONE = "none"


@dataclass(frozen=True)
class LogConfig:
    """Precision and degree limits of the pipeline; defaults match the CLI.

    Intervals start at width 2^-precision_bits and are refined by doubling
    the bits up to max_precision_bits = max(1024, 4 precision_bits); the
    forms route tries n = 1..n_max (4 n0 when None) at the default eps1.
    """

    precision_bits: int = 256
    n_max: int | None = None

    def __post_init__(self):
        _check_precision(self.precision_bits)

    @property
    def max_precision_bits(self) -> int:
        return max(1024, 4 * self.precision_bits)


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


class _PointState:
    """The work every row at one xi shares, because it does not depend on
    beta = a/b.

    ``base`` is the system rescaled to xi = 1 and ``f_value`` the enclosure
    of f(1) at the configured precision, checked positive.  Three caches fill
    as rows ask: enclosures of f(1) by bits; n0 of the augmented system,
    keyed on beta = 0 (any beta != 0 makes infinity an irregular point of
    the adjoined block, whose exponent bound is then the system's own, and
    leaves every residue unchanged); and the enclosures of the m base
    components at 1, by the augmented growth constant C' = max(C, |beta|)
    that sets their truncation.
    """

    def __init__(self, sys: DiffSystem, xi: Fraction, config: LogConfig):
        self.config = config
        self.xi = xi
        self.base = sys if xi == 1 else rescale(sys, xi)
        self._values: dict[int, RatInterval] = {}
        self._n0: dict[bool, int | None] = {}
        self._components: dict[Fraction, list[RatInterval]] = {}
        self.f_value = self._positive_value()

    def value(self, bits: int) -> RatInterval:
        """Enclosure of f(1) of width 2^-bits."""
        if bits not in self._values:
            self._values[bits] = eval_component(self.base, 0, Fraction(1),
                                                Fraction(1, 2 ** bits))
        return self._values[bits]

    def _positive_value(self) -> RatInterval:
        bits = self.config.precision_bits
        iv = self.value(bits)
        if iv.hi <= 0:
            raise NonPositiveValue(
                f"f({self.xi}) is negative, in {iv.decimal()}; negate the "
                f"function and retry")
        while (not iv.strictly_positive()
               and bits < self.config.max_precision_bits):
            bits *= 2
            iv = self.value(bits)
        if not iv.strictly_positive():
            raise NonPositiveValue(
                f"f({self.xi}) not strictly positive at precision {bits} "
                f"bits, in {iv.decimal()}")
        return iv

    def n0(self, aug: DiffSystem, beta: Fraction) -> int | None:
        """n0 of the augmented system; None when an exponent bound is
        missing and n_max is given (without n_max that is fatal)."""
        key = beta == 0
        if key not in self._n0:
            try:
                self._n0[key] = n0_for_system(aug).value
            except MissingExponentBound:
                if self.config.n_max is None:
                    raise
                self._n0[key] = None
        return self._n0[key]

    def component_intervals(self, aug: DiffSystem) -> list[RatInterval]:
        """Enclosures of the m + 1 components of aug at 1; the exp component
        stays on aug's own enclosure."""
        width = Fraction(1, 2 ** self.config.precision_bits)
        c = aug.growth.C
        if c not in self._components:
            self._components[c] = [eval_component(aug, i, Fraction(1), width)
                                   for i in range(aug.m - 1)]
        return (self._components[c]
                + [eval_component(aug, aug.m - 1, Fraction(1), width)])


def log_lower_bound(sys: DiffSystem, xi: Rational, a: int, b: int,
                    config: LogConfig = LogConfig(), *,
                    _state: _PointState | None = None) -> LogBoundResult:
    """Certified positive lower bound for |ln f(xi) - a/b|, f = component 1.

    Requires f(xi) > 0 (checked by interval, refining as needed) and
    xi T(xi) != 0.  The forms route failing to certify is recorded, not
    fatal, as long as the interval route separates f(xi) from exp(a/b);
    ExhaustedN propagates only when both routes fail.  measure_scan passes
    the rows of one scan a shared _state built from the same sys, xi and
    config.  The forms route is not run when no n can certify it, because
    a component is already a constant times exp(beta z) (_exp_duplicate).
    """
    xi = Fraction(xi)
    if b < 1:
        raise InputError("approximation denominator b must be >= 1")
    _check_evaluation_point(sys.T, xi)
    beta = Fraction(a, b)
    state = _PointState(sys, xi, config) if _state is None else _state
    f_iv = state.f_value
    exp_iv = eval_exp(beta, Fraction(1, 2 ** config.precision_bits))

    aug = augment_exp(state.base, beta)
    target = (1,) + (0,) * (sys.m - 1) + (-1,)
    n0 = state.n0(aug, beta)
    forms_cert = None
    forms_failure = _exp_duplicate(aug, xi)
    if forms_failure is None:
        try:
            forms_cert = adaptive_bound(
                aug, Fraction(1), target,
                n_max=(default_n_max(n0) if config.n_max is None
                       else config.n_max),
                precision_bits=config.precision_bits,
                component_intervals=state.component_intervals(aug))
        except ExhaustedN as exc:
            forms_failure = f"{exc} ({len(exc.attempts)} attempts)"

    # Mean value conversion: omega lies between f(1) and exp(beta).
    omega_upper = max(f_iv.hi, exp_iv.hi)
    omega_lower = min(f_iv.lo, exp_iv.lo)

    diff = f_iv - exp_iv
    bits = config.precision_bits
    while diff.abs_lower() == 0 and bits < config.max_precision_bits:
        bits *= 2
        diff = state.value(bits) - eval_exp(beta, Fraction(1, 2 ** bits))

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
    beta_dep = {
        "E": aug_params.E,
        "C": aug.growth.C,
        "D": aug.growth.D,
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


def _exp_duplicate(aug: DiffSystem, xi: Fraction) -> str | None:
    """Why the forms route cannot certify on aug, the rescaled base with
    exp(beta z) adjoined, when a row of the base's A is beta e_i: then
    f_i' = beta f_i, f_i = f_i(0) exp(beta z), and the augmented components
    are linearly dependent.  None when no row is."""
    m = aug.m - 1
    zero, beta = aug.A[m][0], aug.A[m][m]
    for i, row in enumerate(aug.A[:m]):
        if row == (zero,) * i + (beta,) + (zero,) * (m - i):
            return (f"component {i + 1} ({aug.labels[i]}) at {xi} z is a "
                    f"constant times {aug.labels[m]}, the component "
                    f"adjoined, so the augmented components are linearly "
                    f"dependent")
    return None


# ---------------------------------------------------------------------------
# Scanning rational approximations
# ---------------------------------------------------------------------------

# _exp_leq_value is exact at any start; most candidates of a scan lie far
# from the window's edges and are decided at this precision.
_MEMBERSHIP_START_BITS = 8


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
    Rows are computed one after another, sorted by (b, a), and share the
    beta-independent work of one _PointState.
    """
    xi = Fraction(xi)
    window = Fraction(window)
    if b_max < 1:
        raise InputError("b_max must be >= 1")
    if window < 0:
        raise InputError("window must be >= 0")
    try:
        w_f = float(window)
    except OverflowError:
        raise InputError("window does not fit in a float") from None
    state = _PointState(sys, xi, config)
    f_iv = state.f_value
    mid = Fraction(f_iv.lo + f_iv.hi, 2)      # of any size: no float(mid)
    ln_mid = math.log(mid.numerator) - math.log(mid.denominator)
    pairs = []
    for b in range(1, b_max + 1):
        lo = math.floor(b * (ln_mid - w_f)) - 2
        hi = math.ceil(b * (ln_mid + w_f)) + 2
        for a in range(lo, hi + 1):
            if math.gcd(abs(a), b) != 1:
                continue
            r = Fraction(a, b)
            inside = (_exp_leq_value(r - window, state.value,
                                     _MEMBERSHIP_START_BITS,
                                     config.max_precision_bits)
                      and not _exp_leq_value(r + window, state.value,
                                             _MEMBERSHIP_START_BITS,
                                             config.max_precision_bits))
            # e^(r+w) <= V means a/b + w <= ln V: strictly outside the window
            if inside:
                pairs.append((b, a))
    pairs.sort()
    return [log_lower_bound(sys, xi, a, b, config, _state=state)
            for b, a in pairs]


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
