"""Derived-form ladders and certified lower bounds on integer linear forms
in the component values.

From the auxiliary remainder R_1 = R the ladder is

    R_{k+1} = T(z) R_k'(z),

which stays a linear form in the same functions: writing
R_k = sum_i P_{k,i} f_i and using T f' = (T A) f,

    P_{k+1,j} = T P_{k,j}' + sum_i P_{k,i} (T A)_{i,j},

with deg P_{k,i} <= n + (k-1) q.  Evaluating at a rational xi and clearing
denominators yields integer linear forms; m of them together with the target
form assemble the determinant inequality

    |D_{m,l}| |L_0| >= |f_l(xi)| |D| - (m-1) max_j |D_{j,l}| max_j |L_j|,

whose right side is bounded from below using exact integers, a certified
interval for f_l(xi), and rigorous upper bounds U_j >= |L_j| obtained by
pushing the remainder's factorial tail through the operator T d/dz.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .algebra import Poly, Rational, RowBasis, cofactor, den, det_exact
from .auxiliary import (AuxiliaryBasis, RemainderSeries, construct,
                        default_eps1, remainder, validate_eps1)
from .efunction import DiffSystem, extract_params
from .errors import (ExhaustedN, InputError, MissingGrowthCertificate,
                     RankDeficientLadder, SingularEvaluationPoint,
                     TargetInSpanFailure)
from .evalcert import RatInterval, eval_component
from .zeroestimate import n0_for_system

logger = logging.getLogger(__name__)

CERTIFIED = "certified"
NOT_CERTIFIED = "not_certified"


def ladder_length(m: int, q: int, p: int, n: int, eps1: Rational) -> int:
    """m + t1 with t1 = q m(m-1)/2 + floor(eps1 n) + p."""
    eps1 = validate_eps1(m, eps1)
    t1 = q * (m - 1) * m // 2 + math.floor(eps1 * n) + p
    return m + t1


@dataclass(frozen=True)
class FormsLadder:
    """K x m array of ladder polynomials; row k (0-based) carries R_{k+1}.

    clear_factor is the least positive integer lambda with lambda * T * A
    integral: row k has lambda^k * P_{k,i} in Z[z].
    """

    K: int
    rows: tuple[tuple[Poly, ...], ...]
    degree_bounds: tuple[int, ...]
    n: int
    q: int
    clear_factor: int
    t_poly: Poly


def build_ladder(basis: AuxiliaryBasis, sys: DiffSystem, K: int) -> FormsLadder:
    """Iterate the update rule and verify the ladder identity on exact
    truncated series (failure here is an internal bug, not bad input)."""
    if K < 1:
        raise InputError("ladder length must be >= 1")
    params = extract_params(sys)
    q = params.q
    t = sys.T
    rows = [tuple(basis.polys)]
    for _ in range(K - 1):
        prev = rows[-1]
        nxt = []
        for j in range(sys.m):
            acc = t * prev[j].derivative()
            for i in range(sys.m):
                if not prev[i].is_zero():
                    acc = acc + prev[i] * sys.TA[i][j]
            nxt.append(acc)
        rows.append(tuple(nxt))
    bounds = tuple(basis.n + k * q for k in range(K))
    for k, row in enumerate(rows):
        for i, p in enumerate(row):
            if p.degree > bounds[k]:
                raise AssertionError(
                    f"degree bound violated at ladder row {k + 1}")
            if p.degree == bounds[k]:
                logger.debug("ladder degree bound attained (non-strict) at "
                             "row %d component %d", k + 1, i + 1)
    order = basis.achieved_order + K * (q + 1) + 8
    series = sys.coefficients(order)
    combo = [_form_series(rows[0], series)]
    for k in range(1, K):
        nxt = _form_series(rows[k], series)
        derived = combo[-1].derivative().mul_poly(t)
        upto = min(nxt.order, derived.order)
        if nxt.truncate(upto) != derived.truncate(upto):
            raise AssertionError(
                f"ladder identity failed between rows {k} and {k + 1}")
        combo.append(nxt)
    return FormsLadder(K=K, rows=tuple(rows), degree_bounds=bounds,
                       n=basis.n, q=q, clear_factor=sys.clear_factor,
                       t_poly=sys.T)


def _form_series(polys, series):
    acc = series[0].mul_poly(polys[0])
    for p, s in zip(polys[1:], series[1:]):
        acc = acc + s.mul_poly(p)
    return acc


@dataclass(frozen=True)
class IntegerForms:
    """Ladder rows evaluated at xi and cleared to integers.

    Row k is scaled by s_k = den(xi)^(n + k q) * lambda^k, so
    rows[k][i] = s_k * P_{k,i}(xi) exactly.
    """

    rows: tuple[tuple[int, ...], ...]
    row_scales: tuple[int, ...]
    xi: Fraction


def evaluate_forms(ladder: FormsLadder, xi: Rational) -> IntegerForms:
    xi = Fraction(xi)
    if xi == 0 or ladder.t_poly(xi) == 0:
        raise SingularEvaluationPoint(
            f"xi T(xi) = 0 at xi = {xi}; forms cannot be evaluated there")
    d = den(xi)
    rows = []
    scales = []
    for k, row in enumerate(ladder.rows):
        s = d ** ladder.degree_bounds[k] * ladder.clear_factor ** k
        vals = []
        for p in row:
            v = p(xi) * s
            if v.denominator != 1:
                raise AssertionError("denominator clearing failed")
            vals.append(int(v))
        rows.append(tuple(vals))
        scales.append(s)
    return IntegerForms(rows=tuple(rows), row_scales=tuple(scales), xi=xi)


# ---------------------------------------------------------------------------
# Certified lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttemptRecord:
    n: int
    status: str
    reason: str


@dataclass(frozen=True)
class BoundCertificate:
    """Everything needed to audit one run of the determinant inequality."""

    status: str
    n: int
    eps1: Fraction
    xi: Fraction
    target: tuple[int, ...]
    selected_rows: tuple[int, ...]          # 1-based ladder row numbers
    ell: int                                # 0-based component index
    delta: int
    target_cofactor: int                    # cofactor at (target row, ell)
    form_cofactors: tuple[int, ...]         # cofactors at (form row j, ell)
    row_upper_bounds: tuple[Fraction, ...]  # U_j >= |s_k R_k(xi)|
    f_ell_lower: Fraction
    lower_bound: Fraction | None
    attempts: tuple[AttemptRecord, ...] = field(default=())

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def _check_evaluation_point(sys: DiffSystem, xi: Fraction):
    if xi == 0 or sys.T(xi) == 0:
        raise SingularEvaluationPoint(
            f"xi T(xi) = 0 at xi = {xi}; bound machinery requires a "
            f"nonsingular evaluation point")


def _operator_tail_sum(rem: RemainderSeries, power: int, xi: Fraction,
                       t_poly: Poly) -> Fraction:
    """Rigorous bound for |(T d/dz)^power applied to the discarded tail of R,
    evaluated at xi|.

    One application maps z^mu to mu T z^(mu-1): at most (1+deg T) monomials,
    coefficients bounded by Ehat = max |T coeffs|, exponent shifted into
    [mu-1, mu-1+deg T].  After ``power`` steps a start index mu contributes
    at most

        G(mu) = (1+deg T)^p Ehat^p prod_{i<p}(mu + i (deg T - 1)) X(mu),
        X(mu) = max(|xi|^(mu-p), |xi|^(mu-p+p deg T)),

    and |tail coeff at mu| <= rem.tail_bound(mu).  The series over mu is
    closed with a geometric comparison: once mu >= 3*power and
    2 Chat max(1,|xi|) / (mu+1-n) <= 1/2, consecutive terms at least halve.
    """
    dt = max(t_poly.degree, 0)
    e_hat = t_poly.max_abs_coeff()
    x_abs = abs(xi)
    x_max = max(Fraction(1), x_abs)
    pref = (Fraction(1 + dt) * e_hat) ** power

    def g(mu: int) -> Fraction:
        prod = Fraction(1)
        for i in range(power):
            prod *= mu + i * (dt - 1)
        lo = x_abs ** (mu - power)
        if dt and x_abs > 1:
            hi = lo * x_abs ** (power * dt)
            xf = max(lo, hi)
        else:
            xf = lo
        return pref * prod * xf

    total = Fraction(0)
    mu = rem.cutoff + 1
    while True:
        term = rem.tail_bound(mu) * g(mu)
        total += term
        ratio_ok = (mu >= 3 * power
                    and 2 * rem.c_hat * x_max / (mu + 1 - rem.n) <= Fraction(1, 2))
        if ratio_ok:
            # terms at least halve from here on: remaining sum <= last term
            return total + term
        mu += 1


def _scaled_form_upper_bound(rem: RemainderSeries, ladder_row: int,
                             xi: Fraction, scale: int, t_poly: Poly
                             ) -> Fraction:
    """U >= |s_k R_{k+1}(xi)| for 0-based ladder_row k: exact evaluation of
    the operator applied to the truncation, plus the propagated tail."""
    poly = Poly(rem.coeffs)
    for _ in range(ladder_row):
        poly = t_poly * poly.derivative()
    exact_part = abs(poly(xi))
    tail_part = _operator_tail_sum(rem, ladder_row, xi, t_poly)
    return scale * (exact_part + tail_part)


def _remainder_cutoff(basis: AuxiliaryBasis, K: int, t_deg: int,
                      c_hat: Fraction, xi: Fraction) -> int:
    x_max = max(Fraction(1), abs(xi))
    return (max(basis.achieved_order, basis.tau, basis.n + 1)
            + K * (t_deg + 1) + 24 + 3 * K + math.ceil(4 * c_hat * x_max))


def _check_precision(precision_bits: int):
    if precision_bits < 1:
        raise InputError("precision must be >= 1 bit")


def certified_lower_bound(sys: DiffSystem, xi: Rational,
                          target: Sequence[int], n: int, *,
                          eps1: Rational | None = None,
                          precision_bits: int = 256,
                          component_intervals: Sequence[RatInterval] | None = None,
                          ) -> BoundCertificate:
    """Run the construction at degree n and certify a lower bound for
    |sum_i target_i f_i(xi)|, or report NotCertified.

    Raises RankDeficientLadder / TargetInSpanFailure when no nonzero
    determinant can be assembled at this n.  component_intervals, when given,
    must be certified enclosures of the f_i(xi) (they are recomputed
    otherwise); adaptive_bound uses this to share evaluations across n.
    """
    xi = Fraction(xi)
    m = sys.m
    target = tuple(int(a) for a in target)
    if len(target) != m:
        raise InputError(f"target must have {m} entries")
    if all(a == 0 for a in target):
        raise InputError("target vector must be nonzero")
    _check_precision(precision_bits)
    _check_evaluation_point(sys, xi)
    if sys.growth is None:
        raise MissingGrowthCertificate(
            "certified_lower_bound needs a growth certificate on the system")
    if eps1 is None:
        eps1 = default_eps1(m)
    eps1 = validate_eps1(m, eps1)

    params = extract_params(sys)
    basis = construct(sys, n, eps1)
    K = ladder_length(m, params.q, params.p, n, eps1)
    ladder = build_ladder(basis, sys, K)
    forms = evaluate_forms(ladder, xi)

    rb = RowBasis(m)
    rb.offer(target)
    selected: list[int] = []
    for k in range(K):
        if len(selected) == m - 1:
            break
        if rb.offer(forms.rows[k]):
            selected.append(k)
    if len(selected) < m - 1:
        full = RowBasis(m)
        rank = sum(1 for k in range(K) if full.offer(forms.rows[k]))
        if rank < m:
            raise RankDeficientLadder(
                f"ladder rows have rank {rank} < m = {m} at n = {n}")
        raise TargetInSpanFailure(
            f"no ladder row selection makes the determinant with the target "
            f"nonzero at n = {n}")

    matrix = [list(forms.rows[k]) for k in selected] + [list(target)]
    delta = det_exact(matrix)
    if delta == 0:
        raise AssertionError("selected rows produced a zero determinant")

    if component_intervals is None:
        width = Fraction(1, 2 ** precision_bits)
        intervals = [eval_component(sys, i, xi, width) for i in range(m)]
    else:
        intervals = list(component_intervals)
    target_cofs = [cofactor(matrix, m - 1, l) for l in range(m)]
    candidates = [l for l in range(m) if target_cofs[l] != 0]
    ell = max(candidates, key=lambda l: (intervals[l].abs_lower(), -l))
    f_lower = intervals[ell].abs_lower()

    cutoff = _remainder_cutoff(basis, K, max(sys.T.degree, 0),
                               max(Fraction(1), Fraction(sys.growth.C)), xi)
    rem = remainder(basis, sys, cutoff)
    uppers = tuple(
        _scaled_form_upper_bound(rem, k, xi, forms.row_scales[k], sys.T)
        for k in selected)
    form_cofs = tuple(cofactor(matrix, j, ell) for j in range(m - 1))

    if m > 1:
        slack = ((m - 1) * max(abs(c) for c in form_cofs)
                 * max(uppers))
    else:
        slack = Fraction(0)
    numerator = f_lower * abs(delta) - slack
    if numerator > 0:
        bound = numerator / abs(target_cofs[ell])
        status = CERTIFIED
    else:
        bound = None
        status = NOT_CERTIFIED
    return BoundCertificate(
        status=status, n=n, eps1=eps1, xi=xi, target=target,
        selected_rows=tuple(k + 1 for k in selected), ell=ell, delta=delta,
        target_cofactor=target_cofs[ell], form_cofactors=form_cofs,
        row_upper_bounds=uppers, f_ell_lower=f_lower, lower_bound=bound)


def default_n_max(sys: DiffSystem) -> int:
    """Last degree the adaptive loop tries when no n_max is given: 4 n0."""
    return 4 * n0_for_system(sys).value


def adaptive_bound(sys: DiffSystem, xi: Rational, target: Sequence[int], *,
                   n_start: int = 1, n_max: int | None = None,
                   eps1: Rational | None = None,
                   precision_bits: int = 256) -> BoundCertificate:
    """Increase n until certification succeeds; every failed attempt is
    recorded on the returned certificate (or on the ExhaustedN error)."""
    if n_start < 1:
        raise InputError("n_start must be >= 1")
    _check_precision(precision_bits)
    if n_max is None:
        n_max = default_n_max(sys)
    xi = Fraction(xi)
    _check_evaluation_point(sys, xi)
    width = Fraction(1, 2 ** precision_bits)
    intervals = [eval_component(sys, i, xi, width) for i in range(sys.m)]
    attempts: list[AttemptRecord] = []
    for n in range(n_start, n_max + 1):
        try:
            cert = certified_lower_bound(sys, xi, target, n, eps1=eps1,
                                         precision_bits=precision_bits,
                                         component_intervals=intervals)
        except (RankDeficientLadder, TargetInSpanFailure) as exc:
            attempts.append(AttemptRecord(n=n, status=type(exc).__name__,
                                          reason=str(exc)))
            continue
        if cert.certified:
            return replace(cert, attempts=tuple(attempts))
        attempts.append(AttemptRecord(n=n, status=NOT_CERTIFIED,
                                      reason="determinant slack too large"))
    raise ExhaustedN(
        f"no certification for n in [{n_start}, {n_max}]", attempts)
