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

The U_j are built only for an attempt the enclosures cannot refute.  Each
evaluated row gives L_j = sum_i row_j[i] f_i(xi) = s_j R_{j+1}(xi), so every
U_j >= |L_j| is at least the distance from 0 of the interval sum of the
row times the enclosures.  If |f_l|_lower |D| is at most (m-1) max_j
|D_{j,l}| times the largest of those distances, the numerator of the
inequality is <= 0 whatever the U_j, and the attempt fails without its
remainder.  No bound rests on this test: an attempt it cannot refute, and
so every certified one, goes on to the remainder and the U_j.

The ladder length K = m + t1 is the length within which the zero estimate
guarantees rank m, not a number of rows to compute: rows are built, checked
and evaluated only as the row selection reaches them, which is row 1 alone
for most attempts.  The system's integer columns are checked against
T f' = (T A) f to each ladder's order, which gives the ladder identity of
every row, built or not; the check is kept with the system (LadderStep)
and resumed, so the attempts of an adaptive loop, and the rows of a scan
on one base, check each column coefficient once.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .algebra import Poly, Rational, cofactor, det_exact, horner, rank
from .auxiliary import (AuxiliaryBasis, RemainderSeries, _combination,
                        check_system, construct, remainder, validate_eps1)
from .efunction import DiffSystem, _ExpAugmented, extract_params
from .errors import (ExhaustedN, InputError, MissingGrowthCertificate,
                     RankDeficientLadder, SingularEvaluationPoint)
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


class FormsLadder:
    """K x m array of ladder polynomials; row k (0-based) carries R_{k+1}.

    clear_factor is the least positive integer lambda with lambda * T * A
    integral: row k has lambda^k * P_{k,i} in Z[z].  The ladder is built,
    checked and evaluated on these integer rows, coefficient tuples in
    ascending degree without trailing zeros.  Row k is built only when
    row(k) first reaches it: each built row has its degrees checked against
    degree_bounds, and each pair of consecutive built rows the ladder
    identity N_{k+1} = lambda T N_k' mod z^order on the integer series
    N_k = D lambda^k R_{k+1}, D the denominator of the system's integer
    columns (N_0 is computed from those columns when row 2 is first built).
    scaled_rows builds all K rows; rows gives the P_{k,i} themselves as
    Poly.
    """

    def __init__(self, basis: AuxiliaryBasis, sys: DiffSystem, K: int,
                 q: int, order: int, columns: Sequence[Sequence[int]],
                 step: LadderStep):
        self.K = K
        self.n = basis.n
        self.q = q
        self.clear_factor = sys.clear_factor
        self.t_poly = sys.T
        self.degree_bounds = tuple(basis.n + k * q for k in range(K))
        self._order = order
        self._columns = columns
        self._step = step
        self._series: list[int] | None = None   # N_k of the last row built
        self._built = [self._checked_degrees(0, basis.int_polys)]

    def row(self, k: int) -> tuple[tuple[int, ...], ...]:
        """The integer row lambda^k P_k, building the rows up to it."""
        if not 0 <= k < self.K:
            raise IndexError(f"ladder row {k} outside 0..{self.K - 1}")
        while len(self._built) <= k:
            self._extend()
        return self._built[k]

    @property
    def scaled_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(self.row(k) for k in range(self.K))

    @property
    def rows(self) -> tuple[tuple[Poly, ...], ...]:
        """The P_{k,i}: scaled_rows[k][i] / lambda^k."""
        return tuple(tuple(Poly(Fraction(c, self.clear_factor ** k)
                                for c in p) for p in row)
                     for k, row in enumerate(self.scaled_rows))

    def _checked_degrees(self, k: int, row: tuple[tuple[int, ...], ...]
                         ) -> tuple[tuple[int, ...], ...]:
        bound = self.degree_bounds[k]
        for i, p in enumerate(row):
            if len(p) - 1 > bound:
                raise AssertionError(
                    f"degree bound violated at ladder row {k + 1}")
            if len(p) - 1 == bound:
                logger.debug("ladder degree bound attained (non-strict) at "
                             "row %d component %d", k + 1, i + 1)
        return row

    def _extend(self):
        """Build the next row and check it against the last one."""
        k = len(self._built)
        step = self._step
        row = self._checked_degrees(
            k, _next_row(self._built[-1], step.lam_t, step.lam_ta))
        order = self._order
        if self._series is None:
            self._series = _combination(self._built[0], self._columns, 0,
                                        order + 1)
        nxt = _combination(row, self._columns, 0, order + 1)
        derived = _combination([step.lam_t], [_derivative(self._series)], 0,
                               order)
        if nxt[:order] != derived:
            raise AssertionError(
                f"ladder identity failed between rows {k} and {k + 1}")
        self._series = nxt
        self._built.append(row)


def _derivative(p: Sequence[int]) -> list[int]:
    return [j * c for j, c in enumerate(p)][1:]


def _mul_into(out: list[int], a: Sequence[int], b: Sequence[int]
              ) -> list[int]:
    """Add the product of the integer coefficient lists a and b into out,
    extending out with zeros to the product's length: one multiply-add pass
    over the operand with more nonzero coefficients per nonzero coefficient
    of the other."""
    if not a or not b:
        return out
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    width = len(b)
    out += [0] * (len(a) + width - 1 - len(out))
    for i, x in enumerate(a):
        if x:
            out[i:i + width] = map(operator.add, out[i:i + width],
                                   map(x.__mul__, b))
    return out


def _next_row(row: Sequence[Sequence[int]], lam_t: Sequence[int],
              lam_ta: Sequence[Sequence[Sequence[int]]]
              ) -> tuple[tuple[int, ...], ...]:
    """S_{k+1,j} = lambda T S_{k,j}' + sum_i S_{k,i} (lambda T A)_{i,j} for
    the integer rows S_k = lambda^k P_k."""
    out = []
    for j in range(len(row)):
        acc = _mul_into([], lam_t, _derivative(row[j]))
        for i, p in enumerate(row):
            _mul_into(acc, p, lam_ta[i][j])
        while acc and not acc[-1]:
            acc.pop()
        out.append(tuple(acc))
    return tuple(out)


class LadderStep:
    """lambda T and lambda T A of one system on integers, lambda its
    clear_factor, and the order to which its integer columns F_i = D f_i
    are checked against them: lambda T F_i' = sum_j (lambda T A)_{i,j} F_j
    mod z^order.  The identity is linear in the columns, so a larger common
    denominator D between checks changes nothing, and the coefficient store
    is append-only, so a coefficient once checked stays checked.
    """

    __slots__ = ("lam_t", "lam_ta", "order")

    def __init__(self, sys: DiffSystem):
        lam = sys.clear_factor
        self.lam_t = [lam * c.numerator for c in sys.T.coeffs]
        self.lam_ta = [[[int(lam * c) for c in p.coeffs] for p in row]
                       for row in sys.TA]
        self.order = 0


def _check_columns(lam_t: Sequence[int],
                   rows: Sequence[Sequence[Sequence[int]]],
                   columns: Sequence[Sequence[int]], start: int, stop: int,
                   first: int):
    """AssertionError unless lambda T F_i' = sum_j rows[i][j] F_j in the
    coefficients start..stop-1, for each column F_i (numbered from first
    in the message); the columns hold F_i[0..stop]."""
    lo = max(0, start - len(lam_t) + 1)
    for i, (row, col) in enumerate(zip(rows, columns)):
        derivative = [0] * lo + [k * c for k, c in
                                 enumerate(col[lo + 1:stop + 1], lo + 1)]
        if (_combination([lam_t], [derivative], start, stop)
                != _combination(row, columns, start, stop)):
            raise AssertionError(
                f"integer column {first + i + 1} fails T f' = (T A) f")


def _system_step(sys: DiffSystem, order: int) -> LadderStep:
    """The system's LadderStep, its columns checked to the order: from the
    order already checked, so each coefficient is checked once per system.

    A system with exp(beta z) adjoined is block diagonal: its base checks
    the base block on its own step, and only the exp column E is checked
    here, lambda' T E' = (lambda' beta T) E, lambda' a multiple of the
    base's lambda.  Together they are the identity of every column."""
    step = sys._ladder_step
    if step is None:
        step = sys._ladder_step = LadderStep(sys)
    if step.order < order:
        if isinstance(sys, _ExpAugmented):
            _system_step(sys._base, order)
            i = sys.m - 1
            _check_columns(step.lam_t, [[step.lam_ta[i][i]]],
                           [sys.integer_column(i, order)[1]], step.order,
                           order, i)
        else:
            _check_columns(step.lam_t, step.lam_ta,
                           sys.integer_coefficients(order)[1], step.order,
                           order, 0)
        step.order = order
    return step


def build_ladder(basis: AuxiliaryBasis, sys: DiffSystem, K: int) -> FormsLadder:
    """The K-row ladder of the auxiliary basis; its rows are built, checked
    and evaluated only as FormsLadder.row reaches them (failure of a check
    is an internal bug, not bad input).

    Here, before any row past the first, the system's integer columns
    F_i = D f_i are checked against the system to the ladder's order:
    lambda T F_i' = sum_j (lambda T A)_{i,j} F_j mod z^order.  With the
    update rule this gives N_{k+1} = lambda T N_k' for every row, built or
    not.  The check and lambda T, lambda T A on integers are the system's
    (LadderStep), so an order checked for an earlier ladder of the system
    is not checked again.
    """
    if K < 1:
        raise InputError("ladder length must be >= 1")
    check_system(basis, sys)
    q = extract_params(sys).q
    order = basis.achieved_order + K * (q + 1) + 8
    step = _system_step(sys, order)
    _, columns = sys.integer_coefficients(order)
    return FormsLadder(basis, sys, K, q, order, columns, step)


class IntegerForms:
    """Ladder rows evaluated at xi and cleared to integers.

    Row k is scaled by s_k = den(xi)^(n + k q) * lambda^k, so
    row(k)[i] = s_k * P_{k,i}(xi) exactly.  A row is evaluated, and built,
    when row(k) first asks for it; rows evaluates all K.
    """

    def __init__(self, ladder: FormsLadder, xi: Fraction):
        self.ladder = ladder
        self.xi = xi
        d, lam = xi.denominator, ladder.clear_factor
        self.row_scales = tuple(d ** bound * lam ** k for k, bound
                                in enumerate(ladder.degree_bounds))
        self._values: dict[int, tuple[int, ...]] = {}

    def row(self, k: int) -> tuple[int, ...]:
        """s_k P_{k,i}(a/d) = sum_j c_j a^j d^(B_k - j) for the integer row
        lambda^k P_{k,i} = sum_j c_j z^j and B_k = n + k q."""
        if k not in self._values:
            a, d = self.xi.numerator, self.xi.denominator
            bound = self.ladder.degree_bounds[k]
            # FormsLadder.row checked len(p) - 1 <= bound on every built row
            self._values[k] = tuple(horner(p, a, d) * d ** (bound + 1 - len(p))
                                    for p in self.ladder.row(k))
        return self._values[k]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(k) for k in range(self.ladder.K))


def evaluate_forms(ladder: FormsLadder, xi: Rational) -> IntegerForms:
    """The ladder's integer forms at xi, each row evaluated on demand."""
    xi = Fraction(xi)
    _check_evaluation_point(ladder.t_poly, xi)
    return IntegerForms(ladder, xi)


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
    row_upper_bounds: tuple[Fraction, ...]  # U_j >= |s_k R_k(xi)|, or ()
    f_ell_lower: Fraction
    lower_bound: Fraction | None
    attempts: tuple[AttemptRecord, ...] = field(default=())

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def _check_evaluation_point(t_poly: Poly, xi: Fraction):
    """SingularEvaluationPoint unless xi T(xi) != 0.  T is an integer
    polynomial (a DiffSystem invariant), so T(a/d) = 0 is tested on the
    integer d^deg T T(a/d)."""
    if xi == 0 or horner([c.numerator for c in t_poly.coeffs],
                         xi.numerator, xi.denominator) == 0:
        raise SingularEvaluationPoint(
            f"xi T(xi) = 0 at xi = {xi}; bound machinery requires a "
            f"nonsingular evaluation point")


def _operator_tail_sum(rem: RemainderSeries, power: int, xi: Fraction,
                       t_poly: Poly) -> tuple[int, int]:
    """Rigorous bound for |(T d/dz)^power applied to the discarded tail of R,
    evaluated at xi|, as (num, den), den > 0: twice the first tail term, at
    mu = cutoff + 1.

    One application maps z^mu to mu T z^(mu-1): at most (1+deg T) monomials,
    coefficients bounded by Ehat = max |T coeffs|, exponent shifted into
    [mu-1, mu-1+deg T].  After ``power`` steps a start index mu contributes
    at most

        G(mu) = (1+deg T)^p Ehat^p prod_{i<p}(mu + i (deg T - 1)) X(mu),
        X(mu) = max(|xi|^(mu-p), |xi|^(mu-p+p deg T)),

    and |tail coeff at mu| <= rem.tail_bound(mu).  Halving rule: if
    mu >= 3 power and 4 Chat max(1,|xi|) <= mu + 1 - n, the term at mu + 1
    is at most half the term at mu.  From mu to mu + 1, tail_bound gains the
    factor Chat / (mu+1-n), X at most max(1,|xi|), and the product at most
    (1 + 1/(2 power + 1))^power < 2.  Both conditions then hold at every
    later mu, so the tail sums to at most twice its first term.
    _remainder_cutoff places the cutoff where they hold at mu = cutoff + 1;
    a cutoff that breaks them is an internal error.
    """
    mu = rem.cutoff + 1
    x_abs = abs(xi)
    if mu < 3 * power or 4 * rem.c_hat * max(1, x_abs) > mu + 1 - rem.n:
        raise AssertionError(f"remainder cutoff {rem.cutoff} breaks the "
                             f"halving rule at power {power}")
    dt = max(t_poly.degree, 0)
    prod = math.prod(mu + i * (dt - 1) for i in range(power))
    x_exp = mu - power + (power * dt if x_abs > 1 else 0)
    first, e_hat = rem.tail_bound(mu), t_poly.max_abs_coeff()
    num = (2 * first.numerator * ((1 + dt) * e_hat.numerator) ** power
           * prod * x_abs.numerator ** x_exp)
    den = (first.denominator * e_hat.denominator ** power
           * x_abs.denominator ** x_exp)
    return num, den


def _scaled_form_upper_bounds(rem: RemainderSeries, ladder_rows: list[int],
                              xi: Fraction, scales: Sequence[int],
                              t_poly: Poly) -> tuple[Fraction, ...]:
    """U_k >= |s_k R_{k+1}(xi)| for the ascending 0-based ladder rows k:
    exact evaluation of (T d/dz)^k applied to the truncation, one step at a
    time on the integer numerators D R (D the column denominator the
    remainder carries), plus the propagated tail, each U_k made a Fraction
    once from the two integer pairs."""
    uppers = []
    e, poly = rem.denominator, rem.numerators
    t = [c.numerator for c in t_poly.coeffs]
    a, d = xi.numerator, xi.denominator
    power = 0
    for k in ladder_rows:
        for _ in range(k - power):
            poly = _mul_into([], t, _derivative(poly))
        power = k
        tail_num, tail_den = _operator_tail_sum(rem, k, xi, t_poly)
        value = abs(horner(poly, a, d))
        value_den = e * d ** max(len(poly) - 1, 0)
        uppers.append(Fraction(
            scales[k] * (value * tail_den + tail_num * value_den),
            value_den * tail_den))
    return tuple(uppers)


def _remainder_cutoff(basis: AuxiliaryBasis, K: int, t_deg: int,
                      c_hat: Fraction, xi: Fraction) -> int:
    """The order to which R is kept exact for the U_j of ladder rows below K.

    It is at least n + 25 + 4K + ceil(4 Chat max(1,|xi|)), so mu = cutoff + 1
    meets the halving rule of _operator_tail_sum at every power below K:
    mu >= 3K and 4 Chat max(1,|xi|) <= mu + 1 - n.
    """
    x_max = max(Fraction(1), abs(xi))
    return (max(basis.achieved_order, basis.tau, basis.n + 1)
            + K * (t_deg + 1) + 24 + 3 * K + math.ceil(4 * c_hat * x_max))


def _check_precision(precision_bits: int):
    if precision_bits < 1:
        raise InputError("precision must be >= 1 bit")


def _enclosures(sys: DiffSystem, xi: Fraction, precision_bits: int,
                given: Sequence[RatInterval] | None) -> list[RatInterval]:
    """The enclosures of the f_i(xi): the given ones, or computed at width
    2^-precision_bits."""
    if given is not None:
        return list(given)
    width = Fraction(1, 2 ** precision_bits)
    return [eval_component(sys, i, xi, width) for i in range(sys.m)]


def _refuted(intervals: Sequence[RatInterval], rows: Sequence[Sequence[int]],
             f_lower: Fraction, delta: int, form_cofs: Sequence[int]) -> bool:
    """Whether the enclosures alone make the attempt fail: f_lower |delta|
    <= (m-1) max|form_cofs| max_j |L_j|_lower, where |L_j|_lower is the
    distance from 0 of sum_i rows[j][i] [lo_i, hi_i].  Each U_j >= |L_j| is
    at least that, so the numerator of the determinant inequality is then
    <= 0.  f_lower is an endpoint or 0, so all of it runs on integers over
    the endpoints' common denominator (2^g for enclosures from
    eval_component), which cancels from both sides."""
    den = math.lcm(*(x.denominator for iv in intervals
                     for x in (iv.lo, iv.hi)))
    lo = [iv.lo.numerator * (den // iv.lo.denominator) for iv in intervals]
    hi = [iv.hi.numerator * (den // iv.hi.denominator) for iv in intervals]
    form_lower = 0
    for row in rows:
        low = high = 0
        for c, a, b in zip(row, lo, hi):
            if c < 0:
                a, b = b, a
            low += c * a
            high += c * b
        form_lower = max(form_lower, low, -high)
    f_num = f_lower.numerator * (den // f_lower.denominator)
    # len(form_cofs) = m - 1
    return (f_num * abs(delta)
            <= len(form_cofs) * max(map(abs, form_cofs)) * form_lower)


def certified_lower_bound(sys: DiffSystem, xi: Rational,
                          target: Sequence[int], n: int, *,
                          eps1: Rational | None = None,
                          precision_bits: int = 256,
                          component_intervals: Sequence[RatInterval] | None = None,
                          ) -> BoundCertificate:
    """Run the construction at degree n and certify a lower bound for
    |sum_i target_i f_i(xi)|, or report NotCertified.

    The m-1 form rows are the first ladder rows, in order, that each raise
    the rank of the target together with the rows already chosen; the
    ladder is built and evaluated only as far as this choice reaches.  The
    target is nonzero and comes first, so the choice falls short only when
    the K ladder rows have rank below m; then RankDeficientLadder is raised.

    Before the remainder is built, the attempt is tested against the
    enclosures alone (_refuted): each U_j >= |L_j| is at least the interval
    lower bound of |L_j|, so if that already makes the numerator <= 0 the
    attempt fails, and its certificate carries no row_upper_bounds.  The
    test is exact, so every other attempt, certified or not, goes on to
    the U_j and the inequality as before.  At m = 1 there are no form rows,
    so no U_j and no slack: the remainder is not built, and the bound is
    f_ell_lower |delta| / |target cofactor|.

    component_intervals, when given, must be certified enclosures of the
    f_i(xi) (they are recomputed otherwise); adaptive_bound uses this to
    share evaluations across n.
    """
    xi = Fraction(xi)
    m = sys.m
    target = tuple(int(a) for a in target)
    if len(target) != m:
        raise InputError(f"target must have {m} entries")
    if all(a == 0 for a in target):
        raise InputError("target vector must be nonzero")
    _check_precision(precision_bits)
    _check_evaluation_point(sys.T, xi)
    if sys.growth is None:
        raise MissingGrowthCertificate(
            "certified_lower_bound needs a growth certificate on the system")
    eps1 = validate_eps1(m, eps1)

    params = extract_params(sys)
    basis = construct(sys, n, eps1)
    K = ladder_length(m, params.q, params.p, n, eps1)
    ladder = build_ladder(basis, sys, K)
    forms = evaluate_forms(ladder, xi)

    chosen = [target]
    selected: list[int] = []
    for k in range(K):
        if len(selected) == m - 1:
            break
        row = forms.row(k)
        if rank(chosen + [row]) > len(chosen):
            chosen.append(row)
            selected.append(k)
    if len(selected) < m - 1:
        raise RankDeficientLadder(
            f"ladder rows have rank {rank(forms.rows)} < m = {m} at n = {n}")

    matrix = [list(forms.row(k)) for k in selected] + [list(target)]
    delta = det_exact(matrix)
    if delta == 0:
        raise AssertionError("selected rows produced a zero determinant")

    intervals = _enclosures(sys, xi, precision_bits, component_intervals)
    target_cofs = [cofactor(matrix, m - 1, l) for l in range(m)]
    candidates = [l for l in range(m) if target_cofs[l] != 0]
    ell = max(candidates, key=lambda l: (intervals[l].abs_lower(), -l))
    f_lower = intervals[ell].abs_lower()
    form_cofs = tuple(cofactor(matrix, j, ell) for j in range(m - 1))

    uppers, bound = (), None
    if m == 1:
        numerator = f_lower * abs(delta)
    elif _refuted(intervals, matrix[:-1], f_lower, delta, form_cofs):
        numerator = 0
    else:
        cutoff = _remainder_cutoff(basis, K, max(sys.T.degree, 0),
                                   sys.growth.C, xi)
        rem = remainder(basis, sys, cutoff)
        uppers = _scaled_form_upper_bounds(rem, selected, xi,
                                           forms.row_scales, sys.T)
        numerator = (f_lower * abs(delta)
                     - (m - 1) * max(abs(c) for c in form_cofs) * max(uppers))
    if numerator > 0:
        bound = numerator / abs(target_cofs[ell])
    return BoundCertificate(
        status=NOT_CERTIFIED if bound is None else CERTIFIED,
        n=n, eps1=eps1, xi=xi, target=target,
        selected_rows=tuple(k + 1 for k in selected), ell=ell, delta=delta,
        target_cofactor=target_cofs[ell], form_cofactors=form_cofs,
        row_upper_bounds=uppers, f_ell_lower=f_lower, lower_bound=bound)


def default_n_max(n0: int) -> int:
    """Last degree the adaptive loop tries when no n_max is given: 4 n0."""
    return 4 * n0


def adaptive_bound(sys: DiffSystem, xi: Rational, target: Sequence[int], *,
                   n_start: int = 1, n_max: int | None = None,
                   eps1: Rational | None = None,
                   precision_bits: int = 256,
                   component_intervals: Sequence[RatInterval] | None = None,
                   ) -> BoundCertificate:
    """Increase n until certification succeeds; every failed attempt is
    recorded on the returned certificate (or on the ExhaustedN error).

    component_intervals, when given, must be certified enclosures of the
    f_i(xi) of width at most 2^-precision_bits; they are computed once here
    otherwise and shared by every attempt.
    """
    if n_start < 1:
        raise InputError("n_start must be >= 1")
    _check_precision(precision_bits)
    if n_max is None:
        n_max = default_n_max(n0_for_system(sys).value)
    xi = Fraction(xi)
    _check_evaluation_point(sys.T, xi)
    intervals = _enclosures(sys, xi, precision_bits, component_intervals)
    attempts: list[AttemptRecord] = []
    for n in range(n_start, n_max + 1):
        try:
            cert = certified_lower_bound(sys, xi, target, n, eps1=eps1,
                                         precision_bits=precision_bits,
                                         component_intervals=intervals)
        except RankDeficientLadder as exc:
            attempts.append(AttemptRecord(n=n, status=type(exc).__name__,
                                          reason=str(exc)))
            continue
        if cert.certified:
            return replace(cert, attempts=tuple(attempts))
        attempts.append(AttemptRecord(n=n, status=NOT_CERTIFIED,
                                      reason="determinant slack too large"))
    raise ExhaustedN(
        f"no certification for n in [{n_start}, {n_max}]", attempts)
