"""Vectors of entire series with rational coefficients as differential
systems Y' = A Y with Taylor seeds.

A :class:`DiffSystem` stores the m x m rational-function matrix A, a
denominator-clearing polynomial T in Z[z], per-component seed coefficients,
and optionally a growth certificate (C, D) and exponent modulus bounds.
Taylor coefficients are obtained exactly from the linear recurrence that
equating powers of z in T Y' = (T A) Y imposes; z = 0 may be a singular
point, so the solver treats the recurrence as an incremental sparse linear
system and verifies that the seeds pin a unique solution.  Each system keeps
one store of them, integer numerators over prefix lcms, which the hot loops
read through ``integer_coefficients`` (all columns over one denominator) or
``integer_column`` (one column); ``coefficients`` is the ``Fraction`` view.
A miss solves to exactly the order asked, resuming the system's one
elimination, so each equation of the recurrence is inserted once.  A system
with exp(beta z) adjoined keeps no store of its own: it reads its base's and
the closed form ``algebra.exp_numerators``.

The growth certificate asserts |phi_{k,i}| <= C^(k+1) for the scaled
coefficients f_i = sum phi_{k,i} z^k / k!, and that the common denominator of
phi_{0,i}..phi_{k,i} is at most D^(k+1).  Certificates are never inferred
from finitely many coefficients: catalog entries carry closed-form arguments
(see docs/growth_certificates.md), user systems must supply their own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (Poly, RatFunc, Rational, common_numerators,
                      exp_numerators, prefix_numerators)
from .errors import (AllComponentsZero, InconsistentSeeds, InputError,
                     UnderdeterminedSeeds)
from .evalcert import exp_upper_bound


@dataclass(frozen=True)
class GrowthCertificate:
    """Coefficient growth bounds: |phi_k| <= C^(k+1), denominators <= D^(k+1)."""

    C: Fraction
    D: Fraction
    provenance: str = "user-supplied"

    def __post_init__(self):
        object.__setattr__(self, "C", Fraction(self.C))
        object.__setattr__(self, "D", Fraction(self.D))
        if self.C < 1 or self.D < 1:
            raise InputError("growth certificate requires C >= 1 and D >= 1")
        if self.provenance not in ("catalog", "user-supplied"):
            raise InputError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class SystemParams:
    """Effectivity parameters read off a system.

    p: minimal order of vanishing at 0 over the components.
    q: max(deg T, max deg(T A_ij)).
    E: maximum coefficient modulus over T and all T A_ij.
    """

    p: int
    q: int
    E: Fraction
    T: Poly


EXPONENT_BOUND_NAMES = ("global", "infinity", "irrational")


def _exponent_bounds(bounds: dict | None) -> dict[str, Fraction] | None:
    """exponent_bound with canonical keys: the names above as given, and a
    rational point as str(Fraction), so "0.5" and "2/4" become the "1/2" that
    exponent_data looks up.  Any other key, two keys for one point or a
    negative bound is an InputError; so is exponent notation, lest a short
    key ask for 10^(10^9)."""
    if bounds is None:
        return None
    out = {}
    for key, val in bounds.items():
        text = str(key)
        if text not in EXPONENT_BOUND_NAMES:
            try:
                if not re.fullmatch(r"[-+0-9./ ]+", text):
                    raise ValueError
                text = str(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise InputError(
                    f"exponent_bound key {key!r} is neither a rational point "
                    f"nor one of {', '.join(EXPONENT_BOUND_NAMES)}") from None
        if text in out:
            raise InputError(f"exponent_bound names the point {text} twice")
        out[text] = Fraction(val)
        if out[text] < 0:
            raise InputError(f"bound at {key!r} must be >= 0")
    return out


class DiffSystem:
    """An m-dimensional system Y' = A Y with seeds pinning one solution.

    T is a nonzero integer polynomial with every T*A_ij polynomial.  The
    entries of T*A may have rational coefficients (this happens after
    adjoining an exponential block exp(beta z) with den(beta) > 1, where T is
    deliberately kept fixed); ``clear_factor`` records the least positive
    integer lambda with lambda*T*A integral, which downstream denominator
    clearing uses.  The seeds are probed on construction (_probe_seeds),
    except by a system with exp(beta z) adjoined, whose base was probed; the
    Taylor coefficients are kept in one integer store.  A miss solves to
    exactly the order asked by resuming one elimination of the recurrence,
    kept with the system (its rows, back-substituted values and next
    equation), so no equation is inserted twice.  Likewise two consumers of
    the integer columns keep their state with the system and resume it:
    auxiliary.construct one order basis, from the order it last reached,
    and forms.build_ladder the integer rows lambda T and lambda T A with
    the order to which the columns are checked against them, so each
    column coefficient is checked once per system.
    """

    def __init__(self, A: Sequence[Sequence[RatFunc]], T: Poly,
                 seeds: Sequence[Sequence[Rational | int]],
                 labels: Sequence[str] | None = None,
                 growth: GrowthCertificate | None = None,
                 exponent_bound: dict[str, Fraction] | None = None):
        m = len(A)
        if m == 0 or any(len(row) != m for row in A):
            raise InputError("A must be a nonempty square matrix")
        if T.is_zero() or not T.is_integer():
            raise InputError("T must be a nonzero integer polynomial")
        ta = []
        for i in range(m):
            ta_row = []
            for j in range(m):
                prod = A[i][j].mul_poly(T)
                if not prod.is_polynomial():
                    raise InputError(
                        f"T does not clear the denominator of A[{i}][{j}]")
                ta_row.append(prod.to_poly())
            ta.append(tuple(ta_row))
        if len(seeds) != m:
            raise InputError("one seed list per component required")
        if labels is None:
            labels = tuple(f"f{i + 1}" for i in range(m))
        elif len(labels) != m:
            raise InputError("one label per component required")

        self.m = m
        self.A = tuple(tuple(row) for row in A)
        self.T = T
        self.TA = tuple(ta)
        self.seeds = tuple(tuple(Fraction(c) for c in row) for row in seeds)
        self.labels = tuple(str(s) for s in labels)
        self.growth = growth
        self.exponent_bound = _exponent_bounds(exponent_bound)
        self.clear_factor = math.lcm(*(
            c.denominator for row in self.TA for p in row for c in p.coeffs))
        # q and E of extract_params
        self._q = max(T.degree, *(p.degree for row in ta for p in row))
        self._e = max(T.max_abs_coeff(),
                      *(p.max_abs_coeff() for row in ta for p in row))
        # prefix_numerators of the coefficients in level order (level k,
        # component i at k * m + i), solved into as integer_coefficients needs
        self._nums: list[int] = []
        self._steps: list[int] = []
        self._lcm = 1
        # the elimination of the recurrence, resumed on each miss (_solve):
        # rows keyed on their largest unknown (k * m + i as above), the values
        # back-substituted so far, the pivots without a value yet, and the
        # next recurrence equation, (order n, component i) at n * m + i
        self._rows: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
        self._values: dict[int, Fraction] = {}
        self._pending: list[int] = []
        self._next_equation = 0
        for i, seq in enumerate(self.seeds):
            for k, val in enumerate(seq):   # unit rows on distinct unknowns
                self._rows[k * m + i] = ({k * m + i: Fraction(1)}, val)
                self._pending.append(k * m + i)
        self._params: SystemParams | None = None
        # auxiliary.OrderBasis of the integer columns, resumed by construct,
        # and forms.LadderStep, the ladder's integer T and T A with the order
        # to which the columns are checked against them
        self._order_basis = None
        self._ladder_step = None
        self._probe_seeds()

    def _probe_seeds(self):
        """Solve a few levels past the longest seed, so that seeds which
        contradict the system or leave a coefficient free fail here."""
        self.coefficients(max(len(s) for s in self.seeds) + self.T.degree + 2)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffSystem)
                and self.m == other.m
                and self.A == other.A
                and self.T == other.T
                and self.seeds == other.seeds
                and self.labels == other.labels
                and self.growth == other.growth
                and self.exponent_bound == other.exponent_bound)

    def __repr__(self) -> str:
        return f"DiffSystem(m={self.m}, labels={self.labels})"

    # -- Taylor coefficients --------------------------------------------------

    def coefficients(self, order: int) -> list[tuple[Fraction, ...]]:
        """Exact Taylor coefficients (phi_{k,i}/k!) for k = 0..order, one
        tuple per component: integer_coefficients(order) as Fractions."""
        d, columns = self.integer_coefficients(order)
        return [tuple(Fraction(c, d) for c in col) for col in columns]

    def integer_coefficients(self, order: int
                             ) -> tuple[int, list[tuple[int, ...]]]:
        """The Taylor columns up to the given order as (D, numerators): D is
        the lcm of their coefficient denominators, and each column holds the
        integers D * coefficient for orders 0..order.  A miss solves the
        recurrence to exactly that order and appends the new levels to the
        store."""
        if order < 0:
            raise ValueError("order must be >= 0")
        m = self.m
        known = len(self._nums) // m
        if known <= order:
            self._solve(order)
            values = self._values
            nums, steps, self._lcm = prefix_numerators(
                (values[k] for k in range(known * m, (order + 1) * m)),
                self._lcm)
            self._nums += nums
            self._steps += steps
        d, flat = common_numerators(self._nums[:(order + 1) * m],
                                    self._steps[:(order + 1) * m])
        return d, [tuple(flat[i::m]) for i in range(m)]

    def integer_column(self, i: int, order: int) -> tuple[int, Sequence[int]]:
        """Column i of integer_coefficients(order): (D, numerators) for
        some denominator D > 0 of that column."""
        d, columns = self.integer_coefficients(order)
        return d, columns[i]

    def _vanishing_order(self) -> int:
        """p of extract_params, read from the store."""
        _, columns = self.integer_coefficients(
            max(1, *map(len, self.seeds)) - 1)
        for k in range(len(columns[0])):
            if any(col[k] for col in columns):
                return k
        raise AllComponentsZero()

    def _solve(self, order: int):
        """Solve the coefficient recurrence of T Y' = (T A) Y up to level
        ``order``, resuming the elimination where the last solve stopped.

        Equating the coefficient of z^N in component i gives, with
        T = sum t_s z^s and (T A)_ij = sum u_s z^s,

            sum_s t_s (N+1-s) c_{N+1-s, i}  =  sum_j sum_s u_s^{ij} c_{N-s, j}.

        Together with the seed equations this is an (infinite) sparse linear
        system over the unknowns c_{k,i}, eliminated row by row with each row
        keyed on its largest unknown.  The seeds go in first, then the
        equations by ascending (N, i) up to N = order + deg T + 4; each
        equation goes in once per system, so the rows, and the values
        back-substituted from them in ascending order of pivot, are those of
        one elimination from scratch to this order.  z = 0 may be singular,
        so some levels are pinned by the equations, others by seeds; a
        coefficient up to ``order`` left free raises UnderdeterminedSeeds, a
        contradiction InconsistentSeeds, and the same call raises the same
        error again.
        """
        m = self.m
        stop = (order + self.T.degree + 5) * m
        while self._next_equation < stop:
            self._insert_equation(*divmod(self._next_equation, m))
            self._next_equation += 1
        rows, values = self._rows, self._values
        pending = []
        for pivot in sorted(self._pending):
            row, acc = rows[pivot]
            for c, v in row.items():
                if c != pivot:
                    if c not in values:
                        pending.append(pivot)
                        break
                    acc -= v * values[c]
            else:
                values[pivot] = acc
        self._pending = pending
        # the store has a value for each unknown below len(self._nums); the
        # least unknown without one has no row, for a row's other unknowns
        # are below its pivot
        free = next((k for k in range(len(self._nums), (order + 1) * m)
                     if k not in values), None)
        if free is not None:
            level, comp = divmod(free, m)
            raise UnderdeterminedSeeds(
                f"coefficient of z^{level} in component {comp + 1} is not "
                f"pinned; supply more seed terms")

    def _insert_equation(self, n: int, i: int):
        """Insert the recurrence at order n, component i: reduce it by the
        stored rows, largest unknown first, and store it normalised on its
        pivot.  One that reduces to 0 = rhs != 0 raises InconsistentSeeds."""
        m, rows = self.m, self._rows
        row: dict[int, Fraction] = {}
        for s, ts in enumerate(self.T.coeffs):
            level = n + 1 - s
            if level >= 1 and ts:
                key = level * m + i
                row[key] = row.get(key, 0) + ts * level
        for j in range(m):
            for s, us in enumerate(self.TA[i][j].coeffs):
                level = n - s
                if level >= 0 and us:
                    key = level * m + j
                    nv = row.get(key, 0) - us
                    if nv:
                        row[key] = nv
                    else:
                        row.pop(key, None)
        rhs = Fraction(0)
        while row:
            pivot = max(row)
            if pivot not in rows:
                f = row[pivot]
                if f != 1:
                    row = {c: v / f for c, v in row.items()}
                    rhs = rhs / f
                rows[pivot] = (row, rhs)
                self._pending.append(pivot)
                return
            stored, stored_rhs = rows[pivot]
            f = row[pivot]
            for c, v in stored.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            rhs = rhs - f * stored_rhs
        if rhs != 0:
            raise InconsistentSeeds(f"recurrence at order {n}, component "
                                    f"{i + 1} (seeds violate the system)")


class _ExpAugmented(DiffSystem):
    """A base system with the component exp(beta z) adjoined (augment_exp).

    Derived from the base, not rebuilt: A and T A are block diagonal, the
    base's blocks next to the 1 x 1 blocks beta and beta T; T is the base's,
    and clear_factor is the lcm of the base's and of the denominators of
    beta T.  The recurrence is block diagonal too, so no column is solved
    for and there is no store of its own: integer_column reads a base
    column over the base's denominator, or the closed form
    exp_numerators(beta, order) alone, and integer_coefficients brings the
    two to the lcm of their denominators.  Nor are the seeds probed again:
    the base's were probed when it was built, and the seed 1 of exp(beta z)
    is its closed form's constant term, which also makes p = 0; q is the
    base's, and E = max(E_base, |beta| max|T|).  The ladder's column check
    splits the same way (forms._system_step): the base checks its block on
    its own, resumed across the systems built on it, and this system checks
    the exp column alone.
    """

    def __init__(self, base: DiffSystem, beta: Fraction):
        m = base.m
        zero, zero_poly = RatFunc.zero(), Poly.zero()
        beta_t = base.T.scale(beta)
        self._base = base
        self._beta = beta
        self.m = m + 1
        self.A = (tuple(row + (zero,) for row in base.A)
                  + ((zero,) * m + (RatFunc.constant(beta),),))
        self.T = base.T
        self.TA = (tuple(row + (zero_poly,) for row in base.TA)
                   + ((zero_poly,) * m + (beta_t,),))
        self.seeds = base.seeds + ((Fraction(1),),)
        self.labels = base.labels + (f"exp({beta}*z)",)
        self.growth = None
        if base.growth is not None:
            self.growth = GrowthCertificate(max(base.growth.C, abs(beta)),
                                            base.growth.D * beta.denominator,
                                            base.growth.provenance)
        self.exponent_bound = (None if base.exponent_bound is None
                               else dict(base.exponent_bound))
        self.clear_factor = math.lcm(base.clear_factor,
                                     *(c.denominator for c in beta_t.coeffs))
        self._q = base._q                   # deg beta T <= deg T
        self._e = max(base._e, beta_t.max_abs_coeff())
        self._params = None
        self._order_basis = None
        self._ladder_step = None

    def integer_coefficients(self, order: int
                             ) -> tuple[int, list[tuple[int, ...]]]:
        """The base's integer columns next to exp_numerators(beta, order),
        both brought to the lcm of their denominators, built on each call."""
        d_base, columns = self._base.integer_coefficients(order)
        d_exp, exp = exp_numerators(self._beta, order)
        d = math.lcm(d_base, d_exp)
        if d != d_base:
            scale = d // d_base
            columns = [tuple([c * scale for c in col]) for col in columns]
        scale = d // d_exp
        return d, columns + [tuple([e * scale for e in exp])]

    def integer_column(self, i: int, order: int) -> tuple[int, Sequence[int]]:
        if i < self._base.m:
            return self._base.integer_column(i, order)
        return exp_numerators(self._beta, order)

    def _vanishing_order(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def _poly_lcm(a: Poly, b: Poly) -> Poly:
    g = a.gcd(b)
    return (a * b).divmod(g)[0].monic()


def normalize_clearing_poly(candidate: Poly,
                            A: Sequence[Sequence[RatFunc]]) -> Poly:
    """Scale a denominator-clearing polynomial to the canonical T: integer
    coefficients, content 1 times the least positive integer making every
    T*A_ij an integer polynomial, positive leading coefficient."""
    prim = candidate.primitive()
    if prim.leading() < 0:
        prim = -prim
    lam = 1
    for row in A:
        for entry in row:
            prod = entry.mul_poly(prim)
            if not prod.is_polynomial():
                raise InputError("candidate polynomial does not clear A")
            lam = math.lcm(lam, *(c.denominator
                                  for c in prod.to_poly().coeffs))
    return prim.scale(lam)


def minimal_clearing_poly(A: Sequence[Sequence[RatFunc]]) -> Poly:
    """Least-degree common denominator of the entries of A, normalized."""
    acc = Poly.one()
    for row in A:
        for entry in row:
            acc = _poly_lcm(acc, entry.denom)
    return normalize_clearing_poly(acc, A)


def make_system(A: Sequence[Sequence[RatFunc]],
                seeds: Sequence[Sequence[Rational | int]],
                labels: Sequence[str] | None = None,
                growth: GrowthCertificate | None = None,
                exponent_bound: dict[str, Fraction] | None = None,
                ) -> DiffSystem:
    """Build a DiffSystem with T = minimal_clearing_poly(A)."""
    return DiffSystem(A, minimal_clearing_poly(A), seeds, labels=labels,
                      growth=growth, exponent_bound=exponent_bound)


# ---------------------------------------------------------------------------
# Parameter extraction and system transformations
# ---------------------------------------------------------------------------

def extract_params(sys: DiffSystem) -> SystemParams:
    """Read off (p, q, E) and echo T, once per system.

    p is the least level with a nonzero Taylor coefficient in any component,
    and it lies below L, the length of the longest seed.  The recurrence is
    homogeneous, so every pinned coefficient is a linear combination of seed
    values: a nonzero seed is itself a nonzero coefficient at a level below
    L, and if every seed is zero no coefficient is nonzero.  Levels 0..L-1
    are read from the store the seed probe filled (level 0 alone when there
    are no seeds), so nothing is solved; all-zero seeds raise
    AllComponentsZero, on every call.  q and E are read off T and T A when
    the system is built.  A system with exp(beta z) adjoined reads no
    column: p = 0, and q and E come from its base's (_ExpAugmented).
    """
    if sys._params is None:
        sys._params = SystemParams(p=sys._vanishing_order(), q=sys._q,
                                   E=sys._e, T=sys.T)
    return sys._params


def augment_exp(sys: DiffSystem, beta: Rational | int) -> DiffSystem:
    """Adjoin the component exp(beta z) as a new diagonal block.

    T is kept unchanged (it is independent of beta); when den(beta) > 1 the
    new entry T*beta has rational coefficients, tracked by clear_factor.
    The growth certificate updates to C' = max(C, |beta|), D' = D*den(beta).
    The Taylor coefficients come from sys's integer columns and from
    exp_numerators(beta, order).
    """
    return _ExpAugmented(sys, Fraction(beta))


def rescale(sys: DiffSystem, xi: Rational | int) -> DiffSystem:
    """System satisfied by z -> Y(xi z): A becomes xi*A(xi z), T is rebuilt
    to restore integrality, level-k seeds pick up the dilation factor xi^k."""
    xi = Fraction(xi)
    if xi == 0:
        raise InputError("rescale requires xi != 0")
    new_a = tuple(tuple(entry.dilate(xi).scale(xi) for entry in row)
                  for row in sys.A)
    new_t = normalize_clearing_poly(sys.T.dilate(xi), new_a)
    new_seeds = []
    for seq in sys.seeds:
        power = Fraction(1)
        scaled = []
        for c in seq:
            scaled.append(c * power)
            power *= xi
        new_seeds.append(tuple(scaled))
    growth = None
    if sys.growth is not None:
        growth = GrowthCertificate(sys.growth.C * max(Fraction(1), abs(xi)),
                                   sys.growth.D * xi.denominator,
                                   sys.growth.provenance)
    bound = None
    if sys.exponent_bound is not None:     # a point r moves to r / xi
        bound = {k if k in EXPONENT_BOUND_NAMES else Fraction(k) / xi: v
                 for k, v in sys.exponent_bound.items()}
    return DiffSystem(new_a, new_t, new_seeds, labels=sys.labels,
                      growth=growth, exponent_bound=bound)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def catalog(name: str, **params) -> tuple[DiffSystem, GrowthCertificate]:
    """Built-in systems with certified growth bounds.

    Names: ``exp`` (parameter beta), ``bessel_j0``, ``1f1`` (parameters a, b
    with b not a nonpositive integer).  Certificate derivations are in
    docs/growth_certificates.md.
    """
    name = name.lower()
    if name == "exp":
        beta = Fraction(params.pop("beta"))
        _check_empty(params)
        return _catalog_exp(beta)
    if name == "bessel_j0":
        _check_empty(params)
        return _catalog_bessel_j0()
    if name in ("1f1", "kummer"):
        a = Fraction(params.pop("a"))
        b = Fraction(params.pop("b"))
        _check_empty(params)
        return _catalog_1f1(a, b)
    raise InputError(f"unknown catalog system {name!r}")


def _check_empty(params):
    if params:
        raise InputError(f"unexpected catalog parameters {sorted(params)}")


def _catalog_exp(beta: Fraction) -> tuple[DiffSystem, GrowthCertificate]:
    growth = GrowthCertificate(max(Fraction(1), abs(beta)), beta.denominator,
                               "catalog")
    a = ((RatFunc.constant(beta),),)
    sys = make_system(a, ((Fraction(1),),), labels=(f"exp({beta}*z)",),
                      growth=growth, exponent_bound={"global": Fraction(0)})
    return sys, growth


def _catalog_bessel_j0() -> tuple[DiffSystem, GrowthCertificate]:
    z = Poly.x()
    one = Poly.one()
    a = ((RatFunc.zero(), RatFunc(one)),
         (RatFunc.constant(-1), RatFunc(-one, z)))
    growth = GrowthCertificate(Fraction(1), Fraction(2), "catalog")
    sys = make_system(a, ((Fraction(1),), (Fraction(0),)),
                      labels=("J0", "J0'"), growth=growth,
                      exponent_bound={"global": Fraction(2)})
    return sys, growth


def _catalog_1f1(a: Fraction, b: Fraction) -> tuple[DiffSystem, GrowthCertificate]:
    if b.denominator == 1 and b <= 0:
        raise InputError("1F1 lower parameter must not be a nonpositive integer")
    z = Poly.x()
    one = Poly.one()
    mat = ((RatFunc.zero(), RatFunc(one)),
           (RatFunc(Poly.constant(a), z), RatFunc(Poly((-b, 1)), z)))
    growth = kummer_growth_certificate(a, b)
    label = f"1F1({a};{b})"
    sys = make_system(mat, ((Fraction(1),), (a / b,)),
                      labels=(label, label + "'"), growth=growth,
                      exponent_bound={"global": max(abs(a), abs(b),
                                                    abs(a - b),
                                                    Fraction(1))})
    return sys, growth


# -- Kummer growth constants --------------------------------------------------
#
# phi_k = (a)_k / (b)_k.  The closed-form bounds below are proven in
# docs/growth_certificates.md; they are deliberately conservative (validity
# over all k matters, tightness does not).

_INV_E_UPPER = Fraction(3679, 10000)       # >= 1/e
_PRIME_SUM_COEFF = Fraction(27, 5)          # >= 2*ln4 + 2*1.3


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def kummer_growth_certificate(a: Fraction, b: Fraction) -> GrowthCertificate:
    """Certified (C, D) for the coefficients (a)_k/(b)_k of 1F1(a;b)."""
    if a.denominator == 1 and a <= 0:
        # Terminating series: finitely many nonzero coefficients.
        phis = []
        phi = Fraction(1)
        k = 0
        while phi != 0:
            phis.append(phi)
            phi = phi * (a + k) / (b + k)
            k += 1
        c = max(Fraction(1), max(abs(p) for p in phis))
        d = Fraction(math.lcm(*(p.denominator for p in phis)))
        return GrowthCertificate(c, max(d, Fraction(1)), "catalog")

    if 0 < a <= b:
        c = Fraction(1)
    else:
        g = abs(a) + abs(b)
        i0 = math.ceil(g) + 1
        m0 = Fraction(1)
        for i in range(i0):
            m0 *= max(Fraction(1), abs(a + i) / abs(b + i))
        c = max(Fraction(1), m0 * exp_upper_bound(g),
                exp_upper_bound(g * _INV_E_UPPER))

    v = a.denominator
    t = b.denominator
    s_abs = abs(b.numerator)
    fac = _factor(v)
    omega = len(fac)
    rad = 1
    for p in fac:
        rad *= p
    const = (Fraction(s_abs + t) ** omega
             * exp_upper_bound(Fraction(omega))
             * exp_upper_bound(_PRIME_SUM_COEFF * s_abs))
    growth_base = (Fraction(v * rad)
                   * exp_upper_bound(Fraction(omega) * _INV_E_UPPER)
                   * exp_upper_bound(_PRIME_SUM_COEFF * t))
    d = max(Fraction(1), const, growth_base)
    return GrowthCertificate(c, d, "catalog")
