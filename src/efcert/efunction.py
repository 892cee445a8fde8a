"""Vectors of entire series with rational coefficients as differential
systems Y' = A Y with Taylor seeds.

A :class:`DiffSystem` stores the m x m rational-function matrix A, a
denominator-clearing polynomial T in Z[z], per-component seed coefficients,
and optionally a growth certificate (C, D) and exponent modulus bounds.
Taylor coefficients are obtained exactly from the linear recurrence that
equating powers of z in T Y' = (T A) Y imposes; z = 0 may be a singular
point, so the solver treats the recurrence as an incremental sparse linear
system and verifies that the seeds pin a unique solution.

The growth certificate asserts |phi_{k,i}| <= C^(k+1) for the scaled
coefficients f_i = sum phi_{k,i} z^k / k!, and that the common denominator of
phi_{0,i}..phi_{k,i} is at most D^(k+1).  Certificates are never inferred
from finitely many coefficients: catalog entries carry closed-form arguments
(see docs/growth_certificates.md), user systems must supply their own.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Poly, RatFunc, RatSeries, Rational, den, lcm_list
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


class DiffSystem:
    """An m-dimensional system Y' = A Y with seeds pinning one solution.

    T is a nonzero integer polynomial with every T*A_ij polynomial.  The
    entries of T*A may have rational coefficients (this happens after
    adjoining an exponential block exp(beta z) with den(beta) > 1, where T is
    deliberately kept fixed); ``clear_factor`` records the least positive
    integer lambda with lambda*T*A integral, which downstream denominator
    clearing uses.
    """

    def __init__(self, A: Sequence[Sequence[RatFunc]], T: Poly,
                 seeds: Sequence[Sequence[Rational | int]],
                 labels: Sequence[str] | None = None,
                 growth: GrowthCertificate | None = None,
                 exponent_bound: dict[str, Fraction] | None = None,
                 check_seeds: bool = True):
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
        self.exponent_bound = (None if exponent_bound is None
                               else {str(k): Fraction(v)
                                     for k, v in exponent_bound.items()})
        self.clear_factor = lcm_list(
            c.denominator for row in self.TA for p in row for c in p.coeffs)
        self._cache: list[tuple[Fraction, ...]] = []
        self._lock = threading.Lock()
        if check_seeds:
            probe = max(len(s) for s in self.seeds) + T.degree + 2
            self.coefficients(probe)

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

    def coefficients(self, order: int) -> list[RatSeries]:
        """Exact Taylor coefficients (phi_{k,i}/k!) up to the given order for
        every component."""
        if order < 0:
            raise ValueError("order must be >= 0")
        with self._lock:
            if len(self._cache) <= order:
                target = max(order, 2 * len(self._cache))
                self._cache = _solve_recurrence(self, target)
            m = self.m
            return [RatSeries(tuple(self._cache[k][i]
                                    for k in range(order + 1)))
                    for i in range(m)]


def _solve_recurrence(sys: DiffSystem, nmax: int) -> list[tuple[Fraction, ...]]:
    """Solve the coefficient recurrence of T Y' = (T A) Y up to level nmax.

    Equating the coefficient of z^N in component i gives, with T = sum t_s z^s
    and (T A)_ij = sum u_s z^s,

        sum_s t_s (N+1-s) c_{N+1-s, i}  =  sum_j sum_s u_s^{ij} c_{N-s, j}.

    Together with the seed equations this is an (infinite) sparse linear
    system over the unknowns c_{k,i}; it is processed by incremental
    elimination keyed on the largest unknown so the result is independent of
    any ordering choice.  z = 0 may be singular, so some levels are pinned by
    the equations, others by seeds; missing information raises
    UnderdeterminedSeeds, contradictions raise InconsistentSeeds.
    """
    m = sys.m
    t_coeffs = sys.T.coeffs
    n_stop = nmax + sys.T.degree + 4
    zero = Fraction(0)

    def idx(level: int, comp: int) -> int:
        return level * m + comp

    rows: dict[int, tuple[dict[int, Fraction], Fraction]] = {}

    def insert(row: dict[int, Fraction], rhs: Fraction, context: str):
        while row:
            pivot = max(row)
            if pivot in rows:
                stored, stored_rhs = rows[pivot]
                f = row[pivot]
                for c, v in stored.items():
                    nv = row.get(c, zero) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                rhs = rhs - f * stored_rhs
            else:
                f = row[pivot]
                if f != 1:
                    row = {c: v / f for c, v in row.items()}
                    rhs = rhs / f
                rows[pivot] = (row, rhs)
                return
        if rhs != 0:
            raise InconsistentSeeds(context)

    for i, seq in enumerate(sys.seeds):
        for k, val in enumerate(seq):
            insert({idx(k, i): Fraction(1)}, Fraction(val),
                   f"seed for component {i + 1} at order {k}")

    for n in range(n_stop + 1):
        for i in range(m):
            row: dict[int, Fraction] = {}
            for s, ts in enumerate(t_coeffs):
                level = n + 1 - s
                if level >= 1 and ts:
                    key = idx(level, i)
                    row[key] = row.get(key, zero) + ts * level
            for j in range(m):
                for s, us in enumerate(sys.TA[i][j].coeffs):
                    level = n - s
                    if level >= 0 and us:
                        key = idx(level, j)
                        nv = row.get(key, zero) - us
                        if nv:
                            row[key] = nv
                        else:
                            row.pop(key, None)
            insert(row, zero,
                   f"recurrence at order {n}, component {i + 1} "
                   f"(seeds violate the system)")

    req_max = idx(nmax, m - 1)
    missing = [k for k in range(req_max + 1) if k not in rows]
    if missing:
        level, comp = divmod(missing[0], m)
        raise UnderdeterminedSeeds(
            f"coefficient of z^{level} in component {comp + 1} is not pinned; "
            f"supply more seed terms")
    values: dict[int, Fraction] = {}
    for pivot in sorted(rows):
        row, rhs = rows[pivot]
        acc = rhs
        resolved = True
        for c, v in row.items():
            if c == pivot:
                continue
            if c not in values:
                resolved = False
                break
            acc -= v * values[c]
        if resolved:
            values[pivot] = acc
        elif pivot <= req_max:
            level, comp = divmod(pivot, m)
            raise UnderdeterminedSeeds(
                f"coefficient of z^{level} in component {comp + 1} depends on "
                f"a free coefficient; supply more seed terms")
    return [tuple(values[idx(k, i)] for i in range(m))
            for k in range(nmax + 1)]


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def _poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero()
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
            for c in prod.to_poly().coeffs:
                lam = lam // math.gcd(lam, c.denominator) * c.denominator
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
                T: Poly | None = None,
                growth: GrowthCertificate | None = None,
                exponent_bound: dict[str, Fraction] | None = None,
                ) -> DiffSystem:
    """Build a DiffSystem, computing or normalizing T as needed.

    A supplied T that fails integrality is rescaled (warning left to the
    caller via the returned system's T differing from the input).
    """
    if T is None:
        T = minimal_clearing_poly(A)
    else:
        T = normalize_clearing_poly(T, A)
    return DiffSystem(A, T, seeds, labels=labels, growth=growth,
                      exponent_bound=exponent_bound)


# ---------------------------------------------------------------------------
# Parameter extraction and system transformations
# ---------------------------------------------------------------------------

_VANISHING_SEARCH_FACTOR = 4


def extract_params(sys: DiffSystem) -> SystemParams:
    """Read off (p, q, E) and echo T.

    p is the least level with a nonzero Taylor coefficient in any component;
    if every coefficient vanishes up to the search limit the system is
    reported as identically zero.
    """
    q = sys.T.degree
    e = sys.T.max_abs_coeff()
    for row in sys.TA:
        for entry in row:
            q = max(q, entry.degree)
            e = max(e, entry.max_abs_coeff())
    limit = _VANISHING_SEARCH_FACTOR * (q + 1) * sys.m + 16
    series = sys.coefficients(limit)
    for k in range(limit + 1):
        if any(s.coefficient(k) != 0 for s in series):
            return SystemParams(p=k, q=q, E=e, T=sys.T)
    raise AllComponentsZero(
        f"all components vanish to order {limit}; vanishing order undefined")


def augment_exp(sys: DiffSystem, beta: Rational | int) -> DiffSystem:
    """Adjoin the component exp(beta z) as a new diagonal block.

    T is kept unchanged (it is independent of beta); when den(beta) > 1 the
    new entry T*beta has rational coefficients, tracked by clear_factor.
    The growth certificate updates to C' = max(C, |beta|), D' = D*den(beta).
    """
    beta = Fraction(beta)
    m = sys.m
    new_a = []
    for i in range(m):
        new_a.append(tuple(sys.A[i]) + (RatFunc.zero(),))
    new_a.append(tuple(RatFunc.zero() for _ in range(m))
                 + (RatFunc.constant(beta),))
    growth = None
    if sys.growth is not None:
        growth = GrowthCertificate(max(sys.growth.C, abs(beta)),
                                   sys.growth.D * den(beta),
                                   sys.growth.provenance)
    return DiffSystem(new_a, sys.T,
                      sys.seeds + ((Fraction(1),),),
                      labels=sys.labels + (f"exp({beta}*z)",),
                      growth=growth,
                      exponent_bound=sys.exponent_bound)


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
                                   sys.growth.D * den(xi),
                                   sys.growth.provenance)
    bound = None
    if sys.exponent_bound is not None:
        bound = {}
        for key, val in sys.exponent_bound.items():
            if key in ("global", "infinity"):
                bound[key] = val
            else:
                bound[str(Fraction(key) / xi)] = val
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
        return _catalog_exp(Fraction(params.pop("beta")), _check_empty(params))
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
    return None


def _catalog_exp(beta: Fraction, _=None) -> tuple[DiffSystem, GrowthCertificate]:
    growth = GrowthCertificate(max(Fraction(1), abs(beta)), den(beta),
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
        d = Fraction(lcm_list(p.denominator for p in phis))
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
