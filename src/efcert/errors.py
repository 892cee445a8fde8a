"""Exception hierarchy shared across the package.

Everything derives from :class:`EfcertError` so callers (and the CLI) can
distinguish our failures from genuine bugs.  Certification failures that are
legitimate *outcomes* (rank deficiency at small degree, an exhausted search)
get their own classes because callers are expected to catch them.
"""

from __future__ import annotations


class EfcertError(Exception):
    """Base class for all package errors."""


class InputError(EfcertError):
    """Malformed user input: files, expressions, out-of-range parameters."""


# -- differential systems ----------------------------------------------------

class UnderdeterminedSeeds(EfcertError):
    """The coefficient recurrence does not pin all Taylor coefficients;
    more seed terms are required."""


class InconsistentSeeds(EfcertError):
    """The supplied seed coefficients violate the coefficient recurrence."""


class AllComponentsZero(EfcertError):
    """Every component vanishes identically; the vanishing order at 0 is
    undefined."""

    def __init__(self, message: str = "every seed is zero, so every "
                 "component vanishes identically; vanishing order undefined"):
        super().__init__(message)


# -- local exponent analysis -------------------------------------------------

class IrregularSingularPoint(EfcertError):
    """The system does not have a simple pole at the requested point; a
    user-supplied exponent modulus bound is required there."""


class MissingExponentBound(EfcertError):
    """No computed or user-supplied exponent bound covers some singular
    point, so the rank-threshold bound cannot be assembled."""


# -- evaluation and certification ---------------------------------------------

class SingularEvaluationPoint(EfcertError):
    """Evaluation requested at xi with xi * T(xi) = 0."""


class MissingGrowthCertificate(EfcertError):
    """An operation that needs coefficient growth bounds was called on a
    system without a growth certificate."""


class RankDeficientLadder(EfcertError):
    """The evaluated ladder rows span less than the full space; expected for
    degrees below the rank threshold or for Q(z)-dependent inputs."""


class ExhaustedN(EfcertError):
    """The adaptive certification loop reached n_max without certifying."""

    def __init__(self, message: str, attempts=None):
        super().__init__(message)
        self.attempts = list(attempts) if attempts is not None else []


class NonPositiveValue(EfcertError):
    """The function value interval is not strictly positive, so its
    logarithm cannot be bounded."""


class DegenerateFit(EfcertError):
    """Not enough distinct data to fit the empirical exponent."""
