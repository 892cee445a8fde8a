"""Certified rational lower bounds for linear forms in values of entire
series defined by rational differential systems, and for rational
approximations to the logarithms of those values.

Everything is exact: arbitrary-precision rational arithmetic end to end,
intervals with rational endpoints, integer determinants.  See README.md for
the pipeline overview and the CLI.
"""

from .algebra import (Poly, RatFunc, RatSeries, Rational, cofactor, den,
                      det_exact, kernel_basis)
from .auxiliary import (AuxiliaryBasis, RemainderSeries, construct,
                        default_eps1, remainder, vanishing_order_target)
from .efunction import (DiffSystem, GrowthCertificate, SystemParams,
                        augment_exp, catalog, extract_params, make_system,
                        rescale)
from .errors import (AllComponentsZero, DegenerateFit, EfcertError,
                     ExhaustedN, InconsistentSeeds, InputError,
                     IrregularSingularPoint, MissingExponentBound,
                     MissingGrowthCertificate, NonPositiveValue,
                     RankDeficientLadder, SingularEvaluationPoint,
                     TargetInSpanFailure, UnderdeterminedSeeds)
from .evalcert import RatInterval, eval_component, eval_exp
from .forms import (BoundCertificate, FormsLadder, IntegerForms,
                    adaptive_bound, build_ladder, certified_lower_bound,
                    evaluate_forms, ladder_length)
from .logmeasure import (LogBoundResult, LogConfig, exponent_fit,
                         log_lower_bound, measure_scan)
from .sysdesc import emit_system, parse_system
from .zeroestimate import (ExponentData, IndicialData, N0Bound,
                           exponent_ceiling, exponent_data,
                           indicial_exponents, n0_bound, n0_for_system)

__version__ = "0.1.0"
