"""Coefficient asymptotics for bivariate algebraic generating functions.

Estimates [x^r y^s] of G(x,y) * H(x,y)^(-beta) from the smooth strictly
minimal critical points of H, and validates the estimates against exact
rational and numeric-quadrature coefficient oracles.
"""

from .bivariate import BivariatePolynomial, poly_eval, poly_partial
from .critical import (
    CriticalPoint,
    Direction,
    ProbeGrid,
    TorusClass,
    critical_system,
    group_by_torus,
    is_smooth,
    minimality_probe,
    solve_critical,
)
from .errors import (
    BivasymError,
    BoxMismatch,
    BranchTrackingError,
    ConfigError,
    EvaluationOverflow,
    GammaPole,
    HypothesisFailure,
    NonIsolatedCriticalSet,
    RootFindingError,
    SingularAtOrigin,
    SpecFileError,
)
from .estimates import (
    AsymptoticEstimate,
    BranchRay,
    LocalData,
    choose_branch_ray,
    estimate_general,
    estimate_real_positive,
    local_data,
    winding_number,
)
from .gammafn import gamma_log, gamma_real
from .oracle import (
    CoefficientTable,
    OracleConfig,
    cauchy_quadrature,
    coeff_linear_closed_form,
    coeff_recurrence,
    coefficients_at,
    closed_form_table,
)
from .precision import get_precision, set_precision, working_precision
from .problem import ProblemSpec, dump_problem, parse_problem
from .series import Prefactor, TruncatedSeries, poly_times_series, series_mul

__all__ = [
    "AsymptoticEstimate",
    "BivariatePolynomial",
    "BivasymError",
    "BoxMismatch",
    "BranchRay",
    "BranchTrackingError",
    "CoefficientTable",
    "ConfigError",
    "CriticalPoint",
    "Direction",
    "EvaluationOverflow",
    "GammaPole",
    "HypothesisFailure",
    "LocalData",
    "NonIsolatedCriticalSet",
    "OracleConfig",
    "Prefactor",
    "ProbeGrid",
    "ProblemSpec",
    "RootFindingError",
    "SingularAtOrigin",
    "SpecFileError",
    "TorusClass",
    "TruncatedSeries",
    "cauchy_quadrature",
    "choose_branch_ray",
    "closed_form_table",
    "coeff_linear_closed_form",
    "coeff_recurrence",
    "coefficients_at",
    "critical_system",
    "dump_problem",
    "estimate_general",
    "estimate_real_positive",
    "gamma_log",
    "gamma_real",
    "get_precision",
    "group_by_torus",
    "is_smooth",
    "local_data",
    "minimality_probe",
    "parse_problem",
    "poly_eval",
    "poly_partial",
    "poly_times_series",
    "series_mul",
    "set_precision",
    "solve_critical",
    "winding_number",
    "working_precision",
]

__version__ = "0.1.0"
