"""Coefficient asymptotics for bivariate algebraic generating functions.

Estimates [x^r y^s] of G(x,y) * H(x,y)^(-beta) from the smooth strictly
minimal critical points of H, and validates the estimates against exact
rational and numeric-quadrature coefficient oracles.

Each public name is imported from its home module on first use (PEP 562),
so a caller of the oracles alone never loads the solve layer.
"""

from importlib import import_module

from . import precision  # noqa: F401  (importing it sets the default mp.prec)

# Home module -> the public names it defines.
_HOMES = {
    "bivariate": ("BivariatePolynomial", "poly_eval", "poly_partial"),
    "critical": (
        "CriticalPoint",
        "ProbeGrid",
        "TorusClass",
        "critical_system",
        "group_by_torus",
        "is_smooth",
        "minimality_probe",
        "solve_critical",
    ),
    "errors": (
        "BivasymError",
        "BoxMismatch",
        "BranchTrackingError",
        "ConfigError",
        "EvaluationOverflow",
        "GammaPole",
        "HypothesisFailure",
        "NonIsolatedCriticalSet",
        "RootFindingError",
        "SingularAtOrigin",
        "SpecFileError",
    ),
    "estimates": (
        "AsymptoticEstimate",
        "BranchRay",
        "LocalData",
        "choose_branch_ray",
        "estimate_general",
        "estimate_real_positive",
        "local_data",
        "winding_number",
    ),
    "gammafn": ("gamma_log", "gamma_real"),
    "oracle": (
        "CoefficientTable",
        "OracleConfig",
        "cauchy_quadrature",
        "coeff_linear_closed_form",
        "coeff_recurrence",
        "coefficients_at",
        "closed_form_table",
    ),
    "precision": ("get_precision", "set_precision", "working_precision"),
    "problem": ("Direction", "ProblemSpec", "dump_problem", "parse_problem"),
    "series": ("Prefactor", "TruncatedSeries", "poly_times_series", "series_mul"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
