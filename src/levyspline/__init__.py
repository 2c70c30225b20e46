"""Random L-spline synthesis and Poisson-to-Levy convergence verification.

The package samples sparse Poisson impulse fields, solves L s = w against
a right inverse that pins the boundary, and checks, through characteristic
functionals and marginal statistics, that the resulting random splines
converge in law to the matching Levy process as the impulse rate grows.
"""

from .exponents import (
    JumpLaw,
    LevyExponent,
    PoissonizedExponent,
    cauchy,
    evaluate,
    gaussian,
    laplace,
    poissonization_contraction_check,
    poissonize,
)
from .grid import Box, Grid
from .noise import ImpulseBlock, RngStream, sample_impulse_field
from .operators import (
    OperatorSpec,
    apply_T,
    apply_adjoint,
    green,
    make_operator,
    margin_rule,
    parse_operator_config,
)
from .synthesis import (
    GridRealization,
    reference_levy_path,
    synthesize_spline,
)
from .verify import (
    CFReport,
    NoiseFloor,
    analytic_cf,
    build_cf_bank,
    build_identity_bank,
    convergence_study,
    empirical_cf,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CFReport",
    "Grid",
    "GridRealization",
    "ImpulseBlock",
    "JumpLaw",
    "LevyExponent",
    "NoiseFloor",
    "OperatorSpec",
    "PoissonizedExponent",
    "RngStream",
    "analytic_cf",
    "apply_T",
    "apply_adjoint",
    "build_cf_bank",
    "build_identity_bank",
    "cauchy",
    "convergence_study",
    "empirical_cf",
    "evaluate",
    "gaussian",
    "green",
    "laplace",
    "make_operator",
    "margin_rule",
    "parse_operator_config",
    "poissonization_contraction_check",
    "poissonize",
    "reference_levy_path",
    "sample_impulse_field",
    "synthesize_spline",
]
