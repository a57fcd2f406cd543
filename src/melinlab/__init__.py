"""melinlab: Weyl calculus for graded polynomial model operators.

The package covers the pipeline from symbols to verified spectral
bounds: exact polynomial symbols and the Moyal star product, Weyl
quantization in the Fock basis, symplectic invariants of quadratic
forms (fundamental matrix, plus-trace, Melin quantity), localization of
a graded symbol at its characteristic subspace, and Lambda-sweeps that
verify the Lambda^-k scaling of the lowest eigenvalue against the
localized model.
"""

from .errors import (
    DimensionMismatch,
    GradingError,
    MelinLabError,
    ModelFileError,
    MonotonicityError,
    NonHermitianError,
    PositivityError,
    ResourceLimitError,
    VanishingOrderError,
)
from .invariants import (
    MetricPoint,
    MetricReport,
    QuadraticData,
    fundamental_matrix,
    melin_quantity,
    metric_report,
    symplectic_form_matrix,
    trace_plus,
)
from .localize import (
    HypothesisDiagnosis,
    LocalizedOperator,
    hypothesis_check,
    localization_product_check,
    localize,
    localized_symbol,
    unit_sphere_grid,
)
from .models import harmonic_symbol, quadratic_form_symbol, quadratic_model, quartic_model
from .quantize import (
    OperatorMatrix,
    TruncationSweep,
    conjugation_residual,
    lowest_eigenvalue,
    number_operator,
    truncation_sweep,
    weyl_quantize,
)
from .sweep import (
    ModelSpec,
    PhasePoint,
    PhaseReport,
    SweepReport,
    SweepRow,
    emit_report,
    lambda_sweep,
    melin_phase_diagram,
    parse_report,
    render_report,
)
from .symbols import (
    GradedSymbol,
    HalfGradedPolynomial,
    PolynomialSymbol,
    bidifferential_power,
    eta,
    graded_star,
    moyal_star,
    poisson_bracket,
    scale_symbol,
    taylor_transverse,
    y,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MelinLabError", "DimensionMismatch", "VanishingOrderError", "GradingError",
    "PositivityError", "NonHermitianError", "MonotonicityError", "ModelFileError",
    "ResourceLimitError",
    # symbols
    "PolynomialSymbol", "GradedSymbol", "HalfGradedPolynomial", "y", "eta",
    "moyal_star", "bidifferential_power", "poisson_bracket", "graded_star",
    "taylor_transverse", "scale_symbol",
    # quantization
    "OperatorMatrix", "weyl_quantize", "number_operator",
    "lowest_eigenvalue", "TruncationSweep", "truncation_sweep", "conjugation_residual",
    # invariants
    "QuadraticData", "symplectic_form_matrix", "fundamental_matrix", "trace_plus",
    "melin_quantity", "MetricPoint", "MetricReport", "metric_report",
    # localization
    "LocalizedOperator", "localized_symbol", "localize", "HypothesisDiagnosis",
    "hypothesis_check", "localization_product_check", "unit_sphere_grid",
    # verifier
    "ModelSpec", "SweepRow", "SweepReport", "lambda_sweep", "PhasePoint", "PhaseReport",
    "melin_phase_diagram", "emit_report", "render_report", "parse_report",
    # canonical models
    "harmonic_symbol", "quadratic_form_symbol", "quadratic_model", "quartic_model",
]
