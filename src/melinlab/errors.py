"""Exception types shared across the package.

Everything derives from ValueError so callers who only care about
"bad input" can catch one thing; the CLI maps the finer classes onto
its exit codes.
"""

__all__ = [
    "MelinLabError",
    "DimensionMismatch",
    "VanishingOrderError",
    "GradingError",
    "PositivityError",
    "NonHermitianError",
    "MonotonicityError",
    "ModelFileError",
    "ResourceLimitError",
]


class MelinLabError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MelinLabError):
    """Operands live on transverse spaces of different dimension."""


class VanishingOrderError(MelinLabError):
    """A level carries a monomial below its required transverse degree."""


class GradingError(MelinLabError):
    """Lambda-grading bookkeeping failed (non-half-integer exponent or
    a graded product that disagrees with the folded star product)."""


class PositivityError(MelinLabError):
    """A matrix that must be positive semidefinite is not, or the
    eigenvalues of a fundamental matrix stray off the imaginary axis."""


class NonHermitianError(MelinLabError):
    """An operator matrix expected to be Hermitian is not."""


class MonotonicityError(MelinLabError):
    """A truncation sweep increased where compression says it cannot;
    signals an exactness bug in the padding."""


class ModelFileError(MelinLabError):
    """A model file or symbol literal failed schema validation."""


class ResourceLimitError(MelinLabError):
    """A computation would exceed a stated size limit; raised before
    anything of that size is allocated."""
