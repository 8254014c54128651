"""Exception hierarchy.

Three broad families, mirrored by the CLI exit codes: bad input (3),
a verification check that failed (2), and a numeric procedure that could
not produce a trustworthy answer (4).
"""

from __future__ import annotations


class GjrepError(Exception):
    """Base class for all package-specific errors."""


class InputError(GjrepError):
    """Malformed or inconsistent input (shapes, schema, parameter ranges)."""


class UnsupportedModelError(InputError):
    """The requested operation needs structure this input does not have."""


class VerificationError(GjrepError):
    """A residual or invariant check failed beyond its tolerance."""


class FundamentalResidualError(VerificationError):
    """Computed Laurent data violates the fundamental identities."""


class NumericError(GjrepError):
    """A numeric procedure failed or did not converge."""


class SingularMatrixError(NumericError):
    """A matrix that must be inverted is singular past the condition cap."""


class ContourNotConverged(NumericError):
    """Node doubling did not stabilise the contour quadrature."""


class ClassificationInconclusive(NumericError):
    """The principal part is not nilpotent: the contour may enclose another singularity."""


class ChainStepError(NumericError):
    """A chain extension step has no solution within tolerance."""


class NaturalFormDiverges(NumericError):
    """Natural representation requested but the regular series has radius <= 1."""


class OrderUndefined(NumericError):
    """Integration order is not defined for this singularity type."""
