"""Exception types shared across the package.

Each maps to one failure mode of the numerical pipeline; the CLI
translates them into process exit codes.
"""


class MsindexError(Exception):
    """Base class for all package errors."""


class DomainError(MsindexError):
    """A parameter or evaluation point lies outside its admissible domain."""


class NonConvergence(MsindexError):
    """An iterative scheme hit its budget before reaching tolerance."""


class DimensionMismatch(MsindexError):
    """Matrix operands have incompatible shapes."""


class SingularMatrix(MsindexError):
    """A linear solve met a pivot or residual outside safe bounds."""


class NonFiniteInput(MsindexError):
    """A matrix or right-hand side handed to the linear algebra holds inf or nan."""


class NotSelfAdjoint(MsindexError):
    """A matrix handed to the symmetric eigensolver differs from its conjugate transpose."""


class RiemannMatrixViolation(MsindexError):
    """A computed period ratio fails symmetry or positivity checks."""


class UnresolvedTransition(MsindexError):
    """A sign change was bracketed but no root could be pinned down."""


class UsageError(MsindexError):
    """Bad command-line invocation."""
