"""Morse index, nullity, and signature for five families of triply
periodic minimal surfaces in flat three-tori.

The pipeline for one parameter value: singular integrals by tanh-sinh
quadrature (quadrature), period data per family (families), the key
matrix spectra and their sign counts (moduli, linalg), and interval
classification across a parameter window (sweep).
"""

from .errors import (
    DimensionMismatch,
    DomainError,
    MsindexError,
    NonConvergence,
    NonFiniteInput,
    NotSelfAdjoint,
    RiemannMatrixViolation,
    SingularMatrix,
    UnresolvedTransition,
    UsageError,
)
from .families import (
    FAMILIES,
    IntegralSet,
    PeriodFrame,
    QuadConfig,
    SurfaceParam,
    canonical_param,
    domain_bounds,
    integral_set,
    period_frame,
    validate_param,
    verify_identities,
)
from .moduli import (
    KeyMatrices,
    SpectralReport,
    SurfaceAnalysis,
    analyze,
    key_matrices,
    spectral_report,
    tangent_frame,
)
from .quadrature import Integrand, integrate
from .sweep import (
    DEFAULT_WINDOWS,
    Interval,
    SweepConfig,
    SweepReport,
    SweepSample,
    Transition,
    classify_at,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WINDOWS",
    "DimensionMismatch",
    "DomainError",
    "FAMILIES",
    "IntegralSet",
    "Integrand",
    "Interval",
    "KeyMatrices",
    "MsindexError",
    "NonConvergence",
    "NonFiniteInput",
    "NotSelfAdjoint",
    "PeriodFrame",
    "QuadConfig",
    "RiemannMatrixViolation",
    "SingularMatrix",
    "SpectralReport",
    "SurfaceAnalysis",
    "SurfaceParam",
    "SweepConfig",
    "SweepReport",
    "SweepSample",
    "Transition",
    "UnresolvedTransition",
    "UsageError",
    "analyze",
    "canonical_param",
    "classify_at",
    "domain_bounds",
    "integral_set",
    "integrate",
    "key_matrices",
    "period_frame",
    "spectral_report",
    "sweep",
    "tangent_frame",
    "validate_param",
    "verify_identities",
    "__version__",
]
