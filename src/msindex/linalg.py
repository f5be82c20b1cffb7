"""Dense linear algebra for small matrices.

Everything here is sized for the 3x3 / 6x6 / 9x9 / 18x18 matrices the
pipeline produces and raises typed errors instead of returning garbage:
input holding inf or nan is refused up front, and every tolerance test
is written so that a nan fails it.  Eigenvalues of Hermitian matrices
come from LAPACK ``eigvalsh`` (through numpy.linalg), which takes
complex Hermitian input directly; linear systems are solved by
Gaussian elimination with partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonConvergence,
    NonFiniteInput,
    NotSelfAdjoint,
    SingularMatrix,
)

_ALLOWED_SIZES = (3, 6, 9, 18)

# relative thresholds, all against the Frobenius norm of the input
_HERMITIAN_DEFECT_TOL = 1e-9
_PIVOT_TOL = 1e-14
_RESIDUAL_TOL = 1e-10


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} has inf or nan entries")


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def solve(a, b) -> np.ndarray:
    """Solve a X = b by Gaussian elimination with partial pivoting.

    Refuses non-finite input and near-singular systems (tiny pivot) and
    verifies the residual of the computed solution.
    """
    aa = _as_square(a, "coefficient matrix")
    bb = np.asarray(b)
    rhs_was_vector = bb.ndim == 1
    if rhs_was_vector:
        bb = bb[:, None]
    if bb.ndim != 2 or bb.shape[0] != aa.shape[0]:
        raise DimensionMismatch(f"rhs shape {np.asarray(b).shape} does not match {aa.shape}")
    _require_finite(aa, "coefficient matrix")
    _require_finite(bb, "rhs")

    n = aa.shape[0]
    dtype = np.result_type(aa.dtype, bb.dtype, float)
    aug = np.hstack([aa.astype(dtype), bb.astype(dtype)])
    scale = frobenius(aa)
    if scale == 0.0:
        raise SingularMatrix("zero coefficient matrix")

    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if not (abs(pivot) >= _PIVOT_TOL * scale):
            raise SingularMatrix(f"pivot {abs(pivot):.3e} below {_PIVOT_TOL:.0e} * norm")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        factors = aug[col + 1:, col] / aug[col, col]
        aug[col + 1:, col:] -= factors[:, None] * aug[col, col:]

    x = np.zeros((n, bb.shape[1]), dtype=dtype)
    for row in range(n - 1, -1, -1):
        x[row] = (aug[row, n:] - aug[row, row + 1:n] @ x[row + 1:]) / aug[row, row]

    resid = frobenius(aa @ x - bb)
    rhs_norm = frobenius(bb)
    if rhs_norm > 0.0 and not (resid <= _RESIDUAL_TOL * rhs_norm):
        raise SingularMatrix(f"solution residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e} * |b|")
    return x[:, 0] if rhs_was_vector else x


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Eigenvalues of a self-adjoint matrix, sorted descending, as one
    contiguous read-only float64 array."""

    eigenvalues: np.ndarray


def count_signs(eigenvalues, zero_tol: float) -> tuple[int, int, int]:
    vals = np.asarray(eigenvalues, dtype=float)
    pos = int(np.sum(vals > zero_tol))
    neg = int(np.sum(vals < -zero_tol))
    return pos, neg, len(vals) - pos - neg


def eig_selfadjoint(m) -> EigenResult:
    """All eigenvalues of a self-adjoint matrix, by LAPACK ``eigvalsh``.

    The input is symmetrized and handed to ``eigvalsh``; input whose
    imaginary part is exactly zero goes in as a real matrix.  Raises
    NonFiniteInput for inf or nan entries, NotSelfAdjoint when the input
    is too far from its own conjugate transpose, and NonConvergence if
    LAPACK reports that its iteration failed.
    """
    a = _as_square(m)
    if a.shape[0] not in _ALLOWED_SIZES:
        raise DimensionMismatch(f"unsupported size {a.shape[0]}, expected one of {_ALLOWED_SIZES}")
    _require_finite(a, "matrix")
    scale = frobenius(a)
    defect = frobenius(a - a.conj().T)
    if not (defect <= _HERMITIAN_DEFECT_TOL * max(scale, 1e-300)):
        raise NotSelfAdjoint(f"defect {defect:.3e} vs norm {scale:.3e}")
    sym = 0.5 * (a + a.conj().T)
    if not np.any(np.imag(sym) != 0.0):
        sym = np.real(sym)
    try:
        ascending = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigvalsh failed: {exc}") from exc
    values = np.array(ascending[::-1], dtype=np.float64)
    values.flags.writeable = False
    return EigenResult(eigenvalues=values)
