"""Dense linear algebra for small matrices.

Everything here is sized for the 3x3 / 6x6 / 9x9 / 18x18 matrices the
pipeline produces and raises typed errors instead of returning garbage:
input holding inf or nan is refused up front, and every tolerance test
is written so that a nan fails it.  Eigenvalues of Hermitian matrices
come from LAPACK ``eigvalsh`` (through numpy.linalg), which takes
complex Hermitian input directly, and are returned as one read-only
descending array; input exactly equal to its conjugate transpose, as
the pipeline's key matrices are by construction, is not symmetrized.
Linear systems are solved by LAPACK ``gesv`` (LU with partial
pivoting, through ``numpy.linalg.solve``), guarded by a singularity
test and a residual check of its own.
"""

from __future__ import annotations

import math

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
    """Frobenius norm with np.linalg.norm's bits, rescaled by max|m| where
    the plain sum of squares overflows or underflows (Blue 1978), so that
    any finite matrix gets a finite, and a nonzero one a nonzero, norm.
    np.vdot forms the sums: unlike ndarray.dot it never warns."""
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        norm = math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
    else:
        x = x if x.dtype.kind == "f" else x.astype(float)
        norm = math.sqrt(float(np.vdot(x, x)))
    if norm == 0.0 or math.isinf(norm):
        big = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < big < math.inf:
            norm = big * frobenius(x / big)
    return norm


def solve(a, b) -> np.ndarray:
    """Solve a X = b by LAPACK ``gesv``, LU with partial pivoting.

    Refuses non-finite input and near-singular systems and verifies the
    residual of the computed solution.  The singularity test is at
    least as strict as refusing an elimination pivot below
    _PIVOT_TOL * |a|: with the unit lower factor's |l_ij| <= 1,
    sigma_min(a) <= sqrt(n (n + 1) / 2) * min |u_kk|, and the same gesv
    call yields a^-1, whose Frobenius norm bounds sigma_min from below
    by 1 / |a^-1|.
    """
    aa = _as_square(a, "coefficient matrix")
    bb = np.asarray(b)
    rhs_was_vector = bb.ndim == 1
    if rhs_was_vector:
        bb = bb[:, None]
    if bb.ndim != 2 or bb.shape[0] != aa.shape[0]:
        raise DimensionMismatch(f"rhs shape {np.asarray(b).shape} does not match {aa.shape}")
    scale = frobenius(aa)
    rhs_norm = frobenius(bb)
    if not math.isfinite(scale + rhs_norm):  # an inf or nan entry makes its norm so
        _require_finite(aa, "coefficient matrix")
        _require_finite(bb, "rhs")

    n, k = bb.shape
    if scale == 0.0:
        raise SingularMatrix("zero coefficient matrix")
    try:
        sol = np.linalg.solve(aa, np.concatenate((bb, np.eye(n)), axis=1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"gesv: {exc}") from exc
    x = sol[:, :k]
    sigma_min_lower = 1.0 / frobenius(sol[:, k:])
    bound = math.sqrt(0.5 * n * (n + 1)) * _PIVOT_TOL * scale
    if not (sigma_min_lower >= bound):
        raise SingularMatrix(
            f"smallest singular value may be below {bound / scale:.1e} * norm "
            f"(1/|a^-1| = {sigma_min_lower:.3e})")

    resid = frobenius(aa @ x - bb)
    if rhs_norm > 0.0 and not (resid <= _RESIDUAL_TOL * rhs_norm):
        raise SingularMatrix(f"solution residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e} * |b|")
    # a copy, so that a kept solution does not hold all of [x | a^-1]
    return (x[:, 0] if rhs_was_vector else x).copy()


def count_signs(eigenvalues, zero_tol: float) -> tuple[int, int, int]:
    vals = np.asarray(eigenvalues, dtype=float)
    pos = int(np.count_nonzero(vals > zero_tol))
    neg = int(np.count_nonzero(vals < -zero_tol))
    return pos, neg, len(vals) - pos - neg


def eig_selfadjoint(m) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, by LAPACK ``eigvalsh``,
    sorted descending in one contiguous read-only float64 array.

    Input equal to its conjugate transpose goes to ``eigvalsh`` as it is,
    other input is symmetrized first; input whose imaginary part is
    exactly zero goes in as a real matrix.  Raises NonFiniteInput for inf
    or nan entries, NotSelfAdjoint when the input is too far from its own
    conjugate transpose, and NonConvergence if LAPACK reports failure.
    """
    a = _as_square(m)
    if a.shape[0] not in _ALLOWED_SIZES:
        raise DimensionMismatch(f"unsupported size {a.shape[0]}, expected one of {_ALLOWED_SIZES}")
    _require_finite(a, "matrix")
    adjoint = a.conj().T
    if not (a == adjoint).all():
        scale = frobenius(a)
        defect = frobenius(a - adjoint)
        if not (defect <= _HERMITIAN_DEFECT_TOL * max(scale, 1e-300)):
            raise NotSelfAdjoint(f"defect {defect:.3e} vs norm {scale:.3e}")
        a = 0.5 * (a + adjoint)
    if a.dtype.kind == "c" and not a.imag.any():
        a = a.real
    try:
        ascending = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigvalsh failed: {exc}") from exc
    values = np.array(ascending[::-1], dtype=np.float64)
    values.flags.writeable = False
    return values
