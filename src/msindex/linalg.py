"""Dense linear algebra for small matrices.

Everything here is sized for the 3x3 / 6x6 / 9x9 / 18x18 matrices the
pipeline produces, favours reproducibility over speed, and raises
typed errors instead of returning garbage.  Eigenvalues of Hermitian
matrices come from a cyclic threshold Jacobi iteration on the matrix
itself: each complex pivot is made real by a unitary diagonal (phase)
similarity and then zeroed by a real rotation, and pivots already below
the stopping tolerance over n are skipped.  The results are
deterministic across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NotSelfAdjoint, SingularMatrix

_ALLOWED_SIZES = (3, 6, 9, 18)

# relative thresholds, all against the Frobenius norm of the input
_HERMITIAN_DEFECT_TOL = 1e-9
_JACOBI_OFF_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 60
_PIVOT_TOL = 1e-14
_RESIDUAL_TOL = 1e-10


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def solve(a, b) -> np.ndarray:
    """Solve a X = b by Gaussian elimination with partial pivoting.

    Refuses near-singular systems (tiny pivot) and verifies the
    residual of the computed solution.
    """
    aa = _as_square(a, "coefficient matrix")
    bb = np.asarray(b)
    rhs_was_vector = bb.ndim == 1
    if rhs_was_vector:
        bb = bb[:, None]
    if bb.ndim != 2 or bb.shape[0] != aa.shape[0]:
        raise DimensionMismatch(f"rhs shape {np.asarray(b).shape} does not match {aa.shape}")

    n = aa.shape[0]
    dtype = np.result_type(aa.dtype, bb.dtype, float)
    aug = np.hstack([aa.astype(dtype), bb.astype(dtype)])
    scale = frobenius(aa)
    if scale == 0.0:
        raise SingularMatrix("zero coefficient matrix")

    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) < _PIVOT_TOL * scale:
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
    if rhs_norm > 0.0 and resid > _RESIDUAL_TOL * rhs_norm:
        raise SingularMatrix(f"solution residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e} * |b|")
    return x[:, 0] if rhs_was_vector else x


def _jacobi_eigenvalues(herm: np.ndarray, scale: float) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic threshold Jacobi rotations.

    A pivot a_pq = r u (r = |a_pq|) is first made real by the unitary
    diagonal similarity that scales column q by conj(u) and row q by u;
    the real rotation that zeroes it is applied in the same pass.  For
    real input u = +-1: the phase step is an exact sign flip, so real
    matrices stay real and their diagonal is the same, bit for bit, as
    with a rotation of the signed pivot.  Pivots with |a_pq| <= stop / n
    are skipped: all of them together have an off-norm below
    sqrt(n (n - 1)) / n * stop < stop, so they never hold up the
    stopping test.
    """
    a = herm.astype(np.result_type(herm, float))
    n = a.shape[0]
    if scale == 0.0:
        return np.zeros(n)
    stop = _JACOBI_OFF_TOL * scale
    threshold = stop / n
    for _ in range(_JACOBI_MAX_SWEEPS):
        # measure the off-diagonal mass directly; the subtraction
        # norm(a)^2 - norm(diag)^2 cannot see below sqrt(ulp)
        hollow = a.copy()
        np.fill_diagonal(hollow, 0.0)
        off = float(np.linalg.norm(hollow))
        if off <= stop:
            return np.diag(a).real.copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= threshold:
                    continue
                gap = float(a[q, q].real) - float(a[p, p].real)
                if r < 1e-300 * max(1.0, abs(gap)):
                    # a denormal pivot cannot be rotated away stably
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                # a Python scalar divides each part correctly rounded
                u = apq.item() / r
                theta = gap / (2.0 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = u.conjugate() * a[:, q]
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = u * a[q, :]
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise NonConvergence(f"Jacobi sweeps exhausted with off-norm {off:.3e}")


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues of a self-adjoint matrix, sorted descending."""

    eigenvalues: tuple[float, ...]


def count_signs(eigenvalues, zero_tol: float) -> tuple[int, int, int]:
    vals = np.asarray(eigenvalues, dtype=float)
    pos = int(np.sum(vals > zero_tol))
    neg = int(np.sum(vals < -zero_tol))
    return pos, neg, len(vals) - pos - neg


def eig_selfadjoint(m) -> EigenResult:
    """All eigenvalues of a self-adjoint matrix.

    The matrix itself is diagonalized by cyclic threshold Jacobi
    rotations: a complex Hermitian pivot is phase-normalized to a real
    one by a unitary diagonal similarity before its real rotation, and
    pivots below stop / n are skipped (see _jacobi_eigenvalues).  Input
    whose imaginary part is exactly zero is rotated as a real matrix.  Raises
    NotSelfAdjoint when the input is too far from its own conjugate
    transpose, NonConvergence if rotation sweeps run out.
    """
    a = _as_square(m)
    if a.shape[0] not in _ALLOWED_SIZES:
        raise DimensionMismatch(f"unsupported size {a.shape[0]}, expected one of {_ALLOWED_SIZES}")
    scale = frobenius(a)
    defect = frobenius(a - a.conj().T)
    if defect > _HERMITIAN_DEFECT_TOL * max(scale, 1e-300):
        raise NotSelfAdjoint(f"defect {defect:.3e} vs norm {scale:.3e}")
    sym = 0.5 * (a + a.conj().T)
    if not np.any(np.imag(sym) != 0.0):
        sym = np.real(sym)
    values = np.sort(_jacobi_eigenvalues(sym, scale))[::-1]
    return EigenResult(eigenvalues=tuple(float(v) for v in values))
