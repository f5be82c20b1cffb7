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
test and a residual check of its own.  solve and eig_selfadjoint also
take a stack of matrices along leading axes: each matrix goes to
LAPACK as it would alone, each check runs once over the stack, and an
error names the first matrix that fails it.
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

# relative thresholds, all against the Frobenius norm of the input
_HERMITIAN_DEFECT_TOL = 1e-9
_PIVOT_TOL = 1e-14
_RESIDUAL_TOL = 1e-10


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _where(a: np.ndarray, j: int) -> str:
    """' (matrix i of the stack)' for the matrix at flat position j of a
    stack a, '' for a single matrix."""
    lead = a.shape[:-2]
    if not lead:
        return ""
    i = j if len(lead) == 1 else tuple(int(k) for k in np.unravel_index(j, lead))
    return f" (matrix {i} of the stack)"


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        j = int(np.argmin(np.isfinite(a).reshape(-1, a.shape[-2] * a.shape[-1]).all(-1)))
        raise NonFiniteInput(f"{name} has inf or nan entries{_where(a, j)}")


def _norms(m: np.ndarray) -> list[float]:
    """The Frobenius norm of each matrix of a stack (..., rows, cols), or
    of one matrix, as a flat list, each with the bits of _flat_norm of
    that matrix alone.

    A float64 or complex128 stack whose matrices lie in row order forms
    _flat_norm's sums for all of them at once: each matrix a contiguous row, the real and the
    imaginary parts of a complex one read in place, each row dotted with
    itself by (N, 1, n) @ (N, n, 1), which runs the BLAS dot that
    np.vdot runs with the same strides.  Only a matrix whose sum
    overflows or underflows, or a stack in another layout, is measured
    matrix by matrix.
    """
    if m.ndim == 2:
        return [_flat_norm(m)]
    x = m.reshape((-1,) + m.shape[-2:])
    rows, cols = x.shape[-2:]
    in_row_order = rows == 1 or cols == 1 or x.strides[-2] >= x.strides[-1] > 0
    if x.dtype.char not in "dD" or not in_row_order:
        # another dtype, or ravel(order="K") would not read each matrix by rows
        return [_flat_norm(mat) for mat in x]
    flat = np.ascontiguousarray(x).reshape(len(x), 1, rows * cols)
    sums = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for part in ((flat.real, flat.imag) if flat.dtype.kind == "c" else (flat,)):
            sums = sums + (part @ part.swapaxes(-1, -2))[:, 0, 0]
    norms = np.sqrt(sums).tolist()
    return [v if 0.0 < v < math.inf else _flat_norm(x[j]) for j, v in enumerate(norms)]


def frobenius(m):
    """Frobenius norm with np.linalg.norm's bits, rescaled by max|m| where
    the plain sum of squares overflows or underflows (Blue 1978), so that
    any finite matrix gets a finite, and a nonzero one a nonzero, norm.
    np.vdot forms the sums: unlike ndarray.dot it never warns.  A stack
    (..., rows, cols) gives the norm of each matrix, as an array, each
    bit for bit the norm of that matrix alone."""
    x = np.asarray(m)
    if x.ndim > 2:
        return np.array(_norms(x)).reshape(x.shape[:-2])
    return _flat_norm(x)


def _flat_norm(x: np.ndarray) -> float:
    """The Frobenius norm of all of x, as frobenius describes it."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        norm = math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
    else:
        x = x if x.dtype.kind == "f" else x.astype(float)
        norm = math.sqrt(float(np.vdot(x, x)))
    if norm == 0.0 or math.isinf(norm):
        big = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < big < math.inf:
            norm = big * _flat_norm(x / big)
    return norm


def solve(a, b) -> np.ndarray:
    """Solve a X = b by LAPACK ``gesv``, LU with partial pivoting.

    a may be a stack (..., n, n), with b either one matrix (n, k) for
    every system or a stack (..., n, k) of its own; a single a also
    takes one vector b.  Each system is solved by its own gesv call,
    bit for bit as alone, and each check runs once over the stack, an
    error naming the first matrix that fails it.  Refuses non-finite
    input and near-singular systems and verifies the residual of the
    computed solution.  The singularity test is at least as strict as
    refusing an elimination pivot below _PIVOT_TOL * |a|: with the unit
    lower factor's |l_ij| <= 1, sigma_min(a) <= sqrt(n (n + 1) / 2) *
    min |u_kk|, and the same gesv call yields a^-1, whose Frobenius
    norm bounds sigma_min from below by 1 / |a^-1|.
    """
    aa = _as_square(a, "coefficient matrix")
    bb = np.asarray(b)
    rhs_was_vector = bb.ndim == 1
    if rhs_was_vector:
        bb = bb[:, None]
    n = aa.shape[-1]
    if bb.ndim < 2 or bb.shape[-2] != n or bb.shape[:-2] not in ((), aa.shape[:-2]) or (
            rhs_was_vector and aa.ndim > 2):
        raise DimensionMismatch(f"rhs shape {np.asarray(b).shape} does not match {aa.shape}")
    k = bb.shape[-1]
    scale = _norms(aa)
    rhs_norm = _norms(bb)
    if len(rhs_norm) < len(scale):
        rhs_norm *= len(scale)
    if not math.isfinite(sum(scale) + sum(rhs_norm)):  # an inf or nan entry makes a norm so
        _require_finite(aa, "coefficient matrix")
        _require_finite(bb, "rhs")
    if 0.0 in scale:
        raise SingularMatrix(f"zero coefficient matrix{_where(aa, scale.index(0.0))}")

    rhs = np.empty(aa.shape[:-2] + (n, k + n), dtype=complex if bb.dtype.kind == "c" else float)
    rhs[..., :k] = bb
    rhs[..., k:] = np.eye(n)
    try:
        sol = np.linalg.solve(aa, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"gesv: {exc}") from exc
    x = sol[..., :k]
    bound = math.sqrt(0.5 * n * (n + 1)) * _PIVOT_TOL
    for j, (s, inv) in enumerate(zip(scale, _norms(sol[..., k:]))):
        if not (1.0 / inv >= bound * s):
            raise SingularMatrix(
                f"smallest singular value may be below {bound:.1e} * norm "
                f"(1/|a^-1| = {1.0 / inv:.3e}){_where(aa, j)}")

    for j, (resid, r) in enumerate(zip(_norms(aa @ x - bb), rhs_norm)):
        if r > 0.0 and not (resid <= _RESIDUAL_TOL * r):
            raise SingularMatrix(
                f"solution residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e} * |b|{_where(aa, j)}")
    # a copy, so that a kept solution does not hold all of [x | a^-1]
    return (x[..., 0] if rhs_was_vector else x).copy()


def count_signs(eigenvalues, zero_tol: float) -> tuple[int, int, int]:
    vals = np.asarray(eigenvalues, dtype=float)
    pos = int(np.count_nonzero(vals > zero_tol))
    neg = int(np.count_nonzero(vals < -zero_tol))
    return pos, neg, len(vals) - pos - neg


def eig_selfadjoint(m) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, by LAPACK ``eigvalsh``,
    sorted descending in one contiguous read-only float64 array; for a
    stack (..., n, n), shape (..., n), each spectrum bit for bit that of
    its matrix alone.

    Input equal to its conjugate transpose goes to ``eigvalsh`` as it is,
    other input is symmetrized first; input whose imaginary part is
    exactly zero goes in as a real matrix.  Raises NonFiniteInput for inf
    or nan entries, NotSelfAdjoint when the input is too far from its own
    conjugate transpose, and NonConvergence if LAPACK reports failure;
    on a stack each check runs once and names the first matrix failing it.
    """
    a = _as_square(m)
    _require_finite(a, "matrix")
    adjoint = a.conj().swapaxes(-1, -2)
    exact = a == adjoint
    if not exact.all():
        for j, (scale, defect) in enumerate(zip(_norms(a), _norms(a - adjoint))):
            if not (defect <= _HERMITIAN_DEFECT_TOL * max(scale, 1e-300)):
                raise NotSelfAdjoint(f"defect {defect:.3e} vs norm {scale:.3e}{_where(a, j)}")
        a = np.where(exact.all(axis=(-2, -1))[..., None, None], a, 0.5 * (a + adjoint))
    if a.dtype.kind == "c" and not a.imag.any():
        a = a.real
    # a stack can mix complex matrices with real ones, which go in as real
    real = ~a.imag.any(axis=(-2, -1)) if a.dtype.kind == "c" and a.ndim > 2 else None
    try:
        if real is None or not real.any():
            ascending = np.linalg.eigvalsh(a)
        else:
            ascending = np.empty(a.shape[:-1])
            ascending[real] = np.linalg.eigvalsh(a[real].real)
            ascending[~real] = np.linalg.eigvalsh(a[~real])
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigvalsh failed: {exc}") from exc
    values = np.array(ascending[..., ::-1], dtype=np.float64)
    values.flags.writeable = False
    return values
