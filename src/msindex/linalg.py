"""Dense linear algebra for small matrices.

Everything here is sized for the 3x3 / 6x6 / 9x9 / 18x18 matrices the
pipeline produces and raises typed errors instead of returning garbage:
input holding inf or nan is refused up front, and every tolerance test
is written so that a nan fails it.  Eigenvalues of Hermitian matrices
come from LAPACK ``eigvalsh`` (``eigh`` with eigenvectors) through
numpy.linalg, which takes complex Hermitian input directly, in one
read-only descending array; input exactly equal to its conjugate
transpose, as the pipeline's key matrices are by construction, is not
symmetrized.  Linear systems are solved by LAPACK ``gesv`` (LU with
partial pivoting, through ``numpy.linalg.solve``), guarded by a
singularity test and a residual check of its own.  A matrix a with a
positive definite symmetric part may be inverted from that part's
eigenvectors instead; refusing it when lambda_min < sqrt(n)
pivot_bound(n) |a|_F refuses wherever solve would, as sigma_min(a) >=
lambda_min and 1 / |a^-1|_F >= sigma_min / sqrt(n).  solve and
eig_selfadjoint also take a stack of matrices along leading axes: each
matrix goes to LAPACK as it would alone, each check runs once over the
stack, and an error names the first matrix that fails it.
"""

from __future__ import annotations

import functools
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
RESIDUAL_TOL = 1e-10

# the identities that solve appends to b, one read-only view per shape (..., n, n)
_eye = functools.lru_cache(maxsize=64)(lambda shape: np.broadcast_to(np.eye(shape[-1]), shape))


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


def norms(m) -> list[float]:
    """The Frobenius norm of each matrix of a stack (..., rows, cols), or
    of one matrix, as a flat list, for tolerance tests: one BLAS dot per
    matrix, which sums in another order than frobenius and is rescaled as
    frobenius where the sum overflows or underflows.  One matrix takes
    np.vdot, which never warns; more take one np.vecdot, with the same
    bits, which is faster from two matrices on."""
    x = np.asarray(m)
    shape = x.shape[-2:]
    if x.size == shape[0] * shape[1]:
        return [_norm(x.reshape(shape))]
    flat = x.reshape(-1, shape[0] * shape[1])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sums = np.vecdot(flat, flat).real.tolist()
    return [v if 0.0 < v < math.inf else frobenius(x.reshape((-1,) + shape)[j])
            for j, v in enumerate(map(math.sqrt, sums))]


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of one matrix x as norms takes it: one np.vdot,
    rescaled as frobenius where the sum overflows or underflows."""
    v = math.sqrt(np.vdot(x, x).real)
    return v if 0.0 < v < math.inf else frobenius(x)


def frobenius(m):
    """Frobenius norm with np.linalg.norm's bits, rescaled by max|m| where
    the plain sum of squares overflows or underflows (Blue 1978), so that
    any finite matrix gets a finite, and a nonzero one a nonzero, norm.
    np.vdot forms the sums: unlike ndarray.dot it never warns.  A stack
    (..., rows, cols) gives the norm of each matrix, as an array."""
    x = np.asarray(m)
    if x.ndim > 2:
        mats = x.reshape((-1,) + x.shape[-2:])
        return np.array([frobenius(mat) for mat in mats]).reshape(x.shape[:-2])
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
            norm = big * frobenius(x / big)
    return norm


def pivot_bound(n: int) -> float:
    """The b of solve's test, which refuses a when 1 / |a^-1|_F < b |a|_F."""
    return math.sqrt(0.5 * n * (n + 1)) * _PIVOT_TOL


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
    # a single system takes each norm by one _norm, a stack by norms
    measure = norms if aa.ndim > 2 else (lambda x: [_norm(x)])
    scale, rhs_norm = measure(aa), measure(bb)
    if len(rhs_norm) < len(scale):
        rhs_norm *= len(scale)
    if not math.isfinite(sum(scale) + sum(rhs_norm)):  # an inf or nan entry makes a norm so
        _require_finite(aa, "coefficient matrix")
        _require_finite(bb, "rhs")
    if 0.0 in scale:
        raise SingularMatrix(f"zero coefficient matrix{_where(aa, scale.index(0.0))}")

    try:
        sol = np.linalg.solve(aa, np.concatenate([bb, _eye(bb.shape[:-1] + (n,))], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"gesv: {exc}") from exc
    x = sol[..., :k]
    bound = pivot_bound(n)
    for j, (s, inv) in enumerate(zip(scale, measure(sol[..., k:]))):
        if not (1.0 / inv >= bound * s):
            raise SingularMatrix(
                f"smallest singular value may be below {bound:.1e} * norm "
                f"(1/|a^-1| = {1.0 / inv:.3e}){_where(aa, j)}")

    for j, (resid, r) in enumerate(zip(measure(aa @ x - bb), rhs_norm)):
        if r > 0.0 and not (resid <= RESIDUAL_TOL * r):
            raise SingularMatrix(
                f"solution residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e} * |b|{_where(aa, j)}")
    # a copy, so that a kept solution does not hold all of [x | a^-1]
    return (x[..., 0] if rhs_was_vector else x).copy()


def eig_selfadjoint(m, vectors: bool = False):
    """All eigenvalues of a self-adjoint matrix, by LAPACK ``eigvalsh``,
    sorted descending in one contiguous read-only array (float64, or
    float32 for float32 input, as LAPACK gives them); for a
    stack (..., n, n), shape (..., n), each spectrum bit for bit that of
    its matrix alone.  vectors=True gives (values, vectors) by ``eigh``,
    the eigenvectors as the columns of a read-only (..., n, n) array.

    Input equal to its conjugate transpose goes to LAPACK as it is,
    other input is symmetrized first; input whose imaginary part is
    exactly zero goes in as a real matrix.  Raises NonFiniteInput for inf
    or nan entries, NotSelfAdjoint when the input is too far from its own
    conjugate transpose, and NonConvergence if LAPACK reports failure;
    on a stack each check runs once and names the first matrix failing it.
    """
    a = _as_square(m)
    # an inf or nan entry makes the sum of squares inf or nan; so may a finite overflow
    if not math.isfinite(np.vdot(a, a).real):
        _require_finite(a, "matrix")
    is_complex = a.dtype.kind == "c"
    adjoint = (a.conj() if is_complex else a).swapaxes(-1, -2)
    exact = a == adjoint
    if not exact.all():
        for j, (scale, defect) in enumerate(zip(norms(a), norms(a - adjoint))):
            if not (defect <= _HERMITIAN_DEFECT_TOL * max(scale, 1e-300)):
                raise NotSelfAdjoint(f"defect {defect:.3e} vs norm {scale:.3e}{_where(a, j)}")
        a = np.where(exact.all(axis=(-2, -1))[..., None, None], a, 0.5 * (a + adjoint))
    # a matrix with a zero imaginary part goes in as a real one, also within a stack
    mixed = None
    if is_complex and a.ndim == 2:
        if not a.imag.any():
            a = a.real
    elif is_complex:
        has_imag = a.imag.any(axis=(-2, -1))
        count = np.count_nonzero(has_imag)
        if count == 0:
            a = a.real
        elif count < has_imag.size:
            mixed = has_imag
    name = "eigh" if vectors else "eigvalsh"
    lapack = getattr(np.linalg, name)
    try:
        if mixed is None:
            found = lapack(a) if vectors else (lapack(a),)
        else:
            found = [np.empty(a.shape[:-1]), np.empty(a.shape, dtype=complex)][:1 + vectors]
            for rows, part in ((~mixed, a[~mixed].real), (mixed, a[mixed])):
                for out, res in zip(found, lapack(part) if vectors else (lapack(part),)):
                    out[rows] = res
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"{name} failed: {exc}") from exc
    values = found[0][..., ::-1].copy()
    values.flags.writeable = False
    if not vectors:
        return values
    vecs = found[1][..., ::-1].copy()
    vecs.flags.writeable = False
    return values, vecs
