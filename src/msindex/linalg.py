"""Dense linear algebra for small matrices.

Everything here is sized for the 3x3 / 6x6 / 9x9 / 18x18 matrices the
pipeline produces and raises typed errors instead of returning garbage:
input holding inf or nan is refused up front, and every tolerance test
is written so that a nan fails it.  Eigenvalues come from LAPACK
``eigvalsh`` (``eigh`` with eigenvectors) through numpy.linalg, in one
read-only descending array, for input exactly equal to its conjugate
transpose, as the pipeline's key matrices and sym(Im tau) are by
construction; any other input is refused.  A system a X = b, with b of
shape (..., n, k), is solved by LAPACK ``gesv`` (LU with partial
pivoting, through ``numpy.linalg.solve``), guarded by a singularity
test and a residual check of its own.  A matrix a with a positive
definite symmetric part may be inverted from that part's eigenvectors
instead; refusing it when lambda_min < sqrt(n) pivot_bound(n) |a|_F
refuses wherever solve would, as sigma_min(a) >= lambda_min and
1 / |a^-1|_F >= sigma_min / sqrt(n).  solve and eig_selfadjoint also
take a stack of matrices along leading axes: each matrix goes to LAPACK
as it would alone, each check runs once over the stack, and an error
names the first matrix that fails it.  Every tolerance is relative to
one norm, the Frobenius norm of norms.
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
_PIVOT_TOL = 1e-14
RESIDUAL_TOL = 1e-10

# the identities that solve appends to b, one read-only view per shape (..., n, n)
_eye = functools.lru_cache(maxsize=64)(lambda shape: np.broadcast_to(np.eye(shape[-1]), shape))


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _first_failing(ok: np.ndarray) -> int:
    """The flat stack position of the first matrix of a stack of boolean
    matrices ok that is not true throughout."""
    return int(np.argmin(ok.reshape(-1, ok.shape[-2] * ok.shape[-1]).all(-1)))


def _where(a: np.ndarray, j: int) -> str:
    """' (matrix i of the stack)' for the matrix at flat position j of a
    stack a, '' for a single matrix."""
    lead = a.shape[:-2]
    if not lead:
        return ""
    i = j if len(lead) == 1 else tuple(int(k) for k in np.unravel_index(j, lead))
    return f" (matrix {i} of the stack)"


def _require_finite(a: np.ndarray, name: str) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        raise NonFiniteInput(f"{name} has inf or nan entries{_where(a, _first_failing(finite))}")


def norms(m) -> list[float]:
    """The Frobenius norm of each matrix of a stack (..., rows, cols), or
    of one matrix, as a flat list: the one norm of every tolerance test.
    One BLAS dot per matrix forms the sum of squares, rescaled by max|x|
    where that sum overflows or underflows (Blue 1978), so that a finite
    matrix gets a finite, and a nonzero one a nonzero, norm.  One matrix
    takes np.vdot, which never warns; more take one np.vecdot, with the
    same bits, which is faster from two matrices on."""
    x = np.asarray(m)
    if x.ndim == 2:
        return [_norm(x)]
    flat = x.reshape(-1, x.shape[-2] * x.shape[-1])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sums = np.vecdot(flat, flat).real.tolist()
    return [v if 0.0 < v < math.inf else _norm(flat[j])
            for j, v in enumerate(map(math.sqrt, sums))]


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of one matrix x as norms takes it."""
    v = math.sqrt(np.vdot(x, x).real)
    # a complex sum that overflows may come out nan
    if not 0.0 < v < math.inf:
        big = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < big < math.inf:
            y = x / big
            v = big * math.sqrt(np.vdot(y, y).real)
    return v


def pivot_bound(n: int) -> float:
    """The b of solve's test, which refuses a when 1 / |a^-1|_F < b |a|_F."""
    return math.sqrt(0.5 * n * (n + 1)) * _PIVOT_TOL


def solve(a, b) -> np.ndarray:
    """Solve a X = b by LAPACK ``gesv``, LU with partial pivoting.

    a is one matrix (n, n) or a stack (..., n, n), and b holds the
    right-hand sides of each system as columns, of shape (..., n, k)
    with the leading axes of a; DimensionMismatch refuses any other b.
    Each system is solved by its own gesv call, bit for bit as alone,
    and each check runs once over the stack, an error naming the first
    matrix that fails it.  Refuses non-finite input and near-singular
    systems and verifies the residual of the computed solution.  The
    singularity test is at least as strict as refusing an elimination
    pivot below _PIVOT_TOL * |a|: with the unit lower factor's |l_ij| <=
    1, sigma_min(a) <= sqrt(n (n + 1) / 2) * min |u_kk|, and the same
    gesv call yields a^-1, whose Frobenius norm bounds sigma_min from
    below by 1 / |a^-1|.
    """
    aa = _as_square(a, "coefficient matrix")
    bb = np.asarray(b)
    if bb.shape[:-1] != aa.shape[:-1]:
        raise DimensionMismatch(f"rhs shape {bb.shape} does not match {aa.shape}")
    n, k = aa.shape[-1], bb.shape[-1]
    scale, rhs_norm = norms(aa), norms(bb)
    if not math.isfinite(sum(scale) + sum(rhs_norm)):  # an inf or nan entry makes a norm so
        _require_finite(aa, "coefficient matrix")
        _require_finite(bb, "rhs")
    if 0.0 in scale:
        raise SingularMatrix(f"zero coefficient matrix{_where(aa, scale.index(0.0))}")

    try:
        sol = np.linalg.solve(aa, np.concatenate([bb, _eye(aa.shape)], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"gesv: {exc}") from exc
    x = sol[..., :k]
    bound = pivot_bound(n)
    for j, (s, inv) in enumerate(zip(scale, norms(sol[..., k:]))):
        if not (1.0 / inv >= bound * s):
            raise SingularMatrix(
                f"smallest singular value may be below {bound:.1e} * norm "
                f"(1/|a^-1| = {1.0 / inv:.3e}){_where(aa, j)}")

    for j, (resid, r) in enumerate(zip(norms(aa @ x - bb), rhs_norm)):
        if r > 0.0 and not (resid <= RESIDUAL_TOL * r):
            raise SingularMatrix(
                f"solution residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e} * |b|{_where(aa, j)}")
    # a copy, so that a kept solution does not hold all of [x | a^-1]
    return x.copy()


def eig_selfadjoint(m, vectors: bool = False):
    """All eigenvalues of a self-adjoint matrix, by LAPACK ``eigvalsh``,
    sorted descending in one contiguous read-only array (float64, or
    float32 for float32 input, as LAPACK gives them); for a stack
    (..., n, n), shape (..., n), each spectrum bit for bit that of its
    matrix alone.  vectors=True gives (values, vectors) by ``eigh``, the
    eigenvectors as the columns of a read-only (..., n, n) array.

    The input must equal its conjugate transpose exactly, and goes to
    LAPACK as it is.  Raises NonFiniteInput for inf or nan entries,
    NotSelfAdjoint, with the defect |m - m^H|_F, for any other input,
    and NonConvergence if LAPACK reports failure; on a stack each check
    runs once and names the first matrix failing it.
    """
    a = _as_square(m)
    # an inf or nan entry makes the sum of squares inf or nan; so may a finite overflow
    if not math.isfinite(np.vdot(a, a).real):
        _require_finite(a, "matrix")
    exact = a == (a.conj() if a.dtype.kind == "c" else a).swapaxes(-1, -2)
    if not exact.all():
        j = _first_failing(exact)
        mat = a.reshape((-1,) + a.shape[-2:])[j]
        raise NotSelfAdjoint(f"defect {_norm(mat - mat.conj().T):.3e} vs norm "
                             f"{_norm(mat):.3e}{_where(a, j)}")
    name = "eigh" if vectors else "eigvalsh"
    try:
        found = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a),)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"{name} failed: {exc}") from exc
    out = tuple(f[..., ::-1].copy() for f in found)
    for f in out:
        f.flags.writeable = False
    return out if vectors else out[0]
