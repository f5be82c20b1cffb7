"""Unit tests for the dense linear algebra kernels.

The eigensolver wraps numpy's eigvalsh, so the random-matrix checks
against eigvalsh pin the wrapping (input exactly equal to its conjugate
transpose, dtype, descending order); the independent references are
analytic spectra, the trace, and the mpmath spectra of the pipeline's
key matrices in test_moduli.  solve takes right-hand sides as the
columns of a (..., n, k) array, and every tolerance is relative to
norms, the Frobenius norm, whose references here are np.linalg.norm
and, outside the range of squares, a known scale factor.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sign_counts import count_signs

from msindex import linalg, moduli
from msindex.errors import (
    DimensionMismatch,
    NonConvergence,
    NonFiniteInput,
    NotSelfAdjoint,
    SingularMatrix,
)


def test_frobenius():
    # the Frobenius norm, as norms gives it
    assert linalg.norms([[3.0, 0.0], [0.0, 4.0]]) == [5.0]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_frobenius_outside_the_range_of_squares(scale):
    # the plain sum of squares overflows or underflows; the norm is rescaled
    m = scale * np.array([[3.0, 0.0], [0.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (m, (0.6 + 0.8j) * m):
            assert linalg.norms(x)[0] == pytest.approx(5.0 * scale, rel=1e-15)
    assert linalg.norms(np.zeros((2, 2))) == [0.0]
    assert linalg.norms([[np.inf, 0.0], [0.0, 1.0]]) == [np.inf]


def test_eig_rejects_huge_antisymmetric_block():
    # the defect and the norm overflow alike without rescaling
    m = np.array([[0.0, 1e200, 0.0], [-1e200, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotSelfAdjoint):
        linalg.eig_selfadjoint(m)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_solve_scaled_identity(scale):
    b = np.array([[1.0], [-2.0], [3.0]])
    x = linalg.solve(scale * np.eye(3), b)
    np.testing.assert_allclose(x, b / scale, rtol=1e-15)


def test_solve_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = linalg.solve(a, np.array([[5.0], [10.0]]))
    assert np.allclose(x, [[1.0], [3.0]], atol=1e-13)


def test_solve_complex_matrix_rhs():
    a = np.array([[2.0, 1j], [-1j, 3.0]])
    b = np.eye(2, dtype=complex)
    x = linalg.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-13)


def test_solve_returns_arrays_that_own_their_data():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    for b in (np.array([[1.0], [2.0], [3.0]]), np.eye(3)[:, :2]):
        x = linalg.solve(a, b)
        assert x.shape == b.shape
        assert x.base is None and x.flags.owndata
        np.testing.assert_allclose(a @ x, b, atol=1e-14)


def test_solve_requires_pivoting():
    # zero leading pivot, solvable only after a row swap
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = linalg.solve(a, np.array([[2.0], [7.0]]))
    assert np.allclose(x, [[7.0], [2.0]], atol=1e-14)


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve(a, np.ones((2, 1)))
    with pytest.raises(SingularMatrix):
        linalg.solve(np.zeros((2, 2)), np.ones((2, 1)))


def test_solve_shape_checks():
    with pytest.raises(DimensionMismatch):
        linalg.solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        linalg.solve(np.eye(2), np.ones((3, 1)))
    # right-hand sides are the columns of a 2-D b, never a vector
    with pytest.raises(DimensionMismatch, match=r"rhs shape \(2,\) does not match \(2, 2\)"):
        linalg.solve(np.eye(2), np.ones(2))


def test_count_signs():
    # the reference count and the bisection of the descending list
    vals = (4.0, 1e-12, -1e-12, -3.0)
    assert count_signs(vals, 1e-9) == moduli._signs(list(vals), 1e-9) == (1, 1, 2)
    assert count_signs(vals, 0.0) == moduli._signs(list(vals), 0.0) == (2, 2, 0)


def _summed_signs(vals, zero_tol):
    """Sign counts as np.sum forms them, a second reference for both counts."""
    vals = np.asarray(vals, dtype=float)
    pos = int(np.sum(vals > zero_tol))
    neg = int(np.sum(vals < -zero_tol))
    return pos, neg, len(vals) - pos - neg


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.sampled_from([3, 9, 18]))
def test_count_signs_matches_the_summed_counts(seed, n):
    # values drawn so that ties at +-zero_tol and exact zeros occur
    rng = np.random.default_rng(seed)
    tol = 1e-7
    vals = rng.choice([-3.0, -tol, -0.5 * tol, -0.0, 0.0, 0.5 * tol, tol, 2.0], size=n)
    for zero_tol in (tol, 0.0):
        got = count_signs(vals, zero_tol)
        assert got == _summed_signs(vals, zero_tol)
        assert all(type(c) is int for c in got)
        desc = sorted(vals.tolist(), reverse=True)
        bisected = moduli._signs(desc, zero_tol)
        assert bisected == got and all(type(c) is int for c in bisected)


def test_eig_diagonal():
    vals = linalg.eig_selfadjoint(np.diag([5.0, -2.0, 0.0]))
    assert np.array_equal(vals, [5.0, 0.0, -2.0])
    assert count_signs(vals, 1e-12) == (1, 1, 1)


def test_eig_symmetric_known_spectrum():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 7.0]])
    vals = linalg.eig_selfadjoint(m)
    assert np.allclose(vals, (7.0, 3.0, 1.0), atol=1e-13)


def test_eig_hermitian_known_spectrum():
    m = np.array([[3.0, 1j, 0.0], [-1j, 3.0, 0.0], [0.0, 0.0, 1.0]])
    vals = linalg.eig_selfadjoint(m)
    assert np.allclose(vals, (4.0, 2.0, 1.0), atol=1e-12)


def test_eig_rejects_non_selfadjoint():
    with pytest.raises(NotSelfAdjoint):
        linalg.eig_selfadjoint(np.array([[0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0],
                                         [1.0, 0.0, 0.0]]))


def test_eig_rejects_unsupported_size():
    # any square size is supported; only non-square input is refused
    m = _random_hermitian(5, 5)
    assert np.array_equal(linalg.eig_selfadjoint(m), np.linalg.eigvalsh(m)[::-1])
    with pytest.raises(DimensionMismatch):
        linalg.eig_selfadjoint(np.ones((3, 4)))
    with pytest.raises(DimensionMismatch):
        linalg.eig_selfadjoint(np.ones(9))


def _random_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.conj().T


def _capture_eigvalsh(monkeypatch):
    """Record what eig_selfadjoint hands to numpy's eigvalsh."""
    seen = []
    exact = np.linalg.eigvalsh

    def recording(a):
        seen.append(a)
        return exact(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


@pytest.mark.parametrize("n", [3, 9, 18])
def test_eig_exactly_hermitian_input_goes_straight_to_eigvalsh(n, monkeypatch):
    # a complex matrix with a zero imaginary part too, as it is
    for m in (_random_hermitian(n, n), _random_symmetric(n, n),
              _random_symmetric(n, n).astype(complex)):
        assert np.array_equal(m, m.conj().T)
        want = np.linalg.eigvalsh(m)[::-1]
        seen = _capture_eigvalsh(monkeypatch)
        assert np.array_equal(linalg.eig_selfadjoint(m), want)
        assert len(seen) == 1 and seen[0] is m
        monkeypatch.undo()


@pytest.mark.parametrize("n", [3, 9, 18])
def test_eig_refuses_a_small_defect_naming_the_matrix(n):
    # input must equal its conjugate transpose exactly: a relative defect
    # of 1e-12 in one matrix of a stack is refused at any scale, without
    # a floating-point warning, naming that matrix and the defect
    rng = np.random.default_rng(100 + n)
    d = rng.standard_normal((n, n))
    for h in (_random_hermitian(n, n), _random_symmetric(n, n)):
        for scale in (1.0, 1e200, 1e-200):
            mats = np.stack([scale * h] * 4)
            mats[2] += 1e-12 * scale * (d - d.T)
            assert np.array_equal(mats[1], mats[1].conj().T)
            want = 2e-12 * scale * np.linalg.norm(d - d.T)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotSelfAdjoint, match="matrix 2 of the stack") as err:
                    linalg.eig_selfadjoint(mats)
                with pytest.raises(NotSelfAdjoint, match=r"^defect \S+ vs norm \S+$"):
                    linalg.eig_selfadjoint(mats[2], vectors=True)
            defect = float(str(err.value).split()[1])
            assert defect == pytest.approx(want, rel=1e-3)


def test_eig_rejects_complex_symmetric_input():
    # equal to its transpose but not to its conjugate transpose
    m = _random_symmetric(1, 3) + 1j * _random_symmetric(2, 3)
    with pytest.raises(NotSelfAdjoint):
        linalg.eig_selfadjoint(m)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_no_floating_point_warning_at_extreme_scales(scale):
    m = scale * np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.norms(m)[0] > 0.0
        assert linalg.norms((1.0 + 1.0j) * m)[0] > 0.0
        linalg.eig_selfadjoint(m)
        linalg.eig_selfadjoint(m + 1j * scale * skew)
        linalg.solve(m, np.array([[1.0], [-2.0], [3.0]]))
        for defect in (1e-12, 1.0):
            with pytest.raises(NotSelfAdjoint):
                linalg.eig_selfadjoint(m + defect * scale * skew)


def _random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m + m.T


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_matches_numpy_on_random_symmetric(seed):
    m = _random_symmetric(seed, 9)
    vals = linalg.eig_selfadjoint(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    scale = max(1.0, np.linalg.norm(m))
    assert np.max(np.abs(vals - ref)) <= 1e-11 * scale


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_random_hermitian_18(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    m = z + z.conj().T
    vals = linalg.eig_selfadjoint(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    scale = max(1.0, np.linalg.norm(m))
    assert np.max(np.abs(vals - ref)) <= 1e-11 * scale
    assert sum(count_signs(vals, 1e-12)) == 18


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_sum_matches_trace(seed):
    m = _random_symmetric(seed, 6)
    vals = linalg.eig_selfadjoint(m)
    assert abs(sum(vals) - np.trace(m)) <= 1e-10 * max(1.0, np.linalg.norm(m))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_solve_matches_numpy_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 1))
    x = linalg.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10 * max(1.0, float(np.linalg.norm(b))))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_random_hermitian_9_matches_numpy_tightly(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = z + z.conj().T
    vals = linalg.eig_selfadjoint(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.max(np.abs(vals - ref)) <= 1e-13 * np.linalg.norm(m)


def test_eig_graded_spectrum_with_eight_dimensional_kernel():
    # the shape of Wdiff: ten nonzero eigenvalues over eight decades
    # and an exact eight-dimensional kernel
    rng = np.random.default_rng(18)
    q, _ = np.linalg.qr(rng.standard_normal((18, 18)))
    nonzero = np.geomspace(1e-6, 1e2, 10) * np.array([1.0, -1.0] * 5)
    m = q @ np.diag(np.concatenate([nonzero, np.zeros(8)])) @ q.T
    m = 0.5 * (m + m.T)
    scale = np.linalg.norm(m)
    got = linalg.eig_selfadjoint(m)
    small = np.argsort(np.abs(got))
    assert np.max(np.abs(got[small[:8]])) <= 1e-14 * scale
    ref = np.linalg.eigvalsh(m)
    ref_nonzero = np.sort(ref[np.argsort(np.abs(ref))[8:]])[::-1]
    got_nonzero = np.sort(got[small[8:]])[::-1]
    assert np.max(np.abs(got_nonzero - ref_nonzero)) <= 1e-13 * scale
    assert np.allclose(got_nonzero, np.sort(nonzero)[::-1], rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("n", [3, 9, 18])
def test_eig_returns_a_read_only_descending_float64_array(n):
    m = _random_symmetric(n, n).astype(complex)
    m[0, 1] += 0.5j
    m[1, 0] -= 0.5j
    vals = linalg.eig_selfadjoint(m)
    assert vals.dtype == np.float64 and vals.shape == (n,)
    assert vals.flags.c_contiguous and not vals.flags.writeable
    assert vals.base is None
    assert np.all(np.diff(vals) <= 0.0)
    with pytest.raises(ValueError):
        vals[0] = 0.0


def _with_entry(base, value, *where):
    m = np.array(base, dtype=float)
    for i, j in where:
        m[i, j] = value
    return m


@pytest.mark.parametrize("m", [
    _with_entry(np.eye(9), np.inf, (0, 1), (1, 0)),
    _with_entry(np.eye(9), np.nan, (0, 0)),
    _with_entry(np.eye(18), -np.inf, (4, 4)),
    _with_entry(np.eye(3), np.nan, (0, 2), (2, 0)),
], ids=["inf_pair", "nan_diagonal", "inf_diagonal", "nan_pair"])
def test_eig_rejects_non_finite_input(m):
    with pytest.raises(NonFiniteInput):
        linalg.eig_selfadjoint(m)
    with pytest.raises(NonFiniteInput):
        linalg.eig_selfadjoint(m.astype(complex))


def test_solve_rejects_non_finite_input():
    with pytest.raises(NonFiniteInput):
        linalg.solve(_with_entry(np.eye(3), np.nan, (1, 2)), np.ones((3, 1)))
    with pytest.raises(NonFiniteInput):
        linalg.solve(np.eye(3), np.array([[1.0], [np.inf], [1.0]]))
    with pytest.raises(NonFiniteInput):
        linalg.solve(np.eye(3), _with_entry(np.eye(3), np.nan, (2, 0)))


def test_eig_reports_lapack_failure_as_non_convergence(monkeypatch):
    def failing(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NonConvergence, match="did not converge"):
        linalg.eig_selfadjoint(np.eye(9))


def _partial_pivot_min_ratio(a):
    """Smallest pivot of Gaussian elimination with partial pivoting,
    relative to the Frobenius norm: the quantity solve's singularity
    test bounds, computed independently of it."""
    u = np.array(a, dtype=float)
    n = u.shape[0]
    smallest = np.inf
    for col in range(n):
        row = col + int(np.argmax(np.abs(u[col:, col])))
        u[[col, row]] = u[[row, col]]
        pivot = u[col, col]
        smallest = min(smallest, abs(pivot))
        if pivot != 0.0:
            u[col + 1:, col:] -= np.outer(u[col + 1:, col] / pivot, u[col, col:])
    return smallest / np.linalg.norm(a)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.sampled_from([3, 6]),
       k=st.integers(0, 5), shrink=st.floats(1e-3, 0.99))
def test_solve_rejects_every_small_elimination_pivot(seed, n, k, shrink):
    # A = L U with |l_ij| < 1 and a tiny k-th pivot of U; whenever
    # elimination with partial pivoting meets a pivot below 1e-14 * norm
    # (up to rounding, that one), solve must refuse
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.uniform(-0.9, 0.9, (n, n)), -1) + np.eye(n)
    upper = np.triu(rng.standard_normal((n, n)))
    k %= n
    upper[k, k] = 0.0
    upper[k, k] = shrink * 1e-14 * np.linalg.norm(lower @ upper)
    a = lower @ upper
    assume(_partial_pivot_min_ratio(a) < 1e-14)
    with pytest.raises(SingularMatrix):
        linalg.solve(a, np.ones((n, 1)))


def test_solve_reports_lapack_singularity_as_singular_matrix(monkeypatch):
    # an exactly zero pivot: gesv itself refuses the system
    with pytest.raises(SingularMatrix, match="gesv"):
        linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 1)))

    def failing(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing)
    with pytest.raises(SingularMatrix, match="Singular matrix"):
        linalg.solve(np.eye(3), np.ones((3, 1)))


def test_solve_checks_the_residual_of_what_lapack_returns(monkeypatch):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([[1.0], [-2.0], [0.5]])
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: exact(m, rhs) * (1.0 + 1e-6))
    with pytest.raises(SingularMatrix, match="residual"):
        linalg.solve(a, b)
    # a perturbation within the residual tolerance passes
    monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: exact(m, rhs) * (1.0 + 1e-13))
    np.testing.assert_allclose(linalg.solve(a, b), exact(a, b), rtol=1e-12)


# stacks: one call over (N, n, n), each result bit for bit the one alone,
# each check once over the stack, and an error naming the matrix


def test_stacked_solve_equals_each_system_alone():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    x = linalg.solve(a, b)
    inverses = linalg.solve(a.real, np.broadcast_to(np.eye(3), a.shape))
    assert x.shape == (5, 3, 3) and x.base is None
    for j in range(5):
        assert linalg.solve(a[j], b[j]).tobytes() == x[j].tobytes()
        assert linalg.solve(a[j].real, np.eye(3)).tobytes() == inverses[j].tobytes()


def test_stacked_solve_names_the_failing_system():
    a = np.stack([np.eye(3), np.array([[1.0, 2.0, 0.0], [2.0, 4.0 + 1e-13, 0.0],
                                       [0.0, 0.0, 1.0]]), np.eye(3)])
    with pytest.raises(SingularMatrix, match="matrix 1 of the stack"):
        linalg.solve(a, np.ones((3, 3, 1)))
    bad = np.stack([np.eye(3)] * 3)
    bad[2, 0, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="matrix 2 of the stack"):
        linalg.solve(bad, np.ones((3, 3, 1)))
    with pytest.raises(SingularMatrix, match="zero coefficient matrix \\(matrix 1 of"):
        linalg.solve(np.stack([np.eye(2), np.zeros((2, 2))]), np.ones((2, 2, 1)))
    # each system of a stack takes its own right-hand sides: one b for
    # all of them, or a vector, is refused
    for b in (np.ones((2, 3, 1)), np.eye(3), np.ones(3)):
        with pytest.raises(DimensionMismatch):
            linalg.solve(np.stack([np.eye(3)] * 3), b)


def test_stacked_eig_equals_each_matrix_alone():
    # a stack of Hermitian and one of real symmetric matrices: each matrix
    # goes to eigvalsh as it would alone
    for mats in (np.stack([_random_hermitian(j, 9) for j in (1, 2, 3)]),
                 np.stack([_random_symmetric(j, 9) for j in (1, 2, 3)])):
        vals = linalg.eig_selfadjoint(mats)
        assert vals.shape == (3, 9) and not vals.flags.writeable
        for j in range(3):
            assert vals[j].tobytes() == linalg.eig_selfadjoint(mats[j]).tobytes()


def test_stacked_eig_names_the_failing_matrix():
    mats = np.stack([_random_symmetric(n, 3) for n in range(4)])
    mats[2, 0, 1] += 1.0
    with pytest.raises(NotSelfAdjoint, match="matrix 2 of the stack"):
        linalg.eig_selfadjoint(mats)
    mats[2, 0, 1] = np.inf
    with pytest.raises(NonFiniteInput, match="matrix 2 of the stack"):
        linalg.eig_selfadjoint(mats)
    with pytest.raises(NonFiniteInput, match="matrix \\(1, 0\\) of the stack"):
        linalg.eig_selfadjoint(mats.reshape(2, 2, 3, 3))


def test_frobenius_of_a_stack():
    m = np.stack([np.array([[3.0, 0.0], [0.0, 4.0]]), 1e200 * np.eye(2), np.zeros((2, 2)),
                  1e-200 * np.eye(2)]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = linalg.norms(m)
    assert len(norms) == 4
    assert norms[0] == 5.0 and norms[2] == 0.0
    assert norms[1] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert norms[3] == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-15)


@pytest.mark.parametrize("n", [3, 9, 18])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_check_norms_of_a_stack_equal_each_matrix_alone(n, kind):
    # the norms that decide solve's, eig_selfadjoint's and period_frame's
    # checks: each matrix of a stack, whatever its layout or scale, gets
    # the bits it gets alone, within rounding of np.linalg.norm of the
    # matrix brought back from its scale
    rng = np.random.default_rng(50 + n)
    m = rng.standard_normal((5, n, n))
    if kind == "complex":
        m = m + 1j * rng.standard_normal((5, n, n))
    scales = [1.0, 1e-3, 1e200, 1e-200, 7.0]
    m = m * np.array(scales)[:, None, None]
    for stack in (m, m.swapaxes(-1, -2), m[:, ::2, 1:], m[:, ::-1], m.reshape(5, 1, n, n)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = linalg.norms(stack)
        assert len(norms) == 5 and all(type(v) is float for v in norms)
        for j, (s, mat) in enumerate(zip(scales, stack.reshape((-1,) + stack.shape[-2:]))):
            assert norms[j] == linalg.norms(mat)[0]
            want = s * np.linalg.norm(mat / s)
            assert abs(norms[j] - want) <= 4e-16 * n * want
    assert linalg.norms(np.zeros((2, 3, 3))) == [0.0, 0.0]
    assert all(math.isnan(v) for v in linalg.norms(np.full((2, 2, 2), np.nan)))


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("count", [1, 2, 5, 24])
def test_stacked_eigh_equals_each_matrix_alone(n, count):
    # vectors=True: values and eigenvectors of each matrix of a stack
    # bit for bit those of the matrix alone, descending, read-only
    real = np.stack([_random_symmetric(100 * n + j, n) for j in range(count)])
    herm = np.stack([_random_hermitian(200 * n + j, n) for j in range(count)])
    for mats in (real, herm):
        vals, vecs = linalg.eig_selfadjoint(mats, vectors=True)
        assert vals.shape == (count, n) and vecs.shape == (count, n, n)
        assert vecs.dtype == mats.dtype
        for arr in (vals, vecs):
            assert arr.flags.c_contiguous and not arr.flags.writeable and arr.base is None
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for j in range(count):
            alone_vals, alone_vecs = linalg.eig_selfadjoint(mats[j], vectors=True)
            assert vals[j].tobytes() == alone_vals.tobytes()
            assert vecs[j].tobytes() == alone_vecs.tobytes()
            assert np.all(np.diff(alone_vals) <= 0.0)
            # the columns are the eigenvectors, in the order of the values
            assert np.allclose(mats[j] @ alone_vecs, alone_vecs * alone_vals, atol=1e-12 * n)
        # the values are those of eigh, reversed, and within rounding of eigvalsh
        want_vals, want_vecs = np.linalg.eigh(mats)
        assert np.array_equal(vals, want_vals[..., ::-1])
        assert np.array_equal(vecs, want_vecs[..., ::-1])
        assert np.allclose(vals, linalg.eig_selfadjoint(mats), rtol=0.0, atol=1e-13)


def test_eigh_takes_the_checks_of_eigvalsh(monkeypatch):
    # refused input as for the values alone
    m = _random_symmetric(7, 3)
    for defect in (1e-12, 1.0):
        with pytest.raises(NotSelfAdjoint):
            linalg.eig_selfadjoint(m + defect * np.triu(np.ones((3, 3)), 1), vectors=True)
    with pytest.raises(NonFiniteInput):
        linalg.eig_selfadjoint(_with_entry(m, np.nan, (0, 2), (2, 0)), vectors=True)

    def failing(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NonConvergence, match="eigh failed: Eigenvalues did not converge"):
        linalg.eig_selfadjoint(m, vectors=True)
