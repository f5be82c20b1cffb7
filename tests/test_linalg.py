"""Unit tests for the dense linear algebra kernels.

The eigensolver wraps numpy's eigvalsh, so the random-matrix checks
against eigvalsh pin the wrapping (symmetrization, dtype, descending
order); the independent references are analytic spectra, the trace,
and the mpmath spectra of the pipeline's key matrices in test_moduli.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msindex import linalg
from msindex.errors import (
    DimensionMismatch,
    NonConvergence,
    NonFiniteInput,
    NotSelfAdjoint,
    SingularMatrix,
)


def test_frobenius():
    assert linalg.frobenius([[3.0, 0.0], [0.0, 4.0]]) == 5.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_frobenius_outside_the_range_of_squares(scale):
    m = scale * np.array([[3.0, 0.0], [0.0, 4.0]])
    assert linalg.frobenius(m) == pytest.approx(5.0 * scale, rel=1e-15)
    assert linalg.frobenius(np.zeros((2, 2))) == 0.0
    assert linalg.frobenius([[np.inf, 0.0], [0.0, 1.0]]) == np.inf


def test_eig_rejects_huge_antisymmetric_block():
    # the defect and the norm overflow alike without rescaling
    m = np.array([[0.0, 1e200, 0.0], [-1e200, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotSelfAdjoint):
        linalg.eig_selfadjoint(m)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_solve_scaled_identity(scale):
    b = np.array([1.0, -2.0, 3.0])
    x = linalg.solve(scale * np.eye(3), b)
    np.testing.assert_allclose(x, b / scale, rtol=1e-15)


def test_solve_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = linalg.solve(a, np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-13)


def test_solve_complex_matrix_rhs():
    a = np.array([[2.0, 1j], [-1j, 3.0]])
    b = np.eye(2, dtype=complex)
    x = linalg.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-13)


def test_solve_returns_arrays_that_own_their_data():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    for b in (np.array([1.0, 2.0, 3.0]), np.eye(3)[:, :2]):
        x = linalg.solve(a, b)
        assert x.shape == b.shape
        assert x.base is None and x.flags.owndata
        np.testing.assert_allclose(a @ x, b, atol=1e-14)


def test_solve_requires_pivoting():
    # zero leading pivot, solvable only after a row swap
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = linalg.solve(a, np.array([2.0, 7.0]))
    assert np.allclose(x, [7.0, 2.0], atol=1e-14)


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve(a, np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrix):
        linalg.solve(np.zeros((2, 2)), np.array([1.0, 1.0]))


def test_solve_shape_checks():
    with pytest.raises(DimensionMismatch):
        linalg.solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        linalg.solve(np.eye(2), np.ones(3))


def test_count_signs():
    vals = (4.0, 1e-12, -1e-12, -3.0)
    assert linalg.count_signs(vals, 1e-9) == (1, 1, 2)
    assert linalg.count_signs(vals, 0.0) == (2, 2, 0)


def _summed_signs(vals, zero_tol):
    """Sign counts as np.sum forms them, the reference for count_signs."""
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
        got = linalg.count_signs(vals, zero_tol)
        assert got == _summed_signs(vals, zero_tol)
        assert all(type(c) is int for c in got)


def test_eig_diagonal():
    vals = linalg.eig_selfadjoint(np.diag([5.0, -2.0, 0.0]))
    assert np.array_equal(vals, [5.0, 0.0, -2.0])
    assert linalg.count_signs(vals, 1e-12) == (1, 1, 1)


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
    with pytest.raises(DimensionMismatch):
        linalg.eig_selfadjoint(np.eye(4))
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
    for m in (_random_hermitian(n, n), _random_symmetric(n, n)):
        assert np.array_equal(m, m.conj().T)
        want = np.linalg.eigvalsh(m)[::-1]
        seen = _capture_eigvalsh(monkeypatch)
        assert np.array_equal(linalg.eig_selfadjoint(m), want)
        assert len(seen) == 1 and seen[0] is m
        monkeypatch.undo()


@pytest.mark.parametrize("n", [3, 9, 18])
def test_eig_symmetrizes_input_with_a_small_defect(n):
    rng = np.random.default_rng(100 + n)
    d = rng.standard_normal((n, n))
    for h in (_random_hermitian(n, n), _random_symmetric(n, n)):
        m = h + 1e-12 * (d - d.T)
        assert not np.array_equal(m, m.conj().T)
        want = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[::-1]
        assert np.array_equal(linalg.eig_selfadjoint(m), want)


def test_eig_rejects_complex_symmetric_input():
    # equal to its transpose but not to its conjugate transpose
    m = _random_symmetric(1, 3) + 1j * _random_symmetric(2, 3)
    with pytest.raises(NotSelfAdjoint):
        linalg.eig_selfadjoint(m)


@pytest.mark.parametrize("defect", [0.0, 1e-12], ids=["exact", "symmetrized"])
def test_eig_complex_input_with_zero_imaginary_part_takes_the_real_path(defect, monkeypatch):
    m = _random_symmetric(5, 9)
    m[0, 1] += defect
    seen = _capture_eigvalsh(monkeypatch)
    vals = linalg.eig_selfadjoint(m.astype(complex))
    assert len(seen) == 1 and seen[0].dtype == np.float64
    assert np.array_equal(vals, np.linalg.eigvalsh(0.5 * (m + m.T))[::-1])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_no_floating_point_warning_at_extreme_scales(scale):
    m = scale * np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.frobenius(m) > 0.0
        assert linalg.frobenius((1.0 + 1.0j) * m) > 0.0
        linalg.eig_selfadjoint(m)
        linalg.eig_selfadjoint(m + 1e-12 * scale * skew)
        linalg.eig_selfadjoint(m + 1j * scale * skew)
        linalg.solve(m, np.array([1.0, -2.0, 3.0]))
        with pytest.raises(NotSelfAdjoint):
            linalg.eig_selfadjoint(scale * (skew + np.eye(3)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.sampled_from([3, 6, 9, 18]),
       is_complex=st.booleans())
def test_frobenius_has_the_bits_of_numpy_norm(seed, n, is_complex):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, 2 * n)) * 10.0 ** rng.uniform(-8, 8, (n, 2 * n))
    if is_complex:
        m = m + 1j * rng.standard_normal((n, 2 * n))
    for view in (m, m[:, :n], m[:, ::2], m.T):
        assert linalg.frobenius(view) == float(np.linalg.norm(view))


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
    scale = max(1.0, linalg.frobenius(m))
    assert np.max(np.abs(vals - ref)) <= 1e-11 * scale


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_random_hermitian_18(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    m = z + z.conj().T
    vals = linalg.eig_selfadjoint(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    scale = max(1.0, linalg.frobenius(m))
    assert np.max(np.abs(vals - ref)) <= 1e-11 * scale
    assert sum(linalg.count_signs(vals, 1e-12)) == 18


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_sum_matches_trace(seed):
    m = _random_symmetric(seed, 6)
    vals = linalg.eig_selfadjoint(m)
    assert abs(sum(vals) - np.trace(m)) <= 1e-10 * max(1.0, linalg.frobenius(m))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_solve_matches_numpy_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
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
    assert np.max(np.abs(vals - ref)) <= 1e-13 * linalg.frobenius(m)


def test_eig_graded_spectrum_with_eight_dimensional_kernel():
    # the shape of Wdiff: ten nonzero eigenvalues over eight decades
    # and an exact eight-dimensional kernel
    rng = np.random.default_rng(18)
    q, _ = np.linalg.qr(rng.standard_normal((18, 18)))
    nonzero = np.geomspace(1e-6, 1e2, 10) * np.array([1.0, -1.0] * 5)
    m = q @ np.diag(np.concatenate([nonzero, np.zeros(8)])) @ q.T
    m = 0.5 * (m + m.T)
    scale = linalg.frobenius(m)
    got = linalg.eig_selfadjoint(m)
    small = np.argsort(np.abs(got))
    assert np.max(np.abs(got[small[:8]])) <= 1e-14 * scale
    ref = np.linalg.eigvalsh(m)
    ref_nonzero = np.sort(ref[np.argsort(np.abs(ref))[8:]])[::-1]
    got_nonzero = np.sort(got[small[8:]])[::-1]
    assert np.max(np.abs(got_nonzero - ref_nonzero)) <= 1e-13 * scale
    assert np.allclose(got_nonzero, np.sort(nonzero)[::-1], rtol=0.0, atol=1e-13 * scale)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.sampled_from([3, 9, 18]))
def test_eig_complex_with_zero_imaginary_part_is_bitwise_real(seed, n):
    m = _random_symmetric(seed, n)
    assert np.array_equal(linalg.eig_selfadjoint(m.astype(complex)),
                          linalg.eig_selfadjoint(m))


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
        linalg.solve(_with_entry(np.eye(3), np.nan, (1, 2)), np.ones(3))
    with pytest.raises(NonFiniteInput):
        linalg.solve(np.eye(3), np.array([1.0, np.inf, 1.0]))
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
        linalg.solve(a, np.ones(n))


def test_solve_reports_lapack_singularity_as_singular_matrix(monkeypatch):
    # an exactly zero pivot: gesv itself refuses the system
    with pytest.raises(SingularMatrix, match="gesv"):
        linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def failing(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing)
    with pytest.raises(SingularMatrix, match="Singular matrix"):
        linalg.solve(np.eye(3), np.ones(3))


def test_solve_checks_the_residual_of_what_lapack_returns(monkeypatch):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([1.0, -2.0, 0.5])
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: exact(m, rhs) * (1.0 + 1e-6))
    with pytest.raises(SingularMatrix, match="residual"):
        linalg.solve(a, b)
    # a perturbation within the residual tolerance passes
    monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: exact(m, rhs) * (1.0 + 1e-13))
    np.testing.assert_allclose(linalg.solve(a, b), exact(a, b), rtol=1e-12)
