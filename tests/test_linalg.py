"""Unit tests for the dense linear algebra kernels.

Random-matrix checks use numpy's eigensolver as an independent
reference; the library itself never calls it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msindex import linalg
from msindex.errors import DimensionMismatch, NotSelfAdjoint, SingularMatrix


def test_frobenius():
    assert linalg.frobenius([[3.0, 0.0], [0.0, 4.0]]) == 5.0


def test_solve_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = linalg.solve(a, np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-13)


def test_solve_complex_matrix_rhs():
    a = np.array([[2.0, 1j], [-1j, 3.0]])
    b = np.eye(2, dtype=complex)
    x = linalg.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-13)


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


def test_eig_diagonal():
    r = linalg.eig_selfadjoint(np.diag([5.0, -2.0, 0.0]))
    assert r.eigenvalues == (5.0, 0.0, -2.0)
    assert linalg.count_signs(r.eigenvalues, 1e-12) == (1, 1, 1)


def test_eig_symmetric_known_spectrum():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 7.0]])
    r = linalg.eig_selfadjoint(m)
    assert np.allclose(r.eigenvalues, (7.0, 3.0, 1.0), atol=1e-13)


def test_eig_hermitian_known_spectrum():
    m = np.array([[3.0, 1j, 0.0], [-1j, 3.0, 0.0], [0.0, 0.0, 1.0]])
    r = linalg.eig_selfadjoint(m)
    assert np.allclose(r.eigenvalues, (4.0, 2.0, 1.0), atol=1e-12)


def test_eig_rejects_non_selfadjoint():
    with pytest.raises(NotSelfAdjoint):
        linalg.eig_selfadjoint(np.array([[0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0],
                                         [1.0, 0.0, 0.0]]))


def test_eig_rejects_unsupported_size():
    with pytest.raises(DimensionMismatch):
        linalg.eig_selfadjoint(np.eye(4))


def _random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m + m.T


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_matches_numpy_on_random_symmetric(seed):
    m = _random_symmetric(seed, 9)
    r = linalg.eig_selfadjoint(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    scale = max(1.0, linalg.frobenius(m))
    assert np.max(np.abs(np.array(r.eigenvalues) - ref)) <= 1e-11 * scale


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_random_hermitian_18(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    m = z + z.conj().T
    r = linalg.eig_selfadjoint(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    scale = max(1.0, linalg.frobenius(m))
    assert np.max(np.abs(np.array(r.eigenvalues) - ref)) <= 1e-11 * scale
    assert sum(linalg.count_signs(r.eigenvalues, 1e-12)) == 18


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_eig_sum_matches_trace(seed):
    m = _random_symmetric(seed, 6)
    r = linalg.eig_selfadjoint(m)
    assert abs(sum(r.eigenvalues) - np.trace(m)) <= 1e-10 * max(1.0, linalg.frobenius(m))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_solve_matches_numpy_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
    x = linalg.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10 * max(1.0, float(np.linalg.norm(b))))
