import numpy as np
import pytest

from lophoton.linalg import hermitian_eigen, partial_trace, psd_sqrt

from conftest import random_density_matrix
from oracles import partial_trace_oracle

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eigen_diagonal():
    w, v = hermitian_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_eigen_sigma_x():
    w, v = hermitian_eigen(SIGMA_X)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(np.vdot(plus, v[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(minus, v[:, 1])) == pytest.approx(1.0, abs=1e-12)


def test_eigen_reconstruction_and_trace(rng):
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = 0.5 * (g + g.conj().T)
        w, v = hermitian_eigen(m)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-9
        assert np.sum(w) == pytest.approx(np.trace(m).real, abs=1e-10)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match=r"^max \|m - m\^dag\| = 1\.000e\+00 exceeds 1\.0e-10$"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacks_match_one_matrix_at_a_time(rng):
    stack = np.array([random_density_matrix(rng, 4) for _ in range(6)])
    w, v = hermitian_eigen(stack)
    for i, rho in enumerate(stack):
        wi, vi = hermitian_eigen(rho)
        assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)
        for keep in ("first", "second"):
            assert np.allclose(partial_trace(stack, keep)[i], partial_trace_oracle(rho, keep), atol=1e-13)
        assert np.allclose(psd_sqrt(stack)[i], psd_sqrt(rho), atol=1e-14)


def test_eigen_rejects_stack_with_one_non_hermitian(rng):
    stack = np.array([random_density_matrix(rng, 4) for _ in range(5)])
    stack[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"^max \|m - m\^dag\| = 1\.000e-06 exceeds 1\.0e-10$"):
        hermitian_eigen(stack)


def test_partial_trace_singlet():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(v, v.conj())
    for keep in ("first", "second"):
        assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product(rng):
    ra = random_density_matrix(rng, 2)
    rb = random_density_matrix(rng, 2)
    rho = np.kron(ra, rb)
    assert np.allclose(partial_trace(rho, "first"), ra, atol=1e-12)
    assert np.allclose(partial_trace(rho, "second"), rb, atol=1e-12)


def test_partial_trace_oracle_and_trace_preserved(rng):
    for _ in range(10):
        rho = random_density_matrix(rng, 4)
        for keep in ("first", "second"):
            red = partial_trace(rho, keep)
            assert np.allclose(red, partial_trace_oracle(rho, keep), atol=1e-13)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bad_dimension():
    with pytest.raises(ValueError, match=r"^expected 4x4, got \(2, 2\)$"):
        partial_trace(np.eye(2), "first")


def test_psd_sqrt_diagonal_and_identity():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)


def test_psd_sqrt_square_oracle(rng):
    for _ in range(10):
        rho = random_density_matrix(rng, 4)
        s = psd_sqrt(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-8


def test_psd_sqrt_clamps_but_rejects_large_negativity():
    near = np.diag([1.0, -5e-11])
    s = psd_sqrt(near)
    assert s[1, 1] == 0.0
    with pytest.raises(ValueError, match=r"^eigenvalue -1\.000e-06 below -1\.0e-10$"):
        psd_sqrt(np.diag([1.0, -1e-6]))
    with pytest.raises(ValueError, match=r"^max \|m - m\^dag\| = 1\.000e\+00 exceeds 1\.0e-10$"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
