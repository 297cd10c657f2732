"""Dense complex linear algebra behind the tomography module.

All matrices handled here are small (2x2 or 4x4) with infinity norm of
order one (unit-trace density matrices, unitary optical elements), so every
tolerance below is absolute.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-10


def _as_matrices(m) -> np.ndarray:
    """Coerce to a complex ndarray of shape (..., rows, cols) and check finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _check_hermitian(m: np.ndarray) -> None:
    dev = np.max(np.abs(m - dagger(m)))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"max |m - m^dag| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    Returns (eigenvalues descending, eigenvector matrix V) with
    m = V diag(w) V^dag and V unitary, both with the leading stack axes of m.
    Rejects non-Hermitian input rather than symmetrizing it, so upstream
    construction errors stay visible.
    """
    a = _as_matrices(m)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    _check_hermitian(a)
    w, v = np.linalg.eigh(a)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def partial_trace(rho) -> np.ndarray:
    """The first qubit's state of a 4x4 two-qubit operator, or of each of a stack: the second traced out.

    Basis order is (00, 01, 10, 11).
    """
    a = _as_matrices(rho)
    if a.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4, got {a.shape}")
    return np.trace(a.reshape(a.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix (or of each of a stack).

    Eigenvalues within EIGENVALUE_CLAMP of zero are clamped to zero; anything
    more negative raises, since all callers construct PSD matrices and larger
    negativity indicates a bug upstream.
    """
    w, v = hermitian_eigen(m)
    if np.min(w) < -EIGENVALUE_CLAMP:
        raise ValueError(f"eigenvalue {np.min(w):.3e} below -{EIGENVALUE_CLAMP:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)
