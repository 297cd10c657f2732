"""Jones calculus for polarization qubits.

Basis convention: |H> = (1, 0), |V> = (0, 1).  The circular states use
R = (1, -i)/sqrt(2) and L = (1, +i)/sqrt(2); data files using the single
character labels H, V, D, A, R, L must follow the same convention.
Global phases are dropped everywhere, so comparisons that care about phase
should compare projectors rather than vectors.
"""

from __future__ import annotations

import numpy as np

_SQ = 1.0 / np.sqrt(2.0)
_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ, _SQ], dtype=complex),
    "A": np.array([_SQ, -_SQ], dtype=complex),
    "R": np.array([_SQ, -1j * _SQ], dtype=complex),
    "L": np.array([_SQ, 1j * _SQ], dtype=complex),
}


def basis_state(label: str) -> np.ndarray:
    """Unit Jones vector for one of the six standard polarizations."""
    try:
        return _STATES[label].copy()
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None


def hwp(theta: float) -> np.ndarray:
    """Half-wave plate with fast axis at theta radians (global phase dropped).

    Equals [[cos 2t, sin 2t], [sin 2t, -cos 2t]]: Hermitian, unitary, and an
    involution.  At 22.5 degrees it is exactly the Hadamard matrix.
    """
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def projector(state: np.ndarray) -> np.ndarray:
    """Rank-1 projector |s><s| onto a normalized Jones vector."""
    s = np.asarray(state, dtype=complex)
    return np.outer(s, s.conj())
