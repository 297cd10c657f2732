"""Two-photon linear optics over two spatial paths with polarization encoding.

Mode order is fixed as (control_H, control_V, target_H, target_V).  An
element's 4x4 transfer matrix maps input creation operators to output
creation operators, so column k holds the output amplitudes of a single
photon injected in mode k.  Lossy elements (attenuators whose reflected
port is discarded) carry sub-unitary transfers; post-selection on one
photon per output path removes those events anyway, which keeps the state
space at four modes.

The controlled-phase construction is the standard three-splitter one: a
central splitter that passes H perfectly and splits V with transmission
1/3, followed by one H-attenuating splitter (transmission 1/3 for H) on
each path to rebalance amplitudes.  When both photons are vertical and
indistinguishable, two-photon interference at the central splitter flips
the sign of the coincidence amplitude, yielding the conditional map
diag(1, 1, 1, -1)/3 on (HH, HV, VH, VV) and a 1/9 success probability.

Splitter phase convention: the V modes mix by the rotation
[[t, -r], [r, t]] with t = sqrt(1/3), r = sqrt(2/3), which makes the VV
coincidence amplitude t^2 - r^2 = -1/3 explicit.

A coincidence arises from two photon-to-path assignments: f, the control
photon ends in the control path and the target photon in the target path,
and s, the two are swapped.  With a and b the single-photon outputs of the
control and target photon, f = kron(a[:2], b[2:]) and s = kron(b[:2], a[2:]).
Indistinguishable photons interfere, psi = f + s (the 2x2 permanent), while
distinguishable ones give the mixture f f^dag + s s^dag.  Partial
distinguishability is the convex mixture of the two with weight M on the
interfering one, where M is the squared overlap of the two photon
wavepackets.  A measured two-photon interference visibility is used
directly as M (identity calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jones

#: computational two-qubit basis order used for all tables and matrices
BASIS_ZZ = ("HH", "HV", "VH", "VV")

#: per truth-table basis: its four labels in row and column order, and for
#: each input row the column of the ideal CNOT's correct outcome
TRUTH_TABLE_BASES = {
    "ZZ": (BASIS_ZZ, (0, 1, 3, 2)),
    "XX": (("DD", "DA", "AD", "AA"), (0, 3, 2, 1)),
}

_SV_TOL = 1e-12


@dataclass(frozen=True)
class LinearElement:
    """One linear-optical element with its 4x4 mode-transfer matrix."""

    label: str
    transfer: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transfer, dtype=complex)
        if t.shape != (4, 4):
            raise ValueError("transfer must be 4x4")
        smax = np.linalg.svd(t, compute_uv=False)[0]
        if smax > 1.0 + _SV_TOL:
            raise ValueError(f"transfer amplifies: max singular value {smax}")
        object.__setattr__(self, "transfer", t)


@dataclass(frozen=True)
class TwoPhotonInput:
    """One photon per path plus the wavepacket overlap M in [0, 1]."""

    control: np.ndarray
    target: np.ndarray
    overlap: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.control, dtype=complex)
        t = np.asarray(self.target, dtype=complex)
        for name, v in (("control", c), ("target", t)):
            if v.shape != (2,):
                raise ValueError(f"{name} must be a Jones 2-vector")
            if abs(np.vdot(v, v).real - 1.0) > 1e-10:
                raise ValueError(f"{name} Jones vector not normalized")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")
        object.__setattr__(self, "control", c)
        object.__setattr__(self, "target", t)


@dataclass(frozen=True)
class PostSelectedState:
    """Conditional two-qubit state on coincidence plus its probability."""

    rho: np.ndarray
    success_prob: float

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=complex)
        if r.shape != (4, 4):
            raise ValueError("rho must be 4x4")
        if np.max(np.abs(r - r.conj().T)) > 1e-10:
            raise ValueError("rho not Hermitian")
        if abs(np.trace(r).real - 1.0) > 1e-10:
            raise ValueError("rho trace != 1")
        if np.min(np.linalg.eigvalsh(r)) < -1e-10:
            raise ValueError("rho not positive semidefinite")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError("success_prob outside [0, 1]")
        object.__setattr__(self, "rho", r)


def _path_slice(path: str) -> slice:
    if path == "control":
        return slice(0, 2)
    if path == "target":
        return slice(2, 4)
    raise ValueError(f"path must be 'control' or 'target', got {path!r}")


def ppbs_central() -> LinearElement:
    """Central partially polarizing splitter: T_H = 1, T_V = 1/3, R_V = 2/3."""
    t, r = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    m = np.eye(4, dtype=complex)
    m[1, 1] = t
    m[1, 3] = -r
    m[3, 1] = r
    m[3, 3] = t
    return LinearElement("ppbs_central", m)


def ppbs_attenuator(path: str) -> LinearElement:
    """Rotated splitter on one path: H transmission 1/3, V untouched.

    The reflected port is discarded, so the transfer is sub-unitary.
    """
    sl = _path_slice(path)
    m = np.eye(4, dtype=complex)
    m[sl.start, sl.start] = np.sqrt(1.0 / 3.0)
    return LinearElement(f"ppbs_attenuator:{path}", m)


def waveplate(path: str, theta_deg: float) -> LinearElement:
    """Half-wave plate acting on one path."""
    sl = _path_slice(path)
    m = np.eye(4, dtype=complex)
    m[sl, sl] = jones.hwp(np.deg2rad(theta_deg))
    return LinearElement(f"hwp:{path}:{theta_deg:g}deg", m)


def build_cz() -> list[LinearElement]:
    """Three-splitter controlled-phase gate (success probability 1/9)."""
    return [ppbs_central(), ppbs_attenuator("control"), ppbs_attenuator("target")]


def build_cnot() -> list[LinearElement]:
    """CNOT: Hadamard waveplates on the target around the CZ core."""
    return [waveplate("target", 22.5), *build_cz(), waveplate("target", 22.5)]


def compose_transfer(elements: list[LinearElement]) -> np.ndarray:
    """Total transfer of elements applied in list order."""
    if not elements:
        raise ValueError("element list must be nonempty")
    u = np.eye(4, dtype=complex)
    for e in elements:
        u = e.transfer @ u
    return u


def _assignments(u: np.ndarray, inp: TwoPhotonInput):
    """Coincidence amplitudes (f, s) over (HH, HV, VH, VV) of the two assignments through the transfer u.

    f has the control photon in the control path and the target photon in
    the target path; s has them swapped.
    """
    a = u @ np.array([inp.control[0], inp.control[1], 0.0, 0.0], dtype=complex)
    b = u @ np.array([0.0, 0.0, inp.target[0], inp.target[1]], dtype=complex)
    return np.kron(a[:2], b[2:]), np.kron(b[:2], a[2:])


def two_photon_amplitudes(elements: list[LinearElement], inp: TwoPhotonInput) -> np.ndarray:
    """Coincidence amplitudes psi = f + s for fully indistinguishable photons.

    Returns the unnormalized 4-vector over (HH, HV, VH, VV): entry (a, b) is
    the 2x2 permanent of the composed transfer restricted to the occupied
    input modes and output modes (a in the control path, b in the target
    path).
    """
    f, s = _assignments(compose_transfer(elements), inp)
    return f + s


def coincidence_evolve(elements: list[LinearElement], inp: TwoPhotonInput) -> PostSelectedState:
    """Propagate two photons and post-select on one photon per output path.

    The output density matrix is the overlap-weighted mixture of the
    interfering and non-interfering components, renormalized on the
    coincidence subspace; success_prob is the matching mixture of the two
    coincidence probabilities.
    """
    return _post_select(compose_transfer(elements), inp)


def _post_select(u: np.ndarray, inp: TwoPhotonInput) -> PostSelectedState:
    """coincidence_evolve through the composed transfer u."""
    f, s = _assignments(u, inp)
    psi = f + s
    rho_ind = np.outer(psi, psi.conj())
    p_ind = float(np.vdot(psi, psi).real)
    rho_dist = np.outer(f, f.conj()) + np.outer(s, s.conj())
    p_dist = float(np.trace(rho_dist).real)

    m = inp.overlap
    p = m * p_ind + (1.0 - m) * p_dist
    if p < 1e-15:
        raise ValueError("coincidence probability below 1e-15")
    rho = (m * rho_ind + (1.0 - m) * rho_dist) / p
    rho = 0.5 * (rho + rho.conj().T)  # scrub float asymmetry
    return PostSelectedState(rho=rho, success_prob=p)


def _basis(basis: str):
    try:
        return TRUTH_TABLE_BASES[basis]
    except KeyError:
        raise ValueError(f"basis must be 'ZZ' or 'XX', got {basis!r}") from None


def truth_table(
    elements: list[LinearElement], overlap: float, basis: str = "ZZ"
) -> tuple[np.ndarray, np.ndarray]:
    """(4x4 conditional output probabilities, success probability of each input).

    Table rows = inputs, cols = outcomes.  ZZ uses the H/V product states,
    XX the D/A ones, in the fixed label orders of TRUTH_TABLE_BASES.  Rows
    are conditional on coincidence and sum to 1.
    """
    labels, _ = _basis(basis)
    u = compose_transfer(elements)  # once for the four inputs
    pairs = [(jones.basis_state(lbl[0]), jones.basis_state(lbl[1])) for lbl in labels]
    probes = [np.kron(c, t) for c, t in pairs]
    table = np.empty((4, 4))
    success_prob = np.empty(4)
    for i, (c, t) in enumerate(pairs):
        state = _post_select(u, TwoPhotonInput(c, t, overlap))
        success_prob[i] = state.success_prob
        for j, probe in enumerate(probes):
            table[i, j] = float(np.real(probe.conj() @ state.rho @ probe))
    return table, success_prob


def basis_fidelity(table: np.ndarray, basis: str) -> float:
    """Mean probability of the four correct CNOT outcomes in a basis table."""
    _, pattern = _basis(basis)
    t = np.asarray(table, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("table must be 4x4")
    return float(np.mean([t[i, j] for i, j in enumerate(pattern)]))
