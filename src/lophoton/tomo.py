"""Two-qubit state tomography and entanglement metrics.

Nine measurement settings (pairs of single-qubit bases Z, X, Y) with four
coincidence outcomes each give the 36 numbers that determine a two-qubit
state.  The basis states are Z -> (H, V), X -> (D, A), Y -> (R, L) in the
circular convention of :mod:`lophoton.jones`; note that with
R = (1, -i)/sqrt(2) the +1 eigenstate of the Y Pauli operator is L.

Reconstruction is a two-step pipeline: a Stokes/Pauli linear inversion
(Hermitian, unit trace, possibly indefinite) provides the starting point,
projected onto the physical set, for a maximum-likelihood fit over the
Cholesky-like parameterization rho = T^dag T / Tr(T^dag T) with T lower
triangular (16 real parameters), which is physical by construction.  The
likelihood is multinomial per setting; the four projectors of a setting sum
to the identity, so the outcome probabilities normalize automatically.

Error bars come from Monte Carlo resampling: every outcome count is redrawn
from a Poisson law at the observed value, the state is refit, and metric
spreads are reported.  Resample seeds derive from the master seed through
``numpy.random.SeedSequence(seed).spawn``, one child stream per resample.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass

import numpy as np
from scipy import optimize

from . import io, jones
from .linalg import hermitian_eigen, kron, partial_trace, psd_sqrt

BASES = ("Z", "X", "Y")
BASIS_STATES = {"Z": ("H", "V"), "X": ("D", "A"), "Y": ("R", "L")}
SETTINGS = tuple((b1, b2) for b1 in BASES for b2 in BASES)

#: Pauli eigenvalue carried by each polarization label (L is sigma_y = +1
#: in this circular convention)
EIGENSIGN = {"H": +1, "V": -1, "D": +1, "A": -1, "R": -1, "L": +1}

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SIGMA_YY = np.kron(_PAULI["Y"], _PAULI["Y"])

#: row-major lower-triangle order of the 12 off-diagonal parameters
_LOWER = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

_FLIP = np.fliplr(np.eye(4))


def outcome_labels(setting) -> tuple:
    """Outcome label pairs of one setting in the fixed count order.

    [(a1 a2), (a1 b2), (b1 a2), (b1 b2)] where (a, b) are the BASIS_STATES
    labels of each basis.
    """
    a1, b1 = BASIS_STATES[setting[0]]
    a2, b2 = BASIS_STATES[setting[1]]
    return ((a1, a2), (a1, b2), (b1, a2), (b1, b2))


#: rank-1 product projectors, PROJECTORS[i, k] for outcome k of SETTINGS[i];
#: the four of each setting sum to the identity
PROJECTORS = np.array(
    [
        [
            kron(jones.projector(jones.basis_state(s1)), jones.projector(jones.basis_state(s2)))
            for s1, s2 in outcome_labels(setting)
        ]
        for setting in SETTINGS
    ]
)


class MissingSetting(ValueError):
    """A required measurement setting is absent or has zero total counts."""


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of the four coincidence outcomes of one basis pair.

    counts follows the fixed outcome order of outcome_labels.
    """

    basis1: str
    basis2: str
    counts: np.ndarray
    metadata: dict | None = None

    def __post_init__(self):
        if self.basis1 not in BASES or self.basis2 not in BASES:
            raise ValueError(f"bases must be in {BASES}")
        c = np.asarray(self.counts, dtype=float)
        if c.shape != (4,) or not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("counts must be 4 finite nonnegative numbers")
        object.__setattr__(self, "counts", c)

    @property
    def outcome_labels(self):
        return outcome_labels((self.basis1, self.basis2))


@dataclass(frozen=True)
class StateMetrics:
    fidelity_to_target: float
    concurrence: float
    entropy_full_bits: float
    entropy_reduced_bits: float
    purity: float


@dataclass(frozen=True)
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    converged: bool
    n_iter: int


def setting_probabilities(rho: np.ndarray, setting) -> np.ndarray:
    probs = np.array(
        [float(np.real(np.trace(rho @ pi))) for pi in PROJECTORS[SETTINGS.index(tuple(setting))]]
    )
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def simulate_counts(rho: np.ndarray, n_per_setting: int, seed: int) -> list[MeasurementRecord]:
    """Multinomial coincidence counts for all nine settings."""
    rng = np.random.default_rng(seed)
    records = []
    for setting in SETTINGS:
        counts = rng.multinomial(n_per_setting, setting_probabilities(rho, setting))
        records.append(MeasurementRecord(setting[0], setting[1], counts))
    return records


def _validated(records) -> dict:
    by_setting = {}
    for r in records:
        key = (r.basis1, r.basis2)
        if key in by_setting:
            raise MissingSetting(f"duplicate setting {key}")
        if r.counts.sum() <= 0:
            raise MissingSetting(f"setting {key} has zero total counts")
        by_setting[key] = r
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise MissingSetting(f"missing settings: {missing}")
    return by_setting


def linear_inversion(records) -> np.ndarray:
    """Stokes reconstruction from outcome frequencies.

    Hermitian with unit trace by construction; not necessarily positive.
    Single-qubit Pauli expectations are averaged over the three settings
    that measure them.
    """
    by_setting = _validated(records)
    s = np.zeros((4, 4))  # Pauli correlation matrix over (I, X, Y, Z)
    s[0, 0] = 1.0
    idx = {"I": 0, "X": 1, "Y": 2, "Z": 3}
    ones = np.zeros((4, 2))  # accumulators for single-qubit terms: (sum, n)
    twos = np.zeros((4, 2))
    for (b1, b2), rec in by_setting.items():
        f = rec.counts / rec.counts.sum()
        sign1 = np.array([EIGENSIGN[o[0]] for o in rec.outcome_labels])
        sign2 = np.array([EIGENSIGN[o[1]] for o in rec.outcome_labels])
        s[idx[b1], idx[b2]] = float(np.sum(sign1 * sign2 * f))
        ones[idx[b1]] += (float(np.sum(sign1 * f)), 1.0)
        twos[idx[b2]] += (float(np.sum(sign2 * f)), 1.0)
    for b in BASES:
        s[idx[b], 0] = ones[idx[b], 0] / ones[idx[b], 1]
        s[0, idx[b]] = twos[idx[b], 0] / twos[idx[b], 1]
    rho = np.zeros((4, 4), dtype=complex)
    for a, pa in _PAULI.items():
        for b, pb in _PAULI.items():
            rho += s[idx[a], idx[b]] * np.kron(pa, pb)
    return rho / 4.0


def project_to_physical(rho: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clamp negative eigenvalues (to `floor`) and renormalize the trace."""
    w, v = hermitian_eigen(rho)
    w = np.clip(w, floor, None)
    w /= w.sum()
    return (v * w) @ v.conj().T


def _t_from_params(x: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = x[:4]
    for k, (r, c) in enumerate(_LOWER):
        t[r, c] = x[4 + 2 * k] + 1j * x[5 + 2 * k]
    return t


def _params_from_lower(t: np.ndarray) -> np.ndarray:
    x = np.zeros(16)
    x[:4] = np.real(np.diag(t))
    for k, (r, c) in enumerate(_LOWER):
        x[4 + 2 * k] = t[r, c].real
        x[5 + 2 * k] = t[r, c].imag
    return x


def _lower_factor(rho_pd: np.ndarray) -> np.ndarray:
    # lower-triangular T with T^dag T = rho exactly: flip, Cholesky, flip back
    chol = np.linalg.cholesky(_FLIP @ rho_pd @ _FLIP)
    return (_FLIP @ chol @ _FLIP).conj().T


def _rho_from_params(x: np.ndarray) -> np.ndarray:
    t = _t_from_params(x)
    a = t.conj().T @ t
    return a / np.trace(a).real


def log_likelihood(rho: np.ndarray, records) -> float:
    """Multinomial log-likelihood of the records under rho (natural log)."""
    ll = 0.0
    for rec in records:
        probs = setting_probabilities(rho, (rec.basis1, rec.basis2))
        mask = rec.counts > 0
        ll += float(np.sum(rec.counts[mask] * np.log(np.clip(probs[mask], 1e-300, None))))
    return ll


def mle_reconstruct(
    records,
    max_iter: int = 10_000,
    ll_rel_tol: float = 1e-10,
    init: np.ndarray | None = None,
) -> MleResult:
    """Maximum-likelihood state fit over the triangular parameterization.

    Deterministic for given records; stops when the relative log-likelihood
    change falls below ll_rel_tol or after max_iter iterations (the best
    iterate is then returned with converged=False).
    """
    by_setting = _validated(records)
    pi_stack = PROJECTORS.reshape(36, 4, 4)
    pi_flat = PROJECTORS.reshape(36, 16)
    n = np.concatenate([by_setting[setting].counts for setting in SETTINGS])  # (36,)
    n_tot = n.sum()

    if init is None:
        init = linear_inversion(records)
    rho0 = project_to_physical(init, floor=1e-12)
    x0 = _params_from_lower(_lower_factor(rho0))

    def objective(x):
        t = _t_from_params(x)
        a = t.conj().T @ t
        tr_a = np.trace(a).real
        q = np.real(pi_flat @ a.T.reshape(16))  # Tr(A Pi_k) for all k
        # floor keeps the n/q gradient finite when a line search probes the
        # boundary of the physical set; the log barrier still rejects it
        q = np.clip(q, 1e-12, None)
        f = -float(np.sum(n * np.log(q))) + n_tot * np.log(tr_a)
        # G = dF/dA (Hermitian); gradient wrt T entries is 2 (T G)
        g = np.tensordot(-(n / q), pi_stack, axes=1) + (n_tot / tr_a) * np.eye(4)
        m = 2.0 * (t @ g)
        grad = np.zeros(16)
        grad[:4] = np.real(np.diag(m))
        for k, (r, c) in enumerate(_LOWER):
            grad[4 + 2 * k] = m[r, c].real
            grad[5 + 2 * k] = m[r, c].imag
        return f / n_tot, grad / n_tot

    res = optimize.minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "ftol": ll_rel_tol, "gtol": 1e-12, "maxfun": 10 * max_iter},
    )
    rho = _rho_from_params(res.x)
    rho = 0.5 * (rho + rho.conj().T)
    converged = bool(res.success or "CONVERGENCE" in str(res.message).upper())
    return MleResult(
        rho=rho,
        log_likelihood=-float(res.fun) * n_tot,
        converged=converged,
        n_iter=int(res.nit),
    )


# ---------------------------------------------------------------------------
# state functionals
# ---------------------------------------------------------------------------

def psi_minus() -> np.ndarray:
    """Density matrix of the singlet (|HV> - |VH>)/sqrt(2)."""
    v = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def maximally_mixed() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def werner(p: float) -> np.ndarray:
    """p-weighted mixture of the singlet with the maximally mixed state."""
    return p * psi_minus() + (1.0 - p) * maximally_mixed()


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(target) rho sqrt(target)))^2.

    Reduces to <psi|rho|psi> for a pure target.
    """
    s = psd_sqrt(target)
    inner = s @ rho @ s
    w, _ = hermitian_eigen(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    ev = np.linalg.eigvals(rho @ tilde)
    lam = np.sort(np.sqrt(np.abs(np.real(ev))))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _entropy_bits(w: np.ndarray) -> float:
    w = np.clip(np.real(w), 0.0, None)
    nz = w > 1e-15
    return float(-np.sum(w[nz] * np.log2(w[nz])))


def entropies(rho: np.ndarray) -> tuple[float, float]:
    """(full-state, reduced-state) von Neumann entropies in bits.

    Both are reported because a single quoted entanglement entropy is
    ambiguous between them; for a pure entangled state the pair is
    (0, positive).
    """
    w_full, _ = hermitian_eigen(rho)
    w_red = np.linalg.eigvalsh(partial_trace(rho, "first"))
    return _entropy_bits(w_full), _entropy_bits(w_red)


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def hofmann_bounds(f_zz: float, f_xx: float) -> tuple[float, float]:
    """Process-fidelity bounds from two complementary truth-table fidelities."""
    for name, f in (("f_zz", f_zz), ("f_xx", f_xx)):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {f}")
    return max(0.0, f_zz + f_xx - 1.0), min(f_zz, f_xx)


def state_metrics(rho: np.ndarray, target: np.ndarray) -> StateMetrics:
    s_full, s_red = entropies(rho)
    return StateMetrics(
        fidelity_to_target=fidelity(rho, target),
        concurrence=concurrence(rho),
        entropy_full_bits=s_full,
        entropy_reduced_bits=s_red,
        purity=purity(rho),
    )


# ---------------------------------------------------------------------------
# Monte Carlo error bars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricStat:
    mean: float
    std: float


@dataclass(frozen=True)
class MonteCarloMetrics:
    fidelity_to_target: MetricStat
    concurrence: MetricStat
    entropy_full_bits: MetricStat
    entropy_reduced_bits: MetricStat
    purity: MetricStat
    n_resamples: int


def monte_carlo_metrics(records, target: np.ndarray, n_resamples: int, seed: int) -> MonteCarloMetrics:
    """Poisson-resampled reconstruction spread of every state metric.

    Each resample redraws all 36 outcome counts ~ Poisson(observed), refits
    by maximum likelihood and recomputes the metrics; means and sample
    standard deviations are reported.
    """
    if n_resamples < 100:
        raise ValueError("n_resamples must be >= 100 for a usable spread")
    base = _validated(records)
    rows = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.default_rng(child)
        resampled = []
        for setting in SETTINGS:
            rec = base[setting]
            counts = rng.poisson(rec.counts)
            if counts.sum() == 0:  # keep the setting usable at tiny totals
                counts = counts + 1
            resampled.append(MeasurementRecord(rec.basis1, rec.basis2, counts))
        rows.append(astuple(state_metrics(mle_reconstruct(resampled).rho, target)))
    arr = np.array(rows)
    means = arr.mean(axis=0)
    stds = arr.std(axis=0, ddof=1)
    stats = [MetricStat(float(m), float(s)) for m, s in zip(means, stds)]
    return MonteCarloMetrics(*stats, n_resamples=n_resamples)


# ---------------------------------------------------------------------------
# record file I/O
# ---------------------------------------------------------------------------

_RECORD_HEADER = ("basis1", "basis2", "outcome1", "outcome2", "counts")


def records_to_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RECORD_HEADER)
        for rec in records:
            for (o1, o2), c in zip(rec.outcome_labels, rec.counts):
                w.writerow([rec.basis1, rec.basis2, o1, o2, int(c)])


def _record_row(row) -> tuple:
    b1, b2, o1, o2, c = row
    if b1 not in BASES or b2 not in BASES:
        raise ValueError(f"unknown basis pair {b1},{b2}")
    labels1, labels2 = BASIS_STATES[b1], BASIS_STATES[b2]
    if o1 not in labels1 or o2 not in labels2:
        raise ValueError(f"outcome {o1},{o2} inconsistent with bases {b1},{b2}")
    return (b1, b2), 2 * labels1.index(o1) + labels2.index(o2), io.count(c)


def records_from_csv(path) -> list[MeasurementRecord]:
    """Records from a CSV file; repeated outcome rows add up."""
    acc: dict[tuple, np.ndarray] = {}
    for setting, pos, c in io.read_csv(path, _RECORD_HEADER, _record_row):
        acc.setdefault(setting, np.zeros(4))[pos] += c
    return [MeasurementRecord(b1, b2, counts) for (b1, b2), counts in acc.items()]
