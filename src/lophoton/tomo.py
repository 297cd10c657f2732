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

Each rule has one definition: outcome_labels fixes the outcome order,
outcome_probabilities gives the (9, 4) probability table (the fit's
objective takes the same traces of T^dag T through the flattened
projectors), and _count_table checks records and gives their 36 counts.

Error bars come from Monte Carlo resampling: every outcome count is redrawn
from a Poisson law at the observed value, the state is refit, and metric
spreads are reported.  Resample seeds derive from the master seed through
``numpy.random.SeedSequence(seed).spawn``, one child stream per resample.
The resamples run in stacks of up to 100: one array of counts, one linear
inversion product, one stacked projection and one stacked evaluation of
the metrics per stack; only the likelihood fit runs once per resample.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy import optimize

from . import io, jones
from .linalg import dagger, hermitian_eigen, partial_trace, psd_sqrt

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

#: flat (row-major) positions in a 4x4 matrix of the diagonal and of the
#: strictly lower triangle; the 16 real parameters of T are the diagonal,
#: then (real, imaginary) of each lower entry in this order
_DIAG = np.arange(4) * 5
_LOWER = np.array([4 * r + c for r in range(4) for c in range(r)])

#: (16, 16) map from the parameters x to T: T.reshape(16) = _T_OF_X @ x;
#: conversely x = (m.reshape(16) @ _T_OF_X.conj()).real reads the
#: parameters of any lower-triangular m
_T_OF_X = np.zeros((16, 16), dtype=complex)
_T_OF_X[_DIAG, range(4)] = 1.0
_T_OF_X[_LOWER, range(4, 16, 2)] = 1.0
_T_OF_X[_LOWER, range(5, 16, 2)] = 1j
_X_OF_T = _T_OF_X.conj()

_FLIP = np.fliplr(np.eye(4))

#: share of Monte Carlo resamples whose fit may fail to converge before the
#: error bars are refused
MAX_NOT_CONVERGED_FRACTION = 0.01


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
            np.kron(jones.projector(jones.basis_state(s1)), jones.projector(jones.basis_state(s2)))
            for s1, s2 in outcome_labels(setting)
        ]
        for setting in SETTINGS
    ]
)


#: PROJECTORS flattened to (36, 16): Tr(A Pi_k) = (_PI_FLAT @ A.T.reshape(16))[k]
_PI_FLAT = PROJECTORS.reshape(36, 16)


def _inversion_map() -> np.ndarray:
    # frequency f_k of outcome (o1, o2) of setting (b1, b2) adds
    # s1 s2 f_k to <b1 b2> and s1 f_k / 3, s2 f_k / 3 to <b1 I>, <I b2>,
    # since each single-qubit expectation is averaged over three settings
    rows = []
    for b1, b2 in SETTINGS:
        for o1, o2 in outcome_labels((b1, b2)):
            s1, s2 = EIGENSIGN[o1], EIGENSIGN[o2]
            m = (
                s1 * s2 * np.kron(_PAULI[b1], _PAULI[b2])
                + s1 / 3.0 * np.kron(_PAULI[b1], _PAULI["I"])
                + s2 / 3.0 * np.kron(_PAULI["I"], _PAULI[b2])
            )
            rows.append(m.reshape(16) / 4.0)
    return np.array(rows)


#: (36, 16) linear-inversion map: rho = I/4 + (f @ _INVERSION_MAP).reshape(4, 4)
#: for the 36 outcome frequencies f in SETTINGS and outcome order
_INVERSION_MAP = _inversion_map()


class MissingSetting(ValueError):
    """A required measurement setting is absent or has zero total counts."""


class NotConverged(RuntimeError):
    """A maximum-likelihood fit, or too many Monte Carlo refits, did not converge."""


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of the four coincidence outcomes of one basis pair.

    counts follows the fixed outcome order of outcome_labels.
    """

    basis1: str
    basis2: str
    counts: np.ndarray

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


def outcome_probabilities(rho: np.ndarray) -> np.ndarray:
    """(9, 4) outcome probabilities of rho in SETTINGS and outcome order; negative traces clip to 0."""
    probs = np.clip(np.real(np.trace(rho @ PROJECTORS, axis1=-2, axis2=-1)), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def simulate_counts(rho: np.ndarray, n_per_setting: int, seed: int) -> list[MeasurementRecord]:
    """Multinomial coincidence counts for all nine settings."""
    counts = np.random.default_rng(seed).multinomial(n_per_setting, outcome_probabilities(rho))
    return [MeasurementRecord(b1, b2, c) for (b1, b2), c in zip(SETTINGS, counts)]


def _count_table(records) -> np.ndarray:
    """The 36 counts in SETTINGS and outcome order; each setting must occur once, with counts."""
    by_setting = {}
    for r in records:
        key = (r.basis1, r.basis2)
        if key in by_setting:
            raise MissingSetting(f"duplicate setting {key}")
        if r.counts.sum() <= 0:
            raise MissingSetting(f"setting {key} has zero total counts")
        by_setting[key] = r.counts
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise MissingSetting(f"missing settings: {missing}")
    return np.concatenate([by_setting[s] for s in SETTINGS])


def _inversion(counts: np.ndarray) -> np.ndarray:
    """Linear inversion of (..., 36) counts in SETTINGS order to (..., 4, 4)."""
    per_setting = counts.reshape(counts.shape[:-1] + (9, 4))
    f = (per_setting / per_setting.sum(axis=-1, keepdims=True)).reshape(counts.shape)
    rho = (f @ _INVERSION_MAP).reshape(counts.shape[:-1] + (4, 4))
    rho[..., range(4), range(4)] += 0.25
    return rho


def linear_inversion(records) -> np.ndarray:
    """Stokes reconstruction from outcome frequencies.

    Hermitian with unit trace by construction; not necessarily positive.
    Single-qubit Pauli expectations are averaged over the three settings
    that measure them.
    """
    return _inversion(_count_table(records))


def project_to_physical(rho: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clamp negative eigenvalues (to `floor`) and renormalize the trace.

    rho is one matrix or a stack of them along leading axes.
    """
    w, v = hermitian_eigen(rho)
    w = np.clip(w, floor, None)
    w /= w.sum(axis=-1, keepdims=True)
    return (v * w[..., None, :]) @ dagger(v)


def _t_from_params(x: np.ndarray) -> np.ndarray:
    return (_T_OF_X @ x).reshape(4, 4)


def _lower_params(m: np.ndarray) -> np.ndarray:
    """The 16 reals of the diagonal (real part) and lower triangle of (..., 4, 4) m."""
    return (m.reshape(m.shape[:-2] + (16,)) @ _X_OF_T).real


def _start_params(rho_pd: np.ndarray) -> np.ndarray:
    """Parameters of the lower-triangular T with T^dag T = rho, for (..., 4, 4) rho.

    Flip, Cholesky, flip back; rho must be positive definite.
    """
    chol = np.linalg.cholesky(_FLIP @ rho_pd @ _FLIP)
    return _lower_params(dagger(_FLIP @ chol @ _FLIP))


def _rho_from_params(x: np.ndarray) -> np.ndarray:
    t = _t_from_params(x)
    a = t.conj().T @ t
    return a / np.trace(a).real


def log_likelihood(rho: np.ndarray, records) -> float:
    """Multinomial log-likelihood (natural log) under rho of records of any subset of the settings."""
    rows = [SETTINGS.index((r.basis1, r.basis2)) for r in records]
    counts = np.reshape([r.counts for r in records], (-1, 4))
    return float(np.sum(counts * np.log(np.clip(outcome_probabilities(rho)[rows], 1e-300, None))))


#: L-BFGS-B limits of every fit, the Monte Carlo refits included
_MLE_MAX_ITER = 10_000
_MLE_LL_REL_TOL = 1e-10


def mle_reconstruct(records) -> MleResult:
    """Maximum-likelihood state fit over the triangular parameterization.

    Deterministic for given records; stops when the relative log-likelihood
    change falls below _MLE_LL_REL_TOL or after _MLE_MAX_ITER iterations (the
    best iterate is then returned with converged=False).
    """
    n = _count_table(records)
    return _mle_fit(n, _start_params(project_to_physical(_inversion(n), floor=1e-12)))


def _mle_fit(n: np.ndarray, x0: np.ndarray) -> MleResult:
    """L-BFGS-B fit of the 16 parameters to the 36 counts n, from x0."""
    n_tot = n.sum()

    def objective(x):
        t = _t_from_params(x)
        a = t.conj().T @ t
        tr_a = a.trace().real
        q = (_PI_FLAT @ a.T.reshape(16)).real  # Tr(A Pi_k) for all k
        # floor keeps the n/q gradient finite when a line search probes the
        # boundary of the physical set; the log barrier still rejects it
        q = np.maximum(q, 1e-12)
        f = -float((n * np.log(q)).sum()) + n_tot * np.log(tr_a)
        # G = dF/dA (Hermitian); gradient wrt T entries is 2 (T G)
        g = -(n / q) @ _PI_FLAT
        g[_DIAG] += n_tot / tr_a
        return f / n_tot, _lower_params(2.0 * (t @ g.reshape(4, 4))) / n_tot

    res = optimize.minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": _MLE_MAX_ITER, "maxfun": 10 * _MLE_MAX_ITER, "ftol": _MLE_LL_REL_TOL,
                 "gtol": 1e-12},
    )
    rho = _rho_from_params(res.x)
    rho = 0.5 * (rho + rho.conj().T)
    converged = bool(res.success or "CONVERGENCE" in str(res.message).upper())
    return MleResult(rho, -float(res.fun) * n_tot, converged, int(res.nit))


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


# Each functional takes one 4x4 matrix and returns a float, or a stack
# (..., 4, 4) and returns an array over the stack axes.

def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(target) rho sqrt(target)))^2.

    Reduces to <psi|rho|psi> for a pure target.
    """
    s = psd_sqrt(target)
    inner = s @ rho @ s
    w = np.linalg.eigvalsh(0.5 * (inner + dagger(inner)))
    return np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=-1) ** 2


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    ev = np.linalg.eigvals(rho @ tilde)
    lam = np.sort(np.sqrt(np.abs(np.real(ev))), axis=-1)
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


def _entropy_bits(w: np.ndarray) -> float:
    w = np.clip(np.real(w), 0.0, None)
    nz = w > 1e-15
    return -np.sum(np.where(nz, w * np.log2(np.where(nz, w, 1.0)), 0.0), axis=-1)


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
    return np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))


def hofmann_bounds(f_zz: float, f_xx: float) -> tuple[float, float]:
    """Process-fidelity bounds from two complementary truth-table fidelities."""
    for name, f in (("f_zz", f_zz), ("f_xx", f_xx)):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {f}")
    return max(0.0, f_zz + f_xx - 1.0), min(f_zz, f_xx)


def state_metrics(rho: np.ndarray, target: np.ndarray) -> StateMetrics:
    """Every metric of rho against target; arrays over the stack for a stack of rho."""
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
    n_not_converged: int


#: resamples drawn, refit and scored as one stack: large enough to amortise
#: the numpy calls, small enough that memory does not grow with the number
#: of resamples
_MC_BLOCK = 100


def monte_carlo_metrics(records, target: np.ndarray, n_resamples: int, seed: int) -> MonteCarloMetrics:
    """Poisson-resampled reconstruction spread of every state metric.

    Each resample redraws all 36 outcome counts ~ Poisson(observed), refits
    by maximum likelihood and recomputes the metrics; means and sample
    standard deviations over the resamples whose fit converged are
    reported.  Raises NotConverged when more than
    MAX_NOT_CONVERGED_FRACTION of the fits did not converge.
    """
    if n_resamples < 100:
        raise ValueError(f"n_resamples must be at least 100 for a usable spread, got {n_resamples}")
    observed = _count_table(records)
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    table = np.empty((n_resamples, len(fields(StateMetrics))))
    converged = np.empty(n_resamples, dtype=bool)
    for lo in range(0, n_resamples, _MC_BLOCK):
        block = slice(lo, lo + _MC_BLOCK)
        table[block], converged[block] = _resample_block(observed, children[block], target)
    n_not_converged = int(n_resamples - converged.sum())
    if n_not_converged > MAX_NOT_CONVERGED_FRACTION * n_resamples:
        raise NotConverged(
            f"{n_not_converged} of {n_resamples} Monte Carlo refits did not converge "
            f"(at most {MAX_NOT_CONVERGED_FRACTION:.0%} may fail)"
        )
    means = table[converged].mean(axis=0)
    stds = table[converged].std(axis=0, ddof=1)
    stats = [MetricStat(float(m), float(s)) for m, s in zip(means, stds)]
    return MonteCarloMetrics(*stats, n_resamples=n_resamples, n_not_converged=n_not_converged)


def _resample_block(observed: np.ndarray, children, target: np.ndarray):
    """(metric rows, convergence flags) of the resamples drawn from the child seeds."""
    counts = np.array([np.random.default_rng(child).poisson(observed) for child in children])
    per_setting = counts.reshape(len(children), 9, 4)
    per_setting[per_setting.sum(axis=-1) == 0] += 1  # keep the setting usable at tiny totals
    x0 = _start_params(project_to_physical(_inversion(counts), floor=1e-12))
    fits = [_mle_fit(n, x) for n, x in zip(counts, x0)]
    metrics = state_metrics(np.array([fit.rho for fit in fits]), target)
    return np.column_stack(astuple(metrics)), [fit.converged for fit in fits]


# ---------------------------------------------------------------------------
# record file I/O
# ---------------------------------------------------------------------------

def _record_row(row) -> tuple:
    b1, b2, o1, o2, c = row
    if b1 not in BASES or b2 not in BASES:
        raise ValueError(f"unknown basis pair {b1},{b2}")
    labels = outcome_labels((b1, b2))
    if (o1, o2) not in labels:
        raise ValueError(f"outcome {o1},{o2} inconsistent with bases {b1},{b2}")
    return (b1, b2), labels.index((o1, o2)), io.count(c)


def records_from_csv(path) -> list[MeasurementRecord]:
    """Records from a CSV file; repeated outcome rows add up."""
    acc: dict[tuple, np.ndarray] = {}
    header = ("basis1", "basis2", "outcome1", "outcome2", "counts")
    for setting, pos, c in io.read_csv(path, header, _record_row):
        acc.setdefault(setting, np.zeros(4))[pos] += c
    return [MeasurementRecord(b1, b2, counts) for (b1, b2), counts in acc.items()]
