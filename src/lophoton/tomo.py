"""Two-qubit state tomography and entanglement metrics.

Nine measurement settings (pairs of single-qubit bases Z, X, Y) with four
coincidence outcomes each give the 36 numbers that determine a two-qubit
state.  The basis states are Z -> (H, V), X -> (D, A), Y -> (R, L) in the
circular convention of :mod:`lophoton.jones`; note that with
R = (1, -i)/sqrt(2) the +1 eigenstate of the Y Pauli operator is L.

Reconstruction is a two-step pipeline: a linear inversion (Hermitian,
unit trace, possibly indefinite) provides the starting point, projected
onto the physical set with a small eigenvalue floor, for a
maximum-likelihood fit over the Cholesky-like parameterization
rho = T^dag T / Tr(T^dag T) with T lower triangular (16 real parameters x),
which is physical by construction (James et al., PRA 64, 052312, 2001).
The likelihood is multinomial per setting; the four projectors of a
setting sum to the identity, so the outcome probabilities normalize
automatically.  Each outcome trace is a quadratic form x @ Q_k @ x, so the
fit is a damped Newton iteration with the exact Hessian, run on a whole
stack of fits at once; it stops when the squared Newton decrement falls
below a fixed tolerance.

In a fixed basis order, T_33 is the first Cholesky pivot, and where
rho_33 vanishes (the singlet) the map from T to rho is singular exactly
where the fit lands.  So each fit takes its own basis order: the pivot
order of LAPACK's pivoted Cholesky zpstrf of its start state, largest
diagonal of the remaining Schur complement first (Higham, 1990), fit as
the last index of T (_pivoted_starts), and _fits stacks fits by order,
with forms Q_k built once per order (at most 24).  A fit still running
after 20 steps starts again from its current state, in that state's pivot
order.  On Poisson redraws of the singlet at 10^6 counts per setting, fit
from their linear inversion, this takes every fit to the optimum in 3
steps, against a median of 10 (up to 20) in the fixed order.

Each rule has one definition: outcome_labels fixes the outcome order,
PROJECTORS the measurement; through their flattened form _PI_FLAT,
outcome_probabilities gives the (9, 4) probability table, _forms the
fit's forms and _projector_inverse the linear inversion (least squares);
_count_table checks records and gives their 36 counts.

Error bars come from Monte Carlo resampling: every outcome count is redrawn
from a Poisson law at the observed value, the state is refit, and metric
spreads are reported.  The resamples come in order from one stream, a
generator seeded with the first child of ``numpy.random.SeedSequence(seed)``
(simulate_counts draws from the seed's own stream).  They are drawn and
scored 1000 at a time, with one Poisson call and one evaluation of the
metrics per block, so that a run of fewer resamples redraws the first ones
of a longer run.  Each refit starts one Newton step from the central
fit, which the caller passes in (Le Cam's one-step estimator): at the
central optimum, floored like every start, the gradient is linear in the
counts, so a start costs one vector-matrix product with a (36, 16) matrix
built from the central Hessian.  From there a Poisson redraw of the
observed counts is inside the region where Newton converges
quadratically; at the singlet with 10^6 counts per setting every refit
takes 1 step.  The first pass of a block runs in the central fit's basis
order, in stacks of at most 100 fits; a refit still running after 20
steps repivots like any fit.  Every product is computed fit by fit, so
that the results depend on neither the block nor the stack size.

The fits of one _mle_fits call, every pass, stack and Newton step of them,
write their stack-sized products into one workspace (_Work, 1.7 MB for a
stack of 100).  Arrays of a few hundred KB, allocated and freed at every
step, are above the sizes at which glibc's malloc maps fresh pages and
trims them back, so each step faulted them in again: about 10,800 minor
page faults per seeded bell call of 1000 resamples, against about 600
with the workspace, most of them its first touch.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from . import io, jones
from .linalg import dagger, hermitian_eigen, partial_trace, psd_sqrt

BASES = ("Z", "X", "Y")
BASIS_STATES = {"Z": ("H", "V"), "X": ("D", "A"), "Y": ("R", "L")}
SETTINGS = tuple((b1, b2) for b1 in BASES for b2 in BASES)

#: sigma_y (x) sigma_y, the spin flip of the concurrence
_SIGMA_YY = np.kron(*2 * [np.array([[0, -1j], [1j, 0]])])

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


@functools.cache  # built on first use: commands that never reconstruct skip the solve
def _projector_inverse() -> np.ndarray:
    """(36, 16) least-squares inverse of _PI_FLAT: rho = (f @ map).reshape(4, 4).

    rho is the matrix whose traces Tr(rho Pi_k) are nearest to the 36
    outcome frequencies f; here that is the Stokes formula with each
    single-qubit expectation averaged over its three settings.  The normal
    equations' Gram matrix has condition number 9.
    """
    a = _PI_FLAT.conj()  # Tr(rho Pi_k) = (a @ rho.reshape(16))[k]
    inverse = np.linalg.solve(dagger(a) @ a, dagger(a)).T
    inverse.setflags(write=False)
    return inverse


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
    """One maximum-likelihood fit, or arrays over a stack of them.

    n_iter counts Newton steps, decrement_sq is the squared Newton decrement
    at rho (nats), and log_likelihood_gain is log_likelihood minus that of
    the start point.
    """

    rho: np.ndarray
    log_likelihood: float
    converged: bool
    n_iter: int
    decrement_sq: float
    log_likelihood_gain: float


def outcome_probabilities(rho: np.ndarray) -> np.ndarray:
    """(9, 4) outcome probabilities of rho in SETTINGS and outcome order; negative traces clip to 0."""
    probs = np.clip((_PI_FLAT @ rho.T.reshape(16)).real, 0.0, None).reshape(9, 4)
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
    rho = (f[..., None, :] @ _projector_inverse()).reshape(counts.shape[:-1] + (4, 4))
    return 0.5 * (rho + dagger(rho))  # the map's rows are Hermitian to rounding


def linear_inversion(records) -> np.ndarray:
    """Least-squares inversion of the outcome frequencies through PROJECTORS.

    Hermitian with unit trace; not necessarily positive.  Equal to the
    Stokes reconstruction with single-qubit Pauli expectations averaged over
    the three settings that measure them.
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


def log_likelihood(rho: np.ndarray, records) -> float:
    """Multinomial log-likelihood (natural log) under rho of records of any subset of the settings."""
    rows = [SETTINGS.index((r.basis1, r.basis2)) for r in records]
    counts = np.reshape([r.counts for r in records], (-1, 4))
    return float(np.sum(counts * np.log(np.clip(outcome_probabilities(rho)[rows], 1e-300, None))))


class _Forms(NamedTuple):
    """The outcome-trace forms of the fit in one basis order.

    For x the parameters of T (through _T_OF_X) and rho[order][:, order] =
    T^dag T, Tr(rho Pi_k) = x @ Q_k @ x and Tr(rho) = |x|^2.  The 36 real
    symmetric (16, 16) forms Q_k are laid out for one matrix-vector product
    per fit: (x @ rows)[16 k + i] = (Q_k @ x)[i] and
    sums @ w = (sum_k w_k Q_k).reshape(256).  inverse undoes the order.
    """

    rows: np.ndarray
    sums: np.ndarray
    inverse: np.ndarray


@functools.cache  # at most 4! = 24 orders, about 150 KB each
def _forms(order: tuple) -> _Forms:
    order = list(order)
    pi = _PI_FLAT.reshape(36, 4, 4)[:, order][:, :, order]
    q = np.real(_T_OF_X.T @ np.kron(np.eye(4), pi) @ _T_OF_X.conj())
    forms = _Forms(q.transpose(1, 0, 2).reshape(16, 576), np.ascontiguousarray(q.reshape(36, 256).T), np.argsort(order))
    for array in forms:  # shared by every caller
        array.setflags(write=False)
    return forms


#: limits of every maximum-likelihood fit, the Monte Carlo refits included.
#: A fit has converged once its squared Newton decrement (in nats; half of
#: it estimates the log-likelihood still to gain) is below
#: _MLE_DECREMENT_TOL, within _MLE_MAX_ITER steps.  Every Hessian is shifted
#: by _MLE_DAMPING times the total count, and a line search that has halved
#: its step _MLE_MAX_HALVINGS times without a decrease fails.
_MLE_DECREMENT_TOL = 1e-10
_MLE_MAX_ITER = 100
_MLE_DAMPING = 1e-12
_MLE_MAX_HALVINGS = 50
#: eigenvalue floor of every start state.  An eigenvalue e enters T as a row
#: of size sqrt(e), and the gradient along that row scales with it, so from
#: e = 1e-12 a fit can pass the decrement test with e far below its optimum.
_MLE_START_FLOOR = 1e-6
#: steps after which a fit still running starts again from its current state
_MLE_REPIVOT_STEPS = 20
#: most fits of one basis order in one _newton_fit stack: enough to amortise
#: the numpy calls of a Newton step, few enough to bound its _Work
_FIT_STACK = 100


def mle_reconstruct(records) -> MleResult:
    """Maximum-likelihood state fit over the triangular parameterization.

    Deterministic for given records.  The damped Newton fit of _mle_fits
    starts from the linear inversion (see _pivoted_starts); after
    _MLE_MAX_ITER steps in all, or when a line search fails, the last
    iterate is returned with converged=False.
    """
    n = _count_table(records)[None]
    fit = _mle_fits(n, *_pivoted_starts(_inversion(n)))
    return MleResult(
        rho=fit.rho[0],
        log_likelihood=float(fit.log_likelihood[0]),
        converged=bool(fit.converged[0]),
        n_iter=int(fit.n_iter[0]),
        decrement_sq=float(fit.decrement_sq[0]),
        log_likelihood_gain=float(fit.log_likelihood_gain[0]),
    )


def _pivoted_starts(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(orders, x): the (R, 4) basis orders and (R, 16) start parameters of fits from (R, 4, 4) Hermitian rho.

    Each state is projected with the eigenvalue floor _MLE_START_FLOOR and
    factored by LAPACK's pivoted Cholesky, rho[p][:, p] = L L^dag.  A fit's
    order is p reversed, so that the first entry of T to fit is the largest
    diagonal of the state rather than a fixed one that may vanish (rho_33
    of the singlet), where the map from T to rho is singular; in that order
    T = L^dag flipped along both axes, and x holds its parameters.  A state
    that zpstrf finds rank-deficient raises LinAlgError.
    """
    rho = project_to_physical(rho, floor=_MLE_START_FLOOR)
    factors = [lapack.zpstrf(state, lower=1) for state in rho]  # (L, 1-based p, rank, info)
    if any(rank < 4 for _, _, rank, _ in factors):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    orders = np.array([pivots[::-1] - 1 for _, pivots, _, _ in factors])
    t = dagger(np.tril([chol for chol, _, _, _ in factors]))[:, ::-1, ::-1]
    return orders, (t.reshape(-1, 1, 16) @ _X_OF_T)[:, 0].real


def _mle_fits(n: np.ndarray, orders: np.ndarray, x: np.ndarray) -> MleResult:
    """Maximum-likelihood fits of (R, 36) counts n; one MleResult of arrays over the R fits.

    Fit r starts from the parameters x[r] in the basis order orders[r].  A
    fit still running after _MLE_REPIVOT_STEPS steps starts again from its
    current state through _pivoted_starts, and so on until it stops or has
    taken _MLE_MAX_ITER steps in all.  A fit's course depends on its own
    counts and start alone.
    """
    n = np.asarray(n, dtype=float)
    steps = min(_MLE_REPIVOT_STEPS, _MLE_MAX_ITER)
    work = _Work.empty(min(len(n), _FIT_STACK))
    fit = _fits(n, orders, x, steps, work)
    out = {f.name: getattr(fit, f.name) for f in fields(MleResult)}
    start_ll = fit.log_likelihood - fit.log_likelihood_gain
    todo = np.flatnonzero(~fit.converged & (fit.n_iter == steps))
    while todo.size and steps < _MLE_MAX_ITER:
        budget = min(_MLE_REPIVOT_STEPS, _MLE_MAX_ITER - steps)
        fit = _fits(n[todo], *_pivoted_starts(out["rho"][todo]), budget, work)
        for name, value in out.items():
            value[todo] = getattr(fit, name)
        out["n_iter"][todo] += steps
        out["log_likelihood_gain"][todo] = fit.log_likelihood - start_ll[todo]
        steps += budget
        todo = todo[~fit.converged & (fit.n_iter == budget)]
    return MleResult(**out)


def _fits(n: np.ndarray, orders: np.ndarray, x: np.ndarray, max_iter: int, work: _Work) -> MleResult:
    """_newton_fit of (R, 36) counts n from (R, 16) parameters x in the (R, 4) basis orders, results in input order.

    The fits are grouped by order and run in stacks of at most _FIT_STACK,
    every stack in work, which holds at least min(R, _FIT_STACK) fits.
    """
    keys = orders @ (64, 16, 4, 1)
    indices, fits = [], []
    for key in np.unique(keys):
        same = np.flatnonzero(keys == key)
        forms = _forms(tuple(orders[same[0]]))
        for lo in range(0, len(same), _FIT_STACK):
            stack = same[lo:lo + _FIT_STACK]
            indices.append(stack)
            fits.append(_newton_fit(n[stack], x[stack], forms, max_iter, work))
    back = np.argsort(np.concatenate(indices))
    return MleResult(*(np.concatenate([getattr(fit, f.name) for fit in fits])[back] for f in fields(MleResult)))


class _Predictor(NamedTuple):
    """Start parameters for refits of counts near the observed ones: one Newton step from the central fit.

    At the central parameters x (|x| = 1, in the basis order held in order)
    the projected gradient of f is linear in the counts, g(n) = n @ a, so
    the Newton step -H^-1 g(n) with the central Hessian H is n @ gain for
    gain = -a H^-1 (Le Cam's one-step estimator, 1956).
    """

    order: np.ndarray
    x: np.ndarray
    gain: np.ndarray

    def starts(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(orders, x) of (R, 36) counts n: all in order, x from a vector-matrix product per fit."""
        return np.broadcast_to(self.order, (len(n), 4)), self.x + (n[:, None, :] @ self.gain)[:, 0]


def _one_step_predictor(observed: np.ndarray, rho: np.ndarray) -> _Predictor:
    """The _Predictor of the 36 observed counts, whose fit is rho.

    The central point is the start of _pivoted_starts at rho: rho floored
    at _MLE_START_FLOOR like every start, in its pivot order; H is the
    Hessian of _derivatives there, for the observed counts.
    """
    n = np.asarray(observed, dtype=float)[None]
    (order,), x = _pivoted_starts(rho[None])
    forms = _forms(tuple(order))
    work = _Work.empty(1)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    q, _, hess = _derivatives(n, n.sum(axis=-1), x, forms, work)
    # row k: the gradient of one count of outcome k, that outcome's term in
    # _derivatives' gradient, orthogonal to x
    a = 2.0 * (x - _q_vectors(x, forms, work)[0] / q[0, :, None])
    x = x[0]
    # along x, H is the damping shift alone, so the solve scales the
    # rounding of a along x by 1 / shift; f is constant along x, so that
    # part of the step is dropped
    return _Predictor(order, x, -np.linalg.solve(hess[0], a.T).T @ (np.eye(16) - np.outer(x, x)))


# Every product below is taken per fit (a stacked matmul, an elementwise
# operation or a sum along one fit's row), never as one matrix product over
# the stack, so that a fit's arithmetic does not depend on which other fits
# share its stack.  The stack-sized ones are written into a _Work.

class _Work(NamedTuple):
    """Buffers for the stack-sized products of a Newton step on up to M fits; m fits use the first m rows.

    One serves every pass, stack and step of an _mle_fits call, so that no
    step allocates an array of a few hundred KB (see the module docstring).
    """

    qx: np.ndarray  # (M, 1, 576): the Q_k @ x of _q_vectors
    weighted: np.ndarray  # (M, 36, 16): Q_k @ x weighted by n_k / q_k^2
    hess: np.ndarray  # (M, 16, 16), with proj and product below
    proj: np.ndarray
    product: np.ndarray
    sums_w: np.ndarray  # (M, 256, 1): sums @ w

    @classmethod
    def empty(cls, size: int) -> _Work:
        return cls(np.empty((size, 1, 576)), np.empty((size, 36, 16)), *(np.empty((size, 16, 16)) for _ in range(3)),
                   np.empty((size, 256, 1)))


def _q_vectors(x: np.ndarray, forms: _Forms, work: _Work) -> np.ndarray:
    """(m, 36, 16) vectors Q_k @ x_r of (m, 16) parameters x, in work.qx."""
    m = len(x)
    return np.matmul(x[:, None, :], forms.rows, out=work.qx[:m]).reshape(m, 36, 16)


def _row_dot(vectors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(m, j) products vectors[r, j] @ x[r] of (m, j, 16) vectors and (m, 16) x."""
    return (vectors @ x[:, :, None])[..., 0]


def _log_likelihoods(n: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multinomial log-likelihoods of (m, 36) counts n at (m, 16) parameters x, whose outcome traces are q."""
    with np.errstate(divide="ignore"):
        terms = np.where(n > 0, n * np.log(q), 0.0)
    return terms.sum(axis=-1) - n.sum(axis=-1) * np.log((x * x).sum(axis=-1))


def _newton_fit(n: np.ndarray, x: np.ndarray, forms: _Forms, max_iter: int, work: _Work) -> MleResult:
    """Damped Newton fits of (R, 36) counts n from (R, 16) start parameters x, in the basis order of forms.

    Returns one MleResult whose fields are arrays over the R fits, with rho
    in the original basis order.  Each fit minimises
    f(x) = -sum_k n_k log q_k + N log |x|^2 with q_k = x @ Q_k @ x, the
    negative log-likelihood of rho = T^dag T / |x|^2, which is constant
    along x.  A fit leaves the stack once its squared Newton decrement is
    below _MLE_DECREMENT_TOL (converged), or once it reaches max_iter steps
    or its line search fails (not converged).  Every step runs in work,
    which holds at least R fits.
    """
    total = n.sum(axis=-1)
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    q = np.empty(n.shape)  # outcome traces at each fit's x, from its last Newton step
    start_ll = np.empty(len(n))
    converged = np.zeros(len(n), dtype=bool)
    n_iter = np.zeros(len(n), dtype=int)
    decrement_sq = np.full(len(n), np.inf)
    active = np.arange(len(n))
    while active.size:
        q[active], step, decrement = _newton_step(n[active], total[active], x[active], forms, work)
        if not n_iter.any():  # the first pass, with every fit at its start
            start_ll = _log_likelihoods(n, q, x)
        decrement_sq[active] = decrement
        converged[active] = decrement < _MLE_DECREMENT_TOL
        go = ~converged[active] & (n_iter[active] < max_iter)
        active = active[go]
        moved, x_new = _line_search(n[active], total[active], x[active], q[active], step[go], forms, work)
        active = active[moved]
        x[active] = x_new / np.linalg.norm(x_new, axis=-1, keepdims=True)
        n_iter[active] += 1
    # a fit leaves the loop at the x of its last step, so q is current
    log_likelihood = _log_likelihoods(n, q, x)
    t = (x[:, None, :] @ _T_OF_X.T).reshape(len(n), 4, 4)
    rho = dagger(t) @ t
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    rho = 0.5 * (rho + dagger(rho))
    rho = rho[:, forms.inverse][:, :, forms.inverse]
    return MleResult(rho, log_likelihood, converged, n_iter, decrement_sq, log_likelihood - start_ll)


def _newton_step(n: np.ndarray, total: np.ndarray, x: np.ndarray, forms: _Forms, work: _Work):
    """(q, step, squared Newton decrement) of the fits at (m, 16) parameters x with |x| = 1.

    The step solves H d = -g for the g and H of _derivatives.
    """
    q, grad, hess = _derivatives(n, total, x, forms, work)
    step = -np.linalg.solve(hess, grad[:, :, None])[..., 0]
    return q, step, -(grad * step).sum(axis=-1)


def _derivatives(n: np.ndarray, total: np.ndarray, x: np.ndarray, forms: _Forms, work: _Work):
    """(q, P g, P H P + shift) of the fits at (m, 16) parameters x with |x| = 1.

    q holds the outcome traces, g and H are the exact gradient and Hessian
    of f and P is the projector off x.  The shift is _MLE_DAMPING times the
    total count; where that shifted matrix fails a Cholesky test, the shift
    grows by -2 v, v the lowest (negative) eigenvalue of P H P.  The
    returned Hessian is a view of work, valid until work is next used.
    """
    m, diag = len(x), (slice(None), range(16), range(16))
    hess, proj, product = work.hess[:m], work.proj[:m], work.product[:m]
    qx = _q_vectors(x, forms, work)
    q = _row_dot(qx, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(n > 0, n / q, 0.0)
        w2 = np.where(n > 0, w / q, 0.0)
    # at |x| = 1 the N log |x|^2 term adds 2N x to g and 2N (I - 2 x x^T) to
    # H, whose x x^T part the projection removes
    grad = 2.0 * (total[:, None] * x - (w[:, None, :] @ qx)[:, 0])
    # hess = 4 Q^T diag(w2) Q - 2 sum_k w_k Q_k + 2N I; the powers of two scale exactly
    np.matmul(qx.swapaxes(1, 2), np.multiply(w2[:, :, None], qx, out=work.weighted[:m]), out=hess)
    hess *= 4.0
    sums_w = np.matmul(forms.sums, w[:, :, None], out=work.sums_w[:m])
    sums_w *= 2.0
    hess -= sums_w.reshape(m, 16, 16)
    hess[diag] += 2.0 * total[:, None]
    np.subtract(np.eye(16), np.multiply(x[:, :, None], x[:, None, :], out=proj), out=proj)
    grad = _row_dot(proj, grad)
    np.matmul(np.matmul(proj, hess, out=product), proj, out=hess)
    damping = _MLE_DAMPING * total
    hess = np.add(hess, hess.swapaxes(1, 2), out=product)  # symmetrised, now in product
    hess *= 0.5
    hess[diag] += damping[:, None]
    bad = [i for i, h in enumerate(hess) if lapack.dpotrf(h, lower=True, clean=False)[1] != 0]
    if bad:
        lowest = np.linalg.eigvalsh(hess[bad])[:, 0]
        hess[bad] += (2.0 * (damping[bad] - lowest))[:, None, None] * np.eye(16)
    return q, grad, hess


def _line_search(n, total, x, q, step, forms, work):
    """(moved, x_new): x + 2^-j step for the least j at which f does not increase.

    moved flags the fits that found such a j within _MLE_MAX_HALVINGS
    halvings, and x_new holds their new points.  The change of f is summed
    from the changes of q and of |x|^2 (taken as 1 before the step), each
    computed without subtracting nearly equal numbers, so that decreases far
    below the rounding of f itself are still seen.
    """
    x_new = np.full_like(x, np.nan)
    pending = np.arange(len(x))
    for halvings in range(_MLE_MAX_HALVINGS + 1):
        s = 0.5 ** halvings * step[pending]
        both = 2.0 * x[pending] + s
        dq = _row_dot(_q_vectors(s, forms, work), both)  # q(x + s) - q(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(n[pending] > 0, n[pending] * np.log1p(dq / q[pending]), 0.0)
        change = total[pending] * np.log1p((s * both).sum(axis=-1)) - terms.sum(axis=-1)
        ok = change <= 0.0
        x_new[pending[ok]] = x[pending[ok]] + s[ok]
        pending = pending[~ok]
        if not pending.size:
            break
    moved = ~np.isnan(x_new[:, 0])
    return moved, x_new[moved]


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
    """Metric spreads over the converged refits; refit_iterations holds the Newton steps of every refit after its predicted start."""

    fidelity_to_target: MetricStat
    concurrence: MetricStat
    entropy_full_bits: MetricStat
    entropy_reduced_bits: MetricStat
    purity: MetricStat
    n_resamples: int
    n_not_converged: int
    refit_iterations: np.ndarray


#: resamples drawn, refit and scored as one block: large enough to spread
#: the numpy calls of drawing and scoring over many resamples, small enough
#: that memory does not grow with the number of resamples
_MC_BLOCK = 1000


def monte_carlo_metrics(records, central: MleResult, target: np.ndarray, n_resamples: int, seed: int) -> MonteCarloMetrics:
    """Poisson-resampled reconstruction spread of every state metric.

    central is the caller's mle_reconstruct(records).  Each resample
    redraws all 36 outcome counts ~ Poisson(observed), in order from one
    stream seeded by the first child of SeedSequence(seed), refits by
    maximum likelihood from one Newton step off central.rho (see
    _one_step_predictor) and recomputes the metrics; means and sample
    standard deviations over the resamples whose fit converged are
    reported, and refit_iterations counts each refit's Newton steps after
    that predicted start.  Raises NotConverged when more than
    MAX_NOT_CONVERGED_FRACTION of the fits did not converge.
    """
    if n_resamples < 100:
        raise ValueError(f"n_resamples must be at least 100 for a usable spread, got {n_resamples}")
    observed = _count_table(records)
    predictor = _one_step_predictor(observed, central.rho)
    # a child of the seed, not the seed's own stream, from which
    # simulate_counts draws the records that are resampled here
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    table = np.empty((n_resamples, len(fields(StateMetrics))))
    converged = np.empty(n_resamples, dtype=bool)
    iterations = np.empty(n_resamples, dtype=int)
    for lo in range(0, n_resamples, _MC_BLOCK):
        counts = rng.poisson(observed, size=(min(_MC_BLOCK, n_resamples - lo), observed.size))
        block = slice(lo, lo + _MC_BLOCK)
        table[block], converged[block], iterations[block] = _resample_block(counts, target, predictor)
    n_not_converged = int(n_resamples - converged.sum())
    if n_not_converged > MAX_NOT_CONVERGED_FRACTION * n_resamples:
        raise NotConverged(
            f"{n_not_converged} of {n_resamples} Monte Carlo refits did not converge "
            f"(at most {MAX_NOT_CONVERGED_FRACTION:.0%} may fail)"
        )
    means = table[converged].mean(axis=0)
    stds = table[converged].std(axis=0, ddof=1)
    stats = [MetricStat(float(m), float(s)) for m, s in zip(means, stds)]
    return MonteCarloMetrics(
        *stats, n_resamples=n_resamples, n_not_converged=n_not_converged, refit_iterations=iterations
    )


def _resample_block(counts: np.ndarray, target: np.ndarray, predictor: _Predictor):
    """(metric rows, convergence flags, iterations) of the refits of (R, 36) resampled counts."""
    per_setting = counts.reshape(len(counts), 9, 4)
    per_setting[per_setting.sum(axis=-1) == 0] += 1  # keep the setting usable at tiny totals
    fits = _mle_fits(counts, *predictor.starts(counts))
    metrics = state_metrics(fits.rho, target)
    return np.column_stack(astuple(metrics)), fits.converged, fits.n_iter


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
