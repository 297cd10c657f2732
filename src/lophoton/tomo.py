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
the last index of T (_pivoted_starts), and _mle_fits stacks fits by
order, with forms Q_k built once per order (at most 24).  A fit still
running after 20 steps starts again from its current state, in that
state's pivot order.  On Poisson redraws of the singlet at 10^6 counts per
setting, fit from their linear inversion, this takes every fit to the
optimum in 3 steps, against a median of 10 (up to 20) in the fixed order.

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
of a longer run.  Each refit starts from Newton steps with the central
Hessian, the Hessian of the central fit that the caller passes in.  At
that optimum, floored like every start, the gradient is linear in the
counts, so the first step (Le Cam's one-step estimator) costs one
vector-matrix product with a (36, 16) matrix built from the central
Hessian.  Two chord steps follow, each from the gradient where the last
one ended (one _q_vectors product per fit), and a refit keeps their end
point only if the second step is at most a tenth of the first; otherwise
it starts one step from the central fit, bit for bit.  At the singlet
with 10^6 counts per setting every refit keeps the chord point and
passes the decrement test there, with no Newton step; the refits of
Werner 0.9 at 100 and 2000 counts per setting, whose Hessians move with
the counts, all keep the one-step start.  The first pass of a block runs
in the central fit's basis order, in stacks of at most 100 fits; a refit
still running after 20 steps repivots like any fit.  Every product is
computed fit by fit, so that the results depend on neither the block nor
the stack size.

The metrics of a state come from one eigendecomposition: the entropy
and the purity from its eigenvalues, and Wootters' concurrence from the
singular values of a complex symmetric matrix built from its factors
(_concurrence), which, unlike the eigenvalues of the non-Hermitian
rho rho~, stay exact for a pure state.

The fits of one _mle_fits call, every pass, stack and Newton step of them,
write their stack-sized products into one workspace (_Work, 1.7 MB for a
stack of 100).  Arrays of a few hundred KB, allocated and freed at every
step, are above the sizes at which glibc's malloc maps fresh pages and
trims them back, so each step faulted them in again: about 10,800 minor
page faults per seeded bell call of 1000 resamples, against about 600
with the workspace, most of them its first touch.  The metrics of a
block still allocate (1000, 4, 4) temporaries; with the single
eigendecomposition a call takes about 950 faults, against about 170
with the former metrics, and less time.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

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
            raise ValueError(f"duplicate setting {key}")
        if r.counts.sum() <= 0:
            raise ValueError(f"setting {key} has zero total counts")
        by_setting[key] = r.counts
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise ValueError(f"missing settings: {missing}")
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
#: largest ratio of the second chord step of a refit start to the first at
#: which the start keeps the point they reach (_Predictor.refine)
_CHORD_CONTRACTION = 0.1


def mle_reconstruct(records) -> MleResult:
    """Maximum-likelihood state fit over the triangular parameterization.

    Deterministic for given records.  The damped Newton fit of _mle_fits
    starts from the linear inversion (see _pivoted_starts); after
    _MLE_MAX_ITER steps in all, or when a line search fails, the last
    iterate is returned with converged=False.
    """
    n = _count_table(records)[None]
    fit = _mle_fits(n, *_pivoted_starts(_inversion(n)))
    values = (getattr(fit, f.name)[0] for f in fields(MleResult))
    return MleResult(*(value.item() if value.ndim == 0 else value for value in values))


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
    from scipy.linalg import lapack

    rho = project_to_physical(rho, floor=_MLE_START_FLOOR)
    factors = [lapack.zpstrf(state, lower=1) for state in rho]  # (L, 1-based p, rank, info)
    if any(rank < 4 for _, _, rank, _ in factors):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    orders = np.array([pivots[::-1] - 1 for _, pivots, _, _ in factors])
    t = dagger(np.tril([chol for chol, _, _, _ in factors]))[:, ::-1, ::-1]
    return orders, (t.reshape(-1, 1, 16) @ _X_OF_T)[:, 0].real


def _mle_fits(n: np.ndarray, orders: np.ndarray, x: np.ndarray, predictor: _Predictor | None = None) -> MleResult:
    """Maximum-likelihood fits of (R, 36) counts n; one MleResult of arrays over the R fits, in input order.

    Fit r starts from the parameters x[r] in the basis order orders[r], or,
    with the predictor whose starts gave orders and x, from
    predictor.refine of them.  Each pass runs _newton_fit on the fits still
    running, in stacks of at most _FIT_STACK fits of one order, all in one
    _Work, which the first pass's refine shares.  A fit still
    running after _MLE_REPIVOT_STEPS steps starts again from its current
    state through _pivoted_starts, and so on until it stops or has taken
    _MLE_MAX_ITER steps in all (n_iter), with log_likelihood_gain counted
    from its first start.  A fit's course depends on its own counts and
    start alone.
    """
    n = np.asarray(n, dtype=float)
    out = MleResult(np.empty((len(n), 4, 4), dtype=complex), np.empty(len(n)), np.empty(len(n), dtype=bool),
                    np.empty(len(n), dtype=int), np.empty(len(n)), np.empty(len(n)))
    work = _Work.empty(min(len(n), _FIT_STACK))
    todo, steps = np.arange(len(n)), 0
    while todo.size:
        if steps:
            orders, x = _pivoted_starts(out.rho[todo])
        budget = min(_MLE_REPIVOT_STEPS, _MLE_MAX_ITER - steps)
        keys = orders @ (64, 16, 4, 1)
        for key in np.unique(keys):
            same = np.flatnonzero(keys == key)
            forms = _forms(tuple(orders[same[0]]))
            for lo in range(0, len(same), _FIT_STACK):
                stack = same[lo:lo + _FIT_STACK]
                rows = todo[stack]
                start = x[stack] if predictor is None or steps else predictor.refine(n[rows], x[stack], forms, work)
                fit = _newton_fit(n[rows], start, forms, budget, work)
                for f in fields(MleResult):
                    getattr(out, f.name)[rows] = getattr(fit, f.name)
        if steps:
            out.n_iter[todo] += steps
            out.log_likelihood_gain[todo] = out.log_likelihood[todo] - start_ll[todo]
        else:
            start_ll = out.log_likelihood - out.log_likelihood_gain
        steps += budget
        # a fit that took every step of the pass, with steps left, goes on
        todo = todo[~out.converged[todo] & (out.n_iter[todo] == steps) & (steps < _MLE_MAX_ITER)]
    return out


class _Predictor(NamedTuple):
    """Start parameters for refits of counts near the observed ones: Newton steps with the central Hessian.

    At the central parameters x (|x| = 1, in the basis order held in order)
    the projected gradient of f is linear in the counts, g(n) = n @ a, so
    the Newton step -H^-1 g(n) with the central Hessian H is n @ gain for
    gain = -a H^-1 (Le Cam's one-step estimator, 1956), the start of
    starts.  refine goes on with chord steps -g @ chord, chord = P H^-1 P
    with P the projector off x, each from the gradient g at the point the
    last one reached (the k-step estimator, Robinson 1988).
    """

    order: np.ndarray
    x: np.ndarray
    gain: np.ndarray
    chord: np.ndarray

    def starts(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(orders, x) of (R, 36) counts n: all in order, x from a vector-matrix product per fit."""
        return np.broadcast_to(self.order, (len(n), 4)), self.x + (n[:, None, :] @ self.gain)[:, 0]

    def refine(self, n: np.ndarray, x: np.ndarray, forms: _Forms, work: _Work) -> np.ndarray:
        """Starts of (m, 36) counts n from their starts x: two chord steps where they contract, else x itself.

        A fit keeps the point the steps reach when it is finite and the
        second step is at most _CHORD_CONTRACTION times the first.  forms
        are those of order, and each step costs one _q_vectors product in
        work.
        """
        total, point, norms = n.sum(axis=-1), x, []
        for _ in range(2):
            point = point / np.linalg.norm(point, axis=-1, keepdims=True)
            *_, grad = _gradient(n, total, point, forms, work)
            step = -(grad[:, None, :] @ self.chord)[:, 0]
            point = point + step
            norms.append(np.linalg.norm(step, axis=-1))
        keep = np.isfinite(point).all(axis=-1) & (norms[1] <= _CHORD_CONTRACTION * norms[0])
        return np.where(keep[:, None], point, x)


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
    # rounding along x by 1 / shift; f is constant along x, so that part
    # of each step is dropped, and a gradient away from x has its part
    # along x dropped before the solve
    off_x = np.eye(16) - np.outer(x, x)
    return _Predictor(order, x, -np.linalg.solve(hess[0], a.T).T @ off_x, off_x @ np.linalg.solve(hess[0], off_x))


# Every product below is taken per fit (a stacked matmul, an elementwise
# operation or a sum along one fit's row), never as one matrix product over
# the stack, so that a fit's arithmetic does not depend on which other fits
# share its stack.  The stack-sized ones are written into a _Work.

class _Work(NamedTuple):
    """Buffers for the stack-sized products of a Newton step on up to M fits; m fits use the first m rows.

    _mle_fits runs every pass, stack and step of a call in one, the chord
    steps of refit starts included, so that no step allocates an array of
    a few hundred KB but the factor of _shift_to_positive (see the module
    docstring).
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
        q[active], grad, hess = _derivatives(n[active], total[active], x[active], forms, work)
        step = -np.linalg.solve(hess, grad[:, :, None])[..., 0]
        decrement = -(grad * step).sum(axis=-1)  # the squared Newton decrement
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


def _gradient(n: np.ndarray, total: np.ndarray, x: np.ndarray, forms: _Forms, work: _Work):
    """(Q x, q, w, g) of the fits at (m, 16) parameters x with |x| = 1.

    Q x holds the vectors Q_k @ x (in work.qx), q the outcome traces, w the
    weights n_k / q_k (0 where n_k = 0) and g the exact gradient of f, in
    which the N log |x|^2 term is 2N x.
    """
    qx = _q_vectors(x, forms, work)
    q = _row_dot(qx, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(n > 0, n / q, 0.0)
    return qx, q, w, 2.0 * (total[:, None] * x - (w[:, None, :] @ qx)[:, 0])


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
    qx, q, w, grad = _gradient(n, total, x, forms, work)
    # H = 4 Q^T diag(w2) Q - 2 sum_k w_k Q_k + 2N (I - 2 x x^T) at |x| = 1,
    # whose x x^T part the projection removes; the powers of two scale exactly
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = np.where(n > 0, w / q, 0.0)
    np.matmul(qx.swapaxes(1, 2), np.multiply(w2[:, :, None], qx, out=work.weighted[:m]), out=hess)
    del w2  # w2 and w go before the stacked Cholesky test allocates its (m, 16, 16) factor
    hess *= 4.0
    sums_w = np.matmul(forms.sums, w[:, :, None], out=work.sums_w[:m])
    del w
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
    _shift_to_positive(hess, damping)
    return q, grad, hess


def _shift_to_positive(hess: np.ndarray, damping: np.ndarray) -> None:
    """Shift in place each of the (m, 16, 16) symmetric hess that fails a Cholesky test, by 2 (damping - v) I.

    v is the matrix's lowest eigenvalue, so its shifted lowest one is
    2 damping - v > 0.  One Cholesky factorization of the whole stack tests
    every matrix; only when it fails does the same factorization, matrix by
    matrix, find the ones to shift, so that one LAPACK build decides both.
    Its (m, 16, 16) factor is the one stack-sized array a Newton step
    allocates.
    """
    try:
        np.linalg.cholesky(hess)
        return
    except np.linalg.LinAlgError:
        bad = [i for i, h in enumerate(hess) if not _cholesky_passes(h)]
    lowest = np.linalg.eigvalsh(hess[bad])[:, 0]
    hess[bad] += (2.0 * (damping[bad] - lowest))[:, None, None] * np.eye(16)


def _cholesky_passes(h: np.ndarray) -> bool:
    """Whether np.linalg.cholesky factors h: the test that the stacked call makes of each matrix."""
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


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
    return _concurrence(*hermitian_eigen(rho))


def _concurrence(w: np.ndarray, v: np.ndarray) -> float:
    """Concurrence of rho = V diag(w) V^dag from its eigendecomposition.

    With S = diag(sqrt w) V^dag, rho = S^dag S, and Wootters' lambda_i, the
    square roots of the eigenvalues of rho (sigma_y sigma_y) rho^*
    (sigma_y sigma_y), are the singular values of the complex symmetric
    M = S (sigma_y sigma_y) S^T: the square roots of the eigenvalues of the
    Hermitian M M^dag.
    """
    s = np.sqrt(np.clip(w, 0.0, None))[..., :, None] * dagger(v)
    m = s @ _SIGMA_YY @ s.swapaxes(-1, -2)
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m @ dagger(m)), 0.0, None))
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


def _entropy_bits(w: np.ndarray) -> float:
    w = np.clip(np.real(w), 0.0, None)
    nz = w > 1e-15
    return -np.sum(np.where(nz, w * np.log2(np.where(nz, w, 1.0)), 0.0), axis=-1)


def _reduced_entropy_bits(rho: np.ndarray) -> float:
    return _entropy_bits(np.linalg.eigvalsh(partial_trace(rho, "first")))


def entropies(rho: np.ndarray) -> tuple[float, float]:
    """(full-state, reduced-state) von Neumann entropies in bits.

    Both are reported because a single quoted entanglement entropy is
    ambiguous between them; for a pure entangled state the pair is
    (0, positive).
    """
    w_full, _ = hermitian_eigen(rho)
    return _entropy_bits(w_full), _reduced_entropy_bits(rho)


def purity(rho: np.ndarray) -> float:
    return np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))


def hofmann_bounds(f_zz: float, f_xx: float) -> tuple[float, float]:
    """Process-fidelity bounds from two complementary truth-table fidelities."""
    for name, f in (("f_zz", f_zz), ("f_xx", f_xx)):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {f}")
    return max(0.0, f_zz + f_xx - 1.0), min(f_zz, f_xx)


def state_metrics(rho: np.ndarray, target: np.ndarray) -> StateMetrics:
    """Every metric of rho against target; arrays over the stack for a stack of rho.

    One eigendecomposition of each rho gives its concurrence, full entropy
    and purity.
    """
    w, v = hermitian_eigen(rho)
    return StateMetrics(
        fidelity_to_target=fidelity(rho, target),
        concurrence=_concurrence(w, v),
        entropy_full_bits=_entropy_bits(w),
        entropy_reduced_bits=_reduced_entropy_bits(rho),
        purity=np.sum(w * w, axis=-1),
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
#: most resamples of one call, whose results take 49 B each (490 MB in all)
_MAX_RESAMPLES = 10**7


def monte_carlo_metrics(records, central: MleResult, target: np.ndarray, n_resamples: int, seed: int) -> MonteCarloMetrics:
    """Poisson-resampled reconstruction spread of every state metric.

    central is the caller's mle_reconstruct(records).  Each resample
    redraws all 36 outcome counts ~ Poisson(observed), in order from one
    stream seeded by the first child of SeedSequence(seed), refits by
    maximum likelihood from a start predicted with the Hessian at
    central.rho (see _Predictor) and recomputes the metrics; means and
    sample standard deviations over the resamples whose fit converged are
    reported, and refit_iterations counts each refit's Newton steps after
    that predicted start, 0 where it already passes the decrement test.
    Raises NotConverged when more than MAX_NOT_CONVERGED_FRACTION of the
    fits did not converge.
    """
    if n_resamples < 100:
        raise ValueError(f"n_resamples must be at least 100 for a usable spread, got {n_resamples}")
    if n_resamples > _MAX_RESAMPLES:
        raise ValueError(f"n_resamples must be at most {_MAX_RESAMPLES}, got {n_resamples}")
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
        per_setting = counts.reshape(len(counts), 9, 4)
        per_setting[per_setting.sum(axis=-1) == 0] += 1  # keep the setting usable at tiny totals
        fits = _mle_fits(counts, *predictor.starts(counts), predictor)
        block = slice(lo, lo + _MC_BLOCK)
        table[block] = np.column_stack(astuple(state_metrics(fits.rho, target)))
        converged[block], iterations[block] = fits.converged, fits.n_iter
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
