"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths of the package: index
loops instead of vectorized products, an enlarged-mode-space brute force
instead of the convex-mixture shortcut, fixed-grid trapezoid sums or
adaptive quadrature instead of Gauss-Legendre rules, scipy's L-BFGS-B
instead of the package's Newton fits, and LAPACK's pivoted Cholesky
instead of the package's stacked pivot search.
"""

import math

import numpy as np
from scipy import integrate, optimize
from scipy.linalg import lapack

KB_OVER_HBAR = 0.13093


def kron_oracle(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def partial_trace_oracle(rho):
    """The first qubit's state of one 4x4 two-qubit state, the second traced out entry by entry."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho[2 * i + k, 2 * j + k]
    return out


def wootters_concurrence_oracle(rho):
    """Concurrence of one 4x4 state from the eigenvalues of rho rho~, rho~ = (Y x Y) rho^* (Y x Y) (Wootters, 1998)."""
    sigma_y = np.array([[0, -1j], [1j, 0]])
    flip = kron_oracle(sigma_y, sigma_y)
    ev = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lam = sorted((math.sqrt(abs(e.real)) for e in ev), reverse=True)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def von_neumann_entropies_oracle(rho):
    """(full-state, reduced-state) entropies in bits of one 4x4 state, each from its own eigvalsh."""
    def bits(matrix):
        return -sum(p * math.log2(p) for p in np.linalg.eigvalsh(matrix) if p > 0.0)
    return bits(rho), bits(partial_trace_oracle(rho))


def conditional_state_oracle(u4, alpha, beta, overlap):
    """Post-selected two-qubit state via an 8-mode second-quantized model.

    Each photon carries an internal wavepacket label (2 extra dimensions);
    photon 2 overlaps photon 1's wavepacket with amplitude sqrt(overlap).
    The optical transfer acts as u4 (x) I2.  Labeled amplitudes evolve as a
    tensor, outcomes are symmetrized, and the internal labels are traced
    out, which derives the interference-vs-mixture behavior instead of
    assuming it.

    Returns (unnormalized 4x4 conditional density matrix, coincidence
    probability).
    """
    u8 = np.kron(u4, np.eye(2, dtype=complex))
    a = np.zeros(8, dtype=complex)
    b = np.zeros(8, dtype=complex)
    for k in range(2):
        a[2 * k] = alpha[k]
    for li, l in enumerate((2, 3)):
        b[2 * l] = np.sqrt(overlap) * beta[li]
        b[2 * l + 1] = np.sqrt(1.0 - overlap) * beta[li]
    psi = np.outer(a, b)  # labeled two-photon amplitude
    psi = u8 @ psi @ u8.T

    # unordered-pair amplitudes for one photon per output path, keeping the
    # internal labels of (control photon, target photon)
    c = np.zeros((2, 2, 2, 2), dtype=complex)  # [a, s, b-2, s']
    for ai in range(2):
        for s in range(2):
            for bi in range(2):
                for sp in range(2):
                    mu = 2 * ai + s
                    nu = 2 * (bi + 2) + sp
                    c[ai, s, bi, sp] = psi[mu, nu] + psi[nu, mu]

    rho = np.zeros((4, 4), dtype=complex)
    for ai in range(2):
        for bi in range(2):
            for aj in range(2):
                for bj in range(2):
                    val = 0.0
                    for s in range(2):
                        for sp in range(2):
                            val += c[ai, s, bi, sp] * np.conj(c[aj, s, bj, sp])
                    rho[2 * ai + bi, 2 * aj + bj] = val
    return rho, float(np.trace(rho).real)


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
#: Pauli eigenvalue of each polarization label (L is the +1 state of Y)
_EIGENSIGN = {"H": +1, "V": -1, "D": +1, "A": -1, "R": -1, "L": +1}


def linear_inversion_oracle(records):
    """Stokes linear inversion accumulated setting by setting.

    Builds the 4x4 Pauli correlation matrix s over (I, X, Y, Z) from the
    outcome frequencies, averaging each single-qubit expectation over the
    three settings that measure it, then sums s[a, b] (P_a x P_b) / 4.
    """
    s = np.zeros((4, 4))
    s[0, 0] = 1.0
    idx = {"I": 0, "X": 1, "Y": 2, "Z": 3}
    ones = np.zeros((4, 2))  # accumulators for single-qubit terms: (sum, n)
    twos = np.zeros((4, 2))
    for rec in records:
        b1, b2 = rec.basis1, rec.basis2
        f = rec.counts / rec.counts.sum()
        sign1 = np.array([_EIGENSIGN[o[0]] for o in rec.outcome_labels])
        sign2 = np.array([_EIGENSIGN[o[1]] for o in rec.outcome_labels])
        s[idx[b1], idx[b2]] = float(np.sum(sign1 * sign2 * f))
        ones[idx[b1]] += (float(np.sum(sign1 * f)), 1.0)
        twos[idx[b2]] += (float(np.sum(sign2 * f)), 1.0)
    for b in "XYZ":
        s[idx[b], 0] = ones[idx[b], 0] / ones[idx[b], 1]
        s[0, idx[b]] = twos[idx[b], 0] / twos[idx[b], 1]
    rho = np.zeros((4, 4), dtype=complex)
    for a, pa in _PAULI.items():
        for b, pb in _PAULI.items():
            rho += s[idx[a], idx[b]] * kron_oracle(pa, pb)
    return rho / 4.0


def trace_loop_probabilities(rho, projectors):
    """Outcome probabilities setting by setting, one trace per projector.

    projectors is (settings, outcomes, d, d); each setting's traces are
    clipped at 0 and normalized to sum to 1.
    """
    table = []
    for setting in projectors:
        probs = np.array([float(np.real(np.trace(rho @ pi))) for pi in setting])
        probs = np.clip(probs, 0.0, None)
        table.append(probs / probs.sum())
    return np.array(table)


def log_likelihood_oracle(counts, probs):
    """Sum of n log p over the outcomes with n > 0, rounded once by math.fsum.

    counts and probs are matching sequences of per-setting rows; p is
    floored at 1e-300.
    """
    return math.fsum(
        n * math.log(max(p, 1e-300))
        for row_n, row_p in zip(counts, probs)
        for n, p in zip(row_n, row_p)
        if n > 0
    )


def _lower_triangular(params):
    """4x4 lower-triangular T: params holds the diagonal, then (re, im) of each entry below it, row by row."""
    t = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        t[i, i] = params[i]
    k = 4
    for r in range(4):
        for c in range(r):
            t[r, c] = params[k] + 1j * params[k + 1]
            k += 2
    return t


def _params_of(t):
    out = [t[i, i].real for i in range(4)]
    for r in range(4):
        for c in range(r):
            out += [t[r, c].real, t[r, c].imag]
    return np.array(out)


def lbfgsb_log_likelihood(counts, projectors, rho0, ftol, restarts=0):
    """Largest multinomial log-likelihood found by scipy L-BFGS-B over rho = T^dag T / Tr(T^dag T).

    counts are the 36 counts of the 36 projectors (9 settings of 4, each
    four summing to the identity); the fit starts from the lower-triangular
    T with T^dag T = rho0 (positive definite).  Each objective is divided by
    the total count, with traces floored at 1e-12, and stops at the given
    ftol with gtol 1e-12.  Up to `restarts` more runs start from the last
    result, until one gains nothing.
    """
    counts = np.asarray(counts, dtype=float)
    pis = np.asarray(projectors).reshape(36, 4, 4)
    total = counts.sum()
    flip = np.fliplr(np.eye(4))
    start = _params_of((flip @ np.linalg.cholesky(flip @ rho0 @ flip) @ flip).conj().T)

    def objective(params):
        t = _lower_triangular(params)
        a = t.conj().T @ t
        tr_a = np.trace(a).real
        q = np.maximum(np.array([np.trace(a @ pi).real for pi in pis]), 1e-12)
        value = total * np.log(tr_a) - float(np.sum(counts * np.log(q)))
        g = total / tr_a * np.eye(4) - np.sum((counts / q)[:, None, None] * pis, axis=0)
        return value / total, _params_of(2.0 * (t @ g)) / total

    def run(params):
        return optimize.minimize(objective, params, jac=True, method="L-BFGS-B",
                                 options={"maxiter": 10_000, "maxfun": 100_000, "ftol": ftol, "gtol": 1e-12})

    best = run(start)
    for _ in range(restarts):
        again = run(best.x)
        if not again.fun < best.fun:
            break
        best = again
    return -float(best.fun) * total


def ordered_params(rho, order):
    """Parameters (as _lower_triangular reads them) of the lower-triangular T with T^dag T = rho[order][:, order].

    rho must be positive definite.  T is found column by column from the
    last one: (T^dag T)[j, i] = sum over k >= j of conj(T[k, j]) T[k, i] for
    i <= j, with T[j, j] real and positive.
    """
    a = np.array([[rho[r, c] for c in order] for r in order])
    t = np.zeros((4, 4), dtype=complex)
    for j in range(3, -1, -1):
        t[j, j] = math.sqrt((a[j, j] - sum(abs(t[k, j]) ** 2 for k in range(j + 1, 4))).real)
        for i in range(j):
            t[j, i] = (a[j, i] - sum(t[k, j].conjugate() * t[k, i] for k in range(j + 1, 4))) / t[j, j]
    return _params_of(t)


def lapack_pivots(rho):
    """(0-based pivot order, rank) of LAPACK's pivoted Cholesky zpstrf of a Hermitian PSD matrix, at its default tolerance."""
    _, piv, rank, info = lapack.zpstrf(rho, lower=1)
    assert info >= 0
    return piv - 1, rank


# ---------------------------------------------------------------------------
# trapezoid quadrature for the visibility model
# ---------------------------------------------------------------------------

def trapezoid_fc_factor(temperature_K, p, n=1_000_000):
    """Franck-Condon factor by fixed-grid trapezoid integration."""
    vc = p.v_c_inv_ps
    v = np.linspace(0.0, 8.0 * vc, n)
    integrand = v * np.exp(-((v / vc) ** 2))
    if temperature_K > 0:
        kt = KB_OVER_HBAR * temperature_K
        coth = np.ones_like(v)
        coth[1:] = 1.0 / np.tanh(v[1:] / (2.0 * kt))
        integrand = integrand * coth
        integrand[0] = 2.0 * kt
    return float(np.exp(-0.5 * p.alpha_ps2 * np.trapezoid(integrand, v)))


def trapezoid_vp_rate(temperature_K, p, n=1_000_000):
    """Virtual-phonon dephasing rate by fixed-grid trapezoid integration."""
    if temperature_K <= 0:
        return 0.0
    vc = p.v_c_inv_ps
    kt = KB_OVER_HBAR * temperature_K
    upper = 8.0 * vc * max(1.0, np.sqrt(kt / vc))
    v = np.linspace(0.0, upper, n)
    occ = np.zeros_like(v)
    with np.errstate(over="ignore"):  # the occupation is 0 beyond v = 709 kT
        occ[1:] = 1.0 / np.expm1(v[1:] / kt)
    integrand = v ** 10 * np.exp(-2.0 * ((v / vc) ** 2)) * occ * (occ + 1.0)
    return float(p.alpha_ps2 ** 2 * p.mu_ps2 / vc ** 4 * np.trapezoid(integrand, v))


def _visibility(fc_factor, vp_rate, delay_ns, p):
    """The visibility model from the Franck-Condon factor and the virtual-phonon rate."""
    gamma_half = 0.5 / p.T1_ps
    b2 = fc_factor ** 2
    side = 1.0 if p.F == 0 else (b2 / (b2 + p.F * (1.0 - b2))) ** 2  # B^2 may underflow to 0
    g_sd = p.Gamma_sd_inv_ps * (1.0 - np.exp(-((delay_ns / p.tau_c_ns) ** 2)))
    return float(gamma_half / (gamma_half + vp_rate + g_sd) * side)


def trapezoid_visibility(temperature_K, delay_ns, p, n=1_000_000):
    return _visibility(trapezoid_fc_factor(temperature_K, p, n), trapezoid_vp_rate(temperature_K, p, n), delay_ns, p)


# ---------------------------------------------------------------------------
# adaptive quadrature for the visibility model
# ---------------------------------------------------------------------------

def _quad(f, upper):
    return integrate.quad(f, 0.0, upper, epsabs=1e-300, epsrel=1e-12, limit=500)[0]


def quad_fc_factor(temperature_K, p):
    """Franck-Condon factor by adaptive quadrature of v coth(v/2kT) on [0, 8 v_c]."""
    vc = p.v_c_inv_ps
    kt = KB_OVER_HBAR * temperature_K

    def integrand(v):
        if v <= 0:
            return 2.0 * kt  # v coth(v/2kT) -> 2kT
        return v * np.exp(-((v / vc) ** 2)) / np.tanh(v / (2.0 * kt))

    return float(np.exp(-0.5 * p.alpha_ps2 * _quad(integrand, 8.0 * vc)))


def quad_vp_rate(temperature_K, p):
    """Virtual-phonon dephasing rate by adaptive quadrature on [0, 8 v_c max(1, sqrt(kT/v_c))]."""
    vc = p.v_c_inv_ps
    kt = KB_OVER_HBAR * temperature_K

    def integrand(v):
        x = v / kt
        if v <= 0 or x > 700.0:  # the occupation underflows
            return 0.0
        n = 1.0 / np.expm1(x)
        return v ** 10 * np.exp(-2.0 * (v / vc) ** 2) * n * (n + 1.0)

    upper = 8.0 * vc * max(1.0, np.sqrt(kt / vc))
    return float(p.alpha_ps2 ** 2 * p.mu_ps2 / vc ** 4 * _quad(integrand, upper))


def quad_visibility(temperature_K, delay_ns, p):
    """Visibility at T > 0 from the adaptive-quadrature rates."""
    return _visibility(quad_fc_factor(temperature_K, p), quad_vp_rate(temperature_K, p), delay_ns, p)


# named like the package's exceptions, so that a test can compare the two by name
class WindowOverlap(ValueError):
    pass


class NoSidePeaks(ValueError):
    pass


class UnresolvedCluster(ValueError):
    pass


def integrate_peaks_oracle(h, window_ps):
    """Peak integration with one full-length mask per center.

    Centers come from a loop over repetitions k and pulse-pair offsets,
    the background from a bins x centers distance matrix.  Returns
    (center, area, raw counts) per peak in order of center.
    """
    if not window_ps > 0:
        raise ValueError(f"window_ps must be positive, got {window_ps}")
    rep_ps = h.rep_period_ns * 1000.0
    if not window_ps < rep_ps / 2.0:
        raise ValueError("window must be smaller than half the repetition period")
    tau_min, tau_max = h.taus_ps[0], h.taus_ps[-1]
    if max(abs(tau_min), abs(tau_max)) > rep_ps * len(h.taus_ps):
        raise ValueError("histogram reaches more repetition periods from tau = 0 than it has bins")
    offsets = [0.0]
    if h.pulse_pair_sep_ns is not None:
        sep_ps = h.pulse_pair_sep_ns * 1000.0
        offsets = [-sep_ps, 0.0, sep_ps]
    kmax = int(np.floor(max(abs(tau_min), abs(tau_max)) / rep_ps))
    centers = []
    for k in range(-kmax, kmax + 1):
        for off in offsets:
            c = k * rep_ps + off
            if tau_min <= c <= tau_max:
                centers.append(c)
    centers = sorted(centers)
    gaps = np.diff(centers)
    if len(gaps) and gaps.min() < 2.0 * window_ps:
        raise WindowOverlap("windows overlap")

    dist = np.min(np.abs(h.taus_ps[:, None] - np.asarray(centers)[None, :]), axis=1)
    outside = dist > window_ps
    background = float(np.median(h.counts[outside])) if outside.any() else 0.0
    out = []
    for c in centers:
        mask = np.abs(h.taus_ps - c) <= window_ps
        raw = float(h.counts[mask].sum())
        out.append((c, max(raw - background * int(mask.sum()), 0.0), raw))
    return out


def _on_repetition(center, rep_ps):
    k = round(center / rep_ps)
    return abs(center - k * rep_ps) < 1e-6 * rep_ps + 1e-9


def g2_zero_oracle(h, window_ps):
    """g2 with the peaks told apart by their float positions.

    Repetition peaks lie within 1e-6 of a period of a multiple of it, and
    the central one within half a bin of tau = 0.  A zero side-peak mean is
    a ValueError, as in the package.
    """
    rep_peaks = [p for p in integrate_peaks_oracle(h, window_ps) if _on_repetition(p[0], h.rep_period_ns * 1000.0)]
    central = [p for p in rep_peaks if abs(p[0]) < 0.5 * h.bin_width_ps]
    sides = [p for p in rep_peaks if abs(p[0]) >= 0.5 * h.bin_width_ps]
    if len(sides) < 3:
        raise NoSidePeaks(f"need >= 3 side peaks, found {len(sides)}")
    if not central:
        raise ValueError("no central peak inside the histogram")
    (_, a0, var0) = central[0]
    side_mean = float(np.mean([p[1] for p in sides]))
    if side_mean <= 0:
        raise ValueError("side-peak area is zero")
    var_side_mean = float(np.sum([p[2] for p in sides])) / len(sides) ** 2
    sigma = np.sqrt(var0 / side_mean ** 2 + (a0 * np.sqrt(var_side_mean) / side_mean ** 2) ** 2)
    return a0 / side_mean, float(sigma)


def hom_visibility_oracle(h, window_ps):
    """Visibility with the satellites found within half a bin of +-delta_t."""
    if h.pulse_pair_sep_ns is None:
        raise ValueError("histogram has no pulse_pair_sep_ns metadata")
    sep_ps = h.pulse_pair_sep_ns * 1000.0
    if sep_ps < 3.0 * h.bin_width_ps:
        raise UnresolvedCluster("unresolved")
    peaks = integrate_peaks_oracle(h, window_ps)
    central = next((p for p in peaks if abs(p[0]) < 0.5 * h.bin_width_ps), None)
    if central is None:
        raise ValueError("no central peak inside the histogram")
    satellites = [p for p in peaks if abs(abs(p[0]) - sep_ps) < 0.5 * h.bin_width_ps]
    if len(satellites) != 2:
        raise ValueError(f"expected the two +-delta_t satellites, found {len(satellites)}")
    a_ref = 0.5 * float(np.mean([p[1] for p in satellites]))
    if a_ref <= 0:
        raise ValueError("reference area is zero")
    var_ref = 0.25 * float(np.sum([p[2] for p in satellites])) / len(satellites) ** 2
    sigma = np.sqrt(central[2] / a_ref ** 2 + (central[1] / a_ref ** 2) ** 2 * var_ref)
    return float(1.0 - central[1] / a_ref), float(sigma)


def convolved_decay(t_ps, t1_ps, delta_inv_ps, amplitude, irf_fwhm_ps, step_ps):
    """2 A exp(-s/T1) (1 - cos(delta s)) for s >= 0, zero before, convolved with
    a unit-area Gaussian of full width irf_fwhm_ps at half maximum.

    Each value is a trapezoid sum, point by point, with a step of at most
    step_ps over [max(0, t - 9 sigma), t + 9 sigma]: the decay is zero below
    s = 0, and beyond 9 sigma the Gaussian is under e^-40 of its peak.
    irf_fwhm_ps = 0 gives the decay itself.
    """
    def decay(s):
        return 2.0 * amplitude * np.exp(-s / t1_ps) * (1.0 - np.cos(delta_inv_ps * s))

    t = np.asarray(t_ps, dtype=float)
    if irf_fwhm_ps == 0:
        return np.where(t > 0, decay(np.maximum(t, 0.0)), 0.0)
    sigma = irf_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    out = np.zeros(t.shape)
    for i, ti in enumerate(t):
        lo, hi = max(0.0, ti - 9.0 * sigma), ti + 9.0 * sigma
        if hi <= lo:
            continue
        n = math.ceil((hi - lo) / step_ps)
        s = np.linspace(lo, hi, n + 1)
        f = decay(s) * np.exp(-0.5 * ((ti - s) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        out[i] = (hi - lo) / n * (f.sum() - 0.5 * (f[0] + f[-1]))
    return out
