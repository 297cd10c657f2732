"""Input generators and output checks that do not use the lophoton package.

Everything here is rebuilt from the conventions in the repository README:
polarization states, the CNOT mode transfer, the histogram estimator
conventions and the Gaussian-IRF decay model.  The checks raise CheckFailed
with a reason; they never import lophoton, so a fault in the program cannot
hide itself by also living in its reference.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
from scipy import special

import oracles  # tests/oracles.py: the repository's independent references

REP_PERIOD_NS = 1000.0 / 76.0
PULSE_SEP_NS = 2.0
HBAR_EV_PS = 6.582119569e-4

_SQ = 1.0 / math.sqrt(2.0)
POLARIZATION = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ, _SQ], dtype=complex),
    "A": np.array([_SQ, -_SQ], dtype=complex),
    "R": np.array([_SQ, -1j * _SQ], dtype=complex),
    "L": np.array([_SQ, 1j * _SQ], dtype=complex),
}
BASIS_LABELS = {"Z": ("H", "V"), "X": ("D", "A"), "Y": ("R", "L")}
SETTINGS = [(b1, b2) for b1 in "ZXY" for b2 in "ZXY"]
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# two-qubit states and tomography
# ---------------------------------------------------------------------------

def outcome_labels(setting):
    a1, b1 = BASIS_LABELS[setting[0]]
    a2, b2 = BASIS_LABELS[setting[1]]
    return ((a1, a2), (a1, b2), (b1, a2), (b1, b2))


def projector_stack():
    """(9, 4, 4, 4): the four product projectors of every setting."""
    out = np.zeros((9, 4, 4, 4), dtype=complex)
    for i, setting in enumerate(SETTINGS):
        for k, (s1, s2) in enumerate(outcome_labels(setting)):
            v = np.kron(POLARIZATION[s1], POLARIZATION[s2])
            out[i, k] = np.outer(v, v.conj())
    return out


PROJECTORS = projector_stack()


def outcome_probabilities(rho):
    """(9, 4) outcome probabilities of every setting."""
    p = np.real(np.einsum("skab,ba->sk", PROJECTORS, rho))
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=1, keepdims=True)


def log_likelihood(rho, counts):
    """Multinomial log-likelihood of (9, 4) counts under rho."""
    p = outcome_probabilities(rho)
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(np.clip(p[mask], 1e-300, None))))


def werner(p):
    return p * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1.0 - p) * np.eye(4) / 4.0


def product_state(label1, label2):
    v = np.kron(POLARIZATION[label1], POLARIZATION[label2])
    return np.outer(v, v.conj())


def sample_counts(rho, n_per_setting, rng):
    return np.array([rng.multinomial(n_per_setting, p) for p in outcome_probabilities(rho)])


def records_csv(counts, bad_count=None):
    """Record CSV text; bad_count replaces the first count with a literal."""
    lines = ["basis1,basis2,outcome1,outcome2,counts"]
    for i, setting in enumerate(SETTINGS):
        for k, (o1, o2) in enumerate(outcome_labels(setting)):
            value = str(int(counts[i, k]))
            if bad_count is not None and i == 0 and k == 0:
                value = bad_count
            lines.append(f"{setting[0]},{setting[1]},{o1},{o2},{value}")
    return "\n".join(lines) + "\n"


def _psd_sqrt(m):
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def uhlmann_fidelity(rho, sigma):
    s = _psd_sqrt(sigma)
    w = np.linalg.eigvalsh(s @ rho @ s)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def wootters_concurrence(rho):
    """Concurrence from the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho))."""
    yy = np.kron(_SIGMA_Y, _SIGMA_Y)
    tilde = yy @ rho.conj() @ yy
    s = _psd_sqrt(rho)
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(s @ tilde @ s), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def cnot_transfer():
    """Mode transfer of the CNOT over (control_H, control_V, target_H, target_V)."""
    t, r = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    hadamard_target = np.eye(4, dtype=complex)
    hadamard_target[2:, 2:] = np.array([[1.0, 1.0], [1.0, -1.0]]) * _SQ
    central = np.eye(4, dtype=complex)
    central[1, 1], central[1, 3], central[3, 1], central[3, 3] = t, -r, r, t
    attenuators = np.diag([t, 1.0, t, 1.0]).astype(complex)
    return hadamard_target @ attenuators @ central @ hadamard_target


def exact_bell_state(overlap):
    """Post-selected state of the A (x) V input, from the 8-mode oracle."""
    rho, prob = oracles.conditional_state_oracle(
        cnot_transfer(), POLARIZATION["A"], POLARIZATION["V"], overlap
    )
    return rho / prob


def _rho(d):
    return np.array(d["rho_real"]) + 1j * np.array(d["rho_imag"])


def check_physical(rho, tol=1e-10):
    require(np.all(np.isfinite(rho)), "rho has non-finite entries")
    require(np.max(np.abs(rho - rho.conj().T)) < tol, "rho is not Hermitian")
    require(abs(np.trace(rho).real - 1.0) < tol, "rho trace is not 1")
    require(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -tol, "rho is not PSD")


def check_mc(d, n_resamples):
    require(d.get("n_resamples") == n_resamples, f"n_resamples {d.get('n_resamples')} != {n_resamples}")
    for name, stat in d["metrics_mc"].items():
        std = stat["std"]
        require(math.isfinite(std) and std > 0.0, f"MC std of {name} is {std}")
        require(math.isfinite(stat["mean"]), f"MC mean of {name} is {stat['mean']}")


def check_bell(text, overlap, n_resamples):
    d = json.loads(text)
    rho = _rho(d)
    check_physical(rho)
    fid = float(np.real(PSI_MINUS.conj() @ rho @ PSI_MINUS))
    require(abs(d["metrics"]["fidelity_to_target"] - fid) < 1e-9, "fidelity != <psi-|rho|psi->")
    conc = wootters_concurrence(rho)
    require(abs(d["metrics"]["concurrence"] - conc) < 1e-6, f"concurrence {d['metrics']['concurrence']} != {conc}")
    exact = uhlmann_fidelity(rho, exact_bell_state(overlap))
    require(exact >= 0.999, f"fidelity to the exact post-selected state {exact:.6f} < 0.999")
    if overlap == 1.0:
        h = d["hofmann"]
        require(abs(h["f_zz"] - 1.0) < 1e-12 and abs(h["f_xx"] - 1.0) < 1e-12, f"f_zz={h['f_zz']} f_xx={h['f_xx']} at overlap 1")
    check_mc(d, n_resamples)


def check_reconstruct(text, counts, true_rho, n_resamples):
    d = json.loads(text)
    rho = _rho(d)
    check_physical(rho)
    ll = log_likelihood(rho, counts)
    reported = d["log_likelihood"]
    require(abs(reported - ll) <= 1e-8 * abs(ll) + 1e-8, f"log-likelihood {reported} != recomputed {ll}")
    ll_true = log_likelihood(true_rho, counts)
    require(reported >= ll_true - 1e-8 * abs(ll_true), f"MLE log-likelihood {reported} below the generating state's {ll_true}")
    check_mc(d, n_resamples)


# ---------------------------------------------------------------------------
# coincidence histograms (README estimator conventions)
# ---------------------------------------------------------------------------

def _laplace_cdf(x, t1_ps):
    return np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0.0) / t1_ps), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / t1_ps))


def histogram(kind, value, t1_ps, total_counts, rng, *, bin_width_ps, n_side,
              background_per_bin, tau_offset_ps=0.0):
    """Poisson histogram CSV text and sidecar metadata.

    kind "g2": repetition peaks of weight 1, the central one scaled by
    value.  kind "hom": clusters (1, 2, 1) at (-dt, 0, +dt) around every
    repetition peak, and (1, (1 - value)/2, 1) around zero, so that
    1 - A0 / (half the satellite mean) equals value.  Peaks are two-sided
    exponentials; each bin holds the exact integral of the peak density.
    """
    rep_ps = REP_PERIOD_NS * 1000.0
    nbins = int(math.ceil((2 * n_side + 1) * rep_ps / bin_width_ps))
    taus = (np.arange(nbins) - (nbins - 1) / 2.0) * bin_width_ps + tau_offset_ps
    peaks = []
    for k in range(-n_side, n_side + 1):
        if kind == "g2":
            peaks.append((k * rep_ps, value if k == 0 else 1.0))
        else:
            sep = PULSE_SEP_NS * 1000.0
            peaks += [(k * rep_ps - sep, 1.0), (k * rep_ps, 2.0 if k else 0.5 * (1.0 - value)), (k * rep_ps + sep, 1.0)]
    weight = total_counts / sum(w for _, w in peaks)
    lo, hi = taus - 0.5 * bin_width_ps, taus + 0.5 * bin_width_ps
    lam = np.full(nbins, float(background_per_bin))
    for center, w in peaks:
        lam += weight * w * (_laplace_cdf(hi - center, t1_ps) - _laplace_cdf(lo - center, t1_ps))
    counts = rng.poisson(lam)
    rows = "\n".join(f"{t!r},{int(c)}" for t, c in zip(taus.tolist(), counts.tolist()))
    meta = {
        "bin_width_ps": bin_width_ps,
        "rep_period_ns": REP_PERIOD_NS,
        "pulse_pair_sep_ns": PULSE_SEP_NS if kind == "hom" else None,
    }
    return "tau_ps,counts\n" + rows + "\n", json.dumps(meta) + "\n"


def check_analyze(text, truth, n_sigma=5.0):
    d = json.loads(text)
    value, err = d["value"], d["error"]
    require(math.isfinite(value) and math.isfinite(err) and err > 0, f"value {value} error {err}")
    require(abs(value - truth) <= n_sigma * err, f"{d['kind']} {value} +- {err} is {abs(value - truth) / err:.1f} sigma from {truth}")


# ---------------------------------------------------------------------------
# beating decay with a Gaussian instrument response
# ---------------------------------------------------------------------------

def _exp_gauss(t, a, sigma):
    """Integral over s >= 0 of exp(-a s) N(t - s; sigma) ds, for complex a."""
    z = (a * sigma ** 2 - t) / (sigma * math.sqrt(2.0))
    return 0.5 * np.exp(-a * t + 0.5 * (a * sigma) ** 2) * special.erfc(z)


def decay_trace(t_ps, t1_ps, splitting_ueV, irf_fwhm_ps, amplitude):
    """2 A exp(-t/T1)(1 - cos(d t)) for t >= 0, convolved analytically with the IRF."""
    sigma = irf_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    delta = splitting_ueV * 1e-6 / HBAR_EV_PS
    gamma = 1.0 / t1_ps
    plain = _exp_gauss(t_ps, gamma + 0j, sigma).real
    beat = _exp_gauss(t_ps, gamma - 1j * delta, sigma).real
    return 2.0 * amplitude * (plain - beat)


def check_trpl(text, t1_ps, splitting_ueV, rel_tol=0.02):
    p = json.loads(text)["params"]
    require(abs(p["t1_ps"] / t1_ps - 1.0) <= rel_tol, f"fitted T1 {p['t1_ps']:.2f} ps vs {t1_ps:.2f} ps")
    require(abs(p["delta_ueV"] / splitting_ueV - 1.0) <= rel_tol, f"fitted splitting {p['delta_ueV']:.4f} ueV vs {splitting_ueV:.4f} ueV")


# ---------------------------------------------------------------------------
# visibility model
# ---------------------------------------------------------------------------

def oracle_visibility(temperature_K, delay_ns, params, n=1_000_000):
    """tests/oracles.py reads the parameters as attributes."""
    return oracles.trapezoid_visibility(temperature_K, delay_ns, SimpleNamespace(**params), n)


def read_curve(text):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return np.array([[float(a), float(b)] for a, b in rows])


def check_curve(text, grid, oracle_at, sample_idx, tol=1e-6):
    """Curve on the requested grid, inside [0, 1], nonincreasing, on the oracle."""
    curve = read_curve(text)
    require(curve.shape == (len(grid), 2), f"curve has shape {curve.shape}")
    require(np.allclose(curve[:, 0], grid, rtol=1e-12, atol=0.0), "curve abscissae differ from the grid")
    v = curve[:, 1]
    require(np.all((v >= 0.0) & (v <= 1.0)), "visibility outside [0, 1]")
    require(np.all(np.diff(v) <= 1e-12), f"visibility increases by up to {np.max(np.diff(v)):.3e}")
    for i in sample_idx:
        ref = oracle_at(curve[i, 0])
        require(abs(v[i] - ref) < tol, f"visibility {v[i]} at {curve[i, 0]} differs from the oracle {ref}")


def check_fit(text, truth, names, rel_tol=1e-4):
    p = json.loads(text)["params"]
    for name in names:
        require(abs(p[name] / truth[name] - 1.0) <= rel_tol, f"fitted {name} {p[name]} vs {truth[name]}")
