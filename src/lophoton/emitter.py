"""Emitter physics: beating decay profile, oscillator strength, and the
temperature/delay dependence of two-photon interference visibility.

Units convention:
  * time in picoseconds, rates in 1/ps (tau_c and pulse delays in ns where
    noted, since spectral diffusion lives on a much slower scale);
  * the phonon integration variable v is an angular frequency in 1/ps;
  * temperature enters through k_B/hbar = 0.13093 (1/ps)/K, baked in below;
  * fine-structure splittings quoted in ueV convert via hbar = 6.582e-4 eV ps.

The visibility model combines a Lorentzian coherence factor
(Gamma/2) / (Gamma/2 + gamma_virtual + gamma_diffusion) with the squared
filtered zero-phonon-line weight [B^2 / (B^2 + F (1 - B^2))]^2, where B is
the Franck-Condon factor of a super-ohmic phonon coupling with Gaussian
cutoff.  The virtual-phonon integrand uses the squared cutoff
exp(-2 v^2 / v_c^2), as required by its (v^5)^2 matrix-element structure.
tpi_visibility evaluates this model for scalars or arrays, which
broadcast.  The two phonon integrals are fixed Gauss-Legendre sums,
evaluated over blocks of up to 64 temperatures at a time: 64 nodes for the
thermal part of the Franck-Condon exponent (its vacuum part is
closed-form) and 128 for the virtual-phonon rate, both on ranges capped at
80 kT.  The rules are built once per process by Newton's method on the
Legendre recurrence, not by numpy's leggauss, whose dense eigensolve is
slower and less accurate (see _gauss_legendre); against the adaptive
quadratures of tests/oracles.py both sums agree to 3e-14 relative from
0.1 to 300 K, for the two couplings a test pins.  The curve fits use the exact
Jacobian of these sums: the vs_temperature fit computes the sums and their
v_c derivatives in one pass over the same blocks, and the vs_delay fit
evaluates the two phonon factors once, since they do not depend on its
free parameters.  tpi_visibility and both fits share one private
evaluator, _visibility.  Both fits run SciPy's dogbox, capped at
_DOGBOX_MAX_NFEV evaluations, to propose the start of the bounded trf
solve that decides the fit: with an optimum inside the bounds that takes
about 7 evaluations where trf alone takes 20-40, and where dogbox ends on
a bound or at its cap trf runs from the fit's own start (see
fit_visibility_curve).
trpl_model is the decay convolved with a Gaussian IRF in closed form
(Faddeeva function); fit_trpl uses its exact Jacobian and trf alone.
SciPy is imported where a fit first needs it, so a process that runs no
fit does not load it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import io

#: k_B / hbar in (1/ps) per kelvin
KB_OVER_HBAR = 0.13093
#: hbar in eV ps
HBAR_EV_PS = 6.582119569e-4
#: CODATA 2022 values in SI units: speed of light (m/s), vacuum permittivity
#: (F/m), electron mass (kg) and elementary charge (C)
SPEED_OF_LIGHT = 299792458.0
EPSILON_0 = 8.8541878188e-12
ELECTRON_MASS = 9.1093837139e-31
ELEMENTARY_CHARGE = 1.602176634e-19


class FitDiverged(RuntimeError):
    """Least squares terminated without converging."""


class NonFiniteStart(ValueError):
    """The squared residuals of a fit overflow at its start point."""


def fss_ueV_to_inv_ps(ueV: float) -> float:
    """Fine-structure splitting: micro-eV to angular frequency in 1/ps."""
    return ueV * 1e-6 / HBAR_EV_PS


def inv_ps_to_ueV(omega: float) -> float:
    return omega * HBAR_EV_PS * 1e6


def wavelength_nm_to_angular_frequency(lambda_nm: float) -> float:
    """Emission wavelength in nm to angular frequency in rad/s."""
    return 2.0 * np.pi * SPEED_OF_LIGHT / (lambda_nm * 1e-9)


@dataclass(frozen=True)
class DecayParams:
    """Lifetime and fine-structure beat frequency of the emitter."""

    t1_ps: float
    delta_inv_ps: float

    def __post_init__(self):
        if not self.t1_ps > 0:
            raise ValueError("t1_ps must be positive")
        if not self.delta_inv_ps >= 0:
            raise ValueError("delta_inv_ps must be nonnegative")

    @property
    def beat_period_ps(self) -> float:
        """Period of the self-interference oscillation, 2*pi/delta."""
        if self.delta_inv_ps == 0:
            return np.inf
        return 2.0 * np.pi / self.delta_inv_ps


@dataclass(frozen=True)
class DephasingParams:
    """Parameters of the visibility model; field names carry the units."""

    alpha_ps2: float = 0.0055
    v_c_inv_ps: float = 4.9
    mu_ps2: float = 2.2e-3
    F: float = 0.3
    T1_ps: float = 350.0
    Gamma_sd_inv_ps: float = 0.0
    tau_c_ns: float = 350.0

    def __post_init__(self):
        if not (self.alpha_ps2 >= 0 and self.mu_ps2 >= 0 and self.Gamma_sd_inv_ps >= 0):
            raise ValueError("coupling parameters must be nonnegative")
        if not (self.v_c_inv_ps > 0 and self.T1_ps > 0 and self.tau_c_ns > 0):
            raise ValueError("v_c_inv_ps, T1_ps and tau_c_ns must be positive")
        if not 0.0 <= self.F <= 1.0:
            raise ValueError("F must lie in [0, 1]")

    def replace(self, **kw) -> "DephasingParams":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class OscillatorInputs:
    """Inputs for the emission-rate-based oscillator strength."""

    t1_ps: float
    omega_rad_per_s: float
    refractive_index: float = 3.5
    purcell_factor: float = 1.0

    def __post_init__(self):
        for name in ("t1_ps", "omega_rad_per_s", "refractive_index", "purcell_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# time-resolved decay profile
# ---------------------------------------------------------------------------

def _irf_decay(t, a, sigma):
    """E = Int_0^inf e^(-a s) N(t - s; sigma) ds and (a sigma^2 - t) E, for complex a with Re a > 0.

    E = (1/2) exp(a^2 sigma^2 / 2 - a t) erfc(z) with z = (a sigma^2 - t) / (sigma sqrt 2).
    Through w(x) = exp(-x^2) erfc(-i x), bounded on the upper half plane, E is
    (1/2) g w(i z) with g = exp(-t^2 / 2 sigma^2) where Re z >= 0, and
    exp(a^2 sigma^2 / 2 - a t) - (1/2) g w(-i z), an exponential of real part
    <= 0, elsewhere: no factor overflows, so no inf * 0 arises.  sigma = 0
    gives theta(t) e^(-a t), with theta(0) = 1.  dE/da is (a sigma^2 - t) E
    - sigma g / sqrt(2 pi); the last term does not depend on a, so it cancels
    from the partials of any difference of E at two rates, and is left out.
    x = t / sigma is +-inf where it passes the float range, as at sigma = 0,
    and g takes |x| capped at 40, where e^(-x^2 / 2) is already 0, so the
    square cannot overflow.
    """
    from scipy import special

    if sigma > 0:
        with np.errstate(over="ignore"):
            x = t / sigma
    else:
        x = np.copysign(np.inf, t)
    re_z = (a.real * sigma - x) / np.sqrt(2.0)
    up = re_z >= 0
    # sign(Re z) i z, built by parts: at sigma = 0, i * inf would give a NaN real part
    arg = np.where(up, -1.0, 1.0) * a.imag * sigma / np.sqrt(2.0) + 0j
    arg.imag = np.abs(re_z)
    g = np.exp(-0.5 * np.minimum(np.abs(x), 40.0) ** 2)
    tail = 0.5 * (a * sigma) ** 2 - a * t
    e = np.where(up, 0.5, -0.5) * g * special.wofz(arg) + np.exp(tail, out=np.zeros_like(tail), where=~up)
    return e, (a * sigma ** 2 - t) * e


def _trpl(t, t1_ps, delta_inv_ps, amplitude, irf_fwhm_ps):
    """trpl_model at (T1, delta, A) and its partials in (T1, delta, A) on a trailing axis.

    The model is 2 A [E(gamma) - Re E(gamma - i delta)] with gamma = 1/T1 and
    E = _irf_decay, evaluated for both rates in one pass.
    """
    if not irf_fwhm_ps >= 0:
        raise ValueError(f"irf_fwhm_ps must be >= 0, got {irf_fwhm_ps}")
    sigma = irf_fwhm_ps / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    gamma = 1.0 / t1_ps
    e, de = _irf_decay(t[..., None], np.array([gamma, gamma - 1j * delta_inv_ps]), sigma)
    shape = 2.0 * (e[..., 0].real - e[..., 1].real)
    d_gamma = 2.0 * amplitude * (de[..., 0].real - de[..., 1].real)
    return amplitude * shape, np.stack([-d_gamma / t1_ps ** 2, -2.0 * amplitude * de[..., 1].imag, shape], axis=-1)


def trpl_model(t_ps, p: DecayParams, amplitude: float, irf_fwhm_ps: float = 0.0):
    """Decay profile scaled by an amplitude and blurred by a Gaussian IRF.

    irf_fwhm_ps is the full width at half maximum of the instrument
    response, convolved in closed form at any time span; zero means none.
    """
    return _trpl(np.asarray(t_ps, dtype=float), p.t1_ps, p.delta_inv_ps, amplitude, irf_fwhm_ps)[0]


def _least_squares(model, x0, x, y, point, dogbox_nfev=0, **options):
    """optimize.least_squares of model(vec)[0] - y from x0 with the Jacobian
    model(vec)[1], which it asks for at the point it evaluated last, so the
    last evaluation is kept; returns the solution and its rms residual.

    With dogbox_nfev > 0 a dogbox solve with the same options, capped at
    dogbox_nfev evaluations, runs first; when it converges strictly inside
    options["bounds"], the trf solve starts from its solution instead of x0.
    The trf solve alone decides the result.  Raises NonFiniteStart when the
    squared residuals overflow at x0, naming the sample of largest |y|
    through the format string point, and FitDiverged when the trf solve
    stops without converging.
    """
    from scipy import optimize

    at = lru_cache(maxsize=1)(lambda key: model(np.frombuffer(key)))
    with np.errstate(over="ignore"):
        r0 = at(x0.tobytes())[0] - y
        start_finite = np.isfinite(r0 @ r0)
    if not start_finite:
        i = int(np.argmax(np.abs(y)))
        raise NonFiniteStart(point.format(x=float(x[i]), y=float(y[i])) + ": the squared residuals overflow")

    def residuals(vec):
        return at(vec.tobytes())[0] - y

    def jacobian(vec):
        return at(vec.tobytes())[1]

    if dogbox_nfev:
        # where dogbox walks onto a bound its products with the Jacobian can
        # overflow; its point is only a proposal, which trf confirms or drops
        with np.errstate(all="ignore"):
            probe = optimize.least_squares(residuals, x0, jac=jacobian, method="dogbox",
                                           **{**options, "max_nfev": dogbox_nfev})
        lo, hi = options["bounds"]
        if probe.status > 0 and np.all((lo < probe.x) & (probe.x < hi)):
            x0 = probe.x
    res = optimize.least_squares(residuals, x0, jac=jacobian, **options)
    if res.status <= 0:
        raise FitDiverged(f"least_squares status {res.status}: {res.message}")
    return res.x, float(np.sqrt(np.mean(res.fun ** 2)))


#: fit_trpl's starting point when no init is given
TRPL_START = DecayParams(t1_ps=350.0, delta_inv_ps=fss_ueV_to_inv_ps(6.4))


@dataclass(frozen=True)
class TrplFit:
    params: DecayParams
    amplitude: float
    rms_residual: float


def fit_trpl(t_ps, intensity, irf_fwhm_ps: float = 75.0, init: DecayParams | None = None) -> TrplFit:
    """Least-squares fit of the beating decay model to a measured trace.

    Free parameters are (T1, splitting, amplitude), fitted with the model's
    exact Jacobian; the instrument response width is supplied, not fitted.
    Requires at least 20 samples spanning at least twice the initial T1.
    """
    t = np.asarray(t_ps, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and intensity must be equal-length 1-D arrays")
    if t.size < 20:
        raise ValueError(f"need >= 20 samples, got {t.size}")
    p0 = init or TRPL_START
    if t.max() - t.min() < 2.0 * p0.t1_ps:
        raise ValueError("samples must span at least twice the initial T1")

    scale = max(float(y.max()), 1e-30)
    x0 = np.array([p0.t1_ps, p0.delta_inv_ps, 0.5 * scale])
    best, rms = _least_squares(
        lambda vec: _trpl(t, *vec, irf_fwhm_ps), x0, t, y, "intensity {y!r} at t = {x!r} ps",
        bounds=([1e-3, 0.0, 0.0], [np.inf, np.inf, np.inf]),
        x_scale=[p0.t1_ps, max(p0.delta_inv_ps, 1e-4), scale],
        max_nfev=20000,
    )
    return TrplFit(DecayParams(best[0], best[1]), float(best[2]), rms)


# ---------------------------------------------------------------------------
# oscillator strength
# ---------------------------------------------------------------------------

def oscillator_strength(inputs: OscillatorInputs) -> float:
    """Emission rate relative to an ideal harmonic oscillator.

    f = 6 pi eps0 m0 c^3 / (n T1 F_p omega^2 e^2), CODATA constants.
    """
    t1_s = inputs.t1_ps * 1e-12
    num = 6.0 * np.pi * EPSILON_0 * ELECTRON_MASS * SPEED_OF_LIGHT ** 3
    den = (
        inputs.refractive_index
        * t1_s
        * inputs.purcell_factor
        * inputs.omega_rad_per_s ** 2
        * ELEMENTARY_CHARGE ** 2
    )
    return num / den


# ---------------------------------------------------------------------------
# phonon / spectral-diffusion visibility model
# ---------------------------------------------------------------------------

@cache
def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule, mapped to [0, 1].

    Newton's method on the Legendre polynomial P_n finds the nodes x >= 0
    of the rule on [-1, 1], which is symmetric, from x_i = cos(pi (i - 1/4)
    / (n + 1/2)) until no node moves by more than 1e-16 (4 steps for 64
    and 128 nodes).  P_n and P_n' come from the recurrence j P_j =
    (2j - 1) x P_(j-1) - (j - 1) P_(j-2), and the weights are 2 / ((1 -
    x^2) P_n'(x)^2) at the final nodes.  Built on first use, once per
    process, the two rules take 2-4 ms on a 2-core x86-64 VM, with no
    linear algebra.  numpy's leggauss solves a dense n x n eigenproblem
    instead: with OpenBLAS's default threads it took 15-24 ms there, and
    the BLAS threads it woke kept competing with the Python code after it
    for about 0.1 s.  Against a 50-digit reference its weights are off by
    up to 1.3e-12 (64 nodes) and 1.4e-11 (128 nodes) relative, these by
    5.8e-14 and 2.2e-13; the nodes, mapped to [0, 1], by under 8e-17
    either way.
    """
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, (2.0 - 1.0 / j) * x * p1 - (1.0 - 1.0 / j) * p0
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    half = (n + 1) // 2
    x = np.cos(np.pi * (np.arange(1, half + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    else:
        raise RuntimeError(f"Newton's method did not settle the {n}-point Gauss-Legendre nodes")
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # x runs down from near 1; the mirror image skips the middle node of an odd rule
    x, w = np.concatenate((-x, x[:n - half][::-1])), np.concatenate((w, w[:n - half][::-1]))
    return 0.5 * (x + 1.0), 0.5 * w


#: nodes of the fixed rules of the Franck-Condon and the virtual-phonon integral
_FC_NODES = 64
_VP_NODES = 128
#: the phonon integrals stop at this many kT, where the occupation is below e^-80
_KT_REACH = 80.0
#: temperatures per franck_condon_factor and virtual_phonon_rate call in
#: tpi_visibility; bounds the (block, nodes) temporaries
_BLOCK = 64


def _thermal_energy(temperature_K) -> np.ndarray:
    """kT in 1/ps; raises ValueError on a negative or NaN temperature."""
    t = np.asarray(temperature_K, dtype=float)
    bad = ~(t >= 0)  # also catches NaN
    if bad.any():
        raise ValueError(f"temperature must be >= 0 K, got {t[bad].flat[0]}")
    return KB_OVER_HBAR * t


def _thermal_sum(n_nodes, kt, reach, integrand, dlog_reach):
    """Int_0^min(reach, 80 kT) integrand(v, n(v)) dv by n_nodes-point Gauss-Legendre.

    The nodes v run along a trailing axis, and n(v) = 1 / (e^(v/kT) - 1) is
    the Bose occupation.  It is taken from the nodes in units of kT,
    u = v / kT <= 80, whose span min(reach / kT, 80) stays finite at kT = 0,
    where the sum is 0.

    With dlog_reach None, integrand(v, n, None, None) gives the terms and the
    sum is returned.  Otherwise dlog_reach is d ln(reach) / d v_c, and the
    exact v_c derivative of the sum comes with it.  Where reach is below
    80 kT, span = reach / kT, so the nodes move with v_c: d ln v = d ln(span)
    and d ln n = -(n + 1) u d ln(span); at the cap they stay put.
    integrand(v, n, d ln v, d ln n) gives the terms and their total
    logarithmic v_c derivatives, the explicit v_c included.
    """
    nodes, weights = _gauss_legendre(n_nodes)
    span = reach / np.maximum(kt, reach / _KT_REACH)
    u = span[..., None] * nodes
    v, n = kt[..., None] * u, 1.0 / np.expm1(u)
    # a sum per row, not a matrix product, so a row does not depend on the block around it
    if dlog_reach is None:
        return kt * span * np.sum(integrand(v, n, None, None) * weights, axis=-1)
    dlog_span = np.where(kt >= reach / _KT_REACH, dlog_reach, 0.0)[..., None]
    terms, dlog_terms = integrand(v, n, dlog_span, -(n + 1.0) * u * dlog_span)
    length = kt * span
    return (length * np.sum(terms * weights, axis=-1),
            length * np.sum(terms * (dlog_span + dlog_terms) * weights, axis=-1))


def _float_if_scalar(a):
    return float(a) if np.ndim(a) == 0 else a


def _franck_condon(kt, p, partials):
    """B per element of kt; with partials, (B, d ln B / d (alpha, v_c)) on a trailing axis."""
    vc = p.v_c_inv_ps

    def integrand(v, n, dlog_v, dlog_n):
        r2 = (v / vc) ** 2
        terms = 2.0 * v * n * np.exp(-r2)
        if dlog_v is None:
            return terms
        return terms, dlog_v + dlog_n - 2.0 * r2 * (dlog_v - 1.0 / vc)

    thermal = _thermal_sum(_FC_NODES, kt, 8.0 * vc, integrand, 1.0 / vc if partials else None)
    if not partials:
        return np.exp(-0.5 * p.alpha_ps2 * (0.5 * vc ** 2 + thermal))
    thermal, d_thermal = thermal
    exponent = 0.5 * vc ** 2 + thermal
    d_log_b = np.stack([-0.5 * exponent, -0.5 * p.alpha_ps2 * (vc + d_thermal)], axis=-1)
    return np.exp(-0.5 * p.alpha_ps2 * exponent), d_log_b


def _virtual_phonon(kt, p, partials):
    """g_vp per element of kt; with partials, (g_vp, d g_vp / d (alpha, v_c, mu)) on a trailing axis."""
    vc = p.v_c_inv_ps

    def integrand(v, n, dlog_v, dlog_n):
        r2 = (v / vc) ** 2
        terms = v ** 10 * np.exp(-2.0 * r2) * n * (n + 1.0)
        if dlog_v is None:
            return terms
        return terms, 10.0 * dlog_v + dlog_n * (2.0 * n + 1.0) / (n + 1.0) - 4.0 * r2 * (dlog_v - 1.0 / vc)

    # above kT = v_c the reach is 8 sqrt(kT v_c), so d ln(reach) / d v_c halves
    reach = 8.0 * vc * np.maximum(1.0, np.sqrt(kt / vc))
    val = _thermal_sum(_VP_NODES, kt, reach, integrand, np.where(kt > vc, 0.5, 1.0) / vc if partials else None)
    coupling = p.alpha_ps2 ** 2 * p.mu_ps2 / vc ** 4
    if not partials:
        return coupling * val
    val, d_val = val
    d_rate = [2.0 * p.alpha_ps2 * p.mu_ps2 / vc ** 4 * val, coupling * (d_val - 4.0 * val / vc),
              p.alpha_ps2 ** 2 / vc ** 4 * val]
    return coupling * val, np.stack(d_rate, axis=-1)


def franck_condon_factor(temperature_K, p: DephasingParams):
    """Zero-phonon-line weight B in (0, 1], per element of temperature_K.

    B = exp(-(alpha/2) Int_0^inf v exp(-(v/v_c)^2) coth(v / 2 kT) dv) with kT
    in 1/ps units.  coth(v / 2 kT) = 1 + 2 n(v) splits the integral: the
    vacuum part is v_c^2/2 exactly, and the thermal part
    2 v n(v) exp(-(v/v_c)^2), which vanishes at T = 0, is a 64-node
    Gauss-Legendre sum on [0, min(8 v_c, 80 kT)].  Scalar input gives a float.
    """
    return _float_if_scalar(_franck_condon(_thermal_energy(temperature_K), p, False))


def virtual_phonon_rate(temperature_K, p: DephasingParams):
    """Pure-dephasing rate from virtual phonon scattering in 1/ps, per element of temperature_K.

    (alpha^2 mu / v_c^4) Int v^10 exp(-2 (v/v_c)^2) n(v)[n(v)+1] dv with the
    Bose occupation n; identically zero at T = 0.  A 128-node
    Gauss-Legendre sum on [0, min(8 v_c max(1, sqrt(kT/v_c)), 80 kT)]: the
    reach widens with sqrt(kT/v_c) so the thermally shifted integrand stays
    covered, and the 80 kT cap keeps the nodes on the spike about kT wide
    at v = 0 that the integrand becomes at low T.  Scalar input gives a float.
    """
    return _float_if_scalar(_virtual_phonon(_thermal_energy(temperature_K), p, False))


def spectral_diffusion_rate(delay_ns, p: DephasingParams):
    """Charge-noise dephasing rate in 1/ps at photon separation delay_ns.

    Grows from zero as 1 - exp(-(delay/tau_c)^2) and saturates at the
    ceiling rate.  delay_ns may be an array.
    """
    d = np.asarray(delay_ns, dtype=float)
    bad = ~(d >= 0)  # also catches NaN
    if bad.any():
        raise ValueError(f"delay must be >= 0, got {d[bad].flat[0]}")
    return p.Gamma_sd_inv_ps * (1.0 - np.exp(-_delay_ratio_sq(d, p.tau_c_ns)))


def _delay_ratio_sq(delay_ns, tau_c_ns):
    """x^2 = (delay / tau_c)^2 of delay_ns >= 0, with the delay capped at 30 tau_c.

    Past the cap e^(-x^2) and x^2 e^(-x^2) are 0 in floating point, so the
    spectral-diffusion terms keep their exact values, and x^2 cannot
    overflow at any finite delay.
    """
    return (np.minimum(delay_ns, 30.0 * tau_c_ns) / tau_c_ns) ** 2


def _phonon_factors(temps, p, partials):
    """[g_vp, S]: the virtual-phonon rate and the sideband factor
    S = [B^2 / (B^2 + F (1 - B^2))]^2 per element of the array temps.

    franck_condon_factor and virtual_phonon_rate run once per block of
    _BLOCK temperatures.  S is exactly 1 at F = 0, also where B^2 underflows
    to 0.  With partials the sums run with their v_c derivatives, over the
    same blocks, and the list also holds the partials of g_vp and of S in
    _VS_T_FREE, on a trailing axis.  At F = 0 the F partial of S is the
    limit -2 (1 - B^2) / B^2, kept finite where B^2 underflows.
    """
    flat = temps.ravel()
    g_vp, side = np.empty_like(flat), np.empty_like(flat)
    if partials:
        d_vp, d_side = np.zeros((flat.size, 4)), np.zeros((flat.size, 4))
    with np.errstate(all="ignore"):  # non-finite results raise in _visibility
        for lo in range(0, flat.size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            if partials:
                kt = _thermal_energy(flat[block])
                g_vp[block], d_vp[block, :3] = _virtual_phonon(kt, p, True)
                b, d_log_b = _franck_condon(kt, p, True)
            else:
                g_vp[block] = virtual_phonon_rate(flat[block], p)
                b = franck_condon_factor(flat[block], p)
            b2 = b ** 2
            if p.F == 0:
                side[block] = 1.0
                if partials:
                    d_side[block, 3] = -2.0 * (1.0 - b2) / np.maximum(b2, np.finfo(float).tiny)
                continue
            d = b2 + p.F * (1.0 - b2)
            side[block] = (b2 / d) ** 2
            if partials:
                d_side[block, :2] = (4.0 * p.F * side[block] / d)[:, None] * d_log_b
                d_side[block, 3] = -2.0 * side[block] * (1.0 - b2) / d
    out = [g_vp, side, d_vp, d_side] if partials else [g_vp, side]
    return [a.reshape(temps.shape + a.shape[1:]) for a in out]


def _visibility(temps, phonons, delay_ns, p, free):
    """The model (Gamma/2) / (Gamma/2 + g_vp + g_sd) S at temps and delay_ns,
    which broadcast, from phonons = _phonon_factors(temps, p, ...).

    free = () gives the visibility.  free = _VS_T_FREE, with phonons that
    carry partials, or _VS_DT_FREE gives (visibility, partials in free on a
    trailing axis); those in (Gamma_sd, tau_c) are closed-form, since
    g_sd = Gamma_sd (1 - e^(-x^2)) with x = delay / tau_c.  Raises
    ValueError, naming the temperature, where the visibility is not finite.
    """
    g_sd = spectral_diffusion_rate(delay_ns, p)
    gamma_half = 0.5 / p.T1_ps
    with np.errstate(all="ignore"):  # non-finite results raise below
        rate = gamma_half + phonons[0] + g_sd
        v = gamma_half / rate * phonons[1]
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError(f"the visibility model is not finite at T = {np.broadcast_to(temps, v.shape)[bad].flat[0]} K")
    if not free:
        return _float_if_scalar(v)
    slope = (v / rate)[..., None]  # -dv / d(g_vp + g_sd)
    if free == _VS_T_FREE:
        return v, (gamma_half / rate)[..., None] * phonons[3] - slope * phonons[2]
    x2 = _delay_ratio_sq(np.asarray(delay_ns, dtype=float), p.tau_c_ns)
    decay = np.exp(-x2)
    return v, slope * np.stack([decay - 1.0, 2.0 * p.Gamma_sd_inv_ps * x2 * decay / p.tau_c_ns], axis=-1)


def tpi_visibility(temperature_K, delay_ns, p: DephasingParams):
    """Two-photon interference visibility at a temperature and pulse delay.

    The coherence factor (Gamma/2) / (Gamma/2 + g_vp + g_sd) times the
    sideband factor [B^2 / (B^2 + F (1 - B^2))]^2, which is exactly 1 at
    F = 0 (also where B^2 underflows to 0).  The arguments may be arrays and
    broadcast against each other; franck_condon_factor and
    virtual_phonon_rate each run once per block of _BLOCK elements of
    temperature_K.  Scalar arguments give a float.  Raises ValueError,
    naming the temperature, where the model is not finite.
    """
    temps = np.asarray(temperature_K, dtype=float)
    return _visibility(temps, _phonon_factors(temps, p, False), delay_ns, p, ())


def solve_sd_ceiling(v_long: float, delay_ns: float, temperature_K: float, p: DephasingParams) -> float:
    """Invert the visibility model for the spectral-diffusion ceiling rate.

    Given a measured visibility at long pulse separation, solves for the
    Gamma_sd that reproduces it at (temperature_K, delay_ns), holding every
    other parameter of p fixed.  The inverse visibility is linear in
    Gamma_sd, so the model at delay 0 (no diffusion) and at delay_ns with a
    unit ceiling rate fixes it.  Raises ValueError when v_long exceeds the
    Gamma_sd = 0 visibility.
    """
    if not 0.0 < v_long <= 1.0:
        raise ValueError("v_long must lie in (0, 1]")
    v0, v_unit = tpi_visibility(temperature_K, np.array([0.0, delay_ns]), p.replace(Gamma_sd_inv_ps=1.0))
    if v_long > v0 + 1e-15:
        raise ValueError(f"v_long={v_long} exceeds zero-diffusion visibility {v0}")
    slope = 1.0 / v_unit - 1.0 / v0
    if slope <= 0:
        raise ValueError("delay too short: diffusion has not turned on yet")
    return float(max(1.0 / v_long - 1.0 / v0, 0.0) / slope)


# ---------------------------------------------------------------------------
# curve fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisibilityFit:
    params: DephasingParams
    rms_residual: float


_VS_T_FREE = ("alpha_ps2", "v_c_inv_ps", "mu_ps2", "F")
_VS_DT_FREE = ("Gamma_sd_inv_ps", "tau_c_ns")
#: the parameters that each kind of fit_visibility_curve fits: the keys that its init may set
FREE_PARAMETERS = {"vs_temperature": _VS_T_FREE, "vs_delay": _VS_DT_FREE}
_FIT_BOUNDS = {
    "alpha_ps2": (0.0, 1.0),
    "v_c_inv_ps": (0.1, 50.0),
    "mu_ps2": (0.0, 1.0),
    "F": (0.0, 1.0),
    "Gamma_sd_inv_ps": (0.0, 1.0),
    "tau_c_ns": (1.0, 1e6),
}
#: evaluation cap of the dogbox solve that proposes fit_visibility_curve's
#: trf start.  On seeded 20-point vs_temperature curves started 3 % and 20 %
#: off, dogbox converged inside the bounds after up to about 100 evaluations
#: without noise and up to 135 with noise 1e-3; of caps from 50 to 300, 100
#: gave the fewest evaluations per fit on average, counting the fits that
#: then fall back to trf from the start.
_DOGBOX_MAX_NFEV = 100


def fit_visibility_curve(
    x,
    visibility,
    which: str,
    fixed: DephasingParams,
    init: dict | None = None,
    temperature_K: float = 4.0,
) -> VisibilityFit:
    """Bounded least squares of the visibility model against a curve.

    which = "vs_temperature": x is temperature in K, the phonon parameters
    (alpha, v_c, mu, F) float and the delay is 0, so spectral diffusion is
    off (fast-delay regime).  which = "vs_delay": x is the pulse separation
    in ns at fixed temperature_K, and (Gamma_sd, tau_c) float.  Starting
    values come from init or from the corresponding fields of `fixed`; init
    may set only the parameters that float, FREE_PARAMETERS[which].

    least_squares gets the exact Jacobian of the model's fixed sums.  A
    vs_temperature residual evaluation computes the visibility and its
    partials in one phonon pass, and the Jacobian at the same point reuses
    it.  A vs_delay fit evaluates virtual_phonon_rate and
    franck_condon_factor once, at temperature_K, and forms every residual
    and the closed-form (Gamma_sd, tau_c) columns from those two values.

    The fit solves in two stages with the same bounds and x_scale.  A
    dogbox solve of at most _DOGBOX_MAX_NFEV evaluations runs from the
    start; if it converges strictly inside the bounds, the trf solve starts
    from its solution, otherwise from the start, as if dogbox had not run.
    The trf solve alone gives the parameters and rms_residual, and raises
    FitDiverged.  Where the optimum is inside the bounds trf then confirms
    it, as a rule in one evaluation.  Where a bound is active, dogbox alone
    can end above trf's cost or at a point short of the curve, or run to
    its cap, which then costs that many evaluations more than trf alone.
    """
    xs = np.asarray(x, dtype=float)
    vs = np.asarray(visibility, dtype=float)
    if xs.shape != vs.shape or xs.ndim != 1:
        raise ValueError("x and visibility must be equal-length 1-D arrays")
    if xs.size < 4:
        raise ValueError(f"need >= 4 points, got {xs.size}")
    if which == "vs_temperature":
        free, temps, delays, point = _VS_T_FREE, xs, 0.0, "visibility {y!r} at T = {x!r} K"
    elif which == "vs_delay":
        free, temps, delays, point = _VS_DT_FREE, temperature_K, xs, "visibility {y!r} at delay = {x!r} ns"
    else:
        raise ValueError(f"which must be 'vs_temperature' or 'vs_delay', got {which!r}")

    init = dict(init or {})
    unfitted = [name for name in init if name not in free]
    if unfitted:
        raise ValueError(f"init sets {', '.join(unfitted)}, which a {which} fit does not fit; it fits {', '.join(free)}")
    x0, lo, hi = [], [], []
    for name in free:
        x0.append(init.get(name, getattr(fixed, name)))
        b = _FIT_BOUNDS[name]
        if not b[0] <= x0[-1] <= b[1]:
            raise ValueError(f"start value {name} = {x0[-1]} outside the fit bounds [{b[0]}, {b[1]}]")
        lo.append(b[0])
        hi.append(b[1])

    def params_for(vec):
        return fixed.replace(**dict(zip(free, vec)))

    temps = np.asarray(temps, dtype=float)
    if which == "vs_delay":  # the phonon factors do not depend on (Gamma_sd, tau_c)
        fixed_phonons = _phonon_factors(temps, fixed, False)

    def evaluate(vec):
        p = params_for(vec)
        phonons = _phonon_factors(temps, p, True) if which == "vs_temperature" else fixed_phonons
        return _visibility(temps, phonons, delays, p, free)

    best, rms = _least_squares(
        evaluate, np.array(x0, dtype=float), xs, vs, point, dogbox_nfev=_DOGBOX_MAX_NFEV,
        bounds=(lo, hi), x_scale=[max(abs(v), 1e-6) for v in x0], max_nfev=5000,
    )
    return VisibilityFit(params_for(best), rms)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def read_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV of finite numbers with one header row."""
    return io.read_columns(path, (None, None), (io.finite, io.finite))
