import importlib.util
import itertools
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy import constants, optimize

from lophoton import emitter as em

from oracles import (convolved_decay, quad_fc_factor, quad_visibility, quad_vp_rate, trapezoid_fc_factor,
                     trapezoid_visibility, trapezoid_vp_rate)

DOT_DECAY = em.DecayParams(t1_ps=350.0, delta_inv_ps=em.fss_ueV_to_inv_ps(6.4))


def test_decay_zero_at_origin_and_negative_times():
    y = em.trpl_model(np.array([-50.0, 0.0]), DOT_DECAY, 1.0, 0.0)
    assert y[0] == 0.0 and y[1] == 0.0


def test_beat_period():
    assert DOT_DECAY.beat_period_ps == pytest.approx(646.2, abs=1.0)


def test_envelope_decays_by_e_over_t1():
    # one beat period later the profile scales by exp(-period/T1) exactly
    period = DOT_DECAY.beat_period_ps
    t = np.array([200.0, 450.0])
    r = em.trpl_model(t + period, DOT_DECAY, 1.0, 0.0) / em.trpl_model(t, DOT_DECAY, 1.0, 0.0)
    assert np.allclose(r, np.exp(-period / 350.0), rtol=1e-9)


def test_zero_splitting_profile_is_null():
    p = em.DecayParams(350.0, 0.0)
    assert np.all(em.trpl_model(np.linspace(0, 1000, 50), p, 1.0, 0.0) == 0.0)


def test_decay_params_reject_nan_and_out_of_range_values():
    for t1, delta in ((np.nan, 0.0), (350.0, np.nan), (0.0, 0.0), (350.0, -1e-3)):
        with pytest.raises(ValueError):
            em.DecayParams(t1, delta)


def test_trpl_model_rejects_nan_and_negative_irf_widths():
    for fwhm in (np.nan, -1.0):
        with pytest.raises(ValueError, match="irf_fwhm_ps"):
            em.trpl_model(np.linspace(0.0, 1000.0, 5), DOT_DECAY, 1.0, fwhm)


def test_trpl_model_is_finite_at_any_span():
    # a 1e12 ps span, and the tails of a 1 ps IRF one 13.16 ns repetition
    # period either side of t = 0, where exp(-t^2 / 2 sigma^2) underflows
    # and exp(a^2 sigma^2 / 2 - a t) overflows for t < 0
    far = np.array([-1e12, -13160.0, 0.0, 13160.0, 1e12])
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        wide = em.trpl_model(far, DOT_DECAY, 1.0, 75.0)
        narrow = em.trpl_model(far, DOT_DECAY, 1.0, 1.0)
    assert np.isfinite(wide).all() and np.isfinite(narrow).all()
    assert wide[0] == wide[1] == wide[-1] == 0.0 and narrow[0] == narrow[1] == narrow[-1] == 0.0
    # 13 ns out, a 1 ps blur moves the decay by about sigma^2 delta^2 / 2, 1e-5 of itself
    assert narrow[3] == pytest.approx(em.trpl_model(far[3], DOT_DECAY, 1.0, 0.0), rel=1e-4)
    assert narrow[3] > 0.0


@pytest.mark.parametrize("irf_fwhm_ps", [0.0, 1.0, 20.0, 75.0, 300.0])
def test_trpl_model_matches_numerical_convolution(irf_fwhm_ps):
    """The oracle is a trapezoid sum whose integrand and slope vanish at s = 0
    and whose far end lies 9 sigma out, so its error falls as h^4: the exact
    value is within |oracle(h) - oracle(2h)| / 15 of oracle(h).  Allowed:
    three times that, plus 1e-14 of the peak for rounding; at h = sigma / 100
    the first term stays below 1e-9 of the peak."""
    t = np.linspace(-300.0, 3000.0, 111)
    sigma = irf_fwhm_ps / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    step = sigma / 100.0 if irf_fwhm_ps else 1.0
    fine = convolved_decay(t, DOT_DECAY.t1_ps, DOT_DECAY.delta_inv_ps, 0.8, irf_fwhm_ps, step)
    coarse = convolved_decay(t, DOT_DECAY.t1_ps, DOT_DECAY.delta_inv_ps, 0.8, irf_fwhm_ps, 2.0 * step)
    peak = np.abs(fine).max()
    quadrature = 3.0 * np.abs(fine - coarse).max() / 15.0
    assert quadrature < 1e-9 * peak
    model = em.trpl_model(t, DOT_DECAY, 0.8, irf_fwhm_ps)
    assert np.abs(model - fine).max() <= quadrature + 1e-14 * peak


def test_fit_trpl_noiseless_recovery():
    t = np.linspace(0.0, 2000.0, 300)
    y = em.trpl_model(t, DOT_DECAY, 1.0, 0.0)
    fit = em.fit_trpl(t, y, irf_fwhm_ps=0.0, init=em.DecayParams(250.0, em.fss_ueV_to_inv_ps(8.0)))
    assert fit.params.t1_ps == pytest.approx(350.0, rel=0.01)
    assert fit.params.delta_inv_ps == pytest.approx(DOT_DECAY.delta_inv_ps, rel=0.01)
    assert fit.rms_residual < 1e-9


def test_fit_trpl_with_irf():
    t = np.linspace(0.0, 2000.0, 300)
    y = em.trpl_model(t, DOT_DECAY, 0.8, 75.0)
    fit = em.fit_trpl(t, y, irf_fwhm_ps=75.0, init=em.DecayParams(300.0, em.fss_ueV_to_inv_ps(5.0)))
    assert fit.params.t1_ps == pytest.approx(350.0, rel=0.01)
    assert fit.params.delta_inv_ps == pytest.approx(DOT_DECAY.delta_inv_ps, rel=0.01)


def test_fit_trpl_unresolved_splitting_returns_tiny_delta():
    # splitting far below the beat resolution of the trace: the fitted value
    # must stay below 0.1 ueV
    small = em.DecayParams(350.0, em.fss_ueV_to_inv_ps(0.05))
    t = np.linspace(0.0, 2000.0, 300)
    y = em.trpl_model(t, small, 1.0, 0.0)
    y /= y.max()
    fit = em.fit_trpl(t, y, irf_fwhm_ps=0.0, init=em.DecayParams(350.0, em.fss_ueV_to_inv_ps(0.03)))
    assert em.inv_ps_to_ueV(fit.params.delta_inv_ps) < 0.1


def test_fit_trpl_multiplicative_noise(rng):
    t = np.linspace(0.0, 2500.0, 400)
    y = em.trpl_model(t, DOT_DECAY, 1.0, 0.0) * (1.0 + 0.05 * rng.normal(size=t.size))
    fit = em.fit_trpl(t, y, irf_fwhm_ps=0.0, init=em.DecayParams(300.0, em.fss_ueV_to_inv_ps(6.0)))
    assert fit.params.t1_ps == pytest.approx(350.0, rel=0.05)


def test_fit_trpl_insufficient_data():
    with pytest.raises(ValueError, match=r"^need >= 20 samples, got 10$"):
        em.fit_trpl(np.linspace(0, 2000, 10), np.zeros(10))
    with pytest.raises(ValueError, match=r"^samples must span at least twice the initial T1$"):
        em.fit_trpl(np.linspace(0, 500, 50), np.zeros(50))  # span < 2 T1


def test_trpl_partials_match_differences_over_the_fit_box():
    # lifetimes under and far over the IRF widths; splittings from unresolved
    # (0.07 ueV) to a beat 20 times faster than the decay at T1 = 350 ps
    t = np.linspace(-500.0, 4000.0, 91)
    for t1, delta, fwhm in itertools.product([50.0, 350.0, 2000.0], [1e-4, 0.00972, 0.1], [0.0, 1.0, 75.0, 300.0]):
        x = np.array([t1, delta, 0.8])

        def model(vec):
            return em.trpl_model(t, em.DecayParams(vec[0], vec[1]), vec[2], fwhm)

        v, jac = em._trpl(t, *x, fwhm)
        assert np.array_equal(v, model(x))
        for k in range(3):
            h = np.zeros(3)
            h[k] = 1e-6 * x[k]
            diff = (model(x + h) - model(x - h)) / (2.0 * h[k])
            # 1e-6 of the column's scale, plus the differences' rounding error:
            # the model is a difference of two terms of size up to 2 A
            tolerance = 1e-6 * np.abs(jac[:, k]).max() + 8.0 * np.finfo(float).eps * 2.0 * x[2] / h[k]
            assert np.abs(jac[:, k] - diff).max() <= tolerance, (t1, delta, fwhm, k)
    # the model is even in delta, so at delta = 0 its delta partial vanishes
    for fwhm in (0.0, 75.0):
        assert np.all(em._trpl(t, 350.0, 0.0, 0.8, fwhm)[1][:, 1] == 0.0)


def _finite_difference_trpl_fit(t, y, irf_fwhm_ps, init):
    """fit_trpl's least squares with SciPy's default 2-point Jacobian; returns (T1, delta, A) and the cost."""
    scale = float(y.max())
    res = optimize.least_squares(
        lambda x: em.trpl_model(t, em.DecayParams(x[0], x[1]), x[2], irf_fwhm_ps) - y,
        [init.t1_ps, init.delta_inv_ps, 0.5 * scale], bounds=([1e-3, 0.0, 0.0], np.inf),
        x_scale=[init.t1_ps, max(init.delta_inv_ps, 1e-4), scale], max_nfev=20000,
    )
    assert res.status > 0
    return res.x, res.cost


def _compare_trpl_fits(t, y, irf_fwhm_ps, init):
    """The exact-Jacobian fit ends at the parameters of the finite-difference
    fit to 1e-6 and no higher in cost, beyond 1e-10 of it and rounding as in
    _compare_fits."""
    fit = em.fit_trpl(t, y, irf_fwhm_ps=irf_fwhm_ps, init=init)
    ref, ref_cost = _finite_difference_trpl_fit(t, y, irf_fwhm_ps, init)
    cost = 0.5 * y.size * fit.rms_residual ** 2
    rounding = 8.0 * np.finfo(float).eps * np.abs(y).max() * np.sqrt(2.0 * y.size * ref_cost)
    assert cost <= ref_cost * (1.0 + 1e-10) + rounding, (cost, ref_cost, rounding)
    got = np.array([fit.params.t1_ps, fit.params.delta_inv_ps, fit.amplitude])
    assert np.allclose(got, ref, rtol=1e-6, atol=0.0), (got, ref)


def test_trpl_fits_of_the_golden_traces_match_finite_difference_fits(tmp_path):
    _golden_tool().write_inputs(tmp_path / "inputs")
    for name in ("decay.csv", "decay-padded.csv"):
        t, y = em.read_xy_csv(tmp_path / "inputs" / name)
        _compare_trpl_fits(t, y, 75.0, em.TRPL_START)


@pytest.mark.parametrize("irf_fwhm_ps", [0.0, 1.0, 20.0, 75.0, 300.0])
def test_trpl_fits_of_noisy_traces_match_finite_difference_fits(irf_fwhm_ps):
    rng = np.random.default_rng([20241019, int(irf_fwhm_ps)])
    t = np.linspace(-200.0, 3800.0, 400)
    y = rng.poisson(2000.0 * em.trpl_model(t, DOT_DECAY, 1.0, irf_fwhm_ps)).astype(float)
    init = em.DecayParams(DOT_DECAY.t1_ps * rng.uniform(0.9, 1.1), DOT_DECAY.delta_inv_ps * rng.uniform(0.9, 1.1))
    _compare_trpl_fits(t, y, irf_fwhm_ps, init)


def test_oscillator_strength_scalings():
    omega = 2.0e15
    f350 = em.oscillator_strength(em.OscillatorInputs(350.0, omega))
    f1000 = em.oscillator_strength(em.OscillatorInputs(1000.0, omega))
    assert f350 / f1000 == pytest.approx(1000.0 / 350.0, rel=1e-12)
    fw = em.oscillator_strength(em.OscillatorInputs(350.0, 2.0 * omega))
    assert f350 / fw == pytest.approx(4.0, rel=1e-12)
    # monotone in both: f ~ 1/T1 and 1/omega^2
    t1s = np.linspace(100.0, 2000.0, 8)
    fs = [em.oscillator_strength(em.OscillatorInputs(t1, omega)) for t1 in t1s]
    assert np.all(np.diff(fs) < 0)
    omegas = np.linspace(1.5e15, 3.0e15, 8)
    fs = [em.oscillator_strength(em.OscillatorInputs(350.0, w)) for w in omegas]
    assert np.all(np.diff(fs) < 0)


def test_oscillator_strength_in_band_for_qd_emission():
    # 880 nm sits in the In0.5Ga0.5As dot emission band
    f = em.oscillator_strength(
        em.OscillatorInputs(350.0, em.wavelength_nm_to_angular_frequency(880.0))
    )
    assert 27.0 < f < 29.0


def test_physical_constants_equal_scipy_constants():
    assert em.SPEED_OF_LIGHT == constants.c
    assert em.EPSILON_0 == constants.epsilon_0
    assert em.ELECTRON_MASS == constants.m_e
    assert em.ELEMENTARY_CHARGE == constants.e


def test_franck_condon_limits():
    p = em.DephasingParams()
    assert em.franck_condon_factor(5.0, p.replace(alpha_ps2=0.0)) == 1.0
    closed = np.exp(-p.alpha_ps2 * p.v_c_inv_ps ** 2 / 4.0)
    assert em.franck_condon_factor(0.0, p) == pytest.approx(closed, abs=1e-12)
    assert closed == pytest.approx(0.9675, abs=5e-4)


def test_franck_condon_decreasing_in_temperature():
    p = em.DephasingParams()
    bs = [em.franck_condon_factor(t, p) for t in np.arange(0.0, 61.0, 5.0)]
    assert np.all(np.diff(bs) < 0)


def test_virtual_phonon_rate_limits():
    p = em.DephasingParams()
    assert em.virtual_phonon_rate(0.0, p) == 0.0
    rates = [em.virtual_phonon_rate(t, p) for t in np.arange(0.0, 61.0, 5.0)]
    assert np.all(np.diff(rates) > 0)
    # at 4 K the rate is negligible against the radiative linewidth
    assert em.virtual_phonon_rate(4.0, p) / (0.5 / p.T1_ps) < 1e-3


@pytest.mark.parametrize("temperature", [0.0, 4.0, 10.0, 20.0, 30.0, 40.0, 60.0])
def test_quadratures_match_trapezoid_oracle(temperature):
    p = em.DephasingParams()
    assert em.franck_condon_factor(temperature, p) == pytest.approx(
        trapezoid_fc_factor(temperature, p, 300_000), abs=1e-8
    )
    assert em.virtual_phonon_rate(temperature, p) == pytest.approx(
        trapezoid_vp_rate(temperature, p, 300_000), rel=1e-6, abs=1e-18
    )


@pytest.mark.parametrize("n", [em._FC_NODES, em._VP_NODES])
def test_gauss_legendre_rule_integrates_polynomials_to_rounding(n):
    nodes, weights = em._gauss_legendre(n)
    assert nodes.shape == weights.shape == (n,)
    assert 0.0 < nodes[0] and np.all(np.diff(nodes) > 0.0) and nodes[-1] < 1.0
    assert np.all(nodes + nodes[::-1] == pytest.approx(1.0, abs=np.finfo(float).eps))
    assert np.all(weights > 0.0)
    assert np.sum(weights) == pytest.approx(1.0, rel=4 * np.finfo(float).eps)
    # Int_0^1 x^k dx = 1/(k+1) for every degree the rule is exact for, to
    # 4 (k + 1) eps relative: rounding a node alone moves x^k by up to k/2 ulp.
    # leggauss's 128-node rule is off by 13 (k + 1) eps at k = 34
    k = np.arange(2 * n)
    sums = np.sum(weights * nodes ** k[:, None], axis=1)
    assert np.all(np.abs(sums * (k + 1) - 1.0) <= 4 * (k + 1) * np.finfo(float).eps)


def test_gauss_legendre_rules_are_built_without_an_eigensolve(monkeypatch):
    import scipy.linalg
    from scipy import special

    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature rule was built through an eigensolve")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(special, "roots_legendre", refuse)
    for module in (np.linalg, scipy.linalg):
        for name in dir(module):
            if name.startswith("eig"):
                monkeypatch.setattr(module, name, refuse)
    em._gauss_legendre.cache_clear()
    for n in (em._FC_NODES, em._VP_NODES):
        assert em._gauss_legendre(n)[0].shape == (n,)


@pytest.mark.parametrize("cold", [False, True], ids=["default", "cold"])
def test_quadratures_match_adaptive_oracles_to_3e_14(cold):
    # the documented error bound of both phonon sums, over 0.1-300 K
    p = em.DephasingParams(**_golden_tool().COLD_DEPHASING) if cold else em.DephasingParams()
    temps = np.geomspace(0.1, 300.0, 25)
    fc = np.array([quad_fc_factor(t, p) for t in temps])
    vp = np.array([quad_vp_rate(t, p) for t in temps])
    assert np.max(np.abs(em.franck_condon_factor(temps, p) / fc - 1.0)) <= 3e-14
    assert np.max(np.abs(em.virtual_phonon_rate(temps, p) / vp - 1.0)) <= 3e-14


def test_spectral_diffusion_rate_shape():
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    assert em.spectral_diffusion_rate(0.0, p) == 0.0
    assert em.spectral_diffusion_rate(p.tau_c_ns, p) == pytest.approx(
        5e-4 * (1 - np.exp(-1.0)), rel=1e-12
    )
    assert em.spectral_diffusion_rate(1e6, p) == pytest.approx(5e-4, rel=1e-12)


def test_visibility_perfect_when_dephasing_free():
    p = em.DephasingParams(alpha_ps2=0.0, mu_ps2=0.0, Gamma_sd_inv_ps=0.0)
    for t in (0.0, 4.0, 40.0):
        assert em.tpi_visibility(t, 2.0, p) == pytest.approx(1.0, abs=1e-12)


def test_visibility_bounded_on_random_parameters(rng):
    for _ in range(1000):
        p = em.DephasingParams(
            alpha_ps2=rng.uniform(0.0, 0.1),
            v_c_inv_ps=rng.uniform(0.5, 20.0),
            mu_ps2=rng.uniform(0.0, 0.1),
            F=rng.uniform(),
            T1_ps=rng.uniform(50.0, 2000.0),
            Gamma_sd_inv_ps=rng.uniform(0.0, 0.01),
            tau_c_ns=rng.uniform(10.0, 1e4),
        )
        v = em.tpi_visibility(rng.uniform(0.0, 80.0), rng.uniform(0.1, 2000.0), p)
        assert 0.0 <= v <= 1.0


def test_array_visibility_matches_trapezoid_oracle_and_scalar_calls():
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    temps = np.array([0.0, 4.0, 15.0, 30.0, 50.0])
    delays = np.array([0.0, 1.0, 100.0, 350.0, 2000.0])
    for t_arg, d_arg in ((temps, 2.0), (4.0, delays)):
        values = em.tpi_visibility(t_arg, d_arg, p)
        assert values.shape == (5,)
        for t, d, v in np.broadcast(t_arg, d_arg, values):
            assert abs(v - trapezoid_visibility(t, d, p, n=1_000_000)) < 1e-6
            assert v == em.tpi_visibility(float(t), float(d), p)
    assert isinstance(em.tpi_visibility(4.0, 2.0, p), float)
    # a (2, 1) temperature grid against three delays broadcasts to (2, 3)
    grid = em.tpi_visibility(temps[:2, None], delays[:3], p)
    assert grid.shape == (2, 3) and grid[1, 2] == em.tpi_visibility(4.0, 100.0, p)


def test_array_visibility_matches_oracles_over_the_fit_box():
    # corners and middles of the vis_T fit box in (alpha, v_c); (mu, F) take
    # turns, so F = 0 meets alpha = 1, v_c = 50, where B^2 underflows to 0
    assert em._FIT_BOUNDS["alpha_ps2"][1] == 1.0 and em._FIT_BOUNDS["v_c_inv_ps"] == (0.1, 50.0)
    assert em._FIT_BOUNDS["mu_ps2"][1] == 1.0 and em._FIT_BOUNDS["F"] == (0.0, 1.0)
    temps = np.array([0.1, 2.0, 30.0, 300.0])
    mu_f = itertools.cycle([(1.0, 0.0), (1e-3, 0.3), (0.1, 1.0)])
    for alpha, vc in itertools.product([1e-3, 0.03, 1.0], [0.1, 6.3, 50.0]):
        mu, f = next(mu_f)
        p = em.DephasingParams(alpha_ps2=alpha, v_c_inv_ps=vc, mu_ps2=mu, F=f)
        values = em.tpi_visibility(temps, 0.0, p)
        for t, v in zip(temps, values):
            assert abs(v - trapezoid_visibility(t, 0.0, p)) < 1e-6, (alpha, vc, mu, f, t)
    # where adaptive quadrature is reliable it agrees to 1e-12
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    temps = np.array([4.0, 10.0, 40.0, 100.0, 300.0])
    for t, v in zip(temps, em.tpi_visibility(temps, 2.0, p)):
        assert abs(v - quad_visibility(t, 2.0, p)) < 1e-12, t
    # 64 nodes on [0, 8 v_c], without the 80 kT cap, miss this by 2.1e-7
    p = em.DephasingParams(alpha_ps2=0.0283, v_c_inv_ps=6.3)
    assert abs(em.tpi_visibility(0.1, 0.0, p) - trapezoid_visibility(0.1, 0.0, p)) < 1e-9


def test_array_visibility_equals_scalar_calls_across_blocks():
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    ts = np.linspace(0.0, 300.0, 1000)
    assert ts.size > 10 * em._BLOCK
    values = em.tpi_visibility(ts, 2.0, p)
    scalar = np.array([em.tpi_visibility(t, 2.0, p) for t in ts])
    assert np.all(np.abs(values - scalar) <= 1e-15 * np.abs(scalar))


def test_visibility_monotone_in_temperature_and_delay():
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    vt = [em.tpi_visibility(t, 2.0, p) for t in np.arange(0.0, 61.0, 1.0)]
    assert np.all(np.diff(vt) <= 1e-12)
    delays = np.geomspace(1.0, 2000.0, 40)
    vd = [em.tpi_visibility(4.0, d, p) for d in delays]
    assert np.all(np.diff(vd) <= 1e-12)


def test_visibility_time_unit_rescaling_invariance():
    # halving the time unit: rates double, ps^2 couplings quarter, and the
    # temperature doubles to absorb the baked-in k_B/hbar constant
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    scaled = em.DephasingParams(
        alpha_ps2=p.alpha_ps2 / 4.0,
        v_c_inv_ps=p.v_c_inv_ps * 2.0,
        mu_ps2=p.mu_ps2 / 4.0,
        F=p.F,
        T1_ps=p.T1_ps / 2.0,
        Gamma_sd_inv_ps=p.Gamma_sd_inv_ps * 2.0,
        tau_c_ns=p.tau_c_ns,
    )
    for t, dt in ((4.0, 2.0), (20.0, 105.0), (40.0, 1000.0)):
        assert em.tpi_visibility(t, dt, p) == pytest.approx(
            em.tpi_visibility(2.0 * t, dt, scaled), abs=1e-9
        )


def test_solve_sd_ceiling_zero_when_consistent():
    p = em.DephasingParams(Gamma_sd_inv_ps=0.0)
    v0 = em.tpi_visibility(4.0, 1000.0, p)
    assert em.solve_sd_ceiling(v0, 1000.0, 4.0, p) == pytest.approx(0.0, abs=1e-12)


def test_solve_sd_ceiling_long_delay_anchor():
    p = em.DephasingParams()
    ceiling = em.solve_sd_ceiling(0.71, 1000.0, 4.0, p)
    assert ceiling == pytest.approx(5e-4, rel=0.05)
    solved = p.replace(Gamma_sd_inv_ps=ceiling)
    assert em.tpi_visibility(4.0, 1000.0, solved) == pytest.approx(0.71, abs=1e-6)


def test_solve_sd_ceiling_round_trips(rng):
    p = em.DephasingParams()
    vmax = em.tpi_visibility(4.0, 600.0, p.replace(Gamma_sd_inv_ps=0.0))
    for _ in range(20):
        v = rng.uniform(0.2, vmax * 0.999)
        ceiling = em.solve_sd_ceiling(v, 600.0, 4.0, p)
        back = em.tpi_visibility(4.0, 600.0, p.replace(Gamma_sd_inv_ps=ceiling))
        assert back == pytest.approx(v, abs=1e-9)


def test_solve_sd_ceiling_infeasible():
    p = em.DephasingParams()
    with pytest.raises(ValueError, match=r"^v_long=0\.99 exceeds zero-diffusion visibility 0\.95737"):
        em.solve_sd_ceiling(0.99, 1000.0, 4.0, p)


def test_solve_sd_ceiling_rejects_bad_delays():
    p = em.DephasingParams()
    for delay in (float("nan"), -1000.0):
        with pytest.raises(ValueError, match=f"delay must be >= 0, got {delay}"):
            em.solve_sd_ceiling(0.71, delay, 4.0, p)


def test_fit_visibility_vs_temperature_recovery():
    truth = em.DephasingParams()
    ts = np.arange(4.0, 41.0, 2.0)
    vs = np.array([em.tpi_visibility(t, 0.0, truth) for t in ts])
    start = {"alpha_ps2": 0.004, "v_c_inv_ps": 4.0, "mu_ps2": 0.003, "F": 0.36}
    fit = em.fit_visibility_curve(ts, vs, "vs_temperature", truth, init=start)
    for name in ("alpha_ps2", "v_c_inv_ps", "mu_ps2", "F"):
        assert getattr(fit.params, name) == pytest.approx(getattr(truth, name), rel=0.05)
    assert fit.rms_residual < 1e-8


def test_fit_visibility_vs_delay_recovery():
    truth = em.DephasingParams(Gamma_sd_inv_ps=4.98e-4, tau_c_ns=350.0)
    delays = np.geomspace(2.0, 2000.0, 12)
    vs = np.array([em.tpi_visibility(4.0, d, truth) for d in delays])
    start = {"Gamma_sd_inv_ps": 2e-4, "tau_c_ns": 600.0}
    fit = em.fit_visibility_curve(delays, vs, "vs_delay", truth.replace(Gamma_sd_inv_ps=1e-4), init=start)
    assert fit.params.tau_c_ns == pytest.approx(350.0, rel=0.10)
    assert fit.params.Gamma_sd_inv_ps == pytest.approx(4.98e-4, rel=0.05)


def test_fit_visibility_flat_curve_gives_zero_coupling():
    fixed = em.DephasingParams()
    ts = np.linspace(4.0, 40.0, 10)
    flat = np.full(ts.size, em.tpi_visibility(0.0, 0.0, fixed.replace(alpha_ps2=0.0, mu_ps2=0.0)))
    fit = em.fit_visibility_curve(ts, flat, "vs_temperature", fixed, init={"alpha_ps2": 0.001})
    assert fit.params.alpha_ps2 < 1e-4


def test_fit_visibility_insufficient_points():
    with pytest.raises(ValueError, match=r"^need >= 4 points, got 3$"):
        em.fit_visibility_curve([4.0, 8.0, 12.0], [0.9, 0.8, 0.7], "vs_temperature", em.DephasingParams())


@pytest.mark.parametrize("which, init, message", [
    ("vs_delay", {"alpha_ps2": 0.5, "Gamma_sd_inv_ps": 6e-4},
     "init sets alpha_ps2, which a vs_delay fit does not fit; it fits Gamma_sd_inv_ps, tau_c_ns"),
    ("vs_temperature", {"F": 0.3, "tau_c_ns": 280.0, "T1_ps": 300.0},
     "init sets tau_c_ns, T1_ps, which a vs_temperature fit does not fit; it fits alpha_ps2, v_c_inv_ps, mu_ps2, F"),
])
def test_fit_visibility_refuses_init_keys_that_it_does_not_fit(which, init, message):
    xs = np.linspace(4.0, 40.0, 6)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        em.fit_visibility_curve(xs, 0.9 - 0.01 * np.arange(6), which, em.DephasingParams(), init=init)


def test_dephasing_params_validation_and_json():
    p = em.DephasingParams()
    d = asdict(p)
    assert set(d) == {
        "alpha_ps2", "v_c_inv_ps", "mu_ps2", "F", "T1_ps", "Gamma_sd_inv_ps", "tau_c_ns",
    }
    assert em.DephasingParams(**d) == p
    with pytest.raises(ValueError):
        em.DephasingParams(F=1.5)
    with pytest.raises(ValueError):
        em.DephasingParams(T1_ps=-1.0)
    for name in d:
        with pytest.raises(ValueError):
            em.DephasingParams(**{name: np.nan})


# ---------------------------------------------------------------------------
# the partials of the fits against differences of tpi_visibility
# ---------------------------------------------------------------------------

#: where each free parameter may go; differences stay inside
_DOMAIN = {"alpha_ps2": (0.0, np.inf), "v_c_inv_ps": (0.0, np.inf), "mu_ps2": (0.0, np.inf), "F": (0.0, 1.0),
           "Gamma_sd_inv_ps": (0.0, np.inf), "tau_c_ns": (0.0, np.inf)}


def _model_partials(temps, delays, p, free):
    return em._visibility(temps, em._phonon_factors(temps, p, free == em._VS_T_FREE), delays, p, free)


def _difference_columns(temps, delays, p, free, v):
    """Differences of tpi_visibility in each free parameter, with their steps.

    Inside the domain: central differences with step 1e-6 |x|.  At its edge:
    second-order one-sided differences, per point, with a step cut tenfold
    from 1e-6 until the stencil moves the visibility by under 1e-10 of
    itself, since the scale on which it moves there has no relation to x.
    """
    columns, steps = [], []
    for name in free:
        x, (lo, hi) = getattr(p, name), _DOMAIN[name]

        def at(t, d, dx):
            return em.tpi_visibility(t, d, p.replace(**{name: x + dx}))

        if lo < x < hi:
            h = 1e-6 * abs(x)
            columns.append((at(temps, delays, h) - at(temps, delays, -h)) / (2.0 * h))
            steps.append(np.full(v.shape, h))
            continue
        column, step = [], []
        for t, d, vt in np.broadcast(temps, delays, v):
            h = 1e-6 if x == lo else -1e-6
            while abs(at(t, d, 2.0 * h) - vt) > 1e-10 * abs(vt) and abs(h) > 1e-300:
                h /= 10.0
            column.append((-3.0 * vt + 4.0 * at(t, d, h) - at(t, d, 2.0 * h)) / (2.0 * h))
            step.append(abs(h))
        columns.append(np.array(column).reshape(v.shape))
        steps.append(np.array(step).reshape(v.shape))
    return np.stack(columns, axis=-1), np.stack(steps, axis=-1)


def _assert_partials_match_differences(temps, delays, p, free, compared):
    """Each column within 1e-6 of its scale (its largest entry) of the
    differences, plus their rounding error of 8 eps max|v| / step; entries
    outside the mask compared are only required to be finite."""
    v, jac = _model_partials(temps, delays, p, free)
    assert np.array_equal(v, em.tpi_visibility(temps, delays, p))
    assert np.isfinite(jac).all(), (p, jac)
    diffs, steps = _difference_columns(temps, delays, p, free, v)
    tolerance = 1e-6 * np.abs(jac).max(axis=tuple(range(v.ndim))) + 8.0 * np.finfo(float).eps * np.abs(v).max() / steps
    off = (np.abs(jac - diffs) > tolerance) & compared
    assert not off.any(), (p, np.argwhere(off), jac[off], diffs[off])


def test_temperature_partials_match_differences_over_the_fit_box():
    # both sides of the 80 kT cap (T = 0.1 K is below it for every v_c,
    # 300 K above it) and of kT = v_c, where the virtual-phonon reach turns
    # to 8 sqrt(kT v_c); at 3000 K and v_c = 0.1 the 128 nodes resolve the
    # integrand so coarsely that the moving nodes give 1 % of the v_c partial
    # of g_vp; alpha = 1, v_c = 50 makes B^2 underflow to 0
    temps = np.array([0.1, 1.0, 4.0, 30.0, 300.0, 3000.0])
    for alpha, vc, mu, f in itertools.product([0.0, 1e-3, 0.03, 1.0], [0.1, 6.3, 50.0], [0.0, 1.0], [0.0, 0.3, 1.0]):
        p = em.DephasingParams(alpha_ps2=alpha, v_c_inv_ps=vc, mu_ps2=mu, F=f)
        compared = np.ones((temps.size, 4), dtype=bool)
        if f == 0:
            # the F partial at F = 0 is -2 (1 - B^2) / B^2, beyond any float where B^2 underflows
            compared[:, 3] = em.franck_condon_factor(temps, p) ** 2 > 0
        _assert_partials_match_differences(temps, 0.0, p, em._VS_T_FREE, compared)


def test_underflowing_sideband_keeps_finite_partials():
    p = em.DephasingParams(alpha_ps2=1.0, v_c_inv_ps=50.0, F=0.0)
    temps = np.array([0.0, 4.0, 300.0])
    assert np.all(em.franck_condon_factor(temps, p) ** 2 == 0.0)
    v, jac = _model_partials(temps, 0.0, p, em._VS_T_FREE)
    assert np.all(np.isfinite(jac)) and np.all(jac[:, 3] < 0.0)
    assert np.array_equal(v, em.tpi_visibility(temps, 0.0, p))


def test_delay_partials_match_differences():
    delays = np.array([0.0, 1.0, 30.0, 350.0, 2000.0])
    for gamma, tau, temperature in itertools.product([0.0, 5e-4, 1.0], [1.0, 350.0, 1e4], [0.0, 4.0, 300.0]):
        p = em.DephasingParams(Gamma_sd_inv_ps=gamma, tau_c_ns=tau)
        _assert_partials_match_differences(np.asarray(temperature), delays, p, em._VS_DT_FREE,
                                           np.ones((delays.size, 2), dtype=bool))


def test_spectral_diffusion_saturates_without_overflow_at_any_delay():
    # (delay / tau_c)^2 overflows past about 1e154 tau_c; its exponential,
    # still subnormal at 27 tau_c, is 0 from about 27.3 tau_c on
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4, tau_c_ns=1.0)
    near, far = np.array([1.0, 27.0, 30.0, 31.0, 1e3]), np.array([1e160, 1e300, np.finfo(float).max])
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        rates = em.spectral_diffusion_rate(np.concatenate([near, far]), p)
        v, jac = _model_partials(np.asarray(4.0), np.concatenate([near, far]), p, em._VS_DT_FREE)
    assert np.array_equal(rates[:near.size], p.Gamma_sd_inv_ps * (1.0 - np.exp(-near ** 2)))
    assert rates[0] < p.Gamma_sd_inv_ps and np.all(rates[1:] == p.Gamma_sd_inv_ps)
    assert np.isfinite(jac).all() and jac[1, 1] > 0.0
    assert np.all(v[2:] == v[2]) and np.all(jac[2:] == jac[2]) and np.all(jac[2:, 1] == 0.0)


# ---------------------------------------------------------------------------
# fits with the exact Jacobian against fits with finite differences
# ---------------------------------------------------------------------------

def _finite_difference_fit(x, vs, which, fixed, init, temperature_K):
    """fit_visibility_curve's least squares with SciPy's default 2-point Jacobian; returns (params, cost)."""
    free = em._VS_T_FREE if which == "vs_temperature" else em._VS_DT_FREE
    temps, delays = (x, 0.0) if which == "vs_temperature" else (temperature_K, x)
    x0 = np.array([init.get(name, getattr(fixed, name)) for name in free])
    res = optimize.least_squares(
        lambda vec: em.tpi_visibility(temps, delays, fixed.replace(**dict(zip(free, vec)))) - vs, x0,
        bounds=tuple(zip(*(em._FIT_BOUNDS[name] for name in free))), x_scale=np.maximum(np.abs(x0), 1e-6),
        max_nfev=5000,
    )
    assert res.status > 0
    return res.x, res.cost, free


def _compare_fits(x, vs, which, fixed, init, temperature_K, params_rtol):
    """The exact-Jacobian fit ends no higher in cost than the finite-difference
    fit, beyond rounding and stopping, and, for params_rtol not None, at the
    same parameters to params_rtol.

    Residuals rounded by 8 eps max|v| each move the cost by at most
    8 eps max|v| sqrt(2 n cost).  Both fits stop on SciPy's gradient test,
    which near an active bound leaves a parameter a little short of it: on
    one noisy curve F ends 3e-9 below 1 and the cost 4.4e-11 of itself
    higher, so 1e-10 of the cost is allowed besides.
    """
    fit = em.fit_visibility_curve(x, vs, which, fixed, init=init, temperature_K=temperature_K)
    ref, ref_cost, free = _finite_difference_fit(x, vs, which, fixed, init, temperature_K)
    cost = 0.5 * vs.size * fit.rms_residual ** 2
    rounding = 8.0 * np.finfo(float).eps * np.abs(vs).max() * np.sqrt(2.0 * vs.size * ref_cost)
    assert cost <= ref_cost * (1.0 + 1e-10) + rounding, (cost, ref_cost, rounding)
    if params_rtol is not None:
        got = np.array([getattr(fit.params, name) for name in free])
        assert np.allclose(got, ref, rtol=params_rtol, atol=0.0), (got, ref)


def _golden_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fits_of_the_golden_curves_match_finite_difference_fits():
    golden = _golden_tool()
    curves = golden.fit_curves()
    fixed = em.DephasingParams(**golden.DEPHASING)
    cold = em.DephasingParams(**golden.COLD_DEPHASING)
    for name, which, params, temperature, rtol in (
        ("vis_T", "vs_temperature", fixed, 4.0, 1e-6),
        ("vis_dt", "vs_delay", fixed, 6.0, 1e-6),
        # 0.1-4 K leaves mu and the v_c-F trade-off nearly free (condition
        # number about 2e6 in the scaled parameters): where each solver stops
        # in that valley is not fixed to 1e-6, only that the change ends lower
        ("vis_T-cold", "vs_temperature", cold, 4.0, None),
    ):
        _, x, vs, start = curves[name]
        _compare_fits(np.array(x), np.array(vs), which, params, start, temperature, rtol)


@pytest.mark.parametrize("seed", range(20))
def test_fits_of_noisy_curves_match_finite_difference_fits(seed):
    truth = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    rng = np.random.default_rng([20241018, seed])
    temps, delays = np.linspace(4.0, 40.0, 12), np.geomspace(1.0, 2000.0, 12)
    clean = {"vs_temperature": (temps, em.tpi_visibility(temps, 0.0, truth), 4.0),
             "vs_delay": (delays, em.tpi_visibility(6.0, delays, truth), 6.0)}
    # at the 1e-3 noise of a measured curve the vs_temperature problem is
    # ill-conditioned enough that the finite-difference fit stops up to
    # 1e-4 away in the parameters, always higher in cost
    for noise, rtol in ((1e-5, 1e-6), (1e-3, None)):
        for which, free in (("vs_temperature", em._VS_T_FREE), ("vs_delay", em._VS_DT_FREE)):
            x, v, temperature = clean[which]
            init = {name: getattr(truth, name) * rng.uniform(0.9, 1.1) for name in free}
            vs = v + noise * rng.normal(size=x.size)
            _compare_fits(x, vs, which, truth, init, temperature, 1e-6 if which == "vs_delay" else rtol)


# ---------------------------------------------------------------------------
# the dogbox proposal and the trf solve that decides every visibility fit
# ---------------------------------------------------------------------------

def test_every_start_3_percent_off_reaches_the_truth_of_a_cold_curve(monkeypatch):
    # the 16 sign patterns of +-3 % on the free parameters; plain trf stops
    # up to 3.8 % off (F) after up to 2,328 evaluations, reporting success
    nfev = []

    def counted(fun, x0, _fn=optimize.least_squares, **options):
        res = _fn(fun, x0, **options)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(optimize, "least_squares", counted)
    truth = em.DephasingParams(**{**_golden_tool().COLD_DEPHASING, "Gamma_sd_inv_ps": 0.0})
    temps = np.linspace(0.1, 4.0, 30)
    vs = em.tpi_visibility(temps, 0.0, truth)
    for signs in itertools.product([1.0, -1.0], repeat=4):
        init = {name: getattr(truth, name) * (1.0 + 0.03 * s) for name, s in zip(em._VS_T_FREE, signs)}
        nfev.clear()
        fit = em.fit_visibility_curve(temps, vs, "vs_temperature", truth, init=init)
        for name in em._VS_T_FREE:
            assert getattr(fit.params, name) == pytest.approx(getattr(truth, name), rel=1e-8, abs=0.0), (signs, name)
        assert sum(nfev) <= 20, (signs, nfev)


def _trf_fit(temps, vs, fixed, init):
    """fit_visibility_curve's trf solve, called directly from init: (x, rms residual)."""
    free = em._VS_T_FREE
    x0 = np.array([init.get(name, getattr(fixed, name)) for name in free])

    def model(vec):
        p = fixed.replace(**dict(zip(free, vec)))
        return em._visibility(temps, em._phonon_factors(temps, p, True), 0.0, p, free)

    res = optimize.least_squares(
        lambda vec: model(vec)[0] - vs, x0, jac=lambda vec: model(vec)[1],
        bounds=tuple(zip(*(em._FIT_BOUNDS[name] for name in free))), x_scale=[max(abs(v), 1e-6) for v in x0],
        max_nfev=5000,
    )
    return res.x, float(np.sqrt(np.mean(res.fun ** 2)))


@pytest.mark.parametrize("truth, init", [
    ({"F": 0.0}, {}),
    ({}, {"F": 0.0}),
    ({}, {"F": 1.0}),
    ({"mu_ps2": 0.0}, {}),
], ids=["truth-F-0", "start-F-0", "start-F-1", "truth-mu-0"])
def test_fits_that_dogbox_ends_on_a_bound_are_todays_trf_fits(truth, init):
    # where a bound matters, dogbox alone ends above trf's cost, or runs to
    # its cap; fit_visibility_curve must then give trf's result from the start
    fixed = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    temps = np.linspace(4.0, 40.0, 12)
    vs = em.tpi_visibility(temps, 0.0, fixed.replace(**truth))
    fit = em.fit_visibility_curve(temps, vs, "vs_temperature", fixed, init=init)
    x, rms = _trf_fit(temps, vs, fixed, init)
    assert [getattr(fit.params, name) for name in em._VS_T_FREE] == x.tolist()
    assert fit.rms_residual == rms


def test_a_dogbox_proposal_that_overflows_warns_nothing():
    # on this noise-like curve dogbox runs onto the bounds, F to 7e-302, where
    # its Jacobian products overflow; trf then runs from the start, warning nothing
    fixed = em.DephasingParams()
    temps = np.array([20.9, 84.4, 95.9, 109.5, 123.6, 128.2, 221.3])
    vs = np.array([-0.48, -0.08, -0.18, 0.21, 0.05, 0.08, 1.03])
    init = {"alpha_ps2": 0.0, "v_c_inv_ps": 0.5, "mu_ps2": 0.006, "F": 0.01}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = em.fit_visibility_curve(temps, vs, "vs_temperature", fixed, init=init)
    x, rms = _trf_fit(temps, vs, fixed, init)
    assert [getattr(fit.params, name) for name in em._VS_T_FREE] == x.tolist()
    assert fit.rms_residual == rms


def test_a_vs_delay_fit_from_gamma_sd_on_its_bound_reaches_the_curve():
    # DephasingParams() starts Gamma_sd at its bound 0, where dogbox alone
    # stops at Gamma_sd = 1e-6 and reports success
    truth = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    delays = np.geomspace(1.0, 2000.0, 12)
    fit = em.fit_visibility_curve(delays, em.tpi_visibility(6.0, delays, truth), "vs_delay", em.DephasingParams(),
                                  temperature_K=6.0)
    assert fit.rms_residual <= 1e-12
