import itertools
from dataclasses import asdict

import numpy as np
import pytest

from lophoton import emitter as em

from oracles import quad_visibility, trapezoid_fc_factor, trapezoid_visibility, trapezoid_vp_rate

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


def test_trpl_model_rejects_span_too_long_for_its_grid():
    # the IRF grid step is at most T1/40, so a 1 s span would need ~1e11 points
    with pytest.raises(ValueError, match="grid points"):
        em.trpl_model(np.array([0.0, 1e12]), DOT_DECAY, 1.0, 75.0)


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
    with pytest.raises(em.InsufficientData):
        em.fit_trpl(np.linspace(0, 2000, 10), np.zeros(10))
    with pytest.raises(em.InsufficientData):
        em.fit_trpl(np.linspace(0, 500, 50), np.zeros(50))  # span < 2 T1


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
    with pytest.raises(em.Infeasible):
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
    with pytest.raises(em.InsufficientData):
        em.fit_visibility_curve([4.0, 8.0, 12.0], [0.9, 0.8, 0.7], "vs_temperature", em.DephasingParams())


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
