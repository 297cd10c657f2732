"""Acceptance suite: one test per criterion, one pass/fail line each.

Run as `pytest tests/test_acceptance.py -v` (the -v listing is the
per-criterion pass/fail report; with -s each criterion also prints an
explicit PASS line).
"""

import json
import time

import numpy as np
import pytest

from lophoton import circuit, cli, counting as ct, emitter as em, jones, tomo

from oracles import trapezoid_visibility

REF_DEPHASING = em.DephasingParams(
    alpha_ps2=0.0055, v_c_inv_ps=4.9, mu_ps2=2.2e-3, F=0.3, T1_ps=350.0, tau_c_ns=350.0
)


def _report(num, name):
    print(f"acceptance {num:02d} {name}: PASS")


def test_criterion_01_cz_amplitudes_and_success():
    cz = circuit.build_cz()
    expected = np.diag([1.0, 1.0, 1.0, -1.0]) / 3.0
    for i, label in enumerate(circuit.BASIS_ZZ):
        inp = circuit.TwoPhotonInput(
            jones.basis_state(label[0]), jones.basis_state(label[1]), 1.0
        )
        psi = circuit.two_photon_amplitudes(cz, inp)
        assert np.max(np.abs(psi - expected[:, i])) < 1e-12
        state = circuit.coincidence_evolve(cz, inp)
        assert abs(state.success_prob - 1.0 / 9.0) < 1e-12
    _report(1, "controlled-phase amplitudes (1,1,1,-1)/3 at success 1/9")


def test_criterion_02_ideal_gate_fidelity():
    cnot = circuit.build_cnot()
    f_zz = circuit.basis_fidelity(circuit.truth_table(cnot, 1.0, "ZZ")[0], "ZZ")
    f_xx = circuit.basis_fidelity(circuit.truth_table(cnot, 1.0, "XX")[0], "XX")
    assert abs(f_zz - 1.0) < 1e-10
    assert abs(f_xx - 1.0) < 1e-10
    lo, hi = tomo.hofmann_bounds(f_zz, f_xx)
    assert abs(lo - 1.0) < 1e-10 and abs(hi - 1.0) < 1e-10
    _report(2, "ideal truth tables in both bases")


def test_criterion_03_measured_bounds_exact(tmp_path):
    assert tomo.hofmann_bounds(0.902, 0.874) == (0.776, 0.874)
    out = tmp_path / "tt.json"
    assert cli.main([
        "truth-table", "--measured-fzz", "0.902", "--measured-fxx", "0.874",
        "--out", str(out),
    ]) == 0
    d = json.loads(out.read_text())
    assert d["hofmann_bounds_measured"]["lower"] == 0.776
    assert d["hofmann_bounds_measured"]["upper"] == 0.874
    _report(3, "process-fidelity bounds from measured table fidelities")


def test_criterion_04_bell_round_trip(tmp_path):
    out = tmp_path / "bell.json"
    start = time.monotonic()
    code = cli.main([
        "bell", "--overlap", "1.0", "--counts-per-setting", "1000000",
        "--resamples", "1000", "--seed", "20240611", "--out", str(out),
    ])
    elapsed = time.monotonic() - start
    assert code == 0
    d = json.loads(out.read_text())
    assert d["metrics"]["fidelity_to_target"] >= 0.999
    assert d["metrics"]["concurrence"] >= 0.998
    assert d["metrics"]["entropy_reduced_bits"] >= 0.997
    assert elapsed < 60.0
    _report(4, f"entangled-pair tomography round trip in {elapsed:.1f}s")


def test_criterion_05_visibility_model_values():
    gsd = em.solve_sd_ceiling(0.71, 1000.0, 4.0, REF_DEPHASING)
    p = REF_DEPHASING.replace(Gamma_sd_inv_ps=gsd)
    bands = {4.0: (0.92, 0.98), 20.0: (0.75, 0.85), 40.0: (0.38, 0.52)}
    for temperature, (lo, hi) in bands.items():
        oracle = trapezoid_visibility(temperature, 2.0, p, n=1_000_000)
        value = em.tpi_visibility(temperature, 2.0, p)
        assert abs(value - oracle) < 1e-6
        assert lo <= value <= hi
    assert em.tpi_visibility(4.0, 1000.0, p) == pytest.approx(0.71, abs=1e-6)
    _report(5, "visibility 0.95/0.80/0.45 bands and 0.71 inversion")


def test_criterion_06_decay_fit_consistency():
    decay = em.DecayParams(t1_ps=350.0, delta_inv_ps=em.fss_ueV_to_inv_ps(6.4))
    assert abs(decay.beat_period_ps - 646.0) < 1.0
    t = np.linspace(0.0, 2100.0, 350)
    y = em.trpl_model(t, decay, 1.0, 0.0)
    fit = em.fit_trpl(t, y, irf_fwhm_ps=0.0, init=em.DecayParams(300.0, em.fss_ueV_to_inv_ps(5.5)))
    assert fit.params.t1_ps == pytest.approx(350.0, rel=0.01)
    assert fit.params.delta_inv_ps == pytest.approx(decay.delta_inv_ps, rel=0.01)
    _report(6, "beating-decay fit recovery and 646 ps period")


def test_criterion_07_oscillator_strength_scaling():
    omega = em.wavelength_nm_to_angular_frequency(880.0)
    f350 = em.oscillator_strength(em.OscillatorInputs(350.0, omega))
    f1000 = em.oscillator_strength(em.OscillatorInputs(1000.0, omega))
    assert f350 / f1000 == pytest.approx(1000.0 / 350.0, rel=1e-12)
    for t1 in np.linspace(100.0, 1500.0, 6):
        for w in np.linspace(1.5e15, 3.5e15, 6):
            f = em.oscillator_strength(em.OscillatorInputs(t1, w))
            assert f * t1 * w ** 2 == pytest.approx(f350 * 350.0 * omega ** 2, rel=1e-9)
    _report(7, "oscillator strength inverse in lifetime and frequency squared")


def test_criterion_08_entanglement_metric_oracle():
    singlet = tomo.psi_minus()
    for p in (0.0, 1 / 3, 0.5, 2 / 3, 0.9, 1.0):
        w = tomo.werner(p)
        assert tomo.fidelity(w, singlet) == pytest.approx((3 * p + 1) / 4, abs=1e-10)
        assert tomo.concurrence(w) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-10)
    _report(8, "Werner-state fidelity and concurrence suite")


def test_criterion_09_counting_round_trips():
    paper_decay = em.DecayParams(350.0, em.fss_ueV_to_inv_ps(6.4))
    h = ct.synth_histogram(ct.HbtModel(g2=0.008), paper_decay, 100_000, seed=101)
    g2, g2_err = ct.g2_zero(h, 2000.0)
    assert abs(g2 - 0.008) < 3 * g2_err

    hom = ct.synth_histogram(ct.HomModel(0.947, 2.0), em.DecayParams(100.0, 0.0), 100_000, seed=102)
    v, v_err = ct.hom_visibility(hom, 600.0)
    assert abs(v - 0.947) < 3 * v_err

    # ratio-style check: central at most 1% of the side mean reports < 0.01
    ratio = ct.synth_histogram(ct.HbtModel(g2=0.005), paper_decay, 300_000, seed=103)
    value, _ = ct.g2_zero(ratio, 2000.0)
    assert value < 0.01
    _report(9, "histogram synthesis/analysis reproduces 0.008 and 0.947")


def test_criterion_10_property_suites(tmp_path):
    rng = np.random.default_rng(55)
    worst_gap = np.inf
    for _ in range(1000):
        counts = rng.integers(0, 40, size=(9, 4)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        records = [
            tomo.MeasurementRecord(s[0], s[1], counts[i])
            for i, s in enumerate(tomo.SETTINGS)
        ]
        res = tomo.mle_reconstruct(records)
        rho = res.rho
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        rho0 = tomo.project_to_physical(tomo.linear_inversion(records), floor=1e-12)
        gap = res.log_likelihood - tomo.log_likelihood(rho0, records)
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-9

    # gate fidelity monotone in the wavepacket overlap
    cnot = circuit.build_cnot()
    pattern = dict(zip(circuit.BASIS_ZZ, ("HH", "HV", "VV", "VH")))
    for label, out_label in pattern.items():
        probe = np.kron(jones.basis_state(out_label[0]), jones.basis_state(out_label[1]))
        fids = []
        for m in np.linspace(0.0, 1.0, 11):
            inp = circuit.TwoPhotonInput(
                jones.basis_state(label[0]), jones.basis_state(label[1]), m
            )
            state = circuit.coincidence_evolve(cnot, inp)
            fids.append(float(np.real(probe.conj() @ state.rho @ probe)))
        assert np.all(np.diff(fids) >= -1e-12)

    # byte-identical reruns of a seeded pipeline
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["bell", "--counts-per-setting", "20000", "--resamples", "100", "--seed", "77"]
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(10, f"physicality/monotonicity/determinism (worst MLE gap {worst_gap:+.2e})")
