import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import optimize

from lophoton import cli, counting as ct, emitter as em, tomo
from lophoton.cli import main

from conftest import (HISTOGRAM_COLUMNS, XY_COLUMNS, assert_columns_match_row_loop, write_histogram_csv,
                      write_records_csv)
from oracles import convolved_decay

#: a floating-point warning on any CLI path fails the test that meets it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def load(out):
    return json.loads(out.read_text())


def write_xy_csv(path, header, x, y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for xi, yi in zip(x, y):
            w.writerow([repr(float(xi)), repr(float(yi))])


def test_truth_table_ideal(tmp_path):
    code, out = run(tmp_path, "truth-table", "--overlap", "1.0", "--basis", "ZZ")
    assert code == 0
    d = load(out)
    assert d["schema_version"] == 3
    assert d["fidelity"] == pytest.approx(1.0, abs=1e-10)
    for v in d["success_prob"].values():
        assert v == pytest.approx(1 / 9, abs=1e-12)
    table = np.array(d["table"])
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-10)


def test_truth_table_xx_and_measured_bounds(tmp_path):
    code, out = run(
        tmp_path, "truth-table", "--basis", "XX",
        "--measured-fzz", "0.902", "--measured-fxx", "0.874",
    )
    assert code == 0
    d = load(out)
    assert d["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert d["hofmann_bounds_measured"]["lower"] == 0.776
    assert d["hofmann_bounds_measured"]["upper"] == 0.874


def test_truth_table_invalid_overlap_exit_2(tmp_path, capsys):
    assert main(["truth-table", "--overlap", "1.5"]) == 2
    assert "overlap" in capsys.readouterr().err


def test_bell_small_run(tmp_path):
    code, out = run(
        tmp_path, "bell", "--counts-per-setting", "20000",
        "--resamples", "100", "--seed", "11",
    )
    assert code == 0
    d = load(out)
    assert d["success_prob"] == pytest.approx(1 / 9, abs=1e-12)
    assert d["metrics"]["fidelity_to_target"] > 0.99
    assert d["metrics_mc"]["fidelity_to_target"]["std"] >= 0.0
    assert d["hofmann"]["lower"] == pytest.approx(1.0, abs=1e-9)
    rho = np.array(d["rho_real"]) + 1j * np.array(d["rho_imag"])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_bell_distinguishable_photons_unentangled(tmp_path):
    code, out = run(
        tmp_path, "bell", "--overlap", "0.0",
        "--counts-per-setting", "200000", "--resamples", "100", "--seed", "5",
    )
    assert code == 0
    d = load(out)
    mc = d["metrics_mc"]["concurrence"]
    assert d["metrics"]["concurrence"] <= mc["mean"] + 5 * mc["std"] + 1e-3
    assert d["metrics"]["concurrence"] < 0.02


def test_bell_deterministic_and_thread_independent(tmp_path):
    args = ["bell", "--counts-per-setting", "10000", "--resamples", "100", "--seed", "9"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert main([*args, "--threads", "4", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_visibility_vs_temperature_curve(tmp_path):
    params = tmp_path / "p.json"
    gsd = em.solve_sd_ceiling(0.71, 1000.0, 4.0, em.DephasingParams())
    params.write_text(json.dumps(asdict(em.DephasingParams(Gamma_sd_inv_ps=gsd))))
    code, out = run(
        tmp_path, "visibility", "--mode", "vs_T", "--grid", "4:40:10",
        "--params", str(params),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "temperature_K,visibility"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(data[:, 1]) <= 1e-12)
    curve = dict(zip(data[:, 0], data[:, 1]))
    assert abs(curve[4.0] - 0.95) < 0.05
    assert abs(curve[20.0] - 0.80) < 0.05
    assert abs(curve[40.0] - 0.45) < 0.05


def test_visibility_vs_delay_curve(tmp_path):
    params = tmp_path / "p.json"
    gsd = em.solve_sd_ceiling(0.71, 1000.0, 4.0, em.DephasingParams())
    params.write_text(json.dumps(asdict(em.DephasingParams(Gamma_sd_inv_ps=gsd))))
    code, out = run(
        tmp_path, "visibility", "--mode", "vs_dt", "--grid", "1:2000:30",
        "--log-grid", "--params", str(params),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delay_ns,visibility"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    v105 = data[np.argmin(np.abs(data[:, 0] - 105.0)), 1]
    v1000 = data[np.argmin(np.abs(data[:, 0] - 1000.0)), 1]
    assert abs(v105 - 0.91) < 0.05
    assert v1000 == pytest.approx(0.71, abs=1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("--mode", "vs_T", "--grid", "4:10:3", "--delay-ns", "1e300"),
    ("--mode", "vs_dt", "--grid", "1e300:1e301:2"),
], ids=["vs_T", "vs_dt"])
def test_visibility_at_huge_delays_saturates_without_warning(tmp_path, argv):
    p = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    params = tmp_path / "p.json"
    params.write_text(json.dumps(asdict(p)))
    code, out = run(tmp_path, "visibility", *argv, "--params", str(params))
    assert code == 0
    data = np.array([[float(x) for x in ln.split(",")] for ln in out.read_text().splitlines()[1:]])
    temps = data[:, 0] if argv[1] == "vs_T" else 4.0
    # 10^5 ns is 285 tau_c, where the spectral diffusion has saturated
    assert len(data) >= 2 and np.all(data[:, 1] == em.tpi_visibility(temps, 1e5, p))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width", ["1e-310", "1e-300", "1e-200"])
def test_trpl_fit_with_a_vanishing_irf_is_the_fit_without_one(tmp_path, width):
    (tmp_path / "none").mkdir()
    code, out = run(tmp_path, *_fit_argv(tmp_path, "trpl", "--irf-width", width))
    code_none, out_none = run(tmp_path / "none", *_fit_argv(tmp_path / "none", "trpl", "--irf-width", "0"))
    assert code == code_none == 0
    assert load(out)["params"] == load(out_none)["params"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width", ["2000.5", "1e20", "1e200", "1e300"])
def test_trpl_irf_wider_than_the_trace_is_refused_by_name(tmp_path, capsys, width):
    out = tmp_path / "fit.json"
    assert main([*_fit_argv(tmp_path, "trpl", "--irf-width", width), "--out", str(out)]) == 2
    assert not out.exists()
    expected = f"--irf-width must not exceed the 2000.0 ps that the samples of --data span, got {float(width)}"
    assert expected in capsys.readouterr().err


def test_visibility_flat_when_coupling_zero(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(
        json.dumps(asdict(em.DephasingParams(alpha_ps2=0.0, mu_ps2=0.0)))
    )
    code, out = run(
        tmp_path, "visibility", "--mode", "vs_T", "--grid", "4:40:5",
        "--params", str(params),
    )
    assert code == 0
    data = [float(ln.split(",")[1]) for ln in out.read_text().strip().splitlines()[1:]]
    assert np.allclose(data, 1.0, atol=1e-12)


def test_visibility_f_zero_where_b_squared_underflows(tmp_path):
    # B = exp(-625) at alpha = 1, v_c = 50, so B^2 is 0; with F = 0 the
    # sideband factor is exactly 1 and the coherence factor is left
    p = em.DephasingParams(alpha_ps2=1.0, v_c_inv_ps=50.0, F=0.0)
    assert em.franck_condon_factor(4.0, p) ** 2 == 0.0
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha_ps2": 1.0, "v_c_inv_ps": 50.0, "F": 0.0}))
    code, out = run(tmp_path, "visibility", "--mode", "vs_T", "--grid", "4:40:3", "--params", str(params))
    assert code == 0
    data = np.array([[float(x) for x in ln.split(",")] for ln in out.read_text().splitlines()[1:]])
    gamma_half = 0.5 / p.T1_ps
    coherence = gamma_half / (gamma_half + em.virtual_phonon_rate(data[:, 0], p))
    assert data[:, 1] == pytest.approx(coherence, rel=1e-15)


def test_visibility_malformed_params_exit_2(tmp_path):
    params = tmp_path / "p.json"
    params.write_text("{not json")
    assert main(["visibility", "--mode", "vs_T", "--grid", "4:40:5", "--params", str(params)]) == 2
    params.write_text(json.dumps({"alpha_ps2": -1.0}))
    assert main(["visibility", "--mode", "vs_T", "--grid", "4:40:5", "--params", str(params)]) == 2


def test_visibility_bad_grid_exit_2():
    assert main(["visibility", "--mode", "vs_T", "--grid", "40:4:5"]) == 2
    assert main(["visibility", "--mode", "vs_T", "--grid=-10:40:5"]) == 2
    assert main(["visibility", "--mode", "vs_T", "--grid", "oops"]) == 2


def test_fit_trpl_cli(tmp_path):
    decay = em.DecayParams(350.0, em.fss_ueV_to_inv_ps(6.4))
    t = np.linspace(0.0, 2000.0, 300)
    data = tmp_path / "trpl.csv"
    write_xy_csv(data, ("t_ps", "intensity"), t, em.trpl_model(t, decay, 1.0, 75.0))
    code, out = run(tmp_path, "fit", "--kind", "trpl", "--data", str(data), "--irf-width", "75")
    assert code == 0
    d = load(out)
    assert d["params"]["t1_ps"] == pytest.approx(350.0, rel=0.01)
    assert d["params"]["delta_ueV"] == pytest.approx(6.4, rel=0.01)


def test_fit_trpl_cli_narrow_irf_over_a_repetition_period(tmp_path):
    # one 13.16 ns repetition period at 76 MHz in 2 ps bins, blurred by a 1 ps IRF
    decay = em.DecayParams(350.0, em.fss_ueV_to_inv_ps(6.4))
    t = np.arange(0.0, 13160.0, 2.0)
    sigma = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    data = tmp_path / "trpl.csv"
    write_xy_csv(data, ("t_ps", "intensity"), t, convolved_decay(t, 350.0, decay.delta_inv_ps, 1.0, 1.0, sigma / 10.0))
    code, out = run(tmp_path, "fit", "--kind", "trpl", "--data", str(data), "--irf-width", "1")
    assert code == 0
    d = load(out)
    assert d["params"]["t1_ps"] == pytest.approx(350.0, rel=0.02)
    assert d["params"]["delta_ueV"] == pytest.approx(6.4, rel=0.02)


def test_fit_vis_temperature_cli(tmp_path):
    truth = em.DephasingParams()
    ts = np.arange(4.0, 41.0, 2.0)
    vs = [em.tpi_visibility(T, 0.0, truth) for T in ts]
    data = tmp_path / "vis.csv"
    write_xy_csv(data, ("temperature_K", "visibility"), ts, vs)
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"alpha_ps2": 0.004, "v_c_inv_ps": 4.2, "mu_ps2": 0.003, "F": 0.34}))
    code, out = run(tmp_path, "fit", "--kind", "vis_T", "--data", str(data), "--init", str(init))
    assert code == 0
    d = load(out)
    for name, expect in (("alpha_ps2", 0.0055), ("v_c_inv_ps", 4.9), ("mu_ps2", 2.2e-3), ("F", 0.3)):
        assert d["params"][name] == pytest.approx(expect, rel=0.05)


def test_fit_vis_delay_cli(tmp_path):
    gsd = em.solve_sd_ceiling(0.71, 1000.0, 4.0, em.DephasingParams())
    truth = em.DephasingParams(Gamma_sd_inv_ps=gsd)
    delays = np.geomspace(2.0, 2000.0, 14)
    vs = [em.tpi_visibility(4.0, d, truth) for d in delays]
    data = tmp_path / "vdt.csv"
    write_xy_csv(data, ("delay_ns", "visibility"), delays, vs)
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"Gamma_sd_inv_ps": 2e-4, "tau_c_ns": 500.0}))
    code, out = run(tmp_path, "fit", "--kind", "vis_dt", "--data", str(data),
                    "--init", str(init), "--temperature", "4.0")
    assert code == 0
    d = load(out)
    assert d["params"]["tau_c_ns"] == pytest.approx(350.0, rel=0.10)
    assert d["params"]["Gamma_sd_inv_ps"] == pytest.approx(gsd, rel=0.05)


def test_fit_empty_file_exit_2(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("")
    assert main(["fit", "--kind", "trpl", "--data", str(data)]) == 2


def test_analyze_cli_round_trip(tmp_path):
    h = ct.synth_histogram(
        ct.HbtModel(0.008), em.DecayParams(350.0, em.fss_ueV_to_inv_ps(6.4)), 100_000, seed=42
    )
    write_histogram_csv(tmp_path / "h.csv", tmp_path / "h.meta.json", h)
    code, out = run(
        tmp_path, "analyze", "--kind", "g2",
        "--histogram", str(tmp_path / "h.csv"), "--meta", str(tmp_path / "h.meta.json"),
    )
    assert code == 0
    d = load(out)
    assert abs(d["value"] - 0.008) < 3 * d["error"]

    hh = ct.synth_histogram(ct.HomModel(0.947, 2.0), em.DecayParams(100.0, 0.0), 100_000, seed=7)
    write_histogram_csv(tmp_path / "hom.csv", tmp_path / "hom.meta.json", hh)
    code, out = run(
        tmp_path, "analyze", "--kind", "hom",
        "--histogram", str(tmp_path / "hom.csv"), "--meta", str(tmp_path / "hom.meta.json"),
    )
    assert code == 0
    d = load(out)
    assert abs(d["value"] - 0.947) < 3 * d["error"]


@pytest.mark.parametrize("kind, window", [("g2", 2000.0), ("hom", 600.0)])
def test_analyze_default_window(tmp_path, kind, window):
    model = ct.HbtModel(0.02) if kind == "g2" else ct.HomModel(0.9, 2.0)
    h = ct.synth_histogram(model, em.DecayParams(100.0, 0.0), 20_000, seed=5)
    write_histogram_csv(tmp_path / "h.csv", tmp_path / "h.meta.json", h)
    code, out = run(tmp_path, "analyze", "--kind", kind,
                    "--histogram", str(tmp_path / "h.csv"), "--meta", str(tmp_path / "h.meta.json"))
    assert code == 0
    d = load(out)
    assert d["window_ps"] == window
    estimate = ct.g2_zero if kind == "g2" else ct.hom_visibility
    assert [d["value"], d["error"]] == list(estimate(h, window))


def test_analyze_malformed_inputs_exit_2(tmp_path):
    good = ct.synth_histogram(ct.HbtModel(0.01), em.DecayParams(350.0, 0.01), 10_000, seed=1)
    write_histogram_csv(tmp_path / "h.csv", tmp_path / "h.meta.json", good)
    bad_meta = tmp_path / "bad.meta.json"
    bad_meta.write_text("{oops")
    assert main(["analyze", "--kind", "g2", "--histogram", str(tmp_path / "h.csv"),
                 "--meta", str(bad_meta)]) == 2
    missing = tmp_path / "nope.csv"
    assert main(["analyze", "--kind", "g2", "--histogram", str(missing),
                 "--meta", str(tmp_path / "h.meta.json")]) == 2


def test_reconstruct_cli(tmp_path):
    records = tomo.simulate_counts(tomo.werner(0.9), 100_000, seed=3)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    code, out = run(tmp_path, "reconstruct", "--records", str(path), "--resamples", "100")
    assert code == 0
    d = load(out)
    assert d["metrics"]["fidelity_to_target"] == pytest.approx(0.925, abs=0.01)
    assert d["metrics"]["concurrence"] == pytest.approx(0.85, abs=0.02)
    assert "concurrence" in d["metrics_mc"]
    assert d["n_resamples"] == 100 and d["n_not_converged"] == 0


def test_reconstruct_rank_deficient_mixed_state_refits_converge(tmp_path):
    """|H><H| (x) I/2 at 1000 counts per setting: in a fixed basis order several refits hit the step cap (exit 3)."""
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0).astype(complex)
    path = tmp_path / "records.csv"
    write_records_csv(path, tomo.simulate_counts(rho, 1000, seed=3))
    code, out = run(tmp_path, "reconstruct", "--records", str(path), "--resamples", "100", "--seed", "7")
    assert code == 0
    d = load(out)
    assert d["n_resamples"] == 100 and d["n_not_converged"] == 0
    assert d["diagnostics"]["monte_carlo"]["iterations_max"] < tomo._MLE_MAX_ITER


def _assert_mle_diagnostics(d):
    mle = d["diagnostics"]["mle"]
    assert set(mle) == {"iterations", "newton_decrement_sq", "log_likelihood_gain"}
    assert type(mle["iterations"]) is int and mle["iterations"] >= 0
    assert type(mle["newton_decrement_sq"]) is float and 0.0 <= mle["newton_decrement_sq"] < tomo._MLE_DECREMENT_TOL
    assert type(mle["log_likelihood_gain"]) is float and mle["log_likelihood_gain"] >= 0.0


def test_diagnostics_block_keys_and_types(tmp_path):
    code, out = run(tmp_path, "bell", "--counts-per-setting", "20000", "--resamples", "100", "--seed", "5")
    assert code == 0
    d = load(out)
    assert set(d["diagnostics"]) == {"mle", "monte_carlo"}
    _assert_mle_diagnostics(d)
    mc = d["diagnostics"]["monte_carlo"]
    assert set(mc) == {"iterations_min", "iterations_median", "iterations_max"}
    assert type(mc["iterations_min"]) is int and type(mc["iterations_max"]) is int
    assert type(mc["iterations_median"]) is float
    assert 0 <= mc["iterations_min"] <= mc["iterations_median"] <= mc["iterations_max"] <= tomo._MLE_MAX_ITER

    path = tmp_path / "records.csv"
    write_records_csv(path, tomo.simulate_counts(tomo.werner(0.9), 1000, seed=3))
    code, out = run(tmp_path, "reconstruct", "--records", str(path))
    assert code == 0
    d = load(out)
    assert set(d["diagnostics"]) == {"mle"}  # no Monte Carlo without --resamples
    _assert_mle_diagnostics(d)


def test_reconstruct_central_fit_non_convergence_exit_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.csv"
    write_records_csv(path, tomo.simulate_counts(tomo.werner(0.9), 10_000, seed=3))
    monkeypatch.setattr(tomo, "_MLE_MAX_ITER", 0)
    code, out = run(tmp_path, "reconstruct", "--records", str(path))
    assert code == 3
    assert "maximum-likelihood reconstruction did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_monte_carlo_non_convergence_exit_3(tmp_path, monkeypatch, capsys):
    """More than 1% of Monte Carlo refits not converged: exit 3 and no output."""
    records = tomo.simulate_counts(tomo.werner(0.9), 10_000, seed=3)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    fit = tomo._mle_fits
    seen = [0]

    def every_tenth_fit_fails(n, *starts):
        # fits are counted over all solver calls: the central fit is the first
        fits = fit(n, *starts)
        index = seen[0] + np.arange(1, len(n) + 1)
        seen[0] += len(n)
        return replace(fits, converged=fits.converged & (index % 10 != 0))

    monkeypatch.setattr(tomo, "_mle_fits", every_tenth_fit_fails)
    code, out = run(tmp_path, "reconstruct", "--records", str(path), "--resamples", "100")
    assert code == 3
    assert "10 of 100 Monte Carlo refits did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_incomplete_records_exit_2(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("basis1,basis2,outcome1,outcome2,counts\nZ,Z,H,H,5\n")
    assert main(["reconstruct", "--records", str(path)]) == 2


def test_no_partial_output_on_failure(tmp_path):
    out = tmp_path / "result.json"
    data = tmp_path / "empty.csv"
    data.write_text("")
    assert main(["fit", "--kind", "trpl", "--data", str(data), "--out", str(out)]) == 2
    assert not out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".lophoton-")]
    assert leftovers == []


def _records_file(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(path, tomo.simulate_counts(tomo.werner(0.9), 1000, seed=3))
    return path


def _records_with_nan_count(tmp_path):
    path = _records_file(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    return ["reconstruct", "--records", str(path), "--resamples", "100"]


def _curve_with_nan_visibility(tmp_path):
    path = tmp_path / "vis.csv"
    ts = np.linspace(4.0, 40.0, 10)
    vs = [float("nan") if i == 3 else 0.9 - 0.01 * i for i in range(10)]
    write_xy_csv(path, ("temperature_K", "visibility"), ts, vs)
    return ["fit", "--kind", "vis_T", "--data", str(path)]


def _hom_histogram_without_tau_zero(tmp_path):
    h = ct.synth_histogram(ct.HomModel(0.9, 2.0), em.DecayParams(100.0, 0.0), 100_000, seed=7, n_side=2)
    shifted = ct.CoincidenceHistogram(
        bin_width_ps=h.bin_width_ps, taus_ps=h.taus_ps + 3.0 * h.rep_period_ns * 1000.0,
        counts=h.counts, pulse_pair_sep_ns=h.pulse_pair_sep_ns,
    )
    write_histogram_csv(tmp_path / "hom.csv", tmp_path / "hom.meta.json", shifted)
    return ["analyze", "--kind", "hom", "--histogram", str(tmp_path / "hom.csv"),
            "--meta", str(tmp_path / "hom.meta.json")]


def _json_file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _fit_argv(tmp_path, kind, *extra):
    """fit on a valid curve: a noiseless decay trace for trpl, a short visibility curve otherwise."""
    data = tmp_path / "curve.csv"
    if kind == "trpl":
        t = np.linspace(0.0, 2000.0, 60)
        y = em.trpl_model(t, em.DecayParams(350.0, 0.01), 1.0, 75.0)
        write_xy_csv(data, ("t_ps", "intensity"), t, y)
    else:
        ts = np.linspace(4.0, 40.0, 6)
        write_xy_csv(data, ("temperature_K", "visibility"), ts, 0.9 - 0.01 * np.arange(6))
    return ["fit", "--kind", kind, "--data", str(data), *extra]


def _g2_histogram(tmp_path):
    """analyze g2 on a valid histogram, without its --meta."""
    h = ct.synth_histogram(ct.HbtModel(0.02), em.DecayParams(350.0, 0.0), 20_000, seed=1)
    write_histogram_csv(tmp_path / "h.csv", tmp_path / "h.meta.json", h)
    return ["analyze", "--kind", "g2", "--histogram", str(tmp_path / "h.csv")]


def _flat_g2_histogram(tmp_path):
    """7000 bins of 5 counts: every side peak is all background, so their mean area is 0."""
    taus = (np.arange(7000) - 3499.5) * 20.0
    h = ct.CoincidenceHistogram(bin_width_ps=20.0, taus_ps=taus, counts=np.full(7000, 5))
    write_histogram_csv(tmp_path / "h.csv", tmp_path / "h.meta.json", h)
    return ["analyze", "--kind", "g2", "--histogram", str(tmp_path / "h.csv"), "--meta", str(tmp_path / "h.meta.json")]


def _histogram_with_meta(tmp_path, meta_text):
    return [*_g2_histogram(tmp_path), "--meta", _json_file(tmp_path, meta_text)]


def _histogram_with_meta_value(key, value):
    """analyze g2 on a valid histogram whose --meta holds value under key."""
    def make_argv(tmp_path):
        argv = _g2_histogram(tmp_path)
        meta = json.loads((tmp_path / "h.meta.json").read_text())
        return [*argv, "--meta", _json_file(tmp_path, json.dumps({**meta, key: value}))]
    return make_argv


def _records_with_fractional_count(tmp_path):
    path = _records_file(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",12.5"
    path.write_text("\n".join(lines) + "\n")
    return ["reconstruct", "--records", str(path)]


def _trace_with_huge_intensity(tmp_path):
    data = tmp_path / "curve.csv"
    t = np.linspace(0.0, 2000.0, 60)
    y = em.trpl_model(t, em.DecayParams(350.0, 0.01), 1.0, 75.0)
    y[10] = 1e300
    write_xy_csv(data, ("t_ps", "intensity"), t, y)
    return ["fit", "--kind", "trpl", "--data", str(data)]


def _curve_with_huge_visibility(kind):
    def make_argv(tmp_path):
        argv = _fit_argv(tmp_path, kind)
        data = Path(argv[argv.index("--data") + 1])
        lines = data.read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + ",1e300"
        data.write_text("\n".join(lines) + "\n")
        return argv
    return make_argv


def _out_is_a_directory(tmp_path):
    (tmp_path / "result.json").mkdir()
    return ["truth-table"]


#: --grid values whose start, stop or span is not finite
NON_FINITE_GRIDS = ("4:inf:5", "-inf:40:5", "nan:40:5", "-1e308:1e308:3")

#: a flag that the run's mode or kind does not read, whatever its value, and the
#: refusal that names the flag and the mode or kind
UNREAD_FLAGS = {
    "visibility-vs_T-temperature": (lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:3", "--temperature=nan"],
                                    "--temperature has no effect on a vs_T curve"),
    "visibility-vs_dt-delay": (lambda tmp: ["visibility", "--mode", "vs_dt", "--grid", "1:10:3", "--delay-ns=-inf"],
                               "--delay-ns has no effect on a vs_dt curve"),
    "trpl-params": (lambda tmp: _fit_argv(tmp, "trpl", "--params", _json_file(tmp, '{"alpha_ps2": 0.0055}')),
                    "--params has no effect on a trpl fit"),
    "trpl-temperature": (lambda tmp: _fit_argv(tmp, "trpl", "--temperature=-inf"),
                         "--temperature has no effect on a trpl fit"),
    "vis_T-irf-width": (lambda tmp: _fit_argv(tmp, "vis_T", "--irf-width", "75"),
                        "--irf-width has no effect on a vis_T fit"),
    "vis_T-temperature": (lambda tmp: _fit_argv(tmp, "vis_T", "--temperature", "4.0"),
                          "--temperature has no effect on a vis_T fit"),
    "vis_dt-irf-width": (lambda tmp: _fit_argv(tmp, "vis_dt", "--irf-width=nan"),
                         "--irf-width has no effect on a vis_dt fit"),
}


MALFORMED = {
    "reconstruct-nan-count": _records_with_nan_count,
    "fit-nan-visibility": _curve_with_nan_visibility,
    "hom-without-tau-zero": _hom_histogram_without_tau_zero,
    "bell-resamples-50": lambda tmp: ["bell", "--counts-per-setting", "1000", "--resamples", "50"],
    "bell-negative-seed": lambda tmp: ["bell", "--counts-per-setting", "1000", "--seed", "-1"],
    "trpl-init-list": lambda tmp: _fit_argv(tmp, "trpl", "--init", _json_file(tmp, "[1, 2]")),
    "trpl-init-string": lambda tmp: _fit_argv(tmp, "trpl", "--init", _json_file(tmp, '{"t1_ps": "abc"}')),
    "trpl-init-negative": lambda tmp: _fit_argv(tmp, "trpl", "--init", _json_file(tmp, '{"t1_ps": -5}')),
    "trpl-irf-nan": lambda tmp: _fit_argv(tmp, "trpl", "--irf-width", "nan"),
    "vis_T-init-list": lambda tmp: _fit_argv(tmp, "vis_T", "--init", _json_file(tmp, "[1, 2]")),
    "vis_T-init-out-of-bounds": lambda tmp: _fit_argv(tmp, "vis_T", "--init", _json_file(tmp, '{"alpha_ps2": 5.0}')),
    "vis_T-init-string": lambda tmp: _fit_argv(tmp, "vis_T", "--init", _json_file(tmp, '{"alpha_ps2": "x"}')),
    "analyze-meta-list": lambda tmp: _histogram_with_meta(tmp, "[1]"),
    "fit-init-directory": lambda tmp: _fit_argv(tmp, "trpl", "--init", str(tmp)),
    "reconstruct-records-directory": lambda tmp: ["reconstruct", "--records", str(tmp)],
    "truth-table-out-directory": _out_is_a_directory,
    "visibility-params-nan": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:3",
                                          "--params", _json_file(tmp, '{"alpha_ps2": NaN}')],
    "reconstruct-fractional-count": _records_with_fractional_count,
    "visibility-delay-nan": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:3", "--delay-ns", "nan"],
    "bell-counts-overflow": lambda tmp: ["bell", "--counts-per-setting", str(10**20), "--resamples", "0"],
    "visibility-temperature-nan": lambda tmp: ["visibility", "--mode", "vs_dt", "--grid", "1:10:3",
                                               "--temperature", "nan"],
    "visibility-grid-nan": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "nan:40:3"],
    "visibility-grid-overflow": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:1e300:3"],
    "visibility-grid-too-many-points": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", f"4:40:{10**15}"],
    "visibility-grid-no-points": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:0"],
    "visibility-grid-fractional-count": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:1e3"],
    "visibility-grid-reversed": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "40:4:3"],
    "visibility-log-grid-zero-start": lambda tmp: ["visibility", "--mode", "vs_dt", "--grid", "0:2000:3", "--log-grid"],
    "trpl-huge-intensity": _trace_with_huge_intensity,
    "vis_T-huge-visibility": _curve_with_huge_visibility("vis_T"),
    "vis_dt-huge-visibility": _curve_with_huge_visibility("vis_dt"),
    "bell-resamples-negative": lambda tmp: ["bell", "--counts-per-setting", "1000", "--resamples", "-5"],
    "reconstruct-resamples-negative": lambda tmp: ["reconstruct", "--records", str(_records_file(tmp)),
                                                   "--resamples", "-1"],
    "bell-resamples-huge": lambda tmp: ["bell", "--counts-per-setting", "1000", "--resamples", str(10**15)],
    "reconstruct-resamples-huge": lambda tmp: ["reconstruct", "--records", str(_records_file(tmp)),
                                               "--resamples", str(10**15)],
    "trpl-irf-negative": lambda tmp: _fit_argv(tmp, "trpl", "--irf-width", "-75"),
    "analyze-window-nan": lambda tmp: [*_g2_histogram(tmp), "--meta", str(tmp / "h.meta.json"), "--window", "nan"],
    "g2-flat-histogram": _flat_g2_histogram,
    "analyze-meta-rep-period-zero": _histogram_with_meta_value("rep_period_ns", 0),
    "analyze-meta-pulse-sep-negative": _histogram_with_meta_value("pulse_pair_sep_ns", -1.0),
    "vis_dt-init-unfitted-key": lambda tmp: _fit_argv(tmp, "vis_dt", "--init",
                                                      _json_file(tmp, '{"alpha_ps2": 0.5, "Gamma_sd_inv_ps": 6e-4}')),
    **{f"visibility-{mode}-grid-{grid}": lambda tmp, mode=mode, grid=grid: ["visibility", "--mode", mode, f"--grid={grid}"]
       for mode in ("vs_T", "vs_dt") for grid in NON_FINITE_GRIDS},
    **{name: make_argv for name, (make_argv, _) in UNREAD_FLAGS.items()},
    # only bell and reconstruct take --seed and --threads; the parser refuses them elsewhere
    "truth-table-seed": lambda tmp: ["truth-table", "--seed", "5"],
    "visibility-seed": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:3", "--seed", "5"],
    "fit-seed": lambda tmp: _fit_argv(tmp, "trpl", "--seed", "5"),
    "analyze-seed": lambda tmp: [*_g2_histogram(tmp), "--meta", str(tmp / "h.meta.json"), "--seed", "5"],
    "visibility-threads": lambda tmp: ["visibility", "--mode", "vs_T", "--grid", "4:40:3", "--threads", "1"],
    # the seed is checked when parsed, whether or not a resample is drawn
    "reconstruct-negative-seed-no-resamples": lambda tmp: ["reconstruct", "--records", str(_records_file(tmp)),
                                                           "--seed", "-1", "--resamples", "0"],
    "bell-threads-zero": lambda tmp: ["bell", "--counts-per-setting", "1000", "--resamples", "0", "--threads", "0"],
}


@pytest.mark.parametrize("make_argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exit_2_without_output(tmp_path, make_argv):
    out = tmp_path / "result.json"
    assert main([*make_argv(tmp_path), "--out", str(out)]) == 2
    assert not out.is_file()
    assert not list(tmp_path.glob(".lophoton-*"))


@pytest.mark.parametrize("name, expected", [
    ("visibility-temperature-nan", "temperature must be >= 0 K, got nan"),
    *[(f"visibility-{mode}-grid-{grid}", f"--grid '{grid}': start and stop must be finite numbers a finite distance apart")
      for mode in ("vs_T", "vs_dt") for grid in NON_FINITE_GRIDS],
    ("visibility-grid-overflow", "the visibility model is not finite at T = 5e+299 K"),
    ("visibility-grid-too-many-points",
     "--grid '4:40:1000000000000000' has 1000000000000000 points, at most 10000000 are allowed"),
    ("visibility-grid-no-points", "--grid '4:40:0': the number of points '0' is not a positive integer"),
    ("visibility-grid-fractional-count", "--grid '4:40:1e3': the number of points '1e3' is not a positive integer"),
    ("visibility-grid-reversed", "--grid '40:4:3': stop 4.0 is below start 40.0"),
    ("visibility-log-grid-zero-start", "--grid '0:2000:3': a --log-grid start must be positive, got 0.0"),
    ("trpl-huge-intensity", "intensity 1e+300 at t = "),
    ("vis_T-huge-visibility", "visibility 1e+300 at T = 18.4 K"),
    ("vis_dt-huge-visibility", "visibility 1e+300 at delay = 18.4 ns"),
    ("bell-resamples-negative", "n_resamples must be at least 100 for a usable spread, got -5"),
    ("reconstruct-resamples-negative", "n_resamples must be at least 100 for a usable spread, got -1"),
    ("bell-resamples-huge", "n_resamples must be at most 10000000, got 1000000000000000"),
    ("reconstruct-resamples-huge", "n_resamples must be at most 10000000, got 1000000000000000"),
    ("trpl-irf-negative", "--irf-width must be finite and >= 0, got -75.0"),
    ("analyze-window-nan", "window_ps must be positive, got nan"),
    ("g2-flat-histogram", "side-peak area is zero; cannot form g2"),
    ("analyze-meta-rep-period-zero", "rep_period_ns must be positive, got 0"),
    ("analyze-meta-pulse-sep-negative", "pulse_pair_sep_ns must be positive, got -1.0"),
    *[(name, expected) for name, (_, expected) in UNREAD_FLAGS.items()],
])
def test_malformed_input_message_names_the_value(tmp_path, capsys, name, expected):
    argv = MALFORMED[name](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert expected in err
    if "--data" in argv and not expected.startswith("--"):  # a fault in the data names the file
        assert f"--data {argv[argv.index('--data') + 1]}" in err


def test_an_init_key_that_the_fit_kind_does_not_fit_is_refused_by_name(tmp_path, capsys):
    argv = MALFORMED["vis_dt-init-unfitted-key"](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    init = argv[argv.index("--init") + 1]
    assert f"--init of a vis_dt fit: {init}: unknown key 'alpha_ps2', expected one of Gamma_sd_inv_ps, tau_c_ns" in err


def test_visibility_curve_runs_quadratures_once_per_block(tmp_path, monkeypatch):
    calls = {"virtual_phonon_rate": [], "franck_condon_factor": []}
    for name in calls:
        def counted(temperature_K, p, _fn=getattr(em, name), _name=name):
            calls[_name].append(np.size(temperature_K))
            return _fn(temperature_K, p)
        monkeypatch.setattr(em, name, counted)
    n = 2 * em._BLOCK + 1
    code, out = run(tmp_path, "visibility", "--mode", "vs_T", "--grid", f"4:40:{n}")
    assert code == 0
    assert len(out.read_text().splitlines()) == n + 1
    blocks = [em._BLOCK, em._BLOCK, 1]
    assert calls == {"virtual_phonon_rate": blocks, "franck_condon_factor": blocks}
    # a vs_dt curve is one temperature, so one block
    for sizes in calls.values():
        sizes.clear()
    assert run(tmp_path, "visibility", "--mode", "vs_dt", "--grid", "1:2000:30")[0] == 0
    assert calls == {"virtual_phonon_rate": [1], "franck_condon_factor": [1]}


def test_vis_dt_fit_runs_each_phonon_sum_once(tmp_path, monkeypatch):
    truth = em.DephasingParams(Gamma_sd_inv_ps=5e-4)
    delays = np.geomspace(1.0, 2000.0, 12)
    data = tmp_path / "vdt.csv"
    write_xy_csv(data, ("delay_ns", "visibility"), delays, em.tpi_visibility(6.0, delays, truth))
    init = _json_file(tmp_path, json.dumps({"Gamma_sd_inv_ps": 6e-4, "tau_c_ns": 280.0}))
    calls = {"virtual_phonon_rate": [], "franck_condon_factor": []}
    for name in calls:
        def counted(temperature_K, p, _fn=getattr(em, name), _name=name):
            calls[_name].append(np.size(temperature_K))
            return _fn(temperature_K, p)
        monkeypatch.setattr(em, name, counted)
    code, _ = run(tmp_path, "fit", "--kind", "vis_dt", "--data", str(data), "--init", init, "--temperature", "6.0")
    assert code == 0
    assert calls == {"virtual_phonon_rate": [1], "franck_condon_factor": [1]}


def test_vis_T_fit_makes_one_phonon_pass_per_evaluation(tmp_path, monkeypatch):
    truth = em.DephasingParams()
    temps = np.linspace(4.0, 40.0, 12)
    data = tmp_path / "vis.csv"
    write_xy_csv(data, ("temperature_K", "visibility"), temps, em.tpi_visibility(temps, 0.0, truth))
    init = _json_file(tmp_path, json.dumps({"alpha_ps2": 0.0057, "v_c_inv_ps": 4.75, "mu_ps2": 2.27e-3, "F": 0.29}))
    passes, solves = [], []

    def counted(temps, p, partials, _fn=em._phonon_factors):
        passes.append(partials)
        return _fn(temps, p, partials)

    def recorded(fun, x0, _fn=optimize.least_squares, **options):
        res = _fn(fun, x0, **options)
        solves.append((options.get("jac"), res.nfev))
        return res

    monkeypatch.setattr(em, "_phonon_factors", counted)
    monkeypatch.setattr(optimize, "least_squares", recorded)
    code, _ = run(tmp_path, "fit", "--kind", "vis_T", "--data", str(data), "--init", init)
    assert code == 0
    # an exact Jacobian in every solve, and every pass carries the partials: none is a finite difference
    assert solves and all(callable(jac) for jac, _ in solves)
    nfev = sum(n for _, n in solves)
    # plain trf took 35 evaluations on this curve
    assert all(passes) and 0 < len(passes) <= nfev <= 10


def _cold_argv(command, tmp):
    """argv of a valid command run whose inputs are written to tmp."""
    if command == "truth-table":
        return ["truth-table"]
    if command.startswith("visibility"):
        mode = command.split("-")[1]
        return ["visibility", "--mode", mode, "--grid", "4:40:3" if mode == "vs_T" else "1:2000:3"]
    return _valid_inputs(command, tmp)[0]


@pytest.mark.parametrize("command", ["truth-table", "visibility-vs_T", "visibility-vs_dt", "analyze-g2",
                                     "analyze-hom"])
def test_subcommand_loads_no_scipy(tmp_path, command):
    """Subcommands that need no SciPy routine start without importing any scipy module."""
    # a fresh process, since this one has imported SciPy already
    code = ("import json, sys\n"
            "from lophoton import cli\n"
            "assert cli.main([*json.loads(sys.argv[1]), '--out', sys.argv[2]]) == 0\n"
            "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = json.dumps(_cold_argv(command, tmp_path))
    done = subprocess.run([sys.executable, "-c", code, argv, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("value", ["abc", "777"])
def test_the_environment_does_not_set_the_seed(tmp_path, monkeypatch, value):
    """LOPHOTON_SEED, once read as the default seed, changes no output."""
    calls = [["truth-table"], ["bell", "--counts-per-setting", "5000", "--resamples", "100"]]
    monkeypatch.delenv("LOPHOTON_SEED", raising=False)
    before = [run(tmp_path, *argv)[1].read_bytes() for argv in calls]
    monkeypatch.setenv("LOPHOTON_SEED", value)
    assert [run(tmp_path, *argv)[1].read_bytes() for argv in calls] == before
    assert json.loads(before[1])["seed"] == cli.DEFAULT_SEED


def test_default_seed_constant():
    assert cli.DEFAULT_SEED == 123456789


# ---------------------------------------------------------------------------
# one parser per process: no call leaves state behind for the next one
# ---------------------------------------------------------------------------

def _flag_pairs(tmp):
    """{case: (argv with a flag, the same argv without it)}; the two give different outputs."""
    (tmp / "analyze").mkdir()
    (tmp / "fit").mkdir()
    analyze, _, _ = _valid_inputs("analyze-g2", tmp / "analyze")
    fit, _, _ = _valid_inputs("fit-trpl", tmp / "fit")
    assert fit[-2] == "--init"
    records = ["reconstruct", "--records", str(_records_file(tmp))]
    curve = ["visibility", "--mode", "vs_dt", "--grid", "1:2000:5"]
    return {
        "analyze-window": ([*analyze, "--window", "1500"], analyze),
        "truth-table-measured": (["truth-table", "--measured-fzz", "0.9", "--measured-fxx", "0.8"], ["truth-table"]),
        "fit-init": (fit, fit[:-2]),
        "reconstruct-target": ([*records, "--target", "maximally-mixed"], records),
        "seed-flag-then-default": ([*records, "--resamples", "100", "--seed", "777"], [*records, "--resamples", "100"]),
        "visibility-temperature": ([*curve, "--temperature", "6.0"], curve),
    }


#: a call refused for a flag that its mode does not read
REFUSED = ["visibility", "--mode", "vs_T", "--grid", "4:40:3", "--temperature", "6.0"]


@pytest.mark.parametrize("case", ["analyze-window", "truth-table-measured", "fit-init", "reconstruct-target",
                                  "seed-flag-then-default", "visibility-temperature"])
def test_a_flag_of_one_call_does_not_reach_the_next(tmp_path, case):
    flagged, plain = _flag_pairs(tmp_path)[case]

    def output(argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    first = {}
    for argv in (flagged, plain):
        cli._parser.cache_clear()  # each reference output comes from the first call of a new parser
        first[tuple(argv)] = output(argv)
    assert first[tuple(flagged)] != first[tuple(plain)]
    for argv in (flagged, plain, flagged, plain):
        assert main(REFUSED) == 2  # refused after its flags were parsed: none of them reaches the next call
        assert output(argv) == first[tuple(argv)]


def test_a_patched_subcommand_is_called_after_the_first_call(tmp_path, monkeypatch):
    assert main(["truth-table", "--out", str(tmp_path / "out")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_truth_table", lambda args: seen.append(args.overlap) or 0)
    assert main(["truth-table", "--overlap", "0.5"]) == 0
    assert seen == [0.5]


def _passes_the_flag_table(argv):
    """Whether argv parses and passes the refusal of flags that its mode or kind does not read; nothing runs."""
    try:
        cli._set_flags(cli._parser().parse_args(argv))
    except ValueError:  # the parser or the flag table refuses a flag or a value
        return False
    return True


ROOT = Path(__file__).resolve().parents[1]


def _golden():
    """tools/golden.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def test_every_recorded_call_passes_only_flags_its_mode_reads(tmp_path, monkeypatch):
    """Of the seeded calls of tools/golden.py and one round of each benchmark workload, only the golden calls
    made for the refusal are refused."""
    refused = [name for name, argv in _golden().calls() if not _passes_the_flag_table(argv)]
    assert refused == ["bad-unread-flag", "bad-unread-seed", "bad-choice", "bad-missing-flag", "bad-float",
                       "bad-threads"]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(1)
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        ops = [*workload.warmup(work, rng), *workload.round(work, rng), *workload.malformed(work)]
        assert ops and all(_passes_the_flag_table(op.argv) for op in ops)


def test_an_unknown_flag_exits_2_through_argparse_every_time(capsys):
    for flag in ("--no-such-flag", "--seed", "--threads"):  # truth-table reads no seed
        for _ in range(2):
            assert main(["truth-table", flag, "5"]) == 2
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize("resamples", ["0", "100"])
def test_a_negative_seed_is_refused_before_the_records_are_read(capsys, resamples):
    assert main(["reconstruct", "--records", "missing.csv", "--seed", "-1", "--resamples", resamples]) == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err


#: argv that the parser refuses, each with a part of the one line that main prints
PARSE_REFUSALS = {
    "unknown-flag": (["truth-table", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    "unknown-subcommand": (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
    "no-subcommand": ([], "argument command: invalid choice: "),  # --out is read as the subcommand
    "invalid-choice": (["truth-table", "--basis", "QQ"], "argument --basis: invalid choice: 'QQ'"),
    "missing-flag": (["visibility", "--mode", "vs_T"], "the following arguments are required: --grid"),
    "non-numeric-float": (["bell", "--overlap", "abc"], "argument --overlap: invalid float value: 'abc'"),
    "non-integer-int": (["bell", "--counts-per-setting", "1.5"],
                        "argument --counts-per-setting: invalid int value: '1.5'"),
    "negative-seed": (["bell", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
    "zero-threads": (["bell", "--threads", "0"], "argument --threads: must be a positive integer, got '0'"),
}


@pytest.mark.parametrize("argv, expected", PARSE_REFUSALS.values(), ids=PARSE_REFUSALS.keys())
def test_a_parse_refusal_returns_2_with_one_error_line(tmp_path, capsys, argv, expected):
    """main returns the exit code of a refusal by the parser, as it does for any other bad input."""
    out = tmp_path / "result.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert expected in err
    assert not out.exists()
    assert not list(tmp_path.glob(".lophoton-*"))


def test_every_golden_call_exits_0_and_every_bad_one_2_without_output(tmp_path, monkeypatch):
    """The calls of tools/golden.py on its own inputs: the exit codes that its record holds, no output files."""
    golden = _golden()
    golden.write_inputs(tmp_path / "inputs")
    monkeypatch.chdir(tmp_path)
    calls = golden.calls()
    codes = {name: main([*argv, "--out", f"{name}.out"]) for name, argv in calls}
    assert codes == {name: 2 if name.startswith("bad-") else 0 for name, _ in calls}
    assert [name for name, _ in calls if name.startswith("bad-") and Path(f"{name}.out").exists()] == []


# ---------------------------------------------------------------------------
# fuzzed input files: every outcome is an exit code, never a traceback, and
# every fuzzed histogram or xy file reads the same through io.read_columns
# as through the row loop
# ---------------------------------------------------------------------------

FIELDS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "-1", "12.5", "1e400", "9" * 25, "1e300", "0", " 7", "H", "Z"]),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _valid_inputs(target, tmp):
    """argv of one valid run and the paths of its CSV and JSON inputs."""
    data, side = tmp / "data.csv", tmp / "side.json"
    if target == "reconstruct":
        write_records_csv(data, tomo.simulate_counts(tomo.werner(0.9), 200, seed=3))
        return ["reconstruct", "--records", str(data)], data, None
    if target == "fit-trpl":
        t = np.linspace(0.0, 2000.0, 40)
        y = em.trpl_model(t, em.DecayParams(350.0, 0.01), 1.0, 75.0)
        write_xy_csv(data, ("t_ps", "intensity"), t, y)
        side.write_text(json.dumps({"t1_ps": 340.0, "delta_inv_ps": 0.01}))
        return ["fit", "--kind", "trpl", "--data", str(data), "--init", str(side)], data, side
    kind = target.split("-")[1]
    model = ct.HbtModel(0.02) if kind == "g2" else ct.HomModel(0.9, 2.0)
    h = ct.synth_histogram(model, em.DecayParams(100.0, 0.0), 20_000, seed=5, bin_width_ps=40.0, n_side=3)
    write_histogram_csv(data, side, h)
    return ["analyze", "--kind", kind, "--histogram", str(data), "--meta", str(side)], data, side


def _mutate_csv(data, lines):
    what = data.draw(st.sampled_from(["header", "row", "field"]))
    i = 0 if what == "header" else data.draw(st.integers(1, len(lines) - 1))
    if what == "field":
        fields = lines[i].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(FIELDS)
        lines[i] = ",".join(fields)
    else:
        lines[i:i + 1] = data.draw(st.lists(st.text(max_size=12).filter(lambda s: "\n" not in s), max_size=2))
    return lines


def _mutate_json(data, text):
    obj = json.loads(text)
    if obj and data.draw(st.booleans()):
        obj[data.draw(st.sampled_from(sorted(obj)))] = data.draw(JSON_VALUES)
        return json.dumps(obj)
    return json.dumps(data.draw(JSON_VALUES))


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["reconstruct", "analyze-g2", "analyze-hom", "fit-trpl"]), data=st.data())
def test_fuzzed_inputs_give_an_exit_code(target, data):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        argv, csv_path, json_path = _valid_inputs(target, tmp)
        if json_path is not None and data.draw(st.booleans()):
            json_path.write_text(_mutate_json(data, json_path.read_text()))
        else:
            lines = _mutate_csv(data, csv_path.read_text().splitlines())
            csv_path.write_text("\n".join(lines) + "\n")
        if target != "reconstruct":  # the two readers built on io.read_columns
            assert_columns_match_row_loop(csv_path, *(XY_COLUMNS if target == "fit-trpl" else HISTOGRAM_COLUMNS))
        out = tmp / "out.json"
        code = main([*argv, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert not out.exists()
            assert not list(tmp.glob(".lophoton-*"))


#: argv edge values of the numeric flags, the integral ones also spelt as
#: integers for the int flags
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "1", "1e300", "1e-300", "0.5", "2", "1e15", "1e17", "1e20",
               str(10**15), str(10**17), str(10**20)]
#: a valid bell run whose flags the fuzzer replaces; --resamples stays in
#: {0, 100, 200} or is 10^15, which is refused before any refit, so that
#: no example starts a long run
BELL_FLAGS = {"--overlap": "0.9", "--counts-per-setting": "2000", "--resamples": "0", "--seed": "1"}


def _assert_an_exit_code_and_no_output_on_failure(argv, out):
    code = main([*argv, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert not out.exists()
    return code


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_bell_flags_give_an_exit_code(data):
    argv = ["bell"]
    for flag, valid in BELL_FLAGS.items():
        values = st.sampled_from(["0", "100", "200", str(10**15)] if flag == "--resamples" else EDGE_VALUES)
        argv += [flag, data.draw(st.just(valid) | values, label=flag)]
    with tempfile.TemporaryDirectory() as d:
        _assert_an_exit_code_and_no_output_on_failure(argv, Path(d) / "out.json")


#: the five subcommands besides bell, whose numeric flags the fuzzer below replaces
FUZZED_COMMANDS = ["truth-table", "visibility", "fit", "analyze", "reconstruct"]


def _edge_or(valid):
    return st.just(valid) | st.sampled_from(EDGE_VALUES)


def _fuzzed_argv(data, tmp):
    """(argv, unread) of one subcommand of FUZZED_COMMANDS on valid inputs written to tmp.

    Each numeric flag is either valid or an edge value, joined to its flag
    by =.  Each flag that cli's flag table gives to some modes or kinds
    only is drawn present or absent, and so is one of --seed and --threads,
    which only reconstruct of these takes; unread lists those drawn that
    the run does not take.
    """
    def flags(**valid):
        return [f"--{name.replace('_', '-')}={data.draw(_edge_or(value), label=name)}" for name, value in valid.items()]

    def mode_flags(command, mode, values):
        drawn, unread = [], []
        for flag, _, readers in cli._SUBCOMMANDS[command][2]:
            if readers is not None and data.draw(st.booleans(), label=flag):
                drawn.append(f"{flag}={data.draw(values[flag], label=flag)}")
                unread += [] if mode in readers else [flag]
        return drawn, unread

    command = data.draw(st.sampled_from(FUZZED_COMMANDS), label="command")
    if command == "reconstruct":
        argv, _, _ = _valid_inputs("reconstruct", tmp)
        return [*argv, *flags(seed="1"), f"--resamples={data.draw(st.sampled_from(['0', '100', str(10**15)]))}"], []
    unread = []
    if command == "truth-table":
        argv = ["truth-table", *flags(overlap="0.9", measured_fzz="0.9", measured_fxx="0.8")]
    elif command == "visibility":
        start, stop = data.draw(_edge_or("4"), label="start"), data.draw(_edge_or("40"), label="stop")
        mode = data.draw(st.sampled_from(["vs_T", "vs_dt"]), label="mode")
        drawn, unread = mode_flags(command, mode, {"--delay-ns": _edge_or("2.0"), "--temperature": _edge_or("4.0")})
        argv = ["visibility", "--mode", mode, f"--grid={start}:{stop}:{data.draw(st.integers(1, 50), label='num')}"]
        argv += drawn + ["--log-grid"] * data.draw(st.booleans(), label="log")
    elif command == "fit":
        kind = data.draw(st.sampled_from(["trpl", "vis_T", "vis_dt"]), label="kind")
        params = st.just(_json_file(tmp, '{"alpha_ps2": 0.0055}'))
        drawn, unread = mode_flags(command, kind, {"--params": params, "--irf-width": _edge_or("75"),
                                                   "--temperature": _edge_or("4.0")})
        argv = _fit_argv(tmp, kind, *drawn)
    else:
        argv, _, _ = _valid_inputs(data.draw(st.sampled_from(["analyze-g2", "analyze-hom"])), tmp)
        argv = [*argv, *flags(window="600")]
    seeded = data.draw(st.sampled_from([None, *(flag for flag, _, _ in cli._SEEDED_FLAGS)]), label="seeded")
    if seeded is not None:
        argv, unread = [*argv, f"{seeded}={data.draw(_edge_or('1'), label=seeded)}"], [*unread, seeded]
    return argv, unread


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_flags_of_the_other_subcommands_give_an_exit_code(data):
    with tempfile.TemporaryDirectory() as d:
        argv, unread = _fuzzed_argv(data, Path(d))
        code = _assert_an_exit_code_and_no_output_on_failure(argv, Path(d) / "out.json")
    if unread:  # refused whatever the values: the refusal comes before any value is checked
        assert code == 2
