"""Each output check of the benchmark accepts a correct output and rejects a
perturbed one; the tracer attributes calls and self time as documented.

    python3 -m pytest -q perfbench/test_perfbench_checks.py
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _state_payload(rho, **extra):
    mc = {name: {"mean": 0.5, "std": 1e-3} for name in (
        "fidelity_to_target", "concurrence", "entropy_full_bits", "entropy_reduced_bits", "purity")}
    return {"rho_real": rho.real.tolist(), "rho_imag": rho.imag.tolist(),
            "metrics_mc": mc, "n_resamples": 100, **extra}


def _bell_payload(rho, overlap=1.0):
    fid = float(np.real(ref.PSI_MINUS.conj() @ rho @ ref.PSI_MINUS))
    return _state_payload(
        rho,
        metrics={"fidelity_to_target": fid, "concurrence": ref.wootters_concurrence(rho)},
        hofmann={"f_zz": 1.0, "f_xx": 1.0} if overlap == 1.0 else {"f_zz": 0.95, "f_xx": 0.95},
    )


def _rejects(check, payload, **kwargs):
    with pytest.raises(ref.CheckFailed):
        check(json.dumps(payload), **kwargs)


@pytest.mark.parametrize("overlap", [1.0, 0.9])
def test_bell_check_accepts_exact_state_and_rejects_shifted_rho(overlap):
    rho = ref.exact_bell_state(overlap)
    ref.check_bell(json.dumps(_bell_payload(rho, overlap)), overlap=overlap, n_resamples=100)

    shifted = 0.98 * rho + 0.02 * ref.product_state("H", "H")  # physical, but another state
    reported = _bell_payload(rho, overlap)
    reported["rho_real"] = shifted.real.tolist()
    _rejects(ref.check_bell, reported, overlap=overlap, n_resamples=100)
    # consistent metrics do not rescue a state far from the exact one
    _rejects(ref.check_bell, _bell_payload(ref.werner(0.99), overlap), overlap=overlap, n_resamples=100)


def test_bell_check_rejects_broken_properties():
    rho = ref.exact_bell_state(1.0)
    for edit in (
        lambda d: d["metrics"].update(concurrence=d["metrics"]["concurrence"] - 1e-4),
        lambda d: d["hofmann"].update(f_xx=0.999),
        lambda d: d.update(n_resamples=99),
        lambda d: d["metrics_mc"]["purity"].update(std=0.0),
        lambda d: d["metrics_mc"]["purity"].update(std=float("nan")),
        lambda d: d.update(rho_real=(np.array(d["rho_real"]) * 1.01).tolist()),
    ):
        payload = _bell_payload(rho)
        edit(payload)
        _rejects(ref.check_bell, payload, overlap=1.0, n_resamples=100)


def test_reconstruct_check_accepts_consistent_likelihood_and_rejects_shifts():
    rng = np.random.default_rng(3)
    true = ref.werner(0.9)
    counts = ref.sample_counts(true, 2000, rng)
    kwargs = dict(counts=counts, true_rho=true, n_resamples=100)
    ref.check_reconstruct(json.dumps(_state_payload(true, log_likelihood=ref.log_likelihood(true, counts))), **kwargs)

    _rejects(ref.check_reconstruct, _state_payload(true, log_likelihood=ref.log_likelihood(true, counts) + 1e-3), **kwargs)
    worse = ref.werner(0.8)  # reported log-likelihood is its own, but below the truth's
    _rejects(ref.check_reconstruct, _state_payload(worse, log_likelihood=ref.log_likelihood(worse, counts)), **kwargs)
    unphysical = true + 0.3 * (ref.product_state("H", "H") - ref.product_state("V", "V"))
    _rejects(ref.check_reconstruct, _state_payload(unphysical, log_likelihood=ref.log_likelihood(true, counts)), **kwargs)


def test_records_csv_orders_outcomes_by_setting():
    counts = np.arange(36).reshape(9, 4)
    lines = ref.records_csv(counts, bad_count="nan").splitlines()
    assert lines[0] == "basis1,basis2,outcome1,outcome2,counts"
    assert lines[1] == "Z,Z,H,H,nan"
    assert lines[10] == "Z,Y,H,L,9"
    assert lines[36] == "Y,Y,L,L,35"


def test_analyze_check_rejects_shifted_g2():
    payload = {"kind": "g2", "value": 0.0215, "error": 0.0005}
    ref.check_analyze(json.dumps(payload), truth=0.02)
    _rejects(ref.check_analyze, {**payload, "value": 0.0215 + 0.004}, truth=0.02)
    _rejects(ref.check_analyze, {**payload, "error": 0.0}, truth=0.02)


@pytest.mark.parametrize("kind,truth", [("g2", 0.02), ("hom", 0.9)])
def test_histogram_generator_follows_estimator_conventions(kind, truth):
    text, meta = ref.histogram(kind, truth, 100.0, 10**7, np.random.default_rng(1),
                               bin_width_ps=20.0, n_side=2, background_per_bin=0)
    rows = np.array([[float(a), float(b)] for a, b in (r.split(",") for r in text.splitlines()[1:])])
    taus, counts = rows[:, 0], rows[:, 1]
    area = lambda c: counts[np.abs(taus - c) <= 600.0].sum()  # noqa: E731
    rep = ref.REP_PERIOD_NS * 1000.0
    if kind == "g2":
        estimate = area(0.0) / np.mean([area(k * rep) for k in (-2, -1, 1, 2)])
    else:
        assert json.loads(meta)["pulse_pair_sep_ns"] == 2.0
        estimate = 1.0 - area(0.0) / (0.5 * np.mean([area(-2000.0), area(2000.0)]))
    assert estimate == pytest.approx(truth, abs=0.01)


def test_trpl_check_rejects_shifted_lifetime_and_splitting():
    good = {"params": {"t1_ps": 350.0 * 1.01, "delta_ueV": 6.4 * 0.99}}
    ref.check_trpl(json.dumps(good), t1_ps=350.0, splitting_ueV=6.4)
    _rejects(ref.check_trpl, {"params": {**good["params"], "t1_ps": 350.0 * 1.05}}, t1_ps=350.0, splitting_ueV=6.4)
    _rejects(ref.check_trpl, {"params": {**good["params"], "delta_ueV": 6.4 * 1.05}}, t1_ps=350.0, splitting_ueV=6.4)


def test_decay_trace_matches_numerical_convolution():
    t = np.arange(-1000.0, 4000.0, 0.5)
    t1, split, fwhm = 350.0, 6.4, 75.0
    delta = split * 1e-6 / ref.HBAR_EV_PS
    raw = np.where(t >= 0, 2.0 * np.exp(-np.maximum(t, 0) / t1) * (1.0 - np.cos(delta * t)), 0.0)
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    k = np.arange(-400, 401) * 0.5
    kernel = np.exp(-0.5 * (k / sigma) ** 2)
    numeric = np.convolve(raw, kernel / kernel.sum(), mode="same")
    inner = slice(1000, -1000)
    assert np.max(np.abs(ref.decay_trace(t, t1, split, fwhm, 1.0)[inner] - numeric[inner])) < 1e-4


def test_fit_check_rejects_shifted_parameter():
    truth = {"alpha_ps2": 0.0055, "F": 0.3}
    ref.check_fit(json.dumps({"params": {"alpha_ps2": 0.0055 * (1 + 1e-6), "F": 0.3}}), truth=truth, names=truth)
    _rejects(ref.check_fit, {"params": {"alpha_ps2": 0.0055 * 1.001, "F": 0.3}}, truth=truth, names=truth)


def test_curve_check_rejects_off_oracle_rising_and_out_of_range_curves():
    grid = np.linspace(4.0, 40.0, 5)
    model = lambda t: 0.95 - 0.01 * t  # noqa: E731

    def csv(values):
        return "temperature_K,visibility\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(grid.tolist(), values))

    values = [model(t) for t in grid.tolist()]
    ref.check_curve(csv(values), grid=grid, oracle_at=model, sample_idx=[1, 3])
    shifted = list(values)
    shifted[3] += 2e-6
    with pytest.raises(ref.CheckFailed):
        ref.check_curve(csv(shifted), grid=grid, oracle_at=model, sample_idx=[1, 3])
    rising = list(values)
    rising[2] = rising[1] + 1e-3
    with pytest.raises(ref.CheckFailed):
        ref.check_curve(csv(rising), grid=grid, oracle_at=lambda t: 0.0, sample_idx=[])
    with pytest.raises(ref.CheckFailed):
        ref.check_curve(csv([1.2] + values[1:]), grid=grid, oracle_at=model, sample_idx=[])


def test_tracer_wraps_every_binding_and_derives_self_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    inner_mod = types.ModuleType("fake.inner")
    outer_mod = types.ModuleType("fake.outer")
    exec("def leaf(x):\n    return x + 1\n", inner_mod.__dict__)
    outer_mod.leaf = inner_mod.leaf  # as ``from .inner import leaf`` binds it
    exec("def twice(x):\n    return leaf(leaf(x))\n", outer_mod.__dict__)

    tracer = tracing.Tracer({"inner": inner_mod, "outer": outer_mod})
    with tracer:
        assert outer_mod.twice(1) == 3
        assert inner_mod.leaf(0) == 1
    assert outer_mod.leaf is inner_mod.leaf and not hasattr(outer_mod.leaf, "__wrapped__")
    spans = tracer.summary()
    assert spans["inner.leaf"]["calls"] == 3
    assert spans["outer.twice"]["calls"] == 1
    assert "outer.leaf" not in spans
    # one tick per clock read: twice spans ticks 0..5, its two leaves 1..2 and 3..4
    assert spans["outer.twice"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert spans["inner.leaf"]["self_s"] == spans["inner.leaf"]["total_s"] == 3.0
    assert tracer.n_spans == 4


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = run.per_layer_metrics(tracing.Tracer({}), {"bell": 2.0}, [{"bell": 1.0}], [1.0])
    end_to_end = run.end_to_end_metrics([1.0], [1.0], 100.0)
    for reported, listed in ((per_layer, bench["per_layer"]), (end_to_end, bench["end_to_end"])):
        assert {k: v["unit"] for k, v in reported.items()} == {m["name"]: m["unit"] for m in listed}
    assert per_layer["trace.overhead_ratio"]["value"] == 1.0
