"""The three benchmark workloads as lists of lophoton CLI invocations.

A workload builds its inputs from a numpy Generator, writes them as files,
and returns Ops: the argv handed to lophoton.cli.main, the --out path, and
the check its output must pass.  Each round's Generator is seeded by the
run's --seed and the round index, so every round draws fresh inputs and
nothing the program might cache between calls in one process carries from
one round to the next.  The three malformed-input operations are the
exception: they are fixed files, run in every round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

#: dephasing parameters of the acceptance suite, the centre of every draw
REF_DEPHASING = {
    "alpha_ps2": 0.0055,
    "v_c_inv_ps": 4.9,
    "mu_ps2": 2.2e-3,
    "F": 0.3,
    "T1_ps": 350.0,
    "Gamma_sd_inv_ps": 0.0,
    "tau_c_ns": 350.0,
}
VS_T_FREE = ("alpha_ps2", "v_c_inv_ps", "mu_ps2", "F")
VS_DT_FREE = ("Gamma_sd_inv_ps", "tau_c_ns")


@dataclass
class Op:
    """One cli.main call and what its output must satisfy.

    metric names the subcommand time it adds to; malformed marks an input
    the CLI must reject with exit 2, leaving no --out file.
    """

    metric: str
    argv: list
    out: Path
    check: Callable[[str], None] | None = None
    malformed: bool = False
    resamples: int = 0
    label: str = ""


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    warmup: Callable[[Path, np.random.Generator], list]
    round: Callable[[Path, np.random.Generator], list]
    malformed: Callable[[Path], list] = field(default=lambda work: [])  # same ops every round


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _cli_seed(rng) -> str:
    return str(int(rng.integers(1, 2**31 - 1)))


# ---------------------------------------------------------------------------
# bell-mc
# ---------------------------------------------------------------------------

def _bell(work, rng, overlap, counts, resamples):
    out = work / f"bell-{overlap}.json"
    argv = [
        "bell", "--overlap", repr(overlap), "--counts-per-setting", str(counts),
        "--resamples", str(resamples), "--seed", _cli_seed(rng), "--out", str(out),
    ]
    check = partial(ref.check_bell, overlap=overlap, n_resamples=resamples)
    return Op("bell", argv, out, check, resamples=resamples, label=f"bell overlap {overlap}")


def bell_warmup(work, rng):
    return [_bell(work, rng, 0.9, 1_000_000, 100)]


def bell_round(work, rng):
    return [_bell(work, rng, overlap, 1_000_000, 1000) for overlap in (1.0, 0.9)]


# ---------------------------------------------------------------------------
# measured-data
# ---------------------------------------------------------------------------

def _reconstruct(work, rng, tag, rho, n_per_setting, resamples=100):
    counts = ref.sample_counts(rho, n_per_setting, rng)
    data = _write(work / f"records-{tag}.csv", ref.records_csv(counts))
    out = work / f"state-{tag}.json"
    argv = ["reconstruct", "--records", data, "--resamples", str(resamples),
            "--seed", _cli_seed(rng), "--out", str(out)]
    check = partial(ref.check_reconstruct, counts=counts, true_rho=rho, n_resamples=resamples)
    return Op("reconstruct", argv, out, check, resamples=resamples, label=f"reconstruct {tag}")


def _analyze(work, rng, kind, truth, total_counts, **shape):
    t1 = 350.0 if kind == "g2" else 100.0
    csv_text, meta = ref.histogram(kind, truth, t1, total_counts, rng, **shape)
    hist = _write(work / f"{kind}.csv", csv_text)
    meta_path = _write(work / f"{kind}.meta.json", meta)
    out = work / f"{kind}.json"
    argv = ["analyze", "--kind", kind, "--histogram", hist, "--meta", meta_path, "--out", str(out)]
    return Op("analyze", argv, out, partial(ref.check_analyze, truth=truth), label=f"analyze {kind}")


def _trpl(work, rng, tag, n_points):
    t1 = float(rng.uniform(280.0, 420.0))
    splitting = float(rng.uniform(5.5, 7.5))
    t = np.linspace(-500.0, 3500.0, n_points)
    shape = ref.decay_trace(t, t1, splitting, 75.0, 1.0)
    counts = rng.poisson(shape * (20_000.0 / shape.max()))
    rows = "\n".join(f"{a!r},{int(c)}" for a, c in zip(t.tolist(), counts.tolist()))
    data = _write(work / f"decay-{tag}.csv", "time_ps,counts\n" + rows + "\n")
    out = work / f"trpl-{tag}.json"
    argv = ["fit", "--kind", "trpl", "--data", data, "--irf-width", "75", "--out", str(out)]
    check = partial(ref.check_trpl, t1_ps=t1, splitting_ueV=splitting)
    return Op("fit_trpl", argv, out, check, label=f"fit trpl {tag}")


def measured_warmup(work, rng):
    small = dict(total_counts=200_000, bin_width_ps=20.0, n_side=3, background_per_bin=2)
    return [
        _reconstruct(work, rng, "warm", ref.werner(0.7), 10_000),
        _analyze(work, rng, "g2", 0.02, **small),
        _analyze(work, rng, "hom", 0.9, **small),
        _trpl(work, rng, "warm", 1000),
    ]


def measured_round(work, rng):
    large = dict(total_counts=2_000_000, bin_width_ps=4.0, n_side=8, background_per_bin=2)
    werner, product = ref.werner(0.9), ref.product_state("H", "D")
    ops = [
        _reconstruct(work, rng, "werner-low", werner, 100),
        _reconstruct(work, rng, "werner-moderate", werner, 2000),
        _reconstruct(work, rng, "product-low", product, 100),
        _reconstruct(work, rng, "product-moderate", product, 2000),
        _analyze(work, rng, "g2", float(rng.uniform(0.01, 0.03)), **large),
        _analyze(work, rng, "hom", float(rng.uniform(0.85, 0.95)), **large),
    ]
    ops += [_trpl(work, rng, f"{i}", 2000) for i in range(6)]
    return ops


def measured_malformed(work):
    """Three inputs the CLI must reject with exit 2; they do not depend on the seed."""
    rng = np.random.default_rng(0)
    records = _write(work / "bad-records.csv", ref.records_csv(ref.sample_counts(ref.werner(0.9), 100, rng), "nan"))
    xs = np.linspace(4.0, 40.0, 20)
    ys = ["nan" if i == 7 else repr(0.9 - 0.01 * i) for i in range(20)]
    curve = _write(work / "bad-vis.csv", "temperature_K,visibility\n" + "".join(f"{x!r},{y}\n" for x, y in zip(xs.tolist(), ys)))
    csv_text, meta = ref.histogram(
        "hom", 0.9, 100.0, 200_000, rng, bin_width_ps=20.0, n_side=2, background_per_bin=2,
        tau_offset_ps=3.0 * ref.REP_PERIOD_NS * 1000.0,
    )
    hist = _write(work / "bad-hom.csv", csv_text)
    meta_path = _write(work / "bad-hom.meta.json", meta)
    cases = [
        ("reconstruct", "reconstruct with a nan count", ["reconstruct", "--records", records, "--resamples", "100"]),
        ("fit_vis_T", "fit vis_T with a nan visibility", ["fit", "--kind", "vis_T", "--data", curve]),
        ("analyze", "analyze hom without tau = 0", ["analyze", "--kind", "hom", "--histogram", hist, "--meta", meta_path]),
    ]
    ops = []
    for i, (metric, label, argv) in enumerate(cases):
        out = work / f"bad-out-{i}.json"
        ops.append(Op(metric, [*argv, "--out", str(out)], out, malformed=True, label=label))
    return ops


# ---------------------------------------------------------------------------
# emitter-model
# ---------------------------------------------------------------------------

def _draw_dephasing(rng):
    p = dict(REF_DEPHASING)
    for name in VS_T_FREE:
        p[name] *= float(rng.uniform(0.9, 1.1))
    p["Gamma_sd_inv_ps"] = float(rng.uniform(3e-4, 7e-4))
    p["tau_c_ns"] = float(rng.uniform(250.0, 450.0))
    return p


def _params_file(path, params):
    return _write(path, json.dumps(params) + "\n")


def _oracle_samples(rng, n):
    return sorted(rng.choice(n, size=2, replace=False).tolist())


def _visibility(work, rng, mode, n_points):
    params = _draw_dephasing(rng)
    pfile = _params_file(work / f"params-{mode}.json", params)
    out = work / f"vis-{mode}.csv"
    if mode == "vs_T":
        grid = np.linspace(4.0, 40.0, n_points)
        argv = ["visibility", "--mode", "vs_T", "--grid", f"4:40:{n_points}", "--delay-ns", "2.0"]
        oracle_at = lambda t: ref.oracle_visibility(t, 2.0, params)  # noqa: E731
    else:
        temperature = float(rng.uniform(4.0, 10.0))
        grid = np.geomspace(1.0, 2000.0, n_points)
        argv = ["visibility", "--mode", "vs_dt", "--grid", f"1:2000:{n_points}", "--log-grid",
                "--temperature", repr(temperature)]
        oracle_at = lambda d: ref.oracle_visibility(temperature, d, params)  # noqa: E731
    argv += ["--params", pfile, "--out", str(out)]
    check = partial(ref.check_curve, grid=grid, oracle_at=oracle_at, sample_idx=_oracle_samples(rng, n_points))
    return Op(f"visibility_{mode}", argv, out, check, label=f"visibility {mode}")


def _fit_vis(work, rng, kind, tag, n_points):
    truth = _draw_dephasing(rng)
    if kind == "vis_T":
        truth["Gamma_sd_inv_ps"] = 0.0
        xs = np.linspace(4.0, 40.0, n_points)
        ys = [ref.oracle_visibility(t, 0.0, truth, n=100_000) for t in xs]
        # 3 % from the truth: from the reference values the number of model
        # evaluations, and the fit time with it, swings 3x between seeds
        free, offsets, extra = VS_T_FREE, (1.03, 0.97, 1.03, 0.97), []
        header = "temperature_K,visibility"
    else:
        temperature = float(rng.uniform(4.0, 10.0))
        xs = np.geomspace(1.0, 2000.0, n_points)
        ys = [ref.oracle_visibility(temperature, d, truth, n=50_000) for d in xs]
        free, offsets, extra = VS_DT_FREE, (1.2, 0.8), ["--temperature", repr(temperature)]
        header = "delay_ns,visibility"
    data = _write(work / f"{kind}-{tag}.csv", header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys)))
    init = _params_file(work / f"{kind}-{tag}.init.json", {k: truth[k] * f for k, f in zip(free, offsets)})
    fixed = _params_file(work / f"{kind}-{tag}.fixed.json", truth)
    out = work / f"{kind}-{tag}.json"
    argv = ["fit", "--kind", kind, "--data", data, "--init", init, "--params", fixed, *extra, "--out", str(out)]
    return Op(f"fit_{kind}", argv, out, partial(ref.check_fit, truth=truth, names=free), label=f"fit {kind} {tag}")


def emitter_warmup(work, rng):
    return [
        _visibility(work, rng, "vs_T", 5),
        _visibility(work, rng, "vs_dt", 5),
        _fit_vis(work, rng, "vis_T", "warm", 6),
        _fit_vis(work, rng, "vis_dt", "warm", 6),
    ]


def emitter_round(work, rng):
    ops = [_visibility(work, rng, "vs_T", 1000), _visibility(work, rng, "vs_dt", 1000)]
    ops += [_fit_vis(work, rng, "vis_T", f"{i}", 20) for i in range(2)]
    ops += [_fit_vis(work, rng, "vis_dt", f"{i}", 20) for i in range(4)]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bell-mc", bell_warmup, bell_round),
        Workload("measured-data", measured_warmup, measured_round, measured_malformed),
        Workload("emitter-model", emitter_warmup, emitter_round),
    )
}
