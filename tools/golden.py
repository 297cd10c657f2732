"""Seeded CLI outputs for a byte-for-byte check of a refactor.

    python3 tools/golden.py <src-root> <out-dir>
    diff -r <out-dir-a> <out-dir-b>

<src-root> is the directory that holds the lophoton package, i.e. the src/
directory of a checkout.  The script writes fixed input files into
<out-dir>/inputs with numpy alone, so a change to lophoton's own writers
cannot move them, then runs a fixed list of seeded lophoton.cli.main calls
from inside <out-dir>.  Each call leaves <name>.out (its --out file),
<name>.err (its stderr) and one line "<name> <exit code>" in exit_codes.txt;
a call that raises is recorded as "<name> raised <exception type>", and one
that argparse refuses with the code it exits with.  The
calls on malformed inputs (names starting with "bad-") keep only the exit
code and whether <name>.out exists, since error wording is not compared.
Run it on two source trees; an empty ``diff -r`` of the two out-dirs means
every subcommand gave the same bytes and exit codes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

SEED = 20241106
REP_PERIOD_PS = 1e6 / 76.0
KB_OVER_HBAR = 0.13093
DEPHASING = {
    "alpha_ps2": 0.0055, "v_c_inv_ps": 4.9, "mu_ps2": 2.2e-3, "F": 0.3,
    "T1_ps": 350.0, "Gamma_sd_inv_ps": 5e-4, "tau_c_ns": 350.0,
}
#: strong coupling and a wide phonon band: below 1 K the thermal integrands
#: are spikes about kT wide at v = 0, far narrower than the 8 v_c band
COLD_DEPHASING = {**DEPHASING, "alpha_ps2": 0.0283, "v_c_inv_ps": 12.0}

_S = 1.0 / np.sqrt(2.0)
JONES = {
    "H": np.array([1.0, 0.0]), "V": np.array([0.0, 1.0]),
    "D": np.array([_S, _S]), "A": np.array([_S, -_S]),
    "R": np.array([_S, -1j * _S]), "L": np.array([_S, 1j * _S]),
}
OUTCOMES = {"Z": "HV", "X": "DA", "Y": "RL"}


def werner(p_singlet):
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return p_singlet * np.outer(v, v) + (1.0 - p_singlet) * np.eye(4) / 4.0


def records_csv(rng, rho, n_per_setting=20_000):
    """Multinomial counts of the state rho for the nine tomography settings."""
    lines = ["basis1,basis2,outcome1,outcome2,counts"]
    for b1 in "ZXY":
        for b2 in "ZXY":
            pairs = [(o1, o2) for o1 in OUTCOMES[b1] for o2 in OUTCOMES[b2]]
            probs = []
            for o1, o2 in pairs:
                psi = np.kron(JONES[o1], JONES[o2])
                probs.append(np.real(psi.conj() @ rho @ psi))
            probs = np.clip(probs, 0.0, None)
            counts = rng.multinomial(n_per_setting, probs / probs.sum())
            lines += [f"{b1},{b2},{o1},{o2},{c}" for (o1, o2), c in zip(pairs, counts)]
    return "\n".join(lines) + "\n"


def histogram_csv(rng, kind, total_counts=200_000, bin_width_ps=20.0, n_side=3):
    """Poisson histogram of two-sided exponential peaks and its metadata JSON.

    g2: repetition peaks with the central one at weight 0.02.  hom: pulse
    pairs 2 ns apart, weights (1, 2, 1) per side cluster and (1, 0.05, 1)
    around tau = 0, i.e. visibility 0.9.
    """
    t1 = 350.0 if kind == "g2" else 100.0
    nbins = int(np.ceil(2.0 * (n_side + 0.5) * REP_PERIOD_PS / bin_width_ps))
    taus = (np.arange(nbins) - (nbins - 1) / 2.0) * bin_width_ps
    peaks = []
    sep_ns = None
    for k in range(-n_side, n_side + 1):
        if kind == "g2":
            peaks.append((k * REP_PERIOD_PS, 0.02 if k == 0 else 1.0))
        else:
            sep_ns = 2.0
            peaks += [(k * REP_PERIOD_PS - 2000.0, 1.0), (k * REP_PERIOD_PS, 0.05 if k == 0 else 2.0),
                      (k * REP_PERIOD_PS + 2000.0, 1.0)]
    wsum = sum(w for _, w in peaks)
    lam = np.full(nbins, 2.0)
    for center, w in peaks:
        lam += total_counts * w / wsum * np.exp(-np.abs(taus - center) / t1) / (2.0 * t1) * bin_width_ps
    counts = rng.poisson(lam)
    text = "tau_ps,counts\n" + "".join(f"{t!r},{int(c)}\n" for t, c in zip(taus.tolist(), counts.tolist()))
    meta = {"bin_width_ps": bin_width_ps, "rep_period_ns": REP_PERIOD_PS / 1000.0, "pulse_pair_sep_ns": sep_ns}
    return text, json.dumps(meta) + "\n"


def decay_csv(rng, t1=350.0, delta_inv_ps=0.00972, irf_fwhm_ps=75.0):
    """Beating decay 2 exp(-t/T1)(1 - cos(delta t)) blurred by a Gaussian IRF, Poisson counts."""
    t = np.arange(-500.0, 3500.0, 10.0)
    tp = np.clip(t, 0.0, None)
    shape = np.where(t >= 0, 2.0 * np.exp(-tp / t1) * (1.0 - np.cos(delta_inv_ps * tp)), 0.0)
    sigma = irf_fwhm_ps / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    kx = np.arange(-20, 21) * 10.0
    kernel = np.exp(-0.5 * (kx / sigma) ** 2)
    blurred = np.convolve(shape, kernel / kernel.sum(), mode="same")
    counts = rng.poisson(blurred * (20_000.0 / blurred.max()))
    return "time_ps,counts\n" + "".join(f"{a!r},{int(c)}\n" for a, c in zip(t.tolist(), counts.tolist()))


def visibility(temperature_K, delay_ns, p, n=20_001):
    """Trapezoid-rule evaluation of the visibility model described in README.md."""
    vc, kt = p["v_c_inv_ps"], KB_OVER_HBAR * temperature_K
    v = np.linspace(0.0, 8.0 * vc * max(1.0, np.sqrt(kt / vc)), n)[1:]
    fc = np.exp(-0.5 * p["alpha_ps2"] * np.trapezoid(v * np.exp(-((v / vc) ** 2)) / np.tanh(v / (2.0 * kt)), v))
    occ = 1.0 / np.expm1(np.minimum(v / kt, 700.0))
    g_vp = p["alpha_ps2"] ** 2 * p["mu_ps2"] / vc ** 4 * np.trapezoid(
        v ** 10 * np.exp(-2.0 * (v / vc) ** 2) * occ * (occ + 1.0), v)
    g_sd = p["Gamma_sd_inv_ps"] * (1.0 - np.exp(-((delay_ns / p["tau_c_ns"]) ** 2)))
    b2 = fc ** 2
    half = 0.5 / p["T1_ps"]
    return float(half / (half + g_vp + g_sd) * (b2 / (b2 + p["F"] * (1.0 - b2))) ** 2)


def xy_csv(header, xs, ys):
    return header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))


def write_inputs(inputs: Path):
    rng = np.random.default_rng(SEED)
    inputs.mkdir(parents=True)
    records = records_csv(rng, werner(0.9)).splitlines()
    (inputs / "records.csv").write_text("\n".join(records) + "\n")
    # |H> (x) |D> at 100 counts per setting: a pure product state, so that
    # some outcomes count 0 and the likelihood peaks on the boundary
    hd = np.kron(JONES["H"], JONES["D"])
    (inputs / "records-product-low.csv").write_text(
        records_csv(np.random.default_rng([SEED, 1]), np.outer(hd, hd), n_per_setting=100))
    # |H><H| (x) I/2 at 1000 counts per setting: rank 2, with the zero
    # diagonal entries of |V> on the first qubit; its own generator leaves
    # the other inputs unchanged
    (inputs / "records-h-mixed.csv").write_text(records_csv(
        np.random.default_rng([SEED, 3]), np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0), n_per_setting=1000))
    # Werner 0.77 (the paper's fidelity) at 200 counts per setting: its
    # refits fall into many basis orders; its own generator leaves the other
    # inputs unchanged
    (inputs / "records-werner-low.csv").write_text(
        records_csv(np.random.default_rng([SEED, 4]), werner(0.77), n_per_setting=200))
    # 250 counts of every outcome: the linear inversion is I/4, whose equal
    # diagonal entries leave the fit's basis order to tie-breaking
    (inputs / "records-ties.csv").write_text(records[0] + "\n" + "".join(
        f"{row.rsplit(',', 1)[0]},250\n" for row in records[1:]))
    records[5] = records[5].rsplit(",", 1)[0] + ",nan"
    (inputs / "bad-records.csv").write_text("\n".join(records) + "\n")
    for kind in ("g2", "hom"):
        text, meta = histogram_csv(rng, kind)
        (inputs / f"{kind}.csv").write_text(text)
        (inputs / f"{kind}.meta.json").write_text(meta)
        if kind == "g2":  # every third row dropped, so that peaks lose bins
            lines = text.splitlines(keepends=True)
            (inputs / "g2-gapped.csv").write_text(lines[0] + "".join(
                row for i, row in enumerate(lines[1:]) if i % 3 != 2))
    # the hom histogram moved 4 repetition periods, so that it misses tau = 0
    rows = [row.split(",") for row in text.splitlines()[1:]]
    (inputs / "bad-hom.csv").write_text("tau_ps,counts\n" + "".join(
        f"{float(tau) + 4 * REP_PERIOD_PS!r},{c}\n" for tau, c in rows))
    # 55,922 rows, about the size of a measured histogram; its own generator
    # leaves the inputs above and below unchanged
    text, meta = histogram_csv(np.random.default_rng([SEED, 2]), "g2", total_counts=2_000_000,
                               bin_width_ps=4.0, n_side=8)
    (inputs / "g2-large.csv").write_text(text)
    (inputs / "g2-large.meta.json").write_text(meta)
    decay = decay_csv(rng)
    (inputs / "decay.csv").write_text(decay)
    # the same numbers padded, signed and with _ separators: float() reads
    # them, numpy's parser does not
    rows = [row.split(",") for row in decay.splitlines()[1:]]
    (inputs / "decay-padded.csv").write_text(decay.splitlines()[0] + "\n" + "".join(
        f" {float(t):+} , {int(c):_} \n" for t, c in rows))
    (inputs / "params.json").write_text(json.dumps(DEPHASING) + "\n")
    (inputs / "params-cold.json").write_text(json.dumps(COLD_DEPHASING) + "\n")

    curves = fit_curves()
    for name, (header, xs, ys, start) in curves.items():
        (inputs / f"{name}.csv").write_text(xy_csv(header, xs, ys))
        (inputs / f"{name}.init.json").write_text(json.dumps(start) + "\n")
    header, temps, vis_T, _ = curves["vis_T"]
    (inputs / "bad-vis_T.csv").write_text(xy_csv(header, temps, vis_T[:3] + [float("nan")] + vis_T[4:]))
    # alpha_ps2 is not a parameter that a vis_dt fit fits
    (inputs / "bad-vis_dt.init.json").write_text(json.dumps({"alpha_ps2": 0.5, "Gamma_sd_inv_ps": 6e-4}) + "\n")


def fit_curves():
    """{name: (CSV header, x, visibility, start values)} of the curves that
    the fit-vis_* calls read from inputs/<name>.csv and inputs/<name>.init.json."""
    no_sd = {**DEPHASING, "Gamma_sd_inv_ps": 0.0}
    temps = np.linspace(4.0, 40.0, 12).tolist()
    delays = np.geomspace(1.0, 2000.0, 12).tolist()
    # 0.1-4 K, where both phonon sums stop at 80 kT; the finer trapezoid grid
    # resolves the integrands about kT wide at v = 0
    cold_temps = np.geomspace(0.1, 4.0, 20).tolist()
    cold = {**COLD_DEPHASING, "Gamma_sd_inv_ps": 0.0}
    return {
        "vis_T": ("temperature_K,visibility", temps, [visibility(t, 0.0, no_sd) for t in temps],
                  {"alpha_ps2": 0.0055 * 1.03, "v_c_inv_ps": 4.9 * 0.97, "mu_ps2": 2.2e-3 * 1.03, "F": 0.3 * 0.97}),
        "vis_dt": ("delay_ns,visibility", delays, [visibility(6.0, d, DEPHASING) for d in delays],
                   {"Gamma_sd_inv_ps": 6e-4, "tau_c_ns": 280.0}),
        "vis_T-cold": ("temperature_K,visibility", cold_temps,
                       [visibility(t, 0.0, cold, n=1_000_001) for t in cold_temps],
                       {"alpha_ps2": cold["alpha_ps2"] * 1.03, "v_c_inv_ps": cold["v_c_inv_ps"] * 0.97,
                        "mu_ps2": cold["mu_ps2"] * 1.03, "F": cold["F"] * 0.97}),
    }


def calls():
    """(name, argv without --out) of every seeded cli.main call, paths relative to <out-dir>."""
    out = []
    for overlap in ("1.0", "0.9"):
        for threads in ("1", "2"):
            out.append((f"bell-{overlap}-threads{threads}",
                        ["bell", "--overlap", overlap, "--counts-per-setting", "1000000",
                         "--resamples", "100", "--seed", "42", "--threads", threads]))
    # 1000 resamples: more than one stack of fits per basis order
    for overlap in ("1.0", "0.9"):
        out.append((f"bell-{overlap}-resamples1000",
                    ["bell", "--overlap", overlap, "--counts-per-setting", "1000000",
                     "--resamples", "1000", "--seed", "42"]))
    # at 0.947 outcome probabilities that move in the last bits (as they do
    # when taken through the flattened projectors) draw different counts for
    # this seed, which 1.0 and 0.9 do not show; 0.0 is the unentangled end
    for overlap in ("0.947", "0.0"):
        out.append((f"bell-{overlap}", ["bell", "--overlap", overlap, "--counts-per-setting", "20000",
                                        "--resamples", "100", "--seed", "42"]))
    out += [
        ("reconstruct", ["reconstruct", "--records", "inputs/records.csv", "--resamples", "100", "--seed", "7"]),
        ("reconstruct-product-low", ["reconstruct", "--records", "inputs/records-product-low.csv",
                                     "--resamples", "100", "--seed", "7"]),
        ("reconstruct-h-mixed", ["reconstruct", "--records", "inputs/records-h-mixed.csv",
                                 "--resamples", "100", "--seed", "7"]),
        ("reconstruct-werner-low", ["reconstruct", "--records", "inputs/records-werner-low.csv",
                                    "--resamples", "300", "--seed", "7"]),
        ("reconstruct-ties", ["reconstruct", "--records", "inputs/records-ties.csv", "--target", "maximally-mixed",
                              "--resamples", "100", "--seed", "7"]),
        ("truth-table-ZZ", ["truth-table", "--basis", "ZZ", "--overlap", "0.947"]),
        ("truth-table-XX", ["truth-table", "--basis", "XX", "--overlap", "0.947",
                            "--measured-fzz", "0.902", "--measured-fxx", "0.874"]),
        # the two ends of the overlap: distinguishable photons only, and full interference
        ("truth-table-ZZ-0.0", ["truth-table", "--basis", "ZZ", "--overlap", "0.0"]),
        ("truth-table-XX-1.0", ["truth-table", "--basis", "XX", "--overlap", "1.0"]),
        ("visibility-vs_T", ["visibility", "--mode", "vs_T", "--grid", "4:40:25", "--delay-ns", "2.0",
                             "--params", "inputs/params.json"]),
        ("visibility-vs_T-cold", ["visibility", "--mode", "vs_T", "--grid", "0.1:4:20", "--log-grid",
                                  "--delay-ns", "2.0", "--params", "inputs/params-cold.json"]),
        ("visibility-vs_dt", ["visibility", "--mode", "vs_dt", "--grid", "1:2000:25", "--log-grid",
                              "--temperature", "6.0", "--params", "inputs/params.json"]),
        ("fit-trpl", ["fit", "--kind", "trpl", "--data", "inputs/decay.csv", "--irf-width", "75"]),
        ("fit-trpl-padded", ["fit", "--kind", "trpl", "--data", "inputs/decay-padded.csv", "--irf-width", "75"]),
        ("fit-vis_T", ["fit", "--kind", "vis_T", "--data", "inputs/vis_T.csv", "--init", "inputs/vis_T.init.json"]),
        # the capped branch of the v_c partials: both phonon sums stop at 80 kT at every temperature
        ("fit-vis_T-cold", ["fit", "--kind", "vis_T", "--data", "inputs/vis_T-cold.csv",
                            "--init", "inputs/vis_T-cold.init.json", "--params", "inputs/params-cold.json"]),
        ("fit-vis_dt", ["fit", "--kind", "vis_dt", "--data", "inputs/vis_dt.csv", "--init", "inputs/vis_dt.init.json",
                        "--params", "inputs/params.json", "--temperature", "6.0"]),
        # the default start has Gamma_sd on its bound 0, where a dogbox solve alone stops short of the curve
        ("fit-vis_dt-default", ["fit", "--kind", "vis_dt", "--data", "inputs/vis_dt.csv", "--temperature", "6.0"]),
        ("analyze-g2", ["analyze", "--kind", "g2", "--histogram", "inputs/g2.csv", "--meta", "inputs/g2.meta.json"]),
        ("analyze-hom", ["analyze", "--kind", "hom", "--histogram", "inputs/hom.csv",
                         "--meta", "inputs/hom.meta.json"]),
        # g2 of a pulse-pair histogram takes the repetition peaks, not the
        # +-2 ns satellites; at --window 1000 neighbouring windows touch
        ("analyze-g2-pulse-pair", ["analyze", "--kind", "g2", "--histogram", "inputs/hom.csv",
                                   "--meta", "inputs/hom.meta.json", "--window", "900"]),
        ("analyze-hom-touching", ["analyze", "--kind", "hom", "--histogram", "inputs/hom.csv",
                                  "--meta", "inputs/hom.meta.json", "--window", "1000"]),
        ("analyze-g2-gapped", ["analyze", "--kind", "g2", "--histogram", "inputs/g2-gapped.csv",
                               "--meta", "inputs/g2.meta.json"]),
        ("analyze-g2-large", ["analyze", "--kind", "g2", "--histogram", "inputs/g2-large.csv",
                              "--meta", "inputs/g2-large.meta.json"]),
        ("bad-records", ["reconstruct", "--records", "inputs/bad-records.csv", "--resamples", "100"]),
        ("bad-vis_T", ["fit", "--kind", "vis_T", "--data", "inputs/bad-vis_T.csv"]),
        ("bad-hom", ["analyze", "--kind", "hom", "--histogram", "inputs/bad-hom.csv",
                     "--meta", "inputs/hom.meta.json"]),
        ("bad-init", ["fit", "--kind", "vis_dt", "--data", "inputs/vis_dt.csv", "--init", "inputs/bad-vis_dt.init.json",
                      "--params", "inputs/params.json", "--temperature", "6.0"]),
        ("bad-grid", ["visibility", "--mode", "vs_dt", "--grid=4:inf:5"]),
        # far more resamples than memory holds: refused before anything is allocated
        ("bad-resamples", ["bell", "--counts-per-setting", "1000", "--resamples", str(10**15)]),
        # a flag that the mode does not read: refused by name, not ignored
        ("bad-unread-flag", ["visibility", "--mode", "vs_T", "--grid", "4:40:3", "--temperature", "4.0"]),
        # only bell and reconstruct take a seed
        ("bad-unread-seed", ["truth-table", "--seed", "5"]),
    ]
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_root, out_dir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out_dir.exists():
        print(f"error: {out_dir} exists", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src_root))
    from lophoton import cli

    if not Path(cli.__file__).resolve().is_relative_to(src_root):
        print(f"error: lophoton imported from {cli.__file__}, not {src_root}", file=sys.stderr)
        return 2
    write_inputs(out_dir / "inputs")
    os.chdir(out_dir)
    codes = []
    for name, args in calls():
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main([*args, "--out", f"{name}.out"])
        except SystemExit as e:  # argparse's refusal of a flag
            code = e.code
        except Exception as e:  # a leak out of cli.main is recorded, not fatal
            code = f"raised {type(e).__name__}"
        if not name.startswith("bad-"):
            Path(f"{name}.err").write_text(err.getvalue())
        codes.append(f"{name} {code}\n")
        print(f"{name}: exit {code}", file=sys.stderr)
    Path("exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
