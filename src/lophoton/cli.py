"""Batch command line: wires config and data files to the library modules.

Subcommands: truth-table, bell, visibility, fit, analyze, reconstruct.
Every run is deterministic for a fixed (arguments, seed) pair and the same
library versions.  Only bell and reconstruct read a seed: --seed, else
DEFAULT_SEED.  Results are written atomically (temp file + rename), so a
failed run leaves no partial output.

Exit codes: 0 success, 2 invalid arguments or malformed input files (a
ValueError or OSError), 3 state reconstruction failure (tomo.NotConverged),
4 model fit divergence (emitter.FitDiverged).  main is the one place where
an exception becomes an exit code.  It builds the argument parser on its
first call and reuses it on every later call in the process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, fields, replace
from functools import cache, partial

import numpy as np

from . import circuit, counting, emitter, io, jones, tomo

DEFAULT_SEED = 123456789
SCHEMA_VERSION = 3

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RECONSTRUCTION = 3
EXIT_FIT = 4
#: the exit code of each exception that main reports; none of the four derives from another
_EXIT_CODES = {tomo.NotConverged: EXIT_RECONSTRUCTION, emitter.FitDiverged: EXIT_FIT,
               OSError: EXIT_BAD_INPUT, ValueError: EXIT_BAD_INPUT}


#: keys of a dephasing-parameter file
_DEPHASING_KEYS = tuple(f.name for f in fields(emitter.DephasingParams))

#: analyze's integration half-window when --window is not given
_ANALYZE_WINDOW_PS = {"g2": 2000.0, "hom": 600.0}

#: most points of a visibility --grid; the curve's arrays and CSV text grow
#: with it (10^7 points write about 400 MB)
_MAX_GRID_POINTS = 10**7


def _json_default(obj):
    """numpy arrays and scalars, which json cannot write, as lists and Python numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_text(out_path, text):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lophoton-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(out_path, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    _write_text(out_path, json.dumps(payload, default=_json_default, indent=2, sort_keys=True) + "\n")


def _emit_csv(out_path, header, x, y):
    """Two float64 columns, each value written as repr(float(value))."""
    rows = "".join([f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())])
    _write_text(out_path, ",".join(header) + "\n" + rows)


def _load_dephasing_params(path):
    if path is None:
        return emitter.DephasingParams()
    return io.read_json_numbers(path, _DEPHASING_KEYS, (), emitter.DephasingParams)


def _read_init(args, keys, build):
    """build(**start values) of the --init file, whose keys must be among keys."""
    try:
        return io.read_json_numbers(args.init, keys, (), build)
    except ValueError as e:
        raise ValueError(f"--init of a {args.kind} fit: {e}") from None


def _parse_grid(text, log):
    try:
        start, stop, count = text.split(":")
        start, stop = float(start), float(stop)
    except ValueError:
        raise ValueError(f"--grid must be start:stop:num, got {text!r}") from None
    if not math.isfinite(stop - start):  # also nan or inf at either end
        raise ValueError(f"--grid {text!r}: start and stop must be finite numbers a finite distance apart")
    try:
        num = int(count)
    except ValueError:
        num = None
    if num is None or num < 1:
        raise ValueError(f"--grid {text!r}: the number of points {count!r} is not a positive integer")
    if stop < start:
        raise ValueError(f"--grid {text!r}: stop {stop} is below start {start}")
    if num > _MAX_GRID_POINTS:
        raise ValueError(f"--grid {text!r} has {num} points, at most {_MAX_GRID_POINTS} are allowed")
    if log:
        if start <= 0:
            raise ValueError(f"--grid {text!r}: a --log-grid start must be positive, got {start}")
        return np.geomspace(start, stop, num)
    return np.linspace(start, stop, num)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_truth_table(args):
    elements = circuit.build_cnot()
    table, success_prob = circuit.truth_table(elements, args.overlap, args.basis)
    fid = circuit.basis_fidelity(table, args.basis)
    inputs, _ = circuit.TRUTH_TABLE_BASES[args.basis]
    succ = dict(zip(inputs, success_prob))
    payload = {
        "basis": args.basis,
        "overlap": args.overlap,
        "gate": [e.label for e in elements],
        "inputs": list(inputs),
        "outcomes": list(inputs),
        "table": table,
        "fidelity": fid,
        "success_prob": succ,
        "success_prob_mean": float(np.mean(list(succ.values()))),
    }
    if (args.measured_fzz is None) != (args.measured_fxx is None):
        raise ValueError("--measured-fzz and --measured-fxx must be given together")
    if args.measured_fzz is not None:
        lo, hi = tomo.hofmann_bounds(args.measured_fzz, args.measured_fxx)
        payload["hofmann_bounds_measured"] = {
            "f_zz": args.measured_fzz,
            "f_xx": args.measured_fxx,
            "lower": lo,
            "upper": hi,
        }
    _emit_json(args.out, payload)
    return EXIT_OK


def _reconstruction_payload(records, target, args):
    """MLE state, its metrics and, for --resamples > 0, their Monte Carlo spreads."""
    result = tomo.mle_reconstruct(records)
    if not result.converged:
        raise tomo.NotConverged("maximum-likelihood reconstruction did not converge")
    diagnostics = {
        "mle": {
            "iterations": result.n_iter,
            "newton_decrement_sq": result.decrement_sq,
            "log_likelihood_gain": result.log_likelihood_gain,
        },
    }
    payload = {
        "log_likelihood": result.log_likelihood,
        "rho_real": np.real(result.rho),
        "rho_imag": np.imag(result.rho),
        "metrics": asdict(tomo.state_metrics(result.rho, target)),
        "diagnostics": diagnostics,
    }
    if args.resamples != 0:
        mc = asdict(tomo.monte_carlo_metrics(records, result, target, args.resamples, args.seed))
        payload["n_resamples"] = mc.pop("n_resamples")
        payload["n_not_converged"] = mc.pop("n_not_converged")
        iterations = mc.pop("refit_iterations")
        diagnostics["monte_carlo"] = {
            "iterations_min": int(iterations.min()),
            "iterations_median": float(np.median(iterations)),
            "iterations_max": int(iterations.max()),
        }
        payload["metrics_mc"] = mc
    return payload


def cmd_bell(args):
    if not 0 < args.counts_per_setting < 2**63:
        raise ValueError("--counts-per-setting must be positive and below 2**63")
    elements = circuit.build_cnot()
    prepared = circuit.coincidence_evolve(
        elements,
        circuit.TwoPhotonInput(jones.basis_state("A"), jones.basis_state("V"), args.overlap),
    )
    records = tomo.simulate_counts(prepared.rho, args.counts_per_setting, args.seed)
    reconstruction = _reconstruction_payload(records, tomo.psi_minus(), args)
    f_zz = circuit.basis_fidelity(circuit.truth_table(elements, args.overlap, "ZZ")[0], "ZZ")
    f_xx = circuit.basis_fidelity(circuit.truth_table(elements, args.overlap, "XX")[0], "XX")
    lo, hi = tomo.hofmann_bounds(f_zz, f_xx)
    payload = {
        "overlap": args.overlap,
        "counts_per_setting": args.counts_per_setting,
        "seed": args.seed,
        "success_prob": prepared.success_prob,
        "hofmann": {"f_zz": f_zz, "f_xx": f_xx, "lower": lo, "upper": hi},
        **reconstruction,
    }
    _emit_json(args.out, payload)
    return EXIT_OK


def cmd_visibility(args):
    params = _load_dephasing_params(args.params)
    grid = _parse_grid(args.grid, args.log_grid)
    if args.mode == "vs_T":
        header = ("temperature_K", "visibility")
        values = emitter.tpi_visibility(grid, args.delay_ns, params)
    else:
        header = ("delay_ns", "visibility")
        values = emitter.tpi_visibility(args.temperature, grid, params)
    _emit_csv(args.out, header, grid, values)
    return EXIT_OK


def cmd_fit(args):
    x, y = emitter.read_xy_csv(args.data)
    try:
        payload = _fit_trpl(args, x, y) if args.kind == "trpl" else _fit_visibility(args, x, y)
    except emitter.NonFiniteStart as e:
        raise ValueError(f"--data {args.data}: {e}") from None
    _emit_json(args.out, payload)
    return EXIT_OK


def _fit_trpl(args, x, y):
    if not 0.0 <= args.irf_width < np.inf:
        raise ValueError(f"--irf-width must be finite and >= 0, got {args.irf_width}")
    span = float(np.ptp(x))
    if args.irf_width > span:
        raise ValueError(f"--irf-width must not exceed the {span} ps that the samples of --data span, got {args.irf_width}")
    p0 = None
    if args.init is not None:
        start = partial(replace, emitter.TRPL_START)
        p0 = _read_init(args, ("t1_ps", "delta_inv_ps"), start)
    fit = emitter.fit_trpl(x, y, irf_fwhm_ps=args.irf_width, init=p0)
    return {
        "kind": "trpl",
        "params": {
            "t1_ps": fit.params.t1_ps,
            "delta_inv_ps": fit.params.delta_inv_ps,
            "delta_ueV": emitter.inv_ps_to_ueV(fit.params.delta_inv_ps),
            "amplitude": fit.amplitude,
        },
        "irf_fwhm_ps": args.irf_width,
        "rms_residual": fit.rms_residual,
    }


def _fit_visibility(args, x, y):
    which = "vs_temperature" if args.kind == "vis_T" else "vs_delay"
    init = None
    if args.init is not None:
        init = _read_init(args, emitter.FREE_PARAMETERS[which], dict)
    fixed = _load_dephasing_params(args.params)
    fit = emitter.fit_visibility_curve(x, y, which, fixed, init=init, temperature_K=args.temperature)
    return {
        "kind": args.kind,
        "params": asdict(fit.params),
        "rms_residual": fit.rms_residual,
    }


def cmd_analyze(args):
    h = counting.read_histogram_csv(args.histogram, args.meta)
    estimate = counting.g2_zero if args.kind == "g2" else counting.hom_visibility
    window = _ANALYZE_WINDOW_PS[args.kind] if args.window is None else args.window
    value, err = estimate(h, window)
    _emit_json(args.out, {"kind": args.kind, "value": value, "error": err, "window_ps": window})
    return EXIT_OK


def cmd_reconstruct(args):
    records = tomo.records_from_csv(args.records)
    target = tomo.psi_minus() if args.target == "psi-minus" else tomo.maximally_mixed()
    payload = {"target": args.target, "seed": args.seed, **_reconstruction_payload(records, target, args)}
    _emit_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _seed(text):
    """A --seed value: a non-negative integer, refused by the parser before any work."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


#: the flags of every subcommand, as (flag, argparse keywords, readers) rows: the keywords hold the flag's
#: default unless it is None, and readers the --mode or --kind values that read it, or None for all of them
_COMMON_FLAGS = (("--out", dict(help="output path (default: stdout)"), None),)
#: the flags of the two subcommands that draw random numbers; --threads is read by none, and stays on
#: these two because the benchmark and tools/golden.py pass it to them
_SEEDED_FLAGS = (
    ("--seed", dict(type=_seed, default=DEFAULT_SEED,
                    help=f"seed of bell's simulated counts and of the Monte Carlo resamples (default: {DEFAULT_SEED})"),
     None),
    ("--threads", dict(type=int, default=1, help="accepted, no effect: Monte Carlo is serial"), None))
#: subcommand -> (help, None or (the dest of its --mode or --kind, what a run makes), its own flag rows)
_SUBCOMMANDS = {
    "truth-table": ("conditional gate table and basis fidelity", None, (
        ("--overlap", dict(type=float, default=1.0, help="wavepacket overlap M in [0, 1]"), None),
        ("--basis", dict(choices=list(circuit.TRUTH_TABLE_BASES), default="ZZ"), None),
        ("--measured-fzz", dict(type=float, help="externally measured ZZ fidelity"), None),
        ("--measured-fxx", dict(type=float, help="externally measured XX fidelity"), None))),
    "bell": ("prepare, measure and reconstruct the entangled pair", None, (
        ("--overlap", dict(type=float, default=1.0), None),
        ("--counts-per-setting", dict(type=int, default=1_000_000), None),
        ("--resamples", dict(type=int, default=1000), None), *_SEEDED_FLAGS)),
    "visibility": ("interference visibility curve to CSV", ("mode", "curve"), (
        ("--mode", dict(choices=["vs_T", "vs_dt"], required=True), None),
        ("--params", dict(help="dephasing parameter JSON"), None),
        ("--grid", dict(required=True, help="start:stop:num"), None),
        ("--log-grid", dict(action="store_true", default=False), None),
        ("--delay-ns", dict(type=float, default=2.0, help="pulse delay in ns"), ("vs_T",)),
        ("--temperature", dict(type=float, default=4.0, help="temperature in K"), ("vs_dt",)))),
    "fit": ("least-squares model fits", ("kind", "fit"), (
        ("--kind", dict(choices=["trpl", "vis_T", "vis_dt"], required=True), None),
        ("--data", dict(required=True, help="two-column CSV with header"), None),
        ("--init", dict(help="JSON with starting values"), None),
        ("--params", dict(help="fixed dephasing parameters JSON"), ("vis_T", "vis_dt")),
        ("--irf-width", dict(type=float, default=75.0, help="IRF FWHM in ps"), ("trpl",)),
        ("--temperature", dict(type=float, default=4.0, help="temperature in K"), ("vis_dt",)))),
    "analyze": ("histogram statistics: g2 or interference visibility", None, (
        ("--kind", dict(choices=["g2", "hom"], required=True), None),
        ("--histogram", dict(required=True, help="histogram CSV (tau_ps,counts)"), None),
        ("--meta", dict(required=True, help="metadata sidecar JSON"), None),
        ("--window", dict(type=float, help="integration half-window in ps (default: 2000 for g2, 600 for hom)"), None))),
    "reconstruct": ("tomography from a measurement record CSV", None, (
        ("--records", dict(required=True), None),
        ("--resamples", dict(type=int, default=0), None),
        ("--target", dict(choices=["psi-minus", "maximally-mixed"], default="psi-minus"), None), *_SEEDED_FLAGS)),
}


def build_parser():
    """The parser of _SUBCOMMANDS.  It sets only the flags given, so that _set_flags sees which were."""
    parser = argparse.ArgumentParser(
        prog="lophoton", description="Two-photon gate simulation, emitter models, and tomography, batch style.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, keywords, readers in _COMMON_FLAGS + flags:
            only = "" if readers is None else f" ({' or '.join(readers)} only)"
            p.add_argument(flag, **{**keywords, "default": argparse.SUPPRESS, "help": keywords.get("help", "") + only})
    return parser


def _set_flags(args):
    """Refuse a flag given to a mode or kind that does not read it; set each flag not given to its default."""
    _, run, flags = _SUBCOMMANDS[args.command]
    for flag, keywords, readers in _COMMON_FLAGS + flags:
        dest = flag[2:].replace("-", "_")
        if not hasattr(args, dest):
            setattr(args, dest, keywords.get("default"))
        elif readers is not None and (mode := getattr(args, run[0])) not in readers:
            raise ValueError(f"{flag} has no effect on a {mode} {run[1]}")


_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _set_flags(args)
        # looked up at call time, so a wrapped or patched cmd_* is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
