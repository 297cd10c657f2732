"""Seeded end-to-end and per-layer benchmark of the lophoton CLI.

    python3 perfbench/run.py --workload bell-mc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src and the reference oracles from ./tests, so nothing needs installing.
Every operation is an in-process lophoton.cli.main call on files this
script generates from --seed into a scratch directory under perfbench/,
removed at exit.  A run has three phases:

* set-up, done five times and reported as the median (setup_s): a fresh
  import of lophoton, then one warm-up call of every subcommand the
  workload uses, on inputs that do not depend on --seed.  The five must
  give byte-identical outputs;
* the timed phase: whole rounds of fresh inputs until --seconds have
  passed.  round_s is the median over rounds of the summed wall time of
  the round's successful calls;
* checks, untimed: every output against reference.py, and the Monte Carlo
  warm-ups again with --threads 2, byte for byte.

With --trace 1, round 0 runs once more after the timed phase, traced:
the per-layer figures come from its spans, and trace.overhead_ratio
compares its wall time with that of the untraced round 0.  Spans are saved
to perfbench/results/.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
#: warm-up inputs do not depend on --seed, so setup_s measures the same work on every run
WARMUP_SEED = 20240611

#: cli subcommand metrics reported, untraced, beside the per-layer spans
SUBCOMMAND_METRICS = (
    "bell", "reconstruct", "analyze", "fit_trpl", "fit_vis_T", "fit_vis_dt",
    "visibility_vs_T", "visibility_vs_dt",
)
#: (span, fields) pairs reported from the traced round
SPAN_METRICS = (
    ("tomo.projectors_for_setting", ("calls", "self_s")),
    ("tomo.linear_inversion", ("calls", "self_s")),
    ("linalg.kron", ("calls", "self_s")),
    ("jones.basis_state", ("calls", "self_s")),
    ("jones.projector", ("calls", "self_s")),
    ("tomo.mle_reconstruct", ("calls", "self_s")),
    ("tomo.project_to_physical", ("calls", "self_s")),
    ("tomo.state_metrics", ("calls", "self_s")),
    ("linalg.hermitian_eigen", ("calls", "self_s")),
    ("linalg.psd_sqrt", ("calls", "self_s")),
    ("linalg.partial_trace", ("calls", "self_s")),
    ("tomo.monte_carlo_metrics", ("total_s",)),
    ("circuit.coincidence_evolve", ("calls", "self_s")),
    ("circuit.truth_table", ("calls", "self_s")),
    ("emitter.tpi_visibility", ("calls", "self_s")),
    ("emitter.franck_condon_factor", ("calls", "self_s")),
    ("emitter.virtual_phonon_rate", ("calls", "self_s")),
    ("emitter.fit_visibility_curve", ("total_s",)),
    ("emitter.trpl_model", ("calls", "self_s")),
    ("emitter.fit_trpl", ("total_s",)),
    ("tomo.records_from_csv", ("total_s",)),
    ("counting.read_histogram_csv", ("total_s",)),
    ("emitter.read_xy_csv", ("total_s",)),
    ("counting.integrate_peaks", ("calls", "self_s")),
    ("counting.g2_zero", ("self_s",)),
    ("counting.hom_visibility", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (e.g. no source tree)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def require_source_tree():
    for path in (ROOT / "src" / "lophoton" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not path.is_file():
            raise BenchmarkError(f"no lophoton source tree at {ROOT}: {path.relative_to(ROOT)} is missing")


def import_program():
    """Import lophoton afresh from ./src; returns {short name: module}."""
    src = ROOT / "src"
    for name in [n for n in sys.modules if n == "lophoton" or n.startswith("lophoton.")]:
        del sys.modules[name]
    import tracing

    modules = {short: importlib.import_module(f"lophoton.{short}") for short in tracing.TRACED_MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise BenchmarkError(f"lophoton imported from {modules['cli'].__file__}, not {src}")
    return modules


class Runner:
    """Calls cli.main on Ops and keeps outputs, times and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, op):
        """(seconds, output text or None); None means the call failed."""
        op.out.unlink(missing_ok=True)
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv))
        except (Exception, SystemExit) as e:  # a leak out of cli.main is a failed call
            code, error = None, e
        seconds = time.perf_counter() - start
        if op.malformed:
            ok = error is None and code == 2 and not op.out.exists()
            if not ok:
                log(f"failed: {op.label}: {type(error).__name__}: {error}" if error else f"failed: {op.label}: exit {code}")
            op.out.unlink(missing_ok=True)
            return seconds, "" if ok else None
        if error is not None or code != 0:
            log(f"failed: {op.label}: exit {code} {type(error).__name__ if error else ''} {error or ''}")
            return seconds, None
        return seconds, op.out.read_text()

    def run_round(self, ops, pending):
        """Sum of successful timed calls by metric; outputs join pending checks."""
        times: dict[str, float] = {}
        for op in ops:
            seconds, text = self.call(op)
            self.attempted += 1
            if text is None:
                self.failed += 1
                continue
            if not op.malformed:
                times[op.metric] = times.get(op.metric, 0.0) + seconds
                times["resamples"] = times.get("resamples", 0) + op.resamples
                times["resample_s"] = times.get("resample_s", 0.0) + (seconds if op.resamples else 0.0)
                pending.append((op, text))
        return times


def run_checks(pending, problems):
    for op, text in pending:
        if op.check is None:
            continue
        try:
            op.check(text)
        except Exception as e:  # CheckFailed, or an output too malformed to read
            problems.append(f"{op.label}: {type(e).__name__}: {e}")


def setup(warm_ops, problems):
    """One set-up: fresh import of lophoton and a call of every warm-up op."""
    start = time.perf_counter()
    modules = import_program()
    runner = Runner(modules["cli"])
    outputs = []
    for op in warm_ops:
        _, text = runner.call(op)
        if text is None:
            problems.append(f"warm-up {op.label} failed")
        outputs.append(text)
    return time.perf_counter() - start, modules, outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source_tree()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import numpy as np
    import scipy.integrate  # noqa: F401  dependencies load before set-up is timed
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    problems: list[str] = []
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        warm_dir = work / "warmup"
        warm_dir.mkdir()
        warm_ops = workload.warmup(warm_dir, np.random.default_rng(WARMUP_SEED))
        setup_s, warm_outputs = [], []
        for _ in range(SETUP_REPEATS):
            seconds, modules, outputs = setup(warm_ops, problems)
            setup_s.append(seconds)
            warm_outputs.append(outputs)
        if any(w != warm_outputs[0] for w in warm_outputs):
            problems.append("repeated warm-up calls with the same seed gave different bytes")
        warm_pending = [(op, text) for op, text in zip(warm_ops, outputs) if text is not None]

        runner = Runner(modules["cli"])
        malformed_dir = work / "malformed"
        malformed_dir.mkdir()
        malformed_ops = workload.malformed(malformed_dir)

        def round_ops(r):
            rdir = work / f"round-{r}"
            shutil.rmtree(rdir, ignore_errors=True)
            rdir.mkdir()
            return workload.round(rdir, np.random.default_rng([args.seed, r])) + malformed_ops

        pending: list = []
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(runner.run_round(round_ops(len(rounds)), pending))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if args.trace:
            tracer = tracing.Tracer(modules)
            with tracer:
                traced = runner.run_round(round_ops(0), [])

        run_checks(warm_pending + pending, problems)
        for op, text in warm_pending:
            if op.resamples:
                threaded = type(op)(**{**vars(op), "argv": [*op.argv, "--threads", "2"]})
                _, again = runner.call(threaded)
                if again != text:
                    problems.append(f"{op.label}: --threads 2 output differs from --threads 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    round_s = [sum(t for k, t in r.items() if k in SUBCOMMAND_METRICS) for r in rounds]
    if args.trace:
        metrics = per_layer_metrics(tracer, traced, rounds, round_s)
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.save(results / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end_metrics(setup_s, round_s, peak_rss_mb)
    for p in problems:
        log(f"check failed: {p}")
    log(f"{args.workload}: {len(rounds)} rounds, round_s {[round(x, 3) for x in round_s]}, setup_s {[round(x, 3) for x in setup_s]}")
    if traced is not None:
        log(f"traced round 0 by subcommand: { {k: round(v, 3) for k, v in traced.items()} }")
    log(f"round 0 by subcommand: { {k: round(v, 3) for k, v in rounds[0].items()} }")
    result = {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def end_to_end_metrics(setup_s, round_s, peak_rss_mb):
    return {
        "round_s": {"value": statistics.median(round_s), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer_metrics(tracer, traced, rounds, round_s):
    spans = tracer.summary()
    metrics = {}
    for name, fields in SPAN_METRICS:
        s = spans.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for f in fields:
            metrics[f"{name}.{f}"] = {"value": s[f], "unit": UNITS[f]}
    c = tracer.counters
    mle_calls = spans.get("tomo.mle_reconstruct", {}).get("calls", 0)
    metrics["tomo.mle_reconstruct.iters"] = {"value": c["tomo.mle_reconstruct.iters"], "unit": "count"}
    metrics["tomo.mle_reconstruct.converged_ratio"] = {
        "value": c["tomo.mle_reconstruct.converged"] / mle_calls if mle_calls else 0.0, "unit": "ratio"}
    metrics["counting.integrate_peaks.bins"] = {"value": c["counting.integrate_peaks.bins"], "unit": "count"}
    for name in SUBCOMMAND_METRICS:
        metrics[f"{name}_s"] = {"value": statistics.median(r.get(name, 0.0) for r in rounds), "unit": "s"}
    resamples = sum(r.get("resamples", 0) for r in rounds)
    resample_s = sum(r.get("resample_s", 0.0) for r in rounds)
    metrics["mc_resamples_per_s"] = {"value": resamples / resample_s if resample_s else 0.0, "unit": "1/s"}
    traced_s = sum(t for k, t in traced.items() if k in SUBCOMMAND_METRICS)
    metrics["trace.overhead_ratio"] = {"value": traced_s / round_s[0] - 1.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": tracer.n_spans, "unit": "count"}
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as e:
        log(f"error: {e}")
        sys.exit(2)
