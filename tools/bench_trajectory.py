"""One parent -> change trajectory per workload and metric from the BENCH_<n>.json records.

    python3 tools/bench_trajectory.py [BENCH_<n>.json ...]

With no arguments it reads every BENCH_<n>.json at the root of the
checkout.  Each record holds paired perfbench runs of one parent commit and
one change, made in one session on one host.  For every workload and
end-to-end metric the tool takes the within-file ratio of the change's
median to the parent's median, and multiplies the ratios in order of <n>
into one trajectory.  It never compares a median of one file with a median
of another: the host can differ between sessions (the change runs of
BENCH_13 and the parent runs of BENCH_14 are the same commit, yet their
bell-mc round_s medians read 0.493 and 0.250 s).  Each row also prints the
file's parent commit and a probe of the host's speed: the file's
fixed-work probe (``host_probe.value``, from tools/host_probe.py) when it
has one, and otherwise the median setup_s of the parent's runs of that
workload, which runs the parent's own code and so differs between files.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _number(path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", Path(path).name)
    if match is None:
        raise ValueError(f"{path}: not a BENCH_<n>.json file")
    return int(match.group(1))


def _values(record, workload, side, metric) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in record["runs"]
            if run["workload"] == workload and run["side"] == side and metric in run["result"]["metrics"]]


def _fixed_probe(record):
    """The record's tools/host_probe.py seconds, or None.

    Only that probe stores a single number as host_probe.value; BENCH_16
    stores a setup_s median per workload there.
    """
    value = record.get("host_probe", {}).get("value")
    return value if isinstance(value, (int, float)) else None


def trajectory(records) -> dict:
    """{(workload, metric): [row, ...]} over records, a list of (name, BENCH dict) in file order.

    Each row is a dict of the file's name, its parent commit, the number of
    paired runs, the parent's and the change's median, their ratio, the
    product of the ratios so far and two host probes: the file's fixed-work
    probe (None where it has none) and the median parent setup_s.  A
    workload or metric missing from a file leaves no row, and the product
    carries over it.
    """
    rows: dict = {}
    for name, record in records:
        fixed = _fixed_probe(record)
        for workload in dict.fromkeys(run["workload"] for run in record["runs"]):
            metrics = dict.fromkeys(m for run in record["runs"] if run["workload"] == workload
                                    for m in run["result"]["metrics"])
            probe = _values(record, workload, "parent", "setup_s")
            for metric in metrics:
                parent = _values(record, workload, "parent", metric)
                change = _values(record, workload, "change", metric)
                if not parent or not change:
                    continue
                ratio = statistics.median(change) / statistics.median(parent)
                series = rows.setdefault((workload, metric), [])
                chained = (series[-1]["chained"] if series else 1.0) * ratio
                series.append({
                    "file": name, "parent_commit": record["parent"], "pairs": min(len(parent), len(change)),
                    "parent_median": statistics.median(parent), "change_median": statistics.median(change),
                    "ratio": ratio, "chained": chained,
                    "host_probe_fixed_s": fixed,
                    "host_probe_setup_s": statistics.median(probe) if probe else None,
                })
    return rows


def load(paths) -> list:
    """(file name, BENCH dict) of every path, in order of <n>."""
    return [(Path(p).name, json.loads(Path(p).read_text())) for p in sorted(paths, key=_number)]


def format_rows(rows) -> str:
    lines = []
    for (workload, metric), series in rows.items():
        lines.append(f"{workload} {metric}")
        lines.append(f"  {'file':<14} {'parent':<8} {'pairs':>5} {'parent med':>11} {'change med':>11}"
                     f" {'ratio':>7} {'chained':>8} {'host probe s':>20}")
        for r in series:
            if r["host_probe_fixed_s"] is not None:
                probe = f"{r['host_probe_fixed_s']:.4f} (fixed work)"
            elif r["host_probe_setup_s"] is not None:
                probe = f"{r['host_probe_setup_s']:.4f} (setup_s)"
            else:
                probe = "-"
            lines.append(f"  {r['file']:<14} {r['parent_commit']:<8} {r['pairs']:>5} {r['parent_median']:>11.4g}"
                         f" {r['change_median']:>11.4g} {r['ratio']:>7.3f} {r['chained']:>8.3f} {probe:>20}")
    return "\n".join(lines)


def main(argv) -> int:
    paths = argv or list(ROOT.glob("BENCH_[0-9]*.json"))
    print(format_rows(trajectory(load(paths))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
