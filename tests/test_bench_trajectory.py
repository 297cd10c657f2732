"""tools/bench_trajectory.py on small synthetic BENCH records."""

import importlib.util
import json
from pathlib import Path

import pytest


def _tool(name="bench_trajectory"):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(parent_commit, runs):
    """A BENCH dict of {(workload, side): [(round_s, setup_s), ...]}."""
    return {
        "parent": parent_commit,
        "runs": [
            {"workload": workload, "side": side, "result": {"metrics": {
                "round_s": {"value": round_s, "unit": "s"}, "setup_s": {"value": setup_s, "unit": "s"}}}}
            for (workload, side), values in runs.items() for round_s, setup_s in values
        ],
    }


def test_ratios_chain_within_files_and_never_across(tmp_path):
    tool = _tool()
    records = {
        # the change halves round_s on a fast host
        "BENCH_9.json": _record("aaa", {
            ("w", "parent"): [(1.0, 0.1), (2.0, 0.2), (9.0, 0.3)], ("w", "change"): [(1.0, 0.1), (0.5, 0.1), (1.0, 0.1)],
            ("v", "parent"): [(4.0, 0.4)], ("v", "change"): [(1.0, 0.4)],
        }),
        # the next session runs on a host 10 times slower: its parent median is 10, not the 1 above
        "BENCH_10.json": _record("bbb", {("w", "parent"): [(10.0, 1.0), (10.0, 3.0)], ("w", "change"): [(8.0, 1.0), (8.0, 1.0)]}),
        "BENCH_11.json": _record("ccc", {("v", "parent"): [(2.0, 0.5)], ("v", "change"): [(3.0, 0.5)]}),
    }
    for name, record in records.items():
        (tmp_path / name).write_text(json.dumps(record))
    loaded = tool.load([tmp_path / name for name in ("BENCH_11.json", "BENCH_10.json", "BENCH_9.json")])
    assert [name for name, _ in loaded] == ["BENCH_9.json", "BENCH_10.json", "BENCH_11.json"]

    rows = tool.trajectory(loaded)
    w = rows[("w", "round_s")]
    assert [r["file"] for r in w] == ["BENCH_9.json", "BENCH_10.json"]
    assert [r["parent_commit"] for r in w] == ["aaa", "bbb"]
    assert [r["pairs"] for r in w] == [3, 2]
    assert [r["ratio"] for r in w] == [0.5, 0.8]
    assert [r["chained"] for r in w] == pytest.approx([0.5, 0.4])
    assert [r["host_probe_setup_s"] for r in w] == pytest.approx([0.2, 2.0])
    # a workload that one file does not run carries its product over that file
    v = rows[("v", "round_s")]
    assert [(r["file"], r["ratio"], r["chained"]) for r in v] == [("BENCH_9.json", 0.25, 0.25), ("BENCH_11.json", 1.5, 0.375)]
    assert [r["chained"] for r in rows[("w", "setup_s")]] == pytest.approx([0.5, 0.25])

    text = tool.format_rows(rows)
    assert "w round_s" in text and "bbb" in text


def test_a_file_not_named_bench_n_is_refused(tmp_path):
    path = tmp_path / "BENCH_latest.json"
    path.write_text(json.dumps(_record("aaa", {})))
    with pytest.raises(ValueError, match="not a BENCH_<n>.json file"):
        _tool().load([path])


def test_a_fixed_work_probe_is_printed_where_a_file_has_one(tmp_path):
    tool = _tool()
    runs = {("w", "parent"): [(1.0, 0.2)], ("w", "change"): [(0.5, 0.2)]}
    # BENCH_16 keeps a setup_s median per workload under host_probe
    old = {**_record("aaa", runs), "host_probe": {"metric": "setup_s", "value": {"w": 0.2}}}
    new = {**_record("bbb", runs), "host_probe": {"tool": "tools/host_probe.py", "unit": "s", "value": 0.0375}}
    for name, record in (("BENCH_16.json", old), ("BENCH_17.json", new)):
        (tmp_path / name).write_text(json.dumps(record))
    rows = tool.trajectory(tool.load([tmp_path / "BENCH_16.json", tmp_path / "BENCH_17.json"]))[("w", "round_s")]
    assert [r["host_probe_fixed_s"] for r in rows] == [None, 0.0375]
    assert [r["host_probe_setup_s"] for r in rows] == [0.2, 0.2]
    lines = tool.format_rows({("w", "round_s"): rows}).splitlines()
    assert lines[2].endswith("0.2000 (setup_s)") and lines[3].endswith("0.0375 (fixed work)")


def test_the_host_probe_times_fixed_work_without_lophoton():
    probe = _tool("host_probe")
    imports = [line for line in Path(probe.__file__).read_text().splitlines() if line.startswith(("import ", "from "))]
    assert imports and not [line for line in imports if "lophoton" in line]
    assert 0.0 < probe.probe() < 60.0
