"""io.read_columns, numpy's parser with the row loop as its fallback, against the row loop alone."""

import csv
import json
import re

import numpy as np
import pytest

from lophoton import io
from lophoton.cli import main

from conftest import HISTOGRAM_COLUMNS, XY_COLUMNS, assert_columns_match_row_loop, row_loop_columns
from test_cli import MALFORMED

#: fields that float() and int() read differently from numpy, or that one of them refuses
FIELDS = {
    "underscore": "1_000", "padded": " 7", "plus": "+5", "plus-inf": "+inf", "nan": "nan", "overflow": "1e400",
    "hex": "0x10", "exponent": "1e3", "decimal": "1.0", "negative": "-1", "minus-zero": "-0", "empty": "",
    "int64-max": "9223372036854775807", "int64-max-plus-1": "9223372036854775808", "quoted": '"7"',
    "arabic-digit": "٧", "fullwidth-digit": "７", "em-space": " 7", "nbsp": "7\xa0",
    "next-line": "7\x85", "tab-vtab-formfeed": "\t7\x0b\x0c", "x1c": "\x1c7", "x1d": "7\x1d", "x1e": "\x1e7",
    "x1f": "7\x1f", "nul": "7\x00", "inner-space": "7 7",
    "over-field-limit": "0" * csv.field_size_limit() + "7",
}
#: whole files around a valid body, one line-level oddity each
FILES = {
    "whitespace-only-line": "tau_ps,counts\n-20.0,3\n   \n20.0,4\n",
    "crlf": "tau_ps,counts\r\n-20.0,3\r\n0.0,5\r\n20.0,4\r\n",
    "bare-cr": "tau_ps,counts\r-20.0,3\r0.0,5\r20.0,4\r",
    "mixed-line-ends-and-blank-lines": "tau_ps,counts\r\n-20.0,3\n\r\n\r0.0,5\r20.0,4",
    "trailing-comma": "tau_ps,counts\n-20.0,3,\n0.0,5\n",
    "three-fields": "tau_ps,counts\n-20.0,3\n0.0,5,1\n",
    "one-field": "tau_ps,counts\n-20.0,3\n0.0\n",
    "blank-lines-before-header": "\n\n\r\ntau_ps,counts\n-20.0,3\n0.0,5\n",
    "one-row": "tau_ps,counts\n0.0,5",
    "header-only": "tau_ps,counts\n",
    "header-and-blank-lines": "tau_ps,counts\n\n\r\n\n",
    "empty-file": "",
    "wrong-header": "tau,counts\n-20.0,3\n",
    "quoted-header": '"tau_ps","counts"\n-20.0,3\n',
    "quoted-field-over-two-lines": 'tau_ps,counts\n"-20.0\n",3\n0.0,5\n',
    "comment-mark": "tau_ps,counts\n-20.0,3\n#0.0,5\n",
    "x1c-line": "tau_ps,counts\n-20.0,3\n\x1c\n0.0,5\n",
    "nul-line": "tau_ps,counts\n-20.0,3\n\x00\n0.0,5\n",
    "undecodable-byte": "tau_ps,counts\n-20.0,3\n0.0,\udcff5\n",  # written as the byte 0xff
}


def _write(path, text):
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("column", ["count", "tau", "xy"])
def test_odd_fields_read_like_the_row_loop(tmp_path, column, field):
    rows = [["-20.0", "3"], ["0.0", "5"], ["20.0", "4"]]
    rows[1][0 if column == "tau" else 1] = field
    header, columns = XY_COLUMNS if column == "xy" else HISTOGRAM_COLUMNS
    text = "tau_ps,counts\n" + "".join(",".join(row) + "\n" for row in rows)
    assert_columns_match_row_loop(_write(tmp_path / "h.csv", text), header, columns)


@pytest.mark.parametrize("text", FILES.values(), ids=FILES.keys())
@pytest.mark.parametrize("columns", [HISTOGRAM_COLUMNS, XY_COLUMNS], ids=["histogram", "xy"])
def test_odd_files_read_like_the_row_loop(tmp_path, text, columns):
    assert_columns_match_row_loop(_write(tmp_path / "h.csv", text), *columns)


CSV_FLAGS = {"--histogram": HISTOGRAM_COLUMNS, "--data": XY_COLUMNS}


@pytest.mark.parametrize("make_argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_cases_read_like_the_row_loop(tmp_path, make_argv):
    argv = make_argv(tmp_path)
    for flag, columns in CSV_FLAGS.items():
        if flag in argv:
            assert_columns_match_row_loop(argv[argv.index(flag) + 1], *columns)


def _large_histogram(tmp_path, rows=50_000):
    """A g2 histogram of that many 4 ps bins around tau = 0: paths of its CSV and its sidecar JSON."""
    rep_period_ps = 1e6 / 76.0
    taus = (np.arange(rows) - (rows - 1) / 2.0) * 4.0
    lam = 2.0 + 50.0 * sum(np.exp(-np.abs(taus - k * rep_period_ps) / 350.0) * (0.02 if k == 0 else 1.0)
                           for k in (-1, 0, 1))
    counts = np.random.default_rng(11).poisson(lam)
    csv_path = _write(tmp_path / "large.csv", "tau_ps,counts\n" + "".join(
        f"{t!r},{c}\n" for t, c in zip(taus.tolist(), counts.tolist())))
    meta_path = tmp_path / "large.meta.json"
    meta_path.write_text(json.dumps({"bin_width_ps": 4.0, "rep_period_ns": rep_period_ps / 1000.0}))
    return csv_path, meta_path


def test_plain_numeric_files_never_reach_the_row_loop(tmp_path, monkeypatch):
    csv_path, _ = _large_histogram(tmp_path)
    header, body = csv_path.read_text().split("\n", 1)
    variants = {
        "large": body,
        "crlf": body.replace("\n", "\r\n"),
        "cr": body.replace("\n", "\r"),
        "signed-and-padded": body.replace(",", ", +"),
        "blank-lines": body.replace("\n", "\n\n"),
    }
    paths = [_write(tmp_path / f"{name}.csv", f"{header}\n{text}") for name, text in variants.items()]
    expected = [row_loop_columns(path, *HISTOGRAM_COLUMNS) for path in paths]

    def refuse(*args):
        raise AssertionError("the row loop ran")

    loadtxt, loadtxt_calls = np.loadtxt, []

    def counted_loadtxt(*args, **kwargs):
        loadtxt_calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(io, "read_csv", refuse)
    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    for path, (taus, counts) in zip(paths, expected):
        assert len(taus) == 50_000
        loadtxt_calls.clear()
        got = io.read_columns(path, *HISTOGRAM_COLUMNS)
        assert [(a.dtype, a.tobytes()) for a in got] == [(taus.dtype, taus.tobytes()), (counts.dtype, counts.tobytes())]
        assert len(loadtxt_calls) == 1  # the whole body in one compiled parse


def _long_field_past_64_kib(text):
    lines = text.split("\n")
    lines[10_000] = lines[10_000].split(",")[0] + "," + "0" * csv.field_size_limit() + "7"
    return "\n".join(lines), 10_001


def _x1c_on_the_last_line(text):
    lines = text.rstrip("\n").split("\n")
    lines[-1] = lines[-1].split(",")[0] + ",\x1c7"
    return "\n".join(lines) + "\n", len(lines)


def _header_and_blank_lines(text):
    return "tau_ps,counts\n" + "\r\n\n" * 30_000, None


@pytest.mark.parametrize("edit, message", [
    (_long_field_past_64_kib, "field larger than field limit ({limit})"),
    (_x1c_on_the_last_line, "invalid literal for int() with base 10: '\\x1c7'"),
    (_header_and_blank_lines, "no data rows"),
], ids=["long-field-past-64-kib", "x1c-on-the-last-line", "header-and-blank-lines"])
def test_faults_of_large_files_give_the_row_loop_message_and_line(tmp_path, edit, message):
    """Files of over 64 KiB whose fault numpy would not see, or would report without the line."""
    csv_path, _ = _large_histogram(tmp_path)
    text, line = edit(csv_path.read_text())
    path = _write(tmp_path / "h.csv", text)
    assert path.stat().st_size > 1 << 16
    where = f"{path}:{line}" if line else f"{path}"
    expected = f"{where}: {message.format(limit=csv.field_size_limit())}"
    assert_columns_match_row_loop(path, *HISTOGRAM_COLUMNS)
    with pytest.raises(ValueError) as e:
        io.read_columns(path, *HISTOGRAM_COLUMNS)
    assert str(e.value) == expected


@pytest.mark.parametrize("last_row, message", [
    ("{tau},-1", "count '-1' is not a non-negative 64-bit integer"),
    ("nan,7", "'nan' is not a finite number"),
    ("{tau},7,1", "expected 2 fields, got 3"),
])
def test_fault_on_the_last_line_of_a_large_histogram_names_that_line(tmp_path, capsys, last_row, message):
    csv_path, meta_path = _large_histogram(tmp_path)
    out = tmp_path / "result.json"
    argv = ["analyze", "--kind", "g2", "--histogram", str(csv_path), "--meta", str(meta_path), "--out", str(out)]
    assert main(argv) == 0
    out.unlink()
    lines = csv_path.read_text().splitlines()
    lines[-1] = last_row.format(tau=lines[-1].split(",")[0])
    _write(csv_path, "\n".join(lines) + "\n")
    assert main(argv) == 2
    assert f"error: {csv_path}:50001: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, bad_line", [(5001, 3001), (4, 3), (3, 1), (40, 40)])
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_undecodable_byte_names_its_line(tmp_path, lines, bad_line, line_end):
    """Both the row loop and read_columns (through its fallback) name the line that holds the byte."""
    rows = ["tau_ps,counts"] + [f"{20.0 * i!r},{i % 7}" for i in range(1, lines)]
    rows[bad_line - 1] = rows[bad_line - 1][:-1] + "\udcff" + rows[bad_line - 1][-1]  # written as the byte 0xff
    path = _write(tmp_path / "h.csv", line_end.join(rows) + line_end)
    message = f"{path}:{bad_line}: 'utf-8' codec can't decode byte 0xff in position "
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        row_loop_columns(path, *HISTOGRAM_COLUMNS)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        io.read_columns(path, *HISTOGRAM_COLUMNS)


@pytest.mark.parametrize("field", ["\U000325a2", "٧", "7\xa0", "é"], ids=["astral-plane", "arabic-digit", "nbsp", "latin"])
def test_non_ascii_lines_never_reach_numpy(tmp_path, monkeypatch, field):
    """numpy's integer parser can crash the process on a non-ASCII field, so only the row loop may read one."""
    path = _write(tmp_path / "h.csv", f"tau_ps,counts\n-20.0,3\n0.0,{field}\n20.0,4\n")

    def refuse_non_ascii(body, *args, **kwargs):
        raise AssertionError(f"numpy got {body.read()!r}")

    monkeypatch.setattr(np, "loadtxt", refuse_non_ascii)
    assert_columns_match_row_loop(path, *HISTOGRAM_COLUMNS)
