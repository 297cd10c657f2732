"""Validating readers shared by the CSV and JSON input formats.

Every failure is a ValueError whose message starts with the file name (and,
for CSV, the line); the CLI reports it with exit code 2.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from io import StringIO

import numpy as np


def _check_header(reader, header) -> None:
    names = next((row for row in reader if row), [])
    if len(names) != len(header) or any(h not in (None, n) for h, n in zip(header, names)):
        expected = ",".join(h or "*" for h in header)
        raise ValueError(f"expected header {expected}, got {','.join(names) or 'none'}")


def read_csv(path, header, parse_row) -> list:
    """parse_row(fields) of every data row of a headered CSV file.

    header is the header row, with None where any name will do.  Blank rows
    are skipped; at least one data row must follow the header, and every row
    must have as many fields.  A ValueError from parse_row is re-raised as
    ValueError("<path>:<line>: <message>").
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            _check_header(reader, header)
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    out.append(parse_row(row))
        except UnicodeDecodeError:
            # the text layer decodes ahead of the csv reader, so reader.line_num
            # may lie lines before the undecodable byte
            line, e = _decode_error(path, fh.encoding)
            raise ValueError(f"{path}:{line}: {e}") from None
        except (csv.Error, ValueError) as e:
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out


def _decode_error(path, encoding) -> tuple[int, UnicodeDecodeError]:
    """(line, error) of the first byte of the file that encoding cannot decode.

    Lines end at \n, \r or \r\n, as the csv reader counts them.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as e:
        before = raw[: e.start].decode(encoding)
        return before.count("\n") + before.count("\r") - before.count("\r\n") + 1, e
    raise ValueError("the file changed while it was read")


def finite(text: str) -> float:
    """A CSV field holding a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def count(text: str) -> int:
    """A CSV field holding a non-negative integer count that fits in int64."""
    value = int(text)
    if not 0 <= value < 2**63:
        raise ValueError(f"count {text!r} is not a non-negative 64-bit integer")
    return value


#: numpy dtype and whole-column test of each field rule that read_columns applies;
#: numpy refuses counts of 2**63 and above itself, as int64 overflow
_COLUMN_RULES = {finite: (np.float64, np.isfinite), count: (np.int64, lambda column: column >= 0)}


def read_columns(path, header, kinds) -> tuple[np.ndarray, ...]:
    """One array per column of a headered CSV file of numbers.

    kinds holds one field rule per column: finite (a float64 column) or
    count (an int64 column).  The file is read as read_csv reads it with
    parse_row = lambda row: tuple(kind(field) for kind, field in zip(kinds, row)),
    and gives the same arrays and the same errors.  numpy's compiled parser
    reads the whole body in one call and the rules are applied to whole
    columns; on any failure, the row loop of read_csv reads the file again
    and names the fault.  numpy rejects some fields that float() and int()
    accept (such as 1_000, quoted fields and Unicode digits); those files
    take the row loop too, as does every body that _for_row_loop names.
    """
    dtype = np.dtype([(str(i), _COLUMN_RULES[kind][0]) for i, kind in enumerate(kinds)])
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy's warning on a body with no data rows
            _check_header(csv.reader(fh), header)
            body = fh.read()
            if _for_row_loop(body):
                raise ValueError("a body for the row loop")
            # newline="" hands numpy the file's own line ends, untranslated
            table = np.loadtxt(StringIO(body, newline=""), dtype, delimiter=",", comments=None, ndmin=1)
        columns = tuple(np.ascontiguousarray(table[name]) for name in dtype.names)
        if all(_COLUMN_RULES[kind][1](column).all() for kind, column in zip(kinds, columns)):
            return columns
    except (csv.Error, ValueError, Warning):
        pass
    rows = read_csv(path, header, lambda row: tuple(kind(field) for kind, field in zip(kinds, row)))
    return tuple(np.array(column, dtype[i]) for i, column in enumerate(zip(*rows)))


def _for_row_loop(text) -> bool:
    """Whether text holds a line that numpy must not parse.

    Those are a line long enough to hold a field that the csv module refuses
    as too large, and a line with any of \\x1c-\\x1f: numpy strips these as
    whitespace around a number, float() and int() refuse them.  They are
    also a line with any non-ASCII character: numpy's integer parser can
    read out of bounds on one (a count field holding U+325A2 killed the
    process with SIGBUS in about half of 300 reads, numpy 2.4), and the row
    loop reads the others anyway.  Each test runs over the whole text at C
    speed.
    """
    if not text.isascii() or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return True
    limit = csv.field_size_limit()
    if len(text) <= limit:
        return False
    # lines end at \n, \r or \r\n, as the csv reader splits them
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero((chars == ord("\n")) | (chars == ord("\r")))
    line_lengths = np.diff(ends, prepend=-1, append=len(chars)) - 1
    return bool(line_lengths.max() > limit)


def read_json_numbers(path, keys, nullable, build):
    """build(**obj) for a JSON object obj of finite numbers under known keys.

    Every key of obj must be in keys, and every value a finite number; keys
    in nullable may also hold null.  A ValueError from build is re-raised
    with the file name in front, like every other failure.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    for key, value in obj.items():
        if key not in keys:
            raise ValueError(f"{path}: unknown key {key!r}, expected one of {', '.join(keys)}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max or value is None and key in nullable):
            raise ValueError(f"{path}: {key} must be a finite number, got {json.dumps(value)}")
    try:
        return build(**obj)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
