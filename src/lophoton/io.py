"""Validating readers shared by the CSV and JSON input formats.

Every failure is a ValueError whose message starts with the file name (and,
for CSV, the line); the CLI reports it with exit code 2.
"""

from __future__ import annotations

import csv
import json
import math
import sys


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
            names = next((row for row in reader if row), [])
            if len(names) != len(header) or any(h not in (None, n) for h, n in zip(header, names)):
                expected = ",".join(h or "*" for h in header)
                raise ValueError(f"expected header {expected}, got {','.join(names) or 'none'}")
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    out.append(parse_row(row))
        except (csv.Error, ValueError) as e:  # ValueError also covers undecodable bytes
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out


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
