"""Largest numeric drift between two tools/golden.py output directories.

    python3 tools/golden_drift.py <out-dir-a> <out-dir-b>

For every file of the two runs, prints one line per numeric JSON field or
CSV column whose values differ: the file, the field, the largest absolute
difference and the largest relative difference |a - b| / max(|a|, |b|).
A JSON field is a path of object keys ("metrics_mc.purity.std"); the
entries of a list share their field, so a matrix is one field.  Fields that
are not numbers, that are present on one side only, or whose shapes differ
are reported by name.  A file that is byte-identical on both sides is
listed as such; other files that are neither JSON nor CSV are reported as
differing.  The exit code is 0 whether or not anything drifted.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def _leaves(obj, path=""):
    """(field, value) for every leaf; list entries share their parent's field."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, path)
    else:
        yield path, obj


def _fields(pairs):
    out: dict[str, list] = {}
    for field, value in pairs:
        out.setdefault(field, []).append(value)
    return out


def _json_fields(text):
    return _fields(_leaves(json.loads(text)))


def _csv_fields(text):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError("no data rows")
    return _fields((name, float(value)) for row in body for name, value in zip(header, row))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _compare(a: dict, b: dict):
    """Lines describing how the fields of b differ from those of a."""
    lines = []
    for field in sorted(a.keys() | b.keys()):
        if field not in b or field not in a:
            lines.append(f"{field}: only in {'a' if field in a else 'b'}")
            continue
        va, vb = a[field], b[field]
        if len(va) != len(vb):
            lines.append(f"{field}: {len(va)} values vs {len(vb)}")
        elif not all(_is_number(x) and _is_number(y) for x, y in zip(va, vb)):
            if va != vb:
                lines.append(f"{field}: non-numeric values differ")
        else:
            abs_diff = max(abs(x - y) for x, y in zip(va, vb))
            rel_diff = max(
                (abs(x - y) / max(abs(x), abs(y)) for x, y in zip(va, vb) if x != y), default=0.0
            )
            if abs_diff > 0:
                lines.append(f"{field}: max abs {abs_diff:.3e}  max rel {rel_diff:.3e}")
    return lines


def drift(dir_a: Path, dir_b: Path):
    lines = []
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            lines.append(f"{name}: only in {'a' if name in names_a else 'b'}")
            continue
        text_a, text_b = (dir_a / name).read_text(), (dir_b / name).read_text()
        if text_a == text_b:
            lines.append(f"{name}: identical")
            continue
        try:
            fields_a, fields_b = _json_fields(text_a), _json_fields(text_b)
        except json.JSONDecodeError:
            try:
                fields_a, fields_b = _csv_fields(text_a), _csv_fields(text_b)
            except (ValueError, IndexError):
                lines.append(f"{name}: differs (neither JSON nor numeric CSV)")
                continue
        lines += [f"{name} {line}" for line in _compare(fields_a, fields_b)] or [f"{name}: formatting only"]
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    print("\n".join(drift(dir_a, dir_b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
