import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lophoton import io

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

#: (header, field rules) of the two readers built on io.read_columns
HISTOGRAM_COLUMNS = (("tau_ps", "counts"), (io.finite, io.count))
XY_COLUMNS = ((None, None), (io.finite, io.finite))


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_density_matrix(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_jones(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def write_records_csv(path, records):
    """Tomography records in the CSV format that tomo.records_from_csv reads."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("basis1", "basis2", "outcome1", "outcome2", "counts"))
        for rec in records:
            for (o1, o2), c in zip(rec.outcome_labels, rec.counts):
                w.writerow([rec.basis1, rec.basis2, o1, o2, int(c)])


def write_histogram_csv(csv_path, meta_path, h):
    """A coincidence histogram and its sidecar JSON, as counting.read_histogram_csv reads them."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau_ps", "counts"])
        for tau, c in zip(h.taus_ps, h.counts):
            w.writerow([repr(float(tau)), int(c)])
    meta = {
        "bin_width_ps": h.bin_width_ps,
        "rep_period_ns": h.rep_period_ns,
        "pulse_pair_sep_ns": h.pulse_pair_sep_ns,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outcome(read, *args):
    """("ok", (dtype, bytes) of each array) or ("error", message) of read(*args)."""
    try:
        return "ok", [(a.dtype.str, a.tobytes()) for a in read(*args)]
    except ValueError as e:
        return "error", str(e)


def row_loop_columns(path, header, kinds):
    """The columns as the readers built them before read_columns: io.read_csv rows, then np.asarray per column."""
    rows = io.read_csv(path, header, lambda row: tuple(kind(field) for kind, field in zip(kinds, row)))
    return [np.asarray([r[i] for r in rows], dtype=np.int64 if kind is io.count else None)
            for i, kind in enumerate(kinds)]


def assert_columns_match_row_loop(path, header, kinds):
    """io.read_columns gives the row loop's arrays (same dtype and bytes) or its ValueError message."""
    assert _outcome(io.read_columns, path, header, kinds) == _outcome(row_loop_columns, path, header, kinds)
