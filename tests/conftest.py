import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


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
