"""Seconds a fixed numpy workload takes on this host: a speed probe for BENCH_<n>.json records.

    python3 tools/host_probe.py

Prints one JSON object: the median of REPEATS timings of the same seeded
stack of symmetric eigendecompositions and linear solves, the dense 16 x 16
kernels of the maximum-likelihood fits.  It imports nothing from lophoton,
so it does the same work in every checkout, and its value compares hosts
(or one host at two times) where a benchmark's own figures, which run the
code under test, cannot.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

SEED = 20241017
REPEATS = 5
#: eigh and solve calls per timing, each on a stack of STACK matrices
CALLS = 10
STACK = 100


def probe() -> float:
    """Median wall time in seconds of REPEATS timings of the fixed workload."""
    rng = np.random.default_rng(SEED)
    m = rng.standard_normal((STACK, 16, 16))
    a = m @ m.swapaxes(1, 2) + 16.0 * np.eye(16)
    b = rng.standard_normal((STACK, 16, 1))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            np.linalg.eigh(a)
            np.linalg.solve(a, b)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    print(json.dumps({"tool": "tools/host_probe.py", "statistic": f"median of {REPEATS}", "unit": "s",
                      "value": probe()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
