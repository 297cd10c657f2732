"""Seconds a fixed numpy workload takes on this host: a speed probe for BENCH_<n>.json records.

    python3 tools/host_probe.py

Prints one JSON object: the median of REPEATS timings of the same seeded
stack of symmetric eigendecompositions and linear solves, the dense 16 x 16
kernels of the maximum-likelihood fits.  It imports nothing from lophoton,
so it does the same work in every checkout, and its value compares hosts
(or one host at two times) where a benchmark's own figures, which run the
code under test, cannot.

The object's after_eigensolve_cpu_ratio says whether the host slows the
code that follows a BLAS call: the process CPU time of a fixed pure-Python
loop run right after a 128 x 128 eigvalsh, over that of the same loop
after 0.3 s idle (median of REPEATS pairs).  Process CPU time counts every
thread, so BLAS worker threads that keep spinning after the call raise the
ratio above 1: on a 2-core VM with OpenBLAS's default threads it read
about 2, and about 1 with OPENBLAS_NUM_THREADS=1.  Set-up times that
include such a call vary with it.

Its stack_temporaries_minor_faults says whether the host's allocator churns
pages: the minor page faults (getrusage ru_minflt) per 100 iterations of a
fixed loop that allocates and frees the (100, 36, 16) and (100, 16, 16)
float64 temporaries of a Newton step, as "temporaries", against the same
loop writing into out= buffers, as "out_buffers".  Where malloc hands
arrays of this size back to the kernel at every free, each iteration
faults their pages in again, and code that reuses buffers gains the most.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import numpy as np

SEED = 20241017
REPEATS = 5
#: eigh and solve calls per timing, each on a stack of STACK matrices
CALLS = 10
STACK = 100
#: iterations of each allocator loop; faults are reported per 100
CHURN_ITERATIONS = 200


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


def _loop_cpu_s() -> float:
    """Process CPU seconds of a fixed pure-Python loop."""
    start = time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.process_time() - start


def after_eigensolve_cpu_ratio() -> float:
    """Median of REPEATS ratios: the loop's CPU time right after an eigvalsh over its time after 0.3 s idle."""
    m = np.random.default_rng(SEED).standard_normal((128, 128))
    a = m + m.T
    ratios = []
    for _ in range(REPEATS):
        np.linalg.eigvalsh(a)
        after = _loop_cpu_s()
        time.sleep(0.3)
        ratios.append(after / _loop_cpu_s())
    return statistics.median(ratios)


def stack_temporaries_minor_faults() -> dict:
    """Minor page faults per 100 iterations of the Newton-step loop, with fresh temporaries and with out= buffers."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((STACK, 1, 16))
    rows = rng.standard_normal((16, 576))
    w = rng.standard_normal((STACK, 36, 1))
    qx, weighted = np.empty((STACK, 1, 576)), np.empty((STACK, 36, 16))
    hess, sym = np.empty((STACK, 16, 16)), np.empty((STACK, 16, 16))

    def temporaries():
        q = (x @ rows).reshape(STACK, 36, 16)
        h = 4.0 * q.swapaxes(1, 2) @ (w * q)
        return 0.5 * (h + h.swapaxes(1, 2))

    def out_buffers():
        q = np.matmul(x, rows, out=qx).reshape(STACK, 36, 16)
        np.matmul(q.swapaxes(1, 2), np.multiply(w, q, out=weighted), out=hess)
        np.multiply(hess, 4.0, out=hess)
        np.multiply(np.add(hess, hess.swapaxes(1, 2), out=sym), 0.5, out=sym)

    faults = {}
    for name, step in (("temporaries", temporaries), ("out_buffers", out_buffers)):
        step()  # the first touch of every buffer is not churn
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(CHURN_ITERATIONS):
            step()
        faults[name] = 100.0 * (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / CHURN_ITERATIONS
    return faults


def main() -> int:
    print(json.dumps({"tool": "tools/host_probe.py", "statistic": f"median of {REPEATS}", "unit": "s",
                      "value": probe(), "after_eigensolve_cpu_ratio": after_eigensolve_cpu_ratio(),
                      "stack_temporaries_minor_faults": stack_temporaries_minor_faults()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
