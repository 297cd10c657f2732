"""Span tracing of the lophoton modules, installed from outside the package.

Every public function of the traced modules is replaced, at every module
attribute that refers to it, by a wrapper that records one span: name,
start, end and parent.  tomo binds kron, hermitian_eigen, partial_trace and
psd_sqrt with ``from .linalg import``, so those names are wrapped in tomo as
well as in linalg; a function found under several names keeps the name of
the module that defines it.  Spans live in flat arrays until the run ends;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "tomo", "linalg", "jones", "circuit", "emitter", "counting")


def _mle_counters(counters, args, kwargs, result):
    counters["tomo.mle_reconstruct.iters"] += result.n_iter
    counters["tomo.mle_reconstruct.converged"] += int(result.converged)


def _peak_counters(counters, args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    counters["counting.integrate_peaks.bins"] += len(h.taus_ps)


#: per-span counters, fed the call's arguments and result
OBSERVERS = {
    "tomo.mle_reconstruct": _mle_counters,
    "counting.integrate_peaks": _peak_counters,
}


class Tracer:
    """Records spans of the functions of the given modules while installed."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {
            "tomo.mle_reconstruct.iters": 0,
            "tomo.mle_reconstruct.converged": 0,
            "counting.integrate_peaks.bins": 0,
        }
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        span_name, parent = self.span_name, self.parent
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        for short, module in self.modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for other in self.modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patched.append((other, other_attr, fn))
                            setattr(other, other_attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict:
        """{name: {"calls", "self_s", "total_s"}} over all recorded spans.

        No lophoton function calls itself; one that did would have its
        nested time counted twice in total_s.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=dur - children, minlength=n)
        total_s = np.bincount(name, weights=dur, minlength=n)
        return {
            nm: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, nm in enumerate(self.names)
        }

    def save(self, path):
        """Write every span (name index, parent index, start, end) as .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
