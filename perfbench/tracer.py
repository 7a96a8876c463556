"""Span tracing of nmlab from outside the package.

``Tracer.install`` replaces public functions of each nmlab module by a
wrapper that records a span (name, start, end, parent span, request id).
Callers reach these functions through the module attribute (``cli`` calls
``spectra.kappa_numeric``, ``collision`` calls ``qcore.concurrence``, and
calls inside a module go through its globals), so every call is seen. Hot
inner helpers such as ``qcore.kraus_weights`` are left unwrapped: their time
counts as self time of the caller.
"""

from __future__ import annotations

import gzip
import importlib
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "spectra", "collision", "qcore", "sdc", "nvmodel")

TRACED = {
    "cli": ("run", "validate"),
    "spectra": ("kappa_numeric", "synthesize_spectrum", "read_profile_csv", "read_trajectory_csv",
                "write_profile_csv", "kappa_double_gaussian_mag"),
    "collision": ("entanglement_dynamics", "classify", "intermediate_channel"),
    "qcore": ("apply_channel_one_sided", "concurrence", "is_positive"),
    "sdc": ("simulate_protocol", "concurrence_at_encoding", "capacity"),
    "nvmodel": ("bloch_magnitude", "nm_measure_phi", "rdja_p0"),
}


class Tracer:
    """Spans kept in memory; ``summary`` derives per-function and per-layer totals."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, request id]
        self.stack = []
        self.request = -1
        self.cells = 0  # sum of n_t * n_omega over kappa_numeric calls (computed)
        self.rows_read = 0
        self.peak_alloc = 0  # bytes, largest tracemalloc peak inside one kappa_numeric call
        self._saved = []

    def install(self) -> None:
        for layer, names in TRACED.items():
            module = importlib.import_module(f"nmlab.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        kappa = qualname == "spectra.kappa_numeric"
        reader = qualname in ("spectra.read_profile_csv", "spectra.read_trajectory_csv")

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if kappa:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qualname, start, end, parent, self.request)
                if kappa:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if kappa:
                profile, t = args[0], args[2] if len(args) > 2 else kwargs["t"]
                self.cells += getattr(t, "size", 1) * profile.omega.size
            elif reader:
                self.rows_read += len(result.omega if hasattr(result, "omega") else result.t)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> tuple[dict, dict]:
        """Per-function {calls, busy_ns, self_ns} and per-layer self_ns."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        funcs = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
        layers = dict.fromkeys(LAYERS, 0)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            f = funcs[name]
            f["calls"] += 1
            f["busy_ns"] += end - start
            f["self_ns"] += end - start - covered
            layers[name.split(".", 1)[0]] += end - start - covered
        return dict(funcs), layers

    def calls_by_request(self) -> dict:
        counts = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, rid in self.spans:
            counts[rid][name] += 1
        return counts

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,request\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
