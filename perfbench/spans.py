"""Per-layer spans around kvmflow's public functions, installed from outside.

The tracer replaces a function at every place a kvmflow module holds a
reference to it (``flow`` imports ``batch_eigenvalues_zero_diag`` by name,
``kernels.integrate_offdiag_kernel`` is looked up as a module attribute), so
each call from one layer into another opens a span. Spans stay in memory and
are aggregated into per-layer metrics when the run ends.

A target that the program no longer has is skipped, and every metric derived
from it is reported as absent: the benchmark must keep working when a later
change renames or removes a function it wraps.
"""

import importlib
import os
import sys
import time

import numpy as np


def _rows(arr) -> int:
    return int(np.atleast_2d(arr).shape[0])


def _eigensolve_span(args) -> str:
    # a one-row call is a reference spectrum; a many-row call is the
    # per-sample drift of a recorded trajectory
    return "spectral.reference" if _rows(args[0]) == 1 else "spectral.drift"


def _kernel_steps(args, result) -> dict:
    return {"steps_accepted": int(result[4]), "steps_rejected": int(result[5])}


def _sink_bytes(args, result) -> dict:
    sink = args[1]
    if isinstance(sink, (str, os.PathLike)):
        return {"bytes": os.path.getsize(sink)}
    # a stream: the CLI writes one summary to a fresh stdout, so the position
    # after the write is its size
    return {"bytes": sink.tell()}


def _checks_failed(args, result) -> dict:
    return {"checks_failed": sum(1 for c in result.checks if not c.passed)}


# (span name or namer, module, attribute, counter function or None)
TARGETS = (
    ("cli.main", "kvmflow.cli", "main", None),
    ("io.parse_input", "kvmflow.io", "parse_input", None),
    ("io.write_trajectory_csv", "kvmflow.io", "write_trajectory_csv", _sink_bytes),
    ("io.write_summary", "kvmflow.io", "write_summary", _sink_bytes),
    ("verify.verify_run", "kvmflow.verify", "verify_run", _checks_failed),
    ("verify.trajectory_checks", "kvmflow.verify", "trajectory_checks", None),
    ("flow.integrate", "kvmflow.flow", "integrate",
     lambda args, r: {"rows_recorded": int(r.times.size)}),
    ("flow.integrate_dense", "kvmflow.flow", "integrate_dense", None),
    ("kernels.offdiag", "kvmflow.kernels", "integrate_offdiag_kernel", _kernel_steps),
    ("kernels.dense", "kvmflow.kernels", "integrate_dense_kernel", _kernel_steps),
    ("kernels.sturm_batch", "kvmflow.kernels", "sturm_batch",
     lambda args, r: {"rows": _rows(args[1])}),
    (_eigensolve_span, "kvmflow.spectral", "batch_eigenvalues_zero_diag",
     lambda args, r: {"eigs": int(np.asarray(r).size)}),
    ("spectral.reference", "kvmflow.spectral", "eigenvalues_tridiagonal", None),
    ("spectral.predict_limit", "kvmflow.spectral", "predict_limit", None),
    ("jacobi.diagnostics", "kvmflow.jacobi", "lyapunov_f_offdiag",
     lambda args, r: {"rows": _rows(args[0])}),
    ("jacobi.diagnostics", "kvmflow.jacobi", "residual_norms", None),
)


class Tracer:
    """Collects spans while installed; install() and uninstall() patch the program."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, self_s, parent, counts
        self._stack = []
        self._patches = []
        self.missing = []  # "module.attribute" targets the program lacks
        self.available = set()  # span names with at least one live target
        for name, mod, attr, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(mod), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod}.{attr}")
                continue
            self.available.update(
                ("spectral.reference", "spectral.drift") if callable(name) else (name,))
            wrapper = self._wrap(name, original, counter)
            for mname, module in list(sys.modules.items()):
                if mname != "kvmflow" and not mname.startswith("kvmflow."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def install(self):
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def adopt(self, spans):
        """Add the spans a traced child process recorded."""
        base = len(self.spans)
        for s in spans:
            if s["parent"] is not None:
                s["parent"] += base
        self.spans.extend(spans)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = {"name": span_name, "start": time.perf_counter(), "child_s": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                dur = span["end"] - span["start"]
                span["self_s"] = dur - span.pop("child_s")
                if span["parent"] is not None:
                    self.spans[span["parent"]]["child_s"] += dur
            if counter is not None:
                try:
                    span["counts"] = counter(args, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    span["counts"] = {}  # the result changed shape; counts absent
            return result

        traced.__wrapped__ = fn
        return traced
