"""Spans recorded from the benchmark's side, around calls into each layer.

``Tracer.install`` rebinds each listed public function in every ``bwgeom``
module namespace that holds it (modules import with ``from .x import f``, so
``cli.write_matrix`` and ``barycenter.optimal_map`` are wrapped where they are
looked up), and wraps ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` as the
``lapack`` layer.  Spans stay in memory as (name, start, end, parent); a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = {
    "io": ("read_matrix", "write_matrix", "render_report"),
    "spectral": ("sym_eigen", "validate_psd", "cov_from_product"),
    "bures": ("procrustes_distance", "optimal_map"),
    "barycenter": (
        "mean_fixed_point",
        "mean_procrustes_averaging",
        "fixed_point_residual",
        "multicoupling",
    ),
    "tpca": ("lift", "tangent_pca", "reconstruct"),
    "geometry": ("geodesic", "exp_map", "log_map"),
    "simulate": ("convergence_equivalence",),
}
LAPACK = ("eigh", "eigvalsh", "svd")
CALLS = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs] + [f"lapack.{f}" for f in LAPACK]


def _key(*arrays) -> tuple:
    return tuple(hash(np.asarray(a, dtype=np.float64).tobytes()) for a in arrays)


# Inputs whose distinct values are counted, and the counters some calls feed.
DISTINCT_INPUTS = {
    "spectral.sym_eigen": lambda args: _key(args[0]),
    "bures.optimal_map": lambda args: _key(args[0], args[1]),
}
COUNTERS = {
    "io.write_matrix": ("io.bytes_written", lambda args, out: os.path.getsize(args[0])),
    "io.read_matrix": ("io.floats_read", lambda args, out: out.size),
    "io.render_report": ("io.report_bytes", lambda args, out: len(out.encode("utf-8"))),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # [name, start, end, parent index, outermost of its name, command]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.inputs: dict[tuple[str, str], set] = {}
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._command = ""
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self._active[name] == 0, self._command]
        self.spans.append(record)
        self._stack.append(index)
        self._active[name] += 1
        start = perf_counter()
        try:
            yield
        finally:
            record[1], record[2] = start, perf_counter()
            self._stack.pop()
            self._active[name] -= 1

    @contextmanager
    def command(self, name: str):
        """Root span ``cli.<name>`` around one ``main`` call."""
        self._command = name
        try:
            with self.span(f"cli.{name}"):
                yield
        finally:
            self._command = ""

    def _wrap(self, name: str, fn):
        distinct = DISTINCT_INPUTS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                # A span of its own, so hashing is not counted as the caller's self time.
                with self.span("trace.hash"):
                    self.inputs.setdefault((self._command, name), set()).add(distinct(args))
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                # Also a span of its own: sizing a written file or encoding a report is tracer work.
                with self.span("trace.count"):
                    self.counters[counter[0]] += counter[1](args, out)
            return out

        return traced

    def install(self) -> None:
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"bwgeom.{layer}")
            for n in names:
                fn = getattr(module, n)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        for n in LAPACK:
            fn = getattr(np.linalg, n)
            originals[id(fn)] = (fn, self._wrap(f"lapack.{n}", fn))
        namespaces = [m for k, m in sys.modules.items() if k == "bwgeom" or k.startswith("bwgeom.")]
        for ns in namespaces + [np.linalg]:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._saved.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def table(self) -> dict[tuple[str, str], list[float]]:
        """(command, span name) -> [calls, busy seconds, self seconds].

        Busy time counts only the outermost span of a name, so a call nested
        in another call of the same function is not counted twice.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, outer, cmd in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        rows: dict[tuple[str, str], list[float]] = {}
        for (name, start, end, parent, outer, cmd), child in zip(self.spans, covered):
            row = rows.setdefault((cmd, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) if outer else 0.0
            row[2] += end - start - child
        return rows

    def distinct(self, name: str) -> int:
        """Distinct inputs of ``name``, counted within each command."""
        return sum(len(s) for (cmd, n), s in self.inputs.items() if n == name)
