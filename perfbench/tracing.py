"""In-memory span tracer that wraps melinlab's public functions.

Tracing is installed from the benchmark's own files: each wrapped
function is rebound in every melinlab module (and the package) that
holds a reference to it, so calls made inside the library are traced
too.  ``numpy.linalg.eigvalsh`` is wrapped as well, but records a span
only when called directly from ``truncation_sweep``; everywhere else
(inside ``lowest_eigenvalue``, which is its own span, or inside
``trace_plus``) it passes straight through.

Each span is ``[span_id, parent_id, task_id, name, start, end]``.  Self
time is a span's duration minus the time its direct children cover;
calls are single-threaded (every workload runs with workers=1), so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

import melinlab.symbols

SWEEP_SPANS = ("sweep.lambda_sweep", "sweep.melin_phase_diagram")
TRUNCATION_SWEEP = "quantize.truncation_sweep"
EIGENSOLVE = "quantize.eigensolve"

# (module, attribute, span name); the span name's prefix is the layer.  The
# package re-exports functions named like their modules (melinlab.localize),
# so modules are looked up by name.
WRAPPED = [
    ("melinlab.symbols", "moyal_star", "symbols.moyal_star"),
    ("melinlab.symbols", "graded_star", "symbols.graded_star"),
    ("melinlab.symbols", "scale_symbol", "symbols.fold"),
    ("melinlab.quantize", "weyl_quantize", "quantize.weyl_quantize"),
    ("melinlab.quantize", "lowest_eigenvalue", EIGENSOLVE),
    ("melinlab.quantize", "truncation_sweep", TRUNCATION_SWEEP),
    ("melinlab.localize", "localize", "localize.localize"),
    ("melinlab.localize", "hypothesis_check", "localize.hypothesis_check"),
    ("melinlab.invariants", "trace_plus", "invariants.trace_plus"),
    ("melinlab.sweep", "lambda_sweep", "sweep.lambda_sweep"),
    ("melinlab.sweep", "melin_phase_diagram", "sweep.melin_phase_diagram"),
    ("melinlab.modelfile", "load_model_dict", "modelfile.load_model_dict"),
]


def _poly_key(p) -> tuple:
    return (p.d, tuple(sorted(p.terms.items())))


def _graded_key(p) -> tuple:
    return (p.d, p.m, p.k, tuple((j, _poly_key(q)) for j, q in p.levels.items()))


class Tracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.n_used: list[int] = []
        # (task, layer) -> distinct keys; the ratios count repeats inside a
        # task only, so cycling through the input pool does not show up.
        self._keys: dict[tuple[str, str], set] = defaultdict(set)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "melinlab" or name.startswith("melinlab."))]
        for module, attr, span in WRAPPED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        graded = melinlab.symbols.GradedSymbol
        self._patch(graded, "fold", self._wrap("symbols.fold", graded.fold))
        self._patch(np.linalg, "eigvalsh", self._wrap_eigvalsh(np.linalg.eigvalsh))

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _patch(self, obj, name: str, value) -> None:
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self.task, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][3] if self._stack else None

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent_name()
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(parent, args, kwargs, result)
            return result

        return wrapper

    def _wrap_eigvalsh(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self._parent_name() != TRUNCATION_SWEEP:
                return fn(a, *args, **kwargs)
            rec = self._open(EIGENSOLVE)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(rec)
                self._count_eigensolve(np.shape(a)[0])

        return wrapper

    # -- per-layer counts, recorded where the work happens -------------------

    def _distinct(self, layer: str, key) -> None:
        self._keys[(self.task, layer)].add(key)

    def _after_symbols_moyal_star(self, parent, args, kwargs, result) -> None:
        self.counts["symbols.terms_out"] += len(result.terms)

    def _after_symbols_graded_star(self, parent, args, kwargs, result) -> None:
        self.counts["symbols.terms_out"] += sum(len(q.terms) for q in result.levels.values())

    def _after_quantize_weyl_quantize(self, parent, args, kwargs, result) -> None:
        p = args[0] if args else kwargs["p"]
        size = result.n + result.pad
        self.counts["quantize.bytes_computed"] += 16 * size ** (2 * result.d) * len(p.terms)
        self.maxima["quantize.dim_max"] = max(self.maxima["quantize.dim_max"], result.dim)
        self._distinct("quantize", (_poly_key(p), result.hbar, result.n))
        if parent in SWEEP_SPANS:
            self.counts["sweep.rungs"] += 1

    def _after_quantize_eigensolve(self, parent, args, kwargs, result) -> None:
        m = args[0] if args else kwargs["m"]
        entries = getattr(m, "entries", m)
        self._count_eigensolve(np.shape(entries)[0])

    def _count_eigensolve(self, dim: int) -> None:
        self.maxima["quantize.eigensolve.dim_max"] = max(
            self.maxima["quantize.eigensolve.dim_max"], int(dim))

    def _after_localize_localize(self, parent, args, kwargs, result) -> None:
        self._distinct("localize", _graded_key(result.source))

    def _after_sweep_lambda_sweep(self, parent, args, kwargs, result) -> None:
        self.counts["sweep.rows"] += len(result.rows)
        self.n_used.extend(r.n_used for r in result.rows)

    def _after_sweep_melin_phase_diagram(self, parent, args, kwargs, result) -> None:
        svals = args[3] if len(args) > 3 else kwargs["svals"]
        self.counts["sweep.rows"] += len(result.points) // max(len(svals), 1)

    # -- report ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]

        def distinct_ratio(layer: str, span: str) -> float:
            distinct = sum(len(v) for (_, lay), v in self._keys.items() if lay == layer)
            return distinct / calls[span] if calls[span] else 1.0

        rungs = self.counts["sweep.rungs"]
        return {
            "symbols.moyal_star.calls": calls["symbols.moyal_star"],
            "symbols.moyal_star.self_s": self_s["symbols.moyal_star"],
            "symbols.graded_star.self_s": self_s["symbols.graded_star"],
            "symbols.fold.self_s": self_s["symbols.fold"],
            "symbols.terms_out": self.counts["symbols.terms_out"],
            "quantize.weyl_quantize.calls": calls["quantize.weyl_quantize"],
            "quantize.weyl_quantize.self_s": self_s["quantize.weyl_quantize"],
            "quantize.dim_max": self.maxima["quantize.dim_max"],
            "quantize.bytes_computed": self.counts["quantize.bytes_computed"],
            "quantize.unique_ratio": distinct_ratio("quantize", "quantize.weyl_quantize"),
            "quantize.eigensolve.calls": calls[EIGENSOLVE],
            "quantize.eigensolve.self_s": self_s[EIGENSOLVE],
            "quantize.eigensolve.dim_max": self.maxima["quantize.eigensolve.dim_max"],
            "localize.localize.calls": calls["localize.localize"],
            "localize.localize.self_s": self_s["localize.localize"],
            "localize.hypothesis_check.self_s": self_s["localize.hypothesis_check"],
            "localize.unique_ratio": distinct_ratio("localize", "localize.localize"),
            "invariants.trace_plus.calls": calls["invariants.trace_plus"],
            "invariants.trace_plus.self_s": self_s["invariants.trace_plus"],
            "sweep.lambda_sweep.self_s": self_s["sweep.lambda_sweep"],
            "sweep.melin_phase_diagram.self_s": self_s["sweep.melin_phase_diagram"],
            "sweep.rungs": rungs,
            "sweep.rung_useful_ratio": self.counts["sweep.rows"] / rungs if rungs else 0.0,
            "sweep.n_used_mean": sum(self.n_used) / len(self.n_used) if self.n_used else 0.0,
            "modelfile.load_model_dict.self_s": self_s["modelfile.load_model_dict"],
        }
