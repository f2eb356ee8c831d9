"""Per-layer tracing from outside the library.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (name, parent span, duration), in every
``cayleynorms`` namespace and module-level dict that refers to it, so calls
made inside the library (``analyze`` calling ``cut_norm_exact``, ``run_suite``
calling a suite) are traced too.  `uninstall` puts every reference back.  The
library source is never edited.

A span's self time is its duration minus the time its traced children cover.
Spans are aggregated in memory by name; work counters are derived from the
arguments and results of the traced calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("norms", "cayley", "fourier", "groups", "families", "serial", "verify", "cli")

# NormReport.timings key -> the traced function analyze times under that key
ANALYZE_TIMING_SPANS = {
    "spectral": "norms.spectral_norm",
    "cut": "norms.cut_norm_exact",
    "infty_one": "norms.infty_one_exact",
    "bm": "norms.grothendieck_bm",
    "transitivity": "cayley.find_transitive_automorphisms",
}


# Exact enumerations, whose self time is also split by the input's margins.
ENUMERATIONS = ("norms.cut_norm_exact", "norms.infty_one_exact")


def margins(a) -> str:
    """"centered" when every row and column of `a` sums to zero, else "general"."""
    a = np.asarray(a)
    zero = np.allclose(a.sum(axis=0), 0.0) and np.allclose(a.sum(axis=1), 0.0)
    return "centered" if zero else "general"


def _enumeration_work(rows: int, m: int, n: int) -> tuple[int, int]:
    """(flops, bytes) of the enumeration's rows-by-m @ m-by-n product, taken in
    chunks of 2**norms._CHUNK_BITS rows.  Computed from the shapes, not measured."""
    from cayleynorms import norms
    chunks = -(-rows // (1 << norms._CHUNK_BITS))
    flops = 2 * rows * m * n
    moved = 8 * (rows * m + chunks * m * n + rows * n)
    return flops, moved


def _count_cut(counts, args, kwargs, result):
    m, n = np.shape(args[0])
    flops, moved = _enumeration_work(1 << m, m, n)
    counts["norms.cut_subsets"] += 1 << m
    counts["norms.cut_matmul_flops_computed"] += flops
    counts["norms.cut_matmul_bytes_computed"] += moved


def _count_infty_one(counts, args, kwargs, result):
    m, n = np.shape(args[0])
    signs = 1 << (m - 1)
    flops, moved = _enumeration_work(signs, m, n)
    counts["norms.infty_one_signs"] += signs
    counts["norms.infty_one_matmul_flops_computed"] += flops
    counts["norms.infty_one_matmul_bytes_computed"] += moved


def _count_transitivity(counts, args, kwargs, result):
    counts["cayley.transitive_no" if result is None else "cayley.transitive_yes"] += 1


def _count_bm(counts, args, kwargs, result):
    from cayleynorms import norms
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    if np.any(args[0]):
        counts["norms.bm_restarts"] += (cfg or norms.BMConfig()).restarts


def _count_bytes(counts, args, kwargs, result):
    counts["serial.bytes_written"] += len(result.encode())


COUNTERS = {
    "norms.cut_norm_exact": _count_cut,
    "norms.infty_one_exact": _count_infty_one,
    "cayley.find_transitive_automorphisms": _count_transitivity,
    "norms.grothendieck_bm": _count_bm,
    "serial.dumps": _count_bytes,
}


class Tracer:
    """Wraps the public functions of the layer modules and aggregates spans."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, bool]] = []
        self._stack: list[list] = []  # [name, start, child_seconds]
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # inclusive time of spans whose parent is norms.analyze
        self.in_analyze_s: dict[str, float] = defaultdict(float)
        # NormReport.timings summed over every traced analyze call
        self.analyze_timings: dict[str, float] = defaultdict(float)
        # self time of the exact enumerations by the margins of their input
        self.enum_by_margins: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn):
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([name, clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, start, child = stack.pop()
                dur = clock() - start
                self.self_s[name] += dur - child
                if name in ENUMERATIONS:
                    self.enum_by_margins[margins(args[0])] += dur - child
                self.calls[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    if parent[0] == "norms.analyze":
                        self.in_analyze_s[name] += dur
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            if name == "norms.analyze":
                for key, seconds in result.timings.items():
                    self.analyze_timings[key] += seconds
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cayleynorms.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "cayleynorms" and not modname.startswith("cayleynorms."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj, False))
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._patches.append((obj, key, value, True))
                            obj[key] = wrapped[value]

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()
        self._stack.clear()
