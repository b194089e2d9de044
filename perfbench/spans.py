"""Span tracer for traced benchmark passes, and the per-layer metrics.

``Tracer.install`` wraps every lppnoise function that one package module
imports from another, in the namespace of the importing (calling) module:
``estimators.weights``, ``lattice.uniform_array``, ``cli.write_csv_atomic``
and so on.  Calls inside one module stay unwrapped, so a span marks a
crossing between layers.  Each span is a list
``[name, caller, start, end, parent, work]``: ``name`` is
``<layer>.<function>``, ``caller`` the calling module, ``parent`` the
index of the enclosing span (-1 for the root) and ``work`` an exact count
of the work the call did (see ``_work_counter``).  Spans stay in memory
until the pass ends; ``uninstall`` puts the plain functions back.

This module imports nothing from lppnoise at module level, so the
harness can compute metrics from a spans file without importing numpy.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

LAYERS = ("rng", "lattice", "lpp", "estimators", "stationary", "cube",
          "manifest", "cli")
ROOT_SPAN = "cli.run"

# DP table cells one call fills, per cell of its weight array
_DP_TABLES = {"travel_time": 1, "forward_table": 1, "backward_table": 1,
              "geodesic_report": 2}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _work_counter(layer: str, fn):
    """Exact work count of one call: variates for rng, sites returned for
    lattice, DP cells for lpp, replicas for estimators, rows for CSVs."""
    name = fn.__name__
    if layer == "rng":
        return lambda args, kwargs, out: _size(out)
    if layer == "lattice":
        if name in ("weights", "noisy_weights"):
            return lambda args, kwargs, out: _size(out)
        if name == "coupled_fields":   # base, bit-resampled and site-resampled
            return lambda args, kwargs, out: 3 * _size(out.base)
        if name == "site_bits":        # the bits of one site
            return lambda args, kwargs, out: 1
    if layer == "lpp" and name in _DP_TABLES:
        k = _DP_TABLES[name]
        return lambda args, kwargs, out: k * _size(args[0])
    if layer == "estimators":
        sig = inspect.signature(fn)
        if "replicas" in sig.parameters:
            def replicas(args, kwargs, out):
                bound = sig.bind(*args, **kwargs).arguments
                scales = len(bound["n_list"]) if "n_list" in bound else 1
                return bound["replicas"] * scales
            return replicas
    if layer == "manifest" and name == "write_csv_atomic":
        return lambda args, kwargs, out: int(out)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str, caller: str, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, caller, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if work is not None:
                rec[5] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every lppnoise function one module imports from another."""
        for caller in LAYERS:
            mod = importlib.import_module(f"lppnoise.{caller}")
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.rpartition(".")
                if package != "lppnoise" or layer == caller:
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, f"{layer}.{obj.__name__}",
                                             caller, _work_counter(layer, obj)))

    def uninstall(self) -> None:
        """Put back every function ``install`` wrapped."""
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for name, caller, start, end, parent, work in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list], cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s unless named)."""
    own = self_times(spans)

    def pick(key: str, caller: str | None = None) -> list[int]:
        """Spans of one function ("lpp.travel_time") or one layer ("lpp")."""
        return [i for i, s in enumerate(spans)
                if (s[0] == key or s[0].startswith(key + "."))
                and (caller is None or s[1] == caller)]

    def calls(name: str) -> int:
        return len(pick(name))

    def self_s(key: str) -> float:
        return sum(own[i] for i in pick(key))

    def work(key: str, caller: str | None = None) -> int:
        return sum(spans[i][5] for i in pick(key, caller))

    def dur_ms(name: str) -> list[float]:
        return [1e3 * (s[3] - s[2]) for s in spans if s[0] == name]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    draws = work("rng")
    sites = work("lattice")
    cells = work("lpp")
    noisy_ms = dur_ms("lattice.noisy_weights")
    return {
        "rng.draws": draws,
        "rng.busy_s": self_s("rng"),
        "rng.ns_per_draw": 1e9 * ratio(self_s("rng"), draws),
        "lattice.weights.calls": calls("lattice.weights"),
        "lattice.weights.self_s": self_s("lattice.weights"),
        "lattice.noisy_weights.calls": calls("lattice.noisy_weights"),
        "lattice.noisy_weights.self_s": self_s("lattice.noisy_weights"),
        "lattice.noisy_weights.p50_ms": _pct(noisy_ms, 0.5),
        "lattice.noisy_weights.p90_ms": _pct(noisy_ms, 0.9),
        "lattice.coupled_fields.self_s": self_s("lattice.coupled_fields"),
        "lattice.scan_rounds": len(pick("rng", caller="lattice")),
        "lattice.sites_decoded": sites,
        "lattice.draws_per_site": ratio(work("rng", caller="lattice"), sites),
        "lpp.travel_time.calls": calls("lpp.travel_time"),
        "lpp.travel_time.self_s": self_s("lpp.travel_time"),
        "lpp.geodesic_report.calls": calls("lpp.geodesic_report"),
        "lpp.geodesic_report.self_s": self_s("lpp.geodesic_report"),
        "lpp.geodesic_report.p50_ms": _pct(dur_ms("lpp.geodesic_report"), 0.5),
        "lpp.forward_table.self_s": self_s("lpp.forward_table"),
        "lpp.backward_table.self_s": self_s("lpp.backward_table"),
        "lpp.dp_cells": cells,
        "lpp.ns_per_cell": 1e9 * ratio(self_s("lpp"), cells),
        "estimators.replicas": work("estimators"),
        "estimators.self_s": self_s("estimators"),
        "stationary.build_stationary.calls": calls("stationary.build_stationary"),
        "stationary.build_stationary.self_s":
            self_s("stationary.build_stationary"),
        "cube.verify_bks.calls": calls("cube.verify_bks"),
        "cube.verify_bks.self_s": self_s("cube.verify_bks"),
        "manifest.csv_rows": work("manifest.write_csv_atomic"),
        "manifest.write_s": self_s("manifest"),
        "cli.self_s": self_s("cli"),
        "cli.cpu_s": cpu_s,
    }


# Counters that must repeat bit for bit on the same seed.
EXACT = ("rng.draws", "lattice.weights.calls", "lattice.noisy_weights.calls",
         "lattice.scan_rounds", "lattice.sites_decoded",
         "lattice.draws_per_site", "lpp.travel_time.calls",
         "lpp.geodesic_report.calls", "lpp.dp_cells", "estimators.replicas",
         "stationary.build_stationary.calls", "cube.verify_bks.calls",
         "manifest.csv_rows", "manifest.csv_bytes")

