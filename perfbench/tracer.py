"""In-memory span tracer that instruments pathspectra from the outside.

The tracer replaces public functions of the pathspectra modules with thin
wrappers that record one span per call: name, layer, thread, start, end and
parent.  Parents come from a per-thread stack; a span opened on a worker
thread with an empty stack takes the innermost open span of the main thread
as its parent, which is the call that submitted the work.  Spans stay in
memory until :meth:`Tracer.spans` is read, and nothing under ``src/`` is
edited: every module namespace that holds a reference to a wrapped function
gets the wrapper, and :meth:`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the union of its children's
intervals, clipped to the span.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)


def _size(value) -> int:
    return int(np.size(value))


def _window_count(args, kwargs) -> dict[str, float]:
    return {"windows": _size(args[1])}


def _eigen_samples(args, kwargs) -> dict[str, float]:
    return {"samples": _size(args[1])}


def _gaussian_samples(args, kwargs) -> dict[str, float]:
    return {"samples": _size(np.broadcast(np.asarray(args[0]), np.asarray(args[1])))}


def _trapezoid_cells(args, kwargs) -> dict[str, float]:
    x_size = _size(args[0])
    return {"cells": (x_size - 1) * (_size(args[1]) // max(x_size, 1))}


# (module, function, counter of the call's work or None); the module is the layer
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "main", None),
    ("cli", "_run_command", None),
    ("cli", "_emit", None),
    ("distribution", "time_average", None),
    ("distribution", "spatial_average", None),
    ("distribution", "stationary_grids", None),
    ("distribution", "moments", None),
    ("reconstruct", "reconstruct", None),
    ("phasor", "window_average_series", _window_count),
    ("phasor", "window_average", _window_count),
    ("phasor", "ho_regular_factor", None),
    ("phasor", "integrand", None),
    ("phasor", "phasor_curve", None),
    ("phasor", "segment_windows", None),
    ("specfun", "ho_eigenfunction", _eigen_samples),
    ("specfun", "gaussian_phase_integral", _gaussian_samples),
    ("specfun", "laguerre", None),
    ("specfun", "hermite", None),
    ("quadrature", "trapezoid", _trapezoid_cells),
    ("quadrature", "cumulative_trapezoid", _trapezoid_cells),
    ("quadrature", "paper_grids", None),
    ("compare", "wigner_momentum_marginal", None),
    ("compare", "momentum_density", None),
    ("compare", "coherent_overlap", None),
    ("systems", "eigenfunction", None),
)

# the closure returned by ho_regular_factor is timed as its own group
FACTOR_SPAN = "phasor.factor"


class Tracer:
    """Collects spans from wrapped functions; one instance per traced pass."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._spans: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.stack_bytes = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def call(self, name: str, layer: str, fn: Callable, args, kwargs, counts=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), name, layer, threading.get_ident(), 0.0, parent=parent)
        if counts is not None:
            span.counts = counts
        stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._spans.append(span)

    def wrap(self, name: str, layer: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter is not None else None
            return tracer.call(name, layer, fn, args, kwargs, counts)

        return traced

    def spans(self) -> list[Span]:
        return sorted(self._spans, key=lambda s: s.sid)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper in every loaded pathspectra module."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "pathspectra" or key.startswith("pathspectra."))
        ]
        replacements: dict[int, Callable] = {}
        for mod_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"pathspectra.{mod_name}"], func_name)
            if func_name == "ho_regular_factor":
                wrapped = self._factor_wrapper(original)
            elif func_name == "_emit":
                wrapped = self._emit_wrapper(original)
            else:
                wrapped = self.wrap(f"{mod_name}.{func_name}", mod_name, original, counter)
            replacements[id(original)] = wrapped
        grid_average = sys.modules["pathspectra.distribution"]._grid_average
        replacements[id(grid_average)] = self._grid_average_counter(grid_average)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _factor_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def ho_regular_factor(*args, **kwargs):
            factor = tracer.call("phasor.ho_regular_factor", "phasor", original, args, kwargs)

            def traced_factor(p):
                counts = {"samples": _size(p)}
                return tracer.call(FACTOR_SPAN, FACTOR_SPAN, factor, (p,), {}, counts)

            return traced_factor

        return ho_regular_factor

    def _emit_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def _emit(out_dir, name, *args, **kwargs):
            counts: dict[str, float] = {}
            filename = tracer.call(
                "cli._emit", "cli", original, (out_dir, name) + args, kwargs, counts
            )
            counts["bytes"] = (out_dir / filename).stat().st_size
            return filename

        return _emit

    def _grid_average_counter(self, original: Callable) -> Callable:
        # private helper: no span (its time is its public parent's self
        # time); it only reports the size of the x_f x p_c column stack
        tracer = self

        def _grid_average(state, T, grids, threads):
            size = grids.x_f_grid.size * grids.p_c_grid.size * 16
            tracer.stack_bytes = max(tracer.stack_bytes, size)
            return original(state, T, grids, threads)

        return _grid_average


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


LAYERS = ("cli", "distribution", "reconstruct", "phasor", "specfun", "quadrature", "compare", "systems")


def layer_metrics(spans: list[Span], threads: int, stack_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named ``<module>.<metric>``."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m["phasor.factor_s"] = 0.0
    for s in spans:
        key = "phasor.factor_s" if s.layer == FACTOR_SPAN else f"{s.layer}.self_s"
        m[key] += own[s.sid]

    def total(*names: str) -> float:
        return sum(s.end - s.start for s in spans if s.name in names)

    def count(name: str, key: str, where=lambda s: True) -> float:
        return float(sum(s.counts.get(key, 0) for s in spans if s.name == name and where(s)))

    def calls(name: str, where=lambda s: True) -> float:
        return float(sum(1 for s in spans if s.name == name and where(s)))

    def parent_name(s: Span) -> str | None:
        p = by_id.get(s.parent) if s.parent is not None else None
        return p.name if p is not None else None

    m["cli.bytes_written"] = count("cli._emit", "bytes")
    dist_names = ("distribution.time_average", "distribution.spatial_average")
    dist_wall = total(*dist_names)
    busy = sum(
        s.end - s.start for s in spans
        if s.name == "phasor.window_average_series" and parent_name(s) in dist_names
    )
    m["distribution.pool_util"] = busy / (threads * dist_wall) if dist_wall > 0 else 0.0
    m["distribution.stack_bytes"] = float(stack_bytes)
    m["reconstruct.columns"] = calls(
        "phasor.window_average_series", lambda s: parent_name(s) == "reconstruct.reconstruct"
    )
    m["phasor.series_calls"] = calls("phasor.window_average_series")
    m["phasor.windows"] = count("phasor.window_average_series", "windows") + count(
        "phasor.window_average",
        "windows",
        lambda s: parent_name(s) != "phasor.window_average_series",
    )
    m["phasor.factor_samples"] = count(FACTOR_SPAN, "samples")
    m["phasor.samples_per_window"] = (
        m["phasor.factor_samples"] / m["phasor.windows"] if m["phasor.windows"] else 0.0
    )
    m["phasor.window_average_s"] = total("phasor.window_average")
    m["specfun.gaussian_phase_integral_s"] = total("specfun.gaussian_phase_integral")
    m["specfun.gaussian_phase_integral_samples"] = count("specfun.gaussian_phase_integral", "samples")
    m["specfun.ho_eigenfunction_s"] = total("specfun.ho_eigenfunction")
    m["specfun.ho_eigenfunction_samples"] = count("specfun.ho_eigenfunction", "samples")
    m["specfun.laguerre_s"] = total("specfun.laguerre")
    m["compare.marginal_calls"] = calls("compare.wigner_momentum_marginal")
    m["quadrature.trapezoid_s"] = total("quadrature.trapezoid")
    m["quadrature.trapezoid_cells"] = count("quadrature.trapezoid", "cells")
    m["quadrature.cumulative_trapezoid_s"] = total("quadrature.cumulative_trapezoid")
    m["quadrature.cumulative_cells"] = count("quadrature.cumulative_trapezoid", "cells")
    m["quadrature.grids_s"] = total("quadrature.paper_grids", "distribution.stationary_grids")
    m["systems.eigenfunction_s"] = total("systems.eigenfunction")
    return m
