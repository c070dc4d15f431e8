"""Span tracing of bandflow's layers, installed from outside the package.

``Tracer.install`` replaces each public callable of the package with a
wrapper that records a span (name, parent span, thread, start, end,
points evaluated) wherever the callable is bound: module functions in
every bandflow module that imported them and in the benchmark's own
modules, and methods on their classes.  Spans stay in memory, one log per
thread (the sweep runs a thread pool), and ``uninstall`` puts every
original back.  Each span carries two clocks: wall time and the thread's
CPU time.  A span's self time is its CPU time minus that of its direct
children; CPU time, because with two sweep threads taking turns on the
interpreter lock a wall-clock span also counts the other thread's work.

Span names are ``<layer>.<callable>``; the layer is the module the
callable is defined in, except that vector-field methods count as
``fields`` wherever the field class lives.  Integrands handed to the
quadrature get a span named after the quadrature's caller, so that the
quadrature's self time is its own bookkeeping only.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import bandflow
from bandflow.fields import VectorField
from bandflow.geometry import ProfileCurve
from bandflow.profiles import HelmholtzProfile, RadialProfile

LAYERS = (
    "geometry",
    "profiles",
    "fields",
    "stability",
    "quadrature",
    "misiolek",
    "witness",
    "serialize",
    "cli",
)

_PROFILE_METHODS = ("value", "d1", "d2", "d3")
_FIELD_METHODS = (
    "u1",
    "u2",
    "du1_dr",
    "du1_dtheta",
    "d2u1_dtheta2",
    "du2_dtheta",
    "d2u2_dtheta2",
)
_CURVE_ACCESSORS = ("c1", "c2", "dc1", "dc2", "ddc1", "ddc2", "dddc1", "dlog_c1")


def _radial_points(args, kwargs) -> int:
    return int(np.size(args[1]))


def _field_points(args, kwargs) -> int:
    return int(np.broadcast(args[1], args[2]).size)


# span columns and their array typecodes; t is the wall clock, c the
# thread CPU clock, 0 at entry and 1 at exit
_COLUMNS = {"name": "i", "parent": "i", "points": "q", "t0": "d", "t1": "d", "c0": "d", "c1": "d"}


class _ThreadLog:
    """Spans opened on one thread, as parallel columns."""

    def __init__(self):
        for column, code in _COLUMNS.items():
            setattr(self, column, array(code))
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._ids: dict[tuple[str, bool], int] = {}
        self.names: list[str] = []
        self.entry: list[bool] = []
        self.counters: Counter = Counter()
        self.cell_waits: list[float] = []
        self._sweep_start: float | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _name_id(self, name: str, entry: bool) -> int:
        with self._lock:
            key = (name, entry)
            if key not in self._ids:
                self._ids[key] = len(self.names)
                self.names.append(name)
                self.entry.append(entry)
            return self._ids[key]

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    def _caller_name(self) -> str:
        """Name of the span that called the innermost open span."""
        log = self._log()
        if len(log.stack) < 2:
            return "bench.integrand"
        return self.names[log.name[log.stack[-2]]]

    def span(self, name: str, fn, points=None, entry: bool = True, after=None):
        """Wrap fn so that each call records a span; entry=False spans add
        self time to name without counting as calls."""
        nid = self._name_id(name, entry)
        clock = time.perf_counter
        cpu = time.thread_time
        tracer = self

        def traced(*args, **kwargs):
            log = tracer._log()
            idx = len(log.t0)
            log.name.append(nid)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.points.append(points(args, kwargs) if points else 0)
            log.t1.append(0.0)
            log.c1.append(0.0)
            log.stack.append(idx)
            log.t0.append(clock())
            log.c0.append(cpu())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.c1[idx] = cpu()
                log.t1[idx] = clock()
                log.stack.pop()
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------ patching

    def _quadrature(self, fn):
        signature = inspect.signature(fn)

        def with_traced_integrand(integrand, *args, **kwargs):
            call = signature.bind(integrand, *args, **kwargs)
            call.apply_defaults()
            traced = self.span(self._caller_name(), integrand, entry=False)
            result = fn(traced, *args, **kwargs)
            # every panel the rule evaluates costs nodes_per_panel evaluations
            self.count("quadrature.evals", result.n_evals)
            self.count("quadrature.panels", result.n_evals // call.arguments["nodes_per_panel"])
            return result

        return self.span("quadrature.adaptive_gauss_legendre", functools.wraps(fn)(with_traced_integrand))

    def _find_witness(self, fn):
        def after(result):
            diag = result.diagnostics
            self.count("witness.candidates", diag.get("candidates_examined", 0))
            self.count("witness.candidates_stable", diag.get("stable_count", 0))

        traced = self.span("witness.find_witness", fn, after=after)

        def cell(*args, **kwargs):
            if self._sweep_start is not None:
                with self._lock:
                    self.cell_waits.append(time.perf_counter() - self._sweep_start)
            return traced(*args, **kwargs)

        return functools.wraps(fn)(cell)

    def _sweep(self, fn):
        traced = self.span("witness.sweep", fn)

        def grid(*args, **kwargs):
            self._sweep_start = time.perf_counter()
            return traced(*args, **kwargs)

        return functools.wraps(fn)(grid)

    def _function_wrapper(self, layer: str, fn):
        if fn.__name__ == "adaptive_gauss_legendre":
            return self._quadrature(fn)
        if fn.__name__ == "find_witness":
            return self._find_witness(fn)
        if fn.__name__ == "sweep":
            return self._sweep(fn)
        return self.span(f"{layer}.{fn.__name__}", fn)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_class(self, layer: str, cls) -> None:
        if issubclass(cls, VectorField):
            for name in _FIELD_METHODS:
                if name in cls.__dict__:
                    self._set(cls, name, self.span("fields.field_eval", cls.__dict__[name], _field_points))
            if "is_boundary_tangent" in cls.__dict__:
                self._set(cls, "is_boundary_tangent", self.span("fields.is_boundary_tangent", cls.__dict__["is_boundary_tangent"]))
        elif issubclass(cls, RadialProfile):
            label = "profiles.eval" if layer == "profiles" else f"{layer}.profile_eval"
            for name in _PROFILE_METHODS:
                if name in cls.__dict__:
                    self._set(cls, name, self.span(label, cls.__dict__[name], _radial_points))
            if cls is HelmholtzProfile:
                self._set(cls, "__init__", self.span("profiles.helmholtz_build", cls.__dict__["__init__"]))
        elif cls is ProfileCurve:
            self._set(cls, "frame", self.span("geometry.frame", cls.__dict__["frame"], _radial_points))
            for name in _CURVE_ACCESSORS:
                self._set(cls, name, self.span("geometry.accessor", cls.__dict__[name], _radial_points))

    def install(self, *extra_namespaces) -> None:
        """Wrap every public callable of every layer where it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"bandflow.{layer}"] for layer in LAYERS]
        namespaces = [bandflow, *modules, *extra_namespaces]
        for layer, module in zip(LAYERS, modules):
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapper = self._function_wrapper(layer, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def columns(self) -> dict:
        """All spans as flat columns; parent holds global span indices."""
        parts: dict[str, list] = {k: [] for k in (*_COLUMNS, "thread")}
        offset = 0
        for tid, log in enumerate(self._logs):
            for column, code in _COLUMNS.items():
                parts[column].append(np.frombuffer(getattr(log, column), dtype=code))
            parent = parts["parent"][-1].astype(np.int64)
            parts["parent"][-1] = np.where(parent >= 0, parent + offset, -1)
            parts["thread"].append(np.full(len(log.t0), tid, dtype=np.int32))
            offset += len(log.t0)
        return {k: np.concatenate(v) for k, v in parts.items()}

    def by_name(self) -> dict[str, dict]:
        """calls, self_s (CPU seconds) and points per span name."""
        cols = self.columns()
        dur = cols["c1"] - cols["c0"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, dict] = {}
        k = len(self.names)
        self_s = np.bincount(cols["name"], weights=own, minlength=k)
        points = np.bincount(cols["name"], weights=cols["points"], minlength=k)
        calls = np.bincount(cols["name"], minlength=k)
        for nid, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "points": 0})
            entry["self_s"] += float(self_s[nid])
            entry["points"] += int(points[nid])
            if self.entry[nid]:
                entry["calls"] += int(calls[nid])
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), entry=np.array(self.entry), **self.columns())
