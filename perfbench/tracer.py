"""Layer spans measured from outside the program.

The traced run wraps the public entry points of each layer at the name
its callers look them up by, records one span per call into a layer,
and restores every attribute afterwards.  No program source changes:

* ``validate_request`` and ``compile_plan`` are imported by name into
  ``repro.session.plan`` / ``repro.session.pool``, so they are wrapped
  at those names;
* ``repro.runtime.context`` calls ``kernels.*`` and ``batchmod.*``
  through the module, so the module attributes are wrapped;
* ``Scu``, ``ExecutionEngine``, ``SisaContext``, ``ResultCache``,
  ``PlanExecutor``, ``SessionPool``, ``DynamicSetGraph.apply_batch``,
  ``SetGraph``'s builders, ``Observability`` and its ``SpanRecorder``
  are wrapped at class level.

A call into a layer from inside the same layer is not a new span (it
runs unwrapped under the outer span), which keeps the overhead to one
span per layer crossing.  Each span stores its name, start, end, parent
span and request id in flat arrays kept in memory; ``write()`` saves
them once at the end.  A layer's self time is its span time minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.runtime.batch as batch_module
import repro.session.plan as plan_module
import repro.session.pool as pool_module
import repro.session.session as session_module
import repro.sets.kernels as kernels_module
from repro.hw.engine import ExecutionEngine
from repro.isa.scu import Scu
from repro.observability.hub import Observability
from repro.observability.spans import SpanRecorder
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.session.cache import ResultCache
from repro.streaming.graph import DynamicSetGraph

#: Reported layers, in table order.
LAYERS = (
    "serving.validation",
    "session.compile",
    "session.pool",
    "session.executor",
    "session.cache",
    "observability",
    "streaming",
    "runtime.setgraph",
    "runtime.context",
    "runtime.batch",
    "isa.scu.batch",
    "isa.scu.scalar",
    "sets.kernels",
    "hw.engine",
)

_BATCH_OPERAND_FUNCS = ("intersect_counts", "intersect_values", "union_values", "difference_values")


def _public_functions(cls) -> list[str]:
    """Plain public functions defined on ``cls`` itself (properties and
    context-manager helpers excluded: a span around a context-manager
    factory would time only its construction)."""
    names = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(value)):  # @contextmanager
            continue
        names.append(name)
    return names


def _targets():
    """(owner, attribute, layer) for every wrapped entry point."""
    out = [
        (plan_module, "validate_request", "serving.validation"),
        (plan_module, "compile_plan", "session.compile"),
        (pool_module, "compile_plan", "session.compile"),
        (plan_module.PlanExecutor, "execute", "session.executor"),
        (DynamicSetGraph, "apply_batch", "streaming"),
        (SetGraph, "from_graph", "runtime.setgraph"),
        (SetGraph, "from_digraph", "runtime.setgraph"),
        (session_module, "degeneracy_order", "runtime.setgraph"),
        (session_module, "orient_by_order", "runtime.setgraph"),
    ]
    out += [(pool_module.SessionPool, n, "session.pool") for n in _public_functions(pool_module.SessionPool)]
    out += [(ResultCache, n, "session.cache") for n in ("get", "put", "make_key", "invalidate")]
    out += [(Observability, n, "observability") for n in _public_functions(Observability)]
    out += [(SpanRecorder, n, "observability") for n in _public_functions(SpanRecorder)]
    out += [(SisaContext, n, "runtime.context") for n in _public_functions(SisaContext)]
    out += [(ExecutionEngine, n, "hw.engine") for n in _public_functions(ExecutionEngine)]
    for name in _public_functions(Scu):
        layer = "isa.scu.batch" if name.endswith(("_batch", "_fused")) else "isa.scu.scalar"
        out.append((Scu, name, layer))
    for name, value in vars(batch_module).items():
        if inspect.isfunction(value) and value.__module__ == batch_module.__name__ and not name.startswith("_"):
            out.append((batch_module, name, "runtime.batch"))
    for name, value in vars(kernels_module).items():
        if inspect.isfunction(value) and value.__module__ == kernels_module.__name__ and not name.startswith("_"):
            out.append((kernels_module, name, "sets.kernels"))
    return out


class Tracer:
    """Installs layer wrappers, records spans, aggregates per layer."""

    def __init__(self):
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.func_names: list[str] = []
        self.func_layer: list[int] = []
        self._active = [0] * len(LAYERS)
        self._stack = [-1]
        self._ids = itertools.count()
        self._ints = array("q")  # (span id, func id, parent id, request id) per span
        self._times = array("d")  # (start, end) per span
        self.request = -1
        self.operands = 0  # sets passed to runtime.batch frontier kernels
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        self.func_names.clear()
        self.func_layer.clear()
        for owner, attr, layer in _targets():
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{layer}:{attr}", layer))
            else:
                wrapped = self._wrap(raw, f"{layer}:{attr}", layer)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, layer: str):
        fid = len(self.func_names)
        self.func_names.append(name)
        lid = self.layer_index[layer]
        self.func_layer.append(lid)
        active, stack, ids = self._active, self._stack, self._ids
        ints, times = self._ints, self._times
        counts_operands = layer == "runtime.batch" and name.split(":")[1] in _BATCH_OPERAND_FUNCS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[lid]:
                return fn(*args, **kwargs)
            if counts_operands:
                tracer.operands += len(args[1])
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            active[lid] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[lid] = 0
                stack.pop()
                ints.extend((sid, fid, parent, tracer.request))
                times.extend((start, end))

        return wrapper

    @contextmanager
    def suspended(self):
        """Run benchmark bookkeeping (marks, counters) without spans."""
        saved = list(self._active)
        self._active[:] = [1] * len(LAYERS)
        try:
            yield
        finally:
            self._active[:] = saved

    # -- results ---------------------------------------------------------

    def clear(self) -> None:
        del self._ints[:]
        del self._times[:]
        self.operands = 0

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, ordered by span id."""
        ints = np.frombuffer(self._ints, dtype=np.int64).reshape(-1, 4)
        times = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 2)
        order = np.argsort(ints[:, 0], kind="stable")
        ints, times = ints[order], times[order]
        return {
            "span": ints[:, 0].copy(),
            "func": ints[:, 1].copy(),
            "parent": ints[:, 2].copy(),
            "request": ints[:, 3].copy(),
            "start": times[:, 0].copy(),
            "end": times[:, 1].copy(),
        }

    def layer_totals(self, spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """Per layer: span count and self time (seconds)."""
        count = spans["span"].size
        duration = spans["end"] - spans["start"]
        child_time = np.zeros(count)
        has_parent = spans["parent"] >= 0
        parent_row = np.searchsorted(spans["span"], spans["parent"][has_parent])
        np.add.at(child_time, parent_row, duration[has_parent])
        self_time = duration - child_time
        layer = np.asarray(self.func_layer, dtype=np.int64)[spans["func"]] if count else np.zeros(0, np.int64)
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(LAYERS)
        }

    def write(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.func_names), **spans)
