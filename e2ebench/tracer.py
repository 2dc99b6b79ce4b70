"""Span recording from outside the program, and its analysis.

The benchmark never edits ``src/``: :func:`install` replaces the public
functions of every layer with timing wrappers at the names the program looks
them up under (a function imported by name into another module is wrapped
there too).  Each call records one span ``(key, thread, start, end)`` in
memory; :meth:`Tracer.dump` writes them out when the traced process ends.

:func:`analyze` turns the spans of one or more processes into

* per-key call counts, inclusive time and *self* time (a span's duration
  minus the part of it its child spans cover, children being the spans of
  the same thread nested inside it), and
* a wall-time attribution of a window (submission to results in hand) to
  the ten layers.  At each instant the window is charged to the innermost
  span of the highest-priority thread that is inside any span: the daemon's
  scheduler thread (or the library's main thread) first, then the daemon's
  other threads (HTTP handlers), then the client.  What no span covers is
  reported as unattributed.

Clocks: spans use ``time.monotonic``, which on Linux is one system-wide
clock, so spans of the daemon and the client line up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The ten ROADMAP layers, in order, by the short name used in metrics.
LAYERS = ("build", "activity", "physics", "events", "materialize",
          "executor", "record_store", "journal", "scheduler", "http")

#: Thread priorities for the wall-time attribution (lower wins).
PRIORITY_MAIN, PRIORITY_SERVER, PRIORITY_CLIENT = 0, 1, 2

#: What :func:`install` wraps: (module, attribute path, span key, layer).
#: Plain functions are wrapped in every module that imported them by name.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sweep.builders", "build_compiled_workload",
     "sweep.builders.build", "build"),
    ("repro.sweep.runner", "build_compiled_workload",
     "sweep.builders.build", "build"),
    ("repro.sim.runtime", "flip_factor_matrix",
     "workloads.generator.flip", "activity"),
    ("repro.sim.ensemble", "flip_factor_matrix",
     "workloads.generator.flip", "activity"),
    ("repro.power.ir_drop", "IRDropModel.drop_array",
     "power.ir_drop.drop_array", "physics"),
    ("repro.power.monitor", "IRMonitor.noise_for_cycles",
     "power.monitor.noise", "physics"),
    ("repro.sim.engine", "_VectorizedEngine._cache",
     "sim.engine.physics", "physics"),
    ("repro.sim.engine", "_VectorizedEngine._physics_cache",
     "sim.engine.physics", "physics"),
    ("repro.sim.engine", "_VectorizedEngine._prebuild_streams",
     "sim.engine.physics", "physics"),
    ("repro.sim.engine", "_LazyLevelStreams.refill",
     "sim.engine.physics", "physics"),
    ("repro.sim.shared_store", "SharedPhysicsStore.store",
     "sim.shared_store.publish", "physics"),
    ("repro.sim.shared_store", "SharedPhysicsStore.load",
     "sim.shared_store.load", "physics"),
    ("repro.sim.engine", "merge_candidates", "sim.kernels.select", "events"),
    ("repro.sim.engine", "select_failures", "sim.kernels.select", "events"),
    ("repro.sim.ensemble", "select_failures_runs",
     "sim.kernels.select", "events"),
    ("repro.sim.ensemble", "resume_frontiers_runs",
     "sim.kernels.select", "events"),
    ("repro.sim.runtime", "PIMRuntime.run", "sim.engine.run", "events"),
    ("repro.sim.ensemble", "run_ensemble", "sim.engine.run", "events"),
    ("repro.sim.engine", "_VectorizedEngine.materialize",
     "sim.engine.materialize", "materialize"),
    ("repro.power.energy", "EnergyModel.span_breakdowns",
     "power.energy.span_breakdowns", "materialize"),
    ("repro.sweep.records", "RunRecord.from_simulation",
     "sweep.records.from_simulation", "materialize"),
    ("repro.sweep.runner", "execute_run", "sweep.runner.work", "executor"),
    ("repro.sweep.runner", "execute_ensemble", "sweep.runner.work",
     "executor"),
    ("repro.sweep.runner", "SerialExecutor.imap_unordered",
     "sweep.runner.stream", "executor"),
    ("repro.sweep.runner", "PoolExecutor.imap_unordered",
     "sweep.runner.stream", "executor"),
    ("repro.sweep.runner", "SweepPass.consume", "sweep.runner.consume",
     "executor"),
    ("repro.sweep.runner", "SweepRunner.run", "sweep.runner.run",
     "executor"),
    ("repro.store.sharded", "ShardedRecordStore.append",
     "store.sharded.append", "record_store"),
    ("repro.store.sharded", "ShardedRecordStore.append_failed",
     "store.sharded.append", "record_store"),
    ("repro.store.sharded", "ShardedRecordStore.flush",
     "store.sharded.flush", "record_store"),
    ("repro.store.sharded", "ShardedRecordStore.seal",
     "store.sharded.seal", "record_store"),
    ("repro.store.sharded", "ShardedRecordStore.__init__",
     "store.sharded.open", "record_store"),
    ("repro.store.sharded", "ShardedRecordStore.close",
     "store.sharded.open", "record_store"),
    ("repro.store.sharded", "ShardedRecordStore._collect",
     "store.sharded.scan", "record_store"),
    ("repro.store.sharded", "scan_store", "store.sharded.scan",
     "record_store"),
    ("repro.store", "scan_store", "store.sharded.scan", "record_store"),
    ("repro.service.journal", "JobJournal.append",
     "service.journal.append", "journal"),
    ("repro.service.registry", "JobRegistry.transition",
     "service.registry.transition", "journal"),
    ("repro.service.registry", "JobRegistry.submit",
     "service.registry.transition", "journal"),
    ("repro.sweep.runner", "SweepPass.prepare", "sweep.runner.prepare",
     "scheduler"),
    ("repro.service.daemon", "SweepService._admit_waiting",
     "service.daemon.schedule", "scheduler"),
    ("repro.service.daemon", "SweepService._run_round",
     "service.daemon.schedule", "scheduler"),
    ("repro.service.daemon", "SweepService._finish_job",
     "service.daemon.schedule", "scheduler"),
    ("repro.service.daemon", "SweepService.submit",
     "service.daemon.submit", "scheduler"),
    ("repro.service.daemon", "SweepService.result",
     "service.daemon.result", "scheduler"),
    ("repro.service.daemon", "SweepService.records",
     "service.daemon.records", "http"),
    ("repro.service.api", "_Handler.handle_one_request",
     "service.api.server", "http"),
)

#: Generator functions: their span runs from the first ``next`` to the end.
GENERATORS = frozenset({"SerialExecutor.imap_unordered",
                        "PoolExecutor.imap_unordered"})


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.keys: Dict[str, int] = {}
        self.key_layers: List[str] = []
        #: (key id, thread ident, start, end) — one tuple per finished call;
        #: ``list.append`` of a tuple is atomic, so threads need no lock.
        self.spans: List[Tuple[int, int, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(int)
        #: per-thread priority overrides (default: PRIORITY_SERVER).
        self.priorities: Dict[int, int] = {}
        self._lock = threading.Lock()

    def key_id(self, key: str, layer: str) -> int:
        with self._lock:
            if key not in self.keys:
                if layer not in LAYERS:
                    raise ValueError(f"unknown layer {layer!r}")
                self.keys[key] = len(self.key_layers)
                self.key_layers.append(layer)
            return self.keys[key]

    def record(self, kid: int, start: float, end: float) -> None:
        self.spans.append((kid, threading.get_ident(), start, end))

    def span(self, key: str, layer: str) -> "_Span":
        return _Span(self, self.key_id(key, layer))

    def wrap(self, fn: Callable, key: str, layer: str,
             after: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn``; ``after(args, result, start)``
        may record counters once the call has returned."""
        kid = self.key_id(key, layer)
        record, clock = self.record, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record(kid, start, clock())
            if after is not None:
                after(args, result, start)
            return result
        return wrapper

    def wrap_generator(self, fn: Callable, key: str, layer: str,
                       after: Optional[Callable] = None) -> Callable:
        kid = self.key_id(key, layer)
        record, clock = self.record, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                yield from fn(*args, **kwargs)
            finally:
                record(kid, start, clock())
                if after is not None:
                    after(args, None, start)
        return wrapper

    def to_json_dict(self, default_priority: int) -> Dict:
        return {"keys": sorted(self.keys, key=self.keys.get),
                "layers": list(self.key_layers),
                "spans": [list(span) for span in self.spans],
                "counters": dict(self.counters),
                "priorities": {str(ident): p
                               for ident, p in self.priorities.items()},
                "default_priority": default_priority}

    def dump(self, path: str, default_priority: int) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(default_priority), handle)


class _Span:
    """``with tracer.span(key, layer):`` — a span around a block of code."""

    def __init__(self, tracer: Tracer, kid: int) -> None:
        self.tracer, self.kid = tracer, kid

    def __enter__(self) -> "_Span":
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.record(self.kid, self.start, time.monotonic())


# ---------------------------------------------------------------------- #
# installation
# ---------------------------------------------------------------------- #
def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _route(method: str, path: str) -> str:
    """The API route name of one request (``submit``, ``status``, ...)."""
    parts = [part for part in path.split("?")[0].split("/") if part]
    if parts == ["jobs"]:
        return "submit" if method.upper() == "POST" else "jobs"
    if len(parts) == 2 and parts[0] == "jobs":
        return "status"
    if len(parts) == 3 and parts[0] == "jobs":
        return parts[2]
    return parts[0] if parts else "root"


def _hooks(tracer: Tracer) -> Dict[str, Callable]:
    """Counters recorded after a wrapped call, by target path.

    Each hook is called as ``hook(args, result, start)`` once the call has
    returned (for a generator: once it is exhausted or closed).
    """
    counters = tracer.counters
    sizes: Dict[str, int] = {}
    submitted: Dict[str, float] = {}

    def flip_rows(args, _result, _start) -> None:
        counters["workloads.generator.flip_rows"] += len(args[0])

    def executor_stats(args, _result, _start) -> None:
        stats = args[0].stats
        counters["sweep.runner.retries"] += stats.retries
        counters["sweep.runner.requeues"] += stats.requeues

    def store_size(args, _result, _start) -> None:
        store = args[0]
        sizes[store.directory] = int(store.stats()["size_bytes"])
        counters["store.sharded.size_bytes"] = sum(sizes.values())

    def submit_time(args, _result, _start) -> None:
        submitted.setdefault(args[1].get("name", ""), time.monotonic())

    def queue_wait(args, _result, start) -> None:
        queued = submitted.pop(args[0].spec.name, None)
        if queued is not None:
            counters["service.daemon.queue_wait_s"] += start - queued

    return {"flip_factor_matrix": flip_rows,
            "SerialExecutor.imap_unordered": executor_stats,
            "PoolExecutor.imap_unordered": executor_stats,
            "ShardedRecordStore.close": store_size,
            "SweepService.submit": submit_time,
            "SweepPass.prepare": queue_wait}


def install(tracer: Tracer) -> None:
    """Wrap every target of :data:`TARGETS` and the API's router.

    Each traced process installs once, before the program starts.
    """
    hooks = _hooks(tracer)
    wrappers: Dict[int, Callable] = {}
    for module_name, path, key, layer in TARGETS:
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__.get(attr, getattr(owner, attr))
        after = hooks.get(path)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, key, layer))
        elif path in GENERATORS:
            wrapped = tracer.wrap_generator(raw, key, layer, after)
        else:
            # A function imported into several modules is wrapped once.
            wrapped = wrappers.get(id(raw))
            if wrapped is None:
                wrapped = tracer.wrap(raw, key, layer, after)
                wrappers[id(raw)] = wrapped
        setattr(owner, attr, wrapped)
    _install_api(tracer)


def _install_api(tracer: Tracer) -> None:
    """``ServiceAPI.handle`` gets one span key per route."""
    from repro.service.api import ServiceAPI
    handle = ServiceAPI.handle
    clock = time.monotonic

    @functools.wraps(handle)
    def wrapper(self, method, path, body=None):
        kid = tracer.key_id(f"service.api.handle.{_route(method, path)}",
                            "http")
        start = clock()
        try:
            return handle(self, method, path, body)
        finally:
            tracer.record(kid, start, clock())
    ServiceAPI.handle = wrapper


def finish(tracer: Tracer, service=None) -> None:
    """Read the end-of-run counters off the program's stats surfaces."""
    from repro.sim import level_cache
    stats = level_cache.level_cache_stats()
    counters = tracer.counters
    counters["sim.level_cache.hits"] = stats["hits"] + stats["backend_hits"]
    counters["sim.level_cache.lookups"] = \
        stats["hits"] + stats["backend_hits"] + stats["misses"]
    store = level_cache.LEVEL_CACHE.backend
    if store is not None:
        shared = store.stats()
        counters["sim.shared_store.loads"] = shared["loads"]
        counters["sim.shared_store.load_hits"] = shared["load_hits"]
        index = os.path.join(store.directory, "index.json")
        if os.path.exists(index):
            counters["sim.shared_store.index_bytes"] = os.path.getsize(index)
    if service is not None:
        counters["service.journal.fsyncs"] = service.journal.stats.fsyncs


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def _thread_walk(spans: List[Tuple[float, float, int]]):
    """Self time per span and innermost-span segments of one thread.

    ``spans`` are ``(start, end, key)`` of one thread; nesting follows from
    the intervals (a span inside another is its child).  Returns
    ``(self_by_key, segments)`` where segments are ``(start, end, key)``
    pieces of the thread's timeline labelled with the innermost open span.
    """
    spans.sort(key=lambda s: (s[0], -s[1]))
    self_by_key: Dict[int, float] = defaultdict(float)
    segments: List[Tuple[float, float, int]] = []
    stack: List[List] = []      # [start, end, key, child_covered]
    cursor = None

    def close_top() -> None:
        nonlocal cursor
        start, end, key, covered = stack.pop()
        self_by_key[key] += max(0.0, (end - start) - covered)
        if cursor < end:
            segments.append((cursor, end, key))
        cursor = end
        if stack:
            stack[-1][3] += end - start

    for start, end, key in spans:
        while stack and stack[-1][1] <= start:
            close_top()
        if stack:
            # A child: clamp to its parent (tolerates sloppy generator
            # closes), and label the parent's time up to here.
            end = min(end, stack[-1][1])
            if cursor < start:
                segments.append((cursor, start, stack[-1][2]))
        stack.append([start, end, key, 0.0])
        cursor = start
    while stack:
        close_top()
    return self_by_key, segments


def analyze(dumps: Sequence[Dict], window: Tuple[float, float]) -> Dict:
    """Per-key counts/inclusive/self times and the attribution of ``window``
    (per key and per layer) over the spans of every dump, one per process."""
    calls: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    layer_of: Dict[str, str] = {}
    counters: Dict[str, float] = defaultdict(int)
    labelled: List[Tuple[int, List[Tuple[float, float, str]]]] = []
    for dump in dumps:
        keys = dump["keys"]
        layer_of.update(zip(keys, dump["layers"]))
        for name, value in dump["counters"].items():
            counters[name] += value
        by_thread: Dict[int, List] = defaultdict(list)
        for kid, ident, start, end in dump["spans"]:
            by_thread[ident].append((start, end, kid))
            calls[keys[kid]] += 1
            inclusive[keys[kid]] += end - start
        for ident, spans in by_thread.items():
            own, segments = _thread_walk(spans)
            for kid, value in own.items():
                self_time[keys[kid]] += value
            priority = dump["priorities"].get(str(ident),
                                              dump["default_priority"])
            labelled.append((priority, [(s, e, keys[k])
                                        for s, e, k in segments]))
    by_key = _attribute(labelled, window)
    by_layer = {layer: 0.0 for layer in LAYERS}
    for key, seconds in by_key.items():
        by_layer[layer_of[key]] += seconds
    return {"calls": dict(calls), "inclusive": dict(inclusive),
            "self": dict(self_time), "layer_of": layer_of,
            "counters": dict(counters), "attributed_keys": by_key,
            "attributed": by_layer, "window_s": window[1] - window[0]}


def _attribute(labelled, window) -> Dict[str, float]:
    """Charge each instant of ``window`` to the innermost span of the
    highest-priority busy thread (a sweep over segment boundaries)."""
    lo, hi = window
    events: List[Tuple[float, int, int, int, str]] = []
    for serial, (priority, segments) in enumerate(labelled):
        for start, end, key in segments:
            start, end = max(start, lo), min(end, hi)
            if end > start:
                events.append((start, 1, priority, serial, key))
                events.append((end, -1, priority, serial, key))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, Dict[int, str]] = defaultdict(dict)  # prio -> thread
    totals: Dict[str, float] = defaultdict(float)
    previous = lo
    for when, kind, priority, serial, key in events:
        if when > previous and active:
            owner = next(iter(active[min(active)].values()))
            totals[owner] += when - previous
        previous = when
        if kind > 0:
            active[priority][serial] = key
        else:
            del active[priority][serial]
            if not active[priority]:
                del active[priority]
    return dict(totals)
