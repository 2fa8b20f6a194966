"""Outside-in span tracing for the benchmark.

Spans are recorded by wrapping public functions and methods of ``repro`` at
their import sites (every ``repro.*`` module attribute that is the original
object is replaced), so no source file changes.  Spans stay in memory and
are folded into per-layer metrics when the run ends.

A span is ``[id, parent, name, start, end, op, pid, attrs]``: ``start`` and
``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, comparable
across processes), ``op`` is the benchmark operation the span belongs to and
``attrs`` holds the counters taken at that boundary.

Pool workers are forked after the wrappers are installed, so library calls
inside them are traced too.  The pool's chunk entry point is replaced by a
picklable proxy: each submitted chunk carries the owner's open ``pool.map``
span as its parent, and the chunk's result list travels back with the
worker's spans attached, which are merged into the owner's tracer when the
result is unpickled.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

_ROOT = object()  # "no explicit parent": use the thread's open span


class Tracer:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.reset()
        #: operation id stamped on every span (set by the benchmark loop).
        self.op = None
        #: span a new thread's first span hangs under (a client request).
        self.thread_parent = None
        #: the open ``pool.map`` span, the parent of submitted chunks.
        self.map_span = None

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        #: adjacency id -> its last CSR snapshot (detects rebuilds).
        self.last_csr: dict = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, parent=_ROOT) -> list:
        stack = self._stack()
        if parent is _ROOT:
            parent = stack[-1] if stack else self.thread_parent
        span = [
            self.pid * 1_000_000_000 + next(self._ids), parent, name,
            time.perf_counter(), None, self.op, self.pid, None,
        ]
        stack.append(span[0])
        return span

    def end(self, span: list, end: "float | None" = None, attrs=None) -> None:
        span[4] = time.perf_counter() if end is None else end
        span[7] = attrs
        self._stack().pop()
        self.spans.append(span)


TRACER: "Tracer | None" = None


class _Scope:
    """A span opened by the benchmark itself (an operation or a request)."""

    def __init__(self, name: str, op=None, root: bool = False):
        self.name, self.op, self.root = name, op, root

    def __enter__(self):
        if self.op is not None:
            TRACER.op = self.op
        self.span = TRACER.begin(self.name, None if self.root else _ROOT)
        self.saved = TRACER.thread_parent
        TRACER.thread_parent = self.span[0]
        return self.span

    def __exit__(self, *exc):
        TRACER.thread_parent = self.saved
        TRACER.end(self.span)
        return False


def scope(name: str, op=None, root: bool = False):
    """Span around benchmark code; a no-op context when tracing is off."""
    if TRACER is None:
        return contextlib.nullcontext()
    return _Scope(name, op, root)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _traced(fn, name: str, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = TRACER.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            TRACER.end(span)
            raise
        end = time.perf_counter()
        TRACER.end(span, end, count(args, kwargs, result) if count else None)
        return result

    return traced


def _traced_pool_map(fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = TRACER.begin("pool.map")
        saved, TRACER.map_span = TRACER.map_span, span[0]
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.map_span = saved
            TRACER.end(span)

    return traced


def _deliver(result, spans):
    """Unpickled in the owner: merge a worker's spans, hand back the list."""
    if TRACER is not None:
        TRACER.spans.extend(spans)
    return result


class _SpanCarrier(list):
    """A chunk's result list with the worker's spans riding along."""

    def __init__(self, result, spans):
        super().__init__(result)
        self.spans = spans

    def __reduce__(self):
        return _deliver, (list(self), self.spans)


class _ChunkCall:
    """The pool chunk entry point as run in a worker, tagged with context."""

    original = None  # the library's chunk runner (inherited through fork)

    def __init__(self, parent, op):
        self.parent, self.op = parent, op

    def __call__(self, *args, **kwargs):
        if TRACER.pid != os.getpid():
            TRACER.reset()  # first chunk in a fresh worker
        TRACER.spans = []
        TRACER.op = self.op
        span = TRACER.begin("pool.chunk", self.parent)
        try:
            result = _ChunkCall.original(*args, **kwargs)
        finally:
            TRACER.end(span)
        return _SpanCarrier(result, TRACER.spans)


class _ChunkProxy:
    """Stands in for the chunk runner; pickles as a context-tagged call."""

    def __call__(self, *args, **kwargs):  # the owner never calls it directly
        return _ChunkCall.original(*args, **kwargs)

    def __reduce__(self):
        return _ChunkCall, (TRACER.map_span, TRACER.op)


def _patch_everywhere(original, replacement) -> int:
    """Replace ``original`` on every loaded ``repro`` module holding it."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _bound_bytes(args, kwargs, result):
    n = args[0].graph.n
    return {"bytes": 3 * 8 * n * n}  # read base+1, write and reduce the buffer


def _rows_changed(args, kwargs, result):
    return {"rows": int(result.sum())}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _published_bytes(args, kwargs, result):
    arrays = args[1] if len(args) > 1 else kwargs["arrays"]
    return {"bytes": int(sum(a.nbytes for a in arrays.values()))}


def _cache_lookup(args, kwargs, result):
    return {
        "lookup": int(kwargs.get("count_miss", True)),
        "hit": int(result is not None and kwargs.get("count_miss", True)),
    }


def _csr_rebuild(args, kwargs, result):
    # A snapshot is rebuilt exactly when the returned object changes.
    key = id(args[0])
    rebuilt = TRACER.last_csr.get(key) is not result
    TRACER.last_csr[key] = result
    return {"rebuilds": int(rebuilt)}


def install() -> Tracer:
    """Create the process tracer and wrap every traced layer boundary."""
    global TRACER
    from repro.core import batched, dynamics, engine
    from repro.experiments import experiment
    from repro.graphs import adjacency, distances, repair
    from repro.io import checkpoint, jsonl_store, result_cache
    from repro.parallel import shared
    from repro.service import handlers

    TRACER = Tracer()
    functions = [
        (distances.distance_matrix, "distances.apsp", None),
        (repair.batched_removal_rows_multi, "repair.bfs_rows", _rows),
        (repair.predecessor_counts, "repair.pred_counts", None),
        (repair.removal_affected_matrix, "repair.affected_masks", None),
        (batched.exact_costs_from_bound, "batched.exact", None),
        (batched.scan_deletion_violations, "batched.deletion_scan", None),
        (batched.best_swap_scan, "batched.best_swap_scan", None),
        (batched.certify_at_rest, "batched.certify", None),
        (experiment.run_fleet, "experiments.run_fleet", None),
    ]
    for fn, name, count in functions:
        if _patch_everywhere(fn, _traced(fn, name, count)) == 0:
            raise RuntimeError(f"no import site found for {name}")
    methods = [
        (batched.BatchedRemovalPlan, "__init__", "batched.plan", None),
        (batched.BatchedRemovalPlan, "bound_costs", "batched.bound",
         _bound_bytes),
        (engine.DistanceEngine, "apply_swap", "engine.apply_swap",
         _rows_changed),
        (adjacency.AdjacencyGraph, "to_csr", "adjacency.to_csr",
         _csr_rebuild),
        (dynamics.SwapDynamics, "run", "dynamics.run", None),
        (checkpoint.CheckpointStore, "save", "checkpoint.save", _file_bytes),
        (jsonl_store.JsonlStore, "append", "jsonl.append", None),
        (shared.SharedArrayBundle, "__init__", "shared.publish",
         _published_bytes),
        (result_cache.ResultCache, "put", "cache.put", _file_bytes),
        (result_cache.ResultCache, "get", "cache.get", _cache_lookup),
        (handlers.AuditEngine, "handle_audit", "service.handle", None),
    ]
    for cls, attr, name, count in methods:
        setattr(cls, attr, _traced(getattr(cls, attr), name, count))
    shared.SharedArrayPool.map = _traced_pool_map(shared.SharedArrayPool.map)
    _ChunkCall.original = shared._run_chunk
    shared._run_chunk = _ChunkProxy()
    return TRACER


# ---------------------------------------------------------------------------
# Folding spans into per-layer numbers
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_table(spans: list) -> dict:
    """Per span name: calls, total and self seconds, summed counters.

    Self time is a span's duration minus the part of it covered by its
    children in the same process (a pool chunk runs beside ``pool.map``, it
    does not cover the owner's wait).
    """
    children: dict = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[(s[1], s[6])].append((s[3], s[4]))
    table: dict = {}
    for sid, _, name, start, end, _, pid, attrs in spans:
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(
            start, end, children.get((sid, pid), [])
        )
        for key, value in (attrs or {}).items():
            row[key] = row.get(key, 0) + value
    return table
