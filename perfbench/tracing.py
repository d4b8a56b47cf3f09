"""Runtime span tracing of the package's layers, installed from outside.

:func:`install` wraps the public entry points of each layer (methods on the
engine, pool, spec, sampler, estimator, sketch, executor and WAL classes, and
module-level functions such as ``write_checkpoint``) with a recorder.  Each
call becomes one span ``(id, parent, op, name, start, end, units)``; spans of
one benchmark operation share ``op``.  Spans stay in memory and are written
out once, at the end.  Nothing in ``src/`` changes: the wrappers are applied
to the imported classes and modules, and :meth:`Tracer.uninstall` restores
the originals.

A layer's self time is its span's duration minus the time its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import bisect
import gzip
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_INHERITED = object()

#: One recorded span: (id, parent id or 0, op id, name, start, end, units).
Span = Tuple[int, int, int, str, float, float, int]


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, units: int = 0) -> Iterator[None]:
        """Record a span around a block (the benchmark's own operations)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, op = stack[-1] if stack else (0, next(self._ops))
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, op, name, start, end, units))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``units(args, result)`` gives the span's work count (elements,
        bytes); it is evaluated after the call.
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        ops = self._ops
        stack_of = self._stack
        perf = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent, op = stack[-1] if stack else (0, next(ops))
            stack.append((span_id, op))
            start = perf()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, parent, op, name, start, perf(), 0))
                raise
            end = perf()
            stack.pop()
            spans.append(
                (span_id, parent, op, name, start, end, 0 if units is None else units(args, result))
            )
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        self._patch(owner, attr, traced)

    def count(self, owner: Any, attr: str, name: str, hit: Callable[[Any], bool]) -> None:
        """Count calls (``name``) and hits (``name.hits``) without a span."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)
        counts.setdefault(name + ".hits", 0)

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            counts[name] += 1
            if hit(result):
                counts[name + ".hits"] += 1
            return result

        self._patch(owner, attr, counted)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # An inherited method is patched on ``owner`` itself and deleted
        # again on uninstall, so the base class is never touched.
        own = owner.__dict__ if isinstance(owner, type) else vars(owner)
        self._patches.append((owner, attr, own.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the counters, then every span as one JSON array per line,
        gzip-compressed (a traced serve run records hundreds of thousands)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"counts": self.counts}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_dump(path: str) -> Tuple[List[Span], Dict[str, int]]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        counts = json.loads(handle.readline())["counts"]
        spans = [tuple(json.loads(line)) for line in handle]
    return spans, counts  # type: ignore[return-value]


def _sampler_classes(base: type) -> List[type]:
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _length_of(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[index])


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    The same set is installed in every traced process (the benchmark itself
    and the serve daemon's launcher); layers a workload never calls simply
    record no spans.
    """
    import repro.applications as applications
    import repro.core.base as core_base
    import repro.engine as engine_pkg
    import repro.engine.checkpoint as checkpoint
    import repro.engine.executor as executor
    import repro.engine.source as source
    import repro.serve as serve
    import repro.sketches as sketches
    from repro.engine import KeyedSamplerPool, ProcessEngine, QueryCache, SamplerSpec, ShardedEngine
    from repro.engine.wal import WriteAheadLog

    # A worker forked while the wrappers are in (a process fleet's) runs
    # unwrapped: its spans would never be read, and their cost would slow
    # the very stages the coordinator waits on.
    os.register_at_fork(after_in_child=tracer.uninstall)

    # repro.core: the samplers' ingest and query paths, on every concrete class.
    # The pool hands ``append`` one element and ``process_batch`` a run; the
    # observer fallback of ``process_batch`` nests ``append`` spans inside.
    one = lambda args, result: 1  # noqa: E731
    for cls in _sampler_classes(core_base.WindowSampler):
        if "append" in cls.__dict__:
            tracer.wrap(cls, "append", "core.apply", units=one)
        if "process_batch" in cls.__dict__:
            tracer.wrap(cls, "process_batch", "core.apply", units=_length_of(1))
        if "sample_candidates" in cls.__dict__:
            tracer.wrap(cls, "sample_candidates", "core.query")

    # repro.applications / repro.sketches
    tracer.wrap(applications.SlidingFrequencyMoment, "append", "applications.apply")
    tracer.wrap(applications.SlidingFrequencyMoment, "estimate", "applications.estimate")
    tracer.wrap(sketches.ExponentialHistogramCounter, "append", "sketches.count")
    tracer.wrap(sketches.ExponentialHistogramCounter, "estimate", "sketches.count")

    # repro.engine.pool / spec / engine / querycache
    tracer.wrap(SamplerSpec, "build", "pool.key_create")
    tracer.wrap(KeyedSamplerPool, "extend_grouped", "pool.apply")
    tracer.wrap(KeyedSamplerPool, "extend_batch", "pool.apply")
    tracer.wrap(ShardedEngine, "ingest", "engine.route", units=lambda args, result: result)
    tracer.wrap(ShardedEngine, "query_batch", "engine.query")
    tracer.count(QueryCache, "lookup", "querycache.lookup", hit=lambda result: bool(result[0]))

    # repro.engine.checkpoint: patched wherever callers look the names up.
    for module in (checkpoint, engine_pkg, serve):
        tracer.wrap(module, "write_checkpoint", "checkpoint.write")
    for module in (checkpoint, engine_pkg):
        tracer.wrap(module, "load_checkpoint", "checkpoint.restore")

    # repro.engine.source, as the serve daemon calls it.
    for module in (source, engine_pkg, serve):
        tracer.wrap(module, "ingest_jsonl", "source.parse", units=lambda args, result: result)

    # repro.engine.executor / transport / wal (coordinator side).
    tracer.wrap(ProcessEngine, "ingest", "executor.ingest_call", units=lambda args, result: result)
    tracer.wrap(ProcessEngine, "flush", "executor.flush_wait")
    tracer.wrap(ProcessEngine, "query_batch", "executor.query")
    tracer.wrap(executor, "encode_batch", "transport.encode", units=lambda args, result: len(result))
    tracer.wrap(WriteAheadLog, "append", "wal.append", units=lambda args, result: result)


# -- analysis ----------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Sum of self time (duration minus child-span time) per span name."""
    child_time: Dict[int, float] = {}
    for span_id, parent, _op, _name, start, end, _units in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _parent, _op, name, start, end, _units in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def span_stats(spans: List[Span], name: str, outermost: bool = False) -> Tuple[int, float, int]:
    """``(calls, inclusive seconds, units)`` of the spans named ``name``.

    With ``outermost`` only spans whose parent has another name count, so a
    layer that re-enters itself (``process_batch`` falling back to
    ``append``) is not counted twice.
    """
    names = {span[0]: span[3] for span in spans}
    calls = 0
    seconds = 0.0
    units = 0
    for span_id, parent, _op, span_name, start, end, count in spans:
        if span_name != name or (outermost and names.get(parent) == name):
            continue
        calls += 1
        seconds += end - start
        units += count
    return calls, seconds, units


def adopt(
    children: List[Span], parents: List[Span], offset: int, window: Tuple[float, float]
) -> Tuple[List[Span], int]:
    """Re-parent another process's top-level spans under the spans that
    enclose them in time (both processes read the same monotonic clock).

    Returns the adopted spans (ids shifted by ``offset`` so they cannot
    collide) and how many top-level spans inside ``window`` fell outside
    every parent.  Unadopted spans are dropped with their subtrees; those
    outside ``window`` (start-up, post-run checks, shutdown) are expected.
    """
    windows = sorted((start, end, span_id, op) for span_id, _p, op, _n, start, end, _u in parents)
    starts = [window[0] for window in windows]
    home: Dict[int, Tuple[int, int]] = {}
    dropped_roots = set()
    stray = 0
    for span_id, parent, _op, _name, start, end, _units in children:
        if parent:
            continue
        index = bisect.bisect_right(starts, start) - 1
        if index >= 0 and windows[index][1] >= end:
            home[span_id] = (windows[index][2], windows[index][3])
        else:
            dropped_roots.add(span_id)
            if start >= window[0] and end <= window[1]:
                stray += 1
    root_of: Dict[int, int] = {}
    by_id = {span[0]: span for span in children}

    def root(span_id: int) -> int:
        seen = []
        while True:
            if span_id in root_of:
                found = root_of[span_id]
                break
            parent = by_id[span_id][1]
            seen.append(span_id)
            if not parent or parent not in by_id:
                found = span_id
                break
            span_id = parent
        for item in seen:
            root_of[item] = found
        return found

    adopted: List[Span] = []
    for span_id, parent, _op, name, start, end, units in children:
        top = root(span_id)
        if top in dropped_roots or top not in home:
            continue
        new_parent, op = home[top] if not parent else (parent + offset, home[top][1])
        adopted.append((span_id + offset, new_parent, op, name, start, end, units))
    return adopted, stray
