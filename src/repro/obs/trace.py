"""Structured spans: the tracing half of :mod:`repro.obs`.

A :class:`Tracer` records nestable, thread-safe spans.  Each span
carries *two* clocks:

* **wall-clock** seconds, measured with ``time.perf_counter`` around
  the ``with`` body — what a native run reports; and
* **modelled** seconds, accumulated via :meth:`SpanHandle.tick` — what
  the BSP-priced simulated runs report.

Both fields are always present, so a simulated 64-node run and a
native run emit the *same trace shape*: the consumer decides which
clock to read.  Export formats:

* :meth:`Tracer.as_dicts` — plain JSON-able span list (machine use);
* :meth:`Tracer.chrome_trace` — Chrome/Perfetto ``trace_event``
  format (open ``chrome://tracing`` or https://ui.perfetto.dev and
  drop the file in).  Wall-clock microseconds drive ``ts``/``dur``;
  the modelled clock and every span attribute ride in ``args``.

Recording is bounded: past ``max_spans`` new spans are counted as
dropped instead of stored, so a long test suite under ``REPRO_TRACE=1``
cannot grow without bound.  The tracer itself never touches the
numerics — spans observe, they do not participate.

Two live consumers can watch the tracer while it records:

* **sinks** (:meth:`Tracer.add_sink`) receive every *finished*
  :class:`SpanRecord` — including spans the bounded store dropped — so
  a streaming writer (:mod:`repro.obs.stream`) can persist a trace
  incrementally while the run is still going;
* the **active-stack table** (:meth:`Tracer.active_stack`) exposes each
  thread's currently-open span names as an immutable tuple, which is
  what the sampling profiler (:mod:`repro.obs.profiler`) reads from its
  own thread to attribute wall-clock samples to the innermost span.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Default bound on stored spans (drops are counted, not silent).
MAX_SPANS = 200_000


@dataclass
class SpanRecord:
    """One finished span."""

    id: int
    parent_id: Optional[int]
    name: str
    category: str
    thread: int
    start: float                 # seconds since the tracer's epoch
    wall_seconds: float
    modelled_seconds: float
    args: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "thread": self.thread,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "modelled_seconds": self.modelled_seconds,
            "args": dict(self.args),
        }


class SpanHandle:
    """The live side of a span: a context manager with attribute taps.

    ``set(**attrs)`` attaches key/value arguments; ``tick(seconds)``
    accumulates modelled (BSP-priced) time.  Both are valid only while
    the span is open.
    """

    __slots__ = ("_tracer", "name", "category", "_args", "_modelled",
                 "_t0", "_id", "_parent_id", "_closed")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self._args = dict(args) if args else {}
        self._modelled = 0.0
        self._t0 = 0.0
        self._id = -1
        self._parent_id: Optional[int] = None
        self._closed = False

    def set(self, **attrs: Any) -> "SpanHandle":
        self._args.update(attrs)
        return self

    def tick(self, seconds: float) -> "SpanHandle":
        """Add ``seconds`` of modelled (non-wall-clock) time."""
        if seconds < 0:
            raise ValueError(f"negative modelled tick: {seconds}")
        self._modelled += seconds
        return self

    def __enter__(self) -> "SpanHandle":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self)
        return False


class _NullSpan:
    """The disabled-path span: accepts everything, records nothing.

    A single shared instance is returned by :func:`repro.obs.span`
    whenever tracing is off, so the instrumented hot paths pay one
    global read and nothing else.
    """

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def tick(self, seconds: float) -> "_NullSpan":
        return self

    def __enter__(self) -> None:
        # yields None so call sites can gate attribute work on the
        # handle: ``with obs.span(...) as sp: ... if sp is not None``
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def null_scope(*args: Any) -> _NullSpan:
    """The span factory a hot path binds when tracing is off."""
    return NULL_SPAN


class Tracer:
    """Thread-safe span recorder with per-thread nesting."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self.dropped = 0
        self.sink_errors = 0
        self.epoch = time.perf_counter()
        self.epoch_unix = time.time()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._sinks: List[Any] = []
        # thread ident -> tuple of open span names (root first); tuples
        # are replaced wholesale so cross-thread reads need no lock
        self._active: Dict[int, tuple] = {}

    # --- recording -----------------------------------------------------------
    def _stack(self) -> List[SpanHandle]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, category: str = "",
             args: Optional[Dict[str, Any]] = None) -> SpanHandle:
        return SpanHandle(self, name, category, args)

    def _open(self, handle: SpanHandle) -> None:
        stack = self._stack()
        handle._parent_id = stack[-1]._id if stack else None
        handle._id = next(self._ids)
        stack.append(handle)
        self._active[threading.get_ident()] = tuple(h.name for h in stack)
        handle._t0 = time.perf_counter()

    def _close(self, handle: SpanHandle) -> None:
        t1 = time.perf_counter()
        if handle._closed:
            return
        handle._closed = True
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        else:  # out-of-order exit: drop down to (and including) handle
            while stack:
                top = stack.pop()
                if top is handle:
                    break
        tid = threading.get_ident()
        if stack:
            self._active[tid] = tuple(h.name for h in stack)
        else:
            self._active.pop(tid, None)
        record = SpanRecord(
            id=handle._id,
            parent_id=handle._parent_id,
            name=handle.name,
            category=handle.category,
            thread=tid,
            start=handle._t0 - self.epoch,
            wall_seconds=t1 - handle._t0,
            modelled_seconds=handle._modelled,
            args=handle._args,
        )
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
            else:
                self.spans.append(record)
        self._emit(record)

    def event(self, name: str, category: str = "",
              args: Optional[Dict[str, Any]] = None) -> None:
        """Record an instant (zero-duration) span."""
        now = time.perf_counter()
        record = SpanRecord(
            id=next(self._ids),
            parent_id=None,
            name=name,
            category=category,
            thread=threading.get_ident(),
            start=now - self.epoch,
            wall_seconds=0.0,
            modelled_seconds=0.0,
            args=dict(args) if args else {},
        )
        record.args.setdefault("instant", True)
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
            else:
                self.spans.append(record)
        self._emit(record)

    # --- live consumers ------------------------------------------------------
    def add_sink(self, sink: Any) -> Any:
        """Register a callable receiving every finished :class:`SpanRecord`.

        Sinks see spans the bounded store dropped too (that is the
        point: a streaming sink is not limited by ``max_spans``).  A
        sink raising :class:`OSError` is counted in ``sink_errors`` and
        never propagates into the instrumented code.
        """
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def _emit(self, record: SpanRecord) -> None:
        for sink in self._sinks:
            try:
                sink(record)
            except OSError:
                self.sink_errors += 1

    def active_stack(self, thread: int) -> tuple:
        """The open span names of ``thread`` (root first), or ``()``.

        Safe to call from any thread: the table maps thread idents to
        immutable tuples that are swapped atomically on open/close.
        """
        return self._active.get(thread, ())

    def active_threads(self) -> List[int]:
        """Thread idents that currently have at least one open span."""
        return list(self._active)

    # --- queries -------------------------------------------------------------
    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> List[SpanRecord]:
        with self._lock:
            return [
                s for s in self.spans
                if (name is None or s.name == name)
                and (category is None or s.category == category)
            ]

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        with self._lock:
            return [s for s in self.spans if s.parent_id == span.id]

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.dropped = 0

    # --- export --------------------------------------------------------------
    def as_dicts(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [s.as_dict() for s in self.spans]

    def chrome_trace(self, run_id: str = "") -> Dict[str, Any]:
        """The trace in Chrome/Perfetto ``trace_event`` JSON format.

        Spans become complete ("X") events, instants become "i"
        events; ``ts``/``dur`` are wall-clock microseconds since the
        tracer epoch, and each event's ``args`` carries the modelled
        seconds next to the span attributes.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"repro run {run_id}" if run_id else "repro"},
        }]
        with self._lock:
            spans = list(self.spans)
        tids: Dict[int, int] = {}
        for s in spans:
            tid = tids.setdefault(s.thread, len(tids))
            args = dict(s.args)
            args["modelled_seconds"] = s.modelled_seconds
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            event = {
                "name": s.name,
                "cat": s.category or "repro",
                "pid": pid,
                "tid": tid,
                "ts": s.start * 1e6,
                "args": args,
            }
            if args.pop("instant", None):
                event["ph"] = "i"
                event["s"] = "t"
            else:
                event["ph"] = "X"
                event["dur"] = s.wall_seconds * 1e6
            events.append(event)
        for thread, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"thread-{thread}"},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "run_id": run_id,
                "epoch_unix": self.epoch_unix,
                "dropped_spans": self.dropped,
            },
        }
