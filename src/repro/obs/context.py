"""Run context and the near-zero-cost enablement seam.

All instrumentation in the solver stack goes through the module-level
helpers here (:func:`span`, :func:`event`, :func:`metrics`,
:func:`manifest_recorder`).  When observability is off — the default —
each helper is one environment read and a ``None`` return, so the hot
paths pay essentially nothing and the numerics are untouched either
way.

Activation, in precedence order:

1. an explicit context (``with obs.run() as ctx:``, or
   :func:`activate`) — used by the driver CLI and tests;
2. the ``REPRO_TRACE`` environment variable (default **off**): the
   first instrumented call under ``REPRO_TRACE=1`` lazily creates a
   process-wide context, which is how a whole test suite or an
   uncooperative script gets traced without code changes;
3. nothing — the shared :data:`~repro.obs.trace.NULL_SPAN` sink.

:func:`disabled` force-suppresses observability for a dynamic extent
even under ``REPRO_TRACE=1`` (the overhead smoke test's untraced arm).
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.manifest import ManifestRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, SpanHandle, Tracer

#: The master switch: tracing is off unless this is truthy.
ENV_TRACE = "REPRO_TRACE"

_TRUTHY = ("1", "true", "on", "yes")


def trace_env_enabled() -> bool:
    """The ``REPRO_TRACE`` switch (default off)."""
    return os.environ.get(ENV_TRACE, "").strip().lower() in _TRUTHY


class RunContext:
    """One observed run: a tracer, a metrics registry and a manifest."""

    def __init__(self, name: str = "run", run_id: Optional[str] = None,
                 max_spans: Optional[int] = None):
        self.name = name
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.tracer = (Tracer() if max_spans is None
                       else Tracer(max_spans=max_spans))
        self.metrics = MetricsRegistry()
        self.manifest = ManifestRecorder(run_id=self.run_id)
        # artifact paths flushed on crash (and reusable on clean exit):
        # see set_flush_paths() / flush()
        self.flush_trace: Optional[str] = None
        self.flush_metrics: Optional[str] = None
        self.flush_manifest: Optional[str] = None

    def build_manifest(self, **extra_config: Any) -> Dict[str, Any]:
        return self.manifest.build(**extra_config)

    def sync_self_metrics(self) -> None:
        """Refresh the observability layer's metrics about itself.

        The tracer's dropped-span counter (and sink-error count, when
        any) become gauges, so every exposition — ``/metrics`` scrape,
        ``--metrics-json`` artifact — states whether the trace it
        accompanies was truncated by ``max_spans``.
        """
        self.metrics.gauge(
            "obs_tracer_dropped_spans",
            "spans dropped by the bounded in-memory tracer",
        ).set(self.tracer.dropped)
        if self.tracer.sink_errors:
            self.metrics.gauge(
                "obs_tracer_sink_errors",
                "stream-sink write failures (spans lost to the stream)",
            ).set(self.tracer.sink_errors)

    def set_flush_paths(self, trace: Optional[str] = None,
                        metrics: Optional[str] = None,
                        manifest: Optional[str] = None) -> "RunContext":
        """Where :meth:`flush` writes each artifact (None = skip it)."""
        self.flush_trace = trace
        self.flush_metrics = metrics
        self.flush_manifest = manifest
        return self

    def flush(self, reason: Optional[str] = None) -> List[str]:
        """Write every configured artifact with whatever is recorded.

        Best-effort by design: this is the crash path — each artifact
        is attempted independently and a failing write never masks the
        exception that triggered the flush.  Returns the paths written.
        ``reason`` (e.g. ``"exception"``) is recorded in the manifest's
        config so a post-mortem knows the artifacts are partial.
        """
        from repro.obs import export

        written: List[str] = []
        self.sync_self_metrics()
        for path, write in (
            (self.flush_trace,
             lambda p: export.write_trace(p, self)),
            (self.flush_metrics,
             lambda p: export.write_metrics(p, self)),
            (self.flush_manifest,
             lambda p: export.write_manifest(
                 p, self.build_manifest(
                     **({"flush_reason": reason} if reason else {})))),
        ):
            if not path:
                continue
            try:
                written.append(write(path))
            except Exception:
                continue
        return written


# Explicit activations; a ``None`` entry means "forced off".  The env
# fallback context is created lazily and reused for the process.
_stack: List[Optional[RunContext]] = []
_env_context: Optional[RunContext] = None


def current() -> Optional[RunContext]:
    """The active context, or None when observability is off."""
    global _env_context
    if _stack:
        return _stack[-1]
    if trace_env_enabled():
        if _env_context is None:
            _env_context = RunContext(name="env")
        return _env_context
    return None


def enabled() -> bool:
    return current() is not None


def activate(ctx: RunContext) -> RunContext:
    _stack.append(ctx)
    return ctx


def deactivate(ctx: Optional[RunContext] = None) -> None:
    """Pop the innermost activation (which must be ``ctx`` when given)."""
    if not _stack:
        return
    if ctx is not None and _stack[-1] is not ctx:
        raise ValueError("deactivate() out of order")
    _stack.pop()


def reset() -> None:
    """Drop every activation and the lazy env context (test isolation)."""
    global _env_context
    _stack.clear()
    _env_context = None


@contextmanager
def run(name: str = "run", run_id: Optional[str] = None,
        max_spans: Optional[int] = None,
        flush_trace: Optional[str] = None,
        flush_metrics: Optional[str] = None,
        flush_manifest: Optional[str] = None) -> Iterator[RunContext]:
    """Activate a fresh context for the dynamic extent.

    With any ``flush_*`` path configured, an exception escaping the
    body triggers a best-effort :meth:`RunContext.flush` *before* the
    exception propagates — a crashing solve still leaves validating
    trace/metrics/manifest artifacts holding everything recorded up to
    the failure (every span already closed by the unwinding ``with``
    blocks is in them).
    """
    ctx = RunContext(name=name, run_id=run_id, max_spans=max_spans)
    ctx.set_flush_paths(trace=flush_trace, metrics=flush_metrics,
                        manifest=flush_manifest)
    activate(ctx)
    try:
        yield ctx
    except BaseException:
        ctx.flush(reason="exception")
        raise
    finally:
        deactivate(ctx)


@contextmanager
def disabled() -> Iterator[None]:
    """Force observability off for the dynamic extent."""
    _stack.append(None)
    try:
        yield
    finally:
        _stack.pop()


# --- the instrumentation helpers (the only API hot paths touch) -------------

def span(name: str, category: str = "",
         args: Optional[Dict[str, Any]] = None):
    """A span context manager — the shared null sink when disabled.

    The enabled form yields a :class:`~repro.obs.trace.SpanHandle`;
    the disabled form yields ``None``, so call sites can gate
    attribute work with ``if sp is not None``.
    """
    ctx = current()
    if ctx is None:
        return NULL_SPAN
    return ctx.tracer.span(name, category, args)


def event(name: str, category: str = "",
          args: Optional[Dict[str, Any]] = None) -> None:
    """Record an instant event (no-op when disabled)."""
    ctx = current()
    if ctx is not None:
        ctx.tracer.event(name, category, args)


def metrics() -> Optional[MetricsRegistry]:
    """The active metrics registry, or None when disabled."""
    ctx = current()
    return ctx.metrics if ctx is not None else None


def manifest_recorder() -> Optional[ManifestRecorder]:
    """The active manifest recorder, or None when disabled."""
    ctx = current()
    return ctx.manifest if ctx is not None else None


def record_selection(**fields: Any) -> None:
    """Record a substrate-selection decision on the active manifest
    (and as a trace event) — called by the substrate registry."""
    ctx = current()
    if ctx is None:
        return
    ctx.manifest.record_decision(**fields)
    ctx.tracer.event("substrate_selection", category="substrate",
                     args=fields)
