"""repro.obs — unified tracing, metrics and run provenance.

The paper's claims are attribution claims: where time goes across CG,
multigrid levels, halo exchange and kernel formats.  This package is
the one layer every piece of that evidence flows through:

* **structured spans** (:mod:`repro.obs.trace`) — nestable,
  thread-safe, near-zero-cost when disabled, carrying *both*
  wall-clock and modelled BSP time, exported as Chrome/Perfetto
  ``trace_event`` JSON;
* a **metrics registry** (:mod:`repro.obs.metrics`) — labelled
  counters/gauges/histograms/series with JSON snapshots and Prometheus
  text exposition;
* a **run manifest** (:mod:`repro.obs.manifest`) — every ``REPRO_*``
  toggle, the resolved switch states, per-matrix substrate-selection
  decisions *with reasons*, seeds and versions, in one reproducibility
  document.

Tracing is **off by default**; enable it with ``REPRO_TRACE=1`` (any
instrumented call then lazily creates a process-wide context) or
explicitly::

    import repro.obs as obs

    with obs.run(name="solve") as ctx:
        result = run_hpcg(nx=16, max_iters=50)
    obs.export.write_trace("trace.json", ctx)
    obs.export.write_metrics("metrics.json", ctx)
    obs.export.write_manifest("manifest.json", ctx.build_manifest())

Instrumented seams: the HPCG driver (phases), the CG loop (per
iteration + residual series), multigrid (per level), smoothers (per
sweep, fused or reference), the simulated dist engine (per superstep,
with exposed-vs-hidden comm), the substrate registry (selection
decisions), MatrixMarket I/O and the dist partitioners.  Spans observe
— they never change the numerics, and residual histories are
byte-identical traced or untraced.

The **live side** (:mod:`repro.obs.live`, :mod:`repro.obs.stream`,
:mod:`repro.obs.profiler`) observes runs *while they execute*: a
zero-dependency HTTP endpoint serving ``/metrics`` (Prometheus text),
``/healthz``, ``/manifest`` and ``/progress``; a streaming
JSONL trace sink whose partial output survives a killed run; and a
sampling wall-clock profiler that attributes stacks to the innermost
active span and emits ``obs flame``-compatible folded output.

The **consumer side** (``python -m repro.obs diff|flame|top|
diff-manifest``) turns those artifacts into answers:
:mod:`repro.obs.analyze` diffs two traces per span name / MG level /
category with noise thresholds and execution-vs-model attribution,
:mod:`repro.obs.flame` collapses span stacks into folded flamegraph
format (either clock), and :mod:`repro.obs.manifest_diff` explains
"why is this run different" from two manifests.
"""

import importlib

from repro.obs import (
    analyze,
    export,
    flame,
    manifest,
    manifest_diff,
    metrics,
    profiler,
    stream,
    trace,
)
from repro.obs.analyze import SpanStats, TraceDiff, diff_traces
from repro.obs.flame import folded_stacks, parse_folded
from repro.obs.manifest_diff import diff_manifests
from repro.obs.profiler import SamplingProfiler
from repro.obs.stream import StreamingSink, load_stream_spans, read_stream
from repro.obs.context import (
    ENV_TRACE,
    RunContext,
    activate,
    current,
    deactivate,
    disabled,
    enabled,
    event,
    manifest_recorder,
    metrics as metrics_registry,
    record_selection,
    reset,
    run,
    span,
    trace_env_enabled,
)
from repro.obs.manifest import ManifestRecorder, build_manifest, validate_manifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.obs.trace import (NULL_SPAN, SpanHandle, SpanRecord, Tracer,
                             null_scope)

#: served by :func:`__getattr__`: :mod:`repro.obs.live` loads
#: ``http.server`` (with ``http.client`` and ``ssl``, ~2 MB RSS),
#: which a process that never serves telemetry need not map
_LIVE = ("LiveServer", "context_source", "file_source", "progress_snapshot")


def __getattr__(name: str):
    """PEP 562: import :mod:`repro.obs.live` at its first use."""
    if name == "live" or name in _LIVE:
        live = importlib.import_module("repro.obs.live")
        return live if name == "live" else getattr(live, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENV_TRACE",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveServer",
    "ManifestRecorder",
    "MetricsRegistry",
    "RunContext",
    "SamplingProfiler",
    "Series",
    "SpanHandle",
    "SpanRecord",
    "SpanStats",
    "StreamingSink",
    "TraceDiff",
    "Tracer",
    "activate",
    "analyze",
    "build_manifest",
    "context_source",
    "current",
    "deactivate",
    "diff_manifests",
    "diff_traces",
    "disabled",
    "enabled",
    "event",
    "export",
    "file_source",
    "flame",
    "folded_stacks",
    "live",
    "load_stream_spans",
    "manifest",
    "manifest_diff",
    "manifest_recorder",
    "metrics",
    "metrics_registry",
    "null_scope",
    "parse_folded",
    "profiler",
    "progress_snapshot",
    "read_stream",
    "record_selection",
    "reset",
    "run",
    "span",
    "stream",
    "trace",
    "trace_env_enabled",
    "validate_manifest",
]
