"""Live telemetry runtime: the transport the metrics layer was missing.

PR 6 rendered hardened Prometheus text and PR 7 hardened it further —
but only into files, after the run.  This module serves the same
registry *while the run is executing*: :class:`LiveServer` is a
zero-dependency stdlib ``ThreadingHTTPServer`` on a daemon thread
exposing

========== =================================================== =========
endpoint   payload                                             content
========== =================================================== =========
/metrics   Prometheus text exposition of the live registry     text 0.0.4
/healthz   liveness: run id, uptime, span/drop counts          JSON
/manifest  the run-provenance manifest, built fresh            JSON
/progress  live solve progress: CG iteration/residual,         JSON
           MG level visits, dist supersteps
========== =================================================== =========

started in-process by the driver (``--serve-metrics PORT``) or
standalone over finished artifacts (``python -m repro.obs serve``).

Everything here observes and exports; nothing touches the numerics.
The server records its own behaviour into the registry it serves
(``obs_http_requests_total``, ``obs_scrape_seconds``) so the telemetry
pipeline is itself observable.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.util.errors import InvalidValue

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default bind host — loopback; live telemetry is diagnostic, not public.
DEFAULT_HOST = "127.0.0.1"


# ---------------------------------------------------------------------------
# progress: the /progress document, read out of the metrics registry
# ---------------------------------------------------------------------------

def _gauge_value(registry: MetricsRegistry, name: str) -> Optional[float]:
    metric = registry.get(name)
    if isinstance(metric, Gauge):
        return metric.value()
    return None


def _counter_samples(registry: MetricsRegistry,
                     name: str) -> Dict[str, float]:
    """Label-set -> value for a labelled counter (compact string keys)."""
    metric = registry.get(name)
    if not isinstance(metric, Counter):
        return {}
    out: Dict[str, float] = {}
    for labels in metric.labels():
        key = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or ""
        out[key] = metric.value(**labels)
    return out


def progress_snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """The live solve-progress document behind ``/progress``.

    Reads only gauges and counters the instrumented layers keep
    current: the CG loop's iteration/residual gauges, the per-MG-level
    visit counters, and the dist engine's superstep/progress gauges.
    Sections whose producers never ran are ``None``/empty — a serial
    solve has no ``dist`` numbers and vice versa.
    """
    iters = registry.get("cg_iterations_total")
    supersteps = registry.get("dist_supersteps_total")
    return {
        "updated_unix": time.time(),
        "cg": {
            "iteration": _gauge_value(registry, "cg_iteration"),
            "residual": _gauge_value(registry, "cg_residual_last"),
            "iterations_total": (iters.value() if isinstance(iters, Counter)
                                 else None),
        },
        "mg": {
            "level_visits": _counter_samples(registry,
                                             "mg_level_visits_total"),
        },
        "dist": {
            "iteration": _gauge_value(registry, "dist_cg_iteration"),
            "residual": _gauge_value(registry, "dist_cg_residual_last"),
            "supersteps": (supersteps.value()
                           if isinstance(supersteps, Counter) else None),
        },
    }


# ---------------------------------------------------------------------------
# telemetry sources: what the server reads on each request
# ---------------------------------------------------------------------------

class TelemetrySource:
    """The server's read side: four callables, one per endpoint.

    ``registry`` (optional) is where the server accounts for its own
    requests; :func:`context_source` points it at the live run's
    registry so self-observability shows up in ``/metrics`` itself.
    """

    def __init__(self,
                 metrics_text: Callable[[], str],
                 manifest: Callable[[], Dict[str, Any]],
                 progress: Callable[[], Dict[str, Any]],
                 health: Callable[[], Dict[str, Any]],
                 registry: Optional[MetricsRegistry] = None):
        self.metrics_text = metrics_text
        self.manifest = manifest
        self.progress = progress
        self.health = health
        self.registry = registry


def context_source(ctx) -> TelemetrySource:
    """A source reading a live :class:`~repro.obs.context.RunContext`."""
    started = time.time()

    def metrics_text() -> str:
        ctx.sync_self_metrics()
        return ctx.metrics.to_prometheus()

    def health() -> Dict[str, Any]:
        return {
            "status": "ok",
            "run_id": ctx.run_id,
            "name": ctx.name,
            "uptime_seconds": time.time() - started,
            "spans": len(ctx.tracer.spans),
            "dropped_spans": ctx.tracer.dropped,
            "metrics": len(ctx.metrics.names()),
        }

    return TelemetrySource(
        metrics_text=metrics_text,
        manifest=ctx.build_manifest,
        progress=lambda: progress_snapshot(ctx.metrics),
        health=health,
        registry=ctx.metrics,
    )


def file_source(metrics: Optional[str] = None,
                manifest: Optional[str] = None) -> TelemetrySource:
    """A source re-reading finished artifacts on every request.

    Backs ``python -m repro.obs serve``: point a Prometheus scraper at
    a run's ``--metrics-json`` artifact (and ``/manifest`` at its
    manifest) without keeping the producing process alive.  Files are
    re-read per request, so overwriting the artifact updates the
    endpoints without a restart.
    """
    started = time.time()

    def load_registry() -> MetricsRegistry:
        if metrics is None:
            return MetricsRegistry()
        with open(metrics, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return MetricsRegistry.from_snapshot(payload.get("metrics", payload))

    def manifest_doc() -> Dict[str, Any]:
        if manifest is None:
            raise InvalidValue("no manifest file behind this server")
        with open(manifest, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def health() -> Dict[str, Any]:
        return {
            "status": "ok",
            "mode": "files",
            "metrics_file": metrics,
            "manifest_file": manifest,
            "uptime_seconds": time.time() - started,
        }

    return TelemetrySource(
        metrics_text=lambda: load_registry().to_prometheus(),
        manifest=manifest_doc,
        progress=lambda: progress_snapshot(load_registry()),
        health=health,
    )


# ---------------------------------------------------------------------------
# the HTTP server
# ---------------------------------------------------------------------------

class _TelemetryHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs-live/1"

    def do_GET(self) -> None:             # noqa: N802 (stdlib API name)
        source: TelemetrySource = self.server.source   # type: ignore
        path = urllib.parse.urlparse(self.path).path.rstrip("/") or "/"
        t0 = time.perf_counter()
        status = 200
        try:
            if path == "/metrics":
                body = source.metrics_text().encode("utf-8")
                ctype = PROMETHEUS_CONTENT_TYPE
            elif path == "/healthz":
                body = _json_body(source.health())
                ctype = "application/json"
            elif path == "/manifest":
                body = _json_body(source.manifest())
                ctype = "application/json"
            elif path == "/progress":
                body = _json_body(source.progress())
                ctype = "application/json"
            else:
                status = 404
                body = _json_body({"error": f"unknown endpoint {path!r}",
                                   "endpoints": ["/metrics", "/healthz",
                                                 "/manifest", "/progress"]})
                ctype = "application/json"
        except Exception as exc:           # a broken provider is a 500, not a crash
            status = 500
            body = _json_body({"error": str(exc)})
            ctype = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass
        if source.registry is not None:
            source.registry.counter(
                "obs_http_requests_total",
                "live-telemetry HTTP requests served",
            ).inc(endpoint=path, status=str(status))
            source.registry.histogram(
                "obs_scrape_seconds",
                "seconds spent rendering a live-telemetry response",
            ).observe(time.perf_counter() - t0, endpoint=path)

    def log_message(self, format: str, *args: Any) -> None:
        pass                               # diagnostics server: no stderr chatter


def _json_body(doc: Dict[str, Any]) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, default=str)
            + "\n").encode("utf-8")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class LiveServer:
    """The live telemetry endpoint: bind, serve on a daemon thread, stop.

    ``port=0`` binds an ephemeral port; read the resolved one from
    ``.port`` (or ``.url``).  Usable as a context manager.
    """

    def __init__(self, source: TelemetrySource,
                 host: str = DEFAULT_HOST, port: int = 0):
        self.source = source
        self._httpd = _Server((host, port), _TelemetryHandler)
        self._httpd.source = source        # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveServer":
        if self._thread is not None:
            raise InvalidValue("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-live", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        # shutdown() waits, unbounded, on an event only serve_forever
        # sets; a dead serving thread has nothing left to shut down
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "LiveServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

