"""repro.obs live telemetry: streaming trace sink, HTTP endpoint,
sampling profiler — and the crash-safety + zero-numeric-impact
guarantees the live runtime must keep."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.hpcg.driver import main as driver_main, run_hpcg
from repro.obs import flame, live, stream
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler
from repro.obs.stream import StreamingSink
from repro.obs.trace import Tracer
from repro.util.errors import InvalidValue


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Each test starts and ends with no active context (so a suite-wide
    ``REPRO_TRACE=1`` env context cannot leak state between tests)."""
    obs.reset()
    yield
    obs.reset()


def _get(url: str, timeout: float = 5.0):
    """GET ``url``; returns (status, content-type, body text)."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8")


# ---------------------------------------------------------------------------
# streaming trace sink
# ---------------------------------------------------------------------------

class TestStreamingSink:
    def test_header_spans_footer_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        with StreamingSink(str(path), run_id="abc123", tracer=tracer):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        header, spans, footer = stream.read_stream(str(path))
        assert header["kind"] == stream.STREAM_KIND
        assert header["schema_version"] == stream.STREAM_SCHEMA_VERSION
        assert header["run_id"] == "abc123"
        # completion order, children before parents — same as in memory
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert footer is not None
        assert footer["spans"] == 2 and footer["dropped"] == 0

    def test_spans_land_on_disk_before_close(self, tmp_path):
        """The crash-safety property: a top-level span's close flushes,
        so the file holds it while the sink (and run) are still live."""
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        sink = StreamingSink(str(path), tracer=tracer)
        try:
            with tracer.span("phase1"):
                pass
            _, spans, footer = stream.read_stream(str(path))
            assert [s["name"] for s in spans] == ["phase1"]
            assert footer is None      # still open: no end marker yet
        finally:
            sink.close()

    def test_flush_every_inside_enclosing_span(self, tmp_path):
        """Inner spans flush every ``flush_every`` even while their
        enclosing top-level span stays open (a long solve's shape)."""
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        sink = StreamingSink(str(path), tracer=tracer, flush_every=3)
        try:
            with tracer.span("solve"):
                for i in range(7):
                    with tracer.span(f"iter{i}"):
                        pass
                _, spans, _ = stream.read_stream(str(path))
                # 7 written, flushes after 3 and 6; the 7th may sit in
                # the userspace buffer
                assert len(spans) >= 6
        finally:
            sink.close()

    def test_torn_tail_tolerated_midfile_corruption_not(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        with StreamingSink(str(path), tracer=tracer):
            for name in ("a", "b", "c"):
                with tracer.span(name):
                    pass
        text = path.read_text()
        # a hard kill tears the final line: reader shrugs it off
        torn = text[:-25]
        header, spans, footer = stream.parse_stream_text(torn)
        assert footer is None
        assert len(spans) >= 2
        warnings = stream.validate_stream_text(torn)
        assert any("partial trace" in w for w in warnings)
        # a mangled line anywhere else is corruption, not crash damage
        lines = text.splitlines()
        lines[1] = lines[1][:10]
        with pytest.raises(InvalidValue):
            stream.parse_stream_text("\n".join(lines))

    def test_footer_span_count_mismatch_is_corruption(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        with StreamingSink(str(path), tracer=tracer):
            with tracer.span("x"):
                pass
        doctored = path.read_text().replace('"spans": 1', '"spans": 9')
        with pytest.raises(InvalidValue):
            stream.validate_stream_text(doctored)

    def test_dropped_spans_still_streamed(self, tmp_path):
        """The stream is the unbounded record: spans the bounded
        in-memory store drops past max_spans still reach the file."""
        path = tmp_path / "stream.jsonl"
        tracer = Tracer(max_spans=2)
        with StreamingSink(str(path), tracer=tracer):
            for i in range(5):
                with tracer.span(f"s{i}"):
                    pass
        assert len(tracer.spans) == 2 and tracer.dropped == 3
        _, spans, footer = stream.read_stream(str(path))
        assert len(spans) == 5
        assert footer["dropped"] == 3
        warnings = stream.validate_stream_text(path.read_text())
        assert any("max_spans" in w for w in warnings)

    def test_close_idempotent_and_detaches(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        sink = StreamingSink(str(path), tracer=tracer)
        sink.close()
        sink.close()
        with tracer.span("after"):      # closed sink: no write, no error
            pass
        _, spans, footer = stream.read_stream(str(path))
        assert spans == [] and footer["spans"] == 0
        assert tracer.sink_errors == 0

    def test_sink_exceptions_counted_not_raised(self):
        def bad_sink(record):
            raise OSError("disk full")

        tracer = Tracer()
        tracer.add_sink(bad_sink)
        with tracer.span("survives"):
            pass
        assert [s.name for s in tracer.spans] == ["survives"]
        assert tracer.sink_errors == 1

    def test_consumers_accept_stream_files(self, tmp_path):
        """load_spans / folded_stacks / validate work on JSONL streams,
        so obs diff/flame/top need no new code paths."""
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        sink = StreamingSink(str(path), tracer=tracer)
        with tracer.span("root"):
            with tracer.span("leaf"):
                time.sleep(0.002)
        # leave the sink open: the partial (footer-less) file must work
        spans = obs.analyze.load_spans(str(path))
        assert {s["name"] for s in spans} == {"root", "leaf"}
        stacks = flame.folded_stacks(spans)
        assert any(key.startswith("root;leaf") for key in stacks)
        kind, warnings = obs.export.validate_file_report(str(path))
        assert kind == "trace-stream"
        assert any("partial trace" in w for w in warnings)
        sink.close()

    def test_validate_cli_warns_on_partial_stream(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        sink = StreamingSink(str(path), tracer=tracer)
        with tracer.span("x"):
            pass
        assert obs_main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok: trace-stream" in out
        assert "partial trace" in out
        sink.close()

    def test_validate_cli_warns_on_truncated_trace(self, tmp_path, capsys):
        """Satellite: max_spans truncation surfaces as a warning on the
        one-shot trace artifact too — visible, never fatal."""
        with obs.run(max_spans=2) as ctx:
            for i in range(4):
                with obs.span(f"s{i}"):
                    pass
        trace = tmp_path / "trace.json"
        obs.export.write_trace(str(trace), ctx)
        assert obs_main(["validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "truncated by max_spans" in out


# ---------------------------------------------------------------------------
# crash-safe artifact flush
# ---------------------------------------------------------------------------

class TestCrashFlush:
    def test_run_flushes_artifacts_on_exception(self, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        manifest = tmp_path / "manifest.json"
        with pytest.raises(RuntimeError, match="boom"):
            with obs.run(flush_trace=str(trace),
                         flush_metrics=str(metrics),
                         flush_manifest=str(manifest)) as ctx:
                ctx.metrics.counter("work_total", "work").inc(3)
                with obs.span("phase/one"):
                    pass
                with obs.span("phase/two"):
                    raise RuntimeError("boom")
        # everything recorded up to the failure is on disk and valid
        assert obs.export.validate_file(str(trace)) == "trace"
        assert obs.export.validate_file(str(metrics)) == "metrics"
        assert obs.export.validate_file(str(manifest)) == "manifest"
        doc = json.loads(trace.read_text())
        names = {s["name"] for s in doc["otherData"]["spans"]}
        # phase/two closed during unwinding, so it is in the flush too
        assert names == {"phase/one", "phase/two"}
        mdoc = json.loads(manifest.read_text())
        assert mdoc["config"]["flush_reason"] == "exception"

    def test_no_flush_on_clean_exit(self, tmp_path):
        trace = tmp_path / "trace.json"
        with obs.run(flush_trace=str(trace)):
            with obs.span("fine"):
                pass
        # clean exits write artifacts explicitly (driver does); the
        # crash path must not double-write behind the caller's back
        assert not trace.exists()

    def test_flush_never_masks_the_exception(self, tmp_path):
        # an unwritable flush path: the original error still propagates
        with pytest.raises(RuntimeError, match="original"):
            with obs.run(flush_trace=str(tmp_path / "no" / "dir" / "t.json")):
                raise RuntimeError("original")

    def test_driver_crash_leaves_valid_artifacts(self, tmp_path,
                                                 monkeypatch):
        """Satellite (a) end to end: a solve that raises mid-run still
        leaves validating artifacts holding the pre-crash record."""
        import repro.hpcg.driver as driver_mod

        def exploding_pcg(*a, **k):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(driver_mod, "pcg", exploding_pcg)
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        manifest = tmp_path / "manifest.json"
        stream_path = tmp_path / "stream.jsonl"
        with pytest.raises(RuntimeError, match="solver exploded"):
            driver_main([
                "--nx", "8", "--iters", "3", "--mg-levels", "2",
                "--trace-json", str(trace),
                "--metrics-json", str(metrics),
                "--manifest-json", str(manifest),
                "--trace-stream", str(stream_path),
            ])
        for path, kind in ((trace, "trace"), (metrics, "metrics"),
                           (manifest, "manifest")):
            assert obs.export.validate_file(str(path), kind) == kind
        doc = json.loads(trace.read_text())
        names = {s["name"] for s in doc["otherData"]["spans"]}
        assert "hpcg/setup" in names and "hpcg/validate" in names
        # the ExitStack closed the sink during unwinding: clean footer
        _, spans, footer = stream.read_stream(str(stream_path))
        assert footer is not None
        assert {"hpcg/setup", "hpcg/validate"} <= {s["name"] for s in spans}


# ---------------------------------------------------------------------------
# the live HTTP endpoint
# ---------------------------------------------------------------------------

class TestLiveServer:
    def test_endpoints_over_a_real_run(self):
        with obs.run(name="live-test") as ctx:
            run_hpcg(8, max_iters=4, mg_levels=2, validate_symmetry=False)
            with live.LiveServer(live.context_source(ctx)) as server:
                assert server.port > 0        # ephemeral bind resolved

                status, ctype, body = _get(f"{server.url}/metrics")
                assert status == 200
                assert ctype == live.PROMETHEUS_CONTENT_TYPE
                assert "# TYPE cg_iteration gauge" in body
                assert "cg_iteration 4" in body
                assert "mg_level_visits_total" in body
                assert "obs_tracer_dropped_spans 0" in body

                status, ctype, body = _get(f"{server.url}/healthz")
                health = json.loads(body)
                assert (status, health["status"]) == (200, "ok")
                assert health["run_id"] == ctx.run_id
                assert health["spans"] > 0

                _, _, body = _get(f"{server.url}/manifest")
                obs.validate_manifest(json.loads(body))

                _, _, body = _get(f"{server.url}/progress")
                progress = json.loads(body)
                assert progress["cg"]["iteration"] == 4.0
                assert progress["cg"]["residual"] > 0
                assert progress["cg"]["iterations_total"] == 4.0
                assert progress["mg"]["level_visits"]["level=0"] > 0
                assert progress["dist"]["iteration"] is None

                # self-observability: the scrapes above are themselves
                # in the registry the next scrape serves
                _, _, body = _get(f"{server.url}/metrics")
                assert "obs_http_requests_total" in body
                assert 'endpoint="/metrics"' in body
                assert "obs_scrape_seconds" in body

    def test_unknown_endpoint_404_lists_routes(self):
        with obs.run() as ctx:
            with live.LiveServer(live.context_source(ctx)) as server:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(f"{server.url}/nope")
                assert err.value.code == 404
                doc = json.loads(err.value.read().decode("utf-8"))
                assert "/metrics" in doc["endpoints"]

    def test_broken_provider_is_500_not_crash(self):
        source = live.TelemetrySource(
            metrics_text=lambda: "ok 1\n",
            manifest=lambda: (_ for _ in ()).throw(ValueError("no doc")),
            progress=lambda: {},
            health=lambda: {"status": "ok"},
        )
        with live.LiveServer(source) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/manifest")
            assert err.value.code == 500
            # and the server keeps serving afterwards
            status, _, _ = _get(f"{server.url}/healthz")
            assert status == 200

    def test_stop_closes_the_socket(self):
        with obs.run() as ctx:
            server = live.LiveServer(live.context_source(ctx))
            server.start()
            url = server.url
            _get(f"{url}/healthz")
            server.stop()
            with pytest.raises(urllib.error.URLError):
                _get(f"{url}/healthz", timeout=1.0)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_stop_returns_when_the_serving_thread_died(self, monkeypatch):
        """``socketserver.shutdown()`` waits without a timeout on an
        event only ``serve_forever`` sets: with that thread dead,
        ``stop()`` must skip it, return and still release the port."""
        import socket
        import threading

        def die():
            raise OSError("no selector")

        server = live.LiveServer(live.TelemetrySource(
            metrics_text=lambda: "", manifest=dict, progress=dict,
            health=dict))
        monkeypatch.setattr(server._httpd, "serve_forever", die)
        server.start()
        server._thread.join(timeout=5.0)
        assert not server._thread.is_alive()
        stopper = threading.Thread(target=server.stop, daemon=True)
        began = time.monotonic()
        stopper.start()
        stopper.join(timeout=6.0)
        assert not stopper.is_alive(), "stop() still blocked after 6 s"
        assert time.monotonic() - began < 6.0
        with socket.socket() as probe:      # no SO_REUSEADDR: really free
            probe.bind((server.host, server.port))

    def test_file_source_serves_finished_artifacts(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        with obs.run() as ctx:
            ctx.metrics.gauge("cg_iteration", "it").set(7)
            obs.export.write_metrics(str(metrics_path), ctx)
        source = live.file_source(metrics=str(metrics_path))
        with live.LiveServer(source) as server:
            _, ctype, body = _get(f"{server.url}/metrics")
            assert ctype == live.PROMETHEUS_CONTENT_TYPE
            assert "# TYPE cg_iteration gauge" in body
            _, _, body = _get(f"{server.url}/progress")
            assert json.loads(body)["cg"]["iteration"] == 7.0
            _, _, body = _get(f"{server.url}/healthz")
            assert json.loads(body)["mode"] == "files"
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/manifest")   # no manifest file given
            assert err.value.code == 500

    def test_progress_snapshot_empty_registry(self):
        snap = live.progress_snapshot(MetricsRegistry())
        assert snap["cg"]["iteration"] is None
        assert snap["mg"]["level_visits"] == {}
        assert snap["dist"]["supersteps"] is None


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------

def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1


class TestSamplingProfiler:
    def test_samples_attributed_to_active_span(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with SamplingProfiler(hz=250, tracer=tracer,
                              registry=registry) as prof:
            with tracer.span("hot/loop"):
                _busy_wait(0.25)
        assert prof.ticks > 0
        assert prof.sample_count > 0
        folded = prof.folded_stacks()
        hot = [k for k in folded if k.startswith("hot/loop;")]
        assert hot, f"no span-attributed stacks in {list(folded)[:5]}"
        # python frames sit below the span prefix
        assert any("test_obs_live.py:_busy_wait" in k for k in hot)
        assert registry.counter("obs_profiler_ticks_total", "").value() > 0
        assert registry.counter("obs_profiler_samples_total", "").value() > 0

    def test_spanless_threads_skipped_with_tracer(self):
        tracer = Tracer()
        with SamplingProfiler(hz=200, tracer=tracer) as prof:
            _busy_wait(0.1)          # no span open anywhere
        assert prof.sample_count == 0
        assert prof.folded_stacks() == {}

    def test_all_threads_mode_samples_without_spans(self):
        with SamplingProfiler(hz=200) as prof:   # no tracer: sample all
            _busy_wait(0.1)
        assert prof.sample_count > 0
        assert any("_busy_wait" in k for k in prof.folded_stacks())

    def test_folded_output_feeds_the_flame_toolchain(self):
        tracer = Tracer()
        with SamplingProfiler(hz=200, tracer=tracer) as prof:
            with tracer.span("work"):
                _busy_wait(0.15)
        folded = prof.folded_stacks()
        # counts are microseconds: one sample ≈ one 5 ms period
        period_us = round(1e6 / 200)
        raw = prof.raw_samples()
        assert all(folded[k] == raw[k] * period_us for k in raw)
        assert any(k.startswith("work;") for k in folded)
        # deep stacks are leftmost-trimmed in the view: the leaf stays
        rendered = flame.render_top(folded, top=5)
        assert "_busy_wait" in rendered
        lines = flame.folded_lines(folded)
        assert flame.parse_folded(lines) == folded

    def test_overrun_accounting(self):
        prof = SamplingProfiler(hz=200)
        prof.start()
        time.sleep(0.05)
        prof.stop()
        # ticks either kept up or every miss is accounted, never silent
        assert prof.ticks >= 1
        assert prof.overruns >= 0

    def test_lifecycle_validation(self):
        with pytest.raises(InvalidValue):
            SamplingProfiler(hz=0)
        prof = SamplingProfiler(hz=50)
        prof.start()
        with pytest.raises(InvalidValue):
            prof.start()
        prof.stop()
        prof.stop()                    # idempotent
        prof.start()                   # restartable after stop
        prof.stop()


# ---------------------------------------------------------------------------
# the guarantees: numerics untouched, overhead bounded (satellite c)
# ---------------------------------------------------------------------------

class TestLiveGuarantees:
    def test_residuals_byte_identical_with_full_live_stack(self, tmp_path):
        plain = run_hpcg(8, max_iters=5, mg_levels=2,
                         validate_symmetry=False)
        with obs.run() as ctx:
            sink = StreamingSink(str(tmp_path / "s.jsonl"),
                                 tracer=ctx.tracer)
            try:
                with live.LiveServer(live.context_source(ctx)):
                    with SamplingProfiler(hz=100, tracer=ctx.tracer,
                                          registry=ctx.metrics):
                        observed = run_hpcg(8, max_iters=5, mg_levels=2,
                                            validate_symmetry=False)
            finally:
                sink.close()
        assert observed.cg.residuals == plain.cg.residuals
        assert observed.cg.normr == plain.cg.normr

    def test_overhead_smoke_streaming_and_profiling(self, tmp_path):
        """The streaming sink and the 100 Hz profiler add nothing to what
        a traced solve records: the same spans, one JSONL line per span
        (plus header and footer), and samples taken only inside the
        solver's open spans.  Timing it is the ledger's
        ``obs.on_vs_off.*``."""
        def span_names(ctx):
            return sorted(span.name for span in ctx.tracer.spans)

        with obs.run() as plain:
            run_hpcg(16, max_iters=10, validate_symmetry=False)
        path = tmp_path / "ov.jsonl"
        with obs.run() as ctx:
            sink = StreamingSink(str(path), tracer=ctx.tracer)
            try:
                with SamplingProfiler(hz=100, tracer=ctx.tracer) as prof:
                    run_hpcg(16, max_iters=10, validate_symmetry=False)
            finally:
                sink.close()
        assert span_names(ctx) == span_names(plain)
        assert sink.spans_written == len(ctx.tracer.spans) + ctx.tracer.dropped
        assert len(path.read_text().splitlines()) == sink.spans_written + 2
        assert all(stack.startswith("hpcg/") for stack in prof.raw_samples())


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestCLI:
    def test_driver_live_flags(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.jsonl"
        folded_path = tmp_path / "prof.folded"
        metrics_path = tmp_path / "metrics.json"
        rc = driver_main([
            "--nx", "8", "--iters", "3", "--mg-levels", "2",
            "--serve-metrics", "0",
            "--trace-stream", str(stream_path),
            "--sample-profile", "200",
            "--folded-out", str(folded_path),
            "--metrics-json", str(metrics_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live telemetry at http://" in out
        assert "sampling profiler:" in out
        _, spans, footer = stream.read_stream(str(stream_path))
        assert footer is not None and footer["spans"] == len(spans)
        assert "hpcg/solve" in {s["name"] for s in spans}
        flame.parse_folded(folded_path.read_text().splitlines())
        body = json.loads(metrics_path.read_text())
        assert "obs_profiler_ticks_total" in body["metrics"]

    def test_sample_profile_flag_default_hz(self, tmp_path):
        # bare --sample-profile means 100 Hz (argparse const)
        rc = driver_main([
            "--nx", "8", "--iters", "2", "--mg-levels", "2",
            "--sample-profile",
            "--metrics-json", str(tmp_path / "m.json"),
        ])
        assert rc == 0

    def test_obs_serve_once(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        with obs.run() as ctx:
            ctx.metrics.counter("c_total", "c").inc()
            obs.export.write_metrics(str(metrics_path), ctx)
        rc = obs_main(["serve", "--metrics", str(metrics_path),
                       "--port", "0", "--once"])
        assert rc == 0
        assert "serving telemetry on http://" in capsys.readouterr().out
