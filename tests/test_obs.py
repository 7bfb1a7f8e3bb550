"""repro.obs: spans, metrics, manifests, exports — and the guarantees
the observability layer must keep (zero numeric impact, bounded cost)."""

from __future__ import annotations

import json
import time

import pytest

from repro import graphblas as grb
from repro import obs
from repro.graphblas.substrate import registry as substrate_registry
from repro.hpcg.driver import main as driver_main, run_hpcg
from repro.hpcg.smoothers import RBGSSmoother
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.util.errors import InvalidValue


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Each test starts and ends with no active context (so a suite-wide
    ``REPRO_TRACE=1`` env context cannot leak state between tests)."""
    obs.reset()
    yield
    obs.reset()


class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("outer", "t"):
            with tracer.span("inner", "t"):
                pass
            with tracer.span("inner2", "t"):
                pass
        inner, inner2, outer = tracer.spans
        assert [s.name for s in tracer.spans] == ["inner", "inner2", "outer"]
        assert inner.parent_id == outer.id
        assert inner2.parent_id == outer.id
        assert outer.parent_id is None
        assert inner.thread == outer.thread
        # children start within the parent's extent
        assert outer.start <= inner.start <= inner2.start
        assert tracer.children_of(outer) == [inner, inner2]

    def test_wall_clock_measured(self):
        tracer = Tracer()
        with tracer.span("sleepy"):
            time.sleep(0.005)
        (span,) = tracer.spans
        assert span.wall_seconds >= 0.004
        assert span.modelled_seconds == 0.0

    def test_modelled_tick_path(self):
        tracer = Tracer()
        with tracer.span("modelled") as sp:
            sp.tick(1.5)
            sp.tick(0.25)
        (span,) = tracer.spans
        assert span.modelled_seconds == 1.75
        assert span.wall_seconds < 1.0  # the two clocks are independent

    def test_negative_tick_rejected(self):
        tracer = Tracer()
        with tracer.span("x") as sp:
            with pytest.raises(ValueError):
                sp.tick(-0.1)

    def test_set_attaches_args(self):
        tracer = Tracer()
        with tracer.span("x", args={"a": 1}) as sp:
            sp.set(b=2)
        assert tracer.spans[0].args == {"a": 1, "b": 2}

    def test_bounded_recording_counts_drops(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2

    def test_instant_events(self):
        tracer = Tracer()
        tracer.event("tick", "cat", {"x": 1})
        (ev,) = tracer.spans
        assert ev.wall_seconds == 0.0 and ev.args["instant"]


class TestContext:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_TRACE, raising=False)
        assert not obs.enabled()
        cm = obs.span("anything")
        assert cm is obs.NULL_SPAN
        with cm as sp:
            assert sp is None

    def test_env_arms_lazy_context(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "1")
        obs.reset()
        assert obs.enabled()
        with obs.span("hello"):
            pass
        assert obs.current().tracer.find("hello")

    def test_explicit_run_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "1")
        obs.reset()
        with obs.run(name="mine") as ctx:
            assert obs.current() is ctx

    def test_disabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "1")
        obs.reset()
        with obs.disabled():
            assert not obs.enabled()
            assert obs.span("x") is obs.NULL_SPAN
            assert obs.metrics_registry() is None
        assert obs.enabled()

    def test_deactivate_out_of_order_raises(self):
        a = obs.RunContext()
        b = obs.RunContext()
        obs.activate(a)
        obs.activate(b)
        with pytest.raises(ValueError):
            obs.deactivate(a)
        obs.deactivate(b)
        obs.deactivate(a)


class TestMetrics:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("ops", "op count").inc(3, fmt="csr")
        reg.counter("ops").inc(1, fmt="sellcs")
        reg.gauge("residual", "last residual").set(1e-7)
        h = reg.histogram("latency", "seconds", buckets=(0.1, 1.0))
        h.observe(0.05, kind="solve")
        h.observe(2.0, kind="solve")
        s = reg.series("trajectory", "residuals")
        for v in (3.0, 2.0, 1.0):
            s.observe(v)
        return reg

    def test_snapshot_round_trip_through_json(self):
        snapshot = self._populated().snapshot()
        wire = json.loads(json.dumps(snapshot))
        rebuilt = MetricsRegistry.from_snapshot(wire)
        assert rebuilt.snapshot() == snapshot

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(InvalidValue):
            reg.gauge("x")

    def test_series_bounded(self):
        reg = MetricsRegistry()
        s = reg.series("short", maxlen=3)
        for v in range(5):
            s.observe(float(v))
        assert s.values() == [2.0, 3.0, 4.0]
        assert s._sample_dicts()[0]["dropped"] == 2

    def test_prometheus_exposition(self):
        text = self._populated().to_prometheus()
        assert "# TYPE ops counter" in text
        assert 'ops{fmt="csr"} 3.0' in text
        assert 'latency_bucket{kind="solve",le="+Inf"} 2' in text
        assert "latency_count" in text
        # series exported as a gauge of its last value
        assert "trajectory 1.0" in text


class TestExport:
    def test_chrome_trace_schema(self, tmp_path):
        with obs.run(name="t") as ctx:
            with obs.span("parent", "cat") as sp:
                sp.tick(0.5)
                with obs.span("child", "cat"):
                    pass
            obs.event("marker", "cat")
        payload = obs.export.trace_payload(ctx.tracer, run_id=ctx.run_id)
        obs.export.validate_chrome_trace(payload)
        path = tmp_path / "trace.json"
        obs.export.write_trace(str(path), ctx)
        obs.export.validate_file(str(path), "trace")
        data = json.loads(path.read_text())
        events = {e["name"]: e for e in data["traceEvents"]}
        assert events["parent"]["ph"] == "X"
        assert events["parent"]["args"]["modelled_seconds"] == 0.5
        assert events["child"]["args"]["parent_id"]
        assert events["marker"]["ph"] == "i"
        # wall-clock containment: child inside parent
        p, c = events["parent"], events["child"]
        assert p["ts"] <= c["ts"]
        assert c["ts"] + c["dur"] <= p["ts"] + p["dur"] + 1e-6

    def test_metrics_artifact(self, tmp_path):
        with obs.run() as ctx:
            ctx.metrics.counter("n").inc(2)
        path = tmp_path / "metrics.json"
        obs.export.write_metrics(str(path), ctx)
        obs.export.validate_file(str(path), "metrics")

    def test_manifest_artifact(self, tmp_path):
        with obs.run() as ctx:
            ctx.manifest.record_seed("s", 7)
            ctx.manifest.record_decision(chosen="csr", reason="pin")
            manifest = ctx.build_manifest(extra="yes")
        path = tmp_path / "manifest.json"
        obs.export.write_manifest(str(path), manifest)
        obs.export.validate_file(str(path), "manifest")
        data = json.loads(path.read_text())
        assert data["seeds"] == {"s": 7}
        assert data["config"]["extra"] == "yes"

    def test_invalid_trace_rejected(self):
        with pytest.raises(InvalidValue):
            obs.export.validate_chrome_trace({"traceEvents": []})
        with pytest.raises(InvalidValue):
            obs.export.validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 1,
                                  "tid": 0, "ts": 0.0}]})  # no dur


class TestManifest:
    def test_captures_forced_toggle_combination(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUBSTRATE", "sellcs")
        monkeypatch.setenv("REPRO_FUSED", "0")
        with obs.run() as ctx:
            manifest = ctx.build_manifest()
        obs.validate_manifest(manifest)
        assert manifest["environment"]["REPRO_SUBSTRATE"] == "sellcs"
        assert manifest["environment"]["REPRO_FUSED"] == "0"
        assert manifest["toggles"]["substrate_force"] == "sellcs"
        assert manifest["toggles"]["fused"] is False

    def test_unrecognised_toggles_record_invalid(self, monkeypatch):
        for name in ("REPRO_FUSED", "REPRO_OVERLAP", "REPRO_SUBSTRATE"):
            monkeypatch.setenv(name, "bogus")
        toggles = obs.manifest.capture_toggles()
        assert [toggles[k] for k in ("fused", "comm_mode",
                                     "substrate_force")] == ["invalid"] * 3

    def test_selection_decisions_carry_reasons(self, monkeypatch, problem4):
        monkeypatch.delenv("REPRO_SUBSTRATE", raising=False)
        csr = problem4.A.to_scipy().tocsr()
        with obs.run() as ctx:
            substrate_registry.resolve(csr)                    # default
            substrate_registry.resolve(csr, request="sellcs")  # pin
            monkeypatch.setenv("REPRO_SUBSTRATE", "csr")
            substrate_registry.resolve(csr)                    # env force
            reasons = [d["reason"] for d in ctx.manifest.decisions]
            chosen = [d["chosen"] for d in ctx.manifest.decisions]
        assert reasons == ["default", "pin", "env"]
        assert chosen == ["csr", "sellcs", "csr"]
        assert all("selection" not in d for d in ctx.manifest.decisions)
        # decisions double as trace events
        assert len(ctx.tracer.find("substrate_selection")) == 3

    def test_decisions_free_when_disabled(self, monkeypatch, problem4):
        monkeypatch.delenv("REPRO_SUBSTRATE", raising=False)
        csr = problem4.A.to_scipy().tocsr()
        assert substrate_registry.resolve(csr) == "csr"  # no context: no-op


class TestSolverIntegration:
    def test_mg_spans_nest_under_cg_iterations(self):
        with obs.run() as ctx:
            result = run_hpcg(8, max_iters=3, mg_levels=2,
                              validate_symmetry=False)
        assert result.cg.iterations == 3
        spans = {s.id: s for s in ctx.tracer.spans}
        cg_ids = {s.id for s in ctx.tracer.find("cg/iteration")}
        assert len(cg_ids) == 3
        mg0 = ctx.tracer.find("mg/L0")
        assert len(mg0) == 3
        assert all(s.parent_id in cg_ids for s in mg0)
        mg1 = ctx.tracer.find("mg/L1")
        assert all(spans[s.parent_id].name == "mg/L0" for s in mg1)
        sweeps = ctx.tracer.find("smoother/rbgs_sweep")
        assert sweeps and all(s.args["level"] in (0, 1) for s in sweeps)
        solve = ctx.tracer.find("hpcg/solve")
        assert len(solve) == 1 and solve[0].args["repetition"] == 0

    def test_metrics_capture_residuals_and_bytes(self):
        with obs.run() as ctx:
            result = run_hpcg(8, max_iters=4, mg_levels=2,
                              validate_symmetry=False)
        traj = ctx.metrics.get("cg_residual").values()
        assert traj == result.cg.residuals       # index 0 = initial
        by_fmt = ctx.metrics.get("graphblas_bytes_by_format")
        assert sum(s["value"] for s in by_fmt._sample_dicts()) > 0
        assert ctx.metrics.get("cg_iterations_total").value() == 4.0

    def test_residuals_byte_identical_traced_vs_untraced(self):
        untraced = run_hpcg(8, max_iters=5, mg_levels=2,
                            validate_symmetry=False)
        with obs.run():
            traced = run_hpcg(8, max_iters=5, mg_levels=2,
                              validate_symmetry=False)
        assert traced.cg.residuals == untraced.cg.residuals
        assert traced.cg.normr == untraced.cg.normr

    def test_overhead_smoke(self, python_calls):
        """The near-zero-cost claim as counts, not wall-clock: an untraced
        solve enters no tracer code, and tracing adds a fixed number of
        Python calls per span, the same at 16^3 as at 8^3 — so against
        the arithmetic it shrinks as the grid grows.  Timing it is the
        ledger's ``obs.on_vs_off.*``."""
        def added_calls(nx):
            def solve():
                run_hpcg(nx, max_iters=5, mg_levels=2,
                         validate_symmetry=False)

            with obs.disabled():
                solve()                          # warm every cache once
                untraced = python_calls(solve)
                assert python_calls(solve, code=Tracer.span.__code__) == 0
            with obs.run():
                solve()                          # and the traced path
            with obs.run() as ctx:
                traced = python_calls(solve)
            return traced - untraced, len(ctx.tracer.spans)

        calls, spans = added_calls(8)
        assert added_calls(16) == (calls, spans)
        assert 0 < calls <= 150 * spans


class TestFusedLevelTag:
    def test_fused_events_carry_owning_level(self, problem8):
        from repro.hpcg.coloring import color_masks, lattice_coloring

        colors = color_masks(lattice_coloring(problem8.grid, "27pt"))
        smoother = RBGSSmoother(problem8.A, problem8.A_diag, colors,
                                fused=True).set_level(2)
        z = grb.Vector.dense(problem8.n)
        r = problem8.b.dup()
        log = grb.backend.EventLog()
        with grb.backend.collect(log):     # no enclosing labelled scope
            smoother.forward(z, r)
        fused = [e for e in log.events if e.op == "fused_mxv_lambda"]
        assert fused and all(e.label == "rbgs@L2" for e in fused)


class TestDistIntegration:
    def test_superstep_spans_exposed_vs_hidden(self, problem8):
        from repro.dist.refdist import RefDistRun

        with obs.run() as ctx:
            run = RefDistRun(problem8, nprocs=2, mg_levels=2,
                             comm_mode="overlap")
            result = run.run_cg(max_iters=3)
        steps = [s for s in ctx.tracer.find(category="dist")
                 if s.name.startswith("superstep/")]
        assert steps
        assert all(s.args["mode"] == "overlap" for s in steps)
        full = sum(s.args["comm_full"] for s in steps)
        exposed = sum(s.args["comm_exposed"] for s in steps)
        hidden = sum(s.args["comm_hidden"] for s in steps)
        assert full == pytest.approx(exposed + hidden)
        assert full == pytest.approx(result.comm_seconds)
        assert exposed == pytest.approx(result.exposed_comm_seconds)
        assert hidden > 0          # the overlap engine hid something
        # the run span's modelled clock equals the result's
        (top,) = ctx.tracer.find("dist/run_cg")
        assert top.modelled_seconds == pytest.approx(
            result.modelled_seconds)

    def test_result_carries_manifest_and_metrics(self, problem8):
        from repro.dist.refdist import RefDistRun

        with obs.run():
            result = RefDistRun(problem8, nprocs=2,
                                mg_levels=2).run_cg(max_iters=2)
        obs.validate_manifest(result.manifest)
        assert result.manifest["config"]["dist"]["backend"] == "ref-3d"
        assert result.metrics["supersteps"] == result.tracker.num_syncs
        assert result.metrics["comm_bytes"] == result.tracker.total_bytes

    def test_result_attachments_none_when_disabled(self, problem8):
        from repro.dist.refdist import RefDistRun

        with obs.disabled():     # robust under a suite-wide REPRO_TRACE=1
            result = RefDistRun(problem8, nprocs=2,
                                mg_levels=2).run_cg(max_iters=2)
        assert result.manifest is None and result.metrics is None


class TestDriverCLI:
    def test_artifact_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        manifest = tmp_path / "manifest.json"
        rc = driver_main([
            "--nx", "8", "--iters", "3", "--mg-levels", "2",
            "--trace-json", str(trace),
            "--metrics-json", str(metrics),
            "--manifest-json", str(manifest),
            "--report",
        ])
        assert rc == 0
        for path, kind in ((trace, "trace"), (metrics, "metrics"),
                           (manifest, "manifest")):
            obs.export.validate_file(str(path), kind)
        out = capsys.readouterr().out
        assert "Observability" in out and "observability: run" in out

    def test_obs_validate_cli(self, tmp_path):
        from repro.obs.__main__ import main as validate_main

        with obs.run() as ctx:
            with obs.span("x"):
                pass
        trace = tmp_path / "trace.json"
        obs.export.write_trace(str(trace), ctx)
        assert validate_main(["validate", "--trace", str(trace)]) == 0
        trace.write_text("{\"traceEvents\": []}")
        assert validate_main(["validate", "--trace", str(trace)]) == 1
        assert validate_main(["validate"]) == 2
