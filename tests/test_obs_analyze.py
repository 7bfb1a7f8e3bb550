"""The obs *consumer* layer: trace diffing, flamegraphs, manifest
diffing, the grown CLI, Prometheus hardening, and span
coverage for the producers PR 6 skipped."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.hpcg.driver import main as driver_main, run_hpcg
from repro.obs import analyze, flame, manifest_diff
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import InvalidValue


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """No context leaks across tests (robust under REPRO_TRACE=1)."""
    obs.reset()
    yield
    obs.reset()


def _span(id, parent, name, wall, modelled=0.0, category="t", args=None):
    return {
        "id": id, "parent_id": parent, "name": name, "category": category,
        "thread": 1, "start": 0.0, "wall_seconds": wall,
        "modelled_seconds": modelled, "args": args or {},
    }


#: A tiny hand-built forest: root(10) -> {a(4) -> leaf(1), a(2)}.
FOREST = [
    _span(1, None, "root", 10.0, modelled=8.0),
    _span(2, 1, "a", 4.0, modelled=3.0, args={"level": 0}),
    _span(3, 2, "leaf", 1.0, modelled=1.0),
    _span(4, 1, "a", 2.0, modelled=2.0, args={"level": 1}),
]


def _traced_solve(nx=16, iters=20):
    with obs.run() as ctx:
        run_hpcg(nx, max_iters=iters)
    return ctx.tracer.as_dicts()


class TestAggregate:
    def test_totals_counts_and_self_time(self):
        stats = analyze.aggregate(FOREST)
        assert stats["root"].count == 1
        assert stats["root"].wall == 10.0
        # root's self excludes its two direct "a" children (4 + 2)
        assert stats["root"].wall_self == pytest.approx(4.0)
        assert stats["a"].count == 2
        assert stats["a"].wall == pytest.approx(6.0)
        assert stats["a"].wall_self == pytest.approx(5.0)   # 3 + 2
        assert stats["leaf"].wall_self == pytest.approx(1.0)
        assert stats["root"].modelled_self == pytest.approx(3.0)

    def test_group_by_level_and_category(self):
        by_level = analyze.aggregate(FOREST, by="level")
        assert by_level["L0"].wall == pytest.approx(4.0)
        assert by_level["L1"].wall == pytest.approx(2.0)
        assert by_level["(no level)"].count == 2
        # mg/L{i}-style names resolve the level from the name alone
        named = [_span(1, None, "mg/L2/spmv", 1.0)]
        assert "L2" in analyze.aggregate(named, by="level")
        by_cat = analyze.aggregate(FOREST, by="category")
        assert by_cat["t"].count == 4
        with pytest.raises(InvalidValue):
            analyze.aggregate(FOREST, by="bogus")

    def test_instants_are_skipped(self):
        spans = FOREST + [_span(9, None, "blip", 0.0,
                                args={"instant": True})]
        assert "blip" not in analyze.aggregate(spans)

    def test_overlapping_children_clamp_at_zero(self):
        spans = [_span(1, None, "p", 1.0), _span(2, 1, "c", 3.0)]
        assert analyze.aggregate(spans)["p"].wall_self == 0.0


class TestLoadSpans:
    def test_written_trace_and_bare_forms(self, tmp_path):
        with obs.run() as ctx:
            with obs.span("x"):
                pass
        path = tmp_path / "trace.json"
        obs.export.write_trace(str(path), ctx)
        spans = analyze.load_spans(str(path))
        assert [s["name"] for s in spans] == ["x"]
        assert analyze.load_spans({"spans": FOREST}) == FOREST
        assert analyze.load_spans(FOREST) == FOREST

    def test_reconstructs_from_chrome_events(self):
        events = [
            {"name": "m", "ph": "M", "pid": 1, "tid": 0, "args": {}},
            {"name": "s", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0,
             "dur": 2e6, "args": {"modelled_seconds": 0.5, "id": 1}},
        ]
        spans = analyze.load_spans({"traceEvents": events})
        assert len(spans) == 1
        assert spans[0]["wall_seconds"] == pytest.approx(2.0)
        assert spans[0]["modelled_seconds"] == pytest.approx(0.5)

    def test_rejects_unrecognised_documents(self):
        with pytest.raises(InvalidValue):
            analyze.load_spans({"nope": 1})
        with pytest.raises(InvalidValue):
            analyze.load_spans([{"no_name": True}])


class TestDiffTraces:
    @staticmethod
    def _merge(runs):
        """Concatenate traced runs, keeping span ids globally unique."""
        merged = []
        for k, spans in enumerate(runs):
            offset = (k + 1) * 1_000_000
            for span in spans:
                span = dict(span)
                span["id"] += offset
                if span["parent_id"] is not None:
                    span["parent_id"] += offset
                merged.append(span)
        return merged

    def test_identical_config_pair_has_no_significant_deltas(self):
        import gc

        run_hpcg(16, max_iters=20)   # warm-up: imports + plan caches
        # interleave three runs per side so clock-speed drift on a
        # loaded box lands on both sides alike; a GC pause mid-span is
        # indistinguishable from a regression, so keep GC out entirely
        old, new = [], []
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                old.append(_traced_solve())
                new.append(_traced_solve())
        finally:
            gc.enable()
        diff = analyze.diff_traces(self._merge(old), self._merge(new))
        if diff.significant_rows():
            # one scheduler hiccup can dirty the merged comparison, but
            # identical configs must admit SOME clean pairing — a real
            # regression sits on every run of one side and dirties all 9
            pairs = [analyze.diff_traces(o, n) for o in old for n in new]
            diff = min(pairs, key=lambda d: len(d.significant_rows()))
        assert diff.significant_rows() == [], \
            analyze.format_table(diff, top=5)
        assert "no significant" in analyze.summarize(diff)

    def test_fused_vs_unfused_ranks_smoother_first(self, monkeypatch):
        run_hpcg(16, max_iters=20)   # warm both lanes' caches
        fused = _traced_solve()
        monkeypatch.setenv("REPRO_FUSED", "0")
        run_hpcg(16, max_iters=20)
        unfused = _traced_solve()
        monkeypatch.delenv("REPRO_FUSED")
        diff = analyze.diff_traces(fused, unfused)
        significant = diff.significant_rows()
        assert significant, "disabling the fused lane must be visible"
        top = significant[0]
        assert top.key == "smoother/rbgs_sweep", \
            analyze.format_table(diff, top=5)
        assert top.delta("wall_self") > 0
        # wall moved, the BSP model did not: execution, not model
        assert top.verdict == "execution"

    def test_modelled_only_movement_is_attributed_to_model(self):
        old = [_span(1, None, "superstep/halo", 1.0, modelled=1.0)]
        new = [_span(1, None, "superstep/halo", 1.0, modelled=3.0)]
        diff = analyze.diff_traces(old, new)
        (row,) = diff.significant_rows()
        assert row.verdict == "model"
        both = analyze.diff_traces(
            old, [_span(1, None, "superstep/halo", 9.0, modelled=3.0)])
        assert both.significant_rows()[0].verdict == "both"

    def test_added_and_removed_keys(self):
        old = [_span(1, None, "gone", 1.0)]
        new = [_span(1, None, "fresh", 1.0)]
        rows = {r.key: r for r in analyze.diff_traces(old, new).rows}
        assert rows["gone"].verdict == "removed"
        assert rows["fresh"].verdict == "added"
        assert rows["fresh"].significant and rows["gone"].significant

    def test_noise_thresholds(self):
        old = [_span(1, None, "k", 1.0)]
        diff = analyze.diff_traces(old, [_span(1, None, "k", 1.2)])
        assert not diff.significant_rows()       # +20% < 25% default
        diff = analyze.diff_traces(old, [_span(1, None, "k", 1.2)],
                                   rel_threshold=0.1)
        assert diff.significant_rows()
        tiny = analyze.diff_traces([_span(1, None, "k", 0.001)],
                                   [_span(1, None, "k", 0.003)])
        assert not tiny.significant_rows()       # under the 2ms floor

    def test_as_dict_is_json_able(self):
        diff = analyze.diff_traces(FOREST, FOREST)
        payload = json.loads(json.dumps(diff.as_dict()))
        assert payload["significant"] == 0
        assert {r["key"] for r in payload["rows"]} == {"root", "a", "leaf"}


class TestFlame:
    def test_folded_stacks_use_self_time(self):
        stacks = flame.folded_stacks(FOREST)
        assert stacks == {
            "root": 4_000_000,
            "root;a": 5_000_000,
            "root;a;leaf": 1_000_000,
        }

    def test_round_trip(self):
        stacks = flame.folded_stacks(FOREST)
        assert flame.parse_folded(flame.folded_lines(stacks)) == stacks
        with pytest.raises(InvalidValue):
            flame.parse_folded(["no trailing count"])

    def test_real_trace_round_trips_and_covers_producers(self):
        spans = _traced_solve(nx=8, iters=5)
        stacks = flame.folded_stacks(spans)
        assert flame.parse_folded(flame.folded_lines(stacks)) == stacks
        assert any("smoother/rbgs_sweep" in stack for stack in stacks)

    def test_modelled_clock_and_orphans(self):
        stacks = flame.folded_stacks(FOREST, clock="modelled")
        assert stacks["root"] == 3_000_000
        orphan = [_span(5, 999, "lost", 1.0)]   # parent was dropped
        assert flame.folded_stacks(orphan) == {"lost": 1_000_000}
        with pytest.raises(InvalidValue):
            flame.folded_stacks(FOREST, clock="cpu")

    def test_render_top(self):
        out = flame.render_top(flame.folded_stacks(FOREST), top=2)
        lines = out.splitlines()
        assert "root;a" in lines[1]              # biggest stack first
        assert "%" in lines[1] and "█" in lines[1]
        assert "(1 more)" in lines[-1]
        assert "no wall self time" in flame.render_top({})


class TestManifestDiff:
    def test_identical_configs(self, tmp_path):
        with obs.run() as ctx:
            run_hpcg(8, max_iters=2, mg_levels=2)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        obs.export.write_manifest(str(a), ctx.build_manifest())
        with obs.run() as ctx2:
            run_hpcg(8, max_iters=2, mg_levels=2)
        obs.export.write_manifest(str(b), ctx2.build_manifest())
        diff = manifest_diff.diff_manifests(str(a), str(b))
        assert diff["identical"], diff
        assert "identical configuration" in \
            manifest_diff.format_manifest_diff(diff)

    def test_forced_substrate_change_carries_reason(self, monkeypatch):
        import repro.hpcg.problem as problem_mod

        monkeypatch.delenv("REPRO_SUBSTRATE", raising=False)
        with obs.run() as ctx:
            problem_mod.generate_problem(12)
        base = ctx.build_manifest()
        monkeypatch.setenv("REPRO_SUBSTRATE", "csr")
        with obs.run() as ctx2:
            problem_mod.generate_problem(12)
        forced = ctx2.build_manifest()
        diff = manifest_diff.diff_manifests(base, forced)
        assert not diff["identical"]
        assert diff["sections"]["toggles"]["changed"][
            "substrate_force"]["new"] == "csr"
        assert diff["sections"]["environment"]["added"][
            "REPRO_SUBSTRATE"] == "csr"
        changed = diff["decisions"]["changed"]
        assert changed, "the forced format must change recorded decisions"
        outcomes = " ".join(" ".join((change["old"] or {}) | (change["new"] or {}))
                            for change in changed)
        assert "csr (env)" in outcomes and "csr (default)" in outcomes
        text = manifest_diff.format_manifest_diff(diff)
        assert "substrate decisions" in text and "(env)" in text

    def test_config_and_scalar_changes(self):
        a = {"run_id": "r1", "package_version": "1", "config": {"nx": 8},
             "substrate_decisions": []}
        b = {"run_id": "r2", "package_version": "2",
             "config": {"nx": 16, "extra": True}, "substrate_decisions": []}
        diff = manifest_diff.diff_manifests(a, b)
        assert diff["scalars"]["package_version"] == {"old": "1", "new": "2"}
        config = diff["sections"]["config"]
        assert config["changed"]["nx"] == {"old": 8, "new": 16}
        assert config["added"] == {"extra": True}


class TestObsCLI:
    def _write_pair(self, tmp_path, monkeypatch=None):
        run_hpcg(8, max_iters=5, mg_levels=2)
        paths = {}
        for tag in ("old", "new"):
            with obs.run(name=tag) as ctx:
                run_hpcg(8, max_iters=5, mg_levels=2)
            paths[tag] = tmp_path / f"{tag}.json"
            obs.export.write_trace(str(paths[tag]), ctx)
        return paths

    def test_diff_command(self, tmp_path, capsys):
        paths = self._write_pair(tmp_path)
        out_json = tmp_path / "diff.json"
        rc = obs_main(["diff", str(paths["old"]), str(paths["new"]),
                       "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace diff" in out and "attribution:" in out
        payload = json.loads(out_json.read_text())
        assert "rows" in payload and payload["by"] == "name"
        assert obs_main(["diff", str(paths["old"]), str(paths["new"]),
                         "--by", "level", "--significant-only"]) == 0

    def test_flame_and_top_commands(self, tmp_path, capsys):
        paths = self._write_pair(tmp_path)
        folded = tmp_path / "folded.txt"
        assert obs_main(["flame", str(paths["old"]),
                         "--out", str(folded)]) == 0
        stacks = flame.parse_folded(folded.read_text().splitlines())
        assert any("smoother/rbgs_sweep" in s for s in stacks)
        capsys.readouterr()
        assert obs_main(["flame", str(paths["old"]), "--top", "5"]) == 0
        assert "stacks by wall self time" in capsys.readouterr().out
        assert obs_main(["top", str(paths["old"]), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "self (s)" in out and "share" in out

    def test_diff_manifest_command(self, tmp_path, capsys):
        with obs.run() as ctx:
            pass
        new = tmp_path / "new.json"
        obs.export.write_manifest(str(new), ctx.build_manifest())
        # the second old side is a manifest from the layout that still
        # carried a ``tune_profile`` section (None when nothing was cached)
        legacy = dict(ctx.build_manifest(), tune_profile=None)
        obs.manifest.validate_manifest(legacy)   # still a valid manifest
        for old, removed in ((ctx.build_manifest(), []),
                             (legacy, ["tune_profile"])):
            path = tmp_path / "old.json"
            path.write_text(json.dumps(old))
            out_json = tmp_path / "md.json"
            assert obs_main(["diff-manifest", str(path), str(new),
                             "--json", str(out_json)]) == 0
            out = capsys.readouterr().out
            assert "manifest diff" in out
            diff = json.loads(out_json.read_text())
            assert diff["identical"] == (not removed)
            assert diff["presence"] == {"added": [], "removed": removed}
            assert ("- section tune_profile (removed)" in out) is bool(removed)

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert obs_main(["diff", str(missing), str(missing)]) == 1
        assert obs_main(["flame", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestValidateCLI:
    def _artifacts(self, tmp_path):
        with obs.run() as ctx:
            with obs.span("x"):
                pass
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "manifest.json"
        metrics = tmp_path / "metrics.json"
        obs.export.write_trace(str(trace), ctx)
        obs.export.write_metrics(str(metrics), ctx)
        obs.export.write_manifest(str(manifest), ctx.build_manifest())
        return trace, metrics, manifest

    def test_positional_paths_sniff_their_kind(self, tmp_path, capsys):
        trace, metrics, manifest = self._artifacts(tmp_path)
        rc = obs_main(["validate", str(trace), str(metrics), str(manifest)])
        assert rc == 0
        out = capsys.readouterr().out
        for kind in ("trace", "metrics", "manifest"):
            assert f"ok: {kind}" in out

    def test_directory_reports_per_file(self, tmp_path, capsys):
        self._artifacts(tmp_path)
        (tmp_path / "broken.json").write_text('{"traceEvents": []}')
        (tmp_path / "noise.txt").write_text("not json, not scanned")
        rc = obs_main(["validate", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        # every json file is reported, not just the first failure
        assert captured.out.count("ok:") == 3
        assert "INVALID" in captured.err and "broken.json" in captured.err
        assert "1 of 4" in captured.err

    def test_nothing_to_validate(self, capsys):
        assert obs_main(["validate"]) == 2
        assert "nothing to validate" in capsys.readouterr().err

    def test_tagged_flags_still_work(self, tmp_path):
        trace, metrics, manifest = self._artifacts(tmp_path)
        assert obs_main(["validate", "--trace", str(trace),
                         "--metrics", str(metrics),
                         "--manifest", str(manifest)]) == 0
        # a tagged flag pins the kind: a manifest is not a valid trace
        assert obs_main(["validate", "--trace", str(manifest)]) == 1


class TestDriverCompareTrace:
    def test_compare_trace_prints_diff_and_report_section(
            self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert driver_main(["--nx", "8", "--iters", "3", "--mg-levels", "2",
                            "--trace-json", str(trace)]) == 0
        capsys.readouterr()
        rc = driver_main(["--nx", "8", "--iters", "3", "--mg-levels", "2",
                          "--compare-trace", str(trace), "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"trace comparison vs {trace}" in out
        assert "attribution:" in out
        assert "Trace Comparison:" in out
        assert "Aggregated By: name" in out


class TestPrometheusHardening:
    #: one exposition line: comment, blank, or sample with optional labels
    import re as _re
    _LINE = _re.compile(
        r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
        r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\""
        r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\")*\})?"
        r" -?[0-9.einfEINF+-]+)$"
    )

    def _assert_valid_exposition(self, text):
        families = set()
        for line in text.splitlines():
            assert self._LINE.match(line), f"invalid exposition line: {line!r}"
            if line.startswith("# TYPE"):
                families.add(line.split()[2])
        return families

    def test_full_registry_exposition_validates(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "operations").inc(3, fmt="csr")
        registry.gauge("residual", "latest residual").set(1e-9, solver="cg")
        registry.histogram("latency_seconds", "solve latency").observe(0.01)
        registry.series("trajectory", "residual history").observe(1.0)
        families = self._assert_valid_exposition(registry.to_prometheus())
        assert families == {"ops_total", "residual", "latency_seconds",
                            "trajectory"}

    def test_hostile_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "with\nnewline help \\ slash").inc(
            1, path='a\\b"c\nd')
        text = registry.to_prometheus()
        self._assert_valid_exposition(text)
        assert '\\\\b\\"c\\nd' in text
        assert "# HELP c_total with\\nnewline help \\\\ slash" in text

    def test_help_and_type_always_emitted(self):
        registry = MetricsRegistry()
        registry.counter("nohelp_total").inc(1)
        text = registry.to_prometheus()
        assert "# HELP nohelp_total\n" in text
        assert "# TYPE nohelp_total counter" in text
        self._assert_valid_exposition(text)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(InvalidValue):
            registry.counter("0starts_with_digit")
        with pytest.raises(InvalidValue):
            registry.counter("has-dash")
        with pytest.raises(InvalidValue):
            registry.counter("")

    def test_invalid_label_name_rejected_at_exposition(self):
        from repro.obs.metrics import _prom_line

        with pytest.raises(InvalidValue):
            _prom_line("m", {"bad-label": "v"}, 1)


class TestProducerSpans:
    def test_io_spans(self, tmp_path):
        from repro.graphblas import io as gio

        matrix = gio.random_matrix(16, 16, 0.2)
        path = tmp_path / "m.mtx"
        with obs.run() as ctx:
            gio.mmwrite(str(path), matrix)
            back = gio.mmread(str(path))
        assert back.nvals == matrix.nvals
        spans = {s.name: s for s in ctx.tracer.spans}
        assert spans["io/mmwrite"].args["nnz"] == matrix.nvals
        assert spans["io/mmread"].args["nnz"] == matrix.nvals
        assert spans["io/mmread"].args["nrows"] == 16

    def test_partition_spans(self):
        import numpy as np

        from repro.dist.partition import (Grid3DPartition, bfs_partition,
                                          halo_for_owners)
        from repro.grid import Grid3D, stencil_coo
        import scipy.sparse as sp

        grid = Grid3D(4, 4, 4)
        rows, cols, vals = stencil_coo(grid, "27pt")
        A = sp.csr_matrix((vals, (rows, cols)),
                          shape=(grid.npoints, grid.npoints))
        with obs.run() as ctx:
            part = Grid3DPartition(grid, 2)
            owners = part.owner(np.arange(grid.npoints))
            halo_for_owners(A.indptr, A.indices, owners, 2)
            bfs_partition(A.indptr, A.indices, grid.npoints, 2)
        spans = {s.name: s for s in ctx.tracer.spans}
        assert spans["dist/partition/grid3d"].args["p"] == 2
        assert spans["dist/partition/halo"].args["remote_entries"] > 0
        assert spans["dist/partition/bfs"].args["n"] == grid.npoints

    def test_producers_off_by_default(self, tmp_path):
        """Disabled observability stays disabled through the new seams."""
        from repro.graphblas import io as gio

        matrix = gio.random_matrix(8, 8, 0.2)
        with obs.disabled():
            assert obs.current() is None
            gio.mmwrite(str(tmp_path / "m.mtx"), matrix)
