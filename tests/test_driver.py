"""The HPCG benchmark driver end-to-end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dist import RefDistRun
from repro.hpcg import driver
from repro.hpcg.driver import main, run_hpcg
from repro.util.errors import InvalidValue


class TestRunHpcg:
    def test_end_to_end(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3)
        assert result.cg.iterations == 10
        assert result.symmetry.passed
        assert result.run_seconds > 0
        assert result.gflops > 0

    def test_converges_with_tolerance(self):
        result = run_hpcg(nx=8, max_iters=100, tolerance=1e-8, mg_levels=3,
                          validate_symmetry=False)
        assert result.cg.converged

    def test_no_preconditioner(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=0,
                          validate_symmetry=False)
        assert result.cg.iterations == 10

    @pytest.mark.parametrize("kwargs, got", [
        ({"mg_levels": -2}, "got -2 and 1"),
        ({"repetitions": 0}, "got 4 and 0"),
        ({"max_iters": -1}, "got -1 and 0.0"),
        ({"tolerance": -1.0}, "got 50 and -1.0")])
    def test_scalar_arguments_are_checked_before_any_work(
            self, monkeypatch, kwargs, got):
        monkeypatch.setattr(driver, "generate_problem",
                            lambda *a, **k: pytest.fail("problem generated"))
        with pytest.raises(InvalidValue, match=got):
            run_hpcg(nx=8, **kwargs)

    def test_flops_accounting(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3,
                          validate_symmetry=False)
        counts = result.flops.merged()
        assert counts["spmv"] > 0 and counts["rbgs"] > 0
        assert counts["rbgs"] > counts["spmv"]  # RBGS dominates flops too
        assert result.flops.total == sum(counts.values())

    def test_mg_level_breakdown_shares(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3,
                          validate_symmetry=False)
        rows = result.mg_level_breakdown()
        assert len(rows) == 3
        total_share = sum(r["rbgs"] + r["restrict_refine"] for r in rows)
        assert 0 < total_share <= 1.0
        # coarsest level performs no grid transfer
        assert rows[-1]["restrict_refine"] == 0.0

    def test_two_rbgs_scopes_per_level_per_application(self, problem16):
        """The breakdown's RBGS rows time every smoothing: a pre- and a
        post-smoothing scope per level and application, one on the
        coarsest level, which is only pre-smoothed.  (The paper's
        headline share, RBGS > 50 % of execution, is a wall-clock figure:
        the ledger's to measure.)"""
        result = run_hpcg(nx=0, problem=problem16, max_iters=10, mg_levels=4,
                          validate_symmetry=False)
        counts = {key: count for key, (_, count)
                  in result.timers.as_dict(counts=True).items()}
        assert [counts[f"mg/L{i}/rbgs"] for i in range(4)] == [20] * 3 + [10]
        for step in ("spmv", "restrict", "prolong"):
            assert [counts[f"mg/L{i}/{step}"] for i in range(3)] == [10] * 3
            assert f"mg/L3/{step}" not in counts
        assert all(row["rbgs"] > 0 for row in result.mg_level_breakdown())

    def test_summary_renders(self):
        result = run_hpcg(nx=4, max_iters=3, mg_levels=2,
                          validate_symmetry=False)
        text = result.summary()
        assert "HPCG result" in text and "GFLOP/s" in text

    def test_b_style_ones(self):
        result = run_hpcg(nx=4, max_iters=3, mg_levels=2, b_style="ones",
                          validate_symmetry=False)
        assert result.problem.b_style == "ones"

    def test_reuse_problem(self, problem8):
        result = run_hpcg(nx=0, problem=problem8, max_iters=3, mg_levels=2,
                          validate_symmetry=False)
        assert result.problem is problem8


class TestCli:
    def test_main_ok(self, capsys):
        rc = main(["--nx", "4", "--iters", "3", "--mg-levels", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HPCG result" in out

    def test_main_with_timers(self, capsys):
        rc = main(["--nx", "4", "--iters", "2", "--mg-levels", "2",
                   "--timers"])
        assert rc == 0
        assert "mg/L0/rbgs" in capsys.readouterr().out


class TestCliRobustness:
    """Bad inputs exit with code 2 and one line on stderr — never a
    traceback, never a half-finished solve."""

    def _expect_error(self, capsys, argv, fragment):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert fragment in err
        assert "Traceback" not in err

    def test_unwritable_artifact_paths(self, capsys, tmp_path):
        for flag in ("--trace-json", "--metrics-json", "--manifest-json",
                     "--trace-stream", "--folded-out"):
            self._expect_error(
                capsys,
                ["--nx", "4", "--iters", "1", "--mg-levels", "2",
                 flag, str(tmp_path / "no" / "such" / "dir" / "out.json")],
                "does not exist")

    def test_artifact_path_is_a_directory(self, capsys, tmp_path):
        self._expect_error(
            capsys,
            ["--nx", "4", "--iters", "1", "--mg-levels", "2",
             "--trace-json", str(tmp_path)],
            "is a directory")

    @pytest.mark.parametrize("dist", [[], ["--dist", "ref-3d"]])
    @pytest.mark.parametrize("limit", [["--iters", "-3"],
                                       ["--tolerance", "nan"],
                                       ["--tolerance", "-1"]])
    def test_bad_cg_limits(self, capsys, dist, limit):
        self._expect_error(capsys, ["--nx", "4", *dist, *limit],
                           "max_iters >= 0 and 0 <= tolerance < inf")

    def test_faults_without_dist(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seed": 1}\n')
        self._expect_error(
            capsys, ["--nx", "4", "--faults", str(plan)], "--dist")

    def test_missing_fault_plan(self, capsys, tmp_path):
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d",
             "--faults", str(tmp_path / "absent.json")],
            "cannot read")

    def test_malformed_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "broken.json"
        plan.write_text("{this is not json")
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d", "--faults", str(plan)],
            "not valid JSON")

    def test_unknown_plan_key(self, capsys, tmp_path):
        plan = tmp_path / "typo.json"
        plan.write_text(json.dumps({"seed": 1, "stragler": []}))
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d", "--faults", str(plan)],
            "unknown key")

    def test_plan_node_out_of_range(self, capsys, tmp_path):
        plan = tmp_path / "oob.json"
        plan.write_text(json.dumps(
            {"crashes": [{"node": 9, "superstep": 5}]}))
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d", "--nprocs", "4",
             "--faults", str(plan)],
            "out of range")

    def test_nonpositive_nprocs(self, capsys):
        self._expect_error(
            capsys, ["--nx", "4", "--dist", "ref-3d", "--nprocs", "0"],
            "nprocs")

    @pytest.mark.parametrize("argv, fragment", [
        (["--nx", "16", "--dist", "ref-3d", "--nprocs", "64"],
         "MG level 3 (grid (2, 2, 2), 8 rows) cannot be distributed"),
        (["--nx", "16", "--dist", "ref-3d", "--nprocs", "7"],
         "not divisible by process grid (1, 1, 7)"),
        (["--nx", "16", "--dist", "alp-2d", "--nprocs", "6"],
         "needs a square process count"),
        (["REPRO_FUSED=bogus", "--nx", "8"],
         "unrecognised REPRO_FUSED='bogus': use 1/0"),
        (["--nx", "12"], "supports at most 3 MG levels, requested 4"),
        (["--nx", "8", "--mg-levels", "5"], "at most 4 MG levels"),
        (["--nx", "8", "--mg-levels", "-1"], "--mg-levels must be >= 0"),
        (["--nx", "8", "--mg-levels", "-1", "--dist", "ref-3d"],
         "--mg-levels must be >= 0"),
    ])
    def test_unrunnable_configuration(self, capsys, monkeypatch, argv,
                                      fragment):
        """Errors raised while *constructing* the run (a node count the
        backend cannot distribute the grid over, an unrecognised
        ``REPRO_FUSED``, more MG levels than the grid has) used to escape
        as tracebacks, and a negative ``--mg-levels`` ran.  Leading
        ``VAR=VALUE`` words set the environment, as on a shell line."""
        while "=" in argv[0]:
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        self._expect_error(capsys, argv + ["--iters", "1"], fragment)

    @pytest.mark.parametrize("value", ["bogus", "model"])
    def test_bad_substrate_force(self, capsys, monkeypatch, value):
        """A typo and the retired ``model`` value get the same one-line
        error, naming the providers that remain."""
        monkeypatch.setenv("REPRO_SUBSTRATE", value)
        self._expect_error(
            capsys, ["--nx", "8", "--iters", "1"],
            f"REPRO_SUBSTRATE: unknown substrate {value!r}; "
            f"available: csr, sellcs, blocked")

    def test_module_run_is_silent_on_stderr(self):
        """``python -m repro.hpcg.driver`` used to print a runpy
        RuntimeWarning on every run (eager driver import in the package
        ``__init__``)."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH":
               src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.hpcg.driver",
             "--nx", "8", "--iters", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestDistCli:
    def test_dist_clean_run(self, capsys):
        rc = main(["--nx", "4", "--iters", "3", "--mg-levels", "2",
                   "--dist", "ref-3d", "--nprocs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ref-3d: p=4" in out
        assert "Resilience" not in out     # no plan, no section

    def test_dist_mg_levels_zero_runs_plain_cg(self, capsys, monkeypatch):
        """As on the serial path: the residuals are ``run_hpcg``'s with
        ``mg_levels=0``, bit for bit."""
        results, run_cg = [], RefDistRun.run_cg
        monkeypatch.setattr(RefDistRun, "run_cg", lambda self, **kw: (
            results.append(run_cg(self, **kw)) or results[-1]))
        assert main(["--nx", "8", "--iters", "5", "--mg-levels", "0",
                     "--dist", "ref-3d", "--nprocs", "2"]) == 0
        want = run_hpcg(nx=8, max_iters=5, mg_levels=0).cg.residuals
        assert [result.residuals for result in results] == [want]

    def test_dist_faulted_run_reports_resilience(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "crashes": [{"node": 1, "superstep": 200}],
            "checkpoint": {"interval": 2},
        }))
        rc = main(["--nx", "8", "--iters", "4", "--mg-levels", "2",
                   "--dist", "ref-3d", "--nprocs", "4",
                   "--faults", str(plan)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Resilience:" in out
        assert "clean time-to-solution" in out
        assert "recoveries: 1" in out
        assert "final residual matches clean run: True" in out
