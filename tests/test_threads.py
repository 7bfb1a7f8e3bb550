"""The shared-memory parallel lane: policy, kernels, fusion, hybrid dist.

Four contracts under test:

1. **Policy** — ``REPRO_THREADS`` parsing (kill switch / explicit count
   / auto), profile-driven resolution, the small-operator demotion, and
   per-call re-reads (no reimport needed).
2. **Bit-exactness** — the parallel row-partitioned kernels
   (:class:`~repro.graphblas.substrate.threads.ChunkedSpmv` everywhere,
   the prange lane where numba exists) produce byte-identical results
   to their serial twins for any thread count, signed zeros included;
   and the full solver's residual history is invariant under the
   toggle.
3. **The SpMV→waxpby fusion** — ``fused_spmv_waxpby`` is bit-identical
   to the unfused pair and declines (returns False) on every
   configuration it cannot serve.
4. **Hybrid dist execution** — ``execute_local=True`` measures a real
   node-local speedup, folds it into pricing only, and leaves residual
   histories untouched.

Plus the PR-8 schema bump: a v1 profile file fails with
:class:`~repro.tune.profile.ProfileVersionError`, never ``KeyError``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphblas as grb
from repro.dist.refdist import RefDistRun
from repro.graphblas import fused as fused_mod
from repro.graphblas.substrate import jit
from repro.graphblas.substrate import threads
from repro.tune import cache as tune_cache
from repro.tune import microbench
from repro.tune.profile import (
    MachineProfile,
    ProfileVersionError,
    synthetic_profile,
)
from repro.util.errors import InvalidValue

common = settings(max_examples=25,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)

needs_numba = pytest.mark.skipif(
    not jit.available(), reason="numba not installed (compiled lane off)")


# --- strategies --------------------------------------------------------------

@st.composite
def csr_and_vector(draw, max_n=24):
    """A random square CSR (possibly with empty rows, signed zeros) and
    a matching dense vector."""
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) * mask
    # sprinkle signed zeros among the stored entries
    if mask.any() and draw(st.booleans()):
        r, c = np.nonzero(mask)
        k = draw(st.integers(0, r.size - 1))
        vals[r[k], c[k]] = -0.0
    csr = sp.csr_matrix(vals)
    csr.sort_indices()
    x = rng.standard_normal(n)
    if draw(st.booleans()):
        x[rng.integers(0, n)] = -0.0
    return csr, x


# --- REPRO_THREADS policy ----------------------------------------------------

class TestThreadPolicy:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        assert threads.requested() is None      # auto
        assert threads.resolve() == 1           # no profile cached
        assert threads.effective() == 1
        assert threads.enabled()

    @pytest.mark.parametrize("value", ["0", "off", "no", "false", "OFF"])
    def test_kill_switch(self, monkeypatch, value):
        monkeypatch.setenv(threads.ENV_VAR, value)
        assert not threads.enabled()
        assert threads.requested() == 1
        assert threads.resolve() == 1
        assert threads.effective(1 << 30) == 1

    def test_explicit_count_honoured_verbatim(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "7")
        assert threads.requested() == 7
        assert threads.resolve() == 7
        # explicit counts ignore the small-operator demotion
        assert threads.effective(16) == 7

    @pytest.mark.parametrize("value", ["bogus", "-2", "1.5", "2 4"])
    def test_malformed_values_raise(self, monkeypatch, value):
        monkeypatch.setenv(threads.ENV_VAR, value)
        with pytest.raises(InvalidValue):
            threads.requested()

    def test_read_per_call(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "3")
        assert threads.resolve() == 3
        monkeypatch.setenv(threads.ENV_VAR, "0")
        assert threads.resolve() == 1

    def _install_profile(self, tmp_path, monkeypatch, **kwargs):
        monkeypatch.setenv(tune_cache.ENV_VAR, str(tmp_path))
        tune_cache.invalidate()
        tune_cache.save_profile(synthetic_profile(**kwargs))
        tune_cache.invalidate()

    def test_auto_resolves_from_profile(self, tmp_path, monkeypatch):
        self._install_profile(
            tmp_path, monkeypatch, half_sat_threads=4,
            thread_rates={"spmv": {"1": 1e9, "2": 1.7e9, "4": 2.5e9}})
        monkeypatch.setenv(threads.ENV_VAR, "auto")
        expected = max(1, min(4, os.cpu_count() or 1))
        assert threads.resolve() == expected
        tune_cache.invalidate()

    def test_auto_demotes_when_sweep_shows_no_gain(self, tmp_path,
                                                   monkeypatch):
        self._install_profile(
            tmp_path, monkeypatch, half_sat_threads=4,
            thread_rates={"spmv": {"1": 2e9, "4": 1.5e9}})
        monkeypatch.setenv(threads.ENV_VAR, "auto")
        assert threads.resolve() == 1
        tune_cache.invalidate()

    def test_auto_demotes_small_operators(self, tmp_path, monkeypatch):
        self._install_profile(
            tmp_path, monkeypatch, half_sat_threads=2,
            thread_rates={"spmv": {"1": 1e9, "2": 1.9e9}})
        monkeypatch.setenv(threads.ENV_VAR, "auto")
        if threads.resolve() > 1:   # needs a multi-core host
            assert threads.effective(threads.AUTO_MIN_BYTES - 1) == 1
            assert threads.effective(threads.AUTO_MIN_BYTES) > 1
        tune_cache.invalidate()

    def test_lane_name_matches_availability(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "0")
        assert threads.lane_name() in ("numpy", "jit")
        monkeypatch.setenv(threads.ENV_VAR, "4")
        expected = ("jit-parallel" if jit.parallel_available() else
                    "jit" if jit.available() else "numpy")
        assert threads.lane_name() == expected


# --- bit-exactness of the chunked parallel kernel ----------------------------

class TestChunkedSpmv:
    @common
    @given(csr_and_vector())
    def test_bit_identical_to_serial_for_any_chunking(self, case):
        csr, x = case
        with threads.ChunkedSpmv(csr, 1) as serial:
            expect = serial(x)
        for nthreads in (2, 3, 5, 8):
            with threads.ChunkedSpmv(csr, nthreads) as kernel:
                got = kernel(x)
            assert got.tobytes() == expect.tobytes()

    def test_matches_scipy_matvec(self, rng):
        csr = sp.random(97, 97, density=0.2, format="csr",
                        random_state=np.random.RandomState(3))
        csr.sort_indices()
        x = rng.standard_normal(97)
        with threads.ChunkedSpmv(csr, 4) as kernel:
            assert kernel(x).tobytes() == (csr @ x).tobytes()

    def test_signed_zero_rows_preserved(self):
        # a row of exact cancellations must keep csr_matvec's +0.0,
        # and an all-(-0.0) row its -0.0, in parallel too
        csr = sp.csr_matrix(np.array([
            [1.0, -1.0, 0.0],
            [0.0, 0.0, -0.0],
            [2.0, 0.0, 3.0],
        ]))
        x = np.ones(3)
        with threads.ChunkedSpmv(csr, 1) as serial, \
                threads.ChunkedSpmv(csr, 3) as par:
            assert serial(x).tobytes() == par(x).tobytes()

    def test_rejects_mismatched_operands(self):
        from repro.util.errors import DimensionMismatch

        csr = sp.csr_matrix(np.eye(8))
        with threads.ChunkedSpmv(csr, 2) as kernel:
            with pytest.raises(DimensionMismatch):
                kernel(np.ones(5))                    # short input
            with pytest.raises(DimensionMismatch):
                kernel(np.ones(8), out=np.empty(3))   # short output

    def test_worker_exceptions_propagate(self, monkeypatch):
        csr = sp.csr_matrix(np.eye(8))
        with threads.ChunkedSpmv(csr, 2) as kernel:
            def boom(block, x, out):
                raise RuntimeError("worker failed")

            monkeypatch.setattr(kernel, "_run_block", boom)
            with pytest.raises(RuntimeError):
                kernel(np.ones(8))

    def test_rejects_bad_thread_count(self):
        with pytest.raises(InvalidValue):
            threads.ChunkedSpmv(sp.csr_matrix(np.eye(2)), 0)


# --- the toggle across providers and the full solver -------------------------

class TestSolverToggleInvariance:
    @pytest.mark.parametrize("fmt", ["csr", "sellcs", "blocked"])
    def test_provider_mxv_invariant_under_toggle(self, problem8,
                                                 monkeypatch, fmt):
        A = grb.Matrix.from_coo(*problem8.A.to_coo(),
                                problem8.n, problem8.n, substrate=fmt)
        x = grb.Vector.from_dense(
            np.random.default_rng(5).standard_normal(problem8.n))
        y = grb.Vector.dense(problem8.n)
        results = {}
        for value in ("0", "1", "2", "4"):
            monkeypatch.setenv(threads.ENV_VAR, value)
            grb.mxv(y, None, A, x)
            results[value] = y.to_dense().tobytes()
        assert len(set(results.values())) == 1

    def test_residual_history_invariant_under_toggle(self, monkeypatch):
        from repro.hpcg.driver import run_hpcg

        histories = {}
        for value in ("0", "2"):
            monkeypatch.setenv(threads.ENV_VAR, value)
            histories[value] = run_hpcg(8, max_iters=6,
                                        mg_levels=2).cg.residuals
        assert histories["0"] == histories["2"]


# --- the prange lane (compiled, numba hosts only) ----------------------------

@needs_numba
class TestPrangeKernels:   # pragma: no cover - exercised on numba hosts
    def test_parallel_csr_mxv_bit_identical(self, problem8):
        csr = problem8.A.to_scipy(copy=False).tocsr()
        csr.sort_indices()
        x = np.random.default_rng(9).standard_normal(problem8.n)
        serial = jit.csr_mxv(csr, x, nthreads=1)
        parallel = jit.csr_mxv(csr, x, nthreads=2)
        assert serial.tobytes() == parallel.tobytes()

    def test_parallel_fused_waxpby_bit_identical(self, problem8):
        csr = problem8.A.to_scipy(copy=False).tocsr()
        csr.sort_indices()
        rng = np.random.default_rng(10)
        z = rng.standard_normal(problem8.n)
        v = rng.standard_normal(problem8.n)
        outs = []
        for nthreads in (1, 2):
            out = np.empty(problem8.n)
            jit.csr_mxv_waxpby(csr, z, 1.5, v, -0.5, out,
                               nthreads=nthreads)
            outs.append(out.tobytes())
        assert outs[0] == outs[1]


# --- the SpMV→waxpby fusion --------------------------------------------------

class TestFusedSpmvWaxpby:
    def _unfused(self, alpha, x, beta, A, z):
        w = grb.Vector.dense(A.nrows)
        grb.mxv(w, None, A, z)
        grb.waxpby(w, alpha, x, beta, w)
        return w.to_dense()

    def test_bit_identical_to_unfused_pair(self, problem8):
        rng = np.random.default_rng(21)
        x = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        w = grb.Vector.dense(problem8.n)
        assert fused_mod.fused_spmv_waxpby(w, 1.0, x, -1.0, problem8.A, z)
        expect = self._unfused(1.0, x, -1.0, problem8.A, z)
        assert w.to_dense().tobytes() == expect.tobytes()

    def test_bit_identical_under_parallel_lane(self, problem8,
                                               monkeypatch):
        rng = np.random.default_rng(22)
        x = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        outs = {}
        for value in ("1", "4"):
            monkeypatch.setenv(threads.ENV_VAR, value)
            w = grb.Vector.dense(problem8.n)
            assert fused_mod.fused_spmv_waxpby(
                w, 2.0, x, 0.5, problem8.A, z)
            outs[value] = w.to_dense().tobytes()
        assert outs["1"] == outs["4"]

    def test_declines_on_kill_switch(self, problem8, monkeypatch):
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        w = grb.Vector.dense(problem8.n)
        z = grb.Vector.dense(problem8.n, 1.0)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, w, -1.0, problem8.A, z)

    def test_declines_on_aliased_product_input(self, problem8):
        w = grb.Vector.dense(problem8.n, 1.0)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, w, -1.0, problem8.A, w)   # w is z

    def test_declines_on_sparse_vector(self, problem8):
        w = grb.Vector.dense(problem8.n)
        z = grb.Vector.sparse(problem8.n)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, problem8.b, -1.0, problem8.A, z)

    def test_declines_on_size_mismatch(self, problem8):
        w = grb.Vector.dense(problem8.n + 1)
        z = grb.Vector.dense(problem8.n, 1.0)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, w, -1.0, problem8.A, z)

    def test_declines_on_empty_rows(self):
        # an empty operator row would change output presence semantics
        A = grb.Matrix.from_coo(np.array([0]), np.array([0]),
                                np.array([2.0]), 3, 3)
        w = grb.Vector.dense(3)
        x = grb.Vector.dense(3, 1.0)
        z = grb.Vector.dense(3, 1.0)
        assert not fused_mod.fused_spmv_waxpby(w, 1.0, x, -1.0, A, z)

    def test_cg_history_invariant_under_fusion_switch(self, monkeypatch):
        from repro.hpcg.driver import run_hpcg

        histories = {}
        for tag, value in (("fused", "1"), ("unfused", "0")):
            monkeypatch.setenv(fused_mod.ENV_FUSED, value)
            histories[tag] = run_hpcg(8, max_iters=6,
                                      mg_levels=2).cg.residuals
        assert histories["fused"] == histories["unfused"]


# --- the thread-sweep probe --------------------------------------------------

class TestThreadProbe:
    def test_sweep_counts_shape(self):
        counts = microbench._sweep_counts(microbench.SMOKE)
        assert counts[0] == 1
        assert counts == sorted(set(counts))
        assert counts[-1] <= max(os.cpu_count() or 1,
                                 microbench.SMOKE.thread_max)

    def test_probe_fits_profile_fields(self):
        half_sat, rates = microbench.measure_thread_scaling(
            microbench.SMOKE)
        assert half_sat >= 1
        assert "spmv" in rates
        assert "1" in rates["spmv"]
        assert all(rate > 0 for rate in rates["spmv"].values())

    def test_measure_populates_thread_fields(self, tmp_path, monkeypatch):
        monkeypatch.setenv(tune_cache.ENV_VAR, str(tmp_path))
        tune_cache.invalidate()
        profile = microbench.measure(microbench.SMOKE)
        assert profile.half_sat_threads >= 1
        assert profile.thread_rate("spmv", 1) is not None
        assert profile.thread_speedup() > 0
        assert "half-saturation threads" in profile.summary()
        tune_cache.invalidate()


# --- schema v2 ---------------------------------------------------------------

class TestProfileSchemaV2:
    def test_v1_profile_rejected_with_version_error(self):
        data = synthetic_profile().to_dict()
        del data["half_sat_threads"]
        del data["thread_rates"]
        data["schema_version"] = 1
        with pytest.raises(ProfileVersionError):
            MachineProfile.from_dict(data)

    def test_v1_file_rejected_cleanly(self, tmp_path):
        data = synthetic_profile().to_dict()
        del data["half_sat_threads"]
        del data["thread_rates"]
        data["schema_version"] = 1
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileVersionError):
            MachineProfile.load(str(path))

    def test_roundtrip_keeps_thread_fields(self):
        profile = synthetic_profile(
            half_sat_threads=2,
            thread_rates={"spmv": {"1": 1e9, "2": 1.8e9}})
        clone = MachineProfile.loads(profile.dumps())
        assert clone.dumps() == profile.dumps()
        assert clone.half_sat_threads == 2
        assert clone.thread_speedup() == pytest.approx(1.8)


# --- hybrid dist execution ---------------------------------------------------

class TestHybridDistExecution:
    def test_residuals_invariant_and_speedup_surfaced(self, problem8):
        priced = RefDistRun(problem8, nprocs=4,
                            mg_levels=2).run_cg(max_iters=6)
        hybrid = RefDistRun(problem8, nprocs=4, mg_levels=2,
                            execute_local=True,
                            node_threads=2).run_cg(max_iters=6)
        assert hybrid.residuals == priced.residuals
        assert hybrid.executed_local
        assert hybrid.node_threads == 2
        assert hybrid.node_speedup > 0.0
        assert not priced.executed_local
        assert priced.node_speedup == 1.0
        assert "hybrid: 2 node threads" in hybrid.summary()

    def test_speedup_scales_pricing_not_comm(self, problem8):
        runs = {}
        for speedup in (1.0, 2.0):
            run = RefDistRun(problem8, nprocs=4, mg_levels=2)
            run.node_speedup = speedup
            runs[speedup] = run.run_cg(max_iters=4)
        fast, slow = runs[2.0], runs[1.0]
        assert fast.residuals == slow.residuals
        assert fast.modelled_seconds < slow.modelled_seconds
        # wire time is *not* scaled: threads share the NIC
        assert fast.comm_seconds == pytest.approx(slow.comm_seconds)

    def test_auto_threads_without_profile_stays_serial(self, problem8,
                                                       monkeypatch):
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        result = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            execute_local=True).run_cg(max_iters=3)
        assert result.executed_local
        assert result.node_threads == 1
        assert result.node_speedup == 1.0

    def test_rejects_bad_node_threads(self, problem8):
        with pytest.raises(InvalidValue):
            RefDistRun(problem8, nprocs=2, execute_local=True,
                       node_threads=0)

    def test_metrics_and_manifest_record_hybrid(self, problem8):
        from repro import obs

        with obs.run(name="hybrid-test") as ctx:
            result = RefDistRun(problem8, nprocs=2, mg_levels=2,
                                execute_local=True,
                                node_threads=2).run_cg(max_iters=3)
        assert result.metrics["node_speedup"] == result.node_speedup
        dist_cfg = result.manifest["config"]["dist"]
        assert dist_cfg["execute_local"] is True
        assert dist_cfg["node_threads"] == 2
        assert dist_cfg["node_speedup"] == result.node_speedup
        assert any(s.name == "dist/hybrid_calibrate"
                   for s in ctx.tracer.spans)


# --- manifests and the driver flag -------------------------------------------

class TestThreadProvenance:
    def test_manifest_toggles_record_resolution(self, monkeypatch):
        from repro.obs import manifest

        monkeypatch.setenv(threads.ENV_VAR, "3")
        toggles = manifest.capture_toggles()
        assert toggles["threads_requested"] == 3
        assert toggles["threads_effective"] == 3
        monkeypatch.setenv(threads.ENV_VAR, "garbage")
        assert manifest.capture_toggles()["threads_requested"] == "invalid"

    def test_driver_threads_flag_sets_env(self, monkeypatch, capsys):
        from repro.hpcg import driver

        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        assert driver.main(["--nx", "8", "--iters", "2",
                            "--mg-levels", "2", "--threads", "2"]) == 0
        assert os.environ[threads.ENV_VAR] == "2"
        monkeypatch.delenv(threads.ENV_VAR, raising=False)

    def test_driver_rejects_malformed_threads_flag(self, monkeypatch,
                                                   capsys):
        from repro.hpcg import driver

        # rejected at the CLI boundary: exit 2 and one line, no traceback
        assert driver.main(
            ["--nx", "8", "--iters", "1", "--threads", "zap"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --threads:") and "'zap'" in err
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
