"""The shared-memory parallel lane: switch, kernels, fusion.

Three contracts under test:

1. **Switch** — ``REPRO_THREADS`` parsing (unset / kill switch /
   explicit count), malformed values, and per-call re-reads (no
   reimport needed).
2. **Bit-exactness** — the parallel row-partitioned kernels (the prange
   lane, where numba exists) produce byte-identical results to their
   serial twins for any thread count; and the full solver's residual
   history is invariant under the toggle.
3. **The SpMV→waxpby fusion** — ``fused_spmv_waxpby`` is bit-identical
   to the unfused pair and declines (returns False) on every
   configuration it cannot serve.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro import graphblas as grb
from repro.graphblas import fused as fused_mod
from repro.graphblas.substrate import jit
from repro.graphblas.substrate import threads
from repro.util.errors import InvalidValue

needs_numba = pytest.mark.skipif(
    not jit.available(), reason="numba not installed (compiled lane off)")


# --- REPRO_THREADS switch ----------------------------------------------------

class TestThreadPolicy:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        assert threads.requested() is None
        assert threads.resolve() == 1
        assert threads.enabled()

    @pytest.mark.parametrize("value", ["0", "off", "no", "false", "OFF"])
    def test_kill_switch(self, monkeypatch, value):
        monkeypatch.setenv(threads.ENV_VAR, value)
        assert not threads.enabled()
        assert threads.requested() == 1
        assert threads.resolve() == 1

    def test_explicit_count_honoured_verbatim(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "7")
        assert threads.requested() == 7
        assert threads.resolve() == 7

    @pytest.mark.parametrize("value", ["bogus", "-2", "1.5", "2 4", "auto"])
    def test_malformed_values_raise(self, monkeypatch, value):
        monkeypatch.setenv(threads.ENV_VAR, value)
        with pytest.raises(InvalidValue):
            threads.requested()

    def test_read_per_call(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "3")
        assert threads.resolve() == 3
        monkeypatch.setenv(threads.ENV_VAR, "0")
        assert threads.resolve() == 1

    def test_lane_name_matches_availability(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "0")
        assert threads.lane_name() in ("numpy", "jit")
        monkeypatch.setenv(threads.ENV_VAR, "4")
        expected = ("jit-parallel" if jit.parallel_available() else
                    "jit" if jit.available() else "numpy")
        assert threads.lane_name() == expected


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

    @pytest.mark.parametrize("kind", ["random", "signed-zeros", "huge"])
    def test_residual_coefficients_match_the_general_expression(self, kind):
        """``(alpha, beta) = (1.0, -1.0)`` runs as one subtract; the
        general multiply-then-add expression must give the same bits,
        zero signs included, wherever no NaN is involved."""
        rng = np.random.default_rng(23)
        n = 257
        if kind == "random":
            xv, zv = rng.standard_normal(n), rng.standard_normal(n)
        elif kind == "signed-zeros":
            # every pairing of +-0.0 and a nonzero, cancellations included
            xv = rng.choice([0.0, -0.0, 1.5, -1.5], n)
            zv = rng.choice([0.0, -0.0, 1.5, -1.5], n)
        else:
            # huge but finite: differences that overflow to +-inf, and
            # exact cancellations at the top of the range
            big = np.finfo(np.float64).max
            xv = rng.choice([big, -big, big / 2, 1e-300, -0.0], n)
            zv = rng.choice([big, -big, big / 2, -1e-300, 0.0], n)
        # A = I, entries 1.0: the product is s = +0.0 + 1.0 * z
        A = grb.Matrix.from_scipy(sp.identity(n, format="csr"))
        w = grb.Vector.dense(n)
        s = 0.0 + 1.0 * zv
        with np.errstate(over="ignore"):
            assert fused_mod.fused_spmv_waxpby(
                w, 1.0, grb.Vector.from_dense(xv), -1.0, A,
                grb.Vector.from_dense(zv))
            want = np.multiply(xv, 1.0)
            want += -1.0 * s
        got = w.to_dense()
        assert not np.isnan(want).any()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # and a negative-zero product, which no accumulation from +0.0
        # yields: the identity the shortcut rests on, at the ufunc level
        s = np.where(rng.random(n) < 0.5, -0.0, s)
        with np.errstate(over="ignore"):
            general = np.multiply(xv, 1.0) + -1.0 * s
            special = np.subtract(xv, s)
        assert np.array_equal(special, general)
        assert np.array_equal(np.signbit(special), np.signbit(general))

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
        """``--threads`` is ``REPRO_THREADS`` for the run only: set while
        ``main`` solves, back to the caller's value when it returns."""
        from repro.hpcg import driver

        seen = []
        run_hpcg = driver.run_hpcg

        def spy(*args, **kwargs):
            seen.append(os.environ.get(threads.ENV_VAR))
            return run_hpcg(*args, **kwargs)

        monkeypatch.setattr(driver, "run_hpcg", spy)
        for before in (None, "3"):
            if before is None:
                monkeypatch.delenv(threads.ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(threads.ENV_VAR, before)
            assert driver.main(["--nx", "8", "--iters", "1",
                                "--mg-levels", "2", "--threads", "2"]) == 0
            assert os.environ.get(threads.ENV_VAR) == before
        assert seen == ["2", "2"]

    def test_driver_rejects_malformed_threads_flag(self, monkeypatch,
                                                   capsys):
        from repro.hpcg import driver

        # rejected at the CLI boundary: exit 2 and one line, no traceback
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        for value in ("zap", "auto"):
            assert driver.main(
                ["--nx", "8", "--iters", "1", "--threads", value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --threads:") and repr(value) in err
            assert err.count("\n") == 1
            assert threads.ENV_VAR not in os.environ
        # the same value arriving through the environment
        monkeypatch.setenv(threads.ENV_VAR, "auto")
        assert driver.main(["--nx", "8", "--iters", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_THREADS") and "'auto'" in err
        assert err.count("\n") == 1
