"""The Ref implementation: kernels, exact SYMGS, CG parity with ALP."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dist import Hybrid2DRun, HybridALPRun, RefDistRun
from repro.hpcg.cg import pcg
from repro.hpcg.driver import run_hpcg
from repro.hpcg.problem import generate_problem
from repro.ref import (
    RefRBGS,
    RefSymGS,
    build_ref_hierarchy,
    compute_dot,
    compute_spmv,
    compute_waxpby,
    ref_mg_vcycle,
    ref_pcg,
    run_ref_hpcg,
)
from repro.ref.cg import cg_iterations, cg_start
from repro.ref.kernels import compute_residual_norm
from repro.ref.multigrid import RefMGPreconditioner
from repro.util.errors import DimensionMismatch, InvalidValue


class TestKernels:
    def test_spmv(self, problem4, rng):
        A = problem4.A.to_scipy()
        x = rng.standard_normal(64)
        y = np.zeros(64)
        compute_spmv(y, A, x)
        np.testing.assert_allclose(y, A @ x)

    def test_spmv_size_check(self, problem4):
        with pytest.raises(DimensionMismatch):
            compute_spmv(np.zeros(3), problem4.A.to_scipy(), np.zeros(64))

    def test_waxpby_all_aliases(self, rng):
        xv = rng.standard_normal(20)
        yv = rng.standard_normal(20)
        expected = 2.0 * xv - 3.0 * yv
        w = np.zeros(20)
        compute_waxpby(w, 2.0, xv.copy(), -3.0, yv.copy())
        np.testing.assert_allclose(w, expected)
        x2 = xv.copy()
        compute_waxpby(x2, 2.0, x2, -3.0, yv.copy())
        np.testing.assert_allclose(x2, expected)
        y2 = yv.copy()
        compute_waxpby(y2, 2.0, xv.copy(), -3.0, y2)
        np.testing.assert_allclose(y2, expected)

    def test_waxpby_size_check(self):
        with pytest.raises(DimensionMismatch):
            compute_waxpby(np.zeros(2), 1.0, np.zeros(3), 1.0, np.zeros(2))

    def test_dot(self, rng):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        assert compute_dot(x, y) == pytest.approx(float(x @ y))

    def test_dot_size_check(self):
        with pytest.raises(DimensionMismatch):
            compute_dot(np.zeros(2), np.zeros(3))

    def test_residual_norm(self, problem4):
        b = problem4.b.to_dense()
        x = np.ones(64)
        assert compute_residual_norm(problem4.A.to_scipy(), b, x) == pytest.approx(
            0.0, abs=1e-10
        )


class TestRefSymGS:
    def test_exact_sequential_semantics(self, rng):
        """Compare the triangular-solve sweep against an explicit
        row-by-row Python loop (the textbook definition)."""
        n = 30
        dense = rng.standard_normal((n, n)) * 0.1
        np.fill_diagonal(dense, 5.0)
        A = sp.csr_matrix(dense)
        r = rng.standard_normal(n)
        smoother = RefSymGS(A)
        z_fast = rng.standard_normal(n)
        z_loop = z_fast.copy()
        smoother.forward(z_fast, r)
        for i in range(n):  # textbook Gauss-Seidel
            acc = r[i]
            for j in range(n):
                if j != i:
                    acc -= dense[i, j] * z_loop[j]
            z_loop[i] = acc / dense[i, i]
        np.testing.assert_allclose(z_fast, z_loop, rtol=1e-10)

    def test_backward_is_reverse_order(self, rng):
        n = 20
        dense = rng.standard_normal((n, n)) * 0.1
        np.fill_diagonal(dense, 5.0)
        A = sp.csr_matrix(dense)
        r = rng.standard_normal(n)
        smoother = RefSymGS(A)
        z_fast = np.zeros(n)
        smoother.backward(z_fast, r)
        z_loop = np.zeros(n)
        for i in range(n - 1, -1, -1):
            acc = r[i]
            for j in range(n):
                if j != i:
                    acc -= dense[i, j] * z_loop[j]
            z_loop[i] = acc / dense[i, i]
        np.testing.assert_allclose(z_fast, z_loop, rtol=1e-10)

    def test_reduces_residual(self, problem8, rng):
        A = problem8.A.to_scipy()
        r = rng.standard_normal(problem8.n)
        z = np.zeros(problem8.n)
        RefSymGS(A).smooth(z, r)
        assert np.linalg.norm(r - A @ z) < np.linalg.norm(r)

    def test_rejects_zero_diagonal(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(InvalidValue):
            RefSymGS(A)

    def test_rejects_rectangular(self):
        with pytest.raises(InvalidValue):
            RefSymGS(sp.csr_matrix(np.ones((2, 3))))


class TestRefRBGS:
    def test_validates_colors(self, problem4):
        A = problem4.A.to_scipy()
        with pytest.raises(DimensionMismatch):
            RefRBGS(A, np.zeros(3, dtype=np.int64))

    def test_empty_color_class_is_a_noop_step(self, problem4, rng):
        """Thin coarse grids (1x1x2) leave lattice colours unused; the
        GraphBLAS smoother skips them through empty masks, and the
        reference must solve the same problems."""
        from repro.hpcg.coloring import lattice_coloring
        A = problem4.A.to_scipy()
        colors = lattice_coloring(problem4.grid)
        r = rng.standard_normal(problem4.n)
        dense = RefRBGS(A, colors).smooth(np.zeros(problem4.n), r)
        gapped = RefRBGS(A, 2 * colors)      # odd classes empty
        assert [rows.size for rows in gapped.color_rows[1::2]] == [0] * 7
        np.testing.assert_array_equal(
            gapped.smooth(np.zeros(problem4.n), r), dense)

    def test_smooth_reduces_residual(self, problem8, rng):
        from repro.hpcg.coloring import lattice_coloring
        A = problem8.A.to_scipy()
        r = rng.standard_normal(problem8.n)
        z = np.zeros(problem8.n)
        RefRBGS(A, lattice_coloring(problem8.grid)).smooth(z, r)
        assert np.linalg.norm(r - A @ z) < np.linalg.norm(r)


class TestRefMG:
    def test_hierarchy_sizes(self, problem8):
        top = build_ref_hierarchy(problem8, levels=3)
        assert [lvl.n for lvl in top.levels()] == [512, 64, 8]

    def test_symgs_smoother_option(self, problem8):
        top = build_ref_hierarchy(problem8, levels=2, smoother="symgs")
        assert isinstance(top.smoother, RefSymGS)

    def test_unknown_smoother(self, problem8):
        with pytest.raises(InvalidValue):
            build_ref_hierarchy(problem8, levels=2, smoother="sor")

    def test_vcycle_improves(self, problem8):
        top = build_ref_hierarchy(problem8, levels=3)
        A = problem8.A.to_scipy()
        b = problem8.b.to_dense()
        z = np.zeros(problem8.n)
        ref_mg_vcycle(top, z, b)
        assert np.linalg.norm(b - A @ z) < np.linalg.norm(b)


class TestParityWithALP:
    @staticmethod
    def assert_bit_equal(alp, ref):
        """Residual histories and solutions agree bit for bit: both
        solvers run the one CG loop, on their own kernels."""
        assert ([r.hex() for r in alp.cg.residuals]
                == [r.hex() for r in ref.cg.residuals])
        assert alp.cg.x.to_dense().tobytes() == ref.cg.x.tobytes()

    def test_identical_residual_histories(self, problem8):
        """The paper's precondition for comparing times: both
        implementations produce numerically comparable results."""
        alp = run_hpcg(nx=0, problem=problem8, max_iters=15, mg_levels=3,
                       validate_symmetry=False)
        ref = run_ref_hpcg(nx=0, problem=problem8, max_iters=15, mg_levels=3)
        self.assert_bit_equal(alp, ref)

    def test_thin_coarse_grid_matches_alp(self):
        """8x8x16 at four levels coarsens to 1x1x2, where six of the
        eight lattice colours are unused: both solvers must accept it."""
        problem = generate_problem(8, 8, 16)
        alp = run_hpcg(nx=0, problem=problem, max_iters=4, mg_levels=4,
                       validate_symmetry=False)
        ref = run_ref_hpcg(nx=0, problem=problem, max_iters=4, mg_levels=4)
        self.assert_bit_equal(alp, ref)

    def test_ref_cg_plain_matches_alp(self, problem8):
        alp = run_hpcg(nx=0, problem=problem8, max_iters=10, mg_levels=0,
                       validate_symmetry=False)
        ref = run_ref_hpcg(nx=0, problem=problem8, max_iters=10, mg_levels=0)
        self.assert_bit_equal(alp, ref)

    def test_ref_driver_breakdown(self, problem8):
        ref = run_ref_hpcg(nx=0, problem=problem8, max_iters=10, mg_levels=3)
        rows = ref.mg_level_breakdown()
        assert len(rows) == 3
        assert sum(r["rbgs"] for r in rows) > 0.3

    def test_ref_pcg_converges(self, problem8):
        A = problem8.A.to_scipy()
        precond = RefMGPreconditioner(build_ref_hierarchy(problem8, levels=3))
        x = np.zeros(problem8.n)
        res = ref_pcg(A, problem8.b.to_dense(), x, preconditioner=precond,
                      max_iters=100, tolerance=1e-9)
        assert res.converged
        np.testing.assert_allclose(x, np.ones(problem8.n), rtol=1e-5)


class TestSharedLoop:
    """``cg_iterations`` is the one raw-array CG loop: a checkpoint
    resumes it exactly, and every solver that runs it agrees with the
    GraphBLAS transcription bit for bit."""

    @staticmethod
    def run(problem, cg, preconditioner, max_iters=8):
        A = problem.A.to_scipy()
        spmv = lambda y, v: compute_spmv(y, A, v)  # noqa: E731
        if cg is None:
            cg = cg_start(spmv, compute_waxpby, compute_dot,
                          problem.b.to_dense(), problem.x0.to_dense())
        return cg_iterations(cg, spmv, compute_waxpby, compute_dot,
                             preconditioner, max_iters, 0.0)

    @pytest.mark.parametrize("use_mg", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_resuming_a_copy_reproduces_the_history(self, problem8, k,
                                                    use_mg):
        M = (RefMGPreconditioner(build_ref_hierarchy(problem8, levels=3))
             if use_mg else None)
        snapshot = None
        for cg in self.run(problem8, None, M):
            if cg.k == k:
                snapshot = cg.copy()
        assert cg.k == 8 and snapshot.k == k
        for resumed in self.run(problem8, snapshot, M):
            pass
        assert resumed is snapshot and resumed.k == 8
        assert ([r.hex() for r in resumed.residuals]
                == [r.hex() for r in cg.residuals])
        for name in ("x", "r", "p"):
            assert (getattr(resumed, name).tobytes()
                    == getattr(cg, name).tobytes()), name
        assert resumed.rtz.hex() == cg.rtz.hex()

    def test_unpreconditioned_histories_are_bit_equal(self):
        """Ten plain-CG iterations: Ref, the GraphBLAS transcription and
        the three simulated backends give the same bits."""
        problem = generate_problem(8, 16, 16)
        want = [r.hex() for r in ref_pcg(
            problem.A.to_scipy(), problem.b.to_dense(),
            problem.x0.to_dense(), max_iters=10).residuals]
        assert len(want) == 11
        got = pcg(problem.A, problem.b, problem.x0.dup(), max_iters=10)
        assert [r.hex() for r in got.residuals] == want
        for cls in (RefDistRun, HybridALPRun, Hybrid2DRun):
            run = cls(problem, 4, mg_levels=1)
            got = run.run_cg(max_iters=10, use_mg=False)
            assert [r.hex() for r in got.residuals] == want, cls.__name__
