"""The CG solver: convergence, fixed-iteration mode, preconditioning."""

import tracemalloc

import numpy as np
import pytest

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_mod
from repro.graphblas import substrate
from repro.hpcg.cg import CGWorkspace, pcg
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.util.errors import DimensionMismatch, OutputAliasing
from repro.util.timer import TimerRegistry


class TestPlainCG:
    def test_converges_to_exact(self, problem8):
        x = problem8.x0.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=200, tolerance=1e-10)
        assert res.converged
        np.testing.assert_allclose(x.to_dense(), np.ones(problem8.n),
                                   rtol=1e-6)

    def test_matches_scipy_solution(self, problem4, rng):
        import scipy.sparse.linalg as spla
        b = rng.standard_normal(problem4.n)
        bx = grb.Vector.from_dense(b)
        x = grb.Vector.dense(problem4.n, 0.0)
        pcg(problem4.A, bx, x, max_iters=300, tolerance=1e-12)
        expected = spla.spsolve(problem4.A.to_scipy().tocsc(), b)
        np.testing.assert_allclose(x.to_dense(), expected, rtol=1e-6)

    def test_residual_history_monotone_overall(self, problem8):
        x = problem8.x0.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=20)
        assert res.residuals[-1] < res.residuals[0]

    def test_fixed_iterations_mode(self, problem8):
        x = problem8.x0.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=7, tolerance=0.0)
        assert res.iterations == 7
        assert not res.converged  # convergence flag needs a tolerance
        assert len(res.residuals) == 8  # initial + one per iteration

    def test_tolerance_early_exit(self, problem8):
        x = problem8.x0.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=500, tolerance=1e-6)
        assert res.converged and res.iterations < 500
        assert res.relative_residual <= 1e-6

    def test_size_checks(self, problem4):
        with pytest.raises(DimensionMismatch):
            pcg(problem4.A, grb.Vector.dense(3), problem4.x0.dup())


class TestPreconditionedCG:
    def test_mg_reduces_iterations(self, problem16):
        tol = 1e-8
        x1 = problem16.x0.dup()
        plain = pcg(problem16.A, problem16.b, x1, max_iters=500, tolerance=tol)
        precond = MGPreconditioner(build_hierarchy(problem16, levels=4))
        x2 = problem16.x0.dup()
        mg = pcg(problem16.A, problem16.b, x2, preconditioner=precond,
                 max_iters=500, tolerance=tol)
        assert mg.converged and plain.converged
        assert mg.iterations < plain.iterations

    def test_mg_solution_correct(self, problem8):
        precond = MGPreconditioner(build_hierarchy(problem8, levels=3))
        x = problem8.x0.dup()
        pcg(problem8.A, problem8.b, x, preconditioner=precond,
            max_iters=100, tolerance=1e-10)
        np.testing.assert_allclose(x.to_dense(), np.ones(problem8.n),
                                   rtol=1e-6)

    def test_timers_populated(self, problem8):
        timers = TimerRegistry()
        precond = MGPreconditioner(build_hierarchy(problem8, levels=2),
                                   timers=timers)
        x = problem8.x0.dup()
        pcg(problem8.A, problem8.b, x, preconditioner=precond,
            max_iters=3, timers=timers)
        assert timers.total("cg/spmv") > 0
        assert timers.total("cg/dot") > 0
        assert timers.total("cg/mg") > 0
        assert timers.total("mg/L0/rbgs") > 0

    def test_exact_initial_guess_short_circuits(self, problem8):
        x = problem8.exact.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=3, tolerance=1e-8)
        assert res.normr0 == pytest.approx(0.0, abs=1e-9)
        assert res.converged and res.iterations == 0


class TestCGResult:
    def test_relative_residual(self, problem8):
        x = problem8.x0.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=5)
        assert res.relative_residual == pytest.approx(
            res.normr / res.normr0
        )

    def test_x_is_inplace(self, problem8):
        x = problem8.x0.dup()
        res = pcg(problem8.A, problem8.b, x, max_iters=5)
        assert res.x is x


class TestTimerCounts:
    @pytest.mark.parametrize("fused", ["1", "0"])
    def test_one_scope_per_kernel_call(self, problem8, monkeypatch, fused):
        """``k`` preconditioned iterations enter ``cg/mg`` k times,
        ``cg/spmv`` k + 1, ``cg/dot`` 3k + 1 and ``cg/waxpby`` 3k, plus
        one for the initial residual when the fused pass is off: one
        scope per kernel call, as the simulated engine books them."""
        monkeypatch.setenv(fused_mod.ENV_FUSED, fused)
        timers = TimerRegistry()
        M = MGPreconditioner(build_hierarchy(problem8, levels=2))
        k = 4
        res = pcg(problem8.A, problem8.b, problem8.x0.dup(),
                  preconditioner=M, max_iters=k, timers=timers)
        assert res.iterations == k
        counts = {name: calls for name, (_, calls)
                  in timers.as_dict(counts=True).items()}
        assert counts == {"cg/mg": k, "cg/spmv": k + 1, "cg/dot": 3 * k + 1,
                          "cg/waxpby": 3 * k + (fused == "0")}


class TestWorkspaceAliasing:
    @pytest.mark.parametrize("role", ["x", "b"])
    @pytest.mark.parametrize("name", ["r", "z", "p", "Ap"])
    def test_workspace_vector_refused_before_any_work(self, problem8, role,
                                                      name):
        """A work vector overwritten under the solver's feet used to
        return a wrong history without an error."""
        ws = CGWorkspace(problem8.n)
        vec = getattr(ws, name)
        vec.fill(0.0)
        args = {"b": problem8.b.dup(), "x": problem8.x0.dup(), role: vec}
        before = vec.to_dense()
        with pytest.raises(OutputAliasing,
                           match=f"pcg {role} is workspace.{name}$"):
            pcg(problem8.A, args["b"], args["x"], max_iters=5, workspace=ws)
        assert np.array_equal(vec.to_dense(), before)


@pytest.mark.skipif(substrate.registry.forced() is not None,
                    reason="the V-cycle plan binds to CSR colour-major sweeps")
class TestCostGuards:
    """A warm preconditioned solve pays for its arithmetic: labels,
    spans and plan checks are resolved once per solve, and every product
    lands in a vector the solve already holds."""

    @pytest.fixture(autouse=True)
    def armed(self, monkeypatch):
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)

    @staticmethod
    def warm(nx, iters=3):
        problem = generate_problem(nx)
        timers = TimerRegistry()
        M = MGPreconditioner(build_hierarchy(problem, levels=3),
                             timers=timers)
        ws, x = CGWorkspace(problem.n), problem.x0.dup()

        def solve():
            x.fill(0.0)
            return pcg(problem.A, problem.b, x, preconditioner=M,
                       max_iters=iters, timers=timers, workspace=ws)
        solve()
        solve()
        return problem, solve

    def test_python_calls_do_not_grow_with_the_grid(self, python_calls):
        """Three warm iterations are 1407 calls at either size (1349
        before CG ran the shared loop over per-kernel wrappers; 2265
        while every backend label, span and V-cycle name was resolved
        per use and the product went through a fresh vector)."""
        counts = {}
        for nx in (8, 16):
            _, solve = self.warm(nx)
            with obs.disabled():
                counts[nx] = python_calls(solve)
        assert counts[16] <= counts[8] <= 1477

    @pytest.mark.parametrize("nx", [16, 24])
    def test_warm_solve_holds_at_most_one_vector(self, nx):
        """``x + alpha p`` forms one ``n``-vector temporary; the product
        used to hold two (scipy's result and the merge's copy)."""
        problem, solve = self.warm(nx)
        with obs.disabled():
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                solve()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= problem.n * 8 + 16 * 1024

    def test_trace_switch_is_read_once_per_solve(self, python_calls):
        """One read per iteration span and per preconditioner
        application before."""
        _, solve = self.warm(8)
        assert python_calls(solve,
                            obs.context.trace_env_enabled.__code__) <= 1
