"""Eager vs. split-phase equivalence: the overlap engine changes
*when* communication is priced, never *what* is computed.

Property-based (hypothesis) suites assert bit-identical results between
``comm_mode="eager"`` and ``comm_mode="overlap"`` on random sparse
problems and random ownerships, plus the stencil problems the paper
actually runs — for the honest executors (SpMV, RBGS sweeps) and for
full CG+MG residual histories on all three simulated backends.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dist import (
    Grid3DPartition,
    Hybrid2DRun,
    HybridALPRun,
    RefDistRun,
    bfs_partition,
)
from repro.dist.bsp import ARM_CLUSTER_NODE
from repro.dist.comm import CommTracker
from repro.dist.halo import LocalRBGSExecutor, LocalSpmvExecutor
from repro.hpcg.coloring import lattice_coloring
from repro.hpcg.problem import generate_problem
from repro.ref.sgs import RefRBGS
from test_dist_vcycle import computed   # a solve that is not a replay

common = settings(max_examples=20,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


def _random_system(n: int, seed: int, density: float = 0.15):
    """A random sparse square matrix with a safe diagonal.

    The pattern is symmetrised (like every HPCG operator): greedy
    colouring only yields a Gauss-Seidel-valid colouring — no
    intra-colour reads — on symmetric patterns.
    """
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=density, random_state=rng,
                  format="csr", dtype=np.float64)
    A = M + M.T + sp.eye(n, format="csr") * (n + 1.0)
    A = A.tocsr()
    A.sort_indices()
    return A, rng


# --- honest executors on random problems ------------------------------------

class TestExecutorEquivalenceRandom:
    @common
    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           p=st.integers(1, 5))
    def test_spmv_bit_identical(self, n, seed, p):
        A, rng = _random_system(n, seed)
        owners = rng.integers(0, p, size=n)
        x = rng.standard_normal(n)
        y_eager = LocalSpmvExecutor(A, owners, p,
                                    comm_mode="eager").spmv(x)
        y_over = LocalSpmvExecutor(A, owners, p,
                                   comm_mode="overlap").spmv(x)
        np.testing.assert_array_equal(y_eager, y_over)
        np.testing.assert_array_equal(y_over, A @ x)

    @common
    @given(n=st.integers(4, 32), seed=st.integers(0, 2**32 - 1),
           p=st.integers(1, 4))
    def test_rbgs_smooth_bit_identical(self, n, seed, p):
        # a *valid* colouring (no intra-colour edges) — the same
        # precondition RBGS itself needs for order-independence, and
        # what makes the interior/boundary write order unobservable
        import repro.graphblas as grb
        from repro.hpcg.coloring import greedy_coloring
        A, rng = _random_system(n, seed)
        owners = rng.integers(0, p, size=n)
        colors = greedy_coloring(grb.Matrix.from_scipy(A))
        r = rng.standard_normal(n)
        z0 = rng.standard_normal(n)
        z_eager = z0.copy()
        LocalRBGSExecutor(A, owners, p, colors,
                          comm_mode="eager").smooth(z_eager, r, sweeps=2)
        z_over = z0.copy()
        LocalRBGSExecutor(A, owners, p, colors,
                          comm_mode="overlap").smooth(z_over, r, sweeps=2)
        np.testing.assert_array_equal(z_eager, z_over)

    @common
    @given(n=st.integers(4, 32), seed=st.integers(0, 2**32 - 1),
           p=st.integers(2, 4))
    def test_same_trace_shape_both_modes(self, n, seed, p):
        """Same bytes, same superstep count — only posted flags differ."""
        A, rng = _random_system(n, seed)
        owners = rng.integers(0, p, size=n)
        x = rng.standard_normal(n)
        traces = {}
        for mode in ("eager", "overlap"):
            tracker = CommTracker(p)
            LocalSpmvExecutor(A, owners, p, tracker=tracker,
                              comm_mode=mode).spmv(x)
            traces[mode] = tracker
        assert traces["eager"].num_syncs == traces["overlap"].num_syncs
        assert traces["eager"].total_bytes == traces["overlap"].total_bytes
        assert all(not s.posted for s in traces["eager"].supersteps)
        assert all(s.posted for s in traces["overlap"].supersteps)


# --- honest executors on stencil problems -----------------------------------

class TestExecutorEquivalenceStencil:
    @pytest.fixture(scope="class")
    def stencil(self):
        problem = generate_problem(8)
        A = problem.A.to_scipy()
        colors = lattice_coloring(problem.grid)
        geo = Grid3DPartition(problem.grid, 4).owner(np.arange(problem.n))
        bfs = bfs_partition(A.indptr, A.indices, problem.n, 4)
        return problem, A, colors, {"geo": geo, "bfs": bfs}

    @pytest.mark.parametrize("ownership", ["geo", "bfs"])
    def test_spmv_matches_global(self, stencil, rng, ownership):
        problem, A, _colors, owners = stencil
        x = rng.standard_normal(problem.n)
        y = LocalSpmvExecutor(A, owners[ownership], 4,
                              comm_mode="overlap").spmv(x)
        np.testing.assert_array_equal(y, A @ x)

    @pytest.mark.parametrize("ownership", ["geo", "bfs"])
    def test_rbgs_matches_shared_memory(self, stencil, rng, ownership):
        problem, A, colors, owners = stencil
        r = rng.standard_normal(problem.n)
        z = np.zeros(problem.n)
        LocalRBGSExecutor(A, owners[ownership], 4, colors,
                          comm_mode="overlap").smooth(z, r, sweeps=2)
        z_ref = np.zeros(problem.n)
        RefRBGS(A, colors).smooth(z_ref, r, sweeps=2)
        np.testing.assert_array_equal(z, z_ref)

    def test_interior_rows_really_are_interior(self, stencil):
        """The split is sound: no interior row references a halo col."""
        problem, A, _colors, owners = stencil
        ex = LocalSpmvExecutor(A, owners["geo"], 4, comm_mode="overlap")
        for node, split in zip(ex.nodes, ex._node_splits()):
            col_owner = ex.owners[node.cols]
            sub = node.local_matrix[split.interior_sel, :]
            assert (col_owner[sub.indices] == node.rank).all()

    def test_rows_touching_remote_is_a_per_row_any(self):
        """Rectangular shapes, empty rows (leading, trailing, all), no
        entries and no rows: the answer is ``any`` over each row's flags."""
        from repro.dist.cost import rows_touching_remote

        rng = np.random.default_rng(5)
        for _ in range(200):
            n, m = int(rng.integers(0, 25)), int(rng.integers(1, 25))
            A = sp.random(n, m, density=rng.uniform(0.0, 0.3), format="csr",
                          random_state=int(rng.integers(1 << 30)))
            flags = rng.random(A.nnz) < rng.uniform(0.0, 1.0)
            want = [bool(flags[A.indptr[i]:A.indptr[i + 1]].any())
                    for i in range(n)]
            got = rows_touching_remote(A, flags)
            assert got.dtype == bool and got.tolist() == want

    def test_overlap_work_tagged_on_trace(self, stencil, rng):
        problem, A, colors, owners = stencil
        tracker = CommTracker(4)
        ex = LocalRBGSExecutor(A, owners["geo"], 4, colors,
                               tracker=tracker, comm_mode="overlap")
        z = np.zeros(problem.n)
        ex.sweep(z, rng.standard_normal(problem.n))
        tagged = [s for s in tracker.supersteps if s.overlapped_work > 0]
        # every exchange except the sweep's last has a successor colour
        assert len(tagged) == ex.ncolors - 1


# --- full simulated backends -------------------------------------------------

BACKENDS = [
    pytest.param(RefDistRun, {}, id="ref-3d"),
    pytest.param(RefDistRun, {"partition": "bfs"}, id="ref-bfs"),
    pytest.param(HybridALPRun, {}, id="alp-1d"),
    pytest.param(Hybrid2DRun, {}, id="alp-2d"),
]


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def dist_problem(self):
        return generate_problem(8, 16, 16)

    @pytest.mark.parametrize("cls,kwargs", BACKENDS)
    def test_residuals_bit_identical(self, dist_problem, cls, kwargs):
        eager = computed(cls(dist_problem, nprocs=4, mg_levels=3,
                             comm_mode="eager", **kwargs), max_iters=4)
        over = computed(cls(dist_problem, nprocs=4, mg_levels=3,
                            comm_mode="overlap", **kwargs), max_iters=4)
        np.testing.assert_array_equal(eager.residuals, over.residuals)

    @pytest.mark.parametrize("cls,kwargs", BACKENDS)
    def test_same_bytes_same_supersteps(self, dist_problem, cls, kwargs):
        eager = cls(dist_problem, nprocs=4, mg_levels=3,
                    comm_mode="eager", **kwargs).run_cg(max_iters=2)
        over = cls(dist_problem, nprocs=4, mg_levels=3,
                   comm_mode="overlap", **kwargs).run_cg(max_iters=2)
        assert eager.comm_bytes == over.comm_bytes
        assert eager.syncs == over.syncs

    @pytest.mark.parametrize("cls,kwargs", BACKENDS)
    def test_overlap_never_slower(self, dist_problem, cls, kwargs):
        eager = cls(dist_problem, nprocs=4, mg_levels=3,
                    comm_mode="eager", **kwargs).run_cg(max_iters=2)
        over = cls(dist_problem, nprocs=4, mg_levels=3,
                   comm_mode="overlap", **kwargs).run_cg(max_iters=2)
        assert over.modelled_seconds <= eager.modelled_seconds
        assert over.exposed_comm_seconds <= over.comm_seconds
        assert eager.hidden_comm_seconds == pytest.approx(0.0)
        # eager hides nothing, and both modes move the same wire time
        assert eager.exposed_comm_seconds == pytest.approx(eager.comm_seconds)
        assert over.comm_seconds == pytest.approx(eager.comm_seconds)

    def test_ref_backend_hides_wire_time(self, dist_problem):
        """The geometric halos genuinely overlap: hidden time > 0."""
        over = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                          comm_mode="overlap").run_cg(max_iters=2)
        assert over.hidden_comm_seconds > 0.0
        assert over.exposed_comm_seconds < over.comm_seconds

    def test_alp_cannot_hide(self, dist_problem):
        """Opaque block-cyclic containers leave no interior rows: the
        allgather stays fully exposed — the paper's §VI point."""
        over = HybridALPRun(dist_problem, nprocs=4, mg_levels=3,
                            comm_mode="overlap").run_cg(max_iters=2)
        assert over.hidden_comm_seconds == pytest.approx(0.0)

    def test_overlap_efficiency_knob(self, dist_problem):
        """The machine's efficiency is the one knob: at 0.0 nothing
        hides, and the posted run prices as the eager one."""
        full = RefDistRun(dist_problem, nprocs=4, mg_levels=2,
                          comm_mode="overlap").run_cg(max_iters=2)
        none = RefDistRun(dist_problem, nprocs=4, mg_levels=2,
                          machine=dataclasses.replace(
                              ARM_CLUSTER_NODE, overlap_efficiency=0.0),
                          comm_mode="overlap").run_cg(max_iters=2)
        eager = RefDistRun(dist_problem, nprocs=4, mg_levels=2,
                           comm_mode="eager").run_cg(max_iters=2)
        assert none.modelled_seconds == pytest.approx(eager.modelled_seconds)
        assert full.modelled_seconds < none.modelled_seconds
        assert none.hidden_comm_seconds == pytest.approx(0.0)

    def test_exposed_comm_breakdown(self, dist_problem):
        over = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                          comm_mode="overlap").run_cg(max_iters=2)
        rows = over.exposed_comm_breakdown()
        assert len(rows) == 3
        for row in rows:
            assert row["exposed"] <= row["full"]
            assert row["hidden"] == pytest.approx(
                row["full"] - row["exposed"])
        assert sum(r["hidden"] for r in rows) > 0.0
        assert rows[0]["hidden"] > 0.0   # the finest level hides wire time

    def test_env_force_applies(self, dist_problem, monkeypatch):
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        run = RefDistRun(dist_problem, nprocs=4, mg_levels=2)
        assert run.comm_mode == "overlap"
        res = run.run_cg(max_iters=1)
        assert res.comm_mode == "overlap"
        assert "[overlap:" in res.summary()

