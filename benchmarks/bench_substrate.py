"""Benchmarks of the wider GraphBLAS substrate surface.

Covers the storage-format providers head to head (SpMV and RBGS per
substrate, discovered through the provider registry, so the
format tradeoff is *measured*, not asserted), plus the operations HPCG
doesn't use but a standalone GraphBLAS release must perform sensibly:
matrix elementwise algebra, select, reductions-to-vector, graph
algorithms, parallel colouring, and the locally-executed halo spmv.
"""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.dist import Grid3DPartition, LocalSpmvExecutor
from repro.graphblas import selectops
from repro.graphblas import substrate
from repro.graphblas.algorithms import bfs_levels, pagerank, sssp
from repro.hpcg.coloring import (
    color_masks,
    greedy_coloring,
    jones_plassmann_coloring,
    lattice_coloring,
)
from repro.hpcg.smoothers import RBGSSmoother


@pytest.fixture(scope="module")
def A16(problem16):
    return problem16.A


# ---------------------------------------------------------------------------
# provider-parametrized format benchmarks (CSR vs SELL-C-σ vs blocked)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", substrate.available())
def bench_provider_spmv(benchmark, name, problem16, rhs16):
    """Full SpMV per storage format, bit-checked against the reference."""
    A = grb.Matrix.from_scipy(problem16.A.to_scipy(), substrate=name)
    assert A.substrate == name
    x = grb.Vector.from_dense(rhs16)
    y = grb.Vector.dense(problem16.n)
    benchmark(grb.mxv, y, None, A, x)
    want = grb.Vector.dense(problem16.n)
    grb.mxv(want, None, problem16.A, x)
    assert np.array_equal(y.to_dense(), want.to_dense())


@pytest.mark.parametrize("name", substrate.available())
def bench_provider_rbgs(benchmark, name, problem16, rhs16):
    """One symmetric RBGS sweep per format (the masked-mxv hot path)."""
    A = grb.Matrix.from_scipy(problem16.A.to_scipy(), substrate=name)
    colors = color_masks(lattice_coloring(problem16.grid))
    smoother = RBGSSmoother(A, problem16.A_diag, colors)
    r = grb.Vector.from_dense(rhs16)

    def sweep():
        z = grb.Vector.dense(problem16.n)
        smoother.smooth(z, r, sweeps=1)
        return z

    z = benchmark(sweep)
    ref = RBGSSmoother(problem16.A, problem16.A_diag, colors)
    z_ref = grb.Vector.dense(problem16.n)
    ref.smooth(z_ref, r, sweeps=1)
    assert np.array_equal(z.to_dense(), z_ref.to_dense())


@pytest.mark.parametrize("name", substrate.available())
def bench_provider_build(benchmark, name, problem16):
    """Format construction cost — what pinning a format pays up front."""
    csr = problem16.A.to_scipy()
    prov = benchmark(substrate.get(name), csr)
    assert prov.nnz == problem16.A.nvals


def bench_provider_bytes_reported(problem16, rhs16, bench_json, request):
    """Not a timing: assert the registry prices each format differently."""
    x = grb.Vector.from_dense(rhs16)
    totals = {}
    for name in substrate.available():
        A = grb.Matrix.from_scipy(problem16.A.to_scipy(), substrate=name)
        y = grb.Vector.dense(problem16.n)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            grb.mxv(y, None, A, x)
        totals[name] = log.total("bytes", fmt=name)
    assert len(set(totals.values())) == len(totals), totals
    bench_json.record(request.node.nodeid,
                      priced_bytes_per_format=totals)


def bench_select_tril(benchmark, A16):
    C = grb.Matrix.identity(A16.nrows)
    benchmark(grb.select, C, selectops.tril, A16)
    assert C.nvals < A16.nvals


def bench_ewise_add_matrix(benchmark, A16):
    C = grb.Matrix.identity(A16.nrows)
    benchmark(grb.ewise_add_matrix, C, A16, A16, grb.ops.plus)


def bench_reduce_rows(benchmark, A16):
    w = grb.Vector.sparse(A16.nrows)
    benchmark(grb.reduce_rows, w, A16, grb.plus_monoid)
    assert w.nvals == A16.nrows


def bench_mxm_coarse_permutation(benchmark, problem8):
    """The P' A P pattern of paper Section III-A at 8^3."""
    n = problem8.n
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    P = grb.Matrix.from_coo(np.arange(n), perm, np.ones(n), n, n)

    def sandwich():
        tmp = grb.Matrix.identity(n)
        grb.mxm(tmp, None, problem8.A, P)
        out = grb.Matrix.identity(n)
        grb.mxm(out, None, P, tmp, desc=grb.descriptors.transpose_matrix)
        return out

    out = benchmark(sandwich)
    assert out.nvals == problem8.A.nvals


def bench_bfs(benchmark, problem16):
    """BFS over the stencil graph (boolean semiring path)."""
    levels = benchmark(bfs_levels, problem16.A, 0)
    assert levels.max() > 0


def bench_sssp(benchmark, problem8):
    from repro.graphblas.select import apply_indexop
    # positive weights: |values| of the stencil
    W = grb.Matrix.identity(problem8.n)
    grb.apply_matrix(W, grb.ops.abs_, problem8.A)
    dist = benchmark(sssp, W, 0, 10)
    assert np.isfinite(dist[1])


def bench_pagerank(benchmark, problem8):
    W = grb.Matrix.identity(problem8.n)
    grb.apply_matrix(W, grb.ops.abs_, problem8.A)
    ranks, _ = benchmark(pagerank, W, 0.85, 1e-6, 50)
    assert ranks.sum() == pytest.approx(1.0, abs=1e-4)


def bench_greedy_coloring(benchmark, problem8):
    colors = benchmark(greedy_coloring, problem8.A)
    assert colors.max() == 7


def bench_jones_plassmann_coloring(benchmark, problem8):
    colors = benchmark(jones_plassmann_coloring, problem8.A, 1)
    assert colors.min() >= 0


def bench_local_halo_spmv(benchmark, problem16):
    """Per-node local spmv with explicit halo exchange (4 nodes)."""
    A = problem16.A.to_scipy(copy=False)
    part = Grid3DPartition(problem16.grid, 4)
    owners = part.owner(np.arange(problem16.n))
    ex = LocalSpmvExecutor(A, owners, 4)
    x = np.random.default_rng(0).standard_normal(problem16.n)
    y = benchmark(ex.spmv, x)
    np.testing.assert_allclose(y, A @ x)
