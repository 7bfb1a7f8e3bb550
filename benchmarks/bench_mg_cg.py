"""End-to-end benchmarks: the V-cycle and full HPCG iterations, ALP vs Ref."""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.hpcg.cg import pcg
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy, mg_vcycle
from repro.hpcg.problem import generate_problem
from repro.ref.cg import ref_pcg
from repro.ref.multigrid import RefMGPreconditioner, build_ref_hierarchy, ref_mg_vcycle


@pytest.fixture(scope="module")
def hierarchies(problem16):
    return (
        build_hierarchy(problem16, levels=4),
        build_ref_hierarchy(problem16, levels=4),
    )


def bench_vcycle_alp(benchmark, problem16, hierarchies):
    top, _ = hierarchies
    z = grb.Vector.dense(problem16.n, 0.0)

    def run():
        z.fill(0.0)
        mg_vcycle(top, z, problem16.b)

    benchmark(run)


def bench_vcycle_ref(benchmark, problem16, hierarchies):
    _, top = hierarchies
    z = np.zeros(problem16.n)
    b = problem16.b.to_dense()

    def run():
        z.fill(0.0)
        ref_mg_vcycle(top, z, b)

    benchmark(run)


def bench_hpcg_iterations_alp(benchmark, problem16, hierarchies):
    top, _ = hierarchies
    precond = MGPreconditioner(top)

    def run():
        x = problem16.x0.dup()
        return pcg(problem16.A, problem16.b, x, preconditioner=precond,
                   max_iters=3)

    result = benchmark(run)
    assert result.residuals[-1] < result.residuals[0]


def bench_hpcg_iterations_ref(benchmark, problem16, hierarchies):
    _, top = hierarchies
    precond = RefMGPreconditioner(top)
    A = problem16.A.to_scipy(copy=False)
    b = problem16.b.to_dense()

    def run():
        x = np.zeros(problem16.n)
        return ref_pcg(A, b, x, preconditioner=precond, max_iters=3)

    result = benchmark(run)
    assert result.residuals[-1] < result.residuals[0]


def bench_problem_generation(benchmark):
    """HPCG's input-generation kernel (Section II-B)."""
    problem = benchmark(generate_problem, 16)
    assert problem.A.nvals > 0


def bench_hierarchy_setup(benchmark, problem16):
    """Colouring + coarse operators + restriction matrices (setup phase)."""
    top = benchmark(build_hierarchy, problem16, 4)
    assert len(top.levels()) == 4
