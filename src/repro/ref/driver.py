"""Reference-HPCG driver, parallel to :mod:`repro.hpcg.driver`."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hpcg.problem import Problem, generate_problem
from repro.ref.cg import CGResult, ref_pcg
from repro.ref.multigrid import RefMGPreconditioner, build_ref_hierarchy
from repro.util.timer import TimerRegistry


@dataclass
class RefHPCGResult:
    problem: Problem
    cg: CGResult
    timers: TimerRegistry
    setup_seconds: float
    run_seconds: float
    mg_levels: int

    def mg_level_breakdown(self) -> List[Dict[str, float]]:
        """Per-level RBGS vs restrict+refine shares of total time."""
        total = self.run_seconds or 1.0
        out = []
        for i in range(self.mg_levels):
            rbgs = self.timers.total(f"mg/L{i}/rbgs")
            rr = self.timers.total(f"mg/L{i}/restrict") + self.timers.total(
                f"mg/L{i}/prolong"
            )
            out.append({"level": i, "rbgs": rbgs / total, "restrict_refine": rr / total})
        return out

    def summary(self) -> str:
        return (
            f"Ref HPCG: grid {self.problem.grid.dims}, n={self.problem.n}, "
            f"iters {self.cg.iterations}, rel.res {self.cg.relative_residual:.3e}, "
            f"setup {self.setup_seconds:.3f}s, run {self.run_seconds:.3f}s"
        )


def run_ref_hpcg(
    nx: int,
    ny: int = 0,
    nz: int = 0,
    max_iters: int = 50,
    tolerance: float = 0.0,
    mg_levels: int = 4,
    smoother: str = "rbgs",
    b_style: str = "reference",
    problem: Optional[Problem] = None,
) -> RefHPCGResult:
    """Run reference HPCG (direct-storage kernels) and return the report."""
    t0 = time.perf_counter()
    if problem is None:
        problem = generate_problem(nx, ny, nz, b_style=b_style)
    timers = TimerRegistry()
    preconditioner = None
    if mg_levels > 0:
        hierarchy = build_ref_hierarchy(problem, levels=mg_levels, smoother=smoother)
        preconditioner = RefMGPreconditioner(hierarchy, timers=timers)
    setup_seconds = time.perf_counter() - t0

    A = problem.A.to_scipy(copy=False)
    b = problem.b.to_dense()
    x = problem.x0.to_dense()
    t1 = time.perf_counter()
    cg_result = ref_pcg(
        A, b, x,
        preconditioner=preconditioner,
        max_iters=max_iters,
        tolerance=tolerance,
    )
    run_seconds = time.perf_counter() - t1
    return RefHPCGResult(
        problem=problem,
        cg=cg_result,
        timers=timers,
        setup_seconds=setup_seconds,
        run_seconds=run_seconds,
        mg_levels=mg_levels,
    )
