"""Convergence equivalence — the precondition of Section V.

"All experiments achieve numerically comparable results, which allows
fixing the number of iterations across all of them, thus making
execution times directly comparable."  This regenerator produces the
residual histories of every implementation variant on one problem (each
simulated backend on a freshly generated copy, so it computes its own)
and quantifies their agreement:

* ALP (GraphBLAS) vs Ref (raw CSR): identical to machine precision;
* serial vs both simulated distributed backends (1D hybrid, geometric
  Ref) and the 2D variant: identical;
* RBGS vs exact SYMGS: *different* smoothers, comparable convergence
  rate (the legal-substitution story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.dist import HybridALPRun, RefDistRun
from repro.dist.hybrid2d import Hybrid2DRun
from repro.experiments.common import format_table
from repro.hpcg.driver import run_hpcg
from repro.hpcg.problem import generate_problem
from repro.ref.driver import run_ref_hpcg


@dataclass
class ConvergenceResult:
    histories: Dict[str, List[float]]
    n: int
    iterations: int

    def max_relative_spread(self, variants: List[str]) -> float:
        """Largest relative disagreement across the listed variants."""
        base = np.array(self.histories[variants[0]])
        worst = 0.0
        for name in variants[1:]:
            other = np.array(self.histories[name])
            denom = np.maximum(np.abs(base), 1e-300)
            worst = max(worst, float(np.abs(other - base).max() / denom.max()))
        return worst

    def shape_claims(self) -> Dict[str, bool]:
        exact = ["alp", "ref", "dist-1d", "dist-ref", "dist-2d"]
        spread = self.max_relative_spread(exact)
        sgs = np.array(self.histories["ref-symgs"])
        rbgs = np.array(self.histories["alp"])
        # same order of magnitude at the end: within 100x after k iters
        ratio = sgs[-1] / rbgs[-1] if rbgs[-1] else 1.0
        return {
            "implementations_numerically_identical": spread < 1e-10,
            "symgs_converges_at_least_as_fast": bool(sgs[-1] <= rbgs[-1] * 1.001),
            "rbgs_within_two_orders_of_symgs": bool(1e-2 <= ratio <= 1.001
                                                    or sgs[-1] == rbgs[-1]),
        }


def run(nx: int = 8, iterations: int = 10, mg_levels: int = 3,
        nprocs: int = 4) -> ConvergenceResult:
    from repro.dist.partition import factor3
    px, py, pz = factor3(nprocs)

    def generate():
        return generate_problem(nx * px, nx * py, nx * pz)

    # each simulated backend solves a problem of its own: on a shared
    # one a later run would price the first one's recorded dots instead
    # of computing its history (see repro.dist.numerics)
    problem = generate()
    histories: Dict[str, List[float]] = {}
    histories["alp"] = run_hpcg(
        nx=0, problem=problem, max_iters=iterations, mg_levels=mg_levels,
        validate_symmetry=False,
    ).cg.residuals
    histories["ref"] = run_ref_hpcg(
        nx=0, problem=problem, max_iters=iterations, mg_levels=mg_levels,
    ).cg.residuals
    histories["ref-symgs"] = run_ref_hpcg(
        nx=0, problem=problem, max_iters=iterations, mg_levels=mg_levels,
        smoother="symgs",
    ).cg.residuals
    histories["dist-1d"] = HybridALPRun(
        generate(), nprocs=nprocs, mg_levels=mg_levels
    ).run_cg(max_iters=iterations).residuals
    histories["dist-ref"] = RefDistRun(
        generate(), nprocs=nprocs, mg_levels=mg_levels
    ).run_cg(max_iters=iterations).residuals
    q = int(round(nprocs ** 0.5))
    if q * q == nprocs:
        histories["dist-2d"] = Hybrid2DRun(
            generate(), nprocs=nprocs, mg_levels=mg_levels
        ).run_cg(max_iters=iterations).residuals
    else:
        histories["dist-2d"] = histories["dist-1d"]
    return ConvergenceResult(histories=histories, n=problem.n,
                             iterations=iterations)


def render(result: ConvergenceResult) -> str:
    names = list(result.histories)
    rows = []
    for k in range(len(result.histories["alp"])):
        rows.append([k] + [f"{result.histories[n][k]:.6e}" for n in names])
    claims = result.shape_claims()
    claims_text = "\n".join(
        f"  [{'ok' if v else 'FAIL'}] {k}" for k, v in claims.items()
    )
    return (
        f"Convergence equivalence (n={result.n})\n"
        + format_table(["iter"] + names, rows)
        + "\nshape claims:\n" + claims_text
    )
