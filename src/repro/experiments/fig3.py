"""Figure 3 — weak scaling on the ARM cluster (2..7 nodes).

The global problem grows proportionally to the node count (fixed local
grid per node).  Paper findings reproduced as shape claims:

* Ref weak-scales: execution times differ by at most ~5% across node
  counts;
* ALP's execution time grows (approximately linearly) with the number
  of nodes — the Θ(n) allgather before every mxv of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dist import HybridALPRun, RefDistRun, factor3
from repro.dist.bsp import BSPMachine
from repro.experiments.common import ascii_series, format_table
from repro.hpcg.problem import generate_problem

NODES = (2, 3, 4, 5, 6, 7)


@dataclass
class Fig3Result:
    nodes: List[int]
    alp_seconds: List[float]
    ref_seconds: List[float]
    ns: List[int]
    local_nx: int
    iterations: int

    def shape_claims(self) -> Dict[str, bool]:
        ref = np.array(self.ref_seconds)
        alp = np.array(self.alp_seconds)
        nodes = np.array(self.nodes, dtype=float)
        ref_spread = float(ref.max() / ref.min() - 1.0)
        # linear fit of ALP time vs p: slope clearly positive and the fit good
        slope, intercept = np.polyfit(nodes, alp, 1)
        fitted = slope * nodes + intercept
        ss_res = float(((alp - fitted) ** 2).sum())
        ss_tot = float(((alp - alp.mean()) ** 2).sum())
        r2 = 1 - ss_res / ss_tot if ss_tot else 1.0
        # The growth *rate* scales with the per-node problem size (the
        # allgather term is Θ(local_n x p) while barriers are constant);
        # the paper runs max-memory local problems.  At the default
        # 24^3/node the 2->7 growth is ~1.5x; tiny grids flatten it.
        return {
            "ref_weak_scales_within_10pct": ref_spread < 0.10,
            "alp_grows_with_nodes": bool(alp[-1] > alp[0] * 1.3),
            "alp_growth_is_linear": r2 > 0.95,
            "alp_slower_than_ref_at_scale": bool(alp[-1] > ref[-1]),
        }


def run(local_nx: int = 24, iterations: int = 3,
        mg_levels: int = 4, nodes: Tuple[int, ...] = NODES,
        machine: Optional[BSPMachine] = None) -> Fig3Result:
    """Run the weak-scaling study; ``machine`` prices every node class
    (default: the Table-II ARM preset via the backends' own default)."""
    alp_s, ref_s, ns = [], [], []
    for p in nodes:
        px, py, pz = factor3(p)
        problem = generate_problem(local_nx * px, local_nx * py, local_nx * pz)
        ns.append(problem.n)
        alp = HybridALPRun(problem, nprocs=p, mg_levels=mg_levels,
                           machine=machine)
        ref = RefDistRun(problem, nprocs=p, mg_levels=mg_levels,
                         machine=machine)
        alp_s.append(alp.run_cg(max_iters=iterations).modelled_seconds)
        ref_s.append(ref.run_cg(max_iters=iterations).modelled_seconds)
    return Fig3Result(list(nodes), alp_s, ref_s, ns, local_nx, iterations)


def render(result: Fig3Result) -> str:
    table = format_table(
        ["nodes", "n", "ALP (s)", "Ref (s)", "ALP/Ref"],
        [
            (p, n, a, r, a / r)
            for p, n, a, r in zip(result.nodes, result.ns,
                                  result.alp_seconds, result.ref_seconds)
        ],
    )
    chart = ascii_series(
        {"ALP": result.alp_seconds, "Ref": result.ref_seconds}, result.nodes
    )
    claims = result.shape_claims()
    claims_text = "\n".join(
        f"  [{'ok' if v else 'FAIL'}] {k}" for k, v in claims.items()
    )
    return (
        f"Figure 3 — weak scaling on the ARM cluster "
        f"(local grid {result.local_nx}^3/node, {result.iterations} iters, "
        f"modelled)\n" + table + "\n\n" + chart + "shape claims:\n" + claims_text
    )
