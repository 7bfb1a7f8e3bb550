"""Workload table and the declared metric set (``BENCHMARK.json``).

``BENCHMARK.json`` at the repository root is the single declaration of
workloads, metric names, units and bounds; the harness measures, then
refuses to report when the names it produced differ from the declared
ones in either direction — so file and harness cannot drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"
FAULT_PLANS = REPO_ROOT / "examples" / "faults"


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``dist`` marks the simulated-distributed one."""

    name: str
    nx: int
    stencil: str
    iters: int            # max_iters of the timed solve
    tolerance: float      # 0.0 = fixed-iteration (HPCG's timed mode)
    ref_repeats: int      # yardstick solves before, and after, each solve
    spmv_nominal_s: float  # one reference SpMV on the baseline host
    dist: bool = False
    nprocs: int = 4
    mg_levels: int = 4


# Sizes follow ISSUE 12; the two 32^3 workloads run 5 and 10 iterations
# instead of 20 so that 7-8 rounds, not 3, fit the driver's ~35 s per run
# (the host's noise, not the solve length, limits steadiness).
# ``ref_repeats`` makes the yardstick's share of a sample comparable across
# workloads (one Ref solve is 1/19 of the default 32^3 GraphBLAS solve).
#
# ``spmv_nominal_s`` freezes the yardstick: the median CPU seconds of one
# scipy ``A @ x`` on the workload's fine operator, measured at the commit
# that introduced the ledger (2-vCPU Xeon 2.1 GHz VM).  ``setup_s`` is
# reported in that host's seconds — measured set-up, rescaled by how fast
# the same SpMV ran right before and after it — because raw seconds drift
# by 20 % over minutes on a shared host and the ratio does not.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hpcg-16", 16, "27pt", iters=50, tolerance=0.0, ref_repeats=1,
             spmv_nominal_s=7.0e-5),
    Workload("hpcg-32", 32, "27pt", iters=5, tolerance=0.0, ref_repeats=4,
             spmv_nominal_s=7.5e-4),
    Workload("lap7-40", 40, "7pt", iters=500, tolerance=1e-9, ref_repeats=1,
             spmv_nominal_s=4.6e-4),
    Workload("dist-32", 32, "27pt", iters=10, tolerance=0.0, ref_repeats=2,
             spmv_nominal_s=7.5e-4, dist=True),
)}

#: the six simulated runs of one ``dist`` pass, in execution order
DIST_RUNS = ("ref3d", "ref3d-overlap", "alp1d", "alp2d",
             "ref3d-crash", "ref3d-loss")


def workload(name: str, smoke: bool = False) -> Workload:
    """Look a workload up; ``smoke`` shrinks it to an 8^3 grid
    (structure checks only, numbers meaningless; the node count stays 4
    because the 2D backend needs a square one)."""
    w = WORKLOADS[name]
    if smoke:
        # tolerance-driven workloads keep their cap: they stop early
        cap = (lambda n: n) if w.tolerance else (lambda n: min(n, 12))
        w = replace(w, nx=8, iters=cap(w.iters))
    return w


def load_declaration() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared(kind: str) -> List[Dict[str, Any]]:
    """The ``end_to_end`` or ``per_layer`` metric declarations."""
    return load_declaration()[kind]


def attach_units(kind: str, values: Dict[str, float]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the declared names.

    Raises when the harness produced a metric the file does not declare
    or missed one it does.
    """
    units = {m["name"]: m["unit"] for m in declared(kind)}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"{kind} metrics drifted from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}
