"""Seeded inputs: the program only ever receives what is generated here.

``--seed`` draws the exact solution ``x* = 1 + 0.25 U(-1, 1)`` (the
right-hand side is then ``b = A x*`` through public ``grb`` calls), the
kernel-probe vectors, and overrides the fault plans' own seeds.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro import graphblas as grb
from repro.dist import (FaultPlan, Hybrid2DRun, HybridALPRun, RefDistRun,
                        factor3)
from repro.hpcg.problem import Problem, generate_problem

from spec import FAULT_PLANS, Workload


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named input stream of one seed."""
    return np.random.default_rng([seed, sum(stream.encode())])


def seeded_problem(w: Workload, seed: int) -> Problem:
    """The workload's system with the seeded exact solution and rhs."""
    return with_seeded_rhs(generate_problem(w.nx, stencil=w.stencil), seed)


def with_seeded_rhs(problem: Problem, seed: int) -> Problem:
    exact = grb.Vector.from_dense(
        1.0 + 0.25 * rng_for(seed, "exact").uniform(-1.0, 1.0, problem.n))
    b = grb.Vector.dense(problem.n)
    grb.mxv(b, None, problem.A, exact)
    return dataclasses.replace(problem, b=b, exact=exact)


def probe_vector(seed: int, stream: str, n: int) -> grb.Vector:
    return grb.Vector.from_dense(
        rng_for(seed, stream).uniform(-1.0, 1.0, n))


def fault_plan(name: str, seed: int) -> FaultPlan:
    """``examples/faults/<name>.json`` with its seed overridden."""
    plan = FaultPlan.from_json(str(FAULT_PLANS / f"{name}.json"))
    return dataclasses.replace(plan, seed=seed)


def dist_levels(w: Workload) -> int:
    """Deepest hierarchy (<= the workload's) whose every level the 3D
    process grid divides — ``RefDistRun`` rejects deeper ones."""
    widest = max(factor3(w.nprocs))
    levels = w.mg_levels
    while levels > 1 and (w.nx >> (levels - 1)) % widest:
        levels -= 1
    return levels


def dist_backends(w: Workload, problem: Problem, seed: int) -> Dict[str, object]:
    """Construct the six simulated runs of one pass (``execute_local``
    stays off, so nothing measured on the host feeds the cost model)."""
    levels = dist_levels(w)
    p = w.nprocs
    return {
        "ref3d": RefDistRun(problem, p, mg_levels=levels),
        "ref3d-overlap": RefDistRun(problem, p, mg_levels=levels,
                                    comm_mode="overlap"),
        "alp1d": HybridALPRun(problem, p, mg_levels=levels),
        "alp2d": Hybrid2DRun(problem, p, mg_levels=levels),
        "ref3d-crash": RefDistRun(problem, p, mg_levels=levels,
                                  faults=fault_plan("crash_recover", seed)),
        "ref3d-loss": RefDistRun(problem, p, mg_levels=levels,
                                 faults=fault_plan("message_loss", seed)),
    }
