"""The preconditioned Conjugate Gradient solver (paper Section II-C).

:func:`pcg` runs :func:`repro.ref.cg.cg_iterations`, the one CG loop,
which :func:`~repro.ref.cg.ref_pcg` and the simulated distributed
engine run too, on GraphBLAS kernels: one preconditioner application,
two dots plus a norm, one spmv and three waxpby per iteration, as in the
reference HPCG ``CG.cpp``.  Pass
:class:`~repro.hpcg.multigrid.MGPreconditioner` for full HPCG, or
``None`` for plain CG.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_ext
from repro.ref.cg import (
    CGResult, CGState, cg_iterations, cg_result, require_cg_limits,
    require_finite_residual,
)
from repro.util.errors import DimensionMismatch, OutputAliasing
from repro.util.timer import null_timer

Preconditioner = Callable[[grb.Vector, grb.Vector], grb.Vector]


class CGWorkspace:
    """The solver's four work vectors (``r``, ``z``, ``p``, ``Ap``),
    allocated once for repeated :func:`pcg` calls (the driver's
    repetitions, sweeps, benchmarks): every vector is overwritten before
    it is read, so reuse is state-free."""

    __slots__ = ("n", "r", "z", "p", "Ap")

    def __init__(self, n: int):
        self.n = n
        self.r = grb.Vector.dense(n)
        self.z = grb.Vector.dense(n)
        self.p = grb.Vector.dense(n)
        self.Ap = grb.Vector.dense(n)


def pcg(A: grb.Matrix, b: grb.Vector, x: grb.Vector,
        preconditioner: Optional[Preconditioner] = None,
        max_iters: int = 50, tolerance: float = 0.0, timers=null_timer,
        workspace: Optional[CGWorkspace] = None) -> CGResult:
    """Solve ``A x = b`` from initial guess ``x`` (updated in place).

    With ``tolerance=0`` runs exactly ``max_iters`` iterations — HPCG's
    timed mode, where the iteration count is fixed so execution times
    are directly comparable (paper Section V).  A :class:`CGWorkspace`
    (never ``x`` or ``b``) is reused instead of allocating one per solve.
    """
    n = A.nrows
    if b.size != n or x.size != n:
        raise DimensionMismatch(
            f"CG sizes: A {A.shape}, b {b.size}, x {x.size}")
    require_cg_limits(max_iters, tolerance)
    if workspace is None:
        workspace = CGWorkspace(n)
    elif workspace.n != n:
        raise DimensionMismatch(
            f"workspace size {workspace.n} != operator size {n}")
    r, z, p, Ap = workspace.r, workspace.z, workspace.p, workspace.Ap
    for role, v in (("x", x), ("b", b)):
        for name in ("r", "z", "p", "Ap"):
            if getattr(workspace, name) is v:
                raise OutputAliasing(f"pcg {role} is workspace.{name}")

    ctx = obs.activate(obs.current())   # held: REPRO_TRACE is read once
    try:
        measure = timers.measure
        label = (grb.backend.labelled if grb.backend.active()
                 else obs.null_scope)

        # the kernels the shared loop runs, each in its timer and label
        def spmv(y, v):
            with measure("cg/spmv"), label("spmv"):
                return grb.mxv(y, None, A, v)

        def waxpby(w, alpha, u, beta, v):
            with measure("cg/waxpby"), label("waxpby"):
                return grb.waxpby(w, alpha, u, beta, v)

        def dot(u, v):
            with measure("cg/dot"), label("dot"):
                return grb.dot(u, v)

        def precondition(z, r):
            with measure("cg/mg"):
                return preconditioner(z, r)

        # observability taps (None when tracing is off)
        res_series = None
        iteration = obs.null_scope
        if ctx is not None:
            res_series = ctx.metrics.series(
                "cg_residual",
                "CG residual 2-norm per iteration (index 0 = initial)")
            res_gauge = ctx.metrics.gauge(
                "cg_residual_last", "most recent CG residual 2-norm")
            iter_gauge = ctx.metrics.gauge(
                "cg_iteration", "current CG iteration (live progress)")
            iteration = lambda k: ctx.tracer.span(  # noqa: E731
                "cg/iteration", "cg", {"k": k})

        with measure("cg/spmv"), label("spmv"):
            # r <- b - A x in one fused pass (Ap is overwritten before
            # it is read); declining falls back to the pair
            fused_init = fused_ext.fused_spmv_waxpby(r, 1.0, b, -1.0, A, x)
            if not fused_init:
                grb.mxv(Ap, None, A, x)
        if not fused_init:
            waxpby(r, 1.0, b, -1.0, Ap)                 # r <- b - A x
        normr0 = float(np.sqrt(dot(r, r)))
        if not math.isfinite(normr0):   # r is copied out on this path only
            require_finite_residual(normr0, r.to_dense())
        if res_series is not None:
            res_series.observe(normr0)
        cg = CGState(k=0, x=x, r=r, p=p, z=z, Ap=Ap, rtz=0.0,
                     residuals=[normr0])
        for cg in cg_iterations(
                cg, spmv, waxpby, dot,
                None if preconditioner is None else precondition,
                max_iters, tolerance, iteration):
            if res_series is not None:
                res_series.observe(cg.residuals[-1])
                res_gauge.set(cg.residuals[-1])
                iter_gauge.set(cg.k)
    finally:
        obs.deactivate(ctx)
    return cg_result(cg, tolerance)
