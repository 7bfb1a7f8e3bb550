"""The preconditioned Conjugate Gradient solver (paper Section II-C).

Iteration structure matches the reference HPCG ``CG.cpp`` so iteration
counts are comparable: one preconditioner application, two dots plus a
norm, one spmv and three waxpby per iteration.

The solver is generic over the preconditioner: pass
:class:`~repro.hpcg.multigrid.MGPreconditioner` for full HPCG, or
``None`` for plain CG (used by the convergence validation, which checks
that preconditioning reduces iterations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_ext
from repro.ref.cg import (
    require_cg_limits, require_definite, require_finite_residual,
)
from repro.util.errors import DimensionMismatch, OutputAliasing
from repro.util.timer import null_timer

Preconditioner = Callable[[grb.Vector, grb.Vector], grb.Vector]


class CGWorkspace:
    """The solver's four work vectors (``r``, ``z``, ``p``, ``Ap``).

    Allocated once and passed to repeated :func:`pcg` calls (the
    driver's repetition protocol, parameter sweeps, benchmarks) so the
    per-solve cost is the mathematics, not four fresh allocations —
    every vector is fully overwritten before it is read, so reuse is
    state-free.
    """

    __slots__ = ("n", "r", "z", "p", "Ap")

    def __init__(self, n: int):
        self.n = n
        self.r = grb.Vector.dense(n)
        self.z = grb.Vector.dense(n)
        self.p = grb.Vector.dense(n)
        self.Ap = grb.Vector.dense(n)


@dataclass
class CGResult:
    """Outcome of a CG solve."""

    x: grb.Vector
    iterations: int
    converged: bool
    normr0: float
    normr: float
    residuals: List[float] = field(default_factory=list)

    @property
    def relative_residual(self) -> float:
        return self.normr / self.normr0 if self.normr0 else 0.0


def pcg(
    A: grb.Matrix,
    b: grb.Vector,
    x: grb.Vector,
    preconditioner: Optional[Preconditioner] = None,
    max_iters: int = 50,
    tolerance: float = 0.0,
    timers=null_timer,
    workspace: Optional[CGWorkspace] = None,
) -> CGResult:
    """Solve ``A x = b`` from initial guess ``x`` (updated in place).

    With ``tolerance=0`` runs exactly ``max_iters`` iterations — HPCG's
    timed mode, where the iteration count is fixed so execution times
    are directly comparable (paper Section V).  Pass a
    :class:`CGWorkspace` (never as ``x`` or ``b``) to reuse the solver
    vectors across repeated calls instead of reallocating them per solve.
    """
    n = A.nrows
    if b.size != n or x.size != n:
        raise DimensionMismatch(
            f"CG sizes: A {A.shape}, b {b.size}, x {x.size}"
        )
    require_cg_limits(max_iters, tolerance)
    if workspace is None:
        workspace = CGWorkspace(n)
    elif workspace.n != n:
        raise DimensionMismatch(
            f"workspace size {workspace.n} != operator size {n}"
        )
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
        span = obs.null_scope if ctx is None else ctx.tracer.span
        # observability taps (None when tracing is off)
        res_series = res_gauge = iter_gauge = None
        if ctx is not None:
            res_series = ctx.metrics.series(
                "cg_residual",
                "CG residual 2-norm per iteration (index 0 = initial)")
            res_gauge = ctx.metrics.gauge(
                "cg_residual_last", "most recent CG residual 2-norm")
            iter_gauge = ctx.metrics.gauge(
                "cg_iteration", "current CG iteration (live progress)")

        with measure("cg/spmv"), label("spmv"):
            # the fused extension computes r <- b - A x in one pass (Ap
            # is recomputed from p before its first read, so eliding it
            # here is state-free); declining falls back to the pair
            fused_init = fused_ext.fused_spmv_waxpby(r, 1.0, b, -1.0, A, x)
            if not fused_init:
                grb.mxv(Ap, None, A, x)
        if not fused_init:
            with measure("cg/waxpby"), label("waxpby"):
                grb.waxpby(r, 1.0, b, -1.0, Ap)         # r <- b - A x
        with measure("cg/dot"), label("dot"):
            normr0 = normr = grb.norm2(r)
        if not math.isfinite(normr0):   # r is copied out on this path only
            require_finite_residual(normr0, r.to_dense())
        residuals = [normr]
        if res_series is not None:
            res_series.observe(normr)
        rtz = 0.0

        if normr0 == 0.0:
            # the initial guess already solves the system exactly
            return CGResult(x=x, iterations=0, converged=True, normr0=0.0,
                            normr=0.0, residuals=residuals)

        iterations = 0
        for k in range(1, max_iters + 1):
            if tolerance > 0 and normr / normr0 <= tolerance:
                break
            with span("cg/iteration", "cg", {"k": k}) as sp:
                if preconditioner is not None:
                    with measure("cg/mg"):
                        preconditioner(z, r)                 # z <- M r
                else:
                    with measure("cg/waxpby"), label("waxpby"):
                        grb.waxpby(z, 1.0, r, 0.0, r)        # z <- r
                if k == 1:
                    with measure("cg/waxpby"), label("waxpby"):
                        grb.waxpby(p, 1.0, z, 0.0, z)        # p <- z
                    with measure("cg/dot"), label("dot"):
                        rtz = grb.dot(r, z)
                else:
                    rtz_old = rtz
                    with measure("cg/dot"), label("dot"):
                        rtz = grb.dot(r, z)
                    beta = rtz / rtz_old
                    with measure("cg/waxpby"), label("waxpby"):
                        grb.waxpby(p, 1.0, z, beta, p)       # p <- z + beta p
                with measure("cg/spmv"), label("spmv"):
                    grb.mxv(Ap, None, A, p)                  # Ap <- A p
                with measure("cg/dot"), label("dot"):
                    pAp = grb.dot(p, Ap)
                require_definite(k, rtz, pAp, normr)
                alpha = rtz / pAp
                with measure("cg/waxpby"), label("waxpby"):
                    grb.waxpby(x, 1.0, x, alpha, p)      # x <- x + alpha p
                    grb.waxpby(r, 1.0, r, -alpha, Ap)    # r <- r - alpha Ap
                with measure("cg/dot"), label("dot"):
                    normr = grb.norm2(r)
                if sp is not None:
                    sp.set(normr=normr)
            residuals.append(normr)
            if res_series is not None:
                res_series.observe(normr)
                res_gauge.set(normr)
                iter_gauge.set(k)
            iterations = k
    finally:
        obs.deactivate(ctx)

    converged = tolerance > 0 and normr / normr0 <= tolerance
    return CGResult(
        x=x,
        iterations=iterations,
        converged=converged,
        normr0=normr0,
        normr=normr,
        residuals=residuals,
    )
