"""Reference CG and the one CG loop, :func:`cg_iterations`.

Three callers run it on their own kernels: :func:`ref_pcg` on
:mod:`repro.ref.kernels`, :func:`repro.hpcg.cg.pcg` on GraphBLAS
containers, and the simulated distributed engine on the reference
kernels each followed by its BSP price.  So ALP and Ref produce
*numerically comparable results* (Section V) by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.obs import null_scope
from repro.ref.kernels import compute_dot, compute_spmv, compute_waxpby
from repro.util.errors import DimensionMismatch, InvalidValue

RefPreconditioner = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class CGResult:
    """Outcome of a CG solve; ``x`` is the caller's vector (an array or
    a GraphBLAS vector), solved in place."""

    x: Any
    iterations: int
    converged: bool
    normr0: float
    normr: float
    residuals: List[float] = field(default_factory=list)

    @property
    def relative_residual(self) -> float:
        return self.normr / self.normr0 if self.normr0 else 0.0


def require_finite_residual(normr0: float, r: np.ndarray) -> None:
    """Reject an initial residual holding a NaN/Inf, once, before the
    loop would turn it into an all-NaN history.  ``r`` is scanned only
    when the norm is already non-finite; finite entries whose norm
    merely overflows are not an input error and run on."""
    if not math.isfinite(normr0) and not np.isfinite(r).all():
        raise InvalidValue(
            f"CG: non-finite initial residual (norm {normr0}): b, x0 or "
            f"the operator holds a NaN/Inf")


def require_definite(k: int, rtz: float, pAp: float, normr: float) -> None:
    """Reject a CG breakdown at iteration ``k`` (``p'Ap <= 0`` or NaN, or
    ``r'z < 0``) before it becomes a diverging or NaN history — under a
    finite non-zero residual: an exact solve may reach ``0 / 0``."""
    if 0.0 < normr < math.inf and (rtz < 0.0 or not pAp > 0.0):
        raise InvalidValue(
            f"CG: breakdown at iteration {k} (r'z = {rtz}, p'Ap = {pAp}): "
            f"the operator/preconditioner is not positive definite")


def require_cg_limits(max_iters: int, tolerance: float) -> None:
    """Reject ``max_iters < 0`` or a tolerance outside ``[0, inf)`` (NaN
    included), which would run no iteration or fixed-iteration mode."""
    if max_iters < 0 or not 0.0 <= tolerance < math.inf:
        raise InvalidValue(f"CG: need max_iters >= 0 and 0 <= tolerance < "
                           f"inf, got {max_iters} and {tolerance!r}")


def converged(normr0: float, normr: float, tolerance: float) -> bool:
    """Has the solve stopped: the initial guess solves the system, or
    ``normr`` meets a positive ``tolerance`` relative to ``normr0``?  CG
    tests it before every iteration."""
    return normr0 == 0.0 or 0 < tolerance and normr / normr0 <= tolerance


@dataclass
class CGState:
    """The CG loop's variables after iteration ``k``.  A ``copy()`` is a
    checkpoint: ``x``, ``r`` and ``p`` are all a rollback needs to resume
    iteration ``k + 1`` exactly where the clean run would be; it shares
    the work vectors ``z`` and ``Ap``, overwritten before they are read."""

    k: int
    x: Any
    r: Any
    p: Any
    z: Any
    Ap: Any
    rtz: float
    residuals: List[float]        # [||r_0||, ..., ||r_k||]

    def copy(self) -> "CGState":
        return replace(
            self, x=self.x.copy(), r=self.r.copy(), p=self.p.copy(),
            residuals=list(self.residuals))


def cg_start(spmv, waxpby, dot, b: np.ndarray, x: np.ndarray) -> CGState:
    """Iteration 0 from ``x``, which the iterations update in place."""
    n = x.shape[0]
    Ap = spmv(np.zeros(n), x)
    r = waxpby(np.zeros(n), 1.0, b, -1.0, Ap)                    # b - A x
    normr = float(np.sqrt(dot(r, r)))
    require_finite_residual(normr, r)
    return CGState(k=0, x=x, r=r, p=np.zeros(n), z=np.zeros(n), Ap=Ap,
                   rtz=0.0, residuals=[normr])


def cg_result(cg: CGState, tolerance: float) -> CGResult:
    """The record of a solve that stopped at ``cg``."""
    normr0, normr = cg.residuals[0], cg.residuals[-1]
    return CGResult(cg.x, cg.k, converged(normr0, normr, tolerance),
                    normr0, normr, cg.residuals)


def cg_iterations(cg: CGState, spmv, waxpby, dot,
                  preconditioner: Optional[RefPreconditioner],
                  max_iters: int, tolerance: float,
                  iteration=null_scope) -> Iterator[CGState]:
    """Resume ``cg`` at iteration ``cg.k + 1`` and yield it after each
    iteration.  ``spmv(y, x)`` writes ``A x`` into ``y``; ``iteration(k)``
    is entered around each body, and the span it yields gets ``normr``."""
    x, r, p, z, Ap = cg.x, cg.r, cg.p, cg.z, cg.Ap
    normr0 = cg.residuals[0]
    for k in range(cg.k + 1, max_iters + 1):
        if converged(normr0, cg.residuals[-1], tolerance):
            return
        with iteration(k) as sp:
            if preconditioner is not None:
                preconditioner(z, r)                       # z <- M r
            else:
                waxpby(z, 1.0, r, 0.0, r)                  # z <- r
            if k == 1:
                waxpby(p, 1.0, z, 0.0, z)                  # p <- z
                cg.rtz = dot(r, z)
            else:
                rtz_old = cg.rtz
                cg.rtz = dot(r, z)
                waxpby(p, 1.0, z, cg.rtz / rtz_old, p)     # p <- z + beta p
            spmv(Ap, p)
            pAp = dot(p, Ap)
            require_definite(k, cg.rtz, pAp, cg.residuals[-1])
            alpha = cg.rtz / pAp
            waxpby(x, 1.0, x, alpha, p)                    # x <- x + alpha p
            waxpby(r, 1.0, r, -alpha, Ap)                  # r <- r - alpha Ap
            normr = float(np.sqrt(dot(r, r)))
            if sp is not None:
                sp.set(normr=normr)
        cg.residuals.append(normr)
        cg.k = k
        yield cg


def ref_pcg(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray,
            preconditioner: Optional[RefPreconditioner] = None,
            max_iters: int = 50, tolerance: float = 0.0) -> CGResult:
    """Solve ``A x = b`` in place: :func:`cg_iterations` on Ref's kernels."""
    n = A.shape[0]
    if b.shape[0] != n or x.shape[0] != n:
        raise DimensionMismatch(f"CG sizes: A {A.shape}, b {b.shape[0]}, x {x.shape[0]}")
    require_cg_limits(max_iters, tolerance)

    def spmv(y, v):
        return compute_spmv(y, A, v)

    cg = cg_start(spmv, compute_waxpby, compute_dot, b, x)
    for cg in cg_iterations(cg, spmv, compute_waxpby, compute_dot,
                            preconditioner, max_iters, tolerance):
        pass
    return cg_result(cg, tolerance)
