"""Reference CG: the same iteration as :mod:`repro.hpcg.cg` on raw arrays.

Keeping the two solvers line-for-line parallel lets tests assert that
ALP and Ref produce *numerically comparable results* — the property the
paper relies on to fix the iteration count and compare times directly
(Section V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.ref.kernels import compute_dot, compute_spmv, compute_waxpby
from repro.util.errors import DimensionMismatch, InvalidValue
from repro.util.timer import null_timer

RefPreconditioner = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class RefCGResult:
    x: np.ndarray
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


def ref_pcg(
    A: sp.csr_matrix,
    b: np.ndarray,
    x: np.ndarray,
    preconditioner: Optional[RefPreconditioner] = None,
    max_iters: int = 50,
    tolerance: float = 0.0,
    timers=null_timer,
) -> RefCGResult:
    """Solve ``A x = b`` in place; mirrors :func:`repro.hpcg.cg.pcg`."""
    n = A.shape[0]
    if b.shape[0] != n or x.shape[0] != n:
        raise DimensionMismatch(f"CG sizes: A {A.shape}, b {b.shape[0]}, x {x.shape[0]}")
    r = np.zeros(n)
    z = np.zeros(n)
    p = np.zeros(n)
    Ap = np.zeros(n)

    with timers.measure("cg/spmv"):
        compute_spmv(Ap, A, x)
    with timers.measure("cg/waxpby"):
        compute_waxpby(r, 1.0, b, -1.0, Ap)
    with timers.measure("cg/dot"):
        normr0 = normr = float(np.sqrt(compute_dot(r, r)))
    require_finite_residual(normr0, r)
    residuals = [normr]
    rtz = 0.0

    if normr0 == 0.0:
        # the initial guess already solves the system exactly
        return RefCGResult(x=x, iterations=0, converged=True, normr0=0.0,
                           normr=0.0, residuals=residuals)

    iterations = 0
    for k in range(1, max_iters + 1):
        if tolerance > 0 and normr / normr0 <= tolerance:
            break
        if preconditioner is not None:
            with timers.measure("cg/mg"):
                preconditioner(z, r)
        else:
            with timers.measure("cg/waxpby"):
                z[:] = r
        if k == 1:
            with timers.measure("cg/waxpby"):
                p[:] = z
            with timers.measure("cg/dot"):
                rtz = compute_dot(r, z)
        else:
            rtz_old = rtz
            with timers.measure("cg/dot"):
                rtz = compute_dot(r, z)
            beta = rtz / rtz_old
            with timers.measure("cg/waxpby"):
                compute_waxpby(p, 1.0, z, beta, p)
        with timers.measure("cg/spmv"):
            compute_spmv(Ap, A, p)
        with timers.measure("cg/dot"):
            pAp = compute_dot(p, Ap)
        require_definite(k, rtz, pAp, normr)
        alpha = rtz / pAp
        with timers.measure("cg/waxpby"):
            compute_waxpby(x, 1.0, x, alpha, p)
            compute_waxpby(r, 1.0, r, -alpha, Ap)
        with timers.measure("cg/dot"):
            normr = float(np.sqrt(compute_dot(r, r)))
        residuals.append(normr)
        iterations = k

    converged = tolerance > 0 and normr / normr0 <= tolerance
    return RefCGResult(
        x=x, iterations=iterations, converged=converged,
        normr0=normr0, normr=normr, residuals=residuals,
    )
