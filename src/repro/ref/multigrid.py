"""Reference multigrid: direct-injection restriction on raw arrays.

Identical V-cycle mathematics to :mod:`repro.hpcg.multigrid`, but
restriction/refinement are index copies into the storage (paper Section
II-F: "the HPCG reference implementation performs it in-place by
directly accessing the input and output arrays") instead of matrix
products.  The smoother defaults to :class:`RefRBGS` (what the paper's
Ref uses in its experiments); pass ``smoother="symgs"`` for the official
sequential smoother.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.grid import Grid3D
from repro.hpcg.coloring import lattice_coloring
from repro.hpcg.problem import Problem
from repro.grid.stencil import stencil_csr
from repro.ref.sgs import RefRBGS, RefSymGS
from repro.util.errors import InvalidValue, OutputAliasing
from repro.util.timer import null_timer


@dataclass
class RefMGLevel:
    """One level of the reference hierarchy (raw-array flavour)."""

    index: int
    grid: Grid3D
    A: sp.csr_matrix
    diag: np.ndarray
    smoother: object
    injection: Optional[np.ndarray] = None   # fine indices feeding the coarse grid
    coarser: Optional["RefMGLevel"] = None
    f: np.ndarray = field(default=None)
    rc: np.ndarray = field(default=None)
    zc: np.ndarray = field(default=None)

    @property
    def n(self) -> int:
        return self.grid.npoints

    def levels(self) -> List["RefMGLevel"]:
        out, lvl = [], self
        while lvl is not None:
            out.append(lvl)
            lvl = lvl.coarser
        return out


def build_csr(grid: Grid3D, stencil: str = "27pt") -> sp.csr_matrix:
    """The stencil operator on ``grid`` as canonical CSR (coarse levels),
    on the assembled arrays themselves."""
    indptr, indices, data = stencil_csr(grid, stencil)
    return sp.csr_matrix((data, indices, indptr), shape=(grid.npoints,) * 2)


def build_ref_hierarchy(
    problem: Problem,
    levels: int = 4,
    smoother: str = "rbgs",
) -> RefMGLevel:
    """Build the reference hierarchy from the same generated problem.

    Reuses ``problem``'s operator through the I/O escape hatch — the Ref
    implementation is allowed to see storage.
    """
    if levels < 1:
        raise InvalidValue(f"need at least one level, got {levels}")
    if problem.grid.max_mg_levels() < levels:
        raise InvalidValue(
            f"grid {problem.grid.dims} supports at most "
            f"{problem.grid.max_mg_levels()} MG levels, requested {levels}"
        )

    stencil = getattr(problem, "stencil", "27pt")

    def make_smoother(A: sp.csr_matrix, grid: Grid3D):
        if smoother == "rbgs":
            return RefRBGS(A, lattice_coloring(grid, stencil))
        if smoother == "symgs":
            return RefSymGS(A)
        raise InvalidValue(f"unknown smoother {smoother!r}")

    A0 = problem.A.to_scipy(copy=False)
    top = RefMGLevel(
        index=0, grid=problem.grid, A=A0, diag=A0.diagonal(),
        smoother=make_smoother(A0, problem.grid),
        f=np.zeros(problem.n),
    )
    current = top
    for idx in range(1, levels):
        coarse_grid = current.grid.coarsen()
        A_c = build_csr(coarse_grid, stencil)
        level = RefMGLevel(
            index=idx, grid=coarse_grid, A=A_c, diag=A_c.diagonal(),
            smoother=make_smoother(A_c, coarse_grid),
            f=np.zeros(coarse_grid.npoints),
        )
        current.injection = current.grid.injection_indices()
        current.rc = np.zeros(coarse_grid.npoints)
        current.zc = np.zeros(coarse_grid.npoints)
        current.coarser = level
        current = level
    return top


def ref_mg_vcycle(
    level: RefMGLevel,
    z: np.ndarray,
    r: np.ndarray,
    timers=null_timer,
) -> np.ndarray:
    """One V-cycle with direct-injection grid transfers, one symmetric
    pass before and after.  Its own recursion: the oracle the V-cycles
    following :func:`repro.graphblas.substrate.csr.vcycle` are checked
    against, and the Ref yardstick."""
    tag = f"mg/L{level.index}"
    with timers.measure(f"{tag}/rbgs"):
        level.smoother.smooth(z, r)
    if level.coarser is None:
        return z

    with timers.measure(f"{tag}/spmv"):
        level.f[:] = r - level.A.dot(z)              # residual
    with timers.measure(f"{tag}/restrict"):
        level.rc[:] = level.f[level.injection]       # straight injection
    level.zc.fill(0.0)
    ref_mg_vcycle(level.coarser, level.zc, level.rc, timers)
    with timers.measure(f"{tag}/prolong"):
        z[level.injection] += level.zc               # refine: scatter-add
    with timers.measure(f"{tag}/rbgs"):
        level.smoother.smooth(z, r)
    return z


class RefMGPreconditioner:
    """Callable ``M(z, r)`` wrapper over the reference V-cycle."""

    def __init__(self, hierarchy: RefMGLevel, timers=null_timer):
        self.hierarchy = hierarchy
        self.timers = timers

    def __call__(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        if np.shares_memory(z, r):
            # z is zero-filled before r is read
            raise OutputAliasing(
                "MG preconditioner output must not alias the residual")
        z.fill(0.0)
        return ref_mg_vcycle(self.hierarchy, z, r, self.timers)
