"""The numerics of the simulated distributed runs, kept once per problem.

The level numerics — each level's operator (``problem.A``'s own CSR on
the fine grid), colouring, injection and colour-major sweep arrays —
depend on the problem and the depth alone: built once per problem (and
operator ``version``), they are shared read only by every run on it.
So are the communication records and the priced programs the engine
in :mod:`repro.dist.simulate` keeps on them.  What an application writes
stays per run: each run's kernel relaxes twins of the shared sweeps
holding their own ``z``, ``r`` and scratch.

Distribution leaves convergence unchanged (the paper's Section V
precondition), and nothing a run prices reads a vector value: only the
dot products steer CG — the step lengths, the residual norms, the stop
and the breakdown check.  So the numerics also keep one
:class:`Trajectory` per ``(use_mg, b, x0)``: every dot value the first
untraced run to compute returned, published when it finishes.  A later
untraced run whose stop point the record reaches takes its stop point
and residual norms from it, and walks CG at most to record a program
(see :meth:`~repro.dist.simulate.SimulatedDistRun.run_cg`).
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.dist.tape import timer_layout
from repro.graphblas.substrate.csr import (
    ColorMajorVCycle, CsrColorSweep, execute,
)
from repro.graphblas.vector import Vector
from repro.grid import Grid3D
from repro.hpcg.coloring import lattice_coloring, num_colors
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import Problem
from repro.ref.cg import converged
from repro.ref.multigrid import build_csr
from repro.util.errors import InvalidValue


def require_fits(problem: Problem, mg_levels: int) -> None:
    """Refuse a depth the grid cannot coarsen to, and an ``A``, ``b`` or
    ``x0`` whose shape does not fit the grid, before anything is built."""
    if mg_levels < 1:
        raise InvalidValue(f"need at least one MG level, got {mg_levels}")
    if problem.grid.max_mg_levels() < mg_levels:
        raise InvalidValue(
            f"grid {problem.grid.dims} supports at most "
            f"{problem.grid.max_mg_levels()} MG levels, "
            f"requested {mg_levels}"
        )
    n = problem.grid.npoints
    shapes = (problem.A.shape, (problem.b.size,), (problem.x0.size,))
    want = ((n, n), (n,), (n,))
    if shapes != want:
        raise InvalidValue(f"problem shapes (A, b, x0) {shapes} do not "
                           f"fit grid {problem.grid.dims}: expected {want}")


class SimLevel:
    """One multigrid level: the operator, its colouring and the
    colour-major sweep that relaxes it.  None of it depends on the node
    count, the backend or the pricing, so communication records hold
    shallow copies sharing these numerics; what ``_init_level_comm``
    attaches (partition, work shares, exchange plans) belongs to the
    copy."""

    def __init__(self, index: int, grid: Grid3D, A: sp.csr_matrix,
                 stencil: str):
        diag = A.diagonal()
        if A.shape[0] != A.shape[1]:
            raise InvalidValue("RBGS requires a square operator")
        if (diag == 0).any():
            raise InvalidValue("RBGS requires a nonzero diagonal")
        self.index = index
        self.grid = grid
        self.A = A
        self.n = A.shape[0]
        self.colors = lattice_coloring(grid, stencil)
        # a thin coarse grid (1x1x2) leaves classes empty: no-op steps
        self.ncolors = num_colors(self.colors)
        self.smoother = CsrColorSweep(A, [
            np.flatnonzero(self.colors == c) for c in range(self.ncolors)
        ], diag)
        self.color_rows = self.smoother.rows
        # set by the hierarchy builder when a coarser level exists
        self.injection: Optional[np.ndarray] = None
        # set when the level is gathered onto one node (agglomeration)
        self.agglomerated = False


class Trajectory:
    """Every dot value of one computed CG solve, in the order the loop
    asked for them: ``cg_start``'s ``r'r`` at 0, then iteration ``k``'s
    ``r'z``, ``p'Ap`` and ``r'r`` at ``3k - 2``, ``3k - 1`` and ``3k``.
    Read only once published; it pins the ``b`` and ``x0`` whose ids key
    it."""

    def __init__(self, b: Vector, x0: Vector, dots: List[float]):
        self.b, self.x0, self.dots = b, x0, dots
        #: the residual norms on record, ``||r_0||`` first
        self.norms = [math.sqrt(dot) for dot in dots[::3]]

    def stop(self, max_iters: int, tolerance: float) -> Optional[int]:
        """The iteration a solve of ``max_iters`` and ``tolerance`` stops
        at — the loop's own stopping rule, on the recorded residual norms
        — or None when the record does not reach it."""
        norms = self.norms
        for k in range(min(max_iters, len(norms) - 1) + 1):
            if k == max_iters or converged(norms[0], norms[k], tolerance):
                return k
        return None


class _Numerics(list):
    """The :class:`SimLevel` s of one problem to one depth, finest first:
    the fine level on ``problem.A``'s own CSR, coarser ones on
    ``build_csr``.  Read only, so one value serves every run on the
    problem; it pins ``problem.A``, whose id keys it in :data:`_SHARED`,
    and keeps the communication records, programs and trajectories
    built on it."""

    def __init__(self, problem: Problem, mg_levels: int, stencil: str):
        super().__init__()
        self.matrix = problem.A
        self._problem, self._transcription = problem, None
        self._transcribing = threading.Lock()
        #: (backend class, nodes, agglomerate_below, layout) -> record
        self.records = {}
        #: (record key, comm_mode, machine, use_mg) -> kind -> tape.Program
        self.programs = {}
        #: the rows every program's timer terms are laid out in
        self.layout = timer_layout(mg_levels)
        #: (use_mg, id(b), b.version, id(x0), x0.version) -> Trajectory
        self.trajectories = {}
        grid, A = problem.grid, problem.A.to_scipy(copy=False)
        for index in range(mg_levels):
            level = SimLevel(index, grid, A, stencil)
            self.append(level)
            if index + 1 < mg_levels:
                level.injection = grid.injection_indices()
                grid = grid.coarsen()
                A = build_csr(grid, stencil)
        # the residual rows every run's kernel multiplies, copied now:
        # a kernel built at a run's first computed application reads
        # them and writes nothing to what runs share
        ColorMajorVCycle.residual_rows(
            [level.smoother for level in self],
            [level.injection for level in self[:-1]])

    def apply(self, kernel: ColorMajorVCycle, z: np.ndarray,
              r: np.ndarray) -> bool:
        """``z <- M r``: ``kernel``'s compiled schedule, or, for an ``r``
        it declines, :meth:`transcribe`.  False when the latter served."""
        if not kernel.load(r):
            self.transcribe(z, r)
            return False
        for _, _, calls in kernel.schedule():
            execute(calls)
        kernel.store(z)
        return True

    def transcribe(self, z: np.ndarray, r: np.ndarray) -> None:
        """``z <- M r`` as Listing 1 on GraphBLAS containers, every fast
        path pinned off: the applications the kernel declines (an ``r``
        holding ``-0.0``, a contracting product).  Built at the first of
        them; it writes its hierarchy, so one runs at a time, and out of
        the trace, which holds the booked programs' spans."""
        with self._transcribing, obs.disabled():
            if self._transcription is None:
                self._transcription = MGPreconditioner(build_hierarchy(
                    self._problem, levels=len(self), fused=False))
            out = Vector.dense(z.size)
            self._transcription(out, Vector.from_dense(r))
            z[:] = out.to_dense()

    @staticmethod
    def trajectory_key(use_mg: bool, b: Vector, x0: Vector) -> tuple:
        return use_mg, id(b), b.version, id(x0), x0.version

    def publish(self, key: tuple, b: Vector, x0: Vector,
                dots: List[float]) -> None:
        """Keep a finished solve's dots under ``key``, unless a record
        at least as long is kept: two racing runs' records agree on
        every dot both hold, so either serves."""
        kept = self.trajectories.setdefault(key, Trajectory(b, x0, dots))
        if len(kept.dots) < len(dots):
            self.trajectories[key] = Trajectory(b, x0, dots)


#: every problem's numerics while some run uses them: a mutated operator
#: (a new ``version``) keys fresh ones, the last run's death drops them
_SHARED = weakref.WeakValueDictionary()
