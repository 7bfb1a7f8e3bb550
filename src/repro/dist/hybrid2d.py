"""The executed 2D block distribution (paper §VII-B, solution ii).

Matrix blocks ``A[i][j]`` live on a ``√p x √p`` process grid; the
vector is owned in ``n/√p`` blocks by the diagonal processes.  One
``mxv`` takes **two** supersteps:

1. *column broadcast* — the diagonal process of column ``j`` ships its
   vector block to the ``√p - 1`` other processes of the column;
2. *row reduction* — every process sends its partial output block to
   the diagonal process of its row.

Per-node traffic drops from ``n (p-1)/p`` to ``n/√p (√p - 1)`` values —
a constant-factor saving that remains Θ(n): the paper's observation
that solution ii "only partially alleviates the communication
bottleneck", bought at twice the barrier count.

The two supersteps route through the split-phase engine but tag no
overlappable work: an off-diagonal process owns *nothing* of the input
block it waits for, so the broadcast cannot hide behind local compute,
and the row reduction needs the partial outputs finished before it can
post — another face of the opaque-container limitation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dist.bsp import BSPMachine
from repro.dist.comm import CommTracker, ExchangePlan
from repro.dist.cost import _RESTRICT_MXV_BYTES, mxv_bytes
from repro.dist.numerics import SimLevel
from repro.dist.partition import Block1D, largest_square
from repro.dist.simulate import SimulatedDistRun
from repro.hpcg.problem import Problem
from repro.util.errors import InvalidValue


class Hybrid2DRun(SimulatedDistRun):
    """Simulated distributed HPCG over a 2D block matrix distribution.

    ``engine`` keywords are :class:`~repro.dist.simulate.SimulatedDistRun`'s,
    passed through unchanged: ``comm_mode``, ``agglomerate_below``,
    ``faults``.
    """

    backend = "alp-2d"

    def __init__(self, problem: Problem, nprocs: int, mg_levels: int = 4,
                 machine: Optional[BSPMachine] = None, **engine):
        q = int(round(math.sqrt(nprocs)))
        if q * q != nprocs:
            raise InvalidValue(
                f"the 2D block distribution needs a square process count, "
                f"got {nprocs}"
            )
        self.q = q
        super().__init__(problem, nprocs, mg_levels, machine, **engine)

    def _respawn(self, nprocs: int) -> "Hybrid2DRun":
        """The √p x √p grid needs a square node count: continue on the
        largest square subset of the survivors."""
        square = largest_square(nprocs)
        return super()._respawn(square, q=math.isqrt(square))

    def _layout(self):
        return self.q

    def _rank(self, i: int, j: int) -> int:
        return i * self.q + j

    def _init_level_comm(self, level: SimLevel) -> None:
        q = self.q
        part = Block1D(level.n, q)
        level.partition = part
        block_bytes = [part.local_size(k) * 8 for k in range(q)]
        # worst-block mxv work: blocks are ~uniform, price the average
        nnz_per_block = level.A.nnz / max(self.nprocs, 1)
        rows_per_block = level.n / q
        level.block_work = mxv_bytes(nnz_per_block, rows_per_block)
        # the level's patterns, recorded once.  Column broadcast: the
        # diagonal process of column j ships its input block down the
        # column; row reduction: row i's partial outputs go to (i, i)
        scratch = CommTracker(self.nprocs)
        off_diagonal = [(i, j) for i in range(q) for j in range(q) if i != j]

        def reduction(out_bytes) -> ExchangePlan:
            for i, j in off_diagonal:
                scratch.send(self._rank(i, j), self._rank(i, i),
                             int(out_bytes[i]))
            return scratch.freeze()

        for i, j in off_diagonal:
            scratch.send(self._rank(j, j), self._rank(i, j), block_bytes[j])
        level.broadcast_plan = scratch.freeze()
        level.reduce_plan = reduction(block_bytes)
        # per colour, the output blocks hold only that colour's rows
        block_of = part.owner(np.arange(level.n, dtype=np.int64))
        level.color_reduce_plans = [
            reduction(np.bincount(block_of[rows], minlength=q) * 8)
            for rows in level.color_rows]

    # --- the two-superstep mxv ----------------------------------------------
    def _two_phase_mxv(self, broadcast: ExchangePlan, reduce: ExchangePlan,
                       sync_label: str, timer_key: str,
                       work_bytes: float) -> None:
        # phase 1: column broadcast of the input blocks — nothing to
        # overlap: the receivers own no part of the block they await
        self._close_superstep(broadcast, sync_label, timer_key, 0.0)
        # phase 2: row reduction of the partial outputs — posted only
        # after the partials exist, so it too stays exposed
        self._close_superstep(reduce, sync_label, timer_key, work_bytes)

    # --- communication hooks -------------------------------------------------
    def _spmv_comm(self, level: SimLevel, sync_label: str,
                   timer_key: str) -> None:
        label = "spmv2d" if sync_label == "spmv" else sync_label
        self._two_phase_mxv(level.broadcast_plan, level.reduce_plan,
                            label, timer_key, level.block_work)

    def _rbgs_comm(self, level: SimLevel, color: int,
                   next_color: Optional[int] = None) -> None:
        self._two_phase_mxv(
            level.broadcast_plan, level.color_reduce_plans[color],
            "rbgs2d", f"mg/L{level.index}/rbgs",
            level.block_work / level.ncolors,
        )

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        self._two_phase_mxv(
            fine.broadcast_plan, coarse.reduce_plan,
            "restrict2d", f"mg/L{fine.index}/restrict",
            _RESTRICT_MXV_BYTES * coarse.n / self.q,
        )

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        self._two_phase_mxv(
            coarse.broadcast_plan, fine.reduce_plan,
            "refine2d", f"mg/L{fine.index}/prolong",
            _RESTRICT_MXV_BYTES * coarse.n / self.q,
        )

    def _vector_share(self, n: int) -> float:
        # vectors live in n/√p blocks on the diagonal processes
        return float(-(-n // self.q))
