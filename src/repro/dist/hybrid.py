"""The hybrid ALP backend: 1D block-cyclic + allgather-per-mxv.

This simulates what distributed ALP/GraphBLAS does today (paper §VI):
containers are opaque, so the runtime falls back to a locality-free 1D
block-cyclic distribution and must replicate the *entire* input vector
before every ``mxv`` — an allgather of ``n/p`` values from each node to
every other, i.e. Θ(n) per-node traffic per superstep (the ALP column
of Table I).  Every masked mxv of the RBGS smoother pays the same
price, which is what kills weak scaling in Figure 3.

Split-phase mode is supported but nearly powerless here, and that is
the point: an allgather can only hide behind rows referencing *no*
remote entry, and the block-cyclic distribution leaves essentially no
such interior rows — opaque containers forfeit the overlap the
reference backend's surface halos enjoy.  The honest interior share is
computed from the actual owners, so the modelled win is whatever the
distribution truly offers (≈ zero at block=1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dist.bsp import BSPMachine
from repro.dist.comm import CommTracker
from repro.dist.cost import (
    _RESTRICT_MXV_BYTES,
    interior_row_mask,
    mxv_bytes,
    per_node_color_work,
    per_node_interior_work,
    per_node_rows_and_nnz,
)
from repro.dist.numerics import SimLevel
from repro.dist.partition import BlockCyclic1D
from repro.dist.simulate import SimulatedDistRun
from repro.hpcg.problem import Problem


def _allgather_matrix(part) -> np.ndarray:
    """Per-(src, dst) bytes of one vector allgather under ``part``.

    ``m[src, dst]`` is what ``src`` ships to ``dst`` when the full
    vector is replicated: its own share (8 bytes per value) to every
    other node, nothing to itself.
    """
    p = part.p
    m = np.zeros((p, p), dtype=np.int64)
    for src in range(p):
        m[src, :] = part.local_size(src) * 8
        m[src, src] = 0
    return m


class HybridALPRun(SimulatedDistRun):
    """Simulated distributed HPCG over 1D block-cyclic ALP containers.

    ``engine`` keywords are :class:`~repro.dist.simulate.SimulatedDistRun`'s,
    passed through unchanged: ``comm_mode``, ``agglomerate_below``,
    ``faults``.
    """

    backend = "alp-1d"

    def __init__(self, problem: Problem, nprocs: int, mg_levels: int = 4,
                 machine: Optional[BSPMachine] = None, block: int = 1,
                 **engine):
        self._block = block
        super().__init__(problem, nprocs, mg_levels, machine, **engine)

    def _layout(self):
        return self._block

    def _init_level_comm(self, level: SimLevel) -> None:
        p = self.nprocs
        part = BlockCyclic1D(level.n, p, block=self._block)
        level.partition = part
        owners = part.owner(np.arange(level.n, dtype=np.int64))
        rows, nnz = per_node_rows_and_nnz(level.A, owners, p)
        level.spmv_comm = _allgather_matrix(part)
        level.spmv_work = (mxv_bytes(nnz, rows), rows)
        level.color_work = per_node_color_work(
            level.A, owners, level.colors, p, level.ncolors
        )
        # what little overlap the block-cyclic distribution offers: the
        # replication can only hide behind rows needing no remote entry
        interior = interior_row_mask(level.A, owners)
        level.interior_spmv_work = per_node_interior_work(
            level.A, owners, p, interior)
        level.interior_color_work = per_node_color_work(
            level.A, owners, level.colors, p, level.ncolors, interior)
        # the level's one pattern (p^2 sends), recorded once
        scratch = CommTracker(p)
        scratch.allgather([part.local_size(k) * 8 for k in range(p)])
        level.allgather_plan = scratch.freeze()

    # --- communication hooks -------------------------------------------------
    def _spmv_comm(self, level: SimLevel, sync_label: str,
                   timer_key: str) -> None:
        self._close_superstep(level.allgather_plan, sync_label, timer_key,
                              float(level.spmv_work[0].max()),
                              overlap_bytes=level.interior_spmv_work)

    def _rbgs_comm(self, level: SimLevel, color: int,
                   next_color: Optional[int] = None) -> None:
        # the allgather precedes colour ``color``'s masked mxv, so the
        # only compute it can hide behind is that colour's own interior
        self._close_superstep(level.allgather_plan, "rbgs_mxv",
                              f"mg/L{level.index}/rbgs",
                              float(level.color_work[color]),
                              overlap_bytes=float(
                                  level.interior_color_work[color]))

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        # rc = R f is an mxv over the fine vector: full replication of f
        work = _RESTRICT_MXV_BYTES * self._vector_share(coarse.n)
        self._close_superstep(fine.allgather_plan, "restrict",
                              f"mg/L{fine.index}/restrict", work)

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        # z += R' zc is an mxv over the coarse vector: replication of zc
        work = _RESTRICT_MXV_BYTES * self._vector_share(coarse.n)
        self._close_superstep(coarse.allgather_plan, "refine",
                              f"mg/L{fine.index}/prolong", work)
