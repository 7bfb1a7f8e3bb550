"""The simulated reference backend: geometric 3D boxes + halo exchange.

What the reference HPCG does with its geometry knowledge (paper §II,
§IV): each node owns an axis-aligned box of the grid, an ``mxv`` only
exchanges the O((n/p)^(2/3)) surface halo, the RBGS smoother exchanges
one colour's halo slice per colour step, and restriction/refinement are
purely node-local index copies (the coarse box of a node nests inside
its fine box).  This is the backend that weak-scales in Figure 3 and
the Ref column of Table I.

Two owner sources are supported (``partition=``):

* ``"grid3d"`` (default) — the geometric boxes above;
* ``"bfs"`` — the paper's §VII-B *solution iv*: a black-box partition
  grown by breadth-first traversal of the sparsity pattern, which
  recovers most of the geometric locality without any geometry
  knowledge.  Its boxes do not nest across MG levels, so restriction/
  refinement ship the (few) injection points whose coarse owner differs
  from the fine owner — priced as real supersteps.

In ``comm_mode="overlap"`` the halo exchanges run split-phase: a posted
SpMV halo hides behind the node's *interior* rows (rows referencing no
remote point), and colour ``c``'s exchange hides behind colour
``c+1``'s interior update — the paper's async pipeline, priced by the
BSP overlap model.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dist.bsp import BSPMachine
from repro.dist.comm import CommTracker, ExchangePlan
from repro.dist.cost import (
    _RESTRICT_COPY_BYTES,
    mxv_bytes,
    per_entry_owners,
    per_node_color_work,
    per_node_interior_work,
    per_node_rows_and_nnz,
    rows_touching_remote,
)
from repro.dist.numerics import SimLevel
from repro.dist.partition import (
    Grid3DPartition,
    bfs_partition,
    factor3,
    halo_for_owners,
)
from repro.dist.simulate import SimulatedDistRun
from repro.hpcg.problem import Problem
from repro.util.errors import InvalidValue

#: Owner sources accepted by :class:`RefDistRun`.
PARTITIONS = ("grid3d", "bfs")


class RefDistRun(SimulatedDistRun):
    """Simulated distributed HPCG with the reference 3D distribution.

    ``engine`` keywords are :class:`~repro.dist.simulate.SimulatedDistRun`'s,
    passed through unchanged: ``comm_mode``, ``agglomerate_below``,
    ``faults``.
    """

    backend = "ref-3d"

    def __init__(self, problem: Problem, nprocs: int, mg_levels: int = 4,
                 machine: Optional[BSPMachine] = None,
                 process_grid: Optional[Tuple[int, int, int]] = None,
                 partition: str = "grid3d", **engine):
        if partition not in PARTITIONS:
            raise InvalidValue(
                f"unknown partition {partition!r}, "
                f"expected one of {PARTITIONS}"
            )
        self._partition_kind = partition
        self._process_grid = process_grid if process_grid else factor3(nprocs)
        super().__init__(problem, nprocs, mg_levels, machine, **engine)

    # --- crash recovery ------------------------------------------------------
    def _respawn(self, nprocs: int) -> "RefDistRun":
        """Repartition onto the survivors: geometric boxes when the
        survivor count still factors into the grid, else fall back to
        the black-box BFS partition (which accepts any node count)."""
        kind, shape = self._partition_kind, factor3(nprocs)
        if kind == "grid3d" and not all(
                Grid3DPartition.divides(level.grid, shape)
                for level in self.levels if not level.agglomerated):
            kind = "bfs"
        return super()._respawn(nprocs, _partition_kind=kind,
                                _process_grid=shape)

    def _layout(self):
        return self._partition_kind, tuple(self._process_grid)

    def _init_level_comm(self, level: SimLevel) -> None:
        p = self.nprocs
        if self._partition_kind == "grid3d":
            part = Grid3DPartition(level.grid, p, shape=self._process_grid)
            level.partition = part
            owners = part.owner(np.arange(level.n, dtype=np.int64))
        else:
            level.partition = None
            owners = bfs_partition(level.A.indptr, level.A.indices,
                                   level.n, p)
        # kept narrow for the next level's injection halo
        level.owners = owners.astype(np.min_scalar_type(p - 1))
        # per stored entry: the node owning its row, and whether its column
        # lives elsewhere — expanded once, read by the halo and the interior split
        row_owner, entry_remote = per_entry_owners(
            level.A.indptr, level.A.indices, owners)
        halos = halo_for_owners(level.A.indptr, level.A.indices, owners, p,
                                entry_owners=(row_owner, entry_remote))
        level.spmv_halo = {pair: int(idxs.size) * 8
                           for pair, idxs in halos.items()}
        # the colour classes partition every halo point
        level.color_halo = []
        for c in range(level.ncolors):
            per = {}
            for pair, idxs in halos.items():
                npoints = int((level.colors[idxs] == c).sum())
                if npoints:
                    per[pair] = npoints * 8
            level.color_halo.append(per)
        rows, nnz = per_node_rows_and_nnz(level.A, owners, p)
        level.spmv_work = (mxv_bytes(nnz, rows), rows)
        level.color_work = per_node_color_work(
            level.A, owners, level.colors, p, level.ncolors
        )
        # interior shares: the overlap candidates of split-phase mode
        interior = ~rows_touching_remote(level.A, entry_remote)
        level.interior_spmv_work = per_node_interior_work(
            level.A, owners, p, interior)
        level.interior_color_work = per_node_color_work(
            level.A, owners, level.colors, p, level.ncolors, interior)
        # every pattern this level closes, recorded once
        scratch = CommTracker(p)

        def plan(halo: Dict[Tuple[int, int], int]) -> ExchangePlan:
            for (src, dst), nbytes in halo.items():
                scratch.send(src, dst, nbytes)
            return scratch.freeze()

        level.spmv_plan = plan(level.spmv_halo)
        level.color_plans = [plan(per) for per in level.color_halo]
        if level.index:
            # cross-node injection traffic from the finer level (bfs
            # owners only); the correction travels the opposite way
            fine = self.levels[level.index - 1]
            halo = self._injection_halo(fine, level)
            fine.restrict_plan = plan(halo)
            fine.prolong_plan = plan({(dst, src): nbytes
                                      for (src, dst), nbytes in halo.items()})

    # --- communication hooks -------------------------------------------------
    def _spmv_comm(self, level: SimLevel, sync_label: str,
                   timer_key: str) -> None:
        # split-phase: the posted halo hides behind the interior rows
        self._close_superstep(level.spmv_plan, sync_label, timer_key,
                              float(level.spmv_work[0].max()),
                              overlap_bytes=level.interior_spmv_work)

    def _rbgs_comm(self, level: SimLevel, color: int,
                   next_color: Optional[int] = None) -> None:
        # colour c's exchange pipelines behind colour c+1's interior
        # update; the last colour of a half-sweep has nothing to hide
        # behind and stays exposed
        overlap = (float(level.interior_color_work[next_color])
                   if next_color is not None else 0.0)
        self._close_superstep(level.color_plans[color], "rbgs_halo",
                              f"mg/L{level.index}/rbgs",
                              float(level.color_work[color]),
                              overlap_bytes=overlap)

    # --- restriction / refinement --------------------------------------------
    def _injection_halo(self, fine: SimLevel,
                        coarse: SimLevel) -> Dict[Tuple[int, int], int]:
        """Per-(src, dst) bytes of injection points crossing nodes.

        Empty for the geometric partition (nested boxes); small but
        nonzero for BFS owners, whose levels are partitioned
        independently.
        """
        src = fine.owners[fine.injection]
        dst = coarse.owners
        cross = src != dst
        halo: Dict[Tuple[int, int], int] = {}
        if cross.any():
            pair = src[cross].astype(np.int64) * self.nprocs + dst[cross]
            counts = np.bincount(pair)
            for key in np.flatnonzero(counts):
                halo[(int(key) // self.nprocs,
                      int(key) % self.nprocs)] = int(counts[key]) * 8
        return halo

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        work = _RESTRICT_COPY_BYTES * self._vector_share(coarse.n)
        if not fine.restrict_plan.messages:
            # injection source (2x, 2y, 2z) lies in the same node's box:
            # a local index copy, no messages, no barrier (paper §IV)
            self._tick_local(f"mg/L{fine.index}/restrict", work)
        else:
            self._close_superstep(fine.restrict_plan, "restrict",
                                  f"mg/L{fine.index}/restrict", work)

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        work = _RESTRICT_COPY_BYTES * self._vector_share(coarse.n)
        if not fine.prolong_plan.messages:
            self._tick_local(f"mg/L{fine.index}/prolong", work)
        else:
            self._close_superstep(fine.prolong_plan, "refine",
                                  f"mg/L{fine.index}/prolong", work)
