"""Simulated distributed-memory execution of HPCG-on-GraphBLAS.

The paper's distributed experiments compare two designs:

* the **hybrid ALP backend** — opaque containers force a 1D block-cyclic
  distribution whose every ``mxv`` replicates the input vector
  (an allgather of ``n (p-1)/p`` values per node, Table I);
* the **reference backend** — geometry-aware 3D box partitioning with
  surface-proportional halo exchanges, which weak-scales.

This package simulates both (plus the paper's §VII-B "solution ii" 2D
block distribution) on one machine: the numerics are executed exactly —
residual histories are bit-identical to the serial driver, and computed
once per problem (:mod:`repro.dist.numerics`) — while every message is
recorded by a :class:`~repro.dist.comm.CommTracker` and priced by the
BSP cost model in :mod:`repro.dist.bsp`.

Communication runs through a **split-phase engine**: exchanges are
either eager supersteps (``compute + comm`` summed) or posted/waited
asynchronous intervals that hide wire time behind tagged local compute
(``comm_mode="overlap"``, or the ``REPRO_OVERLAP`` environment force).
Both modes move identical bytes over identical supersteps and produce
bit-identical residuals; only the BSP pricing differs, and both the
full and the *exposed* (post-overlap) communication time are reported.
"""

from repro.dist.bsp import (
    ARM_CLUSTER_NODE,
    BSPMachine,
    X86_NODE,
    bsp_time,
    tracker_comm_time,
    tracker_exposed_comm_time,
)
from repro.dist.comm import (
    CommTracker,
    ExchangePlan,
    InFlightExchange,
    SuperstepStats,
    resolve_comm_mode,
)
from repro.dist.faults import (
    Checkpoint,
    Crash,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    MessageLoss,
    NodeCrash,
    Straggler,
)
from repro.dist.halo import LocalRBGSExecutor, LocalSpmvExecutor
from repro.dist.hybrid import HybridALPRun
from repro.dist.hybrid2d import Hybrid2DRun
from repro.dist.partition import (
    Block1D,
    BlockCyclic1D,
    Grid3DPartition,
    bfs_partition,
    factor3,
    halo_for_owners,
    largest_square,
)
from repro.dist.refdist import RefDistRun
from repro.dist.result import DistRunResult

__all__ = [
    "ARM_CLUSTER_NODE",
    "BSPMachine",
    "Block1D",
    "BlockCyclic1D",
    "Checkpoint",
    "CommTracker",
    "Crash",
    "DistRunResult",
    "ExchangePlan",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Grid3DPartition",
    "Hybrid2DRun",
    "HybridALPRun",
    "InFlightExchange",
    "LocalRBGSExecutor",
    "LocalSpmvExecutor",
    "MessageLoss",
    "NodeCrash",
    "RefDistRun",
    "Straggler",
    "SuperstepStats",
    "X86_NODE",
    "bfs_partition",
    "bsp_time",
    "factor3",
    "halo_for_owners",
    "largest_square",
    "resolve_comm_mode",
    "tracker_comm_time",
    "tracker_exposed_comm_time",
]
