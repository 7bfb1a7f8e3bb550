"""The BSP cost model that prices a recorded communication trace.

A superstep that moves an h-relation of ``h`` bytes while each node
streams ``work`` bytes through memory costs

    ``work / mem_bandwidth + h / net_bandwidth + latency``

— the classic BSP ``w + h*g + L`` with ``g`` and ``L`` expressed in
bytes-per-second and seconds so they can be read straight off machine
datasheets.  HPCG kernels are bandwidth-bound, so ``work`` is measured
in bytes (not flops), matching :mod:`repro.perf.model`.

Split-phase supersteps relax the sum: communication posted early can
hide behind independent local compute.  A superstep that tags
``overlap_bytes`` of its work as running while the exchange is in
flight is priced

    ``work / mem_bw + comm - eff * min(overlap_bytes / mem_bw, comm)``

with ``comm = h / net_bw + latency`` and ``eff`` the machine's
**overlap efficiency** (1.0 = perfect NIC/compute concurrency; 0.0
degenerates to the eager sum).  When the whole work term overlaps
(``overlap_bytes == work``, ``eff == 1``), the formula is exactly
``max(work_time, comm_time)``.  The un-hidden remainder is the
**exposed** communication time the figures report.

The two presets mirror the paper's Table II nodes: the Kunpeng 920
(ARM) node attains more memory bandwidth than the Xeon Gold (x86) node,
while both sit on the same Mellanox 100 Gb/s fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.dist.comm import CommTracker, SuperstepStats
from repro.util.errors import InvalidValue


@dataclass(frozen=True)
class BSPMachine:
    """One node class of a BSP machine.

    ``mem_bandwidth`` and ``net_bandwidth`` are bytes/second;
    ``latency`` is the per-superstep synchronisation cost in seconds
    (the BSP ``L``, charged even for communication-free supersteps);
    ``overlap_efficiency`` is the fraction of in-flight wire time a
    split-phase exchange can hide behind tagged local compute.
    """

    name: str
    mem_bandwidth: float
    net_bandwidth: float
    latency: float
    overlap_efficiency: float = 1.0

    def __post_init__(self):
        if self.mem_bandwidth <= 0 or self.net_bandwidth <= 0:
            raise InvalidValue(
                f"bandwidths must be positive: mem={self.mem_bandwidth}, "
                f"net={self.net_bandwidth}"
            )
        if self.latency < 0:
            raise InvalidValue(f"latency must be >= 0, got {self.latency}")
        if not (0.0 <= self.overlap_efficiency <= 1.0):
            raise InvalidValue(
                f"overlap efficiency must lie in [0, 1], "
                f"got {self.overlap_efficiency}"
            )

    def comm_time(self, h_bytes: float) -> float:
        """Wire time of one superstep: ``h*g + L`` (no local work)."""
        return h_bytes / self.net_bandwidth + self.latency

    def hidden_comm_time(self, h_bytes: float,
                         overlap_bytes: float = 0.0) -> float:
        """Seconds of wire time hidden behind tagged overlapped compute."""
        if overlap_bytes <= 0.0:
            return 0.0
        return self.overlap_efficiency * min(
            overlap_bytes / self.mem_bandwidth, self.comm_time(h_bytes))

    def exposed_comm_time(self, h_bytes: float,
                          overlap_bytes: float = 0.0) -> float:
        """Wire time left on the critical path after overlap."""
        return (self.comm_time(h_bytes)
                - self.hidden_comm_time(h_bytes, overlap_bytes))

    def superstep_time(self, work_bytes: float, h_bytes: float,
                       overlap_bytes: float = 0.0) -> float:
        """Seconds for one superstep.

        Eager (``overlap_bytes == 0``): the classic ``w + h*g + L``.
        Split-phase: the exchange hides behind ``overlap_bytes`` of the
        local compute, leaving only the exposed wire time — at full
        overlap this is ``max(work_time, comm_time)``.
        """
        return (work_bytes / self.mem_bandwidth
                + self.exposed_comm_time(h_bytes, overlap_bytes))

    def work_time(self, work_bytes: float) -> float:
        """Seconds for a purely local operation (no barrier, no network)."""
        return work_bytes / self.mem_bandwidth

    def retry_comm_times(self, h_bytes: np.ndarray, attempts: np.ndarray,
                         backoff: float = 0.0) -> np.ndarray:
        """Price of re-driving each lost exchange (fault injection), one
        array expression: the ``attempts[i]``-th retry of an exchange of
        ``h_bytes[i]`` pays the full wire time again plus an exponential
        sender backoff of ``backoff * 2**attempts[i]`` seconds — a
        bounded-retry transport, with no compute to hide behind."""
        return self.comm_time(h_bytes) + backoff * (2.0 ** attempts)

    def row_costs(self, work_bytes: np.ndarray, h_bytes: np.ndarray,
                  overlap_bytes: np.ndarray, superstep: np.ndarray) -> tuple:
        """``(total, comm_full, comm_exposed, comm_hidden)`` of each row:
        :meth:`superstep_costs` where ``superstep`` holds, else
        :meth:`work_time` with no wire terms — each one array expression
        in the scalar order of operations, so every price is
        bit-identical to the scalar one's."""
        full = np.where(superstep,
                        h_bytes / self.net_bandwidth + self.latency, 0.0)
        hidden = np.where(overlap_bytes > 0.0, self.overlap_efficiency
                          * np.minimum(overlap_bytes / self.mem_bandwidth,
                                       full), 0.0)
        exposed = full - hidden
        return work_bytes / self.mem_bandwidth + exposed, full, exposed, hidden

    def superstep_costs(self, work_bytes: float, h_bytes: float,
                        overlap_bytes: float = 0.0) -> dict:
        """Every component of one superstep's price, in one pass.

        Returns ``{"work", "comm_full", "comm_exposed", "comm_hidden",
        "total"}`` (seconds).  ``total`` equals :meth:`superstep_time`
        and ``comm_full == comm_exposed + comm_hidden`` by
        construction — the decomposition the split-phase engine ticks
        into its timers and the observability layer attaches to
        superstep spans.
        """
        work = self.work_time(work_bytes)
        comm_full = self.comm_time(h_bytes)
        hidden = self.hidden_comm_time(h_bytes, overlap_bytes)
        exposed = comm_full - hidden
        return {
            "work": work,
            "comm_full": comm_full,
            "comm_exposed": exposed,
            "comm_hidden": hidden,
            "total": work + exposed,
        }


# Table II nodes: attained STREAM bandwidths, shared 100 Gb/s fabric.
X86_NODE = BSPMachine(
    name="x86-node",
    mem_bandwidth=192.0e9,
    net_bandwidth=12.5e9,
    latency=10e-6,
)
ARM_CLUSTER_NODE = BSPMachine(
    name="arm-cluster-node",
    mem_bandwidth=246.3e9,
    net_bandwidth=12.5e9,
    latency=10e-6,
)


def bsp_time(
    machine: BSPMachine,
    supersteps: Iterable[SuperstepStats],
    work_bytes: Sequence[float],
    use_overlap: bool = True,
) -> float:
    """Total time of a trace given per-superstep local work in bytes.

    Split-phase supersteps carry their own ``overlapped_work`` tags;
    ``use_overlap=False`` prices the same trace eagerly (the comparison
    baseline).
    """
    return sum(
        machine.superstep_time(
            work, step.h,
            step.overlapped_work if use_overlap else 0.0,
        )
        for step, work in zip(supersteps, work_bytes)
    )


def tracker_comm_time(machine: BSPMachine, tracker: CommTracker) -> float:
    """Pure communication time of a trace (work priced at zero, nothing
    hidden) — the eager wire-time baseline."""
    return sum(machine.comm_time(s.h) for s in tracker.supersteps)


def tracker_exposed_comm_time(machine: BSPMachine,
                              tracker: CommTracker) -> float:
    """Wire time left on the critical path after each split-phase
    superstep hides what its overlap tags allow."""
    return sum(
        machine.exposed_comm_time(s.h, s.overlapped_work)
        for s in tracker.supersteps
    )
