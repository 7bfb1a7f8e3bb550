"""The shared-memory scaling model behind Figures 1, 2, 4 and 5.

HPCG is memory-bandwidth-bound, so the model's core is *how much of the
machine's attained bandwidth a given implementation extracts at a given
thread placement*:

``BW(t) = efficiency * sum_over_used_sockets[ BW_socket * util(t_s) * numa(t_s) ]``

* ``util(t_s) = t_eff / (t_eff + half_sat)`` — a saturating curve; the
  ``half_sat`` parameter is the implementation's thread count at 50%
  of socket bandwidth.  ALP saturates with few threads (the paper
  attributes this to GraphBLAS semantics + template propagation letting
  the compiler emit better kernels); Ref needs many more, and on x86
  only saturates with hyperthreads (paper Section V-A).  Hyperthreads
  contribute to ``t_eff`` with weight ``smt_weight`` (they add memory-
  level parallelism, not bandwidth).
* ``numa(t_s)`` — NUMA-unaware, domain-local allocations (Ref) serve all
  threads of a socket from one domain's channels: once threads exceed
  one domain's cores, the extra threads contend, modelled as a linear
  penalty.  NUMA-aware interleaved allocations (ALP; or Ref under
  ``numactl --interleave``, which is what the paper plots across two
  sockets) spread pressure evenly: no penalty.  This is what makes
  Ref degrade as threads approach a full Kunpeng socket (two NUMA
  domains per socket, Figure 1) while ALP does not.

The *work* fed into the model is not hand-written: it is the byte/flop
stream of an actual serial run of this repository's GraphBLAS HPCG,
captured by :mod:`repro.graphblas.backend` (see
:func:`collect_op_stream`).  Ref's stream differs only where the paper's
implementations differ: restriction/refinement are index copies rather
than mxv (fewer bytes per transferred point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import graphblas as grb
from repro.hpcg.cg import pcg
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import Problem
from repro.perf.machine import MachineSpec
from repro.util.errors import InvalidValue


@dataclass(frozen=True)
class ImplProfile:
    """Scaling personality of one implementation."""

    name: str
    numa_aware: bool
    half_sat_threads: float   # threads at 50% of one socket's bandwidth
    smt_weight: float         # how much a hyperthread adds to t_eff
    efficiency: float         # fraction of attained bandwidth reachable
    numa_penalty: float = 0.35  # max slowdown factor for domain-local alloc
    # The paper runs the two-socket Ref configurations under
    # ``numactl --interleave`` (Section V-A), which spreads pages over
    # all NUMA domains and removes the domain-local penalty there; the
    # single-socket runs keep the default (penalised) policy.
    multisocket_interleave: bool = True


# ALP: NUMA-aware interleaved allocator, compiler-optimised kernels.
ALP_PROFILE = ImplProfile(
    name="ALP", numa_aware=True, half_sat_threads=3.0, smt_weight=0.25,
    efficiency=1.0,
)
# Ref: plain allocations, saturates late, gains a lot from SMT.
REF_PROFILE = ImplProfile(
    name="Ref", numa_aware=False, half_sat_threads=12.0, smt_weight=1.0,
    efficiency=0.97,
)


@dataclass(frozen=True)
class Placement:
    """``threads`` application threads packed onto ``sockets`` sockets.

    The paper pins threads to physical cores packed on one socket when
    they fit ("44 - 1S" on x86 means 44 threads — 22 cores plus their
    hyperthreads — on a single socket).
    """

    threads: int
    sockets: int

    def __post_init__(self):
        if self.threads < 1 or self.sockets < 1:
            raise InvalidValue("placement needs >= 1 thread and socket")

    @property
    def threads_per_socket(self) -> float:
        return self.threads / self.sockets


def packed_placement(machine: MachineSpec, threads: int) -> Placement:
    """Default packing: fill physical cores of one socket, then spill."""
    per_socket_threads = machine.cores_per_socket * machine.threads_per_core
    sockets = min(machine.sockets, max(1, math.ceil(threads / per_socket_threads)))
    # prefer fewer sockets only if the threads fit as physical cores there
    if threads <= machine.cores_per_socket:
        sockets = 1
    elif threads <= machine.physical_cores:
        sockets = min(machine.sockets, math.ceil(threads / machine.cores_per_socket))
    return Placement(threads=threads, sockets=sockets)


class ScalingModel:
    """Predicts kernel times for (machine, implementation) pairs."""

    def __init__(self, machine: MachineSpec, impl: ImplProfile):
        self.machine = machine
        self.impl = impl

    # --- the bandwidth curve ---------------------------------------------------
    def socket_utilisation(self, threads_on_socket: float) -> float:
        """Fraction of one socket's bandwidth extracted by ``t_s`` threads."""
        m, impl = self.machine, self.impl
        phys = min(threads_on_socket, m.cores_per_socket)
        smt = max(0.0, threads_on_socket - m.cores_per_socket)
        t_eff = phys + impl.smt_weight * smt
        return t_eff / (t_eff + impl.half_sat_threads)

    def numa_factor(self, threads_on_socket: float, sockets: int = 1) -> float:
        """Penalty for domain-local allocations spanning NUMA domains."""
        m, impl = self.machine, self.impl
        if impl.numa_aware or m.numa_domains_per_socket == 1:
            return 1.0
        if sockets > 1 and impl.multisocket_interleave:
            return 1.0
        per_domain = m.cores_per_numa_domain
        phys = min(threads_on_socket, m.cores_per_socket)
        if phys <= per_domain:
            return 1.0
        overflow = (phys - per_domain) / per_domain
        return 1.0 / (1.0 + impl.numa_penalty * overflow)

    def effective_bandwidth(self, placement: Placement) -> float:
        """Bytes/s the implementation extracts at this placement."""
        m, impl = self.machine, self.impl
        t_s = placement.threads_per_socket
        per_socket = (
            m.bandwidth_per_socket
            * self.socket_utilisation(t_s)
            * self.numa_factor(t_s, placement.sockets)
        )
        return impl.efficiency * per_socket * placement.sockets

    # --- time predictions --------------------------------------------------------
    def time_for_bytes(self, nbytes: float, placement: Placement) -> float:
        return nbytes / self.effective_bandwidth(placement)

    def kernel_times(
        self, stream: Dict[str, float], placement: Placement
    ) -> Dict[str, float]:
        """Per-label seconds for a measured byte stream."""
        bw = self.effective_bandwidth(placement)
        return {label: nbytes / bw for label, nbytes in stream.items()}

    def total_time(self, stream: Dict[str, float], placement: Placement) -> float:
        return sum(self.kernel_times(stream, placement).values())


# ---------------------------------------------------------------------------
# op-stream capture
# ---------------------------------------------------------------------------

def collect_op_stream(
    problem: Problem,
    mg_levels: int = 4,
    iterations: int = 5,
) -> Dict[str, float]:
    """Run serial GraphBLAS HPCG and return bytes moved per kernel label.

    Labels are ``rbgs@L{i}``, ``restrict@L{i}``, ``refine@L{i}``,
    ``mg_spmv@L{i}``, ``spmv``, ``dot``, ``waxpby`` — the level-tagged
    stream Figures 4-5 break down.
    """
    log = grb.backend.EventLog()
    mg_levels = min(mg_levels, problem.grid.max_mg_levels())
    hierarchy = build_hierarchy(problem, levels=mg_levels)
    precond = MGPreconditioner(hierarchy)
    x = problem.x0.dup()
    with grb.backend.collect(log):
        pcg(problem.A, problem.b, x, preconditioner=precond,
            max_iters=iterations)
    stream: Dict[str, float] = {}
    for event in log.events:
        label = event.label or event.op
        stream[label] = stream.get(label, 0.0) + float(event.bytes)
    return stream


def ref_stream_from_alp(stream: Dict[str, float]) -> Dict[str, float]:
    """Derive the Ref implementation's byte stream from ALP's.

    The two implementations run the same mathematics; they differ where
    the paper says they differ (Section III-B): Ref's restriction and
    refinement are raw index copies (8-byte read + 8-byte write per
    transferred point ≈ 16 bytes) while ALP's are mxv over a
    materialised matrix (value + column index + output row traffic ≈ 28
    bytes per point).  Everything else is byte-identical.
    """
    out = {}
    for label, nbytes in stream.items():
        if label.startswith(("restrict@", "refine@")):
            out[label] = nbytes * 16.0 / 28.0
        else:
            out[label] = nbytes
    return out


def split_stream(stream: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Group a level-tagged stream: {kernel: {level_or_'-': bytes}}."""
    out: Dict[str, Dict[str, float]] = {}
    for label, nbytes in stream.items():
        kernel, _, level = label.partition("@")
        out.setdefault(kernel, {})[level or "-"] = (
            out.get(kernel, {}).get(level or "-", 0.0) + nbytes
        )
    return out
