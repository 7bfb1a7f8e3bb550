"""The result record shared by all simulated distributed runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dist.comm import CommTracker
from repro.util.timer import TimerRegistry


@dataclass
class DistRunResult:
    """One simulated distributed CG(+MG) run.

    ``modelled_seconds`` is the BSP-priced execution time; ``timers``
    holds its per-kernel decomposition under the same ``mg/L{i}/...`` /
    ``cg/...`` labels the serial driver uses, so the Figure 4-7
    breakdown code consumes either interchangeably.

    ``comm_seconds`` is the full wire time of the trace (every
    superstep's ``h*g + L``); ``exposed_comm_seconds`` is what remains
    on the critical path after split-phase supersteps hide wire time
    behind overlapped local compute.  Under ``comm_mode="eager"`` the
    two are equal; their gap is the modelled win of the async engine.
    """

    backend: str
    nprocs: int
    n: int
    iterations: int
    residuals: List[float]
    modelled_seconds: float
    timers: TimerRegistry
    tracker: CommTracker
    mg_levels: int
    comm_mode: str = "eager"
    comm_seconds: float = 0.0
    exposed_comm_seconds: float = 0.0
    #: name of the :class:`~repro.dist.bsp.BSPMachine` that priced the
    #: run, so reports show which machine set the modelled times
    machine: str = ""
    #: wire-time decomposition under ``full/<key>`` / ``exposed/<key>``
    #: labels — kept apart from ``timers`` so kernel-share reports
    #: still sum to ``modelled_seconds``
    comm_timers: Optional[TimerRegistry] = None
    #: run-provenance manifest (:mod:`repro.obs.manifest`), attached
    #: when observability was enabled during the run; None otherwise
    manifest: Optional[Dict] = None
    #: compact per-run metrics dict (supersteps, comm bytes/seconds by
    #: exposure) attached under the same condition
    metrics: Optional[Dict] = None
    #: fault-injection summary (:mod:`repro.dist.faults`) when the run
    #: executed under an active FaultPlan: the plan + seed, every
    #: injected event, recovery/checkpoint/retry counts and the
    #: checkpoint overhead in modelled seconds; None for clean runs
    resilience: Optional[Dict] = None

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    @property
    def comm_bytes(self) -> int:
        return self.tracker.total_bytes

    @property
    def syncs(self) -> int:
        return self.tracker.num_syncs

    @property
    def hidden_comm_seconds(self) -> float:
        """Wire time hidden behind overlapped compute (0 when eager)."""
        return self.comm_seconds - self.exposed_comm_seconds

    def mg_level_breakdown(self) -> List[Dict[str, float]]:
        """Per-MG-level shares of modelled time (the Fig. 6/7 quantity)."""
        total = self.modelled_seconds or 1.0
        rows = []
        for i in range(self.mg_levels):
            rbgs = self.timers.total(f"mg/L{i}/rbgs")
            rr = (self.timers.total(f"mg/L{i}/restrict")
                  + self.timers.total(f"mg/L{i}/prolong"))
            rows.append({
                "level": i,
                "rbgs": rbgs / total,
                "restrict_refine": rr / total,
            })
        return rows

    def exposed_comm_breakdown(self) -> List[Dict[str, float]]:
        """Per-MG-level full vs exposed RBGS wire time (seconds).

        How much of each level's smoother communication the split-phase
        engine hides.
        """
        timers = self.comm_timers or TimerRegistry()
        rows = []
        for i in range(self.mg_levels):
            full = timers.total(f"full/mg/L{i}/rbgs")
            exposed = timers.total(f"exposed/mg/L{i}/rbgs")
            rows.append({
                "level": i,
                "full": full,
                "exposed": exposed,
                "hidden": full - exposed,
            })
        return rows

    def summary(self) -> str:
        final = self.final_residual
        priced = f" priced by {self.machine}" if self.machine else ""
        faulted = ""
        if self.resilience is not None:
            r = self.resilience
            faulted = (
                f" [faults: {len(r.get('events', []))} events, "
                f"{r.get('recoveries', 0)} recoveries, "
                f"{r.get('checkpoints', 0)} checkpoints, "
                f"{r.get('exchange_retries', 0)} retries]"
            )
        return (
            f"{self.backend}: p={self.nprocs}, n={self.n}, "
            f"{self.iterations} iterations, final residual {final:.3e}, "
            f"modelled {self.modelled_seconds:.6f}s, "
            f"comm {self.comm_bytes / 1e6:.3f} MB over {self.syncs} "
            f"supersteps [{self.comm_mode}: "
            f"{self.exposed_comm_seconds:.6f}s exposed of "
            f"{self.comm_seconds:.6f}s wire time]{priced}{faulted}"
        )
