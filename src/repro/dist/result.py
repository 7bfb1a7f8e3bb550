"""The result record shared by all simulated distributed runs, and the
run state a solve accumulates and closes into it."""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.dist.comm import CommTracker
from repro.dist.faults import FaultInjector
from repro.dist.tape import book_timers
from repro.util.timer import Timer, TimerRegistry


def _registries(booked: tuple) -> tuple:
    """The timers and the wire seconds (registries 0 and 1) of the totals
    :func:`~repro.dist.tape.book_timers` booked: every timer ticked, in
    the order of its first tick, both built in one pass."""
    layout, totals, counts, ticks = booked
    totals, counts = totals.tolist(), counts.tolist()
    registries = TimerRegistry(), TimerRegistry()
    for i in dict.fromkeys(itertools.chain.from_iterable(ticks)):
        r, name = layout[i]
        registries[r].timers[name] = Timer(name, totals[i], counts[i])
    return registries


class _Registry:
    """A registry field of :class:`DistRunResult`: the one given, else
    the one built, with its fellow, from the run's booked totals when
    either is first read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return None                 # the field's default
        kept = result.__dict__
        if self.name not in kept and result._booked:
            # two threads may both build; both read the one kept
            for name, registry in zip(("timers", "comm_timers"),
                                      _registries(result._booked)):
                kept.setdefault(name, registry)
        return kept.get(self.name)

    def __set__(self, result, registry):
        if registry is None:            # built when read, if booked
            result.__dict__.pop(self.name, None)
        else:
            result.__dict__[self.name] = registry


@dataclass
class DistRunResult:
    """One simulated distributed CG(+MG) run.

    ``modelled_seconds`` is the BSP-priced execution time; ``timers``
    holds its per-kernel decomposition under the same ``mg/L{i}/...`` /
    ``cg/...`` labels the serial driver uses, so the Figure 4-7
    breakdown code consumes either interchangeably.  A run hands its
    result plain per-key totals (``_booked``); ``timers`` and
    ``comm_timers`` are built from them when first read, unless given.

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
    tracker: CommTracker
    mg_levels: int
    timers: Optional[TimerRegistry] = _Registry()
    comm_mode: str = "eager"
    comm_seconds: float = 0.0
    exposed_comm_seconds: float = 0.0
    #: name of the :class:`~repro.dist.bsp.BSPMachine` that priced the
    #: run, so reports show which machine set the modelled times
    machine: str = ""
    #: wire-time decomposition under ``full/<key>`` / ``exposed/<key>``
    #: labels — kept apart from ``timers`` so kernel-share reports
    #: still sum to ``modelled_seconds``
    comm_timers: Optional[TimerRegistry] = _Registry()
    #: run-provenance manifest (:mod:`repro.obs.manifest`), attached
    #: when observability was enabled during the run; None otherwise
    manifest: Optional[Dict] = None
    #: compact per-run metrics dict (supersteps, comm bytes/seconds by
    #: exposure) attached under the same condition
    metrics: Optional[Dict] = None
    #: True when the run priced only, its dots returning the trajectory
    #: an earlier computed run on the problem recorded
    #: (:mod:`repro.dist.numerics`); False when it computed
    replayed: bool = False
    #: preconditioner applications the V-cycle kernel declined, applied
    #: by Listing 1's GraphBLAS transcription instead (0 when replayed)
    transcribed: int = 0
    #: builds :attr:`resilience` when it is first read; None for clean runs
    _resilience: Optional[Callable[[], Dict]] = field(
        default=None, repr=False, compare=False)
    #: the run's booked timer totals (see :func:`_registries`), which
    #: ``timers`` and ``comm_timers`` are built from; None when given
    _booked: Optional[tuple] = field(default=None, repr=False,
                                     compare=False)

    @cached_property
    def resilience(self) -> Optional[Dict]:
        """Fault-injection summary (:mod:`repro.dist.faults`) when the run
        executed under an active FaultPlan: the plan + seed, every
        injected event, recovery/checkpoint/retry counts and the
        checkpoint overhead in modelled seconds; None for clean runs.
        Built when first read: a run books its loss events as blocks,
        and nothing it times reads them."""
        return None if self._resilience is None else self._resilience()

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


class _RunState:
    """Everything one :meth:`~repro.dist.simulate.SimulatedDistRun.run_cg`
    accumulates, and the :meth:`result` it closes into.

    Recovery hands this object to the survivor run by reference, so the
    final totals honestly include every failed attempt.  Only the
    tracker restarts (its per-node arrays are sized to the node count);
    the discarded ones are kept in ``lost_trackers``.
    """

    def __init__(self, nprocs: int, injector: Optional[FaultInjector],
                 machine, mode: str):
        self.tracker = CommTracker(nprocs)
        self.machine, self.mode = machine, mode
        # the terms the folds laid out, booked into totals at the end
        # (tape.book_timers), whence the timers and the wire seconds are
        # built when read
        self.terms: list = []
        self.seconds = 0.0
        self.comm_seconds = 0.0
        self.exposed_comm_seconds = 0.0
        self.injector = injector
        # only a lossy plan draws retries (any other draws none)
        self.lossy = (injector is not None
                      and injector.plan.message_loss is not None)
        # the run's trajectory (the dots being computed, or the record a
        # run prices from), the next dot's index in it, and whether the
        # kernels compute nothing (see SimulatedDistRun.run_cg)
        self.dots: list = []
        self.cursor = 0
        self.priced = False
        self.transcribed = 0          # applications the kernel declined
        self.checkpoint: Optional[int] = None   # the last one's iteration
        self.checkpoint_seconds = 0.0
        self.checkpoints = 0
        self.iteration = 0            # the iteration in progress
        self.reexecuted = 0
        self.lost_trackers: List[CommTracker] = []   # a crash's, discarded
        # the program being recorded (rows and span marks), the run's
        # record's programs by kind (SimulatedDistRun._recorded), and the
        # entry and copy a crash cut the last fold in (tape._cut)
        self.recording: Optional[list] = None
        self.marks: list = []
        self.programs: dict = {}
        self.cut: Optional[tuple] = None
        # the obs context, read once (no environment lookup per
        # superstep); the fault metrics are declared only on faulted runs
        self.ctx = obs.current()
        self.span = (self.ctx.tracer.span if self.ctx is not None
                     else lambda *args: obs.NULL_SPAN)
        self.metrics: Optional[SimpleNamespace] = None
        if self.ctx is None:
            return
        if injector is not None:    # untraced, fault events stay in blocks
            injector.on_event = self.on_fault_event
        registry = self.ctx.metrics
        self.metrics = m = SimpleNamespace(
            supersteps=registry.counter(
                "dist_supersteps_total", "BSP supersteps closed"),
            h=registry.series(
                "dist_h_relation", "h-relation bytes per superstep"),
            comm=registry.counter(
                "dist_comm_seconds",
                "modelled wire seconds by exposure (full/exposed/hidden)"),
            residual=registry.series(
                "dist_cg_residual",
                "simulated CG residual 2-norm per iteration"),
            iteration=registry.gauge(
                "dist_cg_iteration",
                "current simulated-CG iteration (live progress)"),
            residual_last=registry.gauge(
                "dist_cg_residual_last",
                "most recent simulated-CG residual 2-norm"),
        )
        if injector is not None:
            m.faults = registry.counter(
                "faults_injected_total", "injected fault events by kind")
            m.retries = registry.counter(
                "exchange_retries_total",
                "lost-exchange re-deliveries priced as extra supersteps")
            m.checkpoint = registry.counter(
                "checkpoint_seconds",
                "modelled seconds spent taking CG-state checkpoints")
            m.recoveries = registry.counter(
                "dist_recoveries_total",
                "crash recoveries (rollback + repartition onto survivors)")

    timers = property(lambda self: _registries(book_timers(self.terms))[0])
    comm_timers = property(
        lambda self: _registries(book_timers(self.terms))[1])

    def ticked(self, name: str, category: str, args: Optional[dict] = None):
        """An obs span that, unless a crash unwinds it, is ticked with
        the modelled seconds booked inside its extent; the null span
        when the run is untraced."""
        if self.ctx is None:
            return obs.NULL_SPAN
        return self._ticked(name, category, args)

    @contextlib.contextmanager
    def _ticked(self, name: str, category: str, args: Optional[dict]):
        with self.span(name, category, args) as sp:
            before = self.seconds
            yield sp
            sp.tick(self.seconds - before)

    def on_fault_event(self, event) -> None:
        """Mirror every injector event into the trace and metrics."""
        if self.ctx is not None:
            self.ctx.tracer.event(f"fault/{event.kind}", "fault",
                                  event.as_dict())
        m = self.metrics
        if m is not None and event.kind in ("straggler", "node_speeds",
                                            "message_loss", "crash"):
            m.faults.inc(1, kind=event.kind)

    def result(self, run, k: int, residuals: List[float],
               replayed: bool) -> DistRunResult:
        """The result record of the solve ``run`` (the final run: the
        survivors after a crash) finished at iteration ``k``, with
        manifest + compact metrics attached when obs is on."""
        inj = self.injector
        manifest = run_metrics = None
        if self.ctx is not None:
            recorder = self.ctx.manifest
            recorder.record_config(dist={
                "backend": run.backend,
                "nprocs": run.nprocs,
                "mg_levels": run.mg_levels,
                "machine": run.machine.name,
                "comm_mode": run.comm_mode,
                "overlap_efficiency": run.machine.overlap_efficiency,
                "agglomerate_below": run.agglomerate_below,
            })
            if inj is not None:
                recorder.record_config(faults=inj.plan.to_dict())
                recorder.record_seed("fault_plan", inj.plan.seed)
            manifest = self.ctx.build_manifest()
            run_metrics = {
                "supersteps": self.tracker.num_syncs,
                "comm_bytes": self.tracker.total_bytes,
                "total_h": self.tracker.total_h,
                "modelled_seconds": self.seconds,
                "comm_seconds": self.comm_seconds,
                "exposed_comm_seconds": self.exposed_comm_seconds,
                "hidden_comm_seconds": (
                    self.comm_seconds - self.exposed_comm_seconds),
                "iterations": k,
            }
            if inj is not None:
                run_metrics["recoveries"] = inj.recoveries
                run_metrics["checkpoint_seconds"] = self.checkpoint_seconds
                run_metrics["exchange_retries"] = inj.exchange_retries
        return DistRunResult(
            backend=run.backend,
            nprocs=run.nprocs,
            n=run.n,
            iterations=k,
            residuals=residuals,
            modelled_seconds=self.seconds,
            tracker=self.tracker,
            mg_levels=run.mg_levels,
            comm_mode=run.comm_mode,
            comm_seconds=self.comm_seconds,
            exposed_comm_seconds=self.exposed_comm_seconds,
            machine=run.machine.name,
            manifest=manifest,
            metrics=run_metrics,
            replayed=replayed,
            transcribed=self.transcribed,
            _resilience=None if inj is None else self._resilience(run),
            _booked=book_timers(self.terms),
        )

    def _resilience(self, run) -> Callable[[], Dict]:
        """What builds the fault-injection summary of the solve ``run``
        finished (see :attr:`DistRunResult.resilience`): its counts are
        taken now, its events (booked as blocks) listed and its bytes
        counted when it runs."""
        inj, trackers = self.injector, [*self.lost_trackers, self.tracker]
        counts = {
            "injected": inj.injected_counts(),
            "recoveries": inj.recoveries,
            "checkpoints": self.checkpoints,
            "checkpoint_seconds": self.checkpoint_seconds,
            "exchange_retries": inj.exchange_retries,
            "initial_nprocs": inj.nprocs,
            "final_nprocs": run.nprocs,
            "reexecuted_iterations": self.reexecuted,
            "supersteps_total": sum(t.num_syncs for t in trackers),
        }
        return lambda: {"plan": inj.plan.to_dict(), "seed": inj.plan.seed,
                        "events": [e.as_dict() for e in inj.events],
                        **counts, "comm_bytes_total": sum(
                            t.total_bytes for t in trackers)}
