"""Shared engine of the simulated distributed runs: pricing, tapes,
faults and recovery.

The three backends (:class:`~repro.dist.hybrid.HybridALPRun`,
:class:`~repro.dist.hybrid2d.Hybrid2DRun`,
:class:`~repro.dist.refdist.RefDistRun`) run *identical numerics*
(:mod:`repro.dist.numerics`): CG is :func:`repro.ref.cg.cg_iterations`
on the :mod:`repro.ref` kernels, preconditioned by the compiled V-cycle
kernel of the serial fused path, so residual histories are bit-identical
to ``run_hpcg``.  The engine adds the accounting only: each kernel it
hands the loop is followed by the backend's ``*_comm`` hook, which
replays its sends on the :class:`~repro.dist.comm.CommTracker` and
prices the superstep on the BSP machine; each preconditioner application
by the one V-cycle walk, which prices Listing 1's steps in order and
runs none.  On a :class:`~repro.dist.faults.NodeCrash` ``run_cg``
repartitions onto the survivors and resumes from the last checkpoint.
Convergence is unchanged by the distribution (the paper's Section V
precondition), so backends compete purely on the communication they
induce, priced on the ``machine=`` a run is given, else on the Table-II
``ARM_CLUSTER_NODE`` preset: nothing measured on the host enters it.

What repeats is recorded once.  Construction records every exchange
pattern as an :class:`~repro.dist.comm.ExchangePlan` that a hook
replays.  A CG iteration closes the same supersteps at the same prices
as every other of its kind (the first puts ``p <- z`` before the dot)
in every run on the same record, mode, machine and preconditioner,
unless a fault event lands in it.  So an untraced run walks an
iteration superstep by superstep only while the numerics keep no tape
of it, and records what it booked as a :class:`~repro.dist.tape.Tape`.
An iteration whose window the injector finds quiet (message loss alone
is quiet) replays the tape: its kernels run their numerics and price
nothing, and the tape joins the run's **stretch** of replays since the
last walked superstep, as does, cut at the crash, an iteration quiet up
to a planned crash, which then fires there.  One fold books the stretch
in arrays (:func:`~repro.dist.tape.fold`: every total bit-identical,
supersteps, retries and loss events as blocks expanded only when read)
before anything reads the totals, the tracker or the injector's clock:
a walked superstep (a checkpoint is always walked), a crash, a window
verdict under message loss, the result.  Traced runs walk every
iteration: their spans are the product.

And the numerics run once per problem: a later untraced run whose stop
point the first computing run's recorded dots reach *prices only*.
``_spmv``, ``_waxpby`` and the checkpoints book their prices and
compute or copy nothing, ``_precondition`` runs the pricing walk alone,
and ``_dot`` returns the recorded value, so the loop takes every branch
the computed run took (a crash resumes from the record at the
checkpoint's ``k + 1``); ``b`` and ``x0`` enter as read-only stand-ins
of their length, copied from nothing.  ``DistRunResult.replayed`` says
which ran.

Pricing options
---------------

An explicit ``comm_mode=``, else the ``REPRO_OVERLAP`` force, else
``"eager"``: each exchange is a synchronous superstep priced ``work +
comm``.  Under ``"overlap"`` exchanges are *posted* (split-phase): the
backend tags the local compute that can proceed while one is in flight
(interior rows, the next colour's interior update, ...) and the BSP
model hides wire time behind it, up to the machine's
``overlap_efficiency`` (``overlap_efficiency=`` overrides that one
field).  The mode changes **pricing only**: sends, supersteps and
numerics are identical.  Full (eager-equivalent) and exposed wire time
are accumulated per timer key (``comm/full/...``, ``comm/exposed/...``)
and in total, to report how much is hidden.

``agglomerate_below=n`` gathers every MG level with at most ``n`` rows
onto node 0 (never the finest level): its smoother and residual mxv
become single-node local work — no supersteps, no latency — at the cost
of one gather superstep entering the level, one scatter leaving it, and
the loss of ``p``-way parallelism on it, all priced by the same engine.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
from typing import Optional

import numpy as np

from repro import obs
from repro.dist.bsp import ARM_CLUSTER_NODE, BSPMachine
from repro.dist.comm import (
    CommTracker,
    ExchangePlan,
    SuperstepStats,
    resolve_comm_mode,
)
from repro.dist.cost import (
    _DOT_BYTES,
    _RESTRICT_COPY_BYTES,
    _WAXPBY_BYTES,
    mxv_bytes,
)
from repro.dist.faults import FaultInjector, FaultPlan, NodeCrash
from repro.dist.numerics import _SHARED, SimLevel, _Numerics, require_fits
from repro.dist.partition import Block1D
from repro.dist.result import DistRunResult, _RunState
from repro.dist.tape import Tape
from repro.graphblas.substrate.csr import ColorMajorVCycle
from repro.hpcg.problem import Problem
from repro.ref.cg import CGState, cg_iterations, cg_start, require_cg_limits
from repro.ref.kernels import compute_dot, compute_spmv, compute_waxpby
from repro.util.errors import InvalidValue


class SimulatedDistRun:
    """Base class: one CG+MG numerics, pluggable communication."""

    backend = "dist"

    def __init__(self, problem: Problem, nprocs: int, mg_levels: int = 4,
                 machine: Optional[BSPMachine] = None,
                 comm_mode: Optional[str] = None,
                 overlap_efficiency: Optional[float] = None,
                 agglomerate_below: int = 0,
                 faults: Optional[FaultPlan] = None):
        if machine is None:
            machine = ARM_CLUSTER_NODE
        if nprocs < 1:
            raise InvalidValue(f"need at least one process, got {nprocs}")
        require_fits(problem, mg_levels)
        if agglomerate_below < 0:
            raise InvalidValue(
                f"agglomeration threshold must be >= 0, "
                f"got {agglomerate_below}"
            )
        if faults is not None:
            faults.validate_for(nprocs)
        self.problem = problem
        self.mg_levels = mg_levels
        # an overlap_efficiency override is folded into the machine
        # itself (dataclass validation included), so every pricing
        # helper that takes ``run.machine`` — bsp_time,
        # tracker_exposed_comm_time, perf.model.overlap_savings —
        # agrees with the run's own numbers
        if overlap_efficiency is not None:
            machine = dataclasses.replace(
                machine, overlap_efficiency=overlap_efficiency)
        self.machine = machine
        self.comm_mode = resolve_comm_mode(comm_mode)
        self.overlap = self.comm_mode == "overlap"
        self.overlap_efficiency = machine.overlap_efficiency
        self.agglomerate_below = agglomerate_below
        self.n = problem.n
        # shared with every run on the problem; each gets copies
        stencil = getattr(problem, "stencil", "27pt")
        key = (id(problem.A), problem.A.version, problem.grid.dims, stencil,
               mg_levels)
        self._numerics = _SHARED.get(key)
        if self._numerics is None:      # two racing threads: either serves
            self._numerics = _SHARED[key] = _Numerics(problem, mg_levels,
                                                      stencil)
        # the kernel, built at the first computed application: a run
        # that only prices never holds one (see _kernel)
        self._kernel_cell = []
        self._distribute(nprocs)
        self.faults = faults
        # one object per run_cg; shared with the survivor run on recovery
        self._state: Optional[_RunState] = None

    def _distribute(self, nprocs: int) -> None:
        """Take the communication record for ``nprocs`` nodes — the
        backend's partition, work shares and exchange plans per level,
        the engine's dot allreduce and root exchanges: every pattern the
        run will ever close — building it if no run has."""
        self.nprocs = nprocs
        records = self._numerics.records
        self._record_key = key = (type(self), nprocs,
                                  self.agglomerate_below, self._layout())
        if key in records:
            self.levels, self._root_plans, self._dot_plan = records[key]
            return
        self.levels = [copy.copy(level) for level in self._numerics]
        self._root_plans = {}
        for level in self.levels:
            # agglomeration: gather small coarse levels onto node 0
            # (never the finest level, which CG itself runs on)
            if (self.agglomerate_below and level.index > 0
                    and level.n <= self.agglomerate_below):
                level.agglomerated = True
                if not self.levels[level.index - 1].agglomerated:
                    self._record_root_exchanges(level.n)   # gather, scatter
                continue
            try:
                self._init_level_comm(level)
            except InvalidValue as exc:
                # the partitioners know neither the level nor the way out
                fixes = [f"a node count that divides it (got {nprocs})"]
                if level.index > 0:
                    fixes = [f"agglomerate_below >= {level.n}",
                             f"mg_levels <= {level.index}"] + fixes
                raise InvalidValue(
                    f"MG level {level.index} (grid {level.grid.dims}, "
                    f"{level.n} rows) cannot be distributed: {exc}; "
                    f"use " + " or ".join(fixes)) from exc
        scratch = CommTracker(nprocs)
        scratch.allreduce_scalar()
        self._dot_plan = scratch.freeze()
        self._record_root_exchanges(self.n, self._CKPT_VECTORS)
        records[key] = self.levels, self._root_plans, self._dot_plan

    @property
    def _kernel(self) -> ColorMajorVCycle:
        """What an application writes: this run's own, over twins of the
        shared sweeps, built at first use in a cell its survivors share
        (every application loads it anew).  The residual rows it
        multiplies are the numerics', so building it writes nothing
        runs share."""
        cell = self._kernel_cell
        if not cell:
            cell.append(ColorMajorVCycle(
                [level.smoother.twin() for level in self._numerics],
                [level.injection for level in self._numerics[:-1]]))
        return cell[0]

    @property
    def tracker(self) -> CommTracker:
        """The current solve's tracker (hooks replay their plans on it)."""
        return self._state.tracker

    # --- backend hooks -------------------------------------------------------
    def _layout(self) -> object:
        """What shapes the partition besides the node count (hashable)."""
        raise NotImplementedError

    def _init_level_comm(self, level: SimLevel) -> None:
        """Attach partition, work shares and every exchange plan."""
        raise NotImplementedError

    def _spmv_comm(self, level: SimLevel, sync_label: str,
                   timer_key: str) -> None:
        """Close the supersteps of one full operator mxv."""
        raise NotImplementedError

    def _rbgs_comm(self, level: SimLevel, color: int,
                   next_color: Optional[int] = None) -> None:
        """Close the supersteps of one colour's masked mxv.

        ``next_color`` is the colour the sweep updates next (``None``
        at the end of a half-sweep): in overlap mode its interior work
        is what a split-phase backend hides the exchange behind.
        """
        raise NotImplementedError

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        raise NotImplementedError

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        raise NotImplementedError

    # --- the split-phase superstep engine ------------------------------------
    def _close_superstep(self, plan: ExchangePlan, sync_label: str,
                         timer_key: str, work_bytes: float,
                         overlap_bytes: float = 0.0) -> None:
        """Replay ``plan`` as one *exchange* superstep and price it.

        Eager mode synchronises (``work + comm``); overlap mode posts
        and waits the same sends as a split-phase exchange, hiding wire
        time behind ``overlap_bytes`` of tagged local compute.  Under a
        lossy plan the exchange may be re-driven.
        """
        self.tracker.replay(plan, label=sync_label)
        if self.overlap:
            handle = self.tracker.post(label=sync_label)
            if overlap_bytes:
                handle.overlap(overlap_bytes)
            stats = self.tracker.wait(handle)
        else:
            stats = self.tracker.sync(label=sync_label)
            overlap_bytes = 0.0
        self._tick_superstep(timer_key, work_bytes, stats.h, overlap_bytes)
        state = self._state
        if state.taping is not None:
            state.taping.marked.add(stats.index)
        if state.lossy:
            self._retry_exchange(stats, sync_label, timer_key)

    def _barrier(self, plan: ExchangePlan, sync_label: str, timer_key: str,
                 work_bytes: float) -> None:
        """Replay ``plan`` as one *collective* superstep (dot allreduce,
        checkpoint, restore): synchronous in either mode, and reliable
        — never re-driven."""
        self.tracker.replay(plan, label=sync_label)
        stats = self.tracker.sync(label=sync_label)
        self._tick_superstep(timer_key, work_bytes, stats.h)

    def _record_root_exchanges(self, n: int, vectors: int = 1) -> None:
        """Plan the gather and the scatter :meth:`_root_exchange` replays."""
        shares = Block1D(n, self.nprocs)
        scratch = CommTracker(self.nprocs)
        for to_root in (True, False):
            for node in range(1, self.nprocs):
                src, dst = (node, 0) if to_root else (0, node)
                scratch.send(src, dst, vectors * shares.local_size(node) * 8)
            self._root_plans[n, vectors, to_root] = scratch.freeze()

    def _root_exchange(self, close, sync_label: str, timer_key: str,
                       n: int, vectors: int = 1,
                       to_root: bool = True) -> None:
        """One superstep in which every node ships its share of
        ``vectors`` ``n``-vectors to node 0 (or gets it back); ``close``
        is :meth:`_close_superstep` or :meth:`_barrier`."""
        close(self._root_plans[n, vectors, to_root], sync_label, timer_key,
              _RESTRICT_COPY_BYTES * vectors * self._vector_share(n))

    # --- pricing helpers -----------------------------------------------------
    def _span(self, name: str, category: str, args: Optional[dict] = None):
        """An obs span that, unless a crash unwinds it, is ticked with
        the modelled seconds priced inside its extent (nested spans —
        coarser MG levels — included, just like the span nesting); the
        null span when the run is untraced."""
        if self._state.ctx is None:
            return obs.NULL_SPAN
        return self._ticked_span(name, category, args)

    @contextlib.contextmanager
    def _ticked_span(self, name: str, category: str, args: Optional[dict]):
        with self._state.span(name, category, args) as sp:
            before = self._state.seconds
            yield sp
            if sp is not None:
                sp.tick(self._state.seconds - before)

    def _tick(self, key: str, seconds: float, *wire: float) -> None:
        state = self._state
        state.timers.tick(key, seconds)
        state.seconds += seconds
        if state.taping is not None:
            state.taping.ticks.append((key, seconds, *wire))

    def _account_superstep(self, key: str, h: int, total: float,
                           comm_full: float, comm_exposed: float,
                           comm_hidden: float) -> None:
        """Book one priced superstep (a first delivery or a retry)."""
        state = self._state
        self._tick(key, total, comm_full, comm_exposed)
        state.comm_seconds += comm_full
        state.exposed_comm_seconds += comm_exposed
        state.comm_timers.tick(f"full/{key}", comm_full)
        state.comm_timers.tick(f"exposed/{key}", comm_exposed)
        m = state.metrics
        if m is not None:
            m.supersteps.inc(1, mode=self.comm_mode)
            m.h.observe(h)
            m.comm.inc(comm_full, kind="full")
            m.comm.inc(comm_exposed, kind="exposed")
            m.comm.inc(comm_hidden, kind="hidden")

    def _tick_superstep(self, key: str, work_bytes: float, h: int,
                        overlap_bytes: float = 0.0) -> None:
        inj = self._state.injector
        if inj is not None:
            # every barrier advances the fault clock; the slowest
            # surviving node's straggler/speed factor inflates the
            # max-over-nodes work term (and what it could overlap)
            step = inj.begin_superstep()
            factor = inj.work_factor(step)
            if factor != 1.0:
                work_bytes *= factor
                overlap_bytes *= factor
        costs = self.machine.superstep_costs(work_bytes, h, overlap_bytes)
        self._account_superstep(key, h, costs["total"], costs["comm_full"],
                                costs["comm_exposed"], costs["comm_hidden"])
        if self._state.ctx is not None:
            with self._state.span(f"superstep/{key}", "dist") as sp:
                sp.tick(costs["total"])
                sp.set(
                    h=h, work_bytes=work_bytes, mode=self.comm_mode,
                    overlapped=overlap_bytes > 0,
                    comm_full=costs["comm_full"],
                    comm_exposed=costs["comm_exposed"],
                    comm_hidden=costs["comm_hidden"],
                )
        if inj is not None:
            # crashes surface at the barrier: the superstep is priced,
            # then the failure is detected
            inj.check_crash(step)

    def _tick_local(self, key: str, work_bytes: float) -> None:
        inj = self._state.injector
        if inj is not None:
            work_bytes *= inj.work_factor(inj.superstep)
        self._tick(key, self.machine.work_time(work_bytes))

    def _retry_exchange(self, stats: SuperstepStats, sync_label: str,
                        timer_key: str) -> None:
        """Price the seeded re-deliveries of one lossy exchange.

        Each retry is a real extra superstep: the tracker re-drives the
        same messages (``retry_of`` links it to the original), and the
        machine charges the full wire time again plus the exponential
        sender backoff — nothing hidden, a retry has no compute to
        overlap.  The count is drawn as a fold draws a tape's: a block of
        one exchange.
        """
        inj = self._state.injector
        if stats.h <= 0:                    # nothing on the wire to lose
            return
        origin = inj.superstep - 1          # the just-priced superstep
        _, retries = inj.draw_retries(np.array([origin]), (sync_label,))
        for attempt in range(retries.sum()):
            retry_stats = self.tracker.retry(stats, label=sync_label)
            step = inj.begin_superstep()
            cost = self.machine.retry_comm_time(
                stats.h, attempt, inj.plan.message_loss.backoff)
            if self._state.metrics is not None:
                self._state.metrics.retries.inc(1, label=sync_label)
            self._account_superstep(timer_key, retry_stats.h, cost,
                                    cost, cost, 0.0)
            inj.check_crash(step)

    def _vector_share(self, n: int) -> float:
        """Largest per-node share of an ``n``-vector (for local-op work)."""
        return float(-(-n // self.nprocs))

    # --- the kernels, each followed by its accounting ------------------------
    # (a priced run computes none of them: see run_cg; an iteration that
    # replays a tape prices none of them: see _iteration)
    def _dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """``u'v``, recorded at the cursor if a record is being made; a
        priced run returns the recorded one."""
        state = self._state
        dots, at = state.dots, state.cursor
        state.cursor += 1
        if state.priced:
            value = dots[at]
        else:
            value = compute_dot(u, v)
            if dots is not None and at == len(dots):  # not re-executed
                dots.append(value)
        if not state.replaying:
            self._barrier(self._dot_plan, "dot", "cg/dot",
                          _DOT_BYTES * self._vector_share(u.shape[0]))
        return value

    def _waxpby(self, w: np.ndarray, alpha: float, x: np.ndarray,
                beta: float, y: np.ndarray) -> np.ndarray:
        state = self._state
        if not state.priced:
            compute_waxpby(w, alpha, x, beta, y)
        if not state.replaying:
            self._tick_local("cg/waxpby",
                             _WAXPBY_BYTES * self._vector_share(w.shape[0]))
        return w

    def _spmv(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """CG's ``y <- A x``, on the finest level (never agglomerated)."""
        state = self._state
        if not state.replaying:
            self._spmv_comm(self.levels[0], "spmv", "cg/spmv")
        if state.priced:
            return y
        return compute_spmv(y, self.levels[0].A, x)

    def _precondition(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``z <- M r`` (the numerics' :meth:`~repro.dist.numerics.
        _Numerics.apply`), then, unless the iteration replays a tape
        (pricing off), :meth:`_vcycle`'s prices."""
        state = self._state
        if not state.priced and not self._numerics.apply(self._kernel, z, r):
            state.transcribed += 1
        if not state.replaying:
            self._vcycle(0)
        return z

    def _smooth(self, level: SimLevel) -> None:
        """Price one symmetric sweep: colours ascending, then descending,
        each colour step followed by its exchanges or local price."""
        sweep = level.smoother
        forward = list(range(level.ncolors))
        for order in (forward, forward[::-1]):
            for c, nxt in zip(order, [*order[1:], None]):
                if level.agglomerated:
                    self._tick_local(f"mg/L{level.index}/rbgs",
                                     mxv_bytes(sweep.nnzs[c], sweep.sizes[c]))
                else:
                    self._rbgs_comm(level, c, nxt)

    def _transfer(self, fine: SimLevel, coarse: SimLevel, comm, key: str,
                  sync_label: str, to_root: bool) -> None:
        """Price one grid transfer between ``fine`` and ``coarse``."""
        if not coarse.agglomerated:
            comm(fine, coarse)
        elif fine.agglomerated:
            # both levels already sit on node 0: a local copy
            self._tick_local(key, _RESTRICT_COPY_BYTES * coarse.n)
        else:
            self._root_exchange(self._close_superstep, sync_label, key,
                                coarse.n, to_root=to_root)

    def _vcycle(self, li: int) -> None:
        """The engine's one V-cycle walk, pricing only: ``ref_mg_vcycle``'s
        steps in its order, each as its exchanges or, on an agglomerated
        level, its local price."""
        level = self.levels[li]
        with self._span(f"mg/L{li}", "mg",
                        {"level": li, "n": level.n,
                         "agglomerated": level.agglomerated}):
            self._smooth(level)                       # pre-smoothing
            if li + 1 == len(self.levels):
                return
            coarse = self.levels[li + 1]
            if level.agglomerated:
                # the whole level lives on node 0: full work, no messages
                self._tick_local(f"mg/L{li}/spmv",
                                 mxv_bytes(level.A.nnz, level.n))
            else:
                self._spmv_comm(level, "mg_spmv", f"mg/L{li}/spmv")
            self._transfer(level, coarse, self._restrict_comm,
                           f"mg/L{li}/restrict", "agg_gather", True)
            self._vcycle(li + 1)
            self._transfer(level, coarse, self._prolong_comm,
                           f"mg/L{li}/prolong", "agg_scatter", False)
            self._smooth(level)                       # post-smoothing

    # --- checkpoint / restart ------------------------------------------------
    #: vectors a CG checkpoint persists (x, r, p)
    _CKPT_VECTORS = 3

    def _take_checkpoint(self, cg: CGState) -> None:
        """Snapshot CG state after iteration ``cg.k``, priced as a gather.

        Every node ships its share of the three CG vectors to node 0
        (which persists them to stable storage) — one superstep.  The
        in-memory snapshot is taken *after* the superstep is priced, so
        a crash landing on the checkpoint barrier leaves the previous
        snapshot as the rollback target, exactly like a torn write to
        stable storage would.  A run that prices only copies no vector;
        the replays before it are booked first."""
        state, inj = self._state, self._state.injector
        state.flush()
        with self._span("fault/checkpoint", "fault",
                        {"iteration": cg.k}) as sp:
            before = state.seconds
            self._root_exchange(self._barrier, "checkpoint",
                                "fault/checkpoint", self.n,
                                self._CKPT_VECTORS)
            delta = state.seconds - before
            state.checkpoint_seconds += delta
            state.checkpoints += 1
            state.checkpoint = state.snapshot(cg)
            if state.metrics is not None:
                state.metrics.checkpoint.inc(delta)
            inj.record("checkpoint", inj.superstep - 1, iteration=cg.k)
            if sp is not None:
                sp.set(seconds=delta)

    def _restore(self, checkpoint: CGState) -> CGState:
        """Resume from ``checkpoint`` after a repartition: node 0
        scatters each survivor its share of the checkpointed vectors
        (one superstep on the *new* node count)."""
        with self._span("fault/restore", "fault",
                        {"iteration": checkpoint.k, "nprocs": self.nprocs}):
            self._root_exchange(self._barrier, "restore", "fault/restore",
                                self.n, self._CKPT_VECTORS, to_root=False)
        return self._state.snapshot(checkpoint)

    # --- crash recovery ------------------------------------------------------
    def _respawn(self, nprocs: int, **changed) -> "SimulatedDistRun":
        """This run on ``nprocs`` surviving nodes: a shallow copy that
        shares the level numerics, the kernel's cell and the run state,
        and takes the communication record of its layout (subclasses
        pass the fields the node count ``changed``): at most one
        repartition a problem."""
        survivor = copy.copy(self)
        vars(survivor).update(changed)
        survivor._distribute(nprocs)
        return survivor

    def _recover(self, crash: NodeCrash) -> "SimulatedDistRun":
        """Roll back after ``crash``: repartition onto the survivors and
        return the survivor run, which continues this solve on the same
        run state (only the tracker restarts)."""
        state = self._state
        inj = state.injector
        resume_k = state.checkpoint.k if state.checkpoint is not None else 0
        state.reexecuted += max(state.iteration - resume_k, 0)
        state.lost_supersteps += state.tracker.num_syncs
        state.lost_bytes += state.tracker.total_bytes
        survivors = inj.alive_count
        with state.span("fault/recovery", "fault", {
            "crashed_node": crash.node,
            "superstep": crash.superstep,
            "survivors": survivors,
            "resume_iteration": resume_k,
        }):
            survivor = self._respawn(survivors)
        state.tracker = CommTracker(survivor.nprocs)
        state.taping = None                   # the crash cut it short
        inj.recoveries += 1
        inj.record(
            "recovery", inj.superstep, node=crash.node,
            survivors=survivors, new_nprocs=survivor.nprocs,
            resume_iteration=resume_k,
            from_checkpoint=state.checkpoint is not None)
        if state.metrics is not None:
            state.metrics.recoveries.inc(1)
        return survivor

    # --- the CG loop (repro.ref.cg's, on the priced kernels) ---------------
    @contextlib.contextmanager
    def _iteration(self, k: int, slots: list):
        """Iteration ``k`` in progress, and its span.  Untraced, it
        replays the tape the numerics keep for its record, mode, machine,
        preconditioner and kind (``slots[k == 1]``, ``[key, tape]``: the
        first iteration puts ``p <- z`` before the dot) if the injector
        finds its window quiet — numerics only, pricing off, and the tape
        joins the stretch of replays the next flush books — or quiet up
        to a planned crash, booking the tape that far before the crash
        fires; else it is priced step by step, and recorded if no tape
        is kept: kept only if no fault event landed or could have.  A
        window's verdict reads the clock where the stretch leaves it,
        which a lossless stretch knows before it is booked."""
        state, inj = self._state, self._state.injector
        state.iteration, state.cursor = k, 3 * k - 2
        slot = slots[k == 1]
        key, tape = slot
        if tape is None:                # until some run records it
            tape = slot[1] = self._numerics.tapes.get(key)
        replay = crash = None
        if state.ctx is None and tape is not None:
            if inj is None or inj.steady():
                replay = tape
            else:
                if state.lossy:         # its retries set the clock
                    state.flush()
                start = inj.superstep + state.pending()
                if inj.quiet(start, start + tape.steps, tape.exchanges):
                    replay = tape
                else:                   # quiet but for a crash: book up to it
                    crash = inj.crash_in(start, start + tape.steps)
                    if crash is not None:
                        replay = tape.upto(crash - start + 1)
        if replay is None:              # walked, after what came before
            state.flush()
            start, events = (inj.superstep, inj.recorded) if inj else (0, 0)
            if state.ctx is None and tape is None:
                state.taping = Tape(state.tracker)
        state.replaying = replay is not None
        with self._span("cg/iteration", "cg", {"k": k}) as sp:
            yield sp
        if state.replaying:
            state.replaying = False
            state.replayed(replay, self)
            if crash is not None:
                state.flush()
                inj.check_crash(crash)      # fires where the walk fires it
        elif state.taping is not None:
            taping, state.taping = state.taping, None
            if inj is None or (inj.recorded == events
                               and inj.quiet(start, inj.superstep)):
                slot[1] = self._numerics.tapes.setdefault(
                    key, taping.close(state.tracker))

    def _cg_attempt(self, max_iters: int, use_mg: bool,
                    tolerance: float) -> CGState:
        """One (re)execution attempt: :func:`repro.ref.cg.cg_iterations`
        on the priced kernels, from the problem's initial guess or, after
        a crash, from the restored checkpoint (iteration ``k + 1`` on, so
        every residual equals the clean run's).  Raises
        :class:`~repro.dist.faults.NodeCrash` when the injector detects a
        planned failure at a barrier."""
        state = self._state
        m = state.metrics
        if state.checkpoint is None:
            state.cursor = 0
            b, x0 = self.problem.b, self.problem.x0
            # a priced run reads no vector: read-only stand-ins of the
            # right length price the kernels and copy nothing
            b, x0 = ((np.broadcast_to(0.0, (self.n,)),) * 2 if state.priced
                     else (b.to_dense(), x0.to_dense()))
            cg = cg_start(self._spmv, self._waxpby, self._dot, b, x0)
            if m is not None:
                m.residual.observe(cg.residuals[0], backend=self.backend)
        else:
            cg = self._restore(state.checkpoint)
        ckpt_plan = (state.injector.plan.checkpoint
                     if state.injector is not None else None)
        # the two tape keys of this attempt's record: [key, tape] for
        # iterations after the first, and for the first
        kind = (self._record_key, self.comm_mode, self.machine, use_mg)
        slots = [[(*kind, first), None] for first in (False, True)]
        for cg in cg_iterations(
                cg, self._spmv, self._waxpby, self._dot,
                self._precondition if use_mg else None, max_iters,
                tolerance, lambda k: self._iteration(k, slots)):
            if m is not None:
                m.residual.observe(cg.residuals[-1], backend=self.backend)
                m.iteration.set(cg.k)
                m.residual_last.set(cg.residuals[-1])
            if (ckpt_plan is not None and cg.k % ckpt_plan.interval == 0
                    and cg.k < max_iters):
                self._take_checkpoint(cg)
        return cg

    def run_cg(self, max_iters: int = 50, use_mg: bool = True,
               tolerance: float = 0.0) -> DistRunResult:
        """Simulate a full preconditioned CG solve.

        Attempts :meth:`_cg_attempt`; on a planned crash rolls back —
        repartition onto the survivors, restore the last snapshot,
        re-attempt from there.  The residual history is bit-identical
        to the serial driver's in either communication mode and under
        any fault plan (both change pricing and the execution path
        only); ``modelled_seconds`` honestly includes checkpoint
        overhead, rollback and re-execution.  ``faults=None`` or an
        inactive plan means no injector: one attempt,
        ``resilience=None``.  Untraced, the solve prices only if the numerics keep a
        trajectory of ``(use_mg, b, x0)`` that reaches its stop point;
        else it computes and, finishing, publishes what it recorded.
        """
        require_cg_limits(max_iters, tolerance)
        injector = None
        if self.faults is not None and self.faults.active():
            injector = FaultInjector(self.faults, self.nprocs)
        self._state = state = _RunState(self.nprocs, injector)
        if injector is not None:
            injector.announce_speeds()
        b, x0 = self.problem.b, self.problem.x0
        key = _Numerics.trajectory_key(use_mg, b, x0)
        if state.ctx is None:
            kept = self._numerics.trajectories.get(key)
            state.priced = kept is not None and kept.covers(max_iters,
                                                            tolerance)
            state.dots = kept.dots if state.priced else []

        attrs = {
            "backend": self.backend, "nprocs": self.nprocs, "n": self.n,
            "mode": self.comm_mode, "machine": self.machine.name,
            "mg_levels": self.mg_levels,
        }
        if injector is not None:
            attrs["faulted"] = True
        run = self
        with self._span("dist/run_cg", "dist", attrs) as rsp:
            while True:
                try:
                    cg = run._cg_attempt(max_iters, use_mg, tolerance)
                    break
                except NodeCrash as crash:
                    run = run._recover(crash)
            if rsp is not None:
                rsp.set(iterations=cg.k)
                if injector is not None:
                    rsp.set(recoveries=injector.recoveries,
                            final_nprocs=run.nprocs)
        if state.dots is not None and not state.priced:
            self._numerics.publish(key, b, x0, state.dots)
        return state.result(run, cg)
