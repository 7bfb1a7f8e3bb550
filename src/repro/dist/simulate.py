"""Shared engine of the simulated distributed runs: priced programs,
faults and recovery.

The three backends (:class:`~repro.dist.hybrid.HybridALPRun`,
:class:`~repro.dist.hybrid2d.Hybrid2DRun`,
:class:`~repro.dist.refdist.RefDistRun`) run *identical numerics*
(:mod:`repro.dist.numerics`): CG is :func:`repro.ref.cg.cg_iterations`
on the :mod:`repro.ref` kernels, preconditioned by the compiled V-cycle
kernel of the serial fused path, so residual histories are bit-identical
to ``run_hpcg``.  The engine adds the accounting only: each kernel it
hands the loop is followed by the backend's ``*_comm`` hook, which
records the superstep's exchange plan; each preconditioner application
by ``_vcycle``, which records Listing 1's steps in the order
:func:`~repro.graphblas.substrate.csr.vcycle` states (the kernel's
schedule runs them in it) and runs none.
Convergence is unchanged by the distribution (the paper's Section V
precondition), so backends compete purely on the communication they
induce, priced on the ``machine=`` a run is given, else on the Table-II
``ARM_CLUSTER_NODE`` preset: nothing measured on the host enters it.

What repeats is recorded once.  Construction records every exchange
pattern as an :class:`~repro.dist.comm.ExchangePlan`.  A hook prices
nothing: each booking primitive (``_close_superstep``, ``_barrier``,
``_tick_local``) appends one row to the program being recorded, and the
numerics keep one :class:`~repro.dist.tape.Program` per record, mode,
machine, preconditioner and kind (``start``, the first iteration, a
later one, a checkpoint, a restore), priced once in arrays.

A run walks CG only to compute its trajectory or to record a program,
and never books while it walks.  The trajectory — every dot, so the
stop point ``k`` and the residual norms — is computed once per problem:
a later untraced run whose stop point the first computing run's record
reaches prices only (``DistRunResult.replayed``), recording a program
its record lacks by walking the pricing kernels (they compute nothing,
``_dot`` returning the recorded value) for at most two iterations.
Then one plan books the run — ``start``, ``first``, ``later`` x
(k - 1), a checkpoint after every interval-th iteration — folded at
once (:func:`~repro.dist.tape.fold`), faults applied as transforms of
it.  A crash cuts the fold where it lands, and the survivors' plan books
a restore of the last checkpoint (or the start) and the iterations on:
a checkpoint is accounting, and a crash run's history is the clean one.
Traced, the plan folds entry by entry inside its spans, so a
``cg/iteration`` span holds its modelled ticks but not the numerics'
wall-clock.  Nothing is priced superstep by superstep.

Pricing options: an explicit ``comm_mode=``, else the ``REPRO_OVERLAP``
force, else ``"eager"`` (each exchange a synchronous ``work + comm``);
under ``"overlap"`` exchanges are posted and wire time hides behind the
local compute the backend tags, up to the machine's
``overlap_efficiency`` (a :class:`~repro.dist.bsp.BSPMachine` field) —
pricing only, as full and exposed wire time per timer key shows.
``agglomerate_below=n`` gathers every coarse MG level of at most ``n``
rows onto node 0: single-node local work, for one gather entering the
level and one scatter leaving it.
"""

from __future__ import annotations

import contextlib
import copy
from typing import Optional

import numpy as np

from repro.dist.bsp import ARM_CLUSTER_NODE, BSPMachine
from repro.dist.comm import CommTracker, ExchangePlan, resolve_comm_mode
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
from repro.dist.tape import COLLECTIVE, LOCAL, POSTED, SYNC, Program, fold
from repro.graphblas.substrate.csr import ColorMajorVCycle, vcycle
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
                 agglomerate_below: int = 0,
                 faults: Optional[FaultPlan] = None):
        if machine is None:
            machine = ARM_CLUSTER_NODE
        if nprocs < 1:
            raise InvalidValue(f"need at least one process, got {nprocs}")
        require_fits(problem, mg_levels)
        if agglomerate_below < 0:
            raise InvalidValue(f"agglomeration threshold must be >= 0, "
                               f"got {agglomerate_below}")
        if faults is not None:
            faults.validate_for(nprocs)
        self.problem = problem
        self.mg_levels = mg_levels
        self.machine = machine
        self.comm_mode = resolve_comm_mode(comm_mode)
        self.overlap = self.comm_mode == "overlap"
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
        """Take the communication record for ``nprocs`` nodes — every
        exchange plan the run will ever book — building it if no run
        has."""
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
        shared sweeps, built at first use in a cell its survivors share;
        building it writes nothing runs share."""
        cell = self._kernel_cell
        if not cell:
            cell.append(ColorMajorVCycle(
                [level.smoother.twin() for level in self._numerics],
                [level.injection for level in self._numerics[:-1]]))
        return cell[0]

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
        """Close the supersteps of one colour's masked mxv; in overlap
        mode ``next_color``'s interior work (the next colour the sweep
        updates, None at a half-sweep's end) may hide the exchange."""
        raise NotImplementedError

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        raise NotImplementedError

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        raise NotImplementedError

    # --- the booking primitives: each appends one row ---------------------
    def _close_superstep(self, plan: ExchangePlan, sync_label: str,
                         timer_key: str, work_bytes: float,
                         overlap_bytes: float = 0.0) -> None:
        """Book ``plan`` as one *exchange* superstep: eager, synchronous
        (``work + comm``); under overlap, posted and waited, hiding wire
        time behind ``overlap_bytes`` of tagged local compute.  Under a
        lossy plan it may be re-driven."""
        self._state.recording.append(
            (POSTED, timer_key, plan, sync_label, work_bytes,
             float(overlap_bytes)) if self.overlap else
            (SYNC, timer_key, plan, sync_label, work_bytes, 0.0))

    def _barrier(self, plan: ExchangePlan, sync_label: str, timer_key: str,
                 work_bytes: float) -> None:
        """Book ``plan`` as one *collective* superstep (dot allreduce,
        checkpoint, restore): synchronous in either mode, never lost."""
        self._state.recording.append(
            (COLLECTIVE, timer_key, plan, sync_label, work_bytes, 0.0))

    def _tick_local(self, key: str, work_bytes: float) -> None:
        """Book node-local work: no barrier, no network."""
        self._state.recording.append((LOCAL, key, None, None, work_bytes,
                                      0.0))

    def _record_root_exchanges(self, n: int, vectors: int = 1) -> None:
        """Plan the gather and the scatter :meth:`_root_exchange` books."""
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

    # --- programs and spans --------------------------------------------------
    @contextlib.contextmanager
    def _recorded(self, kind: str):
        """Record the program ``kind`` while the body runs, unless this
        run's record keeps it: the hooks then append its rows."""
        state = self._state
        if kind in state.programs:
            yield
            return
        state.recording, state.marks = [], []
        try:
            yield
            state.programs.setdefault(kind, Program(
                state.recording, state.marks, self.machine,
                self._numerics.layout))
        finally:
            state.recording = None

    def _span(self, name: str, category: str, args: Optional[dict] = None):
        """The run state's ticked span (the null span untraced)."""
        return self._state.ticked(name, category, args)

    def _vector_share(self, n: int) -> float:
        """Largest per-node share of an ``n``-vector (for local-op work)."""
        return float(-(-n // self.nprocs))

    # --- the kernels, each followed by its accounting ------------------------
    # (a walk that prices computes none of them; one whose program the
    # record keeps records none of them: see _recorded)
    def _dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """``u'v``, recorded at the cursor; a walk that prices returns the
        recorded one."""
        state = self._state
        at = state.cursor
        state.cursor += 1
        if state.priced:
            value = state.dots[at]
        else:
            value = compute_dot(u, v)
            state.dots.append(value)
        if state.recording is not None:
            self._barrier(self._dot_plan, "dot", "cg/dot",
                          _DOT_BYTES * self._vector_share(self.n))
        return value

    def _waxpby(self, w: np.ndarray, alpha: float, x: np.ndarray,
                beta: float, y: np.ndarray) -> np.ndarray:
        state = self._state
        if not state.priced:
            compute_waxpby(w, alpha, x, beta, y)
        if state.recording is not None:
            self._tick_local("cg/waxpby",
                             _WAXPBY_BYTES * self._vector_share(self.n))
        return w

    def _spmv(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """CG's ``y <- A x``, on the finest level."""
        state = self._state
        if state.recording is not None:
            self._spmv_comm(self.levels[0], "spmv", "cg/spmv")
        if state.priced:
            return y
        return compute_spmv(y, self.levels[0].A, x)

    def _precondition(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``z <- M r`` (the numerics' :meth:`~repro.dist.numerics.
        _Numerics.apply`), then, while the iteration's program is being
        recorded, :meth:`_vcycle`'s rows."""
        state = self._state
        if not state.priced and not self._numerics.apply(self._kernel, z, r):
            state.transcribed += 1
        if state.recording is not None:
            self._vcycle()
        return z

    def _vcycle(self) -> None:
        """Book one V-cycle: :func:`~repro.graphblas.substrate.csr.vcycle`'s
        steps in its order, each level inside the marks of an ``mg/L{i}``
        span.  A smoothing is one symmetric sweep, colours ascending then
        descending, each colour step as its exchanges or local work; a
        level on node 0 does its full work with no messages."""
        levels, state = self.levels, self._state

        @contextlib.contextmanager
        def visit(i: int):
            level = levels[i]
            state.marks.append((len(state.recording), f"mg/L{i}", {
                "level": i, "n": level.n, "agglomerated": level.agglomerated}))
            yield
            state.marks.append((len(state.recording), None, None))

        def step(i: int, name: str) -> None:
            level = levels[i]
            if name in ("pre", "post"):
                sweep, forward = level.smoother, list(range(level.ncolors))
                for order in (forward, forward[::-1]):
                    for c, nxt in zip(order, [*order[1:], None]):
                        if level.agglomerated:
                            self._tick_local(f"mg/L{i}/rbgs", mxv_bytes(
                                sweep.nnzs[c], sweep.sizes[c]))
                        else:
                            self._rbgs_comm(level, c, nxt)
                return
            key, coarse = f"mg/L{i}/{name}", levels[i + 1]
            if name == "spmv":
                if level.agglomerated:
                    self._tick_local(key, mxv_bytes(level.A.nnz, level.n))
                else:
                    self._spmv_comm(level, "mg_spmv", key)
            elif not coarse.agglomerated:
                (self._restrict_comm if name == "restrict"
                 else self._prolong_comm)(level, coarse)
            elif level.agglomerated:
                # both levels already sit on node 0: a local copy
                self._tick_local(key, _RESTRICT_COPY_BYTES * coarse.n)
            else:
                to_root = name == "restrict"
                self._root_exchange(self._close_superstep,
                                    "agg_gather" if to_root else "agg_scatter",
                                    key, coarse.n, to_root=to_root)

        vcycle(len(levels), step, visit)

    # --- checkpoint / restart ------------------------------------------------
    #: vectors a CG checkpoint persists (x, r, p)
    _CKPT_VECTORS = 3

    def _book_vectors(self, kind: str) -> None:
        """Record the program ``kind``: the CG vectors gathered to node 0
        (a ``checkpoint``, which node 0 persists) or scattered from it (a
        ``restore`` onto the survivors), one collective superstep."""
        with self._recorded(kind):
            self._root_exchange(self._barrier, kind, f"fault/{kind}", self.n,
                                self._CKPT_VECTORS, kind == "checkpoint")

    # --- crash recovery ------------------------------------------------------
    def _respawn(self, nprocs: int, **changed) -> "SimulatedDistRun":
        """This run on ``nprocs`` surviving nodes: a shallow copy sharing
        the numerics, the kernel's cell and the run state, on the record
        of its layout (subclasses pass the fields the node count
        ``changed``): at most one repartition a problem."""
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
        resume_k = state.checkpoint or 0
        state.reexecuted += max(state.iteration - resume_k, 0)
        state.lost_trackers.append(state.tracker)
        survivors = inj.alive_count
        with state.span("fault/recovery", "fault", {
            "crashed_node": crash.node,
            "superstep": crash.superstep,
            "survivors": survivors,
            "resume_iteration": resume_k,
        }):
            survivor = self._respawn(survivors)
        state.tracker = CommTracker(survivor.nprocs)
        inj.recoveries += 1
        inj.record("recovery", inj.superstep, node=crash.node,
                   survivors=survivors, new_nprocs=survivor.nprocs,
                   resume_iteration=resume_k,
                   from_checkpoint=state.checkpoint is not None)
        if state.metrics is not None:
            state.metrics.recoveries.inc(1)
        return survivor

    # --- the walk: repro.ref.cg's loop on the kernels -----------------------
    @contextlib.contextmanager
    def _iteration(self, k: int):
        """Iteration ``k`` of a walk: its dots' place, and its program
        recorded unless kept (the first puts ``p <- z`` before the dot)."""
        self._state.cursor = 3 * k - 2
        with self._recorded("later" if k > 1 else "first"):
            yield None

    def _walk(self, b: np.ndarray, x0: np.ndarray, max_iters: int,
              use_mg: bool, tolerance: float,
              cg: Optional[CGState] = None) -> CGState:
        """:func:`repro.ref.cg.cg_iterations` on the kernels from ``cg``,
        else from ``cg_start(b, x0)`` (the program ``start``): it computes
        or prices, and records what the record lacks; it books nothing."""
        if cg is None:
            self._state.cursor = 0
            with self._recorded("start"):
                cg = cg_start(self._spmv, self._waxpby, self._dot, b, x0)
        for cg in cg_iterations(
                cg, self._spmv, self._waxpby, self._dot,
                self._precondition if use_mg else None, max_iters,
                tolerance, self._iteration):
            pass
        return cg

    def _programs(self, use_mg: bool) -> dict:
        """This run's record's programs (per mode, machine, ``use_mg``)."""
        return self._numerics.programs.setdefault(
            (self._record_key, self.comm_mode, self.machine, use_mg), {})

    # --- the plan: what a run books, from its trajectory --------------------
    def _booked(self, k: int, max_iters: int, use_mg: bool,
                residuals: list) -> None:
        """Book this run's plan to the stop point ``k``, ``[kind, times,
        note, iteration]`` entries: ``start`` or a ``restore`` of the last
        checkpoint, each iteration on, a ``checkpoint`` (``note``: its
        iteration) after every interval-th one below ``max_iters``
        (``iteration``: the one in progress in the first copy, None: it
        stays).  The programs the record lacks are recorded first, by
        :meth:`_book_vectors` or a two-iteration walk of the pricing
        kernels.  Untraced, the plan is one fold; traced, it folds entry
        by entry in their spans.  A crash leaves where it landed — the
        iteration in progress, the last checkpoint booked in full — on
        the run state."""
        state = self._state
        state.programs = programs = self._programs(use_mg)
        inj, resume = state.injector, state.checkpoint or 0
        every = getattr(inj and inj.plan.checkpoint, "interval", 0)
        plan = [["restore" if resume else "start", 1, None, None]]
        for j in range(resume + 1, k + 1):
            kind = "later" if j > 1 else "first"
            if plan[-1][0] == kind:
                plan[-1][1] += 1
            else:
                plan.append([kind, 1, None, j])
            if every and j % every == 0 and j < max_iters:
                plan.append(["checkpoint", 1, j, j])
        missing = {kind for kind, *_ in plan}.difference(state.programs)
        for kind in sorted(missing & {"checkpoint", "restore"}):
            self._book_vectors(kind)
        if missing - {"checkpoint", "restore"}:     # no vector: stand-ins
            empty = np.empty(0)
            self._walk(empty, empty, min(k, resume + 2), use_mg, 0.0, CGState(
                resume, *[empty] * 5, state.dots[3 * resume - 2],
                residuals[:resume + 1]) if resume else None)
        try:
            if state.ctx is None:
                fold(state, [[programs[kind], times, note]
                             for kind, times, note, _ in plan])
                return
            m = state.metrics
            for at, (kind, times, note, first) in enumerate(plan):
                for copy in range(times):
                    j = (first or 0) + copy
                    name, args = {      # the entry's span, its args
                        "start": (None, None),
                        "restore": ("fault/restore", {
                            "iteration": state.checkpoint,
                            "nprocs": self.nprocs}),
                        "checkpoint": ("fault/checkpoint", {"iteration": j}),
                    }.get(kind, ("cg/iteration", {"k": j}))
                    with (self._span(name, name.partition("/")[0], args)
                          if name else contextlib.nullcontext()) as sp:
                        before = state.seconds
                        if name == "cg/iteration":
                            sp.set(normr=residuals[j])
                        fold(state, [[programs[kind], 1, note]])
                        if kind == "checkpoint":
                            sp.set(seconds=state.seconds - before)
                    if kind in ("start", "first", "later"):
                        m.residual.observe(residuals[j], backend=self.backend)
                    if kind in ("first", "later"):
                        m.iteration.set(j)
                        m.residual_last.set(residuals[j])
        except NodeCrash:
            at, copy = state.cut if state.ctx is None else (at, copy)
            if plan[at][3] is not None:
                state.iteration = plan[at][3] + copy
            taken = [note for _, _, note, _ in plan[:at] if note is not None]
            state.checkpoint = taken[-1] if taken else state.checkpoint
            raise

    def run_cg(self, max_iters: int = 50, use_mg: bool = True,
               tolerance: float = 0.0) -> DistRunResult:
        """Simulate a full preconditioned CG solve: its trajectory (the
        numerics' record of ``(use_mg, b, x0)`` if untraced and it reaches
        the stop point, else computed by a walk), then its plan booked; on
        a planned crash the survivors book theirs from the last
        checkpoint.  The residual history is bit-identical to the serial
        driver's in either mode and under any fault plan;
        ``modelled_seconds`` includes checkpoints, rollback and
        re-execution.  ``faults=None`` or an inactive plan:
        ``resilience=None``."""
        require_cg_limits(max_iters, tolerance)
        injector = None
        if self.faults is not None and self.faults.active():
            injector = FaultInjector(self.faults, self.nprocs)
        self._state = state = _RunState(self.nprocs, injector, self.machine,
                                        self.comm_mode)
        if injector is not None:
            injector.announce_speeds()
        b, x0 = self.problem.b, self.problem.x0
        key = _Numerics.trajectory_key(use_mg, b, x0)
        kept = (self._numerics.trajectories.get(key) if state.ctx is None
                else None)
        k = None if kept is None else kept.stop(max_iters, tolerance)
        replayed = k is not None

        attrs = state.ctx and {
            "backend": self.backend, "nprocs": self.nprocs, "n": self.n,
            "mode": self.comm_mode, "machine": self.machine.name,
            "mg_levels": self.mg_levels, **({"faulted": True} if injector
                                            else {})}
        run = self
        with self._span("dist/run_cg", "dist", attrs) as rsp:
            if replayed:
                state.dots, residuals = kept.dots, kept.norms[:k + 1]
            else:
                state.programs = self._programs(use_mg)
                cg = self._walk(b.to_dense(), x0.to_dense(), max_iters,
                                use_mg, tolerance)
                k, residuals = cg.k, cg.residuals
            state.priced = True         # every walk from here prices
            while True:
                try:
                    run._booked(k, max_iters, use_mg, residuals)
                    break
                except NodeCrash as crash:
                    run = run._recover(crash)
            if rsp is not None:
                rsp.set(iterations=k)
                if injector is not None:
                    rsp.set(recoveries=injector.recoveries,
                            final_nprocs=run.nprocs)
        if not replayed and state.ctx is None:
            self._numerics.publish(key, b, x0, state.dots)
        return state.result(run, k, residuals, replayed)
