"""The multigrid V-cycle preconditioner (paper Listing 1).

A hierarchy of (by default) four grids, each 2x coarser per dimension
than the previous.  Each level owns its operator, diagonal, colour
masks, smoother, restriction matrix and workspace vectors, mirroring
the ``mg_level`` record of Listing 1/2.

The cycle at one level:

1. pre-smooth ``z`` (one symmetric RBGS pass),
2. residual ``r - A z``,
3. restrict it to the coarse grid,
4. recurse from ``z_c = 0``,
5. refine-and-add the coarse correction,
6. post-smooth.

At the coarsest level only the smoother runs (Listing 1 lines 3-4).

:func:`mg_vcycle` is that cycle on GraphBLAS primitives — restriction
and refinement as products with the injection matrix ``R``.
:class:`MGPreconditioner` runs it whenever the fused
:class:`~repro.graphblas.fused.VCyclePlan` declines an application
(``REPRO_FUSED=0``, ``fused=False``, a non-RBGS smoother, a non-CSR
substrate, an installed perf collector, ...) and otherwise runs the
compiled schedule of the plan's colour-major array kernel, where the two
products are index moves: traced, stepped through the same instrumented
recursion; untraced, flat under the same timers.  The results are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_ext
from repro.grid import Grid3D
from repro.hpcg.coloring import color_masks, coloring_for_problem, lattice_coloring
from repro.hpcg.problem import Problem, build_operator
from repro.hpcg.restriction import build_restriction, prolong_add, restrict
from repro.hpcg.smoothers import SWEEP_SPAN, RBGSSmoother
from repro.util.errors import InvalidValue, OutputAliasing
from repro.util.timer import null_timer

SmootherFactory = Callable[[grb.Matrix, grb.Vector, List[grb.Vector]], object]


@dataclass
class MGLevel:
    """One grid level of the multigrid hierarchy."""

    index: int
    grid: Grid3D
    A: grb.Matrix
    A_diag: grb.Vector
    smoother: object
    R: Optional[grb.Matrix] = None          # restriction to the coarser level
    coarser: Optional["MGLevel"] = None
    # workspace (allocated once; Listing 1 names)
    f: grb.Vector = field(default=None)     # A z
    rc: grb.Vector = field(default=None)    # restricted residual
    zc: grb.Vector = field(default=None)    # coarse correction

    @property
    def n(self) -> int:
        return self.grid.npoints

    def levels(self) -> List["MGLevel"]:
        """This level and all coarser ones, finest first."""
        out, lvl = [], self
        while lvl is not None:
            out.append(lvl)
            lvl = lvl.coarser
        return out


def build_hierarchy(
    problem: Problem,
    levels: int = 4,
    smoother_factory: Optional[SmootherFactory] = None,
    coloring_scheme: str = "auto",
    fused: Optional[bool] = None,
) -> MGLevel:
    """Build an ``levels``-deep hierarchy under ``problem``'s fine grid.

    Raises when the grid cannot be coarsened ``levels - 1`` times (every
    dimension must be divisible by ``2**(levels-1)``, the reference
    HPCG requirement).

    ``fused`` pins the default smoothers' fast path per hierarchy
    (``None`` follows ``REPRO_FUSED``; ``False`` is the reference
    transcription baseline the perf benchmarks compare against); it is
    ignored when an explicit ``smoother_factory`` is given.
    """
    if levels < 1:
        raise InvalidValue(f"need at least one level, got {levels}")
    if problem.grid.max_mg_levels() < levels:
        raise InvalidValue(
            f"grid {problem.grid.dims} supports at most "
            f"{problem.grid.max_mg_levels()} MG levels, requested {levels}"
        )
    if smoother_factory is None:
        def smoother_factory(A, A_diag, colors):
            return RBGSSmoother(A, A_diag, colors, fused=fused)
    stencil = getattr(problem, "stencil", "27pt")
    # honour the problem's substrate pin on every coarse operator
    substrate = getattr(problem, "substrate", None)

    def make_level(index: int, grid: Grid3D, A: grb.Matrix,
                   A_diag: grb.Vector) -> MGLevel:
        colors = color_masks(
            coloring_for_problem(A, grid, coloring_scheme, stencil)
        )
        smoother = smoother_factory(A, A_diag, colors)
        # tell level-aware smoothers who owns them, so their spans and
        # fused byte-stream events carry the MG level even outside a
        # ``labelled`` scope (custom factories may opt out)
        set_level = getattr(smoother, "set_level", None)
        if callable(set_level):
            set_level(index)
        return MGLevel(
            index=index, grid=grid, A=A, A_diag=A_diag, smoother=smoother,
            f=grb.Vector.dense(grid.npoints),
        )

    top = make_level(0, problem.grid, problem.A, problem.A_diag)
    current = top
    for idx in range(1, levels):
        coarse_grid = current.grid.coarsen()
        A_c = build_operator(coarse_grid, stencil, substrate)
        level = make_level(idx, coarse_grid, A_c, grb.diag(A_c))
        current.R = build_restriction(current.grid)
        current.rc = grb.Vector.dense(coarse_grid.npoints)
        current.zc = grb.Vector.dense(coarse_grid.npoints)
        current.coarser = level
        current = level
    return top


def _level_names(level: MGLevel) -> tuple:
    """Span name and arguments, then per step (timer key, label)."""
    i, tag = level.index, f"mg/L{level.index}"
    return (tag, {"level": i, "n": level.n},
            *((f"{tag}/{step}", f"{label}@L{i}") for step, label in (
                ("rbgs", "rbgs"), ("spmv", "mg_spmv"),
                ("restrict", "restrict"), ("prolong", "refine"))))


class _VCycle:
    """The instrumented walk of Listing 1 over one hierarchy.

    :meth:`walk` is the only copy of the instrumented recursion; the
    four per-level steps below are the transcription — GraphBLAS
    primitives on the level's containers, the oracle — and
    :class:`_PlannedVCycle` overrides them.  Names resolve once per
    walker, the obs context and backend labels once per application
    (:meth:`arm`), so no level reads the environment.
    """

    def __init__(self, top: MGLevel, timers, pre_sweeps: int,
                 post_sweeps: int):
        self.measure = timers.measure
        self.names = {lvl.index: _level_names(lvl) for lvl in top.levels()}
        self.pre_sweeps, self.post_sweeps = pre_sweeps, post_sweeps

    def arm(self) -> "_VCycle":
        ctx = obs.current()
        self.span = obs.null_scope if ctx is None else ctx.tracer.span
        self.label = (grb.backend.labelled if grb.backend.active()
                      else obs.null_scope)
        self.visits = None if ctx is None else ctx.metrics.counter(
            "mg_level_visits_total", "V-cycle visits per MG level")
        return self

    def walk(self, level: MGLevel, z, r) -> None:
        measure, label, span = self.measure, self.label, self.span
        tag, args, (rbgs, rbgs_at), (spmv, spmv_at), (down, down_at), \
            (up, up_at) = self.names[level.index]
        with span(tag, "mg", args):
            if self.visits is not None:
                self.visits.inc(level=level.index)
            with measure(rbgs), label(rbgs_at):
                self.smooth(level, z, r, self.pre_sweeps)
            if level.coarser is None:
                return
            with measure(spmv), label(spmv_at), span(spmv, "mg"):
                self.residual(level, z, r)
            with measure(down), label(down_at), span(down, "mg"):
                self.restrict(level)
            self.walk(level.coarser, level.zc, level.rc)
            with measure(up), label(up_at), span(up, "mg"):
                self.prolong(level, z)
            with measure(rbgs), label(rbgs_at):
                self.smooth(level, z, r, self.post_sweeps)

    def smooth(self, level: MGLevel, z, r, sweeps: int) -> None:
        level.smoother.smooth(z, r, sweeps=sweeps)

    def residual(self, level: MGLevel, z, r) -> None:
        # f <- r - A z, fused when the extension accepts the call
        if not fused_ext.fused_spmv_waxpby(level.f, 1.0, r, -1.0,
                                           level.A, z):
            grb.mxv(level.f, None, level.A, z)          # f <- A z
            grb.waxpby(level.f, 1.0, r, -1.0, level.f)  # f <- r - f

    def restrict(self, level: MGLevel) -> None:
        restrict(level.rc, level.R, level.f)        # rc <- R (r - A z)
        level.zc.fill(0.0)                          # zc <- 0

    def prolong(self, level: MGLevel, z) -> None:
        prolong_add(z, level.R, level.zc)           # z <- z + R' zc


class _PlannedVCycle(_VCycle):
    """The same walk over a loaded :class:`fused.VCyclePlan`: every
    level's vectors live colour-major inside the plan's array kernel,
    and each step executes the next segment of the kernel's compiled
    schedule, a traced smoother pass under the span the smoother itself
    would record.  Untraced, nothing runs between the segments but the
    timers: :meth:`run` executes them flat, each inside the timer scope
    :meth:`walk` gives its step."""

    def __init__(self, plan: fused_ext.VCyclePlan, top: MGLevel, *args):
        super().__init__(top, *args)
        self.plan, self.top = plan, top.index
        self.levels = top.levels()
        self._kernel = self._flat = None    # the schedule, as last compiled

    def arm(self) -> "_PlannedVCycle":
        kernel = self.plan.kernel
        if kernel is not self._kernel:
            self._kernel, self._flat = kernel, None
            self._segments = kernel.schedule(
                [lvl.smoother.symmetric_order for lvl in self.levels],
                self.pre_sweeps, self.post_sweeps)
        self._next = iter(self._segments).__next__
        return super().arm()

    def run(self) -> None:
        if self._flat is None:
            self._flat = [(self.measure(f"mg/L{self.top + i}/{step}"),
                           sum(programs, ()))
                          for i, step, programs in self._segments]
        for timer, calls in self._flat:
            with timer:
                for f, args in calls:
                    f(*args)

    def smooth(self, level: MGLevel, z, r, sweeps: int) -> None:
        attrs = level.smoother.sweep_attrs
        for calls in self._next()[2]:
            with self.span(*SWEEP_SPAN) as sp:
                for f, args in calls:
                    f(*args)
                sp.set(**attrs(True))

    def _transfer(self, *_) -> None:
        for f, args in self._next()[2][0]:
            f(*args)

    residual = restrict = prolong = _transfer


def mg_vcycle(
    level: MGLevel,
    z: grb.Vector,
    r: grb.Vector,
    timers=null_timer,
    pre_sweeps: int = 1,
    post_sweeps: int = 1,
) -> grb.Vector:
    """Apply one V-cycle at ``level``, improving ``z`` toward ``A^-1 r``.

    Transcription of Listing 1; ``timers`` receives per-level entries
    under ``mg/L{i}/...`` which the breakdown figures consume.
    """
    _VCycle(level, timers, pre_sweeps, post_sweeps).arm().walk(level, z, r)
    return z


class MGPreconditioner:
    """Callable wrapper: ``M(z, r)`` overwrites ``z`` with ≈ ``A^-1 r``.

    Each application is offered to the hierarchy's fused
    :class:`~repro.graphblas.fused.VCyclePlan` (bound to every level's
    smoother plan and ``R``, revalidated per call) and runs
    :func:`mg_vcycle` on the containers when the plan declines.  With
    no obs context the plan's kernel runs its compiled schedule.
    """

    def __init__(self, hierarchy: MGLevel, timers=null_timer,
                 pre_sweeps: int = 1, post_sweeps: int = 1):
        if pre_sweeps < 0 or post_sweeps < 0:
            raise InvalidValue(
                f"sweep counts must be non-negative, got pre_sweeps="
                f"{pre_sweeps}, post_sweeps={post_sweeps}")
        self.hierarchy = hierarchy
        self._plan = fused_ext.VCyclePlan(
            [(getattr(lvl.smoother, "plan", None), lvl.R)
             for lvl in hierarchy.levels()])
        args = hierarchy, timers, pre_sweeps, post_sweeps
        self._walk = _VCycle(*args)
        self._planned_walk = _PlannedVCycle(self._plan, *args)

    def __call__(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        if z is r:      # z is zero-filled before r is read
            raise OutputAliasing(
                "MG preconditioner output must not alias the residual")
        if not self._plan.load(z, r):
            z.fill(0.0)
            self._walk.arm().walk(self.hierarchy, z, r)
            return z
        walk = self._planned_walk.arm()
        if walk.span is obs.null_scope:
            walk.run()
        else:
            walk.walk(self.hierarchy, z, r)
        self._plan.store(z)
        return z
