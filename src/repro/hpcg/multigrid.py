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
6. post-smooth (one symmetric pass: HPCG fixes one each side).

At the coarsest level only the smoother runs (Listing 1 lines 3-4).
:func:`~repro.graphblas.substrate.csr.vcycle` states that order once.

:func:`mg_vcycle` is that cycle on GraphBLAS primitives — restriction
and refinement as products with the injection matrix ``R``.
:class:`MGPreconditioner` runs it whenever the fused
:class:`~repro.graphblas.fused.VCyclePlan` declines an application
(``REPRO_FUSED=0``, ``fused=False``, a non-RBGS smoother, a non-CSR
substrate, an installed perf collector, ...) and otherwise runs the
compiled schedule of the plan's colour-major array kernel, where the two
products are index moves: traced, segment by segment in the same walk;
untraced, flat under the same timers.  The results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_ext
from repro.graphblas.substrate.csr import execute, vcycle
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


#: per :func:`vcycle` step: the timer's step, the backend label, the body
_STEPS = {"pre": ("rbgs", "rbgs", "smooth"),
          "post": ("rbgs", "rbgs", "smooth"),
          "spmv": ("spmv", "mg_spmv", "residual"),
          "restrict": ("restrict",) * 3,
          "prolong": ("prolong", "refine", "prolong")}


class _VCycle:
    """The instrumented walk of Listing 1 over one hierarchy.

    :meth:`walk` drives :func:`vcycle`; the per-level step bodies below
    are the transcription — GraphBLAS primitives on the level's
    containers, the oracle — and :class:`_PlannedVCycle` overrides them.
    Names resolve once per walker, under each level's own index (a walk
    may start below the top), the obs context and backend labels once
    per application (:meth:`arm`), so no level reads the environment.
    """

    def __init__(self, top: MGLevel, timers):
        self.measure = timers.measure
        self.levels = top.levels()
        # per level: its span's name and arguments, then per step its
        # timer key, label and body
        self.names = [(f"mg/L{lvl.index}", {"level": lvl.index, "n": lvl.n}, {
            name: (f"mg/L{lvl.index}/{key}", f"{label}@L{lvl.index}", body)
            for name, (key, label, body) in _STEPS.items()})
            for lvl in self.levels]

    def arm(self) -> "_VCycle":
        ctx = obs.current()
        self.span = obs.null_scope if ctx is None else ctx.tracer.span
        self.label = (grb.backend.labelled if grb.backend.active()
                      else obs.null_scope)
        self.visits = None if ctx is None else ctx.metrics.counter(
            "mg_level_visits_total", "V-cycle visits per MG level")
        return self

    def walk(self, z, r) -> None:
        """``z <- M r``: a level visited under its span and visit count,
        a step under its timer and label, a grid transfer its span."""
        measure, label, span, visits = (self.measure, self.label, self.span,
                                        self.visits)
        levels, names = self.levels, self.names
        vectors = [(z, r), *((lvl.zc, lvl.rc) for lvl in levels[:-1])]

        def visit(i: int):
            tag, args, _ = names[i]
            if visits is not None:
                visits.inc(level=args["level"])
            return span(tag, "mg", args)

        def step(i: int, name: str) -> None:
            key, at, body = names[i][2][name]
            with measure(key), label(at), (
                    obs.null_scope() if name in ("pre", "post")
                    else span(key, "mg")):
                getattr(self, body)(levels[i], *vectors[i])

        vcycle(len(levels), step, visit)

    def smooth(self, level: MGLevel, z, r) -> None:
        level.smoother.smooth(z, r)

    def residual(self, level: MGLevel, z, r) -> None:
        # f <- r - A z, fused when the extension accepts the call
        if not fused_ext.fused_spmv_waxpby(level.f, 1.0, r, -1.0,
                                           level.A, z):
            grb.mxv(level.f, None, level.A, z)          # f <- A z
            grb.waxpby(level.f, 1.0, r, -1.0, level.f)  # f <- r - f

    def restrict(self, level: MGLevel, z, r) -> None:
        restrict(level.rc, level.R, level.f)        # rc <- R (r - A z)
        level.zc.fill(0.0)                          # zc <- 0

    def prolong(self, level: MGLevel, z, r) -> None:
        prolong_add(z, level.R, level.zc)           # z <- z + R' zc


class _PlannedVCycle(_VCycle):
    """The same walk over a loaded :class:`fused.VCyclePlan`: every
    level's vectors live colour-major inside the plan's array kernel,
    and each step executes the next segment of the kernel's compiled
    schedule (in :func:`vcycle`'s order too), a smoothing under the span
    the smoother itself would record.  Untraced, nothing runs between
    the segments but the timers: :meth:`run` executes them flat, each
    inside the timer scope :meth:`walk` gives its step."""

    def __init__(self, plan: fused_ext.VCyclePlan, top: MGLevel, timers):
        super().__init__(top, timers)
        self.plan = plan
        self._kernel = self._flat = None    # the schedule, as last compiled

    def arm(self) -> "_PlannedVCycle":
        kernel = self.plan.kernel
        if kernel is not self._kernel:
            self._kernel, self._flat = kernel, None
            self._segments = kernel.schedule()
        self._next = iter(self._segments).__next__
        return super().arm()

    def run(self) -> None:
        if self._flat is None:
            self._flat = [
                (self.measure(f"mg/L{self.levels[i].index}/{step}"), calls)
                for i, step, calls in self._segments]
        for timer, calls in self._flat:
            with timer:
                for f, args in calls:
                    f(*args)

    def smooth(self, level: MGLevel, z, r) -> None:
        with self.span(*SWEEP_SPAN) as sp:
            execute(self._next()[2])
            sp.set(**level.smoother.sweep_attrs(True))

    def _transfer(self, *_) -> None:
        execute(self._next()[2])

    residual = restrict = prolong = _transfer


def mg_vcycle(level: MGLevel, z: grb.Vector, r: grb.Vector,
              timers=null_timer) -> grb.Vector:
    """Apply one V-cycle at ``level``, improving ``z`` toward ``A^-1 r``.

    Transcription of Listing 1; ``timers`` receives per-level entries
    under ``mg/L{i}/...`` which the breakdown figures consume.
    """
    _VCycle(level, timers).arm().walk(z, r)
    return z


class MGPreconditioner:
    """Callable wrapper: ``M(z, r)`` overwrites ``z`` with ≈ ``A^-1 r``.

    Each application is offered to the hierarchy's fused
    :class:`~repro.graphblas.fused.VCyclePlan` (bound to every level's
    smoother plan and ``R``, revalidated per call) and runs
    :func:`mg_vcycle` on the containers when the plan declines.  With
    no obs context the plan's kernel runs its compiled schedule.  Every
    level smooths with one symmetric pass before and one after, HPCG's.
    """

    def __init__(self, hierarchy: MGLevel, timers=null_timer):
        self.hierarchy = hierarchy
        self._plan = fused_ext.VCyclePlan(
            [(getattr(lvl.smoother, "plan", None), lvl.R)
             for lvl in hierarchy.levels()])
        self._walk = _VCycle(hierarchy, timers)
        self._planned_walk = _PlannedVCycle(self._plan, hierarchy, timers)

    def __call__(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        if z is r:      # z is zero-filled before r is read
            raise OutputAliasing(
                "MG preconditioner output must not alias the residual")
        if not self._plan.load(z, r):
            z.fill(0.0)
            self._walk.arm().walk(z, r)
            return z
        walk = self._planned_walk.arm()
        if walk.span is obs.null_scope:
            walk.run()
        else:
            walk.walk(z, r)
        self._plan.store(z)
        return z
