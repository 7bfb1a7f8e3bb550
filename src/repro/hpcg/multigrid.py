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
from repro.hpcg.smoothers import RBGSSmoother
from repro.util.errors import InvalidValue
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
    tag = f"mg/L{level.index}"
    with obs.span(tag, "mg", {"level": level.index, "n": level.n}):
        registry = obs.metrics_registry()
        if registry is not None:
            registry.counter(
                "mg_level_visits_total", "V-cycle visits per MG level"
            ).inc(level=level.index)
        with timers.measure(f"{tag}/rbgs"), \
                grb.backend.labelled(f"rbgs@L{level.index}"):
            level.smoother.smooth(z, r, sweeps=pre_sweeps)
        if level.coarser is None:
            return z

        with timers.measure(f"{tag}/spmv"), \
                grb.backend.labelled(f"mg_spmv@L{level.index}"), \
                obs.span(f"{tag}/spmv", "mg"):
            # f <- r - A z, fused when the extension accepts the call
            if not fused_ext.fused_spmv_waxpby(level.f, 1.0, r, -1.0,
                                               level.A, z):
                grb.mxv(level.f, None, level.A, z)          # f <- A z
                grb.waxpby(level.f, 1.0, r, -1.0, level.f)  # f <- r - f
        with timers.measure(f"{tag}/restrict"), \
                grb.backend.labelled(f"restrict@L{level.index}"), \
                obs.span(f"{tag}/restrict", "mg"):
            restrict(level.rc, level.R, level.f)        # rc <- R (r - A z)
        level.zc.fill(0.0)                              # zc <- 0
        mg_vcycle(level.coarser, level.zc, level.rc, timers,
                  pre_sweeps=pre_sweeps, post_sweeps=post_sweeps)
        with timers.measure(f"{tag}/prolong"), \
                grb.backend.labelled(f"refine@L{level.index}"), \
                obs.span(f"{tag}/prolong", "mg"):
            prolong_add(z, level.R, level.zc)           # z <- z + R' zc
        with timers.measure(f"{tag}/rbgs"), \
                grb.backend.labelled(f"rbgs@L{level.index}"):
            level.smoother.smooth(z, r, sweeps=post_sweeps)
    return z


class MGPreconditioner:
    """Callable wrapper: ``M(z, r)`` overwrites ``z`` with ≈ ``A^-1 r``."""

    def __init__(self, hierarchy: MGLevel, timers=null_timer,
                 pre_sweeps: int = 1, post_sweeps: int = 1):
        self.hierarchy = hierarchy
        self.timers = timers
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps

    def __call__(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        z.fill(0.0)
        return mg_vcycle(
            self.hierarchy, z, r, self.timers,
            pre_sweeps=self.pre_sweeps, post_sweeps=self.post_sweeps,
        )
