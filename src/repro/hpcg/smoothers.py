"""Smoothers for the multigrid preconditioner.

The centrepiece is :class:`RBGSSmoother` — the paper's Red-Black
(multi-colour) Gauss-Seidel expressed purely in GraphBLAS primitives,
transcribing Listings 2 and 3:

* per colour ``k``: a *masked, structural* ``mxv`` computes
  ``s = (A z)`` restricted to the rows of colour ``k``;
* an ``ewise_lambda`` then updates those rows in place:
  ``z_i <- (r_i - s_i + z_i * d_i) / d_i`` where ``d`` is the diagonal
  held in a dedicated vector (GraphBLAS has no O(1) element access).

Colours are processed sequentially to honour inter-colour dependencies;
within one colour everything is data-parallel (here: vectorised).

**The fused fast path.**  Executing that transcription literally pays
mask materialisation, row re-extraction, a workspace round trip and
several layers of Python dispatch per colour × sweep × MG level × CG
iteration.  The smoother therefore hands each symmetric pass to
:class:`repro.graphblas.fused.ColorSweepPlan` as *one* run of the
active provider's prebuilt
:class:`~repro.graphblas.substrate.base.ColorSweep` — on CSR one
colour-major copy of the operator: ``z`` and ``r`` gathered once per
pass, every colour relaxed on contiguous slices, ``z`` scattered back
once.  The fast path is *bit-identical* to the transcription (same
per-row accumulation order — ``tests/test_fused_smoother.py`` proves
it per provider, colouring and operation) and declines whenever it
cannot be: ``REPRO_FUSED=0``, an explicit ``fused=False``, sparse
vectors, non-float64 domains or ``z is r`` fall back to the Listing
2/3 path.

The smoothers stay *substrate-agnostic*: both paths execute whichever
kernel provider the matrix's substrate selection picked (CSR,
SELL-C-σ, dense-blocked — see :mod:`repro.graphblas.substrate`), with
bit-identical iterates.

A damped Jacobi smoother is provided for the smoother-choice ablation:
it is symmetric, hence admissible as a CG preconditioner, but a weaker
smoother than RBGS (more iterations to tolerance) and kept only for
that study.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_mod
from repro.util.errors import DimensionMismatch, InvalidValue


#: name and category of the span one symmetric RBGS pass records
SWEEP_SPAN = ("smoother/rbgs_sweep", "smoother")


def _check_sizes(n: int, z: grb.Vector, r: grb.Vector) -> None:
    """Both smoothers' up-front size check, fused path or not."""
    if z.size != n or r.size != n:
        raise DimensionMismatch(
            f"vector sizes ({z.size}, {r.size}) != operator size {n}"
        )


class RBGSSmoother:
    """Multi-colour Gauss-Seidel over GraphBLAS containers.

    One ``smooth`` call performs a forward sweep (colours in increasing
    order) followed by a backward sweep (decreasing order) — the
    symmetric variant HPCG requires of its smoother.

    ``fused`` selects the fast path: ``None`` (default) follows the
    ``REPRO_FUSED`` environment switch, ``False`` pins the reference
    Listing 2/3 transcription (the ablation baseline), ``True`` arms
    the fused plan.  An armed plan still falls back per call — when it
    cannot serve the request bit-identically (sparse vectors,
    non-float64 domains), and whenever ``REPRO_FUSED=0`` is set at
    call time (the kill switch works on already-built smoothers too).
    """

    def __init__(
        self,
        A: grb.Matrix,
        A_diag: grb.Vector,
        colors: Sequence[grb.Vector],
        fused: Optional[bool] = None,
    ):
        if A.nrows != A.ncols:
            raise InvalidValue("smoother requires a square operator")
        if A_diag.size != A.nrows:
            raise DimensionMismatch(
                f"diagonal size {A_diag.size} != operator rows {A.nrows}"
            )
        if not A_diag.to_dense().all():     # a missing entry reads as 0
            raise InvalidValue("RBGS requires a nonzero diagonal")
        if not colors:
            raise InvalidValue("at least one colour mask is required")
        for c in colors:
            if c.size != A.nrows:
                raise DimensionMismatch("colour mask size mismatch")
        self.A = A
        self.A_diag = A_diag
        self.colors: List[grb.Vector] = list(colors)
        #: owning MG level when built by ``build_hierarchy`` (None for
        #: a standalone smoother); tags spans and fused-event streams
        self.level: Optional[int] = None
        # Workspace for the masked products; allocated once, like the
        # explicit `tmp` buffer of Listing 3.
        self._tmp = grb.Vector.dense(A.nrows)
        use_fused = fused_mod.fused_enabled() if fused is None else fused
        self._plan = (
            fused_mod.ColorSweepPlan(A, self.colors, A_diag)
            if use_fused else None
        )
        ncolors = len(self.colors)
        #: the colour steps of one symmetric pass: forward, then backward
        self.symmetric_order = [*range(ncolors), *range(ncolors - 1, -1, -1)]

    @property
    def plan(self) -> Optional[fused_mod.ColorSweepPlan]:
        """The armed fused plan a V-cycle plan binds to, or ``None``."""
        return self._plan

    def sweep_attrs(self, fused: bool) -> dict:
        """The attributes a pass's :data:`SWEEP_SPAN` span carries."""
        return dict(fused=fused, colors=len(self.colors), level=self.level,
                    n=self.n)

    def set_level(self, index: Optional[int]) -> "RBGSSmoother":
        """Record the owning MG level (propagated into the fused plan)."""
        self.level = index
        if self._plan is not None:
            self._plan.level = index
        return self

    @property
    def n(self) -> int:
        return self.A.nrows

    @property
    def fused_active(self) -> bool:
        """True when the fused fast path is armed (it may still fall
        back per call on configurations it cannot serve)."""
        return self._plan is not None

    @staticmethod
    def _pointwise(idx: np.ndarray, z: np.ndarray, r: np.ndarray,
                   s: np.ndarray, d: np.ndarray) -> None:
        """The Listing-3 lambda, vectorised over one colour."""
        dd = d[idx]
        z[idx] = (r[idx] - s[idx] + z[idx] * dd) / dd

    def _sweep(self, z: grb.Vector, r: grb.Vector, order) -> None:
        with obs.span(*SWEEP_SPAN) as sp:
            fused = self._plan is not None and self._plan.run(z, r, order)
            if not fused:
                for k in order:
                    mask = self.colors[k]
                    grb.mxv(self._tmp, mask, self.A, z,
                            desc=grb.descriptors.structural)
                    grb.ewise_lambda(
                        self._pointwise, mask, z, r, self._tmp, self.A_diag
                    )
            if sp is not None:
                sp.set(**self.sweep_attrs(fused))

    def forward(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        """One forward multi-colour Gauss-Seidel sweep (Listing 2)."""
        _check_sizes(self.n, z, r)
        self._sweep(z, r, range(len(self.colors)))
        return z

    def backward(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        """One backward sweep: colours in decreasing order."""
        _check_sizes(self.n, z, r)
        self._sweep(z, r, range(len(self.colors) - 1, -1, -1))
        return z

    def smooth(self, z: grb.Vector, r: grb.Vector, sweeps: int = 1) -> grb.Vector:
        """``sweeps`` symmetric passes: colours forward then backward."""
        _check_sizes(self.n, z, r)
        for _ in range(sweeps):
            self._sweep(z, r, self.symmetric_order)
        return z


class JacobiSmoother:
    """Damped Jacobi: ``z += omega * D^-1 (r - A z)``.

    Fully parallel (no colouring needed) but a weaker smoother; kept for
    the ablation study comparing smoother choices.  Takes the fused
    product+update fast path under the same ``fused``/``REPRO_FUSED``
    contract as :class:`RBGSSmoother`.
    """

    def __init__(self, A: grb.Matrix, A_diag: grb.Vector,
                 omega: float = 2.0 / 3.0, fused: Optional[bool] = None):
        if not 0 < omega <= 1.0:
            raise InvalidValue(f"damping factor must be in (0, 1], got {omega}")
        if not A_diag.to_dense().all():     # a missing entry reads as 0
            raise InvalidValue("Jacobi requires a nonzero diagonal")
        self.A = A
        self.A_diag = A_diag
        self.omega = omega
        self.level: Optional[int] = None
        self._tmp = grb.Vector.dense(A.nrows)
        use_fused = fused_mod.fused_enabled() if fused is None else fused
        self._plan = (
            fused_mod.JacobiSweepPlan(A, A_diag, omega)
            if use_fused else None
        )

    def set_level(self, index: Optional[int]) -> "JacobiSmoother":
        """Record the owning MG level (propagated into the fused plan)."""
        self.level = index
        if self._plan is not None:
            self._plan.level = index
        return self

    @property
    def n(self) -> int:
        return self.A.nrows

    @property
    def fused_active(self) -> bool:
        return self._plan is not None

    def smooth(self, z: grb.Vector, r: grb.Vector, sweeps: int = 1) -> grb.Vector:
        _check_sizes(self.n, z, r)
        with obs.span("smoother/jacobi_sweep", "smoother") as sp:
            if sp is not None:
                sp.set(sweeps=sweeps, level=self.level, n=self.n,
                       fused=self._plan is not None)
            if self._plan is not None and self._plan.run(z, r, sweeps):
                return z
            if sp is not None:
                sp.set(fused=False)
            omega = self.omega

            def update(idx, zv, rv, sv, dv):
                zv[idx] = zv[idx] + omega * (rv[idx] - sv[idx]) / dv[idx]

            for _ in range(sweeps):
                grb.mxv(self._tmp, None, self.A, z)
                grb.ewise_lambda(update, None, z, r, self._tmp, self.A_diag)
            return z

    # Jacobi's forward and backward halves are identical.
    def forward(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        return self.smooth(z, r, sweeps=1)

    backward = forward
