"""Fused-kernel extensions (nonblocking ALP/GraphBLAS, paper ref. [32]).

Standard (blocking) GraphBLAS executes each primitive eagerly: the RBGS
colour step writes the masked ``mxv`` result to a workspace vector and
immediately re-reads it in the ``eWiseLambda`` — a full round trip
through memory for a value that is consumed once.  Mastoras et al.'s
nonblocking ALP fuses such producer-consumer pairs; the paper's Related
Work singles this out as the main shared-memory headroom.

This module is exactly what the solve calls — four fusions and their
``REPRO_FUSED`` kill switch.  They are *extensions* (code using them is
no longer portable GraphBLAS), so they live below the operations API,
and each declines a call it cannot reproduce bit for bit; the caller
then runs the reference transcription (``fused=False``, the oracle):

* :class:`ColorSweepPlan` — the default smoother's fast path: any list
  of colour steps (a symmetric pass is one run) executed by the active
  provider's prebuilt :class:`~repro.graphblas.substrate.base.ColorSweep`
  — on CSR one colour-major copy of the operator, iterate and rhs
  gathered once per run — version-validated against the operator,
  masks and diagonal, and priced per colour step through the
  provider's fused-traffic hook so collected byte streams stay honest.
* :class:`JacobiSweepPlan` — the same fusion for the damped-Jacobi
  update (a full product, no mask).
* :func:`fused_spmv_waxpby` — CG's hot pair ``w = alpha*x + beta*(A z)``
  (the residual updates in ``pcg`` init and the V-cycle) in one pass,
  eliding the intermediate product vector's 16-byte-per-row round trip.
* :class:`VCyclePlan` — the whole preconditioner application on the
  levels' colour-major sweeps: the binding to containers, revalidation
  and declines of :class:`~repro.graphblas.substrate.csr.ColorMajorVCycle`,
  the one array kernel :mod:`repro.dist` runs too.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graphblas import backend
from repro.graphblas.matrix import Matrix
from repro.graphblas.substrate import csr as csr_substrate
from repro.graphblas.substrate.base import ColorSweep
from repro.graphblas.substrate.csr import ColorMajorVCycle, CsrColorSweep
from repro.graphblas.vector import Vector
from repro.util.errors import InvalidValue

#: Kill switch for the fused smoother fast path: ``REPRO_FUSED=0``
#: restores the reference transcription everywhere.
ENV_FUSED = "REPRO_FUSED"


def fused_enabled() -> bool:
    """The ``REPRO_FUSED`` switch (on unless explicitly disabled); an
    unrecognised spelling is an :class:`InvalidValue`."""
    raw = os.environ.get(ENV_FUSED, "").strip().lower()
    if raw in ("0", "off", "no", "false"):
        return False
    if raw in ("", "1", "on", "yes", "true"):
        return True
    raise InvalidValue(
        f"unrecognised {ENV_FUSED}={raw!r}: use 1/0, on/off, yes/no, "
        f"true/false")


def fused_spmv_waxpby(w: Vector, alpha: float, x: Vector, beta: float,
                      A: Matrix, z: Vector) -> bool:
    """``w = alpha*x + beta*(A z)`` without materialising ``A z``.

    The fusion for CG's hot SpMV→waxpby pair.  Returns ``False`` when
    the call cannot be served bit-identically (kill switch, sparse or
    non-float64 operands, empty operator rows whose output presence the
    unfused pair would drop, or ``w`` aliasing the product input) and
    the caller falls back to the ``mxv`` + ``waxpby`` transcription.

    Bit-exactness: the product accumulates each row's partial products
    in ascending column order from ``+0.0`` — every provider's
    contract, so one CSR-order kernel serves all substrates — and
    ``fl(a)+fl(b)`` is commutative in IEEE-754 (signed zeros included),
    so ``alpha*x[i] + beta*acc`` matches both of ``waxpby``'s dense
    site orders.  The product is the provider's ``mxv``; what is elided
    is the intermediate container, keeping the arithmetic of the
    unfused pair.
    """
    if not fused_enabled():      # the kill switch works per call
        return False
    if w is z:
        return False             # the product must read pre-update z
    if (A.dtype != np.float64 or w.dtype != np.float64
            or x.dtype != np.float64 or z.dtype != np.float64):
        return False
    if not (w.is_dense() and x.is_dense() and z.is_dense()):
        return False
    if w.size != A.nrows or z.size != A.ncols or x.size != w.size:
        return False
    prov = A.provider()
    if not prov.rows_all_present:
        return False
    wv, xv = w._values, x._values
    flops, mxv_bytes = prov.mxv_traffic()
    # the product lands in w unless w is x, which is read after it
    s = prov.mxv(z._values) if w is x else prov.mxv_into(z._values, wv)
    if alpha == 1.0 and beta == -1.0:
        # the residual, the only pair the solver passes: 1*x = x,
        # (-1)*s = -s and x + (-s) == x - s bit for bit in IEEE-754
        np.subtract(xv, s, out=wv)
    else:
        s = beta * s
        np.multiply(xv, alpha, out=wv)
        wv += s
    w._bump()
    if backend.active():
        n = w.size
        # the unfused pair costs mxv traffic (tmp write+read included in
        # the provider's rows*16 term) plus waxpby's n*24; fusion elides
        # the intermediate's 16B/row round trip
        backend.record(
            "fused_spmv_waxpby", A.nrows, prov.nnz,
            flops + 3 * n, mxv_bytes + n * 8, fmt=prov.name,
        )
    return True


def _sweepable(z: Vector, r: Vector, ncols: int, nrows: int) -> bool:
    """What a fused sweep needs of its iterate and right-hand side: two
    distinct (``r`` would change under the sweep), dense, float64
    vectors of the operator's shape."""
    return (z is not r and z.size == ncols and r.size == nrows
            and z.dtype == np.float64 and r.dtype == np.float64
            and z.is_dense() and r.is_dense())


class ColorSweepPlan:
    """The fused smoother fast path: a provider sweep with caching.

    Binds an operator, its colour masks and its diagonal vector once;
    :meth:`run` executes a list of colour steps through the
    active provider's :class:`ColorSweep`, rebuilding it only when the
    operator, a mask or the diagonal changes (version counters — the
    same invalidation contract the masked-mxv substructure cache uses).

    :meth:`run` returns ``False`` when the fast path cannot serve the
    call bit-identically — non-dense or aliased vectors, a non-float64
    domain, a provider that opted out of the capability, a sweep that
    declines the right-hand side — and the caller is expected to fall
    back to the reference transcription.
    """

    def __init__(self, A: Matrix, colors: Sequence[Vector], diag: Vector,
                 level: Optional[int] = None):
        if not colors:
            raise InvalidValue("at least one colour mask is required")
        self.A = A
        self.colors: List[Vector] = list(colors)
        self.diag = diag
        #: owning MG level, when known — tags emitted events so byte
        #: streams recorded outside a ``labelled`` scope still carry
        #: the level attribution (an enclosing label always wins)
        self.level = level
        self._key = None
        self._sweep: Optional[ColorSweep] = None

    def _event_label(self) -> Optional[str]:
        return None if self.level is None else f"rbgs@L{self.level}"

    def _current_sweep(self) -> Optional[ColorSweep]:
        key = (
            self.A.version,
            self.A.substrate,   # set_substrate swaps providers silently
            self.diag.version,
            tuple(c.version for c in self.colors),
        )
        if key != self._key:
            self._key = key
            self._sweep = None
            if (self.A.dtype == np.float64
                    and self.diag.dtype == np.float64
                    and self.diag.is_dense()):
                rows = [np.flatnonzero(c._present) for c in self.colors]
                self._sweep = self.A.provider().gs_color_sweep(
                    rows, self.diag._values
                )
        return self._sweep

    def run(self, z: Vector, r: Vector, order) -> bool:
        """Run the colour steps ``order`` lists; False means "fall back"."""
        if not fused_enabled():      # the kill switch works per call
            return False
        if not _sweepable(z, r, self.A.ncols, self.A.nrows):
            return False
        sweep = self._current_sweep()
        if sweep is None or not sweep.run(z._values, r._values, order):
            return False
        z._bump()
        if backend.active():
            label = self._event_label()
            for k in order:
                flops, nbytes = sweep.traffic[k]
                backend.record(
                    "fused_mxv_lambda", sweep.sizes[k], sweep.nnzs[k],
                    flops, nbytes, fmt=sweep.fmt, label=label,
                )
        return True


class JacobiSweepPlan:
    """The fused damped-Jacobi update: ``z += omega * (r - A z) / d``.

    One full provider product straight into the pointwise update — no
    workspace container round trip — priced through the provider's
    fused-traffic hook.  Same decline-and-fall-back contract as
    :class:`ColorSweepPlan`.
    """

    def __init__(self, A: Matrix, diag: Vector, omega: float,
                 level: Optional[int] = None):
        self.A = A
        self.diag = diag
        self.omega = omega
        self.level = level    # same fallback-tag contract as ColorSweepPlan

    def run(self, z: Vector, r: Vector, sweeps: int) -> bool:
        if not fused_enabled():      # the kill switch works per call
            return False
        if (self.A.dtype != np.float64
                or z.dtype != np.float64 or r.dtype != np.float64
                or not z.is_dense() or not r.is_dense()
                or self.diag.dtype != np.float64
                or not self.diag.is_dense()):
            return False
        prov = self.A.provider()
        zv, rv, dv = z._values, r._values, self.diag._values
        omega = self.omega
        for _ in range(sweeps):
            s = prov.mxv(zv)
            zv += omega * (rv - s) / dv
            if backend.active():
                flops, nbytes = prov.fused_mxv_traffic(3)
                backend.record(
                    "fused_mxv_lambda", self.A.nrows, prov.nnz,
                    flops, nbytes, fmt=prov.name,
                    label=(None if self.level is None
                           else f"jacobi@L{self.level}"),
                )
        z._bump()
        return True


class VCyclePlan:
    """The fused V-cycle: what is GraphBLAS about one application of
    :class:`~repro.graphblas.substrate.csr.ColorMajorVCycle`.

    Bound to a hierarchy's per-level ``(ColorSweepPlan, R)`` pairs,
    finest first (``R`` restricts a level onto the next; ``None`` on the
    coarsest).  A :meth:`load` that returns True leaves ``r`` gathered
    in :attr:`kernel`, whose schedule the caller runs before :meth:`store`
    scatters ``z``; its injections are read off each ``R``'s pattern.

    :meth:`load` declines, before touching anything, what the kernel
    cannot reproduce bit for bit, and :attr:`declined` names why — one
    of :attr:`DECLINES`: ``REPRO_FUSED=0``; any call under a ``backend``
    collector (the perf model prices Listing 1's primitives, so there the
    primitives run); a compiled product that contracts its multiply-adds;
    a level whose smoother plan is not armed or whose sweep is not the
    CSR colour-major one; an operator with empty rows; an ``R`` that is
    not one stored ``1.0`` per row over distinct columns; sparse,
    non-float64, aliased or mis-sized vectors; an ``r`` holding ``-0.0``.
    The kernel is built at the first :meth:`load` and revalidated per
    application against one stamp: the version of every bound operator,
    diagonal, colour mask and ``R``, and each operator's substrate; only
    when it moves are the levels' sweeps looked up and the kernel rebuilt.
    """

    #: what :attr:`declined` may read, in the order :meth:`load` checks
    DECLINES = ("kill switch", "backend collector", "contracting kernel",
                "non-CSR sweep", "empty rows", "bad R", "vectors",
                "-0.0 residual")

    def __init__(self, levels: Sequence[Tuple[Optional[ColorSweepPlan],
                                              Optional[Matrix]]]):
        self._bound = [(p if isinstance(p, ColorSweepPlan) else None, R)
                       for p, R in levels]
        plans = [p for p, _ in self._bound if p is not None]
        self._watched = [*(x for p in plans for x in (p.A, p.diag, *p.colors)),
                         *(R for _, R in self._bound if R is not None)]
        self._operators = [p.A for p in plans]
        self._stamp = None
        #: the array kernel of the hierarchy as last validated, or None
        self.kernel: Optional[ColorMajorVCycle] = None
        self._unbuilt: Optional[str] = None     # why kernel is None
        #: why the last :meth:`load` returned False; None when it ran
        self.declined: Optional[str] = None

    def _build(self, sweeps) -> Tuple[Optional[ColorMajorVCycle],
                                      Optional[str]]:
        """The kernel over ``sweeps``, or None and the reason."""
        if any(type(sweep) is not CsrColorSweep for sweep in sweeps):
            return None, "non-CSR sweep"
        injections = []
        for (plan, R), sweep, coarse in zip(self._bound, sweeps,
                                            [*sweeps[1:], None]):
            if not plan.A.provider().rows_all_present:
                # the residual's output would have holes
                return None, "empty rows"
            if coarse is None:
                break
            nc, nf = coarse.perm.size, sweep.perm.size
            csr = R._csr
            if (csr.shape != (nc, nf) or csr.dtype != np.float64
                    or csr.nnz != nc or (np.diff(csr.indptr) != 1).any()
                    or (csr.data != 1.0).any()
                    or np.unique(csr.indices).size != nc):
                return None, "bad R"
            injections.append(csr.indices)
        return ColorMajorVCycle(sweeps, injections), None

    def load(self, z: Vector, r: Vector) -> bool:
        """Start an application of ``z = M r``; False means "fall back",
        and :attr:`declined` says why."""
        self.declined = self._decline(z, r)
        return self.declined is None

    def _decline(self, z: Vector, r: Vector) -> Optional[str]:
        if not fused_enabled():
            return "kill switch"
        if backend.active():
            return "backend collector"
        if csr_substrate.CONTRACTS:
            return "contracting kernel"
        stamp = ([x._version for x in self._watched],
                 [A.substrate for A in self._operators])
        if stamp != self._stamp:
            self._stamp = stamp
            self.kernel, self._unbuilt = self._build(
                [None if p is None else p._current_sweep()
                 for p, _ in self._bound])
        if self.kernel is None:
            return self._unbuilt
        n = self._bound[0][0].A.nrows       # colour-major: square
        if not _sweepable(z, r, n, n):
            return "vectors"
        if not self.kernel.load(r._values):
            return "-0.0 residual"
        return None

    def store(self, z: Vector) -> None:
        """Scatter the fine iterate into ``z`` — the application's end."""
        self.kernel.store(z._values)
        z._bump()
