"""The CSR reference provider — the seed implementation, plus a fused sweep.

Compressed Sparse Row via scipy is the format the paper names for
reference HPCG (Section III-B) and the bit-exactness yardstick every
other provider is measured against: ``csr_matvec`` accumulates each
row's partial products left-to-right in ascending column order from
``+0.0``.

:meth:`CsrProvider.gs_color_sweep` returns :class:`CsrColorSweep`: the
operator held once with its rows grouped by colour, so a whole
symmetric smooth gathers iterate and right-hand side once, relaxes
every colour on contiguous slices and scatters once, without changing
a bit of output.  Inputs a colour-major layout cannot express — a row
in two classes, a non-square operator — get the generic natural-order
:class:`ColorSweep`.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.graphblas.substrate.base import (
    ColorSweep, KernelProvider, fused_traffic,
)

try:  # scipy's compiled SpMV entry point: zero-copy, no wrapper layers.
    from scipy.sparse import _sparsetools as _sp_tools

    _csr_matvec = _sp_tools.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - old scipy
    _csr_matvec = None


class CsrProvider(KernelProvider):
    """scipy CSR: one indptr/indices/data triplet, no padding."""

    name = "csr"

    def _build(self) -> None:
        # the canonical CSR *is* the structure
        pass

    def mxv(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def mxv_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # scipy's ``@`` into float64 ``out``; _csr_matvec is the kernels' own
        if _csr_matvec is None:     # pragma: no cover - old scipy
            return super().mxv_into(x, out)
        csr = self._csr
        out.fill(0.0)
        _sp_tools.csr_matvec(*csr.shape, csr.indptr, csr.indices, csr.data,
                             x, out)
        return out

    def gs_color_sweep(self, color_rows: Sequence[np.ndarray],
                       diag: np.ndarray) -> Optional[ColorSweep]:
        hits = np.bincount(np.concatenate(color_rows), minlength=self.nrows)
        if (self.nrows != self.ncols or hits.max(initial=0) > 1
                or _csr_matvec is None):
            # colour-major needs every row in at most one class
            return ColorSweep(self, color_rows, diag)
        return CsrColorSweep(self.csr, color_rows, diag)

    def stored_entries(self) -> int:
        return self.nnz

    def mxv_traffic(self) -> Tuple[int, int]:
        # 8B value + 4B column index + ~4B amortised indptr/gather per
        # entry, plus read+write of the output row (the seed formula,
        # kept verbatim so CSR-run byte streams match the original
        # perf-model calibration).
        return _mxv_traffic(self.nnz, self.nrows)


def _mxv_traffic(nnz: int, rows: int) -> Tuple[int, int]:
    return 2 * nnz, nnz * 16 + rows * 16


def execute(calls) -> None:
    """Run a compiled program: each ``(callable, args)`` in order."""
    for f, args in calls:
        f(*args)


class CsrColorSweep(ColorSweep):
    """The CSR fused sweep: one colour-major copy of the operator.

    ``perm`` lists the rows colour by colour (rows in no class last,
    never relaxed).  The sweep holds ``A[perm, :]``, columns relabelled
    through ``inverse`` (of ``perm``), as three raw arrays: colour ``k`` is the
    row range ``off[k]:off[k+1]`` (``indptr`` offsets are absolute, so
    a slice of it is a valid block) and its product reads the
    colour-major iterate directly.  Each row keeps its entries in
    stored order — ascending *natural* column, never re-sorted, which
    is why nothing that canonicalises may wrap the arrays — so it
    accumulates exactly as the reference ``csr_matvec`` does and
    iterates are bit-identical to the natural-order sweep.  A colour
    step is one ``csr_matvec`` and four ``out=`` ufuncs on views cut
    once; :meth:`program` compiles a pass into those calls with their
    operands bound.  A :class:`ColorMajorVCycle` keeps ``z`` and ``r``
    loaded across smooths and takes :meth:`program` and :meth:`block`
    directly.
    """

    def __init__(self, csr, color_rows: Sequence[np.ndarray],
                 diag: np.ndarray):
        self.fmt = CsrProvider.name
        n = csr.shape[0]
        self.sizes = [len(r) for r in color_rows]
        self._off = off = [0, *np.cumsum(self.sizes).tolist()]
        colored = np.concatenate(color_rows).astype(np.int64, copy=False)
        rest = np.ones(n, dtype=bool)
        rest[colored] = False
        self.perm = perm = np.concatenate((colored, np.flatnonzero(rest)))
        block = csr[perm, :]                 # one row gather, order kept
        self._indptr, self._data = block.indptr, block.data
        self._indices = idx = block.indices
        self.inverse = inverse = np.empty(n, dtype=idx.dtype)
        inverse[perm] = np.arange(n, dtype=idx.dtype)
        # relabel in place, a cache-sized chunk at a time: one fancy
        # index over all entries would hold two more copies of them
        for lo in range(0, idx.size, 1 << 16):
            chunk = idx[lo:lo + (1 << 16)]
            np.take(inverse, chunk, out=chunk, mode="clip")
        self._diag = diag[perm]
        # a finite sum has only finite terms (relax's zero shortcut)
        self._finite = bool(np.isfinite(self._data.sum()))
        self._buffers()
        self.rows = [perm[lo:hi] for lo, hi in zip(off, off[1:])]
        self.nnzs = np.diff(self._indptr[off]).tolist()
        self.traffic = [fused_traffic(_mxv_traffic(nnz, rows), rows, nnz, 3)
                        for rows, nnz in zip(self.sizes, self.nnzs)]

    def _buffers(self) -> None:
        """Allocate what a walk writes — ``z``, ``r``, the product scratch
        — and cut each colour's slices of them and of the operator once:
        views, so a relaxation indexes nothing and allocates nothing.
        Programs bind these views: new buffers start an empty cache."""
        off = self._off
        self.z, self.r = np.empty(self.perm.size), np.empty(self.perm.size)
        self._s = np.empty(max(self.sizes))
        self._blocks = [
            (hi - lo, self._indptr[lo:hi + 1], self.z[lo:hi], self.r[lo:hi],
             self._diag[lo:hi], self._s[:hi - lo])
            for lo, hi in zip(off, off[1:])
        ]
        # (order, zero) -> program, and (colour, zero) -> its step
        self._programs = {}

    def twin(self) -> "CsrColorSweep":
        """This sweep over the same operator arrays, with buffers (and
        programs) of its own: two walks that may interleave must each
        hold one."""
        twin = copy.copy(self)
        twin._buffers()
        return twin

    def step(self, k: int, z: np.ndarray, r: np.ndarray) -> None:
        self.run(z, r, (k,))

    def run(self, z: np.ndarray, r: np.ndarray, order) -> None:
        self.load(z, r)
        execute(self.program(order))
        self.store(z)

    def load(self, z: np.ndarray, r: np.ndarray) -> None:
        """Gather natural-order ``z`` and ``r`` into the sweep's buffers."""
        # mode="clip": the default "raise" buffers a full copy of out
        z.take(self.perm, out=self.z, mode="clip")
        r.take(self.perm, out=self.r, mode="clip")

    def store(self, z: np.ndarray) -> None:
        """Scatter the colour-major iterate into natural-order ``z``."""
        z[self.perm] = self.z

    def program(self, order, zero: bool = False) -> tuple:
        """The ``(callable, args)`` calls that relax the colours ``order``
        lists, in place on the loaded iterate ``self.z`` against
        ``self.r``, compiled once per ``(order, zero)``.  ``zero`` (only a
        :class:`ColorMajorVCycle` passes it): the whole iterate is
        ``+0.0``, so the first listed colour's product is ``+0.0`` and
        ``r_k - (+0.0)`` is ``r_k`` bit for bit — it is not formed, unless
        a stored value is not finite (``0 * Inf`` is NaN)."""
        key = (tuple(order), zero)
        calls = self._programs.get(key)
        if calls is None:
            zero = zero and self._finite
            calls = self._programs[key] = sum(
                (self._step(k, zero and i == 0)
                 for i, k in enumerate(key[0])), ())
        return calls

    def _step(self, k: int, zero: bool) -> tuple:
        """Colour ``k``'s calls, compiled once: programs share them."""
        calls = self._programs.get((k, zero))
        if calls is None:
            rows, indptr, zk, rk, dk, s = self._blocks[k]
            if zero:
                calls, s = (), rk
            else:   # csr_matvec accumulates onto its output
                calls = ((s.fill, (0.0,)),
                         (_csr_matvec, (rows, self.perm.size, indptr,
                                        self._indices, self._data, self.z, s)),
                         (np.subtract, (rk, s, s)))
            # z_k = (r_k - s + z_k * d_k) / d_k, operation for operation;
            # the product above read the pre-update z_k throughout
            calls = self._programs[k, zero] = calls + (
                (np.multiply, (zk, dk, zk)), (np.add, (s, zk, zk)),
                (np.divide, (zk, dk, zk)))
        return calls

    def block(self, rows: np.ndarray):
        """``(head, pick)`` for a product over the colour-major rows
        ``rows``: ``csr_matvec``'s leading arguments and where in its
        output each of ``rows`` lands (None: in order).  Views of the
        sweep's arrays when the rows fill one range, else one copy."""
        n, lo, hi = self.perm.size, int(rows.min()), int(rows.max()) + 1
        if hi - lo == rows.size:
            return (rows.size, n, self._indptr[lo:hi + 1], self._indices,
                    self._data), rows - lo
        # wrapped as they are; each row's entries copied in stored order
        cut = csr_matrix((self._data, self._indices, self._indptr),
                         shape=(n, n))[rows, :]
        return (rows.size, n, cut.indptr, cut.indices, cut.data), None


class ColorMajorVCycle:
    """One preconditioner application, colour-major from entry to exit,
    on raw arrays: the kernel under the serial
    :class:`repro.graphblas.fused.VCyclePlan` and under the simulated
    distributed engine (:mod:`repro.dist.simulate`).

    ``sweeps`` lists the levels' :class:`CsrColorSweep`, finest first;
    ``injections[i]`` names, in natural order, the level-``i`` point each
    level-``i + 1`` point injects from.  :meth:`load` gathers ``r`` and
    zeroes the fine iterate; the caller executes :meth:`schedule`'s
    programs, each on the sweeps' own ``z`` / ``r``, and :meth:`store`
    scatters ``z`` once.  The grid transfers are index moves through the
    injection relabelled by both levels' permutations; ``+ 0.0`` on each
    reproduces the sign of zero of the injection product's
    ``+0.0 + 1.0*x``.

    No pass is made whose output nothing reads.  Restriction reads the
    residual on the injected rows only, so the residual multiplies just
    that :meth:`~CsrColorSweep.block` (views of the fine sweep on
    27-point levels, where they are colour 0; one copy on 7-point ones)
    and restriction subtracts.  ``load`` and restriction zero a level's
    iterate, so a pre-smoothing's first pass is compiled from zero: its
    first colour step skips the product.  That is the kernel's
    arithmetic, not the algorithm's: a caller pricing Listing 1 (the
    dist engine) prices every step.  ``load`` and restriction overwrite
    every vector a level reads: an abandoned application leaves nothing.
    """

    def __init__(self, sweeps: Sequence[CsrColorSweep],
                 injections: Sequence[np.ndarray]):
        self._levels = []   # (sweep, block, pick, f, injection) per level
        for sweep, coarse, source in zip(sweeps, sweeps[1:], injections):
            injection = sweep.inverse[source[coarse.perm]].astype(np.intp)
            self._levels.append((sweep, *sweep.block(injection),
                                 np.empty(injection.size), injection))
        self._levels.append((sweeps[-1], None, None, None, None))
        # per non-coarsest level, the programs of f_i = A_i z_i on the
        # injected rows, r_{i+1} = R (r_i - f_i) with z_{i+1} = 0, and
        # z_i += R' z_{i+1}
        self._transfers = [self._compile(i) for i in range(len(sweeps) - 1)]
        self._schedules = {}

    def _compile(self, i: int) -> tuple:
        sweep, block, pick, f, injection = self._levels[i]
        coarse = self._levels[i + 1][0]
        residual = ((f.fill, (0.0,)), (_csr_matvec, (*block, sweep.z, f)))
        restrict, product = [(sweep.r.take,
                              (injection, None, coarse.r, "clip"))], f
        if pick is not None:    # the product's rows in injection order
            restrict.append((f.take, (pick, None, coarse.z, "clip")))
            product = coarse.z
        restrict += ((np.subtract, (coarse.r, product, coarse.r)),
                     (np.add, (coarse.r, 0.0, coarse.r)),
                     (coarse.z.fill, (0.0,)))
        # through the two vectors restriction left free: the coarse
        # right-hand side and f_i
        prolong = ((np.add, (coarse.z, 0.0, coarse.r)),
                   (sweep.z.take, (injection, None, f, "clip")),
                   (np.add, (f, coarse.r, f)),
                   (sweep.z.__setitem__, (injection, f)))
        return residual, tuple(restrict), prolong

    def load(self, r: np.ndarray) -> None:
        """Start an application of ``z = M r`` on natural-order ``r``."""
        fine = self._levels[0][0]
        r.take(fine.perm, out=fine.r, mode="clip")
        fine.z.fill(0.0)

    def store(self, z: np.ndarray) -> None:
        """Scatter the fine iterate into natural-order ``z``."""
        self._levels[0][0].store(z)

    def schedule(self, orders, pre: int, post: int) -> tuple:
        """One application after :meth:`load` as ``(level, step,
        programs)`` segments in ``ref_mg_vcycle``'s order — ``step`` one
        of ``rbgs``, ``spmv`` (the residual), ``restrict``, ``prolong`` —
        with one program (:func:`execute`) per grid transfer and per
        smoother pass: ``pre`` and ``post`` passes of ``orders[i]`` on
        level ``i``.  Compiled once per arguments."""
        key = (tuple(map(tuple, orders)), pre, post)
        segments = self._schedules.get(key)
        if segments is None:
            segments = self._schedules[key] = tuple(self._segments(0, *key))
        return segments

    def _segments(self, i: int, orders, pre: int, post: int):
        sweep, order = self._levels[i][0], orders[i]
        yield i, "rbgs", tuple(sweep.program(order, j == 0)
                               for j in range(pre))
        if i + 1 == len(self._levels):
            return
        residual, restrict, prolong = self._transfers[i]
        yield i, "spmv", (residual,)
        yield i, "restrict", (restrict,)
        yield from self._segments(i + 1, orders, pre, post)
        yield i, "prolong", (prolong,)
        yield i, "rbgs", (sweep.program(order),) * post
