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
:class:`ColorSweep`, and so does everything when the compiled product
contracts its multiply-adds.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graphblas.substrate.base import (
    ColorSweep, KernelProvider, fused_traffic,
)

try:  # scipy's compiled SpMV entry point: zero-copy, no wrapper layers.
    from scipy.sparse import _sparsetools as _sp_tools

    _csr_matvec = _sp_tools.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - old scipy
    _csr_matvec = None


def _contracts() -> bool:
    """Whether ``csr_matvec`` fuses ``acc + a*x`` into one multiply-add,
    as GCC and clang do by default on FMA targets (aarch64): then
    ``(1 + 2**-27) * (1 - 2**-27)`` is not rounded to ``1.0`` before
    ``-1.0`` is added, and the row sums to ``-2**-54``, not ``0.0``."""
    y = np.zeros(1)
    _csr_matvec(1, 2, np.array([0, 2], dtype=np.int32),
                np.array([0, 1], dtype=np.int32),
                np.array([1.0, 1.0 + 2.0 ** -27]),
                np.array([-1.0, 1.0 - 2.0 ** -27]), y)
    return bool(y[0] != 0.0)


#: the compiled product contracts: a colour step's ``d_i z_i`` would not
#: be rounded before its add, so no colour-major sweep runs
CONTRACTS = _csr_matvec is not None and _contracts()
#: ``-0.0``'s bits are the least int64, so no temporary finds one
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def declines(r: np.ndarray) -> bool:
    """Whether a colour-major relaxation against ``r`` would differ from
    the reference: ``r`` holds a ``-0.0`` (one reduction over its bits),
    or the product contracts."""
    return CONTRACTS or r.view(np.int64).min(initial=0) == _NEGATIVE_ZERO


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
                or _csr_matvec is None or CONTRACTS):
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
    """The CSR fused sweep: one colour-major copy of the operator whose
    every row carries the tail of its own update.

    ``perm`` lists the rows colour by colour (rows in no class last,
    never relaxed, and not copied), and colour ``k`` is the row range
    ``off[k]:off[k+1]``, held as its own ``indptr``/``indices``/``data``
    triple.  Row ``i`` of the sweep is row ``perm[i]`` of ``-A``, columns
    relabelled through ``inverse`` (of ``perm``), then ``+1`` at column
    ``n + i`` and ``+d_i`` at column ``i``; ``z`` and ``r`` are the two
    halves of one ``2n`` buffer.  Each row keeps its
    stored entries in stored order — ascending *natural* column, never
    re-sorted, which is why nothing that canonicalises may wrap the
    arrays — so ``csr_matvec`` from ``+0.0`` over colour ``k`` yields
    ``fl(fl(r_i - s_i) + fl(d_i z_i))``, the reference's ``r - s + z*d``
    operation for operation: negation is exact, and the kernel rounds
    each product before its add (:data:`CONTRACTS` says when it does
    not).  One ``divide`` by ``d_k`` finishes the step, so a colour step
    is ``fill``, ``csr_matvec``, ``divide``; :meth:`program` compiles a
    pass into those calls with their operands bound.

    ``-s_i + r_i`` is ``r_i - s_i`` bit for bit except for ``s_i = +0.0``
    and ``r_i = -0.0`` (``+0.0`` against ``-0.0``), so :meth:`load`
    declines an ``r`` holding a ``-0.0``.  ``nnzs`` and ``traffic`` count
    the stored entries alone: the tail is the update the price already
    holds.  The sweep keeps a reference to the operator as given, which
    :meth:`plain` copies rows of.  A :class:`ColorMajorVCycle` keeps ``z``
    and ``r`` loaded across smooths and takes :meth:`program` and
    :meth:`plain` directly.
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
        self._diag = d = diag[perm]
        # columns run to 2n: csr_matvec takes int32 or int64 indices
        itype = np.int32 if csr.nnz + 2 * n < 2 ** 31 else np.int64
        self.inverse = inverse = np.empty(n, dtype=itype)
        inverse[perm] = np.arange(n, dtype=itype)
        self._csr = csr     # as stored: what plain() copies rows of
        ptr, cols = (csr.indptr.astype(itype, copy=False),
                     csr.indices.astype(itype, copy=False))
        # Each colour's rows in arrays of their own, gathered straight
        # into place in order: csr_row_index copies row r as the entries
        # [ptr[r], ptr[r + 1]), so handed ``pairs`` and row 2j it copies
        # row j with the next row's first two entries as its tail's
        # placeholders.  A row with fewer than two entries after it ends
        # a call of its own, copied exact: no read runs past the arrays.
        exact = ptr[1:] + 2 > ptr[-1]
        pairs = np.empty(2 * n, dtype=itype)
        pairs[0::2], pairs[1::2] = ptr[:-1], ptr[1:] + 2 * ~exact
        counts = np.diff(ptr)[perm] + 2
        self._indptr, self._indices, self._data = [], [], []
        for lo, hi in zip(off, off[1:]):
            rows = perm[lo:hi]
            indptr = np.zeros(hi - lo + 1, dtype=itype)
            np.cumsum(counts[lo:hi], out=indptr[1:])
            idx = np.empty(indptr[-1], dtype=itype)
            data = np.empty(indptr[-1])
            ask = 2 * rows.astype(itype)
            cuts = [0, *(np.flatnonzero(exact[rows]) + 1).tolist()]
            for a, b in zip(cuts, [*cuts[1:], hi - lo]):
                if a < b:
                    _sp_tools.csr_row_index(b - a, ask[a:b], pairs, cols,
                                            csr.data, idx[indptr[a]:],
                                            data[indptr[a]:])
            np.take(inverse, idx, out=idx, mode="clip")
            np.negative(data, out=data)
            tail = indptr[1:] - 2
            idx[tail] = np.arange(n + lo, n + hi, dtype=itype)
            data[tail] = 1.0
            tail += 1
            idx[tail], data[tail] = np.arange(lo, hi, dtype=itype), d[lo:hi]
            self._indptr.append(indptr)
            self._indices.append(idx)
            self._data.append(data)
        # a finite sum has only finite terms (the zero-iterate shortcut)
        self._finite = bool(np.isfinite(csr.data.sum()))
        #: residual rows (:meth:`plain`), shared by every twin
        self._plains = {}
        self._buffers()
        self.rows = [perm[lo:hi] for lo, hi in zip(off, off[1:])]
        self.nnzs = [int(p[-1]) - 2 * (p.size - 1) for p in self._indptr]
        self.traffic = [fused_traffic(_mxv_traffic(nnz, rows), rows, nnz, 3)
                        for rows, nnz in zip(self.sizes, self.nnzs)]

    def _buffers(self) -> None:
        """Allocate what a walk writes — ``z`` and ``r`` (one ``2n``
        buffer), the product scratch — and cut each colour's slices of
        them and of the operator once: views, so a relaxation indexes
        nothing and allocates nothing.  Programs bind these views: new
        buffers start an empty cache."""
        n, off = self.perm.size, self._off
        self._x = np.empty(2 * n)
        self.z, self.r = self._x[:n], self._x[n:]
        self._s = np.empty(max(self.sizes))
        self._blocks = [
            (hi - lo, *arrays, self.z[lo:hi], self.r[lo:hi],
             self._diag[lo:hi], self._s[:hi - lo])
            for lo, hi, *arrays in zip(off, off[1:], self._indptr,
                                       self._indices, self._data)
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

    def step(self, k: int, z: np.ndarray, r: np.ndarray) -> bool:
        return self.run(z, r, (k,))

    def run(self, z: np.ndarray, r: np.ndarray, order) -> bool:
        if not self.load(z, r):
            return False
        execute(self.program(order))
        self.store(z)
        return True

    def load(self, z: np.ndarray, r: np.ndarray) -> bool:
        """Gather natural-order ``z`` and ``r`` into the sweep's buffers;
        False, touching nothing, when :func:`declines` ``r``."""
        if declines(r):
            return False
        # mode="clip": the default "raise" buffers a full copy of out
        z.take(self.perm, out=self.z, mode="clip")
        r.take(self.perm, out=self.r, mode="clip")
        return True

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
            rows, indptr, indices, data, zk, rk, dk, s = self._blocks[k]
            if zero:    # z_k = (r_k + z_k * d_k) / d_k
                calls = ((np.multiply, (zk, dk, zk)), (np.add, (rk, zk, zk)),
                         (np.divide, (zk, dk, zk)))
            else:       # csr_matvec accumulates onto its output
                calls = ((s.fill, (0.0,)),
                         (_csr_matvec, (rows, self._x.size, indptr, indices,
                                        data, self._x, s)),
                         (np.divide, (s, dk, zk)))
            self._programs[k, zero] = calls
        return calls

    def plain(self, rows: np.ndarray) -> tuple:
        """``csr_matvec``'s leading arguments for ``A z`` over the
        colour-major rows ``rows``, in their order: the operator's rows
        as stored, columns relabelled — no negation, no tail.  Copied
        once per ``rows`` and shared by every twin."""
        key = rows.tobytes()
        head = self._plains.get(key)
        if head is None:
            block = self._csr[self.perm[rows], :]   # row gather, order kept
            itype = self.inverse.dtype
            indices = block.indices.astype(itype, copy=False)
            np.take(self.inverse, indices, out=indices, mode="clip")
            head = self._plains[key] = (
                rows.size, self.perm.size,
                block.indptr.astype(itype, copy=False), indices, block.data)
        return head


def vcycle(depth: int, step, visit, i: int = 0) -> None:
    """Listing 1's order over ``depth`` levels, stated once for every
    V-cycle but the ``ref_mg_vcycle`` oracle: inside ``visit(i)``,
    ``step(i, "pre")``, then above the coarsest level ``"spmv"`` (the
    residual), ``"restrict"``, level ``i + 1``'s cycle, ``"prolong"`` and
    ``"post"``.  A smoothing is one symmetric pass, as HPCG fixes."""
    with visit(i):
        step(i, "pre")
        if i + 1 < depth:
            step(i, "spmv")
            step(i, "restrict")
            vcycle(depth, step, visit, i + 1)
            step(i, "prolong")
            step(i, "post")


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
    ``+0.0 + 1.0*x`` — so a coarse ``r`` never holds the ``-0.0`` a
    colour step cannot take, and only :meth:`load` checks for one.

    No pass is made whose output nothing reads.  Restriction reads the
    residual on the injected rows only, so the residual multiplies just
    those rows — one plain copy of them, in injection order
    (:meth:`~CsrColorSweep.plain`) — and restriction subtracts.  ``load``
    and restriction zero a level's iterate, so a pre-smoothing is
    compiled from zero: its first colour step skips the product.
    That is the kernel's arithmetic, not the algorithm's: a caller
    pricing Listing 1 (the dist engine) prices every step.  ``load`` and
    restriction overwrite every vector a level reads: an abandoned
    application leaves nothing.
    """

    def __init__(self, sweeps: Sequence[CsrColorSweep],
                 injections: Sequence[np.ndarray]):
        self._levels = [   # (sweep, residual rows, f, injection) per level
            (sweep, head, np.empty(injection.size), injection)
            for sweep, (head, injection)
            in zip(sweeps, self.residual_rows(sweeps, injections))]
        self._levels.append((sweeps[-1], None, None, None))
        # per non-coarsest level, the programs of f_i = A_i z_i on the
        # injected rows, r_{i+1} = R (r_i - f_i) with z_{i+1} = 0, and
        # z_i += R' z_{i+1}
        self._transfers = [self._compile(i) for i in range(len(sweeps) - 1)]
        segments = []
        vcycle(len(sweeps),
               lambda *step: segments.append(self._segment(*step)),
               lambda i: nullcontext())
        self._schedule = tuple(segments)

    @staticmethod
    def residual_rows(sweeps: Sequence[CsrColorSweep],
                      injections: Sequence[np.ndarray]) -> list:
        """Per level but the coarsest, its residual rows
        (:meth:`~CsrColorSweep.plain`, copied at the first call and
        shared by every twin of the sweep) and the injection, relabelled
        colour-major on both levels."""
        rows = []
        for sweep, coarse, source in zip(sweeps, sweeps[1:], injections):
            injection = sweep.inverse[source[coarse.perm]].astype(np.intp)
            rows.append((sweep.plain(injection), injection))
        return rows

    def _compile(self, i: int) -> dict:
        sweep, head, f, injection = self._levels[i]
        coarse = self._levels[i + 1][0]
        residual = ((f.fill, (0.0,)), (_csr_matvec, (*head, sweep.z, f)))
        restrict = ((sweep.r.take, (injection, None, coarse.r, "clip")),
                    (np.subtract, (coarse.r, f, coarse.r)),
                    (np.add, (coarse.r, 0.0, coarse.r)),
                    (coarse.z.fill, (0.0,)))
        # through the two vectors restriction left free: the coarse
        # right-hand side and f_i
        prolong = ((np.add, (coarse.z, 0.0, coarse.r)),
                   (sweep.z.take, (injection, None, f, "clip")),
                   (np.add, (f, coarse.r, f)),
                   (sweep.z.__setitem__, (injection, f)))
        return {"spmv": residual, "restrict": restrict, "prolong": prolong}

    def _segment(self, i: int, name: str) -> tuple:
        """Step ``name`` on level ``i``: a smoothing is one symmetric pass
        (colours up, then down), the pre-smoothing's from zero."""
        if name not in ("pre", "post"):
            return i, name, self._transfers[i][name]
        sweep = self._levels[i][0]
        k = len(sweep.sizes)
        return i, "rbgs", sweep.program((*range(k), *range(k)[::-1]),
                                        name == "pre")

    def load(self, r: np.ndarray) -> bool:
        """Start an application of ``z = M r`` on natural-order ``r``;
        False, touching nothing, when a colour step :func:`declines` it."""
        if declines(r):
            return False
        fine = self._levels[0][0]
        r.take(fine.perm, out=fine.r, mode="clip")
        fine.z.fill(0.0)
        return True

    def store(self, z: np.ndarray) -> None:
        """Scatter the fine iterate into natural-order ``z``."""
        self._levels[0][0].store(z)

    def schedule(self) -> tuple:
        """One application after :meth:`load` as :func:`vcycle`'s ``(level,
        step, calls)`` segments, compiled with the kernel: ``step`` as
        timers name it (``rbgs``, ``spmv``, ``restrict``, ``prolong``),
        ``calls`` one program (:func:`execute`)."""
        return self._schedule
