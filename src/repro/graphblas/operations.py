"""GraphBLAS operations over the opaque containers.

This module is the public computational API: ``mxv``, ``vxm``, ``mxm``,
elementwise operations, ``apply``, ``assign``, ``extract``, reductions,
``dot``, and the ALP-style ``ewise_lambda`` escape hatch.

Conventions (following the C API and ALP):

* the output container comes first, then the mask (or ``None``);
* operations *overwrite* masked positions of the output and leave
  unmasked positions untouched, unless ``desc.replace`` clears the
  output first or an ``accum`` binary operator merges old and new;
* entry presence follows GraphBLAS semantics: an output entry exists
  only where the operation produced a value (e.g. an ``mxv`` row with an
  empty pattern/argument intersection yields *no* entry, not a zero).

Performance notes: the conventional arithmetic semiring over dense
vectors dispatches to compiled CSR kernels; everything else runs a fully
general gather/segment-reduce path.  Both paths are cross-checked in the
test suite.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.graphblas import backend
from repro.graphblas import descriptor as desc_mod
from repro.graphblas.descriptor import Descriptor
from repro.graphblas.matrix import Matrix
from repro.graphblas.monoid import Monoid
from repro.graphblas.ops import BinaryOp, UnaryOp
from repro.graphblas.semiring import Semiring, plus_times
from repro.graphblas.vector import Vector
from repro.util.errors import DimensionMismatch, InvalidValue, OutputAliasing

__all__ = [
    "mxv",
    "vxm",
    "mxm",
    "ewise_add",
    "ewise_mult",
    "apply",
    "apply_bind_first",
    "apply_bind_second",
    "assign",
    "extract",
    "reduce",
    "reduce_matrix",
    "dot",
    "norm2",
    "waxpby",
    "ewise_lambda",
    "diag",
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _mask_bool(mask: Optional[Vector], size: int, desc: Descriptor) -> Optional[np.ndarray]:
    """Resolve a mask vector to a boolean selection array (or None)."""
    if mask is None:
        if desc.invert_mask:
            raise InvalidValue("invert_mask descriptor requires a mask")
        return None
    if mask.size != size:
        raise DimensionMismatch(
            f"mask size {mask.size} != expected {size}"
        )
    if desc.structural:
        sel = mask._present.copy()
    else:
        sel = mask._present & mask._values.astype(bool)
    if desc.invert_mask:
        sel = ~sel
    return sel


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without Python loops."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _gather_rows(
    csr: sp.csr_matrix, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the patterns of ``rows``: (ptr, col_indices, values)."""
    indptr = csr.indptr
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    flat = np.repeat(indptr[rows].astype(np.int64), counts) + _ranges(counts)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    return ptr, csr.indices[flat], csr.data[flat]


def _filter_segments(
    ptr: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """New segment pointers after dropping entries where ``keep`` is False."""
    csum = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
    return csum[ptr]


def _writeback(
    w: Vector,
    rows: Optional[np.ndarray],
    values: np.ndarray,
    present: np.ndarray,
    accum: Optional[BinaryOp],
    desc: Descriptor,
) -> None:
    """Merge computed (rows, values, present) into ``w`` per the spec.

    ``rows=None`` means every row in order (an unmasked ``mxv``): the
    merge then runs on whole vectors under boolean ``where=`` selections
    — the same scalar operations, no index array gathered or scattered.
    """
    if desc.replace:
        w._values.fill(0)
        w._present.fill(False)
    if accum is None:
        target = slice(None) if rows is None else rows
        w._values[target] = np.where(present, values, 0).astype(w.dtype, copy=False)
        w._present[target] = present
    elif rows is None:
        both = w._present & present
        only_new = present & ~w._present
        fold = accum.ufunc or np.frompyfunc(accum.fn, 2, 1)
        fold(w._values, values, out=w._values, where=both, casting="unsafe")
        np.copyto(w._values, values, where=only_new, casting="unsafe")
        w._present |= present
    else:
        old_present = w._present[rows]
        both = old_present & present
        only_new = present & ~old_present
        merged = values.astype(w.dtype, copy=True)
        if both.any():
            merged[both] = accum.vectorized(
                w._values[rows][both], values[both]
            ).astype(w.dtype, copy=False)
        sel = both | only_new
        idx = rows[sel]
        w._values[idx] = merged[sel]
        w._present[idx] = True
    w._bump()


def _check_vector_sizes(*pairs) -> None:
    for got, want, what in pairs:
        if got != want:
            raise DimensionMismatch(f"{what}: size {got}, expected {want}")


# ---------------------------------------------------------------------------
# matrix-vector products
# ---------------------------------------------------------------------------

def mxv(
    w: Vector,
    mask: Optional[Vector],
    A: Matrix,
    u: Vector,
    semiring: Semiring = plus_times,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """``w<mask> = A (+.x) u`` under an arbitrary semiring.

    With ``desc.transpose_matrix`` computes ``A' u``.  With a mask, only
    masked rows are computed (the paper's RBGS relies on this to touch an
    eighth of the rows per colour).
    """
    if w is u:
        raise OutputAliasing("mxv output must not alias the input vector")
    csr_shape = (A.ncols, A.nrows) if desc.transpose_matrix else (A.nrows, A.ncols)
    _check_vector_sizes(
        (w.size, csr_shape[0], "mxv output"),
        (u.size, csr_shape[1], "mxv input"),
    )
    sel = _mask_bool(mask, csr_shape[0], desc)
    if sel is None and accum is None and _mxv_in_place(w, A, u, semiring,
                                                      desc):
        return w
    # unmasked: every row, so no index array is built (rows=None)
    rows = None if sel is None else np.flatnonzero(sel)
    nrows = csr_shape[0] if rows is None else rows.size

    u_dense = u.is_dense()
    if semiring.is_plus_times and u_dense:
        values, present, nnz, flops, nbytes, fmt = _mxv_fast(
            A, u, rows, mask, desc
        )
    else:
        values, present, nnz = _mxv_generic(A, u, rows, semiring, desc)
        flops = 2 * nnz
        nbytes = nnz * 16 + nrows * 16
        fmt = "csr"
    if backend.active():
        backend.record("mxv", nrows, nnz, flops, nbytes, fmt=fmt)
    values = values.astype(w.dtype, copy=False)
    _writeback(w, rows, values, present, accum, desc)
    return w


def _mxv_in_place(w: Vector, A: Matrix, u: Vector, semiring: Semiring,
                  desc: Descriptor) -> bool:
    """An unmasked, unaccumulated plus-times product straight into
    ``w``'s storage; False (the merge serves it) for anything else."""
    if (desc.replace or desc.transpose_matrix or not semiring.is_plus_times
            or not A.dtype == w.dtype == u.dtype == np.float64
            or not u.is_dense()):
        return False
    prov = A.provider()
    if not prov.rows_all_present:
        return False
    prov.mxv_into(u._values, w._values)
    if not w.is_dense():
        w._present.fill(True)
    if backend.active():
        flops, nbytes = prov.mxv_traffic()
        backend.record("mxv", w.size, prov.nnz, flops, nbytes, fmt=prov.name)
    w._bump()
    return True


def _mxv_fast(
    A: Matrix,
    u: Vector,
    rows: Optional[np.ndarray],
    mask: Optional[Vector],
    desc: Descriptor,
) -> Tuple[np.ndarray, np.ndarray, int, int, int, str]:
    """plus-times with dense input: the active substrate provider's kernel.

    Returns ``(values, present, nnz, flops, bytes, fmt)`` — traffic
    priced by the provider's own format model, so a SELL-C-σ run and a
    CSR run of the same algorithm emit different byte streams.
    """
    if rows is None:
        prov = A.provider(desc.transpose_matrix)
        y = prov.mxv(u._values)
        flops, nbytes = prov.mxv_traffic()
        return y, prov.row_present, prov.nnz, flops, nbytes, prov.name
    # Masked: invert_mask and value-masks change the row set per call, so
    # only structural non-inverted masks hit the substructure cache;
    # transient row subsets run on the reference CSR path.
    cacheable = desc.structural and not desc.invert_mask and mask is not None
    if cacheable:
        sub = A._rows_substructure(
            (id(mask), mask.version), rows, desc.transpose_matrix
        )
        y = sub.mxv(u._values)
        flops, nbytes = sub.mxv_traffic()
        return y, sub.row_present, sub.nnz, flops, nbytes, sub.name
    base = A._transposed_csr() if desc.transpose_matrix else A._csr
    sub = base[rows, :]
    y = sub @ u._values
    row_nnz = np.diff(sub.indptr)
    nnz = int(sub.nnz)
    return y, row_nnz > 0, nnz, 2 * nnz, nnz * 16 + rows.size * 16, "csr"


def _mxv_generic(
    A: Matrix,
    u: Vector,
    rows: Optional[np.ndarray],
    semiring: Semiring,
    desc: Descriptor,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Arbitrary semiring and/or sparse input: gather + segment reduce."""
    csr = A._transposed_csr() if desc.transpose_matrix else A._csr
    if rows is None:
        ptr, cols, vals = csr.indptr, csr.indices, csr.data
    else:
        ptr, cols, vals = _gather_rows(csr, rows)
    keep = u._present[cols]
    if not keep.all():
        ptr = _filter_segments(ptr, keep)
        cols = cols[keep]
        vals = vals[keep]
    products = semiring.mul.vectorized(vals, u._values[cols])
    reduced = semiring.add.segment_reduce(products, ptr)
    present = np.diff(ptr) > 0
    return np.asarray(reduced), present, int(cols.size)


def vxm(
    w: Vector,
    mask: Optional[Vector],
    u: Vector,
    A: Matrix,
    semiring: Semiring = plus_times,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """``w<mask> = u (+.x) A`` — mxv on the transposed operand."""
    flipped = desc.with_(transpose_matrix=not desc.transpose_matrix)
    return mxv(w, mask, A, u, semiring=semiring, desc=flipped, accum=accum)


def mxm(
    C: Matrix,
    mask: Optional[Matrix],
    A: Matrix,
    B: Matrix,
    semiring: Semiring = plus_times,
    desc: Descriptor = desc_mod.default,
) -> Matrix:
    """``C<mask> = A (+.x) B``.

    The paper needs mxm only for applying permutations ``P' A P``
    (Section III-A), which is plus-times; the generic-semiring path is
    provided for completeness and exercised on small matrices in tests.
    """
    a = A._transposed_csr() if desc.transpose_matrix else A._csr
    b = B._csr
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"mxm inner dimensions differ: {a.shape} x {b.shape}"
        )
    if semiring.is_plus_times:
        prod = (a @ b).tocsr()
        prod.sort_indices()
        # scipy may keep explicit zeros from cancellation; GraphBLAS keeps
        # them too (they are stored values), so no pruning here.
    else:
        prod = _mxm_generic(a, b, semiring)
    if mask is not None:
        if mask.shape != (a.shape[0], b.shape[1]):
            raise DimensionMismatch("mxm mask shape mismatch")
        pattern = mask._csr.copy()
        pattern.data = np.ones_like(pattern.data)
        prod = prod.multiply(pattern).tocsr()
    if backend.active():
        backend.record("mxm", prod.shape[0], int(prod.nnz), 2 * int(prod.nnz), int(prod.nnz) * 32)
    C._csr = prod
    C._invalidate()
    return C


def _mxm_generic(a: sp.csr_matrix, b: sp.csr_matrix, semiring: Semiring) -> sp.csr_matrix:
    """Column-at-a-time generic product (small-matrix fallback)."""
    bc = b.tocsc()
    n_out_rows, n_out_cols = a.shape[0], b.shape[1]
    out_rows, out_cols, out_vals = [], [], []
    av = Vector.sparse(a.shape[1], dtype=np.result_type(a.dtype, b.dtype))
    amat = Matrix(a)
    for j in range(n_out_cols):
        lo, hi = bc.indptr[j], bc.indptr[j + 1]
        av.clear()
        if hi > lo:
            av._values[bc.indices[lo:hi]] = bc.data[lo:hi]
            av._present[bc.indices[lo:hi]] = True
            av._bump()
        vals, present, _ = _mxv_generic(amat, av, None, semiring, desc_mod.default)
        nz = np.flatnonzero(present)
        out_rows.append(nz)
        out_cols.append(np.full(nz.size, j, dtype=np.int64))
        out_vals.append(np.asarray(vals)[nz])
    r = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=np.int64)
    c = np.concatenate(out_cols) if out_cols else np.empty(0, dtype=np.int64)
    v = np.concatenate(out_vals) if out_vals else np.empty(0)
    return sp.csr_matrix((v, (r, c)), shape=(n_out_rows, n_out_cols))


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

def ewise_add(
    w: Vector,
    mask: Optional[Vector],
    u: Vector,
    v: Vector,
    op: BinaryOp,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """Union elementwise: ``op`` where both present, copy where one is."""
    _check_vector_sizes((u.size, w.size, "ewise_add u"), (v.size, w.size, "ewise_add v"))
    sel = _mask_bool(mask, w.size, desc)
    both = u._present & v._present
    only_u = u._present & ~v._present
    only_v = v._present & ~u._present
    out_vals = np.zeros(w.size, dtype=np.result_type(u.dtype, v.dtype))
    if both.any():
        out_vals[both] = op.vectorized(u._values[both], v._values[both])
    out_vals[only_u] = u._values[only_u]
    out_vals[only_v] = v._values[only_v]
    out_present = u._present | v._present
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    if backend.active():
        backend.record("ewise_add", rows.size, 0, int(both.sum()), rows.size * 24)
    _writeback(w, rows, out_vals[rows], out_present[rows], accum, desc)
    return w


def ewise_mult(
    w: Vector,
    mask: Optional[Vector],
    u: Vector,
    v: Vector,
    op: BinaryOp,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """Intersection elementwise: entries exist only where both exist."""
    _check_vector_sizes((u.size, w.size, "ewise_mult u"), (v.size, w.size, "ewise_mult v"))
    sel = _mask_bool(mask, w.size, desc)
    both = u._present & v._present
    out_vals = np.zeros(w.size, dtype=np.result_type(u.dtype, v.dtype))
    if both.any():
        out_vals[both] = op.vectorized(u._values[both], v._values[both])
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    if backend.active():
        backend.record("ewise_mult", rows.size, 0, int(both.sum()), rows.size * 24)
    _writeback(w, rows, out_vals[rows], both[rows], accum, desc)
    return w


def apply(
    w: Vector,
    mask: Optional[Vector],
    op: UnaryOp,
    u: Vector,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """``w<mask> = op(u)`` elementwise over u's pattern."""
    _check_vector_sizes((u.size, w.size, "apply input"))
    sel = _mask_bool(mask, w.size, desc)
    out_vals = np.zeros(w.size, dtype=u.dtype)
    if u._present.any():
        out_vals[u._present] = op.vectorized(u._values[u._present])
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    if backend.active():
        backend.record("apply", rows.size, 0, rows.size, rows.size * 16)
    _writeback(w, rows, out_vals[rows], u._present[rows], accum, desc)
    return w


def apply_bind_first(
    w: Vector,
    mask: Optional[Vector],
    op: BinaryOp,
    scalar,
    u: Vector,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """``w<mask> = op(scalar, u)`` elementwise (GrB_apply, BinaryOp1st).

    E.g. ``apply_bind_first(w, None, ops.minus, 1.0, u)`` computes
    ``1 - u`` over u's pattern.
    """
    _check_vector_sizes((u.size, w.size, "apply input"))
    sel = _mask_bool(mask, w.size, desc)
    out_vals = np.zeros(w.size, dtype=np.result_type(type(scalar), u.dtype))
    if u._present.any():
        vals = u._values[u._present]
        out_vals[u._present] = op.vectorized(
            np.full(vals.shape, scalar, dtype=out_vals.dtype), vals
        )
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    if backend.active():
        backend.record("apply", rows.size, 0, rows.size, rows.size * 16)
    _writeback(w, rows, out_vals[rows], u._present[rows], accum, desc)
    return w


def apply_bind_second(
    w: Vector,
    mask: Optional[Vector],
    op: BinaryOp,
    u: Vector,
    scalar,
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """``w<mask> = op(u, scalar)`` elementwise (GrB_apply, BinaryOp2nd).

    E.g. ``apply_bind_second(w, None, ops.times, u, 0.5)`` halves ``u``.
    """
    _check_vector_sizes((u.size, w.size, "apply input"))
    sel = _mask_bool(mask, w.size, desc)
    out_vals = np.zeros(w.size, dtype=np.result_type(u.dtype, type(scalar)))
    if u._present.any():
        vals = u._values[u._present]
        out_vals[u._present] = op.vectorized(
            vals, np.full(vals.shape, scalar, dtype=out_vals.dtype)
        )
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    if backend.active():
        backend.record("apply", rows.size, 0, rows.size, rows.size * 16)
    _writeback(w, rows, out_vals[rows], u._present[rows], accum, desc)
    return w


def assign(
    w: Vector,
    mask: Optional[Vector],
    value: Union[Vector, int, float, bool],
    desc: Descriptor = desc_mod.default,
    accum: Optional[BinaryOp] = None,
) -> Vector:
    """``w<mask> = value`` for a scalar or a whole vector."""
    sel = _mask_bool(mask, w.size, desc)
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    if isinstance(value, Vector):
        _check_vector_sizes((value.size, w.size, "assign input"))
        vals = value._values[rows]
        present = value._present[rows]
    else:
        vals = np.full(rows.size, value, dtype=w.dtype)
        present = np.ones(rows.size, dtype=bool)
    if backend.active():
        backend.record("assign", rows.size, 0, 0, rows.size * 16)
    _writeback(w, rows, vals, present, accum, desc)
    return w


def extract(
    w: Vector,
    mask: Optional[Vector],
    u: Vector,
    indices: Sequence[int],
    desc: Descriptor = desc_mod.default,
) -> Vector:
    """``w<mask> = u[indices]`` (subvector extraction)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape[0] != w.size:
        raise DimensionMismatch(
            f"extract output size {w.size} != number of indices {idx.shape[0]}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= u.size):
        raise InvalidValue("extract index out of range")
    sel = _mask_bool(mask, w.size, desc)
    rows = np.arange(w.size) if sel is None else np.flatnonzero(sel)
    vals = u._values[idx[rows]]
    present = u._present[idx[rows]]
    if backend.active():
        backend.record("extract", rows.size, 0, 0, rows.size * 16)
    _writeback(w, rows, vals, present, None, desc)
    return w


# ---------------------------------------------------------------------------
# reductions and products
# ---------------------------------------------------------------------------

def reduce(u: Vector, monoid: Monoid):
    """Fold all stored entries of ``u`` with the monoid."""
    vals = u._values[u._present] if not u.is_dense() else u._values
    if backend.active():
        backend.record("reduce", 1, 0, int(vals.size), int(vals.size) * 8)
    return monoid.reduce(vals)


def reduce_matrix(A: Matrix, monoid: Monoid):
    """Fold all stored entries of ``A``.

    A cold path: reads the canonical CSR value stream directly (every
    provider's ``reduce_values`` is that same stream) rather than
    forcing the acceleration structure to materialise — hence the event
    is tagged ``fmt="csr"``, the format that actually executed it.
    """
    if backend.active():
        backend.record("reduce", 1, A.nvals, A.nvals, A.nvals * 8,
                       fmt="csr")
    return monoid.reduce(A._csr.data)


def dot(u: Vector, v: Vector, semiring: Semiring = plus_times):
    """``u' (+.x) v`` — returns a scalar; identity when no intersection."""
    _check_vector_sizes((v.size, u.size, "dot input"))
    if semiring.is_plus_times and u.is_dense() and v.is_dense():
        if backend.active():
            backend.record("dot", 1, 0, 2 * u.size, u.size * 16)
        return float(np.dot(u._values, v._values))
    both = u._present & v._present
    products = semiring.mul.vectorized(u._values[both], v._values[both])
    if backend.active():
        backend.record("dot", 1, 0, 2 * int(both.sum()), int(both.sum()) * 16)
    return semiring.add.reduce(products)


def norm2(u: Vector) -> float:
    """Euclidean norm of the stored entries (HPCG's residual metric)."""
    return float(np.sqrt(dot(u, u)))


def waxpby(
    w: Vector,
    alpha: float,
    x: Vector,
    beta: float,
    y: Vector,
) -> Vector:
    """``w = alpha*x + beta*y`` over the union pattern.

    One of HPCG's three CG kernels (Section II-C).  Expressible as two
    ``apply`` + one ``ewise_add``; provided fused because ALP programs
    use a single eWiseApply for it and it is hot in CG.  Aliasing with
    ``x`` or ``y`` is explicitly supported (CG updates in place).
    """
    _check_vector_sizes((x.size, w.size, "waxpby x"), (y.size, w.size, "waxpby y"))
    if x.is_dense() and y.is_dense():
        # an exact 1.0 factor (every CG update's) is skipped: x * 1.0 is x
        if w is y and w is not x:   # w = beta*w + alpha*x: the same update
            alpha, x, beta, y = beta, y, alpha, x
        # formed before w is scaled: w may be x and y at once
        by = beta * y._values if beta != 1.0 or x is y else y._values
        if w is not x:
            np.multiply(x._values, alpha, out=w._values, casting="unsafe")
        elif alpha != 1.0:
            w._values *= alpha
        w._values += by
        if not w.is_dense():
            w._present.fill(True)
    else:
        both = x._present & y._present
        vals = np.zeros(w.size, dtype=np.result_type(x.dtype, y.dtype))
        vals[both] = alpha * x._values[both] + beta * y._values[both]
        only_x = x._present & ~y._present
        only_y = y._present & ~x._present
        vals[only_x] = alpha * x._values[only_x]
        vals[only_y] = beta * y._values[only_y]
        w._values[:] = vals
        w._present[:] = x._present | y._present
    if backend.active():
        backend.record("waxpby", w.size, 0, 3 * w.size, w.size * 24)
    w._bump()
    return w


def ewise_lambda(
    fn: Callable[..., None],
    mask: Optional[Vector],
    *vectors: Vector,
    desc: Descriptor = desc_mod.structural,
) -> None:
    """ALP/GraphBLAS ``eWiseLambda``: run ``fn`` elementwise over a mask.

    ``fn(idx, *arrays)`` receives the selected index array and the dense
    value storage of each vector; it must only read/write positions
    ``idx`` (this is the documented contract of ALP's eWiseLambda, which
    likewise exposes element references).  The structure of the vectors
    is not changed.  All vectors must contain every masked index.

    This is the primitive Listing 3 of the paper uses for the RBGS
    pointwise update; the lambda runs vectorised over the whole colour.
    """
    if not vectors:
        raise InvalidValue("ewise_lambda needs at least one vector")
    size = vectors[0].size
    for v in vectors[1:]:
        _check_vector_sizes((v.size, size, "ewise_lambda vector"))
    sel = _mask_bool(mask, size, desc)
    idx = np.arange(size, dtype=np.int64) if sel is None else np.flatnonzero(sel)
    for v in vectors:
        if not v._present[idx].all():
            raise InvalidValue(
                "ewise_lambda requires all vectors present at masked indices"
            )
    fn(idx, *(v._values for v in vectors))
    for v in vectors:
        v._bump()
    if backend.active():
        backend.record(
            "ewise_lambda", idx.size, 0, 4 * idx.size, idx.size * 8 * (len(vectors) + 1)
        )


def diag(A: Matrix) -> Vector:
    """Extract the main diagonal of ``A`` as a vector.

    HPCG-on-GraphBLAS stores this once at generation time because
    GraphBLAS gives no constant-time element access (paper §III-A).
    """
    return A.diag()
