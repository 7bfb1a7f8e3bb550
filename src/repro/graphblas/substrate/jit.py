"""The optional numba-compiled kernel lane — serial and parallel.

The ROADMAP's substrate headroom — *"a numba/cython compiled lane
kernel for SELL-C-σ"* — realised as a soft dependency: when numba is
importable (and not disabled via ``REPRO_JIT=0``) the providers route
their hottest loops through ``@njit``-compiled kernels; otherwise every
call falls back to the pure-numpy implementations, bit for bit.  Numba
is never required — this module imports cleanly without it, and
:func:`available` is the single gate every caller checks.

The serial kernels match the fast paths the fused smoother sweep needs:

* :func:`csr_mxv` — the CSR product, accumulating each row's partial
  products left-to-right in ascending column order from ``+0.0`` —
  the exact loop of scipy's compiled ``csr_matvec``, so results are
  bit-identical to the reference;
* :func:`csr_gs_step` — one fused multi-colour Gauss-Seidel colour
  step (product + pointwise update) over a row range of the CSR
  sweep's colour-major arrays, in two phases (all products from the
  pre-update ``z``, then all updates) so
  it is bit-identical to the masked-mxv + eWiseLambda transcription
  for *arbitrary* colour masks, proper colourings or not;
* :func:`sell_mxv` — the SELL-C-σ lane product over the provider's
  packed lane-major gather lists, one compiled pass instead of one
  vectorised numpy pass per lane;
* :func:`blocked_mxv` — the blocked-dense provider's mini-GEMVs,
  walking each block's column lanes in ascending order with the
  presence mask (the numpy masked-add, compiled);
* :func:`csr_mxv_waxpby` — CG's hot pair ``w = alpha*v + beta*(A z)``
  in one pass, eliding the intermediate vector's round trip.

Every kernel also has a ``numba.prange`` **parallel** variant, entered
by passing ``nthreads > 1`` to the wrapper.  Parallelism is always
over *rows* (for SELL, over permuted rows walking the row's CSR
entries; for blocked, over row blocks): each output element is written
by exactly one thread and each row's left-to-right accumulation is
unchanged, so the parallel lane is bit-identical to the serial lane at
any thread count.  The fused GS step parallelises each of its two
phases independently — the phase barrier preserves the
pre-update-``z`` semantics.  Thread counts come from
:mod:`repro.graphblas.substrate.threads` (the ``REPRO_THREADS``
resolution policy); this module only executes what it is told.

Compilation is lazy (first call; the parallel family compiles
separately so serial-only runs never pay for it) and per-dtype via
numba's dispatcher; callers gate on float64 data before entering.
``REPRO_JIT`` is read per call so tests can flip the lane on and off
without reimporting.
"""

from __future__ import annotations

import os

import numpy as np

#: Environment kill switch: ``0``/``off``/``no``/``false`` disables the
#: compiled lane even when numba is importable.
ENV_VAR = "REPRO_JIT"

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # the supported, tested-everywhere configuration
    _numba = None

_kernels = None
_kernels_par = None


def enabled() -> bool:
    """The ``REPRO_JIT`` switch (default on; numba presence is separate)."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in (
        "0", "off", "no", "false"
    )


def available() -> bool:
    """True when the compiled lane can actually run: numba importable
    and ``REPRO_JIT`` not switched off."""
    return _numba is not None and enabled()


def parallel_available() -> bool:
    """True when the ``prange`` variants can run.  The same gate as
    :func:`available` — the ``REPRO_THREADS`` policy decides *whether*
    to use them (wrappers with ``nthreads <= 1`` stay serial)."""
    return available()


def _load():
    """Compile (once) and return the serial kernel namespace."""
    global _kernels
    if _kernels is None:  # pragma: no cover - requires numba
        njit = _numba.njit

        @njit(fastmath=False)
        def _csr_mxv(indptr, indices, data, x, out):
            for i in range(out.shape[0]):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += data[jj] * x[indices[jj]]
                out[i] = acc

        @njit(fastmath=False)
        def _csr_gs_step(indptr, indices, data, rows, diag, z, r, work):
            nloc = rows.shape[0]
            # phase 1: every product reads the pre-update z (the masked
            # mxv semantics — mandatory for bit-exactness under masks
            # that are not independent sets)
            for i in range(nloc):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += data[jj] * z[indices[jj]]
                work[i] = acc
            # phase 2: the Listing-3 pointwise update, same expression
            # shape as the vectorised lambda
            for i in range(nloc):
                row = rows[i]
                d = diag[i]
                z[row] = (r[row] - work[i] + z[row] * d) / d

        @njit(fastmath=False)
        def _sell_mxv(lane_rows, lane_entries, data, indices, x, acc):
            # lane-major order: per permuted row, partial products
            # accumulate in CSR entry order starting from +0.0
            for k in range(lane_rows.shape[0]):
                e = lane_entries[k]
                acc[lane_rows[k]] += data[e] * x[indices[e]]

        @njit(fastmath=False)
        def _blocked_mxv(colmap, data, present, widths, x, out):
            # ascending column lanes with the presence mask — the numpy
            # masked-add order, so padding cells never touch the sum
            nblocks, R, _ = data.shape
            nrows = out.shape[0]
            for b in range(nblocks):
                w = widths[b]
                for rl in range(R):
                    row = b * R + rl
                    if row >= nrows:
                        continue
                    acc = 0.0
                    for lane in range(w):
                        if present[b, rl, lane]:
                            acc += data[b, rl, lane] * x[colmap[b, lane]]
                    out[row] = acc

        @njit(fastmath=False)
        def _csr_mxv_waxpby(indptr, indices, data, z, alpha, v, beta, out):
            # w = alpha*v + beta*(A z): the row product accumulates
            # exactly as _csr_mxv, then the axpby lands in one store
            for i in range(out.shape[0]):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += data[jj] * z[indices[jj]]
                out[i] = alpha * v[i] + beta * acc

        class _Kernels:
            csr_mxv = staticmethod(_csr_mxv)
            csr_gs_step = staticmethod(_csr_gs_step)
            sell_mxv = staticmethod(_sell_mxv)
            blocked_mxv = staticmethod(_blocked_mxv)
            csr_mxv_waxpby = staticmethod(_csr_mxv_waxpby)

        _kernels = _Kernels
    return _kernels


def _load_parallel():
    """Compile (once) and return the prange kernel namespace."""
    global _kernels_par
    if _kernels_par is None:  # pragma: no cover - requires numba
        njit = _numba.njit
        prange = _numba.prange

        @njit(fastmath=False, parallel=True)
        def _csr_mxv_par(indptr, indices, data, x, out):
            # rows are independent: one thread per row range, identical
            # per-row accumulation
            for i in prange(out.shape[0]):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += data[jj] * x[indices[jj]]
                out[i] = acc

        @njit(fastmath=False, parallel=True)
        def _csr_gs_step_par(indptr, indices, data, rows, diag, z, r,
                             work):
            nloc = rows.shape[0]
            # each phase parallelises over its own disjoint writes; the
            # barrier between them preserves the pre-update-z reads
            for i in prange(nloc):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += data[jj] * z[indices[jj]]
                work[i] = acc
            for i in prange(nloc):
                row = rows[i]
                d = diag[i]
                z[row] = (r[row] - work[i] + z[row] * d) / d

        @njit(fastmath=False, parallel=True)
        def _sell_mxv_par(perm, indptr, indices, data, x, out):
            # parallel over permuted rows, each walking its CSR entries
            # in ascending order — the exact per-row arithmetic of the
            # serial lane-major pass, reassociated across rows only
            for k in prange(perm.shape[0]):
                row = perm[k]
                acc = 0.0
                for jj in range(indptr[row], indptr[row + 1]):
                    acc += data[jj] * x[indices[jj]]
                out[row] = acc

        @njit(fastmath=False, parallel=True)
        def _blocked_mxv_par(colmap, data, present, widths, x, out):
            # row blocks are disjoint: one thread per block range
            nblocks, R, _ = data.shape
            nrows = out.shape[0]
            for b in prange(nblocks):
                w = widths[b]
                for rl in range(R):
                    row = b * R + rl
                    if row >= nrows:
                        continue
                    acc = 0.0
                    for lane in range(w):
                        if present[b, rl, lane]:
                            acc += data[b, rl, lane] * x[colmap[b, lane]]
                    out[row] = acc

        @njit(fastmath=False, parallel=True)
        def _csr_mxv_waxpby_par(indptr, indices, data, z, alpha, v, beta,
                                out):
            for i in prange(out.shape[0]):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += data[jj] * z[indices[jj]]
                out[i] = alpha * v[i] + beta * acc

        class _ParKernels:
            csr_mxv = staticmethod(_csr_mxv_par)
            csr_gs_step = staticmethod(_csr_gs_step_par)
            sell_mxv = staticmethod(_sell_mxv_par)
            blocked_mxv = staticmethod(_blocked_mxv_par)
            csr_mxv_waxpby = staticmethod(_csr_mxv_waxpby_par)

        _kernels_par = _ParKernels
    return _kernels_par


def _set_threads(nthreads: int) -> None:  # pragma: no cover - numba
    """Pin numba's team size for the next parallel kernel call,
    clamped to the layer's launch-time maximum."""
    limit = getattr(_numba.config, "NUMBA_NUM_THREADS", nthreads)
    _numba.set_num_threads(max(1, min(nthreads, limit)))


def csr_mxv(csr, x: np.ndarray,
            nthreads: int = 1) -> np.ndarray:  # pragma: no cover - numba
    """``csr @ x`` through the compiled lane (caller gates dtypes)."""
    out = np.empty(csr.shape[0], dtype=np.float64)
    if nthreads > 1:
        _set_threads(nthreads)
        _load_parallel().csr_mxv(csr.indptr, csr.indices, csr.data, x, out)
    else:
        _load().csr_mxv(csr.indptr, csr.indices, csr.data, x, out)
    return out


def csr_gs_step(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                rows: np.ndarray, diag: np.ndarray, z: np.ndarray,
                r: np.ndarray, work: np.ndarray,
                nthreads: int = 1) -> None:  # pragma: no cover
    """One fused colour step over a CSR row block as raw arrays: block
    row ``i`` spans ``indptr[i]:indptr[i+1]`` and updates ``z[rows[i]]``."""
    if nthreads > 1:
        _set_threads(nthreads)
    kernels = _load_parallel() if nthreads > 1 else _load()
    kernels.csr_gs_step(indptr, indices, data, rows, diag, z, r, work)


def sell_mxv(lane_rows: np.ndarray, lane_entries: np.ndarray,
             data: np.ndarray, indices: np.ndarray, x: np.ndarray,
             perm: np.ndarray, nrows: int) -> np.ndarray:  # pragma: no cover
    """The SELL-C-σ lane product over packed lane-major gather lists."""
    acc = np.zeros(nrows, dtype=np.float64)
    _load().sell_mxv(lane_rows, lane_entries, data, indices, x, acc)
    y = np.empty(nrows, dtype=np.float64)
    y[perm] = acc
    return y


def sell_mxv_par(csr, perm: np.ndarray, x: np.ndarray,
                 nthreads: int) -> np.ndarray:  # pragma: no cover - numba
    """The SELL-C-σ product, parallel over permuted rows.

    Each permuted row accumulates its CSR entries in ascending column
    order — the identical per-row arithmetic of the lane-major pass —
    and writes its own output element, so any thread count matches the
    serial lane bit for bit.
    """
    out = np.empty(csr.shape[0], dtype=np.float64)
    _set_threads(nthreads)
    _load_parallel().sell_mxv(perm, csr.indptr, csr.indices, csr.data,
                              x, out)
    return out


def blocked_mxv(colmap: np.ndarray, data: np.ndarray, present: np.ndarray,
                widths: np.ndarray, x: np.ndarray, nrows: int,
                nthreads: int = 1) -> np.ndarray:  # pragma: no cover
    """The blocked-dense mini-GEMVs through the compiled lane."""
    out = np.empty(nrows, dtype=np.float64)
    if nthreads > 1:
        _set_threads(nthreads)
        _load_parallel().blocked_mxv(colmap, data, present, widths, x, out)
    else:
        _load().blocked_mxv(colmap, data, present, widths, x, out)
    return out


def csr_mxv_waxpby(csr, z: np.ndarray, alpha: float, v: np.ndarray,
                   beta: float, out: np.ndarray,
                   nthreads: int = 1) -> None:  # pragma: no cover - numba
    """``out = alpha*v + beta*(csr @ z)`` in one compiled pass."""
    if nthreads > 1:
        _set_threads(nthreads)
        _load_parallel().csr_mxv_waxpby(csr.indptr, csr.indices, csr.data,
                                        z, alpha, v, beta, out)
    else:
        _load().csr_mxv_waxpby(csr.indptr, csr.indices, csr.data,
                               z, alpha, v, beta, out)
