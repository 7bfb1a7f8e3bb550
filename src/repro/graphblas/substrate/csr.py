"""The CSR reference provider — the seed implementation, plus fast lanes.

Compressed Sparse Row via scipy is the format the paper names for
reference HPCG (Section III-B) and the bit-exactness yardstick every
other provider is measured against: ``csr_matvec`` accumulates each
row's partial products left-to-right in ascending column order from
``+0.0``.

Two accelerations ride on top without changing a single bit of output:

* with numba importable, ``mxv`` runs the compiled lane's CSR kernel
  (:mod:`repro.graphblas.substrate.jit`) — the identical sequential
  accumulation loop, minus scipy's per-call dispatch;
* :meth:`gs_color_sweep` returns :class:`CsrColorSweep`, whose colour
  step calls scipy's ``csr_matvec`` C kernel directly into a
  preallocated workspace (or, jitted, fuses product and pointwise
  update into one compiled pass).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graphblas.substrate import jit, threads
from repro.graphblas.substrate.base import ColorSweep, KernelProvider

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
        csr = self._csr
        if (jit.available() and csr.dtype == np.float64
                and x.dtype == np.float64):
            return jit.csr_mxv(csr, x, nthreads=threads.resolve())
        return csr @ x

    def gs_color_sweep(self, color_rows: Sequence[np.ndarray],
                       diag: np.ndarray) -> Optional[ColorSweep]:
        return CsrColorSweep(self, color_rows, diag)

    def stored_entries(self) -> int:
        return self.nnz

    def mxv_traffic(self) -> Tuple[int, int]:
        # 8B value + 4B column index + ~4B amortised indptr/gather per
        # entry, plus read+write of the output row (the seed formula,
        # kept verbatim so CSR-run byte streams match the original
        # perf-model calibration).
        nnz, rows = self.nnz, self.nrows
        return 2 * nnz, nnz * 16 + rows * 16


class CsrColorSweep(ColorSweep):
    """The CSR fused sweep: raw C kernels over per-colour row blocks.

    The generic sweep's substructure ``mxv`` would pay scipy's
    ``__matmul__`` dispatch per colour step; this one holds the blocks'
    raw CSR arrays and a per-colour product workspace, and calls the
    ``csr_matvec`` C routine (or the jit lane's fully fused colour
    step) directly — the same accumulation loop either way.
    """

    def __init__(self, provider: CsrProvider,
                 color_rows: Sequence[np.ndarray], diag: np.ndarray):
        super().__init__(provider, color_rows, diag)
        self._blocks = [sub.csr for sub in self.subs]
        self._work = [np.empty(r.size, dtype=np.float64) for r in self.rows]

    def step(self, k: int, z: np.ndarray, r: np.ndarray) -> None:
        block = self._blocks[k]
        rows = self.rows[k]
        d = self.diags[k]
        work = self._work[k]
        if jit.available():
            jit.csr_gs_step(block, rows, d, z, r, work,
                            nthreads=threads.resolve())
            return
        if _csr_matvec is not None:
            work.fill(0.0)  # csr_matvec accumulates onto its output
            _csr_matvec(block.shape[0], block.shape[1], block.indptr,
                        block.indices, block.data, z, work)
            s = work
        else:  # pragma: no cover - scipy without the private entry point
            s = block @ z
        z[rows] = (r[rows] - s + z[rows] * d) / d
