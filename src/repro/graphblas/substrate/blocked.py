"""Dense-blocked rows: the stencil-shaped BCSR-style provider.

HPCG's 27-point operator has near-constant row lengths whose column
patterns overlap heavily between neighbouring rows (nine contiguous
runs that shift by one per row along the x line).  Blocking ``R``
consecutive rows and storing them *dense* over the union of their
column windows turns the product into per-block dense mini-GEMVs: the
``x`` gather happens once per block column and is reused by all ``R``
rows — the reuse hand-tuned stencil kernels exploit, and the
"dense-blocked CSR" substrate the paper's Section III-B contrasts with
plain CSR.

Layout: block ``b`` owns rows ``[b*R, (b+1)*R)``; ``colmap[b]`` holds
the sorted union of their columns (padded to the widest block for
vectorisation); ``data[b]`` is the dense ``R × width`` value block and
``present[b]`` marks which cells are stored entries.  ``mxv`` walks the
column lanes in ascending order and accumulates with a masked add, so
each row sums its entries in CSR order starting from ``+0.0`` —
bit-identical to the reference (a plain dense dot over the block would
add explicit zeros and flip signed zeros).

Traffic prices the physical dense blocks: every cell of every block
streams its 8-byte value, stored zeros included — the format's padding
cost — while column indices and ``x`` gathers are paid once per block
column instead of once per entry — the format's payoff.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphblas.substrate.base import KernelProvider


class BlockedDenseProvider(KernelProvider):
    """Dense row-blocks over compressed column windows (default R=4)."""

    name = "blocked"

    def __init__(self, csr: sp.csr_matrix, block_rows: int = 4):
        if block_rows < 1:
            raise ValueError("block height must be >= 1")
        self.block_rows = block_rows
        super().__init__(csr)

    def _build(self) -> None:
        n, R = self.nrows, self.block_rows
        csr = self._csr
        nblocks = -(-n // R) if n else 0
        self._nblocks = nblocks
        widths = np.zeros(nblocks, dtype=np.int64)
        block_cols = []
        for b in range(nblocks):
            lo, hi = csr.indptr[b * R], csr.indptr[min((b + 1) * R, n)]
            cols = np.unique(csr.indices[lo:hi])
            block_cols.append(cols)
            widths[b] = cols.size
        W = int(widths.max()) if nblocks else 0
        self._widths = widths
        self._colmap = np.zeros((nblocks, W), dtype=np.int64)
        self._data = np.zeros((nblocks, R, W), dtype=csr.dtype)
        self._present = np.zeros((nblocks, R, W), dtype=bool)
        for b in range(nblocks):
            cols = block_cols[b]
            self._colmap[b, : cols.size] = cols
            r0, r1 = b * R, min((b + 1) * R, n)
            lo, hi = csr.indptr[r0], csr.indptr[r1]
            local_row = np.repeat(
                np.arange(r1 - r0), np.diff(csr.indptr[r0 : r1 + 1])
            )
            lane = np.searchsorted(cols, csr.indices[lo:hi])
            self._data[b, local_row, lane] = csr.data[lo:hi]
            self._present[b, local_row, lane] = True

    def mxv(self, x: np.ndarray) -> np.ndarray:
        csr = self._csr
        if csr.dtype == bool or x.dtype == bool:
            return csr @ x
        out_dtype = np.result_type(csr.dtype, x.dtype)
        if self._nblocks == 0:
            return np.zeros(self.nrows, dtype=out_dtype)
        xs = x[self._colmap]                      # (nblocks, W): one gather
        acc = np.zeros((self._nblocks, self.block_rows), dtype=out_dtype)
        for lane in range(self._colmap.shape[1]):
            prod = self._data[:, :, lane] * xs[:, lane, None]
            np.add(acc, prod, out=acc, where=self._present[:, :, lane])
        return acc.reshape(-1)[: self.nrows].astype(out_dtype, copy=False)

    def extract_rows(self, rows: np.ndarray) -> "BlockedDenseProvider":
        # keep the parent's block height so the substructure's traffic
        # pricing describes the same format variant
        return type(self)(self._csr[rows, :], block_rows=self.block_rows)

    def stored_entries(self) -> int:
        # dense cells of every block, stored zeros included
        return int((self._widths * self.block_rows).sum())

    # gs_color_sweep: the inherited ColorSweep already serves this
    # format — each colour's substructure re-blocks that colour's rows
    # via extract_rows (same block height), so the per-colour dense
    # mini-GEMVs and their padding pricing describe what the sweep
    # actually streams.

    def mxv_traffic(self) -> Tuple[int, int]:
        cells = self.stored_entries()
        ncols_total = int(self._widths.sum())
        # 8B per dense cell; 4B column index + 8B x gather once per
        # block column (shared by the R rows); output read + write
        return (
            2 * self.nnz,
            cells * 8 + ncols_total * 12 + self.nrows * 16,
        )
