"""SELL-C-σ: sliced ELLPACK with row sorting, the vector-friendly format.

SELL-C-σ (Kreutzer et al.) groups rows into slices of ``C``; within a
sorting window of ``σ`` rows, rows are ordered by descending length so
each slice packs similar-length rows and pads only to its own widest
row.  A vector unit then processes one slice lane-by-lane with unit
stride — the row-balanced layout the paper's ALP backends select for
matrices whose row lengths vary moderately.

This simulation keeps the structure as *lane gather lists*: for lane
``l``, the permuted rows still live at entry offset ``l`` of their CSR
row, so one ``mxv`` is ``max_row_nnz`` vectorised gather-multiply-add
passes.  Accumulation per row runs lane 0, 1, 2, … — the CSR entry
order — starting from ``+0.0``, and padding lanes are simply absent
from the lane lists, so results are bit-identical to
:class:`~repro.graphblas.substrate.csr.CsrProvider` (adding a padded
``0.0`` instead could turn a ``-0.0`` partial sum into ``+0.0``).

Traffic is priced from the *physical* SELL layout: every padded slice
entry streams a value and a column index even though it is masked out
of the arithmetic.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphblas.substrate.base import KernelProvider


class SellCSigmaProvider(KernelProvider):
    """SELL-C-σ slices (default C=32, σ=128)."""

    name = "sellcs"

    def __init__(self, csr: sp.csr_matrix, chunk: int = 32, sigma: int = 128):
        if chunk < 1 or sigma < 1:
            raise ValueError("SELL-C-σ needs chunk >= 1 and sigma >= 1")
        self.chunk = chunk
        self.sigma = max(sigma, chunk)
        super().__init__(csr)

    def _build(self) -> None:
        n = self.nrows
        row_nnz = self._row_nnz.astype(np.int64)
        # σ-window descending-length sort (stable: equal-length rows keep
        # their natural order, matching the published format).
        perm = np.arange(n, dtype=np.int64)
        for lo in range(0, n, self.sigma):
            hi = min(lo + self.sigma, n)
            order = np.argsort(-row_nnz[lo:hi], kind="stable")
            perm[lo:hi] = lo + order
        self._perm = perm
        permuted_nnz = row_nnz[perm]
        # physical slice widths -> padded storage volume
        padded = 0
        for lo in range(0, n, self.chunk):
            hi = min(lo + self.chunk, n)
            width = int(permuted_nnz[lo:hi].max()) if hi > lo else 0
            padded += (hi - lo) * width
        self._padded_entries = padded
        # lane gather lists: positions (in permuted order) and CSR entry
        # offsets of every row long enough to reach lane l.  Built in one
        # O(nnz log nnz) pass (stable sort of each entry by its lane)
        # instead of one full row scan per lane, which degenerates when a
        # single row is very wide.
        maxw = int(row_nnz.max()) if n else 0
        self._lane_rows: List[np.ndarray] = []
        self._lane_entries: List[np.ndarray] = []
        if maxw:
            indptr = self._csr.indptr.astype(np.int64)
            starts = indptr[perm]
            total = int(permuted_nnz.sum())
            rows_rep = np.repeat(np.arange(n, dtype=np.int64), permuted_nnz)
            row_start = np.repeat(
                np.cumsum(permuted_nnz) - permuted_nnz, permuted_nnz)
            lane = np.arange(total, dtype=np.int64) - row_start
            entry = np.repeat(starts, permuted_nnz) + lane
            order = np.argsort(lane, kind="stable")
            bounds = np.searchsorted(lane[order], np.arange(maxw + 1))
            rows_flat, entries_flat = rows_rep[order], entry[order]
            for l in range(maxw):
                lo, hi = bounds[l], bounds[l + 1]
                self._lane_rows.append(rows_flat[lo:hi])
                self._lane_entries.append(entries_flat[lo:hi])

    def mxv(self, x: np.ndarray) -> np.ndarray:
        csr = self._csr
        if csr.dtype == bool or x.dtype == bool:
            # scipy's boolean upcast rules are the reference; lane
            # accumulation over np.bool_ would OR instead
            return csr @ x
        out_dtype = np.result_type(csr.dtype, x.dtype)
        acc = np.zeros(self.nrows, dtype=out_dtype)
        data, indices = csr.data, csr.indices
        for rows_l, entries_l in zip(self._lane_rows, self._lane_entries):
            acc[rows_l] += data[entries_l] * x[indices[entries_l]]
        y = np.empty(self.nrows, dtype=out_dtype)
        y[self._perm] = acc
        return y

    def extract_rows(self, rows: np.ndarray) -> "SellCSigmaProvider":
        # keep the parent's slice parameters so the substructure's
        # padding/traffic pricing describes the same format variant
        return type(self)(self._csr[rows, :], chunk=self.chunk,
                          sigma=self.sigma)

    # gs_color_sweep: the inherited ColorSweep already serves this
    # format — each colour's substructure keeps the parent's (C, σ)
    # via extract_rows, and its products run the lane kernel above.

    def stored_entries(self) -> int:
        return self._padded_entries

    def mxv_traffic(self) -> Tuple[int, int]:
        # per padded entry: 8B value + 4B column (no indptr stream);
        # per real entry: 8B x gather; per row: output read + write
        return (
            2 * self.nnz,
            self._padded_entries * 12 + self.nnz * 8 + self.nrows * 16,
        )
