"""The opaque GraphBLAS matrix container.

A ``Matrix`` holds a canonical Compressed Sparse Row copy of its
entries (the source of truth for element access, I/O and the cold-path
operations) and delegates its *hot* paths — ``mxv``, masked ``mxv``,
the ``transpose_matrix`` descriptor, the fused RBGS product — to a
:mod:`repro.graphblas.substrate` kernel provider selected per matrix:

* the substrate is pinned explicitly (``Matrix(csr, substrate="sellcs")``
  / :meth:`set_substrate`), else forced globally via
  ``REPRO_SUBSTRATE``, else CSR — the paper's per-container format
  freedom;
* every provider is bit-identical to the CSR reference, so the choice
  is invisible to algorithm code (Section III-B's claim, enforced by
  the substrate equivalence suite).

Construction costs one COO→CSR conversion and nothing per row: duplicate
coordinates are detected from that conversion's entry count
(:meth:`Matrix.from_coo`), diagonal presence from one comparison of the
pattern's column indices with their row numbers (:meth:`Matrix.diag`).

Two backend caches matter for performance and are part of the
reproduction's story:

* a lazily-built provider over the transposed CSR, so the
  ``transpose_matrix`` descriptor (used by refinement to reuse the
  restriction matrix) costs one conversion, not one per call; and
* per-mask row substructures keyed by ``(id(mask), mask.version)``,
  kept in a bounded LRU.  The RBGS smoother issues a masked ``mxv`` per
  colour per sweep with the *same* eight colour masks every time;
  caching the extracted row structure turns the steady-state masked
  mxv into a plain product on an eighth of the rows — exactly the work
  the paper's complexity analysis assigns to it (Section III-A) — while
  the LRU bound keeps long many-mask runs (deep MG hierarchies,
  parameter sweeps) from growing memory without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphblas import types as gbtypes
from repro.graphblas import substrate as substrate_mod
from repro.graphblas.ops import BinaryOp
from repro.graphblas.substrate.base import KernelProvider
from repro.graphblas.vector import Vector
from repro.util.errors import DimensionMismatch, InvalidValue

_MASK_CACHE_LIMIT = 32


class Matrix:
    """An ``nrows x ncols`` sparse matrix over a predefined domain."""

    __slots__ = (
        "_csr", "_csr_t", "_mask_cache", "_version",
        "_substrate_request", "_substrate", "_provider", "_provider_t",
    )

    def __init__(self, csr: sp.csr_matrix, substrate: Optional[str] = None):
        if not sp.issparse(csr):
            raise InvalidValue("Matrix wraps a scipy sparse matrix; use from_* constructors")
        csr = csr.tocsr()
        # canonicalise: sorted indices AND one value per coordinate
        # (GraphBLAS semantics; also what every substrate provider
        # assumes — a dense block cannot represent duplicates).  Copy
        # first: sum_duplicates would change the caller's nnz in place.
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        csr.sort_indices()
        gbtypes.as_dtype(csr.dtype)
        if substrate is not None:
            substrate_mod.get(substrate)  # eager typo check
        self._csr = csr
        self._csr_t: Optional[sp.csr_matrix] = None
        # LRU of (id(mask), version, transpose) -> (rows, substructure)
        self._mask_cache: "OrderedDict[Tuple, Tuple[np.ndarray, KernelProvider]]" = OrderedDict()
        self._version = 0
        self._substrate_request = substrate
        self._substrate: Optional[str] = None       # resolved lazily
        self._provider: Optional[KernelProvider] = None
        self._provider_t: Optional[KernelProvider] = None

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable,
        nrows: int,
        ncols: int,
        dtype=None,
        dup_op: Optional[BinaryOp] = None,
        substrate: Optional[str] = None,
    ) -> "Matrix":
        """Build from coordinates; ``dup_op`` combines duplicates.

        One COO→CSR conversion builds the matrix and answers "are there
        duplicates?": scipy sums them while converting (the ``plus``
        dup_op), so a result with fewer entries than coordinates given
        had some.  Any other ``dup_op`` folds each coordinate's values in
        input order through one sorted ``reduceat`` pass.
        """
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        v = np.asarray(values)
        if dtype is not None:
            v = v.astype(gbtypes.as_dtype(dtype))
        if not (r.shape == c.shape == v.shape):
            raise DimensionMismatch("rows, cols, values must have equal length")
        if r.size:
            if r.min() < 0 or r.max() >= nrows or c.min() < 0 or c.max() >= ncols:
                raise InvalidValue("coordinate out of range")
        csr = sp.coo_matrix((v, (r, c)), shape=(nrows, ncols)).tocsr()
        if csr.nnz != r.size:
            if dup_op is None:
                raise InvalidValue("duplicate coordinates and no dup_op given")
            if dup_op.ufunc is not np.add:
                order = np.lexsort((c, r))  # stable: duplicates keep input order
                r, c, v = r[order], c[order], v[order]
                starts = np.flatnonzero(
                    np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
                fold = dup_op.ufunc or np.frompyfunc(dup_op.fn, 2, 1)
                v = fold.reduceat(v, starts).astype(v.dtype, copy=False)
                csr = sp.coo_matrix((v, (r[starts], c[starts])),
                                    shape=(nrows, ncols)).tocsr()
        return cls(csr, substrate=substrate)

    @classmethod
    def from_dense(cls, array, dtype=None, substrate: Optional[str] = None) -> "Matrix":
        """Build from a 2-D array; zeros become absent entries."""
        arr = np.asarray(array)
        if dtype is not None:
            arr = arr.astype(gbtypes.as_dtype(dtype))
        if arr.ndim != 2:
            raise InvalidValue(f"expected 2-D data, got shape {arr.shape}")
        return cls(sp.csr_matrix(arr), substrate=substrate)

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix, substrate: Optional[str] = None) -> "Matrix":
        """Wrap (a CSR copy of) an existing scipy sparse matrix."""
        return cls(sp.csr_matrix(matrix, copy=True), substrate=substrate)

    @classmethod
    def identity(cls, n: int, dtype=gbtypes.FP64, substrate: Optional[str] = None) -> "Matrix":
        return cls(sp.identity(n, dtype=gbtypes.as_dtype(dtype), format="csr"),
                   substrate=substrate)

    # --- properties ----------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self._csr.shape[0]

    @property
    def ncols(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self._csr.shape

    @property
    def nvals(self) -> int:
        return int(self._csr.nnz)

    @property
    def dtype(self) -> np.dtype:
        return self._csr.dtype

    @property
    def version(self) -> int:
        return self._version

    # --- substrate ---------------------------------------------------------
    @property
    def substrate(self) -> str:
        """The active provider name (explicit pin > env force > CSR)."""
        if self._substrate is None:
            self._substrate = substrate_mod.resolve(
                self._csr, self._substrate_request
            )
        return self._substrate

    def set_substrate(self, name: Optional[str]) -> "Matrix":
        """Pin this matrix to a provider (``None`` unpins it)."""
        if name is not None:
            substrate_mod.get(name)
        self._substrate_request = name
        self._substrate = None
        self._provider = None
        self._provider_t = None
        self._mask_cache.clear()
        return self

    def provider(self, transpose: bool = False) -> KernelProvider:
        """The active kernel provider (built lazily; transposed on demand)."""
        if transpose:
            if self._provider_t is None:
                self._provider_t = substrate_mod.get(self.substrate)(
                    self._transposed_csr()
                )
            return self._provider_t
        if self._provider is None:
            self._provider = substrate_mod.get(self.substrate)(self._csr)
        return self._provider

    # --- element access ---------------------------------------------------------
    def extract_element(self, i: int, j: int):
        """Value at ``(i, j)``; ``None`` when absent.

        Note: GraphBLAS does *not* promise constant time here — this is
        why HPCG-on-GraphBLAS keeps the diagonal of A in a separate
        vector (paper Section III-A).
        """
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InvalidValue(f"index ({i}, {j}) out of range for {self.shape}")
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        pos = np.searchsorted(self._csr.indices[lo:hi], j)
        if pos < hi - lo and self._csr.indices[lo + pos] == j:
            return self._csr.data[lo + pos].item()
        return None

    def set_element(self, i: int, j: int, value) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InvalidValue(f"index ({i}, {j}) out of range for {self.shape}")
        # lil-free update: rebuild the row only when the pattern changes.
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        pos = np.searchsorted(self._csr.indices[lo:hi], j)
        if pos < hi - lo and self._csr.indices[lo + pos] == j:
            self._csr.data[lo + pos] = value
        else:
            coo = self._csr.tocoo()
            rows = np.append(coo.row, i)
            cols = np.append(coo.col, j)
            vals = np.append(coo.data, value)
            self._csr = sp.csr_matrix(
                (vals, (rows, cols)), shape=self.shape
            )
            self._csr.sort_indices()
        self._invalidate()

    def _invalidate(self) -> None:
        self._csr_t = None
        self._mask_cache.clear()
        self._version += 1
        self._provider = None
        self._provider_t = None

    # --- whole-container helpers ---------------------------------------------
    def dup(self) -> "Matrix":
        return Matrix(self._csr.copy(), substrate=self._substrate_request)

    def resize(self, nrows: int, ncols: int) -> None:
        """Change the dimensions (GrB_Matrix_resize).

        Growing adds empty space; shrinking drops entries outside the
        new bounds.
        """
        if nrows < 0 or ncols < 0:
            raise InvalidValue(f"bad dimensions ({nrows}, {ncols})")
        if (nrows, ncols) == self.shape:
            return
        coo = self._csr.tocoo()
        keep = (coo.row < nrows) & (coo.col < ncols)
        self._csr = sp.csr_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])),
            shape=(nrows, ncols),
        )
        self._csr.sort_indices()
        self._invalidate()

    def transpose(self) -> "Matrix":
        """A materialised transpose (prefer the transpose descriptor)."""
        return Matrix(self._csr.T.tocsr(), substrate=self._substrate_request)

    def diag(self) -> Vector:
        """The main diagonal as a vector (absent where not stored).

        Presence is read off the pattern — entry ``k`` is on the diagonal
        when its column index equals its row — so a stored zero is
        present and a missing entry absent (``csr.diagonal()`` cannot
        tell them apart).
        """
        n = min(self.nrows, self.ncols)
        out = Vector.sparse(n, dtype=self.dtype)
        csr = self._csr
        row_of = np.repeat(np.arange(self.nrows), np.diff(csr.indptr))
        hit = np.flatnonzero(csr.indices == row_of)
        on_diag = row_of[hit]
        out._values[on_diag] = csr.data[hit]
        out._present[on_diag] = True
        out._bump()
        return out

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self._csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def to_scipy(self, copy: bool = True) -> sp.csr_matrix:
        """Export the CSR storage.  This is an I/O-level escape hatch.

        Application code built "on GraphBLAS" (the ``repro.hpcg`` layer)
        must not use it; the Ref implementation (``repro.ref``) does, on
        purpose — that contrast is the subject of the paper.
        """
        return self._csr.copy() if copy else self._csr

    # --- backend caches ----------------------------------------------------------
    def _transposed_csr(self) -> sp.csr_matrix:
        if self._csr_t is None:
            self._csr_t = self._csr.T.tocsr()
            self._csr_t.sort_indices()
        return self._csr_t

    def _rows_substructure(
        self, mask_key: Tuple, rows: np.ndarray, transpose: bool = False
    ) -> KernelProvider:
        """Active-provider structure over ``A[rows, :]``, LRU-cached per
        mask identity+version.

        With ``transpose=True`` the extraction applies to the transposed
        operand (the ``transpose_matrix`` descriptor path).
        """
        key = (*mask_key, transpose)
        hit = self._mask_cache.get(key)
        if hit is not None and np.array_equal(hit[0], rows):
            self._mask_cache.move_to_end(key)
            return hit[1]
        sub = self.provider(transpose).extract_rows(rows)
        while len(self._mask_cache) >= _MASK_CACHE_LIMIT:
            self._mask_cache.popitem(last=False)
        self._mask_cache[key] = (rows.copy(), sub)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Matrix(shape={self.shape}, nvals={self.nvals}, "
            f"dtype={self.dtype}, substrate={self.substrate!r})"
        )
