"""Byte-cost coefficients and per-node work accounting for the
simulated distributed backends.

The coefficients match the accounting of
:func:`repro.graphblas.backend.record` and
:func:`repro.perf.model.ref_stream_from_alp`; HPCG kernels are
bandwidth-bound, so all work is measured in bytes.

The *interior/boundary* helpers support the split-phase communication
engine: a row is **interior** to its node when every column it
references is owned by that node — it can be updated while a halo
exchange is still in flight — and **boundary** otherwise (it must wait
for remote values).  The split is what the overlapped executors pipeline
and what the BSP overlap pricing hides communication behind.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

# bytes-per-element cost coefficients
_MXV_NNZ_BYTES = 16.0
_MXV_ROW_BYTES = 16.0
_DOT_BYTES = 16.0
_WAXPBY_BYTES = 24.0
_RESTRICT_MXV_BYTES = 28.0    # ALP: materialised injection matrix mxv
_RESTRICT_COPY_BYTES = 16.0   # Ref: raw index copy


def mxv_bytes(nnz, rows):
    """Bytes one CSR mxv streams for ``nnz`` entries over ``rows`` rows."""
    return nnz * _MXV_NNZ_BYTES + rows * _MXV_ROW_BYTES


def per_node_rows_and_nnz(A: sp.csr_matrix, owners: np.ndarray, p: int):
    """Per-node owned-row counts and stored-entry counts."""
    row_nnz = np.diff(A.indptr).astype(np.int64)
    rows = np.bincount(owners, minlength=p).astype(np.int64)
    nnz = np.bincount(owners, weights=row_nnz, minlength=p).astype(np.int64)
    return rows, nnz


def per_node_color_work(A: sp.csr_matrix, owners: np.ndarray,
                        colors: np.ndarray, p: int, ncolors: int):
    """Per-colour worst-node mxv work in bytes."""
    row_nnz = np.diff(A.indptr).astype(np.int64)
    key = owners * ncolors + colors
    nnz = np.bincount(key, weights=row_nnz,
                      minlength=p * ncolors).reshape(p, ncolors)
    rows = np.bincount(key, minlength=p * ncolors).reshape(p, ncolors)
    return mxv_bytes(nnz, rows).max(axis=0)


def rows_touching_remote(A: sp.csr_matrix,
                         entry_remote: np.ndarray) -> np.ndarray:
    """Per-row boolean: does the row have any entry flagged remote?

    ``entry_remote`` is a boolean over ``A``'s stored entries (aligned
    with ``A.indices``); the caller decides what "remote" means — a
    global owner mismatch, a local halo column, ...
    """
    # OR each non-empty row's run of flags (a row with no entry has none)
    rows = np.flatnonzero(np.diff(A.indptr))
    touching = np.zeros(A.shape[0], dtype=bool)
    touching[rows] = np.logical_or.reduceat(entry_remote, A.indptr[rows])
    return touching


def interior_row_mask(A: sp.csr_matrix, owners: np.ndarray) -> np.ndarray:
    """True for rows whose every referenced column is locally owned.

    Interior rows never read halo values: a node can update them while
    an exchange for its boundary rows is still on the wire.
    """
    owners = np.asarray(owners, dtype=np.int64)
    row_nnz = np.diff(A.indptr).astype(np.int64)
    row_owner = np.repeat(owners, row_nnz)
    return ~rows_touching_remote(A, owners[A.indices] != row_owner)


def per_node_interior_work(
        A: sp.csr_matrix, owners: np.ndarray, p: int,
        interior: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """Worst-node and per-node interior mxv work in bytes.

    The interior share of a full SpMV — what a node can compute while
    its posted halo exchange is in flight.  Pass a precomputed
    ``interior_row_mask`` to avoid rescanning the matrix.
    """
    if interior is None:
        interior = interior_row_mask(A, owners)
    row_nnz = np.diff(A.indptr).astype(np.int64)
    rows = np.bincount(owners[interior], minlength=p).astype(np.int64)
    nnz = np.bincount(owners[interior], weights=row_nnz[interior],
                      minlength=p).astype(np.int64)
    per_node = mxv_bytes(nnz, rows)
    return float(per_node.max()) if p else 0.0, per_node


def per_node_interior_color_work(
        A: sp.csr_matrix, owners: np.ndarray, colors: np.ndarray, p: int,
        ncolors: int, interior: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-colour worst-node *interior* mxv work in bytes.

    The overlap candidate of the split-phase RBGS pipeline: while colour
    ``c``'s halo slice is in flight, the next colour's interior rows
    update — this is how much compute each colour step offers to hide
    the previous exchange behind.  Pass a precomputed
    ``interior_row_mask`` to avoid rescanning the matrix.
    """
    if interior is None:
        interior = interior_row_mask(A, owners)
    row_nnz = np.diff(A.indptr).astype(np.int64)
    key = (owners * ncolors + colors)[interior]
    nnz = np.bincount(key, weights=row_nnz[interior],
                      minlength=p * ncolors).reshape(p, ncolors)
    rows = np.bincount(key, minlength=p * ncolors).reshape(p, ncolors)
    return mxv_bytes(nnz, rows).max(axis=0)
