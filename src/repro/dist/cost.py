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

from typing import Tuple

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


def per_node_rows_and_nnz(A: sp.csr_matrix, owners: np.ndarray, p: int,
                          rows=slice(None)):
    """Per-node counts of the owned ``rows`` (default all) and of their
    stored entries."""
    row_nnz = np.diff(A.indptr).astype(np.int64)[rows]
    owners = owners[rows]
    return (np.bincount(owners, minlength=p).astype(np.int64),
            np.bincount(owners, weights=row_nnz, minlength=p).astype(np.int64))


def per_node_color_work(A: sp.csr_matrix, owners: np.ndarray,
                        colors: np.ndarray, p: int, ncolors: int,
                        rows=slice(None)):
    """Per-colour worst-node mxv work in bytes over ``rows`` (default
    all).  Over the interior rows it is the overlap candidate of the
    split-phase RBGS pipeline: while colour ``c``'s halo slice is in
    flight, the next colour's interior rows update."""
    row_nnz = np.diff(A.indptr).astype(np.int64)[rows]
    key = (owners * ncolors + colors)[rows]
    nnz = np.bincount(key, weights=row_nnz,
                      minlength=p * ncolors).reshape(p, ncolors)
    counts = np.bincount(key, minlength=p * ncolors).reshape(p, ncolors)
    return mxv_bytes(nnz, counts).max(axis=0)


def per_entry_owners(indptr: np.ndarray, indices: np.ndarray,
                     owners: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per stored entry: ``(owner of its row, column owned elsewhere?)``.

    The owners are expanded in the narrowest unsigned dtype holding every
    node id (one byte up to 256 nodes), not at int64, and the column
    owners a cache-sized chunk at a time: each array is a copy per stored
    entry, the largest a partition derives.
    """
    owners = np.asarray(owners)
    narrow = owners.astype(np.min_scalar_type(int(owners.max(initial=0))))
    row_owner = np.repeat(narrow, np.diff(indptr))
    remote = np.empty(row_owner.size, dtype=bool)
    for lo in range(0, remote.size, 1 << 16):
        hi = lo + (1 << 16)
        np.not_equal(narrow[indices[lo:hi]], row_owner[lo:hi],
                     out=remote[lo:hi])
    return row_owner, remote


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
    return ~rows_touching_remote(
        A, per_entry_owners(A.indptr, A.indices, owners)[1])


def per_node_interior_work(A: sp.csr_matrix, owners: np.ndarray, p: int,
                           interior: np.ndarray) -> float:
    """Worst-node interior mxv work in bytes: the share of a full SpMV a
    node computes while its posted halo exchange is in flight."""
    rows, nnz = per_node_rows_and_nnz(A, owners, p, interior)
    return float(mxv_bytes(nnz, rows).max())
