"""Vectorised stencil assembly, straight into canonical CSR.

The HPCG operator couples each grid point with all in-bounds points of
its 3x3x3 neighbourhood: the diagonal entry is ``+26`` and every
off-diagonal entry is ``-1`` (a discrete Laplacian scaled so interior
rows sum to zero, the discretisation of the heat-diffusion problem).

Every row has the same offset pattern and a boundary row is a mask over
it, so assembly is pure numpy: an ``(n, k)`` block of "neighbour in
bounds" masks, another of columns (row plus a constant shift).  Offsets
are listed in ``(dz, dy, dx)`` order, the order of their columns in any
row, so one boolean selection of the column block is CSR's ``indices``,
each row ascending, with no sort and no conversion.  Indices are int32
while ``max(n, nnz) < 2**31`` (scipy's rule), so the arrays equal a
COO→CSR conversion's byte for byte.  COO triplets derive from the CSR.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.grid.geometry import Grid3D
from repro.util.errors import InvalidValue

DIAG_VALUE = 26.0
OFFDIAG_VALUE = -1.0


def stencil_offsets() -> List[Tuple[int, int, int]]:
    """The 27 (dx, dy, dz) offsets, diagonal (0,0,0) included."""
    return [
        (dx, dy, dz)
        for dz in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
    ]


def stencil_offsets_7pt() -> List[Tuple[int, int, int]]:
    """The 7 face-neighbour offsets (the classic 3D Laplacian), in the
    27-point list's order."""
    return [d for d in stencil_offsets() if sum(map(abs, d)) <= 1]


def stencil_spec(stencil: str) -> Tuple[List[Tuple[int, int, int]], float]:
    """``(offsets, diagonal value)`` of ``"27pt"`` (HPCG) or ``"7pt"``."""
    if stencil == "27pt":
        return stencil_offsets(), DIAG_VALUE
    if stencil == "7pt":
        return stencil_offsets_7pt(), 6.0
    raise InvalidValue(f"unknown stencil {stencil!r}; expected '27pt' or '7pt'")


def stencil_csr(grid: Grid3D, stencil: str = "27pt",
                diag_value: Optional[float] = None,
                offdiag_value: float = OFFDIAG_VALUE) -> Tuple[np.ndarray, ...]:
    """Canonical CSR ``(indptr, indices, data)`` of the stencil operator.

    Row counts range from 8 (corners) to 27 (interior) for the 27-point
    stencil, matching the paper's "from 8 to 27 nonzeroes per row".
    """
    offsets, default_diag = stencil_spec(stencil)
    n, k = grid.npoints, len(offsets)
    d = np.array(offsets)                                   # (k, 3)
    # per axis x, y, z: an (m, k) table, "the offset's neighbour is in bounds"
    at = [np.arange(m)[:, None] + d[:, a] for a, m in enumerate(grid.dims)]
    x, y, z = [(0 <= c) & (c < m) for c, m in zip(at, grid.dims)]
    valid = (z[:, None, None] & y[:, None] & x).reshape(n, k)
    counts = np.count_nonzero(valid, axis=1)
    index = np.int32 if max(n, counts.sum()) < 2 ** 31 else np.int64
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index)
    # out-of-bounds neighbours get a meaningless column: masked below
    shifts = (d @ (1, grid.nx, grid.nx * grid.ny)).astype(index)
    cols = np.arange(n, dtype=index)[:, None] + shifts
    values = np.full(k, offdiag_value, dtype=np.float64)
    values[offsets.index((0, 0, 0))] = (default_diag if diag_value is None
                                        else diag_value)
    return indptr, cols[valid], np.broadcast_to(values, (n, k))[valid]


def _coo(indptr, indices, data) -> Tuple[np.ndarray, ...]:
    """Row-major int64 COO triplets of CSR arrays."""
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64),
                     np.diff(indptr))
    return rows, indices.astype(np.int64), data


def stencil_27pt_coo(
    grid: Grid3D,
    diag_value: float = DIAG_VALUE,
    offdiag_value: float = OFFDIAG_VALUE,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets (rows, cols, values) of the 27-point operator, row by
    row with each row's columns ascending."""
    return _coo(*stencil_csr(grid, "27pt", diag_value, offdiag_value))


def stencil_7pt_coo(
    grid: Grid3D,
    diag_value: float = 6.0,
    offdiag_value: float = OFFDIAG_VALUE,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of the 7-point (face-neighbour) Laplacian.

    Not what HPCG benchmarks, but the canonical operator whose
    dependency graph is bipartite — greedy colouring finds exactly the
    two classes of the original *red-black* Gauss-Seidel.  Included to
    exercise the smoother/colouring machinery beyond the 27-point case.
    """
    return _coo(*stencil_csr(grid, "7pt", diag_value, offdiag_value))


def stencil_coo(grid: Grid3D, stencil: str = "27pt"
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets by stencil name: ``"27pt"`` (HPCG) or ``"7pt"``."""
    return _coo(*stencil_csr(grid, stencil))
