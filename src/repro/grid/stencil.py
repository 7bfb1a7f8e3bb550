"""Vectorised 27-point stencil assembly.

The HPCG operator couples each grid point with all in-bounds points of
its 3x3x3 neighbourhood: the diagonal entry is ``+26`` and every
off-diagonal entry is ``-1`` (a discrete Laplacian scaled so interior
rows sum to zero, the discretisation of the heat-diffusion problem).

Assembly iterates over the 27 offsets, not over the ``n`` points, so it
is pure numpy: per offset, AND the per-axis "has a neighbour" masks and
gather the valid rows once; columns are rows plus a constant shift.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.grid.geometry import Grid3D

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
    """The 7 face-neighbour offsets (the classic 3D Laplacian)."""
    return [
        (0, 0, 0),
        (-1, 0, 0), (1, 0, 0),
        (0, -1, 0), (0, 1, 0),
        (0, 0, -1), (0, 0, 1),
    ]


def stencil_27pt_coo(
    grid: Grid3D,
    diag_value: float = DIAG_VALUE,
    offdiag_value: float = OFFDIAG_VALUE,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets (rows, cols, values) of the 27-point operator.

    Entries arrive grouped by offset; builders that need CSR sort them.
    Row counts range from 8 (corners) to 27 (interior), matching the
    paper's "from 8 to 27 nonzeroes per row".
    """
    return _stencil_coo(grid, stencil_offsets(), diag_value, offdiag_value)


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
    return _stencil_coo(grid, stencil_offsets_7pt(), diag_value, offdiag_value)


def stencil_coo(grid: Grid3D, stencil: str = "27pt"
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch by stencil name: ``"27pt"`` (HPCG) or ``"7pt"``."""
    if stencil == "27pt":
        return stencil_27pt_coo(grid)
    if stencil == "7pt":
        return stencil_7pt_coo(grid)
    raise ValueError(f"unknown stencil {stencil!r}; expected '27pt' or '7pt'")


def _stencil_coo(
    grid: Grid3D,
    offsets: List[Tuple[int, int, int]],
    diag_value: float,
    offdiag_value: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    all_idx = np.arange(grid.npoints, dtype=np.int64)
    everywhere = np.ones(grid.npoints, dtype=bool)
    # per axis: which points have a lower (-1) / upper (+1) neighbour
    has = [
        {-1: i > 0, 0: everywhere, 1: i < n - 1}
        for i, n in zip(grid.coords(all_idx), grid.dims)
    ]
    valid = [has[0][dx] & has[1][dy] & has[2][dz] for dx, dy, dz in offsets]
    counts = [np.count_nonzero(ok) for ok in valid]
    ends = np.cumsum(counts)
    # sizes are known before anything is gathered, so each triplet array is
    # allocated once and filled one offset's segment at a time
    rows = np.empty(ends[-1], dtype=np.int64)
    cols = np.empty(ends[-1], dtype=np.int64)
    vals = np.empty(ends[-1], dtype=np.float64)
    for (dx, dy, dz), ok, count, end in zip(offsets, valid, counts, ends):
        seg = slice(end - count, end)
        # the one gather: rows whose neighbour at this offset is in bounds ...
        rows[seg] = all_idx[ok]
        # ... and that neighbour's linear index is the row's plus a constant
        np.add(rows[seg], (dz * grid.ny + dy) * grid.nx + dx, out=cols[seg])
        vals[seg] = diag_value if dx == dy == dz == 0 else offdiag_value
    return rows, cols, vals
