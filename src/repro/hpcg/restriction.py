"""Restriction and refinement as GraphBLAS linear operators.

Reference HPCG implements straight injection by index-copying between
raw arrays — impossible against opaque containers.  The paper's design
(Section III-B) materialises the injection as a rectangular
``n_c x n_f`` matrix ``R`` with exactly one unit entry per row:

* restriction:  ``r_c = R r_f``            (an ``mxv``)
* refinement:   ``z_f += R' z_c``          (``mxv`` with the
  ``transpose_matrix`` descriptor and a ``plus`` accumulator, so the
  restriction matrix is reused untransposed — Section IV).

The refinement accumulates only at injection points; all other fine
entries are untouched, which matches "populate with the corresponding
values of the coarse vector and zeroes elsewhere" composed with the
``z <- z + refine(zc)`` update of Listing 1 line 9.

These products are what ``mg_vcycle`` executes and what the perf model
prices.  The default preconditioner application reads the injection off
``R``'s stored pattern instead and moves the ``n_c`` values by index
(:class:`repro.graphblas.fused.VCyclePlan`), falling back to the
products whenever ``R`` is not one stored ``1.0`` per row or the plan
declines for any other reason.
"""

from __future__ import annotations

import numpy as np

from repro import graphblas as grb
from repro.grid import Grid3D
from repro.util.errors import DimensionMismatch


def build_restriction(fine_grid: Grid3D) -> grb.Matrix:
    """The straight-injection restriction matrix for one coarsening step."""
    injection = fine_grid.injection_indices()
    nc = injection.shape[0]
    nf = fine_grid.npoints
    rows = np.arange(nc, dtype=np.int64)
    vals = np.ones(nc, dtype=np.float64)
    return grb.Matrix.from_coo(rows, injection, vals, nc, nf)


def restrict(rc: grb.Vector, R: grb.Matrix, rf: grb.Vector) -> grb.Vector:
    """``rc = R rf`` — project a fine-grid vector onto the coarse grid."""
    if rc.size != R.nrows or rf.size != R.ncols:
        raise DimensionMismatch(
            f"restrict: rc {rc.size}, rf {rf.size} vs R {R.shape}"
        )
    return grb.mxv(rc, None, R, rf)


def prolong_add(zf: grb.Vector, R: grb.Matrix, zc: grb.Vector) -> grb.Vector:
    """``zf += R' zc`` — refine a coarse correction into the fine grid.

    Uses the transpose descriptor so ``R`` itself is never transposed in
    storage (the optimisation the paper highlights in Section IV).
    """
    if zf.size != R.ncols or zc.size != R.nrows:
        raise DimensionMismatch(
            f"prolong: zf {zf.size}, zc {zc.size} vs R {R.shape}"
        )
    return grb.mxv(
        zf, None, R, zc,
        desc=grb.descriptors.transpose_matrix,
        accum=grb.ops.plus,
    )
