"""HPCG input generation (the benchmark's first kernel).

Builds the system matrix ``A`` (27-point stencil), the right-hand side
``b``, the initial guess ``x0 = 0``, and the known exact solution, as
GraphBLAS containers.  Also extracts the diagonal into a dedicated
vector at generation time — GraphBLAS provides no constant-time element
access, so the RBGS smoother cannot read ``A[i][i]`` on the fly (paper
Section III-A).

Two right-hand-side conventions exist:

* ``"reference"`` (default): ``b = A @ 1`` (equivalently ``27 - nnz_row``),
  which is what the official HPCG code generates and makes ``x = 1`` the
  exact solution — used by the convergence validation;
* ``"ones"``: ``b = 1``, the phrasing used in the paper's Section II-B.

Both exercise identical code paths; the driver records which one ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np
import scipy.sparse as sp

from repro import graphblas as grb
from repro.grid import Grid3D
from repro.grid.stencil import stencil_csr, stencil_spec
from repro.util.errors import InvalidValue

BStyle = Literal["reference", "ones"]
Stencil = Literal["27pt", "7pt"]


@dataclass
class Problem:
    """One generated HPCG system ``A x = b`` with metadata."""

    grid: Grid3D
    A: grb.Matrix
    A_diag: grb.Vector
    b: grb.Vector
    x0: grb.Vector
    exact: grb.Vector
    b_style: BStyle = "reference"
    stencil: Stencil = "27pt"
    # requested storage substrate (None = unpinned: REPRO_SUBSTRATE or CSR);
    # recorded so the MG hierarchy can honour the same pin per level
    substrate: Optional[str] = None

    @property
    def n(self) -> int:
        return self.grid.npoints

    def residual_norm(self, x: grb.Vector) -> float:
        """``||b - A x||_2`` computed with GraphBLAS operations."""
        r = grb.Vector.dense(self.n)
        grb.mxv(r, None, self.A, x)
        grb.waxpby(r, 1.0, self.b, -1.0, r)
        return grb.norm2(r)


def build_operator(grid: Grid3D, stencil: Stencil = "27pt",
                   substrate: Optional[str] = None) -> grb.Matrix:
    """The stencil operator as a GraphBLAS matrix (27-point = HPCG).

    ``substrate`` pins the storage format/kernel provider; the default
    leaves the matrix unpinned (``REPRO_SUBSTRATE`` force, else CSR).
    """
    indptr, indices, data = stencil_csr(grid, stencil)
    return grb.Matrix(sp.csr_matrix((data, indices, indptr),
                                    shape=(grid.npoints,) * 2),
                      substrate=substrate)


def generate_problem(
    nx: int,
    ny: int = 0,
    nz: int = 0,
    b_style: BStyle = "reference",
    stencil: Stencil = "27pt",
    substrate: Optional[str] = None,
) -> Problem:
    """Generate the HPCG system on an ``nx x ny x nz`` grid.

    ``ny``/``nz`` default to ``nx`` (cubical domain, the benchmark's
    usual configuration).  ``stencil="7pt"`` swaps in the face-neighbour
    Laplacian — not HPCG, but useful for studies (its dependency graph
    is 2-colourable, the original red-black setting).  ``substrate``
    pins every operator (fine and, via :func:`build_hierarchy`, coarse)
    to one storage format; ``None`` leaves them unpinned.  Every
    argument is checked before anything is assembled.
    """
    grid = Grid3D(nx, ny or nx, nz or nx)
    stencil_spec(stencil)
    if b_style not in ("reference", "ones"):
        raise InvalidValue(f"unknown b_style {b_style!r}; "
                           f"expected 'reference' or 'ones'")
    A = build_operator(grid, stencil, substrate)
    n = grid.npoints

    A_diag = grb.diag(A)
    if A_diag.nvals != n:
        raise InvalidValue("stencil operator is missing diagonal entries")

    exact = grb.Vector.dense(n, 1.0)
    if b_style == "reference":
        b = grb.Vector.dense(n)
        grb.mxv(b, None, A, exact)
    else:
        b = grb.Vector.dense(n, 1.0)
    x0 = grb.Vector.dense(n, 0.0)
    return Problem(grid=grid, A=A, A_diag=A_diag, b=b, x0=x0, exact=exact,
                   b_style=b_style, stencil=stencil, substrate=substrate)
