"""Reference smoothers: exact sequential SYMGS and direct-access RBGS.

:class:`RefSymGS` is the official HPCG smoother — the *inherently
sequential* symmetric Gauss-Seidel of paper Section II-E.  The forward
sweep solves ``(D + L) z_new = r - U z_old`` exactly (each ``z_i``
update sees all already-updated ``z_j``, j < i); the backward sweep is
the mirror image.  We realise the sweeps as sparse triangular solves on
precomputed matrix splits, which gives bit-exact sequential semantics
without a Python-level loop over rows.

:class:`RefRBGS` is the smoother the paper adds to the reference code
base (Section IV): the same multi-colour relaxation as the GraphBLAS
version, but implemented through direct CSR slicing — per-colour row
submatrices and fancy indexing, the kind of storage access GraphBLAS
forbids.  Ref and ALP RBGS must produce identical iterates; tests
assert this to machine precision.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.util.errors import DimensionMismatch, InvalidValue


class RefSymGS:
    """Exact sequential symmetric Gauss-Seidel via triangular solves."""

    def __init__(self, A: sp.csr_matrix):
        # scipy.sparse.linalg brings scipy.linalg and LAPACK (~10 MB
        # RSS): loaded by the first SYMGS, not by every ``repro.ref`` user
        from scipy.sparse.linalg import spsolve_triangular
        self._solve = spsolve_triangular
        if A.shape[0] != A.shape[1]:
            raise InvalidValue("SYMGS requires a square operator")
        A = A.tocsr()
        self.A = A
        self.n = A.shape[0]
        diag = A.diagonal()
        if (diag == 0).any():
            raise InvalidValue("SYMGS requires a nonzero diagonal")
        # (D + L) and (D + U) splits, kept in CSR for the solver.
        self._lower = sp.tril(A, k=0, format="csr")     # D + L
        self._upper = sp.triu(A, k=0, format="csr")     # D + U
        self._strict_lower = sp.tril(A, k=-1, format="csr")
        self._strict_upper = sp.triu(A, k=1, format="csr")

    def forward(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """One forward sweep: ``z <- (D+L)^-1 (r - U z)``."""
        self._check(z, r)
        rhs = r - self._strict_upper.dot(z)
        z[:] = self._solve(self._lower, rhs, lower=True)
        return z

    def backward(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """One backward sweep: ``z <- (D+U)^-1 (r - L z)``."""
        self._check(z, r)
        rhs = r - self._strict_lower.dot(z)
        z[:] = self._solve(self._upper, rhs, lower=False)
        return z

    def smooth(self, z: np.ndarray, r: np.ndarray, sweeps: int = 1) -> np.ndarray:
        """``sweeps`` symmetric passes (forward then backward)."""
        for _ in range(sweeps):
            self.forward(z, r)
            self.backward(z, r)
        return z

    def _check(self, z: np.ndarray, r: np.ndarray) -> None:
        if z.shape[0] != self.n or r.shape[0] != self.n:
            raise DimensionMismatch(
                f"vector sizes ({z.shape[0]}, {r.shape[0]}) != {self.n}"
            )


class RefRBGS:
    """Multi-colour Gauss-Seidel with direct CSR storage access.

    ``colors`` is an int array of colour ids (as produced by
    :mod:`repro.hpcg.coloring`); per-colour row submatrices are sliced
    once at construction — the data-structure manipulation that opaque
    containers disallow and that the paper replaces with masked mxv.
    """

    def __init__(self, A: sp.csr_matrix, colors: np.ndarray,
                 diag: Optional[np.ndarray] = None):
        if A.shape[0] != A.shape[1]:
            raise InvalidValue("RBGS requires a square operator")
        if colors.shape[0] != A.shape[0]:
            raise DimensionMismatch("colour array size mismatch")
        A = A.tocsr()
        self.A = A
        self.n = A.shape[0]
        self.diag = A.diagonal() if diag is None else np.asarray(diag, dtype=A.dtype)
        if (self.diag == 0).any():
            raise InvalidValue("RBGS requires a nonzero diagonal")
        ncolors = int(colors.max()) + 1
        # a class may be empty (thin coarse grids such as 1x1x2 leave
        # lattice colours unused): its step is a no-op, exactly like the
        # GraphBLAS smoother's empty mask
        self.color_rows: List[np.ndarray] = [
            np.flatnonzero(colors == c) for c in range(ncolors)
        ]
        # Direct storage manipulation: one row-submatrix per colour.
        self.color_blocks: List[sp.csr_matrix] = [
            A[rows, :] for rows in self.color_rows
        ]
        self.color_diag: List[np.ndarray] = [
            self.diag[rows] for rows in self.color_rows
        ]

    def update_color(self, k: int, z: np.ndarray, r: np.ndarray) -> None:
        """Relax colour ``k``'s rows in place: one step of
        :meth:`forward` / :meth:`backward`."""
        rows = self.color_rows[k]
        d = self.color_diag[k]
        s = self.color_blocks[k].dot(z)          # full row product incl. diagonal
        z[rows] = (r[rows] - s + z[rows] * d) / d

    def forward(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        self._check(z, r)
        for k in range(len(self.color_rows)):
            self.update_color(k, z, r)
        return z

    def backward(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        self._check(z, r)
        for k in range(len(self.color_rows) - 1, -1, -1):
            self.update_color(k, z, r)
        return z

    def smooth(self, z: np.ndarray, r: np.ndarray, sweeps: int = 1) -> np.ndarray:
        for _ in range(sweeps):
            self.forward(z, r)
            self.backward(z, r)
        return z

    def _check(self, z: np.ndarray, r: np.ndarray) -> None:
        if z.shape[0] != self.n or r.shape[0] != self.n:
            raise DimensionMismatch(
                f"vector sizes ({z.shape[0]}, {r.shape[0]}) != {self.n}"
            )
