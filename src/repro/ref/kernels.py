"""Reference HPCG computational kernels on raw arrays.

These are the three CG kernels of paper Section II-C, written the way
the reference code writes them: direct operations on the CSR arrays and
dense vectors, no algebraic abstraction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.util.errors import DimensionMismatch


def compute_spmv(y: np.ndarray, A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``y = A x`` — the runtime-dominant kernel (Θ(nnz))."""
    if A.shape[1] != x.shape[0] or A.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"spmv sizes: A {A.shape}, x {x.shape[0]}, y {y.shape[0]}"
        )
    # scipy's csr_matvec with a preallocated output.
    y[:] = A.dot(x)
    return y


def compute_waxpby(
    w: np.ndarray, alpha: float, x: np.ndarray, beta: float, y: np.ndarray
) -> np.ndarray:
    """``w = alpha x + beta y``; ``w`` may alias ``x`` or ``y``."""
    if not (w.shape == x.shape == y.shape):
        raise DimensionMismatch(
            f"waxpby sizes: w {w.shape}, x {x.shape}, y {y.shape}"
        )
    if w is x:
        by = beta * y       # before w is scaled: y may be w as well
        w *= alpha
        w += by
    elif w is y:
        w *= beta
        w += alpha * x
    else:
        np.multiply(x, alpha, out=w)
        w += beta * y
    return w


def compute_dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x' y``."""
    if x.shape != y.shape:
        raise DimensionMismatch(f"dot sizes: {x.shape} vs {y.shape}")
    return float(np.dot(x, y))


def compute_residual_norm(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> float:
    """``||b - A x||_2``."""
    return float(np.linalg.norm(b - A.dot(x)))
