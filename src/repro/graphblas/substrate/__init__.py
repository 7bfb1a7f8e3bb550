"""``repro.graphblas.substrate`` — pluggable storage formats & kernels.

The substrate layer is the reproduction of the paper's key freedom: the
algorithm (``repro.hpcg``) names GraphBLAS operations; *this* package
decides how each matrix stores its entries and which kernel executes
them, with an explicit per-matrix pin and a CI-enforced bit-exactness
contract across formats.

Public surface:

* :class:`KernelProvider` — the format contract;
* :class:`CsrProvider`, :class:`SellCSigmaProvider`,
  :class:`BlockedDenseProvider` — the three built-in formats;
* :func:`register` / :func:`available` / :func:`get` — the registry;
* :func:`resolve` / :func:`make` / :func:`forced` — the selection rule:
  an explicit pin, else the ``REPRO_SUBSTRATE`` force, else CSR;
* :class:`ColorSweep` — the fused multi-colour Gauss-Seidel sweep
  capability every provider serves (the smoother fast path).
"""

from repro.graphblas.substrate.base import ColorSweep, KernelProvider
from repro.graphblas.substrate.blocked import BlockedDenseProvider
from repro.graphblas.substrate.csr import CsrProvider
from repro.graphblas.substrate.registry import (
    ENV_VAR,
    available,
    forced,
    get,
    make,
    register,
    resolve,
)
from repro.graphblas.substrate.sellcs import SellCSigmaProvider

__all__ = [
    "KernelProvider",
    "ColorSweep",
    "CsrProvider",
    "SellCSigmaProvider",
    "BlockedDenseProvider",
    "register",
    "available",
    "get",
    "resolve",
    "make",
    "forced",
    "ENV_VAR",
]
