"""The kernel-provider interface.

The paper's central architectural claim (Section III) is that an
ALP/GraphBLAS program names *what* to compute while the library is free
to choose *how*: the storage format and the kernel implementation — the
"substrate" — are selected per container without the algorithm
changing.  This package realises that split for the
reproduction: :class:`KernelProvider` is the contract a storage format
implements, and :class:`~repro.graphblas.matrix.Matrix` delegates its
hot paths (mxv, masked mxv, the transpose descriptor, the fused RBGS
product) to whichever provider is active.

Contract — **bit-exactness**.  Every provider must produce results
bit-identical to the scipy CSR reference (:class:`CsrProvider`): per
output row, partial products are accumulated left-to-right in ascending
column order starting from ``+0.0``, exactly as scipy's compiled
``csr_matvec`` does.  Formats that pad (SELL-C-σ slices, dense row
blocks) therefore *mask* their padding out of the accumulation instead
of adding ``0.0`` terms, which would flip signed zeros.  The property
suite in ``tests/test_substrate.py`` enforces this on random and
stencil matrices, and the tier-1 CI runs the whole suite with each
provider forced.

Cold paths (element access, ewise matrix algebra, select, mxm, I/O)
run on the canonical CSR every provider wraps — the format choice is an
acceleration decision for the bandwidth-bound kernels, not a second
source of truth.
"""

from __future__ import annotations

import abc
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp


class KernelProvider(abc.ABC):
    """One storage format + kernel implementation behind a ``Matrix``.

    A provider is built from (and keeps) a canonical sorted-index CSR;
    subclasses add their own acceleration structure in :meth:`_build`.
    The hot-path surface a provider serves:

    * :meth:`mxv` — the full dense-input plus-times product;
    * :meth:`extract_rows` — a same-format provider over a row subset,
      which is how masked mxv, the transpose-mxv descriptor (a provider
      over the transposed CSR) and the fused RBGS colour step execute;
    * :meth:`mxv_traffic` — the (flops, bytes) price of one product *in
      this format*, fed to :class:`repro.graphblas.backend.PerfEvent`
      so the performance model charges each substrate its own traffic
      (padding included).

    Reductions and elementwise matrix algebra read the canonical
    storage via :meth:`reduce_values` / :attr:`csr`.
    """

    #: registry key and the ``PerfEvent.fmt`` tag
    name: ClassVar[str] = "abstract"

    def __init__(self, csr: sp.csr_matrix):
        csr = csr.tocsr()
        if not csr.has_canonical_format:
            # one value per coordinate: duplicate column entries would be
            # summed by csr_matvec but last-write-win in a dense block
            csr = csr.copy()
            csr.sum_duplicates()
        self._csr = csr
        self._row_nnz = np.diff(csr.indptr)
        #: output presence of a full product, shared read-only, and
        #: whether no row is empty
        self.row_present = self._row_nnz > 0
        self.row_present.flags.writeable = False
        self.rows_all_present = bool(self.row_present.all())
        self._build()

    # --- structure ---------------------------------------------------------
    @abc.abstractmethod
    def _build(self) -> None:
        """Construct the format's acceleration structure from ``self._csr``."""

    @property
    def csr(self) -> sp.csr_matrix:
        """The canonical CSR this provider wraps (cold-path source of truth)."""
        return self._csr

    @property
    def shape(self) -> Tuple[int, int]:
        return self._csr.shape

    @property
    def nrows(self) -> int:
        return self._csr.shape[0]

    @property
    def ncols(self) -> int:
        return self._csr.shape[1]

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    @property
    def dtype(self) -> np.dtype:
        return self._csr.dtype

    @property
    def row_nnz(self) -> np.ndarray:
        """Stored entries per row (drives output-presence semantics)."""
        return self._row_nnz

    # --- hot paths ---------------------------------------------------------
    @abc.abstractmethod
    def mxv(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for dense ``x``, bit-identical to the CSR reference."""

    def mxv_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`mxv` landing in ``out`` (which must not alias ``x``)."""
        out[:] = self.mxv(x)
        return out

    def extract_rows(self, rows: np.ndarray) -> "KernelProvider":
        """A same-format provider over ``A[rows, :]`` (masked-mxv path)."""
        return type(self)(self._csr[rows, :])

    # --- cold paths --------------------------------------------------------
    def reduce_values(self) -> np.ndarray:
        """All stored values, for monoid reductions over the matrix."""
        return self._csr.data

    # --- perf pricing ------------------------------------------------------
    @abc.abstractmethod
    def stored_entries(self) -> int:
        """Entries the format physically stores, padding included."""

    @abc.abstractmethod
    def mxv_traffic(self) -> Tuple[int, int]:
        """(flops, bytes) for one full :meth:`mxv` in this format.

        Flops count real multiply-adds only (padding is masked, never
        computed); bytes count the format's actual stored stream plus
        the gather/output vector traffic, so a padded format is priced
        for the padding it streams.
        """

    # --- fused smoother sweeps ---------------------------------------------
    def gs_color_sweep(self, color_rows: Sequence[np.ndarray],
                       diag: np.ndarray) -> Optional["ColorSweep"]:
        """An optional capability: a prebuilt fused multi-colour
        Gauss-Seidel sweep over this operator (see :class:`ColorSweep`).

        The base implementation serves every format through its own
        :meth:`extract_rows` substructures and :meth:`mxv` kernel, so a
        provider gets the fast path for free; formats with a sharper
        one (CSR's colour-major sweep) override.  Return
        ``None`` to opt out — callers fall back to the reference
        masked-mxv + eWiseLambda transcription.
        """
        return ColorSweep(self, color_rows, diag)

    def fused_mxv_traffic(self, nvec: int) -> Tuple[int, int]:
        """(flops, bytes) for the fused product+lambda step over ``nvec``
        consumer vectors (:func:`repro.graphblas.fused`).

        Relative to :meth:`mxv_traffic`, fusion elides the tmp vector's
        round trip (16 B/row) and streams the input gather register-
        resident (4 B/entry — the seed model's CSR numbers, applied
        uniformly), then adds the lambda's own vector traffic.
        """
        return fused_traffic(self.mxv_traffic(), self.nrows, self.nnz, nvec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"stored={self.stored_entries()})"
        )


def fused_traffic(mxv_traffic: Tuple[int, int], rows: int, nnz: int,
                  nvec: int) -> Tuple[int, int]:
    """``fused_mxv_traffic`` from a structure's size and product price."""
    flops, nbytes = mxv_traffic
    return (
        flops + 4 * rows,
        nbytes - rows * 16 - nnz * 4 + rows * 8 * (nvec + 1),
    )


class ColorSweep:
    """A fused multi-colour Gauss-Seidel sweep, prebuilt for one provider.

    The natural-order sweep — for the padded formats, and for what CSR's
    colour-major one declines — with every per-call cost hoisted to
    construction: the per-colour row partitions and diagonals, one
    same-format substructure per colour (the provider's own
    :meth:`~KernelProvider.extract_rows`) and the per-colour ``(flops,
    bytes)`` price from the provider's fused-traffic hook.  One
    :meth:`step` is then a direct gather/scatter:

    1. ``s = (A z)[rows_k]`` — the colour block's product, through the
       provider's kernel;
    2. ``z[rows_k] = (r[rows_k] - s + z[rows_k] * d) / d`` — the
       Listing-3 pointwise update, vectorised over the colour.

    **Bit-exactness**: both phases are exactly what the reference
    masked-mxv + eWiseLambda transcription executes — same substructure
    kernel, same per-row accumulation order from ``+0.0``, same update
    expression, all products read the pre-update ``z`` — so iterates
    are bit-identical (signed zeros included) for any provider, any
    colour masks, forward or backward order.
    """

    def __init__(self, provider: KernelProvider,
                 color_rows: Sequence[np.ndarray], diag: np.ndarray):
        self.fmt = provider.name
        self.rows: List[np.ndarray] = [
            np.ascontiguousarray(r, dtype=np.int64) for r in color_rows
        ]
        self.diags: List[np.ndarray] = [
            np.ascontiguousarray(diag[r]) for r in self.rows
        ]
        self.subs: List[KernelProvider] = [
            provider.extract_rows(r) for r in self.rows
        ]
        #: per-colour rows and stored entries, as the perf events report
        self.sizes: List[int] = [r.size for r in self.rows]
        self.nnzs: List[int] = [s.nnz for s in self.subs]
        #: per-colour (flops, bytes) — what the perf layer records per step
        self.traffic: List[Tuple[int, int]] = [
            s.fused_mxv_traffic(3) for s in self.subs
        ]

    @property
    def ncolors(self) -> int:
        return len(self.sizes)

    def step(self, k: int, z: np.ndarray, r: np.ndarray) -> None:
        """One colour's fused product + pointwise update, in place."""
        rows = self.rows[k]
        d = self.diags[k]
        s = self.subs[k].mxv(z)
        z[rows] = (r[rows] - s + z[rows] * d) / d

    def run(self, z: np.ndarray, r: np.ndarray, order) -> bool:
        """Relax the colours listed in ``order`` (one direction, a
        symmetric pass, any subset) in sequence, in place on ``z``;
        False, touching nothing, declines the call (CSR's colour-major
        sweep does for an ``r`` holding ``-0.0``)."""
        for k in order:
            self.step(k, z, r)
        return True
