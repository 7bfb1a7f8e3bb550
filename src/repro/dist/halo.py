"""Locally-executed distributed kernels with explicit halo exchange.

These executors run the *honest* per-node computation: every node holds
only its own rows, column-compressed to the entries it can actually
reference (owned points plus halo), and remote values arrive through a
:class:`~repro.dist.comm.CommTracker` exchange.  The crucial design
property — asserted bit-for-bit by the tests — is losslessness: the
distributed SpMV equals the global ``A @ x`` and the distributed RBGS
sweep equals the shared-memory :class:`~repro.ref.sgs.RefRBGS`.

Bit-equality holds because each local matrix keeps its row entries in
ascending *global* column order (the local column renumbering is
monotone), so the local kernel accumulates partial products in exactly
the order the global kernel uses.  The local kernels themselves run on
:mod:`repro.graphblas.substrate` providers — the ``substrate=``
argument or a global ``REPRO_SUBSTRATE`` force applies to the
distributed executors exactly as it does to the serial ``Matrix``,
and every provider honours the same accumulation-order
contract, so the executors are substrate-agnostic by construction.

:class:`LocalRBGSExecutor` implements the paper's §IV per-colour
exchange protocol: after the rows of colour ``c`` update, only the halo
points *of colour c* are exchanged (one superstep per colour).  The
colour classes partition the halo, so a full sweep moves exactly one
full halo — in eight latency-separated slices.

Split-phase mode (``comm_mode="overlap"``, or the ``REPRO_OVERLAP``
force) runs the same exchanges asynchronously: each node's rows are
split into **interior** rows (referencing owned points only — safe to
update while remote values are still in flight) and **boundary** rows
(must wait).  The SpMV posts its halo, updates interior rows, waits,
then updates boundary rows; the RBGS sweep pipelines colour ``c``'s
exchange behind colour ``c+1``'s interior update.  Because rows are
updated disjointly with unchanged per-row accumulation order, both
schedules remain bit-identical to the eager mode and to shared memory —
the split changes *when* a row updates, never *what* it computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.dist.comm import CommTracker, InFlightExchange, resolve_comm_mode
from repro.dist.cost import mxv_bytes, rows_touching_remote
from repro.dist.partition import halo_for_owners
from repro.graphblas import substrate as substrate_mod
from repro.graphblas.substrate.base import KernelProvider
from repro.util.errors import DimensionMismatch, InvalidValue


@dataclass
class LocalNode:
    """One simulated node: its rows and column-compressed local matrix."""

    rank: int
    rows: np.ndarray            # global row indices owned by this node
    cols: np.ndarray            # global column indices visible locally
    local_matrix: sp.csr_matrix  # rows x cols, ascending global col order
    substrate: str               # resolved provider name for this node
    _provider: Optional[KernelProvider] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def provider(self) -> KernelProvider:
        """Substrate kernel over ``local_matrix``, built on first use
        (the RBGS executor computes with per-colour blocks only and
        never needs the whole-matrix structure)."""
        if self._provider is None:
            self._provider = substrate_mod.get(self.substrate)(
                self.local_matrix)
        return self._provider


@dataclass
class _SplitRows:
    """Interior/boundary split of a set of local rows (overlap mode)."""

    interior_sel: np.ndarray      # local row indices, no remote columns
    boundary_sel: np.ndarray      # local row indices touching the halo
    interior_rows: np.ndarray     # global row ids of interior_sel
    boundary_rows: np.ndarray     # global row ids of boundary_sel
    interior_block: KernelProvider
    boundary_block: KernelProvider
    interior_work: float          # bytes the interior update streams


def _canonical_csr(A: sp.spmatrix) -> sp.csr_matrix:
    """CSR with sorted row indices, never mutating the caller's matrix."""
    csr = A.tocsr()
    if not csr.has_sorted_indices:
        csr = csr.copy()
        csr.sort_indices()
    return csr


def _split_rows(local: sp.csr_matrix, rows: np.ndarray, sel: np.ndarray,
                touches_remote: np.ndarray,
                substrate: Optional[str]) -> _SplitRows:
    """Split ``sel`` (local row indices) by halo dependence and build
    substrate blocks for each half.  Row slicing preserves per-row
    column order, so each half accumulates exactly as the whole did."""
    boundary = touches_remote[sel]
    interior_sel = sel[~boundary]
    boundary_sel = sel[boundary]
    sub_int = local[interior_sel, :]
    return _SplitRows(
        interior_sel=interior_sel,
        boundary_sel=boundary_sel,
        interior_rows=rows[interior_sel],
        boundary_rows=rows[boundary_sel],
        interior_block=substrate_mod.make(sub_int, substrate),
        boundary_block=substrate_mod.make(local[boundary_sel, :], substrate),
        interior_work=mxv_bytes(sub_int.nnz, interior_sel.size),
    )


class LocalSpmvExecutor:
    """Distributed SpMV: per-node local matrices + one halo superstep.

    In overlap mode the halo is *posted*, interior rows compute while
    it is in flight, and boundary rows follow the wait — bit-identical
    output, split-phase superstep on the tracker.
    """

    def __init__(self, A: sp.spmatrix, owners: np.ndarray, nprocs: int,
                 tracker: Optional[CommTracker] = None,
                 substrate: Optional[str] = None,
                 comm_mode: Optional[str] = None):
        A = _canonical_csr(A)
        owners = np.asarray(owners, dtype=np.int64)
        if owners.shape[0] != A.shape[0]:
            raise DimensionMismatch(
                f"owners size {owners.shape[0]} != matrix rows {A.shape[0]}"
            )
        if owners.size and (owners.min() < 0 or owners.max() >= nprocs):
            raise InvalidValue(
                f"owner ranks must lie in [0, {nprocs})"
            )
        self.n = A.shape[0]
        self.nprocs = nprocs
        self.owners = owners
        self.tracker = tracker
        self.comm_mode = resolve_comm_mode(comm_mode)
        self.overlap = self.comm_mode == "overlap"
        self.halo: Dict[Tuple[int, int], np.ndarray] = halo_for_owners(
            A.indptr, A.indices, owners, nprocs
        )
        self.nodes: List[LocalNode] = []
        self._remote_rows: List[np.ndarray] = []   # per node: halo mask
        for k in range(nprocs):
            rows = np.flatnonzero(owners == k)
            block = A[rows, :]
            # columns this node can see: referenced ones, in ascending
            # global order so the compression map is monotone.
            cols = np.unique(block.indices)
            local = block[:, cols]
            local.sort_indices()
            # each node's substrate is resolved now (explicit >
            # REPRO_SUBSTRATE > CSR), built lazily on first use
            self.nodes.append(LocalNode(
                rank=k, rows=rows, cols=cols, local_matrix=local,
                substrate=substrate_mod.resolve(local, substrate),
            ))
            col_is_remote = owners[cols] != k
            self._remote_rows.append(
                rows_touching_remote(local, col_is_remote[local.indices]))
        self.substrate = substrate
        self._splits: Optional[List[_SplitRows]] = None

    def _node_splits(self) -> List[_SplitRows]:
        """Per-node interior/boundary structures, built on first use."""
        if self._splits is None:
            self._splits = [
                _split_rows(
                    node.local_matrix, node.rows,
                    np.arange(node.rows.size, dtype=np.int64),
                    self._remote_rows[k], self.substrate,
                )
                for k, node in enumerate(self.nodes)
            ]
        return self._splits

    def halo_bytes_per_exchange(self) -> int:
        """Bytes one full halo exchange moves (8 bytes per point)."""
        return sum(idxs.size * 8 for idxs in self.halo.values())

    def interior_work_bytes(self) -> float:
        """Worst-node interior work — what a posted halo hides behind."""
        return max((s.interior_work for s in self._node_splits()),
                   default=0.0)

    def _record_sends(self, label: str) -> None:
        for (src, dst), idxs in self.halo.items():
            self.tracker.send(src, dst, int(idxs.size) * 8, label=label)

    def _exchange(self, label: str = "halo") -> None:
        """Record one full halo exchange as a single eager superstep."""
        if self.tracker is None:
            return
        self._record_sends(label)
        self.tracker.sync(label=label)

    def _post_exchange(self, label: str = "halo") -> Optional[InFlightExchange]:
        if self.tracker is None:
            return None
        self._record_sends(label)
        return self.tracker.post(label=label)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` computed node-locally after one halo exchange."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatch(
                f"vector size {x.shape[0]} != matrix size {self.n}"
            )
        y = np.empty(self.n, dtype=np.result_type(x.dtype, np.float64))
        if not self.overlap:
            self._exchange()
            for node in self.nodes:
                y[node.rows] = node.provider.mxv(x[node.cols])
            return y
        # split-phase: post, update interior rows in flight, wait,
        # then update the boundary rows that needed the halo
        splits = self._node_splits()
        handle = self._post_exchange()
        for node, split in zip(self.nodes, splits):
            if split.interior_rows.size:
                y[split.interior_rows] = split.interior_block.mxv(
                    x[node.cols])
        if handle is not None:
            handle.overlap(self.interior_work_bytes())
            self.tracker.wait(handle)
        for node, split in zip(self.nodes, splits):
            if split.boundary_rows.size:
                y[split.boundary_rows] = split.boundary_block.mxv(
                    x[node.cols])
        return y


class LocalRBGSExecutor:
    """Distributed multi-colour Gauss-Seidel with per-colour halos.

    In overlap mode the sweep pipelines: colour ``c``'s halo slice is
    posted, colour ``c+1``'s interior rows update while it flies, the
    wait lands, and colour ``c+1``'s boundary rows follow — the async
    protocol of the ROADMAP's split-superstep item, still bit-identical
    to :class:`~repro.ref.sgs.RefRBGS`.

    Bit-identity of the pipelined schedule relies on the colouring
    contract RBGS itself needs: no edges *within* a colour, so the
    interior/boundary write order inside one colour step is
    unobservable.  (An invalid colouring makes eager RBGS
    order-dependent too.)
    """

    def __init__(self, A: sp.spmatrix, owners: np.ndarray, nprocs: int,
                 colors: np.ndarray,
                 tracker: Optional[CommTracker] = None,
                 substrate: Optional[str] = None,
                 comm_mode: Optional[str] = None):
        A = _canonical_csr(A)
        colors = np.asarray(colors, dtype=np.int64)
        if colors.shape[0] != A.shape[0]:
            raise DimensionMismatch(
                f"colour array size {colors.shape[0]} != rows {A.shape[0]}"
            )
        diag = A.diagonal()
        if (diag == 0).any():
            raise InvalidValue("RBGS requires a nonzero diagonal")
        self.base = LocalSpmvExecutor(A, owners, nprocs, tracker=tracker,
                                      substrate=substrate,
                                      comm_mode=comm_mode)
        self.n = A.shape[0]
        self.colors = colors
        self.ncolors = int(colors.max()) + 1 if colors.size else 0
        self.tracker = tracker
        self.diag = diag
        self.substrate = substrate
        self.comm_mode = self.base.comm_mode
        self.overlap = self.base.overlap
        # per-colour slice of each node's rows: colour-row indices into
        # the node's local row block (a row submatrix keeps column order,
        # so the provider's accumulation contract carries over).  Each
        # mode builds only the blocks its sweep actually runs: whole
        # colour blocks for eager, interior/boundary halves for overlap.
        self._color_rows: List[List[np.ndarray]] = []      # [node][color]
        self._color_blocks: List[List[KernelProvider]] = []
        self._color_splits: List[List[_SplitRows]] = []    # overlap mode
        for k, node in enumerate(self.base.nodes):
            row_colors = colors[node.rows]
            per_color_rows, per_color_blocks, per_color_splits = [], [], []
            for c in range(self.ncolors):
                sel = np.flatnonzero(row_colors == c)
                per_color_rows.append(node.rows[sel])
                if self.overlap:
                    per_color_splits.append(_split_rows(
                        node.local_matrix, node.rows, sel,
                        self.base._remote_rows[k], substrate,
                    ))
                else:
                    per_color_blocks.append(substrate_mod.make(
                        node.local_matrix[sel, :], substrate))
            self._color_rows.append(per_color_rows)
            self._color_blocks.append(per_color_blocks)
            self._color_splits.append(per_color_splits)
        # worst-node interior work per colour: what the in-flight
        # previous exchange hides behind
        self._interior_work = [
            max((self._color_splits[k][c].interior_work
                 for k in range(nprocs)), default=0.0)
            for c in range(self.ncolors)
        ] if self.overlap else []
        # per-colour halo: the colour classes partition the halo points
        self._color_halo: List[Dict[Tuple[int, int], int]] = []
        for c in range(self.ncolors):
            per: Dict[Tuple[int, int], int] = {}
            for pair, idxs in self.base.halo.items():
                npoints = int((colors[idxs] == c).sum())
                if npoints:
                    per[pair] = npoints * 8
            self._color_halo.append(per)

    def _record_color_sends(self, c: int) -> None:
        for (src, dst), nbytes in self._color_halo[c].items():
            self.tracker.send(src, dst, nbytes, label="rbgs_halo")

    def _exchange_color(self, c: int) -> None:
        """One superstep moving only the freshly-updated colour's halo."""
        if self.tracker is None:
            return
        self._record_color_sends(c)
        self.tracker.sync(label="rbgs_halo")

    def _post_exchange_color(self, c: int) -> Optional[InFlightExchange]:
        if self.tracker is None:
            return None
        self._record_color_sends(c)
        return self.tracker.post(label="rbgs_halo")

    def _update_color(self, c: int, z: np.ndarray, r: np.ndarray) -> None:
        for k in range(self.base.nprocs):
            rows = self._color_rows[k][c]
            if rows.size == 0:
                continue
            node = self.base.nodes[k]
            s = self._color_blocks[k][c].mxv(z[node.cols])
            d = self.diag[rows]
            z[rows] = (r[rows] - s + z[rows] * d) / d

    def _update_color_part(self, c: int, z: np.ndarray, r: np.ndarray,
                           interior: bool) -> None:
        """Update one half of a colour's rows (disjoint from the other
        half, per-row arithmetic unchanged — hence bit-identical)."""
        for k in range(self.base.nprocs):
            split = self._color_splits[k][c]
            rows = split.interior_rows if interior else split.boundary_rows
            if rows.size == 0:
                continue
            node = self.base.nodes[k]
            block = split.interior_block if interior else split.boundary_block
            s = block.mxv(z[node.cols])
            d = self.diag[rows]
            z[rows] = (r[rows] - s + z[rows] * d) / d

    def _sweep(self, z: np.ndarray, r: np.ndarray, order) -> None:
        self._check(z, r)
        if not self.overlap:
            for c in order:
                self._update_color(c, z, r)
                self._exchange_color(c)
            return
        # split-phase pipeline: colour c's exchange flies while colour
        # c+1's interior rows update; its wait gates only the boundary
        pending: Optional[InFlightExchange] = None
        for c in order:
            self._update_color_part(c, z, r, interior=True)
            if pending is not None:
                pending.overlap(self._interior_work[c])
                self.tracker.wait(pending)
            self._update_color_part(c, z, r, interior=False)
            pending = self._post_exchange_color(c)
        if pending is not None:
            self.tracker.wait(pending)

    def sweep(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """One forward sweep (colours in increasing order)."""
        self._sweep(z, r, range(self.ncolors))
        return z

    def backward(self, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        """One backward sweep (colours in decreasing order)."""
        self._sweep(z, r, range(self.ncolors - 1, -1, -1))
        return z

    def smooth(self, z: np.ndarray, r: np.ndarray,
               sweeps: int = 1) -> np.ndarray:
        """``sweeps`` symmetric (forward + backward) passes."""
        for _ in range(sweeps):
            self.sweep(z, r)
            self.backward(z, r)
        return z

    def _check(self, z: np.ndarray, r: np.ndarray) -> None:
        if z.shape[0] != self.n or r.shape[0] != self.n:
            raise DimensionMismatch(
                f"vector sizes ({z.shape[0]}, {r.shape[0]}) != {self.n}"
            )
