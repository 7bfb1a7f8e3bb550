"""Matrix/vector distributions for the simulated backends.

Four schemes, matching the paper's §VII-B design space:

* :class:`Block1D` — contiguous balanced row blocks;
* :class:`BlockCyclic1D` — the locality-free 1D block-cyclic
  distribution ALP's opaque containers force today;
* :class:`Grid3DPartition` — geometry-aware axis-aligned 3D boxes over
  the problem grid (what the reference HPCG knows and GraphBLAS hides);
* :func:`bfs_partition` — a black-box structural partition grown by
  breadth-first traversal (the paper's "solution iv": recover locality
  from the sparsity pattern alone).

:func:`halo_for_owners` derives, for any ownership vector, exactly
which remote vector entries every node must receive before a local
``A x`` — the halo the executors in :mod:`repro.dist.halo` exchange.

Partition construction and halo derivation run inside
``dist/partition/*`` observability spans (carrying ``n``/``p`` and,
for halos, the derived remote-entry count), so setup cost is
attributable in trace diffs and flamegraphs next to the solve it
feeds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.dist.cost import per_entry_owners
from repro.grid import Grid3D
from repro.util.errors import InvalidValue


class Block1D:
    """``n`` indices in ``p`` contiguous blocks, sizes differing by <= 1."""

    def __init__(self, n: int, p: int):
        if p < 1:
            raise InvalidValue(f"need at least one block, got {p}")
        if n < 0:
            raise InvalidValue(f"negative index space: {n}")
        self.n = n
        self.p = p
        base, extra = divmod(n, p)
        sizes = np.full(p, base, dtype=np.int64)
        sizes[:extra] += 1
        self._sizes = sizes
        self._starts = np.concatenate(([0], np.cumsum(sizes)))

    def local_size(self, k: int) -> int:
        return int(self._sizes[k])

    def local_indices(self, k: int) -> np.ndarray:
        return np.arange(self._starts[k], self._starts[k + 1], dtype=np.int64)

    def owner(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return np.searchsorted(self._starts, indices, side="right") - 1


class BlockCyclic1D:
    """Blocks of ``block`` consecutive indices dealt round-robin to nodes."""

    def __init__(self, n: int, p: int, block: int = 1):
        if p < 1:
            raise InvalidValue(f"need at least one node, got {p}")
        if block < 1:
            raise InvalidValue(f"block size must be >= 1, got {block}")
        self.n = n
        self.p = p
        self.block = block

    def owner(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return (indices // self.block) % self.p

    def local_indices(self, k: int) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        return idx[self.owner(idx) == k]

    def local_size(self, k: int) -> int:
        full_rounds, rem = divmod(self.n, self.p * self.block)
        size = full_rounds * self.block
        # the trailing partial round deals whole blocks in rank order
        start = k * self.block
        size += max(0, min(rem - start, self.block))
        return size


def factor3(p: int) -> Tuple[int, int, int]:
    """Factor ``p`` into ``px <= py <= pz`` with ``px*py*pz == p``.

    Chooses the most cube-like process grid: the largest divisor of
    ``p`` not exceeding its cube root, then the largest divisor of the
    quotient not exceeding its square root.
    """
    if p < 1:
        raise InvalidValue(f"need at least one process, got {p}")
    px = 1
    for d in range(1, int(round(p ** (1.0 / 3.0))) + 1):
        if p % d == 0 and d * d * d <= p:
            px = d
    rest = p // px
    py = 1
    for d in range(1, int(round(rest ** 0.5)) + 1):
        if rest % d == 0 and d * d <= rest:
            py = d
    px, py, pz = sorted((px, py, rest // py))
    return px, py, pz


def largest_square(p: int) -> int:
    """The largest perfect square not exceeding ``p``.

    Fault recovery uses this to respawn the 2D block backend on a
    survivor set: a ``√p x √p`` process grid needs a square node count,
    so after losing nodes the run continues on the largest square
    subset of the survivors.
    """
    if p < 1:
        raise InvalidValue(f"need at least one process, got {p}")
    q = int(p ** 0.5)
    while q * q > p:
        q -= 1
    while (q + 1) * (q + 1) <= p:
        q += 1
    return q * q


class Grid3DPartition:
    """Axis-aligned boxes over a :class:`Grid3D`.

    ``shape`` is the process grid ``(px, py, pz)`` (defaults to
    :func:`factor3`); every grid dimension must divide evenly so each
    node owns an identical ``sx x sy x sz`` box — the reference HPCG's
    constraint, which keeps the computation perfectly balanced.
    """

    def __init__(self, grid: Grid3D, p: int,
                 shape: Optional[Tuple[int, int, int]] = None):
        if p < 1:
            raise InvalidValue(f"need at least one node, got {p}")
        if shape is None:
            shape = factor3(p)
        px, py, pz = shape
        if px * py * pz != p:
            raise InvalidValue(
                f"process grid {shape} has {px * py * pz} nodes, expected {p}"
            )
        if not self.divides(grid, shape):
            raise InvalidValue(
                f"grid {grid.dims} not divisible by process grid {shape}"
            )
        with obs.span("dist/partition/grid3d", "dist",
                      {"n": grid.npoints, "p": p,
                       "shape": f"{px}x{py}x{pz}"}):
            self.grid = grid
            self.p = p
            self.shape = (px, py, pz)
            self.local_dims = (grid.nx // px, grid.ny // py, grid.nz // pz)

    @staticmethod
    def divides(grid: Grid3D, shape: Tuple[int, int, int]) -> bool:
        """Whether process grid ``shape`` cuts ``grid`` in equal boxes."""
        return not any(n % s for n, s in zip(grid.dims, shape))

    def owner(self, indices) -> np.ndarray:
        ix, iy, iz = self.grid.coords(np.asarray(indices, dtype=np.int64))
        sx, sy, sz = self.local_dims
        px, py, _pz = self.shape
        bx, by, bz = ix // sx, iy // sy, iz // sz
        return (bz * py + by) * px + bx

    def local_size(self, k: int) -> int:
        sx, sy, sz = self.local_dims
        return sx * sy * sz

    def local_indices(self, k: int) -> np.ndarray:
        owners = self.owner(np.arange(self.grid.npoints, dtype=np.int64))
        return np.flatnonzero(owners == k)

    def halo_surface_points(self) -> int:
        """Points on the six faces' adjacent planes: 2(sx sy + sy sz + sx sz)."""
        sx, sy, sz = self.local_dims
        return 2 * (sx * sy + sy * sz + sx * sz)

    def halo_exchanges(self, indptr: np.ndarray,
                       indices: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
        """Per ``(src, dst)`` pair, the global columns ``dst`` receives."""
        owners = self.owner(np.arange(self.grid.npoints, dtype=np.int64))
        return halo_for_owners(indptr, indices, owners, self.p)


def halo_for_owners(
    indptr: np.ndarray,
    indices: np.ndarray,
    owners: np.ndarray,
    p: int,
    entry_owners: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Dict[Tuple[int, int], np.ndarray]:
    """The halo induced by an arbitrary ownership vector.

    For every node ``dst``, the remote columns referenced by the rows it
    owns, grouped by the owning node ``src``; each value array is sorted
    by global index.  Serial ownership yields ``{}``.

    ``entry_owners`` is :func:`~repro.dist.cost.per_entry_owners`'s
    expansion, for callers that need it themselves as well; it is
    derived here when not given.
    """
    owners = np.asarray(owners, dtype=np.int64)
    n = owners.shape[0]
    with obs.span("dist/partition/halo", "dist", {"n": n, "p": p}) as span:
        dst, remote = (entry_owners if entry_owners is not None
                       else per_entry_owners(indptr, indices, owners))
        if not remote.any():
            if span is not None:
                span.set(remote_entries=0, pairs=0)
            return {}
        # unique (dst, column) pairs, built in place over a surface's
        # worth of entries; the column's owner is the source
        key = dst[remote].astype(np.int64)
        key *= n
        key += indices[remote]
        key.sort()
        uniq = key[np.concatenate(([True], key[1:] != key[:-1]))]
        u_dst = uniq // n
        u_col = uniq % n
        u_src = owners[u_col]
        out: Dict[Tuple[int, int], np.ndarray] = {}
        pair = u_src * p + u_dst
        order = np.argsort(pair, kind="stable")
        pair_sorted = pair[order]
        col_sorted = u_col[order]
        boundaries = np.flatnonzero(np.diff(pair_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [pair_sorted.size]))
        for s, e in zip(starts, ends):
            src = int(pair_sorted[s]) // p
            dst_k = int(pair_sorted[s]) % p
            out[(src, dst_k)] = np.sort(col_sorted[s:e])
        if span is not None:
            span.set(remote_entries=int(uniq.size), pairs=len(out))
        return out


def bfs_partition(indptr: np.ndarray, indices: np.ndarray,
                  n: int, p: int) -> np.ndarray:
    """Black-box locality partition: BFS growth into balanced chunks.

    Visits the structure breadth-first (restarting at the lowest unseen
    vertex on disconnected components) and assigns consecutive visit
    ranks to nodes in balanced contiguous chunks, so each node owns a
    connected, roughly spherical region — recovering most of the
    geometric partition's locality from the sparsity pattern alone
    (paper §VII-B iv).  Each component is one compiled traversal, so
    no Python runs per vertex — crash recovery pays this once per level.
    """
    # imported on use: ~11 MB RSS (csgraph loads scipy.sparse.linalg
    # and scipy.linalg with it) that only bfs owners and recoveries need
    from scipy.sparse.csgraph import breadth_first_order

    if p < 1:
        raise InvalidValue(f"need at least one node, got {p}")
    with obs.span("dist/partition/bfs", "dist", {"n": n, "p": p}):
        # the traversal reads the structure only: values are a
        # zero-stride view, not a float per stored entry
        graph = sp.csr_matrix((np.broadcast_to(1.0, len(indices)), indices,
                               indptr), shape=(n, n))
        unseen = np.ones(n, dtype=bool)
        order = np.empty(n, dtype=np.int64)
        count = seed = 0
        while count < n:
            seed += int(unseen[seed:].argmax())
            # an earlier traversal exhausted whatever it reached, so
            # dropping that is the same as never enqueuing a seen vertex
            reached = breadth_first_order(graph, seed,
                                          return_predecessors=False)
            reached = reached[unseen[reached]]
            unseen[reached] = False
            order[count:count + reached.size] = reached
            count += reached.size
        visit_rank = np.empty(n, dtype=np.int64)
        visit_rank[order] = np.arange(n, dtype=np.int64)
        return Block1D(n, p).owner(visit_rank)
