"""Partitions: 1D, block-cyclic, geometric 3D, factorisation, BFS."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dist.partition import (
    Block1D,
    BlockCyclic1D,
    Grid3DPartition,
    bfs_partition,
    factor3,
    halo_for_owners,
)
from repro.grid import Grid3D
from repro.grid.stencil import stencil_27pt_coo
from repro.ref.multigrid import build_csr
from repro.hpcg.problem import generate_problem
from repro.util.errors import InvalidValue


class TestBlock1D:
    def test_partition_covers_all(self):
        p = Block1D(10, 3)
        owners = p.owner(np.arange(10))
        sizes = np.bincount(owners, minlength=3)
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1

    def test_local_indices_contiguous(self):
        p = Block1D(10, 3)
        for k in range(3):
            idx = p.local_indices(k)
            assert (np.diff(idx) == 1).all()
            assert idx.size == p.local_size(k)

    def test_owner_matches_local(self):
        p = Block1D(17, 4)
        for k in range(4):
            assert (p.owner(p.local_indices(k)) == k).all()

    def test_invalid(self):
        with pytest.raises(InvalidValue):
            Block1D(5, 0)


class TestBlockCyclic:
    def test_round_robin_blocks(self):
        p = BlockCyclic1D(12, 3, block=2)
        owners = p.owner(np.arange(12))
        np.testing.assert_array_equal(
            owners, [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]
        )

    def test_balanced(self):
        p = BlockCyclic1D(1000, 7, block=8)
        sizes = [p.local_size(k) for k in range(7)]
        assert max(sizes) - min(sizes) <= 8

    def test_covers_all(self):
        p = BlockCyclic1D(100, 4, block=16)
        total = np.concatenate([p.local_indices(k) for k in range(4)])
        assert np.array_equal(np.sort(total), np.arange(100))

    def test_invalid_block(self):
        with pytest.raises(InvalidValue):
            BlockCyclic1D(10, 2, block=0)


class TestFactor3:
    def test_perfect_cube(self):
        assert factor3(8) == (2, 2, 2)
        assert factor3(27) == (3, 3, 3)

    def test_primes_are_pencils(self):
        assert factor3(7) == (1, 1, 7)
        assert factor3(5) == (1, 1, 5)

    def test_composites(self):
        assert factor3(6) == (1, 2, 3)
        assert factor3(12) == (2, 2, 3)
        assert factor3(4) == (1, 2, 2)

    def test_one(self):
        assert factor3(1) == (1, 1, 1)

    def test_product_invariant(self):
        for p in range(1, 30):
            px, py, pz = factor3(p)
            assert px * py * pz == p

    def test_invalid(self):
        with pytest.raises(InvalidValue):
            factor3(0)


class TestGrid3DPartition:
    def test_owner_coverage_and_balance(self):
        g = Grid3D(8, 8, 8)
        part = Grid3DPartition(g, 8)
        owners = part.owner(np.arange(g.npoints))
        sizes = np.bincount(owners, minlength=8)
        assert (sizes == 64).all()

    def test_boxes_are_axis_aligned(self):
        g = Grid3D(4, 4, 4)
        part = Grid3DPartition(g, 2)  # (1,1,2): two z-slabs
        owners = part.owner(np.arange(g.npoints))
        _, _, iz = g.all_coords()
        np.testing.assert_array_equal(owners, (iz >= 2).astype(np.int64))

    def test_indivisible_rejected(self):
        with pytest.raises(InvalidValue):
            Grid3DPartition(Grid3D(5, 4, 4), 2, shape=(2, 1, 1))

    def test_explicit_shape(self):
        g = Grid3D(6, 4, 4)
        part = Grid3DPartition(g, 6, shape=(3, 2, 1))
        assert part.shape == (3, 2, 1)
        assert part.local_dims == (2, 2, 4)

    def test_bad_shape_product(self):
        with pytest.raises(InvalidValue):
            Grid3DPartition(Grid3D(4, 4, 4), 4, shape=(2, 2, 2))

    def test_halo_surface_formula(self):
        g = Grid3D(8, 8, 8)
        part = Grid3DPartition(g, 8)
        sx, sy, sz = part.local_dims
        assert part.halo_surface_points() == 2 * (sx * sy + sy * sz + sx * sz)

    def test_halo_exchanges_correctness(self):
        """Brute-force check: the halo of node k is exactly the set of
        remote columns its rows reference."""
        g = Grid3D(4, 4, 4)
        part = Grid3DPartition(g, 2)
        import scipy.sparse as sp
        rows, cols, vals = stencil_27pt_coo(g)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(g.npoints, g.npoints))
        A.sort_indices()
        halos = part.halo_exchanges(A.indptr, A.indices)
        owners = part.owner(np.arange(g.npoints))
        for k in range(2):
            received = np.concatenate(
                [idxs for (src, dst), idxs in halos.items() if dst == k]
                or [np.empty(0, dtype=np.int64)]
            )
            mine = np.flatnonzero(owners == k)
            needed = set()
            for i in mine:
                for j in A.indices[A.indptr[i]:A.indptr[i + 1]]:
                    if owners[j] != k:
                        needed.add(int(j))
            assert set(received.tolist()) == needed

    def test_halo_below_surface_bound(self):
        problem = generate_problem(8)
        part = Grid3DPartition(problem.grid, 4)
        A = problem.A.to_scipy()
        halos = part.halo_exchanges(A.indptr, A.indices)
        per_node_recv = np.zeros(4, dtype=np.int64)
        for (src, dst), idxs in halos.items():
            per_node_recv[dst] += idxs.size
        # the 27-point halo includes edges/corners of neighbouring boxes;
        # it is O(surface) — within a small constant of the face count.
        bound = 2.0 * part.halo_surface_points()
        assert per_node_recv.max() <= bound


class TestBlackBoxPartition:
    def test_covers_and_balances(self, problem8):
        A = problem8.A.to_scipy()
        owners = bfs_partition(A.indptr, A.indices, problem8.n, 4)
        sizes = np.bincount(owners, minlength=4)
        assert sizes.sum() == problem8.n
        assert sizes.max() - sizes.min() <= 1

    def test_beats_block_cyclic_halo(self, problem8):
        """BFS locality: far less halo than the locality-free 1D cyclic."""
        A = problem8.A.to_scipy()
        n, p = problem8.n, 4
        owners_bfs = bfs_partition(A.indptr, A.indices, n, p)
        cyc = BlockCyclic1D(n, p, block=4)
        owners_cyc = cyc.owner(np.arange(n))
        def volume(owners):
            halos = halo_for_owners(A.indptr, A.indices, owners, p)
            return sum(idxs.size for idxs in halos.values())
        assert volume(owners_bfs) < volume(owners_cyc)

    def test_halo_for_owners_empty_for_serial(self, problem4):
        A = problem4.A.to_scipy()
        owners = np.zeros(problem4.n, dtype=np.int64)
        assert halo_for_owners(A.indptr, A.indices, owners, 1) == {}


def _bfs_partition_loop(indptr, indices, n, p):
    """The per-vertex, per-neighbour loop ``bfs_partition`` used to be —
    kept as its oracle: level-synchronous BFS over the stored entries,
    restarting at the lowest unseen vertex, visit ranks cut into
    balanced chunks."""
    seen = np.zeros(n, dtype=bool)
    order = []
    for seed in range(n):
        if seen[seed]:
            continue
        queue = [seed]
        seen[seed] = True
        while queue:
            next_queue = []
            for i in queue:
                order.append(i)
                for j in indices[indptr[i]:indptr[i + 1]]:
                    if not seen[j]:
                        seen[j] = True
                        next_queue.append(int(j))
            queue = next_queue
    visit_rank = np.empty(n, dtype=np.int64)
    visit_rank[np.array(order, dtype=np.int64)] = np.arange(n)
    return Block1D(n, p).owner(visit_rank)


def _random_pattern(rng, n, density, symmetric, isolated=0):
    """A random sparsity pattern; ``isolated`` randomly chosen vertices
    get their row and column emptied (components of size one)."""
    M = sp.random(n, n, density=density, format="lil",
                  random_state=int(rng.integers(1 << 30)))
    if symmetric:
        M = (M + M.T).tolil()
    for v in rng.choice(n, size=min(isolated, n), replace=False):
        M[v, :] = 0
        M[:, v] = 0
    M = M.tocsr()
    M.eliminate_zeros()
    M.sort_indices()
    return M


class TestBfsPartitionMatchesTheLoop:
    """The compiled traversal returns exactly the owners the Python
    loop did, on every kind of structure the loop accepted."""

    @staticmethod
    def _check(A, p):
        n = A.shape[0]
        np.testing.assert_array_equal(
            bfs_partition(A.indptr, A.indices, n, p),
            _bfs_partition_loop(A.indptr, A.indices, n, p))

    @pytest.mark.parametrize("dims,stencil,p", [
        ((16, 16, 16), "27pt", 3), ((8, 8, 8), "27pt", 4),
        ((8, 4, 6), "27pt", 5), ((12, 12, 12), "7pt", 3),
        ((8, 4, 6), "7pt", 7), ((2, 3, 1), "7pt", 2),
    ])
    def test_grids(self, dims, stencil, p):
        self._check(build_csr(Grid3D(*dims), stencil), p)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_random_patterns(self, symmetric):
        rng = np.random.default_rng(20 + symmetric)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            A = _random_pattern(rng, n, rng.uniform(0.0, 0.12), symmetric,
                                isolated=int(rng.integers(0, 4)))
            self._check(A, int(rng.integers(1, 9)))

    def test_disconnected_components_restart_at_lowest_unseen(self):
        # {0, 3} and {1, 2, 4}: the second traversal starts at vertex 1
        rows = np.array([0, 3, 1, 2, 2, 4])
        cols = np.array([3, 0, 2, 1, 4, 2])
        A = sp.csr_matrix((np.ones(6), (rows, cols)), shape=(5, 5))
        A.sort_indices()
        self._check(A, 5)
        np.testing.assert_array_equal(
            bfs_partition(A.indptr, A.indices, 5, 5), [0, 2, 3, 1, 4])

    def test_one_way_edges_into_an_earlier_component(self):
        # 2 -> 0 only: vertex 2's traversal reaches the already-owned
        # {0, 1} again and must not re-rank it
        A = sp.csr_matrix((np.ones(3), ([0, 1, 2], [1, 0, 0])), shape=(4, 4))
        self._check(A, 2)
        np.testing.assert_array_equal(
            bfs_partition(A.indptr, A.indices, 4, 4), [0, 1, 2, 3])

    @pytest.mark.parametrize("n,p", [(0, 1), (0, 3), (1, 1), (1, 4), (3, 8)])
    def test_degenerate_sizes(self, n, p):
        self._check(sp.csr_matrix((n, n)), p)           # all rows empty
        self._check(sp.identity(n, format="csr"), p)    # self-loops only

    def test_rejects_zero_nodes(self):
        with pytest.raises(InvalidValue):
            bfs_partition(np.zeros(1, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), 0, 0)

    def test_call_count_does_not_grow_with_the_operator(self, python_calls):
        """One compiled traversal per component: no Python per vertex,
        per neighbour or per BFS level."""
        def calls(nx):
            A = build_csr(Grid3D(nx, nx, nx), "27pt")
            bfs_partition(A.indptr, A.indices, A.shape[0], 3)   # warm
            return python_calls(
                lambda: bfs_partition(A.indptr, A.indices, A.shape[0], 3))

        small, large = calls(8), calls(16)
        assert large <= 1.05 * small, (small, large)
