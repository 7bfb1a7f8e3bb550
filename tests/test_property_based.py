"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import HealthCheck

from repro import graphblas as grb
from repro.dist.partition import Block1D, BlockCyclic1D, factor3
from repro.graphblas.monoid import plus_monoid, min_monoid
from repro.graphblas.vector import Vector
from repro.grid import Grid3D
from repro.hpcg.coloring import greedy_coloring, num_colors, validate_coloring

common = settings(max_examples=25,
                  suppress_health_check=[HealthCheck.too_slow], deadline=None)


# --- strategies -------------------------------------------------------------

@st.composite
def coo_matrix(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, n * m))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
        min_size=nnz, max_size=nnz, unique=True,
    ))
    vals = draw(st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=len(cells),
        max_size=len(cells),
    ))
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    return grb.Matrix.from_coo(rows, cols, np.array(vals), n, m)


@st.composite
def dense_vector(draw, size):
    vals = draw(st.lists(st.floats(-100, 100, allow_nan=False),
                         min_size=size, max_size=size))
    return Vector.from_dense(np.array(vals))


@st.composite
def matrix_with_diagonal_cases(draw, max_n=9):
    """Rectangular either way; every diagonal slot is independently
    absent, a stored zero or a nonzero; some rows are left empty."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    empty_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    cells = {}
    for i in range(min(n, m)):
        kind = draw(st.sampled_from(["absent", "zero", "value"]))
        if kind != "absent" and i not in empty_rows:
            cells[(i, i)] = 0.0 if kind == "zero" else draw(
                st.floats(0.5, 100, allow_nan=False))
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, m - 1)))):
        if i != j and i not in empty_rows:
            cells[(i, j)] = draw(st.floats(-100, 100, allow_nan=False))
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    vals = np.array(list(cells.values()), dtype=np.float64)
    return grb.Matrix.from_coo(rows, cols, vals, n, m)


# --- GraphBLAS algebra -------------------------------------------------------

class TestMxvProperties:
    @common
    @given(coo_matrix())
    def test_mxv_matches_scipy(self, A):
        x = Vector.dense(A.ncols, 1.5)
        y = Vector.dense(A.nrows)
        grb.mxv(y, None, A, x)
        expected = A.to_scipy() @ x.to_dense()
        np.testing.assert_allclose(y.to_dense(), expected, rtol=1e-12,
                                   atol=1e-9)

    @common
    @given(coo_matrix())
    def test_transpose_twice_identity(self, A):
        x = Vector.dense(A.ncols, 2.0)
        y1 = Vector.dense(A.nrows)
        grb.mxv(y1, None, A, x)
        y2 = Vector.dense(A.nrows)
        grb.mxv(y2, None, A.transpose(), x,
                desc=grb.descriptors.transpose_matrix)
        np.testing.assert_allclose(y1.to_dense(), y2.to_dense(), rtol=1e-12)

    @common
    @given(coo_matrix(), st.integers(0, 2 ** 31))
    def test_mask_complement_partition(self, A, seed):
        """Masked + complement-masked results reassemble the full mxv."""
        rng = np.random.default_rng(seed)
        x = Vector.from_dense(rng.standard_normal(A.ncols))
        mask_idx = np.flatnonzero(rng.random(A.nrows) < 0.5)
        mask = Vector.from_coo(mask_idx, np.ones(mask_idx.size, dtype=bool),
                               A.nrows, dtype=bool)
        full = Vector.dense(A.nrows)
        grb.mxv(full, None, A, x)
        part = Vector.dense(A.nrows, 0.0)
        grb.mxv(part, mask, A, x, desc=grb.descriptors.structural)
        grb.mxv(part, mask, A, x,
                desc=grb.descriptors.structural | grb.descriptors.invert_mask)
        # present entries must agree wherever full has entries
        fi, fv = full.to_coo()
        pv = part.to_dense()
        np.testing.assert_allclose(pv[fi], fv, rtol=1e-12, atol=1e-9)

    @common
    @given(coo_matrix(max_n=8))
    def test_min_plus_vs_bruteforce(self, A):
        x = Vector.dense(A.ncols, 3.0)
        y = Vector.dense(A.nrows, 0.0)
        grb.mxv(y, None, A, x, semiring=grb.min_plus)
        rows, cols, vals = A.to_coo()
        for i in range(A.nrows):
            entries = vals[rows == i]
            if entries.size:
                assert y.to_dense()[i] == pytest.approx(entries.min() + 3.0)


class TestDiagProperties:
    @settings(common, max_examples=60)
    @given(matrix_with_diagonal_cases())
    def test_diag_is_elementwise_extraction(self, A):
        """Value *and* presence: a stored zero is an entry, a missing
        diagonal slot is not, whichever way the matrix is rectangular."""
        d = A.diag()
        assert d.size == min(A.shape)
        assert [d.extract_element(i) for i in range(d.size)] == [
            A.extract_element(i, i) for i in range(d.size)]

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
    def test_tall_and_wide_with_zero_missing_and_empty_row(self, shape):
        # (0,0) stored zero, (1,1) missing in an empty row, (2,2) a value
        A = grb.Matrix.from_coo([0, 0, 2, 2], [0, 2, 2, 0],
                                [0.0, 4.0, 7.0, 1.0], *shape)
        d = A.diag()
        assert [d.extract_element(i) for i in range(3)] == [0.0, None, 7.0]
        assert d.nvals == 2


class TestVectorProperties:
    @common
    @given(st.integers(1, 50), st.floats(-10, 10, allow_nan=False),
           st.floats(-10, 10, allow_nan=False), st.integers(0, 2 ** 31))
    def test_waxpby_matches_numpy(self, n, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        xv, yv = rng.standard_normal(n), rng.standard_normal(n)
        w = Vector.dense(n)
        grb.waxpby(w, alpha, Vector.from_dense(xv), beta, Vector.from_dense(yv))
        np.testing.assert_allclose(w.to_dense(), alpha * xv + beta * yv,
                                   rtol=1e-12, atol=1e-12)

    @common
    @given(st.integers(1, 40), st.integers(0, 2 ** 31))
    def test_dot_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        u = Vector.from_dense(rng.standard_normal(n))
        v = Vector.from_dense(rng.standard_normal(n))
        assert grb.dot(u, v) == pytest.approx(grb.dot(v, u))

    @common
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                    max_size=30))
    def test_reduce_matches_sum(self, values):
        v = Vector.from_dense(np.array(values))
        assert grb.reduce(v, plus_monoid) == pytest.approx(sum(values))

    @common
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                    max_size=30))
    def test_reduce_min(self, values):
        v = Vector.from_dense(np.array(values))
        assert grb.reduce(v, min_monoid) == pytest.approx(min(values))

    @common
    @given(st.integers(1, 30), st.integers(0, 2 ** 31))
    def test_dup_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        idx = np.flatnonzero(rng.random(n) < 0.6)
        v = Vector.from_coo(idx, rng.standard_normal(idx.size), n)
        assert v.dup() == v


class TestSegmentReduce:
    @common
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=15),
           st.integers(0, 2 ** 31))
    def test_matches_python_loop(self, seg_sizes, seed):
        rng = np.random.default_rng(seed)
        ptr = np.concatenate(([0], np.cumsum(seg_sizes)))
        vals = rng.standard_normal(int(ptr[-1]))
        out = plus_monoid.segment_reduce(vals, ptr)
        for i, size in enumerate(seg_sizes):
            expected = vals[ptr[i]:ptr[i + 1]].sum() if size else 0.0
            assert out[i] == pytest.approx(expected)


class TestColoringProperties:
    @common
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
    def test_greedy_valid_on_any_grid(self, nx, ny, nz):
        from repro.hpcg.problem import generate_problem
        p = generate_problem(nx, ny, nz)
        colors = greedy_coloring(p.A)
        assert validate_coloring(p.A, colors)
        assert num_colors(colors) <= 8

    @common
    @given(st.integers(0, 2 ** 31))
    def test_greedy_valid_on_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        from repro.graphblas.io import random_matrix
        M = random_matrix(15, 15, 0.2, rng=rng)
        S = grb.Matrix.from_scipy(M.to_scipy() + M.to_scipy().T)
        assert validate_coloring(S, greedy_coloring(S))


class TestPartitionProperties:
    @common
    @given(st.integers(1, 100), st.integers(1, 8))
    def test_block1d_covers_exactly(self, n, p):
        part = Block1D(n, p)
        all_idx = np.concatenate([part.local_indices(k) for k in range(p)])
        assert np.array_equal(np.sort(all_idx), np.arange(n))

    @common
    @given(st.integers(1, 100), st.integers(1, 8), st.integers(1, 16))
    def test_blockcyclic_covers_exactly(self, n, p, block):
        part = BlockCyclic1D(n, p, block=block)
        all_idx = np.concatenate([part.local_indices(k) for k in range(p)])
        assert np.array_equal(np.sort(all_idx), np.arange(n))
        owners = part.owner(np.arange(n))
        for k in range(p):
            assert (owners[part.local_indices(k)] == k).all()

    @common
    @given(st.integers(1, 64))
    def test_factor3_product(self, p):
        px, py, pz = factor3(p)
        assert px * py * pz == p
        assert px <= py <= pz


class TestGridProperties:
    @common
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_index_coords_bijection(self, nx, ny, nz):
        g = Grid3D(nx, ny, nz)
        i = np.arange(g.npoints)
        assert np.array_equal(g.index(*g.coords(i)), i)

    @common
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_degree_bounds(self, nx, ny, nz):
        g = Grid3D(nx, ny, nz)
        deg = g.row_degree()
        assert deg.min() >= 1 and deg.max() <= 27
