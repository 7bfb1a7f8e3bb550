"""Grid geometry: indexing, neighbours, coarsening, injection."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import (
    Grid3D,
    stencil_27pt_coo,
    stencil_coo,
    stencil_offsets,
    stencil_offsets_7pt,
)
from repro.grid.stencil import stencil_csr
from repro.util.errors import InvalidValue


class TestIndexing:
    def test_roundtrip_all_points(self):
        g = Grid3D(3, 4, 5)
        i = np.arange(g.npoints)
        ix, iy, iz = g.coords(i)
        np.testing.assert_array_equal(g.index(ix, iy, iz), i)

    def test_x_fastest(self):
        g = Grid3D(4, 4, 4)
        assert g.index(1, 0, 0) == 1
        assert g.index(0, 1, 0) == 4
        assert g.index(0, 0, 1) == 16

    def test_npoints(self):
        assert Grid3D(2, 3, 4).npoints == 24

    def test_invalid_dims(self):
        with pytest.raises(InvalidValue):
            Grid3D(0, 3, 3)

    def test_in_bounds(self):
        g = Grid3D(2, 2, 2)
        assert g.in_bounds(0, 0, 0) and g.in_bounds(1, 1, 1)
        assert not g.in_bounds(2, 0, 0)
        assert not g.in_bounds(0, -1, 0)

    def test_all_coords_shape(self):
        g = Grid3D(3, 3, 3)
        ix, iy, iz = g.all_coords()
        assert ix.shape == (27,)
        assert iz[-1] == 2


class TestNeighbours:
    def test_interior_has_26(self):
        g = Grid3D(3, 3, 3)
        centre = g.index(1, 1, 1)
        assert len(list(g.neighbours(centre))) == 26

    def test_corner_has_7(self):
        g = Grid3D(3, 3, 3)
        assert len(list(g.neighbours(0))) == 7

    def test_neighbours_distinct_and_exclude_self(self):
        g = Grid3D(4, 4, 4)
        i = g.index(2, 2, 2)
        neigh = list(g.neighbours(int(i)))
        assert i not in neigh
        assert len(set(neigh)) == len(neigh)

    def test_row_degree_matches_neighbours(self):
        g = Grid3D(3, 4, 2)
        deg = g.row_degree()
        for i in range(g.npoints):
            assert deg[i] == len(list(g.neighbours(i))) + 1  # + diagonal

    def test_row_degree_range(self):
        deg = Grid3D(4, 4, 4).row_degree()
        assert deg.min() == 8 and deg.max() == 27

    def test_degenerate_1d_grid(self):
        g = Grid3D(5, 1, 1)
        deg = g.row_degree()
        assert deg.max() == 3 and deg.min() == 2


class TestCoarsening:
    def test_can_coarsen_even(self):
        assert Grid3D(4, 4, 4).can_coarsen()
        assert not Grid3D(3, 4, 4).can_coarsen()
        assert not Grid3D(2, 2, 1).can_coarsen()

    def test_coarsen_halves(self):
        assert Grid3D(8, 4, 6).coarsen().dims == (4, 2, 3)

    def test_coarsen_odd_raises(self):
        with pytest.raises(InvalidValue):
            Grid3D(3, 4, 4).coarsen()

    def test_max_mg_levels(self):
        assert Grid3D(16, 16, 16).max_mg_levels() == 5
        assert Grid3D(8, 8, 8).max_mg_levels() == 4
        assert Grid3D(3, 3, 3).max_mg_levels() == 1
        assert Grid3D(24, 24, 24).max_mg_levels() == 4  # 24->12->6->3

    def test_injection_indices(self):
        g = Grid3D(4, 4, 4)
        inj = g.injection_indices()
        coarse = g.coarsen()
        assert inj.shape == (coarse.npoints,)
        # coarse point (1,1,1) -> fine (2,2,2)
        ci = coarse.index(1, 1, 1)
        assert inj[ci] == g.index(2, 2, 2)

    def test_injection_unique(self):
        inj = Grid3D(6, 4, 8).injection_indices()
        assert np.unique(inj).size == inj.size


class TestStencil:
    def test_offsets_count(self):
        assert len(stencil_offsets()) == 27
        assert (0, 0, 0) in stencil_offsets()

    def test_nnz_matches_degree(self):
        g = Grid3D(4, 3, 5)
        rows, cols, vals = stencil_27pt_coo(g)
        assert rows.size == g.row_degree().sum()

    def test_values(self):
        g = Grid3D(3, 3, 3)
        rows, cols, vals = stencil_27pt_coo(g)
        diag = rows == cols
        assert (vals[diag] == 26.0).all()
        assert (vals[~diag] == -1.0).all()

    def test_symmetry(self):
        import scipy.sparse as sp
        g = Grid3D(4, 4, 4)
        rows, cols, vals = stencil_27pt_coo(g)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(g.npoints, g.npoints))
        assert abs(A - A.T).nnz == 0

    def test_interior_row_sums_zero(self):
        import scipy.sparse as sp
        g = Grid3D(4, 4, 4)
        rows, cols, vals = stencil_27pt_coo(g)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(g.npoints, g.npoints))
        sums = np.asarray(A.sum(axis=1)).ravel()
        interior = g.index(1, 1, 1)
        assert sums[interior] == 0.0  # 26 - 26 neighbours

    def test_custom_values(self):
        g = Grid3D(2, 2, 2)
        _, _, vals = stencil_27pt_coo(g, diag_value=8.0, offdiag_value=-0.5)
        assert set(np.unique(vals)) == {8.0, -0.5}


def _oracle_coo(grid, offsets, diag_value):
    """Point-by-point transcription of the assembly, row-major: each row's
    in-bounds neighbours by ascending column, bounds decided by
    ``Grid3D.in_bounds``."""
    rows, cols, vals = [], [], []
    for i in range(grid.npoints):
        row = []
        for dx, dy, dz in offsets:
            jx, jy, jz = (int(c) + d for c, d in zip(grid.coords(i), (dx, dy, dz)))
            if grid.in_bounds(jx, jy, jz):
                row.append((int(grid.index(jx, jy, jz)),
                            diag_value if dx == dy == dz == 0 else -1.0))
        for j, value in sorted(row):
            rows.append(i)
            cols.append(j)
            vals.append(value)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64))


def _oracle_csr(grid, offsets, diag_value):
    """The oracle's triplets through scipy's COO->CSR conversion: the
    canonical arrays, index dtype by scipy's own rule."""
    rows, cols, vals = _oracle_coo(grid, offsets, diag_value)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(grid.npoints,) * 2)
    A.sort_indices()
    return A.indptr, A.indices, A.data


STENCILS = pytest.mark.parametrize("stencil, offsets, diag_value", [
    ("27pt", stencil_offsets(), 26.0),
    ("7pt", stencil_offsets_7pt(), 6.0),
])


class TestStencilAgainstOracle:
    """The vectorised assembly returns exactly the slow transcription's
    arrays — same order, same dtypes — on non-cubic and degenerate grids."""

    DIMS = [(5, 3, 2), (4, 1, 1), (1, 1, 1), (2, 2, 2), (1, 4, 3), (3, 2, 1)]

    @pytest.mark.parametrize("dims", DIMS)
    @STENCILS
    def test_triplets_equal_oracle(self, dims, stencil, offsets, diag_value):
        g = Grid3D(*dims)
        got = stencil_coo(g, stencil)
        want = _oracle_coo(g, offsets, diag_value)
        for name, a, b in zip(("rows", "cols", "vals"), got, want):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("dims", DIMS + [(16, 16, 16)])
    @STENCILS
    def test_csr_equals_oracle(self, dims, stencil, offsets, diag_value):
        g = Grid3D(*dims)
        got = stencil_csr(g, stencil)
        want = _oracle_csr(g, offsets, diag_value)
        for name, a, b in zip(("indptr", "indices", "data"), got, want):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("stencil", ["27pt", "7pt"])
    def test_operators_hold_the_assembled_arrays(self, monkeypatch, stencil):
        """``build_operator`` and ``build_csr`` wrap what the assembler
        returned: no re-sort, no copy."""
        import repro.hpcg.problem as problem_mod
        import repro.ref.multigrid as ref_mg
        from repro.hpcg.problem import build_operator
        from repro.ref.multigrid import build_csr

        assembled = []

        def recorded(*args, **kwargs):
            assembled.append(stencil_csr(*args, **kwargs))
            return assembled[-1]

        monkeypatch.setattr(problem_mod, "stencil_csr", recorded)
        monkeypatch.setattr(ref_mg, "stencil_csr", recorded)
        g = Grid3D(6, 4, 2)
        built = [build_operator(g, stencil).to_scipy(copy=False),
                 build_csr(g, stencil)]
        assert len(assembled) == 2
        for A, arrays in zip(built, assembled):
            assert A.has_canonical_format
            # scipy keeps a full-length view (``prune``), never a copy
            for mine, theirs in zip((A.indptr, A.indices, A.data), arrays):
                assert mine.size == theirs.size
                assert np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("dims", DIMS)
    def test_27pt_pattern_is_neighbours_plus_self(self, dims):
        g = Grid3D(*dims)
        rows, cols, _ = stencil_coo(g, "27pt")
        for i in range(g.npoints):
            assert sorted(cols[rows == i]) == sorted([i, *g.neighbours(i)])
