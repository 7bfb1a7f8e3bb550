"""HPCG problem generation: operator properties and right-hand sides."""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.hpcg.multigrid import build_hierarchy
from repro.hpcg.problem import build_operator, generate_problem
from repro.grid import Grid3D
from repro.util.errors import InvalidValue


class TestOperator:
    def test_shape_and_nnz(self, problem8):
        n = 512
        assert problem8.A.shape == (n, n)
        # nnz equals the sum of stencil degrees
        assert problem8.A.nvals == problem8.grid.row_degree().sum()

    def test_diagonal_is_26(self, problem8):
        np.testing.assert_array_equal(
            problem8.A_diag.to_dense(), np.full(512, 26.0)
        )

    def test_symmetric(self, problem8):
        A = problem8.A.to_scipy()
        assert abs(A - A.T).nnz == 0

    def test_positive_definite_smallest_eig(self, problem4):
        # the HPCG operator is SPD; check via Cholesky-style smallest eig
        dense = problem4.A.to_scipy().toarray()
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0

    def test_row_nnz_range(self, problem8):
        A = problem8.A.to_scipy()
        row_nnz = np.diff(A.indptr)
        assert row_nnz.min() == 8 and row_nnz.max() == 27

    def test_build_operator_standalone(self):
        A = build_operator(Grid3D(2, 2, 2))
        assert A.shape == (8, 8)
        assert A.nvals == 64  # every pair within the single octet


class TestRightHandSide:
    def test_reference_b_is_A_times_ones(self, problem8):
        A = problem8.A.to_scipy()
        np.testing.assert_allclose(
            problem8.b.to_dense(), A @ np.ones(512)
        )

    def test_reference_exact_solution_is_ones(self, problem8):
        assert problem8.residual_norm(problem8.exact) == pytest.approx(0.0, abs=1e-10)

    def test_ones_b_style(self):
        p = generate_problem(4, b_style="ones")
        np.testing.assert_array_equal(p.b.to_dense(), np.ones(64))

    def test_unknown_b_style(self):
        with pytest.raises(InvalidValue):
            generate_problem(4, b_style="zeros")

    def test_x0_is_zero(self, problem8):
        np.testing.assert_array_equal(problem8.x0.to_dense(), np.zeros(512))

    def test_anisotropic_grid(self):
        p = generate_problem(4, 6, 2)
        assert p.grid.dims == (4, 6, 2)
        assert p.n == 48

    def test_ny_nz_default_to_nx(self):
        assert generate_problem(4).grid.dims == (4, 4, 4)

    def test_residual_norm_of_x0(self, problem8):
        # ||b - A*0|| = ||b||
        assert problem8.residual_norm(problem8.x0) == pytest.approx(
            float(np.linalg.norm(problem8.b.to_dense()))
        )


@pytest.mark.parametrize("make, named", [
    (lambda: Grid3D(2.5, 2, 2), "2.5"),
    (lambda: Grid3D(True, 2, 2), "True"),
    (lambda: Grid3D("4", 4, 4), "'4'"),
    (lambda: generate_problem(2.5), "2.5"),
    (lambda: generate_problem(4, stencil="5pt"), "'5pt'"),
    (lambda: generate_problem(4, b_style="zeros"), "'zeros'"),
], ids=["float-dim", "bool-dim", "str-dim", "float-nx", "stencil", "b_style"])
def test_a_bad_size_or_name_is_one_line_before_assembly(monkeypatch, make,
                                                        named):
    import repro.hpcg.problem as problem_mod

    monkeypatch.setattr(problem_mod, "build_operator",
                        lambda *a, **k: pytest.fail("operator assembled"))
    with pytest.raises(InvalidValue) as exc:
        make()
    message = str(exc.value)
    assert named in message and "\n" not in message


def test_numpy_integer_dimensions_are_ints():
    g = Grid3D(np.int64(4), np.int32(2), 3)
    assert g == Grid3D(4, 2, 3) and all(type(d) is int for d in g.dims)


class TestSetupIsVectorised:
    """Set-up issues a fixed number of array operations whatever the grid
    size: per-row or per-entry Python anywhere in assembly, conversion,
    diagonal extraction, colouring or the hierarchy shows up as a call
    count that grows with ``n``."""

    @pytest.mark.parametrize("stencil", ["27pt", "7pt"])
    def test_call_count_does_not_grow_with_the_grid(self, stencil,
                                                    python_calls):
        def setup(nx):
            build_hierarchy(generate_problem(nx, stencil=stencil), levels=3)

        setup(8)    # one-time lazy imports and caches stay out of the count
        small, large = python_calls(lambda: setup(8)), python_calls(lambda: setup(24))
        assert large <= 1.05 * small, (small, large)
