"""Elementwise operations, reductions, dot, waxpby, ewise_lambda."""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.graphblas import descriptor as d
from repro.graphblas.vector import Vector
from repro.ref.kernels import compute_waxpby
from repro.util.errors import DimensionMismatch, InvalidValue


class TestEwiseAdd:
    def test_union_semantics(self):
        u = Vector.from_coo([0, 1], [1.0, 2.0], 4)
        v = Vector.from_coo([1, 2], [10.0, 20.0], 4)
        w = Vector.sparse(4)
        grb.ewise_add(w, None, u, v, grb.ops.plus)
        assert w.extract_element(0) == 1.0
        assert w.extract_element(1) == 12.0
        assert w.extract_element(2) == 20.0
        assert w.extract_element(3) is None

    def test_with_minus(self):
        u = Vector.from_dense([5.0, 5.0])
        v = Vector.from_dense([2.0, 3.0])
        w = Vector.dense(2)
        grb.ewise_add(w, None, u, v, grb.ops.minus)
        np.testing.assert_array_equal(w.to_dense(), [3.0, 2.0])

    def test_masked(self):
        u = Vector.from_dense([1.0, 2.0, 3.0])
        v = Vector.from_dense([1.0, 1.0, 1.0])
        mask = Vector.from_coo([1], [True], 3, dtype=bool)
        w = Vector.dense(3, 9.0)
        grb.ewise_add(w, mask, u, v, grb.ops.plus, desc=d.structural)
        np.testing.assert_array_equal(w.to_dense(), [9.0, 3.0, 9.0])

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.ewise_add(Vector.dense(2), None, Vector.dense(3),
                          Vector.dense(2), grb.ops.plus)


class TestEwiseMult:
    def test_intersection_semantics(self):
        u = Vector.from_coo([0, 1], [3.0, 4.0], 3)
        v = Vector.from_coo([1, 2], [5.0, 6.0], 3)
        w = Vector.sparse(3)
        grb.ewise_mult(w, None, u, v, grb.ops.times)
        assert w.extract_element(0) is None
        assert w.extract_element(1) == 20.0
        assert w.extract_element(2) is None

    def test_dense_inputs(self):
        u = Vector.from_dense([1.0, 2.0])
        v = Vector.from_dense([3.0, 4.0])
        w = Vector.dense(2)
        grb.ewise_mult(w, None, u, v, grb.ops.times)
        np.testing.assert_array_equal(w.to_dense(), [3.0, 8.0])


class TestApply:
    def test_unary(self):
        u = Vector.from_dense([1.0, 4.0, 9.0])
        w = Vector.dense(3)
        grb.apply(w, None, grb.ops.sqrt, u)
        np.testing.assert_array_equal(w.to_dense(), [1.0, 2.0, 3.0])

    def test_preserves_pattern(self):
        u = Vector.from_coo([1], [-5.0], 3)
        w = Vector.sparse(3)
        grb.apply(w, None, grb.ops.abs_, u)
        assert w.extract_element(1) == 5.0
        assert w.nvals == 1

    def test_masked(self):
        u = Vector.from_dense([-1.0, -2.0, -3.0])
        mask = Vector.from_coo([0, 2], [True, True], 3, dtype=bool)
        w = Vector.dense(3, 0.0)
        grb.apply(w, mask, grb.ops.ainv, u, desc=d.structural)
        np.testing.assert_array_equal(w.to_dense(), [1.0, 0.0, 3.0])


class TestAssignExtract:
    def test_assign_scalar_all(self):
        w = Vector.sparse(3)
        grb.assign(w, None, 5.0)
        np.testing.assert_array_equal(w.to_dense(), [5.0] * 3)

    def test_assign_scalar_masked(self):
        mask = Vector.from_coo([1], [True], 3, dtype=bool)
        w = Vector.dense(3, 1.0)
        grb.assign(w, mask, 9.0, desc=d.structural)
        np.testing.assert_array_equal(w.to_dense(), [1.0, 9.0, 1.0])

    def test_assign_vector(self):
        src = Vector.from_dense([7.0, 8.0, 9.0])
        w = Vector.dense(3)
        grb.assign(w, None, src)
        assert w == src

    def test_assign_vector_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.assign(Vector.dense(3), None, Vector.dense(2))

    def test_extract_subvector(self):
        u = Vector.from_dense([10.0, 11.0, 12.0, 13.0])
        w = Vector.dense(2)
        grb.extract(w, None, u, [3, 1])
        np.testing.assert_array_equal(w.to_dense(), [13.0, 11.0])

    def test_extract_pattern_respected(self):
        u = Vector.from_coo([0], [1.0], 3)
        w = Vector.dense(2, 5.0)
        grb.extract(w, None, u, [0, 2])
        assert w.extract_element(0) == 1.0
        assert w.extract_element(1) is None

    def test_extract_index_out_of_range(self):
        with pytest.raises(InvalidValue):
            grb.extract(Vector.dense(1), None, Vector.dense(2), [5])

    def test_extract_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.extract(Vector.dense(3), None, Vector.dense(5), [0, 1])


class TestReduceDot:
    def test_reduce_plus(self):
        u = Vector.from_dense([1.0, 2.0, 3.0])
        assert grb.reduce(u, grb.plus_monoid) == 6.0

    def test_reduce_skips_absent(self):
        u = Vector.from_coo([0, 2], [1.0, 3.0], 4)
        assert grb.reduce(u, grb.plus_monoid) == 4.0

    def test_reduce_empty_is_identity(self):
        assert grb.reduce(Vector.sparse(5), grb.plus_monoid) == 0
        assert grb.reduce(Vector.sparse(5), grb.min_monoid) == np.inf

    def test_reduce_matrix(self):
        A = grb.Matrix.from_dense([[1.0, 2.0], [3.0, 0.0]])
        assert grb.reduce_matrix(A, grb.plus_monoid) == 6.0

    def test_dot_dense(self):
        u = Vector.from_dense([1.0, 2.0])
        v = Vector.from_dense([3.0, 4.0])
        assert grb.dot(u, v) == 11.0

    def test_dot_intersection_only(self):
        u = Vector.from_coo([0, 1], [1.0, 2.0], 3)
        v = Vector.from_coo([1, 2], [10.0, 5.0], 3)
        assert grb.dot(u, v) == 20.0

    def test_dot_generic_semiring(self):
        u = Vector.from_dense([3.0, 1.0])
        v = Vector.from_dense([2.0, 5.0])
        # min_plus: min(3+2, 1+5) = 5
        assert grb.dot(u, v, semiring=grb.min_plus) == 5.0

    def test_dot_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.dot(Vector.dense(2), Vector.dense(3))

    def test_norm2(self):
        u = Vector.from_dense([3.0, 4.0])
        assert grb.norm2(u) == 5.0


class TestWaxpby:
    def test_basic(self):
        x = Vector.from_dense([1.0, 2.0])
        y = Vector.from_dense([10.0, 20.0])
        w = Vector.dense(2)
        grb.waxpby(w, 2.0, x, 0.5, y)
        np.testing.assert_array_equal(w.to_dense(), [7.0, 14.0])

    def test_alias_x(self):
        x = Vector.from_dense([1.0, 2.0])
        y = Vector.from_dense([10.0, 20.0])
        grb.waxpby(x, 1.0, x, 1.0, y)
        np.testing.assert_array_equal(x.to_dense(), [11.0, 22.0])

    def test_alias_y(self):
        x = Vector.from_dense([1.0, 2.0])
        y = Vector.from_dense([10.0, 20.0])
        grb.waxpby(y, 2.0, x, -1.0, y)
        np.testing.assert_array_equal(y.to_dense(), [-8.0, -16.0])

    def test_sparse_union(self):
        x = Vector.from_coo([0], [2.0], 3)
        y = Vector.from_coo([2], [3.0], 3)
        w = Vector.sparse(3)
        grb.waxpby(w, 10.0, x, 100.0, y)
        assert w.extract_element(0) == 20.0
        assert w.extract_element(1) is None
        assert w.extract_element(2) == 300.0

    def test_matches_numpy(self, rng):
        xv = rng.standard_normal(50)
        yv = rng.standard_normal(50)
        w = Vector.dense(50)
        grb.waxpby(w, -0.7, Vector.from_dense(xv), 1.3, Vector.from_dense(yv))
        np.testing.assert_allclose(w.to_dense(), -0.7 * xv + 1.3 * yv)

    @pytest.mark.parametrize("alias", ["none", "x", "y"])
    @pytest.mark.parametrize("alpha,beta", [(1.0, -0.3), (0.7, 1.0),
                                            (1.0, 1.0), (1.0, 0.0)])
    def test_unit_factor_is_skipped_bit_for_bit(self, alias, alpha, beta):
        """A factor of exactly 1.0 is not multiplied; the bits are the
        multiplied expression's, signed zeros and extremes included."""
        xv = np.array([-0.0, 0.0, 5e-324, -1e308, 1e308, 1.5, -2.25, np.inf])
        yv = np.array([0.0, -0.0, -5e-324, 1e308, 3.0, -1.5, 1e-300, 1.0])
        x, y = Vector.from_dense(xv), Vector.from_dense(yv)
        w = {"none": Vector.dense(xv.size), "x": x, "y": y}[alias]
        with np.errstate(all="ignore"):
            expect = alpha * xv + beta * yv
            grb.waxpby(w, alpha, x, beta, y)
        assert w.to_dense().tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "sparse", "ref"])
    @pytest.mark.parametrize("alias", ["fresh", "fresh, x is y", "w is x",
                                       "w is y", "w is x is y"])
    @pytest.mark.parametrize("alpha,beta", [(2.0, 3.0), (1.0, 1.0)])
    def test_every_aliasing_pattern(self, rng, kind, alias, alpha, beta):
        """Out-of-place ``alpha*x + beta*y`` whichever operands are one
        vector; ``w is x is y`` used to scale ``y`` with ``w`` (``8 v``
        for ``5 v``) on the dense path and in ``repro.ref``."""
        n = 12
        xv = rng.standard_normal(n)
        yv = xv if "x is y" in alias else rng.standard_normal(n)
        # sparse: x lacks entry 2, y (unless it is x) entries 0 and 1
        x_has = np.ones(n, dtype=bool)
        y_has = x_has.copy()
        if kind == "sparse":
            x_has[2] = False
            y_has = x_has if yv is xv else np.arange(n) > 1
        present = x_has | y_has
        want = (np.where(x_has, alpha * xv, 0.0)
                + np.where(y_has, beta * yv, 0.0))

        def vec(values, has):
            if kind == "ref":
                return values.copy()
            return Vector.from_coo(np.flatnonzero(has), values[has], n)
        x = vec(xv, x_has)
        y = x if yv is xv else vec(yv, y_has)
        w = {"w is x": x, "w is y": y, "w is x is y": x}.get(
            alias, vec(np.zeros(n), np.zeros(n, dtype=bool)))
        if kind == "ref":
            compute_waxpby(w, alpha, x, beta, y)
            got, got_present = w, present
        else:
            grb.waxpby(w, alpha, x, beta, y)
            got, got_present = w._values, w._present
        np.testing.assert_array_equal(got_present, present)
        assert got[present].tobytes() == want[present].tobytes()


class TestEwiseLambda:
    def test_masked_update(self):
        x = Vector.from_dense([1.0, 2.0, 3.0])
        mask = Vector.from_coo([0, 2], [True, True], 3, dtype=bool)

        def double(idx, xv):
            xv[idx] *= 2

        grb.ewise_lambda(double, mask, x)
        np.testing.assert_array_equal(x.to_dense(), [2.0, 2.0, 6.0])

    def test_multiple_vectors(self):
        x = Vector.from_dense([1.0, 1.0])
        y = Vector.from_dense([3.0, 4.0])

        def add_in(idx, xv, yv):
            xv[idx] += yv[idx]

        grb.ewise_lambda(add_in, None, x, y)
        np.testing.assert_array_equal(x.to_dense(), [4.0, 5.0])

    def test_requires_presence(self):
        x = Vector.from_coo([0], [1.0], 3)
        mask = Vector.from_coo([1], [True], 3, dtype=bool)
        with pytest.raises(InvalidValue):
            grb.ewise_lambda(lambda idx, xv: None, mask, x)

    def test_no_vectors_rejected(self):
        with pytest.raises(InvalidValue):
            grb.ewise_lambda(lambda idx: None, None)

    def test_version_bumped(self):
        x = Vector.from_dense([1.0])
        v0 = x.version
        grb.ewise_lambda(lambda idx, xv: None, None, x)
        assert x.version > v0

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.ewise_lambda(lambda idx, a, b: None, None,
                             Vector.dense(2), Vector.dense(3))


class TestApplyBind:
    def test_bind_first_minus(self):
        u = Vector.from_dense([0.25, 0.75])
        w = Vector.dense(2)
        grb.apply_bind_first(w, None, grb.ops.minus, 1.0, u)
        np.testing.assert_array_equal(w.to_dense(), [0.75, 0.25])

    def test_bind_second_times(self):
        u = Vector.from_dense([2.0, 4.0])
        w = Vector.dense(2)
        grb.apply_bind_second(w, None, grb.ops.times, u, 0.5)
        np.testing.assert_array_equal(w.to_dense(), [1.0, 2.0])

    def test_bind_second_pow(self):
        u = Vector.from_dense([2.0, 3.0])
        w = Vector.dense(2)
        grb.apply_bind_second(w, None, grb.ops.pow_, u, 2)
        np.testing.assert_array_equal(w.to_dense(), [4.0, 9.0])

    def test_bind_preserves_pattern(self):
        u = Vector.from_coo([1], [5.0], 3)
        w = Vector.sparse(3)
        grb.apply_bind_first(w, None, grb.ops.plus, 10.0, u)
        assert w.nvals == 1 and w.extract_element(1) == 15.0

    def test_bind_masked_with_accum(self):
        u = Vector.from_dense([1.0, 2.0])
        mask = Vector.from_coo([1], [True], 2, dtype=bool)
        w = Vector.from_dense([100.0, 100.0])
        grb.apply_bind_second(w, mask, grb.ops.times, u, 3.0,
                              accum=grb.ops.plus, desc=d.structural)
        np.testing.assert_array_equal(w.to_dense(), [100.0, 106.0])

    def test_bind_first_order_matters(self):
        u = Vector.from_dense([10.0])
        w1 = Vector.dense(1)
        w2 = Vector.dense(1)
        grb.apply_bind_first(w1, None, grb.ops.div, 100.0, u)   # 100/10
        grb.apply_bind_second(w2, None, grb.ops.div, u, 100.0)  # 10/100
        assert w1.extract_element(0) == 10.0
        assert w2.extract_element(0) == 0.1

    def test_bind_size_check(self):
        with pytest.raises(DimensionMismatch):
            grb.apply_bind_first(Vector.dense(2), None, grb.ops.plus, 1.0,
                                 Vector.dense(3))
