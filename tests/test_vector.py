"""The Vector container: construction, mutation, export, versioning."""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.graphblas import fused as fused_mod
from repro.graphblas.vector import Vector
from repro.util.errors import DimensionMismatch, DomainMismatch, InvalidValue


class TestConstruction:
    def test_sparse_empty(self):
        v = Vector.sparse(5)
        assert v.size == 5 and v.nvals == 0

    def test_dense_fill(self):
        v = Vector.dense(4, 2.5)
        assert v.nvals == 4
        np.testing.assert_array_equal(v.to_dense(), [2.5] * 4)

    def test_from_dense(self):
        v = Vector.from_dense([1.0, 2.0, 3.0])
        assert v.size == 3 and v.is_dense()

    def test_from_dense_dtype_override(self):
        v = Vector.from_dense([1, 2], dtype=np.float32)
        assert v.dtype == np.float32

    def test_from_dense_rejects_2d(self):
        with pytest.raises(InvalidValue):
            Vector.from_dense(np.zeros((2, 2)))

    def test_from_coo(self):
        v = Vector.from_coo([1, 3], [5.0, 7.0], 5)
        assert v.nvals == 2
        assert v.extract_element(3) == 7.0
        assert v.extract_element(0) is None

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidValue):
            Vector(-1)

    def test_zero_size_ok(self):
        v = Vector(0)
        assert v.size == 0 and v.nvals == 0

    def test_unsupported_dtype(self):
        with pytest.raises(DomainMismatch):
            Vector(3, dtype=np.complex64)

    def test_bool_vector(self):
        v = Vector.from_coo([0, 2], [True, True], 3, dtype=bool)
        assert v.dtype == np.bool_ and v.nvals == 2


class TestElementAccess:
    def test_set_get(self):
        v = Vector.sparse(4)
        v.set_element(2, 9.0)
        assert v.extract_element(2) == 9.0
        assert v.nvals == 1

    def test_remove(self):
        v = Vector.dense(3, 1.0)
        v.remove_element(1)
        assert v.extract_element(1) is None
        assert v.nvals == 2

    def test_out_of_range(self):
        v = Vector.sparse(3)
        with pytest.raises(InvalidValue):
            v.extract_element(3)
        with pytest.raises(InvalidValue):
            v.set_element(-1, 1.0)
        with pytest.raises(InvalidValue):
            v.remove_element(5)


class TestBuild:
    def test_build_simple(self):
        v = Vector.sparse(6)
        v.build([0, 5], [1.0, 2.0])
        assert v.nvals == 2 and v.extract_element(5) == 2.0

    def test_build_duplicates_require_dup_op(self):
        v = Vector.sparse(4)
        with pytest.raises(InvalidValue):
            v.build([1, 1], [1.0, 2.0])

    def test_build_duplicates_with_plus(self):
        v = Vector.sparse(4)
        v.build([1, 1, 2], [1.0, 2.0, 5.0], dup_op=grb.ops.plus)
        assert v.extract_element(1) == 3.0
        assert v.extract_element(2) == 5.0

    def test_build_duplicates_with_max(self):
        v = Vector.sparse(4)
        v.build([0, 0, 0], [3.0, 9.0, 1.0], dup_op=grb.ops.max_)
        assert v.extract_element(0) == 9.0

    def test_build_on_nonempty_raises(self):
        v = Vector.dense(3, 1.0)
        with pytest.raises(InvalidValue):
            v.build([0], [1.0])

    def test_build_index_out_of_range(self):
        v = Vector.sparse(3)
        with pytest.raises(InvalidValue):
            v.build([3], [1.0])

    def test_build_shape_mismatch(self):
        v = Vector.sparse(3)
        with pytest.raises(DimensionMismatch):
            v.build([0, 1], [1.0])


class TestWholeContainer:
    def test_clear(self):
        v = Vector.dense(3, 2.0)
        v.clear()
        assert v.nvals == 0 and v.size == 3

    def test_fill(self):
        v = Vector.sparse(3)
        v.fill(7.0)
        assert v.is_dense()
        np.testing.assert_array_equal(v.to_dense(), [7.0] * 3)

    def test_dup_independent(self):
        v = Vector.from_dense([1.0, 2.0])
        w = v.dup()
        w.set_element(0, 99.0)
        assert v.extract_element(0) == 1.0

    def test_to_coo_sorted(self):
        v = Vector.from_coo([3, 1], [9.0, 5.0], 5)
        idx, vals = v.to_coo()
        np.testing.assert_array_equal(idx, [1, 3])
        np.testing.assert_array_equal(vals, [5.0, 9.0])

    def test_to_dense_fill(self):
        v = Vector.from_coo([1], [2.0], 3)
        np.testing.assert_array_equal(v.to_dense(fill=-1.0), [-1.0, 2.0, -1.0])


class TestVersioning:
    def test_mutations_bump_version(self):
        v = Vector.sparse(3)
        versions = [v.version]
        v.set_element(0, 1.0)
        versions.append(v.version)
        v.fill(2.0)
        versions.append(v.version)
        v.remove_element(1)
        versions.append(v.version)
        v.clear()
        versions.append(v.version)
        assert versions == sorted(set(versions)), "each mutation bumps"

    def test_read_does_not_bump(self):
        v = Vector.dense(3, 1.0)
        before = v.version
        v.extract_element(0)
        v.to_dense()
        v.to_coo()
        assert v.version == before

    def test_is_dense_cache_follows_every_mutator(self, monkeypatch):
        """``is_dense()`` is cached on ``version``: read between every
        public writer of the presence pattern, it is never stale."""
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        n = 6
        A = grb.Matrix.from_dense(np.eye(n) + np.eye(n, k=1))
        holed = grb.Matrix.from_coo([0, 2], [1, 2], [1.0, 1.0], n, n)
        mask = Vector.from_coo([1, 4], [True, True], n)
        some = Vector.from_coo([0, 3], [1.0, 2.0], n)
        ones = Vector.dense(n, 1.0)
        v = Vector.sparse(n)
        steps = [
            lambda: v.fill(2.0),
            lambda: v.remove_element(2),
            lambda: v.set_element(2, 1.0),
            lambda: v.clear(),
            lambda: v.build(range(n), np.arange(n, dtype=float)),
            lambda: v.resize(n + 2),
            lambda: v.resize(n),
            lambda: grb.mxv(v, None, holed, ones),
            lambda: grb.mxv(v, None, A, ones),
            lambda: grb.mxv(v, mask, holed, ones,
                            desc=grb.descriptors.replace),
            lambda: grb.mxv(v, None, A, ones, accum=grb.ops.plus),
            lambda: grb.waxpby(v, 1.0, some, 2.0, some),
            lambda: grb.waxpby(v, 1.0, ones, 2.0, ones),
            lambda: grb.assign(v, mask, some, desc=grb.descriptors.replace),
            lambda: grb.assign(v, None, 3.0),
            lambda: grb.select_vector(v, grb.selectops.valuegt, ones, 2.0),
            lambda: grb.reduce_rows(v, A, grb.plus_monoid),
            # the fusion serves dense outputs only
            lambda: fused_mod.fused_spmv_waxpby(v, 1.0, ones, -1.0, A, ones),
            lambda: grb.reduce_rows(v, holed, grb.plus_monoid),
        ]
        answers = []
        for step in steps:
            assert step() is not False, "the fusion declined: nothing driven"
            answers.append(v.is_dense())
            assert answers[-1] == bool(v._present.all())
        # every writer but the fusion flips the answer, so a writer that
        # stopped bumping would serve the previous one
        assert answers == [True, False] * 8 + [True, True, False]


class TestEquality:
    def test_equal(self):
        a = Vector.from_coo([0, 2], [1.0, 2.0], 3)
        b = Vector.from_coo([0, 2], [1.0, 2.0], 3)
        assert a == b

    def test_different_pattern(self):
        a = Vector.from_coo([0], [1.0], 3)
        b = Vector.from_coo([1], [1.0], 3)
        assert a != b

    def test_different_values(self):
        a = Vector.from_coo([0], [1.0], 3)
        b = Vector.from_coo([0], [2.0], 3)
        assert a != b

    def test_different_size(self):
        assert Vector.dense(3, 1.0) != Vector.dense(4, 1.0)

    def test_hidden_values_ignored(self):
        # absent positions must not affect equality even if storage differs
        a = Vector.dense(3, 5.0)
        a.remove_element(1)
        b = Vector.from_coo([0, 2], [5.0, 5.0], 3)
        assert a == b

    def test_not_comparable_to_list(self):
        assert (Vector.dense(2, 1.0) == [1.0, 1.0]) is NotImplemented or True
