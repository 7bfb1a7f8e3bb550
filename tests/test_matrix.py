"""The Matrix container: construction, element access, caches."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import graphblas as grb
from repro.graphblas.matrix import Matrix
from repro.util.errors import DimensionMismatch, InvalidValue


def small():
    return Matrix.from_dense([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])


class TestConstruction:
    def test_from_dense_pattern(self):
        A = small()
        assert A.shape == (3, 3) and A.nvals == 5

    def test_from_coo(self):
        A = Matrix.from_coo([0, 1], [1, 0], [2.0, 3.0], 2, 2)
        assert A.extract_element(0, 1) == 2.0
        assert A.extract_element(1, 0) == 3.0
        assert A.extract_element(0, 0) is None

    def test_from_coo_duplicates_plus(self):
        A = Matrix.from_coo([0, 0], [0, 0], [1.0, 2.0], 1, 1,
                            dup_op=grb.ops.plus)
        assert A.extract_element(0, 0) == 3.0

    def test_from_coo_duplicates_max(self):
        A = Matrix.from_coo([0, 0, 0], [0, 0, 0], [5.0, 9.0, 2.0], 1, 1,
                            dup_op=grb.ops.max_)
        assert A.extract_element(0, 0) == 9.0

    @pytest.mark.parametrize("op, at_00, at_12", [
        (grb.ops.min_, 2.0, 3.0),
        (grb.ops.times, 80.0, 21.0),
        (grb.ops.minus, -5.0, 4.0),           # not associative: left fold
        (grb.ops.first, 5.0, 7.0),
        (grb.ops.second, 2.0, 3.0),
        (grb.BinaryOp("avg", lambda x, y: (x + y) / 2), 4.25, 5.0),
    ])
    def test_from_coo_duplicates_folded_in_input_order(self, op, at_00, at_12):
        # duplicates interleaved with other coordinates, not adjacent
        A = Matrix.from_coo([0, 1, 0, 2, 1, 0], [0, 2, 0, 1, 2, 0],
                            [5.0, 7.0, 8.0, 1.0, 3.0, 2.0], 3, 3, dup_op=op)
        assert A.nvals == 3
        assert A.extract_element(0, 0) == at_00
        assert A.extract_element(1, 2) == at_12
        assert A.extract_element(2, 1) == 1.0

    def test_from_coo_duplicates_no_op_raises(self):
        with pytest.raises(InvalidValue):
            Matrix.from_coo([0, 0], [0, 0], [1.0, 2.0], 1, 1)

    def test_from_coo_cancelling_duplicates(self):
        # the sum is zero but the coordinate was still given twice ...
        with pytest.raises(InvalidValue, match="duplicate"):
            Matrix.from_coo([0, 0], [1, 1], [1.0, -1.0], 2, 2)
        # ... and under plus the zero is a stored value, not an absent one
        A = Matrix.from_coo([0, 0], [1, 1], [1.0, -1.0], 2, 2,
                            dup_op=grb.ops.plus)
        assert A.nvals == 1 and A.extract_element(0, 1) == 0.0

    def test_from_coo_distinct_coordinates_in_a_huge_shape(self):
        # nrows * ncols >= 2**63: a product key r * ncols + c wraps in
        # int64 and (0, 0), (4, 0) collide; coordinates must not be hashed
        A = Matrix.from_coo([0, 4], [0, 0], [1.0, 2.0], 5, 2**62)
        assert A.nvals == 2
        assert A.extract_element(0, 0) == 1.0 and A.extract_element(4, 0) == 2.0
        B = Matrix.from_coo([0, 4, 4], [0, 0, 0], [1.0, 2.0, 5.0], 5, 2**62,
                            dup_op=grb.ops.max_)
        assert B.nvals == 2 and B.extract_element(4, 0) == 5.0

    def test_from_coo_out_of_range(self):
        with pytest.raises(InvalidValue):
            Matrix.from_coo([2], [0], [1.0], 2, 2)

    def test_from_coo_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix.from_coo([0, 1], [0], [1.0], 2, 2)

    def test_from_scipy_copies(self):
        src = sp.identity(3, format="csr")
        A = Matrix.from_scipy(src)
        src.data[:] = 99.0
        assert A.extract_element(0, 0) == 1.0

    def test_identity(self):
        eye = Matrix.identity(4)
        assert eye.nvals == 4
        assert all(eye.extract_element(i, i) == 1.0 for i in range(4))

    def test_from_dense_rejects_1d(self):
        with pytest.raises(InvalidValue):
            Matrix.from_dense([1.0, 2.0])

    def test_rectangular(self):
        A = Matrix.from_coo([0, 1], [3, 2], [1.0, 1.0], 2, 5)
        assert A.nrows == 2 and A.ncols == 5


class TestElementAccess:
    def test_extract_absent(self):
        assert small().extract_element(0, 1) is None

    def test_extract_out_of_range(self):
        with pytest.raises(InvalidValue):
            small().extract_element(3, 0)

    def test_set_existing(self):
        A = small()
        A.set_element(0, 0, 9.0)
        assert A.extract_element(0, 0) == 9.0

    def test_set_new_entry(self):
        A = small()
        before = A.nvals
        A.set_element(1, 2, 6.0)
        assert A.extract_element(1, 2) == 6.0
        assert A.nvals == before + 1

    def test_set_out_of_range(self):
        with pytest.raises(InvalidValue):
            small().set_element(0, 9, 1.0)


class TestWholeContainer:
    def test_dup_independent(self):
        A = small()
        B = A.dup()
        B.set_element(0, 0, -1.0)
        assert A.extract_element(0, 0) == 2.0

    def test_transpose(self):
        A = small()
        T = A.transpose()
        assert T.extract_element(0, 2) == 4.0
        assert T.extract_element(2, 0) == 1.0

    def test_diag_values(self):
        d = small().diag()
        np.testing.assert_array_equal(d.to_dense(), [2.0, 3.0, 5.0])

    def test_diag_absent_entries(self):
        A = Matrix.from_coo([0, 1], [1, 0], [1.0, 1.0], 2, 2)
        d = A.diag()
        assert d.nvals == 0

    def test_diag_stored_zero_is_present(self):
        A = Matrix.from_coo([0], [0], [0.0], 2, 2)
        d = A.diag()
        assert d.extract_element(0) == 0.0  # stored zero is an entry
        assert d.extract_element(1) is None

    def test_to_coo_roundtrip(self):
        A = small()
        r, c, v = A.to_coo()
        B = Matrix.from_coo(r, c, v, 3, 3)
        assert (A.to_scipy() != B.to_scipy()).nnz == 0

    def test_to_scipy_copy_isolation(self):
        A = small()
        out = A.to_scipy()
        out.data[:] = 0.0
        assert A.extract_element(0, 0) == 2.0


class TestBackendCaches:
    def test_transposed_cached(self):
        A = small()
        t1 = A._transposed_csr()
        t2 = A._transposed_csr()
        assert t1 is t2

    def test_set_element_invalidates(self):
        A = small()
        t1 = A._transposed_csr()
        A.set_element(0, 0, 42.0)
        t2 = A._transposed_csr()
        assert t1 is not t2
        assert t2[0, 0] == 42.0

    def test_mask_cache_hit(self):
        A = small()
        rows = np.array([0, 2])
        s1 = A._rows_substructure((1, 0), rows).csr
        s2 = A._rows_substructure((1, 0), rows).csr
        assert s1 is s2

    def test_mask_cache_respects_version_key(self):
        A = small()
        rows = np.array([0, 2])
        s1 = A._rows_substructure((1, 0), rows).csr
        s2 = A._rows_substructure((1, 1), rows).csr  # same mask id, new version
        assert s1 is not s2

    def test_mask_cache_transpose_separate(self):
        A = small()
        rows = np.array([0])
        plain = A._rows_substructure((1, 0), rows, transpose=False).csr
        transposed = A._rows_substructure((1, 0), rows, transpose=True).csr
        assert plain.shape == transposed.shape == (1, 3)
        assert (plain != transposed).nnz > 0  # different content for small()

    def test_version_bumps_on_mutation(self):
        A = small()
        v0 = A.version
        A.set_element(0, 0, 1.5)
        assert A.version > v0
