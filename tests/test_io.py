"""MatrixMarket round trips and random generators."""

import io

import numpy as np
import pytest

from repro import graphblas as grb
from repro.graphblas.io import mmread, mmwrite, random_matrix, random_vector
from repro.util.errors import InvalidValue


class TestMatrixMarket:
    def test_roundtrip_file(self, tmp_path):
        A = grb.Matrix.from_dense([[1.5, 0.0], [0.0, -2.25]])
        path = tmp_path / "a.mtx"
        mmwrite(path, A, comment="test matrix")
        B = mmread(path)
        assert (A.to_scipy() != B.to_scipy()).nnz == 0

    def test_roundtrip_stream(self):
        A = grb.Matrix.from_coo([0, 3], [1, 2], [7.0, 8.0], 4, 4)
        buf = io.StringIO()
        mmwrite(buf, A)
        buf.seek(0)
        B = mmread(buf)
        assert B.nrows == 4 and B.nvals == 2
        assert B.extract_element(3, 2) == 8.0

    def test_values_exact(self, tmp_path):
        val = 1.0 / 3.0
        A = grb.Matrix.from_coo([0], [0], [val], 1, 1)
        path = tmp_path / "v.mtx"
        mmwrite(path, A)
        assert mmread(path).extract_element(0, 0) == val

    def test_bad_header(self):
        with pytest.raises(InvalidValue):
            mmread(io.StringIO("not a matrix\n1 1 0\n"))

    def test_truncated_body(self):
        with pytest.raises(InvalidValue):
            mmread(io.StringIO("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"))

    @pytest.mark.parametrize("text, found", [
        ("%%MatrixMarket matrix coordinate real symmetric\n"
         "2 2 2\n1 1 4.0\n2 1 -1.0\n", "symmetric"),
        ("%%MatrixMarket matrix coordinate pattern general\n"
         "2 2 1\n1 2\n", "pattern"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n"
         "0.0\n1.0\n", "array"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n",
         "'2 2'"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
         "'1 2'"),
    ], ids=["symmetric", "pattern", "array", "two-token-size", "short-entry"])
    def test_unsupported_or_malformed_is_one_line_invalid_value(
            self, text, found):
        with pytest.raises(InvalidValue, match=found) as err:
            mmread(io.StringIO(text))
        assert "\n" not in str(err.value)


class TestRandomGenerators:
    def test_matrix_density(self, rng):
        A = random_matrix(20, 30, 0.1, rng=rng)
        assert A.nvals == round(0.1 * 20 * 30)
        assert A.shape == (20, 30)

    def test_matrix_zero_density(self, rng):
        assert random_matrix(5, 5, 0.0, rng=rng).nvals == 0

    def test_matrix_full_density(self, rng):
        assert random_matrix(4, 4, 1.0, rng=rng).nvals == 16

    def test_matrix_bad_density(self):
        with pytest.raises(InvalidValue):
            random_matrix(3, 3, 1.5)

    def test_vector_density(self, rng):
        v = random_vector(100, 0.25, rng=rng)
        assert v.nvals == 25

    def test_vector_reproducible(self):
        a = random_vector(50, 0.3, rng=np.random.default_rng(7))
        b = random_vector(50, 0.3, rng=np.random.default_rng(7))
        assert a == b
