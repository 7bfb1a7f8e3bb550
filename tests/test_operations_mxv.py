"""mxv / vxm / mxm: semirings, masks, descriptors, accumulation."""

import tracemalloc

import numpy as np
import pytest

from repro import graphblas as grb
from repro.graphblas import descriptor as d
from repro.graphblas import operations as ops
from repro.graphblas.matrix import Matrix
from repro.graphblas.vector import Vector
from repro.util.errors import DimensionMismatch, InvalidValue, OutputAliasing


def dense_mxv(A, x, add, mul, identity):
    """Reference mxv over dense arrays with explicit pattern handling."""
    rows, cols, vals = A.to_coo()
    n = A.nrows
    out = [identity] * n
    touched = [False] * n
    xp = {i: v for i, v in zip(*x.to_coo())}
    for r, c, v in zip(rows, cols, vals):
        if c in xp:
            prod = mul(v, xp[c])
            out[r] = prod if not touched[r] else add(out[r], prod)
            touched[r] = True
    return out, touched


@pytest.fixture()
def A():
    return Matrix.from_dense(
        [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]
    )


@pytest.fixture()
def x():
    return Vector.from_dense([1.0, 2.0, 3.0])


class TestPlainMxv:
    def test_plus_times(self, A, x):
        y = Vector.dense(3)
        grb.mxv(y, None, A, x)
        np.testing.assert_array_equal(y.to_dense(), [5.0, 6.0, 19.0])

    def test_matches_scipy(self, A, x):
        y = Vector.dense(3)
        grb.mxv(y, None, A, x)
        np.testing.assert_allclose(
            y.to_dense(), A.to_scipy() @ x.to_dense()
        )

    def test_transpose_descriptor(self, A, x):
        y = Vector.dense(3)
        grb.mxv(y, None, A, x, desc=d.transpose_matrix)
        np.testing.assert_allclose(
            y.to_dense(), A.to_scipy().T @ x.to_dense()
        )

    def test_rectangular(self):
        R = Matrix.from_coo([0, 1], [2, 5], [1.0, 1.0], 2, 6)
        xf = Vector.from_dense(np.arange(6, dtype=float))
        y = Vector.dense(2)
        grb.mxv(y, None, R, xf)
        np.testing.assert_array_equal(y.to_dense(), [2.0, 5.0])

    def test_rectangular_transpose(self):
        R = Matrix.from_coo([0, 1], [2, 5], [1.0, 1.0], 2, 6)
        xc = Vector.from_dense([7.0, 9.0])
        y = Vector.dense(6)
        grb.mxv(y, None, R, xc, desc=d.transpose_matrix)
        expected = np.zeros(6)
        expected[2], expected[5] = 7.0, 9.0
        np.testing.assert_array_equal(y.to_dense(), expected)

    def test_size_mismatch(self, A):
        with pytest.raises(DimensionMismatch):
            grb.mxv(Vector.dense(4), None, A, Vector.dense(3))
        with pytest.raises(DimensionMismatch):
            grb.mxv(Vector.dense(3), None, A, Vector.dense(2))

    def test_aliasing_rejected(self, A, x):
        with pytest.raises(OutputAliasing):
            grb.mxv(x, None, A, x)

    def test_row_with_no_entries_absent(self):
        A = Matrix.from_coo([0], [0], [1.0], 2, 2)  # row 1 empty
        y = Vector.dense(2, 99.0)
        grb.mxv(y, None, A, Vector.from_dense([3.0, 4.0]))
        assert y.extract_element(0) == 3.0
        assert y.extract_element(1) is None


class TestSemirings:
    @pytest.mark.parametrize("semiring", [
        grb.min_plus, grb.max_plus, grb.max_times, grb.min_times,
        grb.plus_first, grb.plus_second,
    ])
    def test_generic_matches_reference(self, A, x, semiring):
        y = Vector.dense(3)
        grb.mxv(y, None, A, x, semiring=semiring)
        expected, touched = dense_mxv(
            A, x, semiring.add.op, semiring.mul, semiring.add.identity
        )
        got = y.to_dense()
        for i in range(3):
            assert touched[i]
            assert got[i] == pytest.approx(expected[i])

    def test_lor_land_reachability(self):
        # adjacency step under the boolean semiring
        A = Matrix.from_coo([0, 1], [1, 2], [True, True], 3, 3, dtype=bool)
        frontier = Vector.from_coo([0], [True], 3, dtype=bool)
        nxt = Vector.sparse(3, dtype=bool)
        grb.mxv(nxt, None, A, frontier, semiring=grb.lor_land,
                desc=d.transpose_matrix)
        assert nxt.extract_element(1) == True  # noqa: E712
        assert nxt.extract_element(0) is None

    def test_sparse_input_skips_absent(self, A):
        xs = Vector.from_coo([0], [1.0], 3)  # only x[0] present
        y = Vector.dense(3)
        grb.mxv(y, None, A, xs)
        # row 1 has pattern {1} only; x[1] absent => no entry
        assert y.extract_element(1) is None
        assert y.extract_element(0) == 2.0
        assert y.extract_element(2) == 4.0


class TestMasks:
    def test_structural_mask_rows_only(self, A, x):
        mask = Vector.from_coo([0, 2], [True, True], 3, dtype=bool)
        y = Vector.dense(3, -7.0)
        grb.mxv(y, mask, A, x, desc=d.structural)
        got = y.to_dense()
        assert got[0] == 5.0 and got[2] == 19.0
        assert got[1] == -7.0  # untouched outside the mask

    def test_value_mask_false_not_selected(self, A, x):
        mask = Vector.from_coo([0, 1], [True, False], 3, dtype=bool)
        y = Vector.dense(3, -7.0)
        grb.mxv(y, mask, A, x)  # value mask: only index 0 selected
        got = y.to_dense()
        assert got[0] == 5.0 and got[1] == -7.0 and got[2] == -7.0

    def test_structural_mask_ignores_values(self, A, x):
        mask = Vector.from_coo([0, 1], [True, False], 3, dtype=bool)
        y = Vector.dense(3, -7.0)
        grb.mxv(y, mask, A, x, desc=d.structural)
        got = y.to_dense()
        assert got[0] == 5.0 and got[1] == 6.0  # False entry still selected

    def test_inverted_mask(self, A, x):
        mask = Vector.from_coo([0, 2], [True, True], 3, dtype=bool)
        y = Vector.dense(3, -7.0)
        grb.mxv(y, mask, A, x, desc=d.structural | d.invert_mask)
        got = y.to_dense()
        assert got[1] == 6.0
        assert got[0] == -7.0 and got[2] == -7.0

    def test_replace_clears_unmasked(self, A, x):
        mask = Vector.from_coo([0], [True], 3, dtype=bool)
        y = Vector.dense(3, -7.0)
        grb.mxv(y, mask, A, x, desc=d.structural | d.replace)
        assert y.extract_element(0) == 5.0
        assert y.extract_element(1) is None
        assert y.extract_element(2) is None

    def test_invert_without_mask_raises(self, A, x):
        with pytest.raises(InvalidValue):
            grb.mxv(Vector.dense(3), None, A, x, desc=d.invert_mask)

    def test_mask_size_mismatch(self, A, x):
        with pytest.raises(DimensionMismatch):
            grb.mxv(Vector.dense(3), Vector.sparse(4, dtype=bool), A, x)

    def test_masked_generic_semiring(self, A, x):
        mask = Vector.from_coo([2], [True], 3, dtype=bool)
        y = Vector.dense(3, 0.0)
        grb.mxv(y, mask, A, x, semiring=grb.min_plus, desc=d.structural)
        # row 2: min(4+1, 5+3) = 5
        assert y.extract_element(2) == 5.0
        assert y.extract_element(0) == 0.0


class TestAccum:
    def test_accum_plus(self, A, x):
        y = Vector.dense(3, 100.0)
        grb.mxv(y, None, A, x, accum=grb.ops.plus)
        np.testing.assert_array_equal(y.to_dense(), [105.0, 106.0, 119.0])

    def test_accum_only_new_written(self):
        A = Matrix.from_coo([0], [0], [1.0], 2, 2)
        y = Vector.from_coo([1], [50.0], 2)
        grb.mxv(y, None, A, Vector.from_dense([3.0, 0.0]), accum=grb.ops.plus)
        assert y.extract_element(0) == 3.0   # new entry
        assert y.extract_element(1) == 50.0  # old kept (no new value there)

    def test_accum_second_overwrites(self, A, x):
        y = Vector.dense(3, 100.0)
        grb.mxv(y, None, A, x, accum=grb.ops.second)
        np.testing.assert_array_equal(y.to_dense(), [5.0, 6.0, 19.0])

    @pytest.mark.parametrize("accum", [
        None, grb.ops.plus, grb.ops.min_, grb.ops.minus, grb.ops.second,
        grb.BinaryOp("avg", lambda a, b: (a + b) / 2),
    ])
    @pytest.mark.parametrize("desc", [d.default, d.replace, d.transpose_matrix])
    @pytest.mark.parametrize("semiring", [grb.plus_times, grb.min_plus])
    def test_unmasked_equals_all_true_mask(self, accum, desc, semiring):
        """No mask and a mask selecting every row are the same operation
        (the first merges whole vectors, the second by row index): equal
        values *and* presence, with empty rows, absent inputs and a
        partly absent output."""
        rng = np.random.default_rng(11)
        n = 40
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.08)
        dense[::7, :] = 0.0                   # rows ...
        dense[:, 3::9] = 0.0                  # ... and columns with no entry
        M = Matrix.from_dense(dense)
        if semiring is grb.min_plus:          # generic path: sparse input
            u = Vector.from_coo(np.arange(0, n, 2),
                                rng.standard_normal(n // 2), n)
        else:
            u = Vector.from_dense(rng.standard_normal(n))
        some = np.arange(0, n, 3)
        w0 = Vector.from_coo(some, rng.standard_normal(some.size), n)
        everything = Vector.dense(n, True, dtype=bool)
        got, want = w0.dup(), w0.dup()
        grb.mxv(got, None, M, u, semiring=semiring, desc=desc, accum=accum)
        grb.mxv(want, everything, M, u, semiring=semiring, desc=desc,
                accum=accum)
        np.testing.assert_array_equal(got._present, want._present)
        np.testing.assert_array_equal(got.to_dense(), want.to_dense())


class TestVxm:
    def test_vxm_is_transposed_mxv(self, A, x):
        y1 = Vector.dense(3)
        y2 = Vector.dense(3)
        grb.vxm(y1, None, x, A)
        grb.mxv(y2, None, A, x, desc=d.transpose_matrix)
        assert y1 == y2

    def test_vxm_with_transpose_flips_back(self, A, x):
        y1 = Vector.dense(3)
        y2 = Vector.dense(3)
        grb.vxm(y1, None, x, A, desc=d.transpose_matrix)
        grb.mxv(y2, None, A, x)
        assert y1 == y2


class TestMxm:
    def test_plus_times_matches_scipy(self, A):
        B = Matrix.from_dense([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        C = Matrix.identity(3)
        grb.mxm(C, None, A, B)
        expected = (A.to_scipy() @ B.to_scipy()).toarray()
        np.testing.assert_allclose(C.to_scipy().toarray(), expected)

    def test_generic_semiring_small(self):
        A = Matrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        B = Matrix.from_dense([[4.0, 0.0], [1.0, 5.0]])
        C = Matrix.identity(2)
        grb.mxm(C, None, A, B, semiring=grb.min_plus)
        # C[0,0] = min(1+4, 2+1) = 3 ; C[0,1] = 2+5 = 7
        assert C.extract_element(0, 0) == 3.0
        assert C.extract_element(0, 1) == 7.0
        # C[1,0] = 3+1 = 4 ; C[1,1] = 3+5 = 8
        assert C.extract_element(1, 0) == 4.0
        assert C.extract_element(1, 1) == 8.0

    def test_inner_dim_mismatch(self, A):
        B = Matrix.identity(4)
        with pytest.raises(DimensionMismatch):
            grb.mxm(Matrix.identity(3), None, A, B)

    def test_permutation_sandwich(self, A):
        """P' A P — the paper's row-grouping construct (Section III-A)."""
        perm = np.array([2, 0, 1])
        n = 3
        P = Matrix.from_coo(np.arange(n), perm, np.ones(n), n, n)
        tmp = Matrix.identity(n)
        grb.mxm(tmp, None, A, P)
        out = Matrix.identity(n)
        grb.mxm(out, None, P, tmp, desc=d.transpose_matrix)
        # (P' A P)[i, j] = A[inv(i), inv(j)] where P[k, perm[k]] = 1
        inv = np.argsort(perm)
        dense = A.to_scipy().toarray()
        expected = dense[np.ix_(inv, inv)]
        np.testing.assert_allclose(out.to_scipy().toarray(), expected)


class TestEvents:
    def test_mxv_records(self, A, x):
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            grb.mxv(Vector.dense(3), None, A, x)
        assert log.count("mxv") == 1
        assert log.total("flops", op="mxv") == 2 * A.nvals

    def test_label_propagates(self, A, x):
        log = grb.backend.EventLog()
        with grb.backend.collect(log), grb.backend.labelled("spmv"):
            grb.mxv(Vector.dense(3), None, A, x)
        assert log.events[0].label == "spmv"


class TestInPlaceProduct:
    """An unmasked plus-times product over dense float64 operands lands
    in the output's storage; everything it cannot serve goes through the
    ``_writeback`` merge, and both routes leave the same output."""

    @staticmethod
    def routes(monkeypatch, w, mask, A, u, **kwargs):
        """``grb.mxv`` as it runs, then with the in-place route declined:
        per route the output's value bits, presence, version bumps and
        events; and what the in-place route answered each time."""
        served, in_place = [], ops._mxv_in_place

        def spy(*args):
            served.append(in_place(*args))
            return served[-1]
        outs = []
        for route in (spy, lambda *args: False):
            monkeypatch.setattr(ops, "_mxv_in_place", route)
            got, log = w.dup(), grb.backend.EventLog()
            with grb.backend.collect(log):
                grb.mxv(got, mask, A, u, **kwargs)
            outs.append((got._values.tobytes(), got._present.tolist(),
                         got.version, log.events))
        return outs, served

    CASES = {
        "dense": ({}, [True]),
        "sparse": ({"w": "sparse"}, [True]),
        "empty-row": ({"A": "empty-row"}, [False]),
        "mask": ({"mask": True}, []),
        "accum": ({"accum": grb.ops.plus}, []),
        "replace": ({"desc": d.replace}, [False]),
        "transpose": ({"desc": d.transpose_matrix}, [False]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_output_as_the_writeback_route(self, monkeypatch, A, case):
        opts, verdicts = self.CASES[case]
        if opts.get("A") == "empty-row":
            A = Matrix.from_coo([0, 0, 2], [0, 2, 1], [2.0, -0.0, 4.0], 3, 3)
        w = (Vector.from_coo([1], [9.0], 3) if opts.get("w") == "sparse"
             else Vector.dense(3, 9.0))
        mask = (Vector.from_coo([0, 2], [True, True], 3, dtype=bool)
                if opts.get("mask") else None)
        u = Vector.from_dense([1.5, -0.0, 3.0])
        (fast, merged), served = self.routes(
            monkeypatch, w, mask, A, u, desc=opts.get("desc", d.default),
            accum=opts.get("accum"))
        assert served == verdicts
        assert fast == merged
        if case == "sparse":
            assert fast[1] == [True] * 3      # the output gets filled
        if case == "empty-row":
            assert fast[1] == [True, False, True]
        assert fast[2] == 1 and len(fast[3]) == 1

    def test_warm_product_lands_in_the_output(self, problem16):
        """No vector beyond the output: scipy's ``@`` result and the
        merge's copy are both gone (a padded provider's product still
        allocates: the CSR pin)."""
        A, n = Matrix(problem16.A.to_scipy(), substrate="csr"), problem16.n
        u = Vector.from_dense(np.random.default_rng(3).standard_normal(n))
        w = Vector.dense(n)
        grb.mxv(w, None, A, u)          # builds the provider
        buffer = w._values
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            grb.mxv(w, None, A, u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert w._values is buffer and peak < n * 8
        assert w._values.tobytes() == (A.to_scipy() @ u.to_dense()).tobytes()
