"""The substrate subsystem: providers, registry, selection, bit-exactness.

The load-bearing guarantee is the one the paper's architecture rests
on: the storage format / kernel provider behind a ``Matrix`` is
invisible to algorithm code.  Every provider must match the scipy CSR
reference **bit for bit** — same values, same signed zeros — on mxv,
masked mxv, the transpose descriptor, the fused RBGS path, and whole
CG+MG solves.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphblas as grb
from repro.graphblas import substrate
from repro.graphblas.matrix import _MASK_CACHE_LIMIT
from repro.graphblas.substrate import (
    BlockedDenseProvider,
    CsrProvider,
    KernelProvider,
    SellCSigmaProvider,
)
from repro.hpcg.cg import pcg
from repro.hpcg.coloring import color_masks, lattice_coloring
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.hpcg.smoothers import RBGSSmoother
from repro.util.errors import InvalidValue

common = settings(max_examples=25,
                  suppress_health_check=[HealthCheck.too_slow], deadline=None)

ALL_PROVIDERS = [
    CsrProvider,
    SellCSigmaProvider,
    BlockedDenseProvider,
]
NON_REF = [p for p in ALL_PROVIDERS if p is not CsrProvider]


def random_csr(rng, n, m, density=0.2):
    mat = sp.random(n, m, density=density, random_state=rng, format="csr")
    mat.sort_indices()
    return mat


def _stencil(nx, stencil):
    return generate_problem(nx, stencil=stencil).A.to_scipy()


def _dense_tall(n=32768, m=16):
    rng = np.random.default_rng(13)
    return sp.csr_matrix((rng.random((n, m)) < 0.4).astype(np.float64))


def _skewed(n=32768):
    # one megarow + singleton rows: row-length cv >> 2
    rows = np.concatenate([np.zeros(n // 2, dtype=np.int64),
                           np.arange(1, n, 50, dtype=np.int64)])
    cols = np.concatenate([np.arange(n // 2, dtype=np.int64),
                           np.zeros(rows.size - n // 2, dtype=np.int64)])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


#: what an unpinned matrix may look like; every one resolves to CSR
UNPINNED_SHAPES = {
    "tiny": lambda: sp.identity(4, format="csr"),
    "hpcg27-32": lambda: _stencil(32, "27pt"),
    "lap7-40": lambda: _stencil(40, "7pt"),
    "dense-32768": _dense_tall,
    "skewed-32768": _skewed,
}


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def csr_and_x(draw, max_n=24):
    """A random CSR (possibly with empty rows, negative values, zeros)
    plus a conforming dense vector."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, min(n * m, 4 * max_n)))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
        min_size=nnz, max_size=nnz, unique=True,
    ))
    vals = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=len(cells),
        max_size=len(cells),
    ))
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    csr = sp.csr_matrix((np.array(vals, dtype=np.float64), (rows, cols)),
                        shape=(n, m))
    csr.sort_indices()
    x = np.array(
        draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                      min_size=m, max_size=m)),
        dtype=np.float64,
    )
    return csr, x


# ---------------------------------------------------------------------------
# provider-level bit-exact equivalence (the tentpole contract)
# ---------------------------------------------------------------------------

class TestProviderEquivalence:
    @pytest.mark.parametrize("cls", NON_REF)
    @common
    @given(data=csr_and_x())
    def test_mxv_bit_identical_random(self, cls, data):
        csr, x = data
        want = CsrProvider(csr).mxv(x)
        got = cls(csr).mxv(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # signed zeros too: padding must be masked, not added
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("cls", NON_REF)
    @common
    @given(data=csr_and_x())
    def test_extract_rows_bit_identical(self, cls, data):
        csr, x = data
        rows = np.arange(0, csr.shape[0], 2, dtype=np.int64)
        want = CsrProvider(csr).extract_rows(rows).mxv(x)
        got = cls(csr).extract_rows(rows).mxv(x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cls", NON_REF)
    def test_mxv_bit_identical_stencil(self, cls, problem8, rng):
        csr = problem8.A.to_scipy()
        x = rng.standard_normal(problem8.n)
        assert np.array_equal(cls(csr).mxv(x), CsrProvider(csr).mxv(x))

    @pytest.mark.parametrize("cls", NON_REF)
    def test_transpose_bit_identical(self, cls, problem8, rng):
        csr_t = problem8.A.to_scipy().T.tocsr()
        csr_t.sort_indices()
        x = rng.standard_normal(problem8.n)
        assert np.array_equal(cls(csr_t).mxv(x), CsrProvider(csr_t).mxv(x))

    @pytest.mark.parametrize("cls", NON_REF)
    @pytest.mark.parametrize("kwargs", [{}, None])
    def test_awkward_shapes(self, cls, kwargs, rng):
        """Sizes that straddle chunk/block boundaries, plus empties."""
        if kwargs is None:
            kwargs = ({"chunk": 3, "sigma": 5}
                      if cls is SellCSigmaProvider else {"block_rows": 3})
        for n, m in [(1, 1), (2, 37), (33, 5), (63, 64), (65, 1)]:
            csr = random_csr(rng, n, m, density=0.3)
            x = rng.standard_normal(m)
            got = cls(csr, **kwargs).mxv(x)
            assert np.array_equal(got, CsrProvider(csr).mxv(x)), (n, m)

    @pytest.mark.parametrize("cls", ALL_PROVIDERS)
    def test_empty_matrix(self, cls):
        csr = sp.csr_matrix((5, 7))
        prov = cls(csr)
        assert np.array_equal(prov.mxv(np.ones(7)), np.zeros(5))
        assert prov.nnz == 0 and prov.stored_entries() == 0

    @pytest.mark.parametrize("cls", ALL_PROVIDERS)
    def test_duplicate_entries_canonicalised(self, cls):
        """Raw CSRs may carry duplicate coordinates; every provider must
        merge them (a dense block cannot represent duplicates)."""
        dup = sp.csr_matrix(
            (np.array([1.0, 2.0]), np.array([0, 0]), np.array([0, 2])),
            shape=(1, 1))
        prov = cls(dup)
        assert prov.nnz == 1
        assert prov.mxv(np.array([1.0]))[0] == 3.0
        m = grb.Matrix.from_scipy(dup, substrate=cls.name)
        assert m.nvals == 1 and m.extract_element(0, 0) == 3.0
        # canonicalisation must not mutate the caller's matrix in place
        assert dup.nnz == 2

    @pytest.mark.parametrize("cls", NON_REF)
    def test_extract_rows_keeps_format_parameters(self, cls):
        kwargs = ({"chunk": 8, "sigma": 8} if cls is SellCSigmaProvider
                  else {"block_rows": 7})
        csr = sp.random(40, 30, density=0.3,
                        random_state=np.random.default_rng(7), format="csr")
        sub = cls(csr, **kwargs).extract_rows(np.arange(0, 40, 2))
        for attr, val in kwargs.items():
            assert getattr(sub, attr) == val

    @pytest.mark.parametrize("cls", NON_REF)
    def test_bool_falls_back_to_scipy_semantics(self, cls):
        csr = sp.csr_matrix(np.array([[True, False], [True, True]]))
        x = np.array([True, True])
        assert np.array_equal(cls(csr).mxv(x), CsrProvider(csr).mxv(x))


class TestProviderInterface:
    @pytest.mark.parametrize("cls", ALL_PROVIDERS)
    def test_surface(self, cls, problem4):
        prov = cls(problem4.A.to_scipy())
        assert isinstance(prov, KernelProvider)
        assert prov.shape == (problem4.n, problem4.n)
        assert prov.row_nnz.sum() == prov.nnz
        assert prov.stored_entries() >= prov.nnz
        flops, nbytes = prov.mxv_traffic()
        assert flops == 2 * prov.nnz and nbytes > 0
        f2, b2 = prov.fused_mxv_traffic(3)
        assert f2 > flops
        # the reduce/ewise cold paths read the canonical storage
        assert prov.reduce_values().size == prov.nnz
        assert prov.csr.nnz == prov.nnz

    @pytest.mark.parametrize("cls", ALL_PROVIDERS)
    def test_row_presence_is_computed_once_and_shared(self, cls, problem4):
        """``mxv`` hands the same mask to every write-back, so it must
        not be writable; the flag is what the fused residual asks."""
        full = cls(problem4.A.to_scipy())
        assert full.rows_all_present and full.row_present.all()
        holed = cls(sp.csr_matrix(([2.0, 3.0], ([0, 3], [1, 0])),
                                  shape=(4, 4)))
        assert not holed.rows_all_present
        assert holed.row_present.tolist() == [True, False, False, True]
        assert holed.row_present is holed.row_present
        with pytest.raises(ValueError):
            holed.row_present[1] = True
        # and the write-back only reads it: two products, same presence
        A = grb.Matrix.from_scipy(holed.csr, substrate=cls.name)
        for _ in range(2):
            w = grb.Vector.dense(4, 9.0)
            grb.mxv(w, None, A, grb.Vector.dense(4, 1.0))
            assert w.to_coo()[0].tolist() == [0, 3]

    def test_padded_formats_price_their_padding(self, rng):
        """A skewed matrix must cost more in padded formats than CSR."""
        rows = np.concatenate([np.zeros(50, dtype=np.int64),
                               np.arange(1, 40, dtype=np.int64)])
        cols = np.concatenate([np.arange(50, dtype=np.int64),
                               np.zeros(39, dtype=np.int64)])
        csr = sp.csr_matrix(
            (np.ones(89), (rows, cols)), shape=(40, 50))
        sell = SellCSigmaProvider(csr, chunk=8, sigma=8)
        assert sell.stored_entries() > sell.nnz
        assert sell.mxv_traffic()[1] > CsrProvider(csr).mxv_traffic()[1]


# ---------------------------------------------------------------------------
# registry + the selection rule (pin > REPRO_SUBSTRATE > CSR)
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        assert set(substrate.available()) >= {"csr", "sellcs", "blocked"}

    def test_get_unknown_raises(self):
        with pytest.raises(InvalidValue, match="unknown substrate"):
            substrate.get("hyperspeed")

    def test_register_custom_provider(self, monkeypatch):
        class EchoProvider(CsrProvider):
            name = "Echo-Test"  # mixed case: env forcing must still work

        substrate.register(EchoProvider)
        try:
            assert substrate.get("Echo-Test") is EchoProvider
            m = grb.Matrix.from_dense([[1.0, 2.0]], substrate="Echo-Test")
            assert m.substrate == "Echo-Test"
            monkeypatch.setenv(substrate.ENV_VAR, "Echo-Test")
            assert substrate.forced() == "Echo-Test"
        finally:
            substrate.registry._REGISTRY.pop("Echo-Test")

    def test_register_refuses_to_shadow_builtin(self):
        class Impostor(CsrProvider):
            name = "csr"

        with pytest.raises(InvalidValue, match="already registered"):
            substrate.register(Impostor)
        assert substrate.get("csr") is CsrProvider
        # re-registering the same class is a no-op, not an error
        substrate.register(CsrProvider)
        # and explicit replacement is possible, then restorable
        substrate.register(Impostor, replace=True)
        try:
            assert substrate.get("csr") is Impostor
        finally:
            substrate.register(CsrProvider, replace=True)

    def test_env_force_and_validation(self, monkeypatch):
        monkeypatch.setenv(substrate.ENV_VAR, "sellcs")
        assert substrate.forced() == "sellcs"
        m = grb.Matrix.from_dense(np.eye(3))
        assert m.substrate == "sellcs"
        monkeypatch.setenv(substrate.ENV_VAR, "auto")
        assert substrate.forced() is None
        monkeypatch.setenv(substrate.ENV_VAR, "tyop")
        with pytest.raises(InvalidValue):
            substrate.forced()

    def test_explicit_pin_beats_env_force(self, monkeypatch):
        monkeypatch.setenv(substrate.ENV_VAR, "sellcs")
        m = grb.Matrix.from_dense(np.eye(3), substrate="blocked")
        assert m.substrate == "blocked"

    def test_set_substrate_roundtrip(self, problem4, rng, monkeypatch):
        monkeypatch.delenv(substrate.ENV_VAR, raising=False)
        m = grb.Matrix.from_scipy(problem4.A.to_scipy())
        x = grb.Vector.from_dense(rng.standard_normal(problem4.n))
        y0, y1 = grb.Vector.dense(problem4.n), grb.Vector.dense(problem4.n)
        grb.mxv(y0, None, m, x)
        m.set_substrate("blocked")
        assert m.substrate == "blocked"
        grb.mxv(y1, None, m, x)
        assert np.array_equal(y0.to_dense(), y1.to_dense())
        m.set_substrate(None)
        assert m.substrate == "csr"  # unpinned, unforced -> CSR


    @pytest.mark.parametrize("shape", UNPINNED_SHAPES)
    def test_resolution_order(self, shape, monkeypatch):
        """Pin > env force > CSR, whatever the matrix looks like: the
        ledger's two ex-threshold-crossing operators and a dense and a
        skewed matrix of >= 32768 rows all default to CSR."""
        csr = UNPINNED_SHAPES[shape]()
        monkeypatch.delenv(substrate.ENV_VAR, raising=False)
        assert substrate.resolve(csr) == "csr"
        assert grb.Matrix.from_scipy(csr).substrate == "csr"
        assert substrate.resolve(csr, "sellcs") == "sellcs"
        monkeypatch.setenv(substrate.ENV_VAR, "blocked")
        assert substrate.resolve(csr) == "blocked"
        assert substrate.resolve(csr, "sellcs") == "sellcs"


# ---------------------------------------------------------------------------
# Matrix integration: operations, caches, perf events
# ---------------------------------------------------------------------------

@pytest.fixture(params=["csr", "sellcs", "blocked"])
def pinned_problem8(request):
    return generate_problem(8, substrate=request.param), request.param


class TestMatrixIntegration:
    def test_masked_mxv_and_transpose_match_reference(self, pinned_problem8, rng):
        problem, name = pinned_problem8
        ref = generate_problem(8)
        assert problem.A.substrate == name
        x = grb.Vector.from_dense(rng.standard_normal(problem.n))
        mask = grb.Vector.from_coo(
            np.arange(0, problem.n, 3), np.ones(len(range(0, problem.n, 3)), bool),
            problem.n, dtype=bool)
        for desc in (grb.descriptors.structural,
                     grb.descriptors.structural | grb.descriptors.transpose_matrix):
            y1 = grb.Vector.dense(problem.n)
            y2 = grb.Vector.dense(problem.n)
            grb.mxv(y1, mask, problem.A, x, desc=desc)
            grb.mxv(y2, mask, ref.A, x, desc=desc)
            assert np.array_equal(y1.to_dense(), y2.to_dense())

    def test_rbgs_bit_identical_across_substrates(self, pinned_problem8, rng):
        problem, _ = pinned_problem8
        ref = generate_problem(8)
        colors = color_masks(lattice_coloring(problem.grid))
        r = grb.Vector.from_dense(rng.standard_normal(problem.n))
        z1 = grb.Vector.dense(problem.n)
        z2 = grb.Vector.dense(problem.n)
        RBGSSmoother(problem.A, problem.A_diag, colors).smooth(z1, r, sweeps=2)
        RBGSSmoother(ref.A, ref.A_diag, colors).smooth(z2, r, sweeps=2)
        assert np.array_equal(z1.to_dense(), z2.to_dense())

    def test_cg_mg_residual_history_bit_identical(self, pinned_problem8):
        """The acceptance criterion: full CG+MG, same residuals, bitwise."""
        problem, _ = pinned_problem8
        ref = generate_problem(8)

        def solve(p):
            hierarchy = build_hierarchy(p, levels=2)
            x = p.x0.dup()
            res = pcg(p.A, p.b, x, preconditioner=MGPreconditioner(hierarchy),
                      max_iters=8)
            return res

        got, want = solve(problem), solve(ref)
        assert got.residuals == want.residuals  # bit-exact float equality
        assert got.iterations == want.iterations

    def test_perf_events_carry_format(self, rng):
        m = grb.Matrix.from_scipy(
            generate_problem(4).A.to_scipy(), substrate="sellcs")
        x = grb.Vector.from_dense(rng.standard_normal(m.nrows))
        y = grb.Vector.dense(m.nrows)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            grb.mxv(y, None, m, x)
        (event,) = log.events
        assert event.fmt == "sellcs"
        assert log.total("bytes", fmt="sellcs") == event.bytes
        assert log.by_format()["sellcs"] == event.bytes

    def test_formats_price_differently(self, problem8, rng):
        """Same op stream, different byte totals per substrate."""
        x = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        totals = {}
        for name in ("csr", "sellcs", "blocked"):
            m = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
            y = grb.Vector.dense(problem8.n)
            log = grb.backend.EventLog()
            with grb.backend.collect(log):
                grb.mxv(y, None, m, x)
            totals[name] = log.total("bytes", fmt=name)
        assert totals["sellcs"] != totals["csr"]
        assert totals["blocked"] != totals["csr"]

    def test_mutation_invalidates_provider(self):
        m = grb.Matrix.from_dense([[1.0, 2.0], [0.0, 3.0]],
                                  substrate="sellcs")
        y = grb.Vector.dense(2)
        grb.mxv(y, None, m, grb.Vector.from_dense([1.0, 1.0]))
        m.set_element(0, 0, 5.0)
        grb.mxv(y, None, m, grb.Vector.from_dense([1.0, 1.0]))
        assert y.to_dense().tolist() == [7.0, 3.0]

    def test_dup_preserves_pin(self):
        m = grb.Matrix.from_dense(np.eye(3), substrate="blocked")
        assert m.dup().substrate == "blocked"
        assert m.transpose().substrate == "blocked"


class TestMaskCacheLRU:
    def test_cache_bounded(self, problem4):
        A = problem4.A
        A.provider()  # realise the provider first
        for i in range(3 * _MASK_CACHE_LIMIT):
            A._rows_substructure((i, 0), np.array([i % problem4.n]))
        assert len(A._mask_cache) <= _MASK_CACHE_LIMIT

    def test_lru_evicts_least_recently_used(self, problem4):
        A = problem4.A
        A._mask_cache.clear()
        rows = np.array([0, 1])
        first = A._rows_substructure(("first", 0), rows)
        for i in range(_MASK_CACHE_LIMIT - 1):
            A._rows_substructure((i, 0), rows)
        # touch "first" again: it becomes most-recent and must survive
        assert A._rows_substructure(("first", 0), rows) is first
        A._rows_substructure(("overflow", 0), rows)
        assert A._rows_substructure(("first", 0), rows) is first

    def test_fifo_would_have_evicted(self, problem4):
        """The distinguishing case vs the old FIFO eviction."""
        A = problem4.A
        A._mask_cache.clear()
        rows = np.array([2, 3])
        keep = A._rows_substructure(("keep", 0), rows)
        for i in range(_MASK_CACHE_LIMIT):  # > limit-1 inserts
            A._rows_substructure((i, 0), rows)
            A._rows_substructure(("keep", 0), rows)  # keep it hot
        assert A._rows_substructure(("keep", 0), rows) is keep


# ---------------------------------------------------------------------------
# distributed executors are substrate-agnostic
# ---------------------------------------------------------------------------

class TestDistSubstrate:
    @pytest.mark.parametrize("name", ["sellcs", "blocked"])
    def test_halo_spmv_bit_identical(self, name, problem8, rng):
        from repro.dist import Grid3DPartition, LocalSpmvExecutor
        A = problem8.A.to_scipy()
        part = Grid3DPartition(problem8.grid, 4)
        owners = part.owner(np.arange(problem8.n))
        x = rng.standard_normal(problem8.n)
        ref = LocalSpmvExecutor(A, owners, 4, substrate="csr").spmv(x)
        got = LocalSpmvExecutor(A, owners, 4, substrate=name).spmv(x)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", ["sellcs", "blocked"])
    def test_halo_rbgs_bit_identical(self, name, problem8, rng):
        from repro.dist import Grid3DPartition, LocalRBGSExecutor
        from repro.hpcg.coloring import lattice_coloring
        A = problem8.A.to_scipy()
        part = Grid3DPartition(problem8.grid, 4)
        owners = part.owner(np.arange(problem8.n))
        colors = lattice_coloring(problem8.grid)
        r = rng.standard_normal(problem8.n)
        z_ref = np.zeros(problem8.n)
        z_got = np.zeros(problem8.n)
        LocalRBGSExecutor(A, owners, 4, colors,
                          substrate="csr").smooth(z_ref, r, sweeps=2)
        ex = LocalRBGSExecutor(A, owners, 4, colors, substrate=name)
        ex.smooth(z_got, r, sweeps=2)
        assert np.array_equal(z_got, z_ref)
        # RBGS computes with per-colour blocks only: the whole-matrix
        # node providers must not have been built along the way
        assert all(node._provider is None for node in ex.base.nodes)
