"""The V-cycle plan: the whole preconditioner application colour-major.

``MGPreconditioner`` offers every application to
:class:`repro.graphblas.fused.VCyclePlan` and runs Listing 1's
transcription (``mg_vcycle``) when the plan declines.  The contract,
enforced here: (i) plan and transcription agree bit for bit — values
and signed zeros — on ``z`` and on whole CG residual histories;
(ii) every decline returns the transcription's result and leaves the
plan usable, and under an ``EventLog`` the priced stream is the
primitives'; (iii) mutating an operator, diagonal, colour mask or ``R``
is seen by the next application; (iv) a traced application records the
transcription's spans; (v) a warm application's Python call count and
allocations do not grow with the grid; (vi) an application makes no
pass over an operator whose output nothing reads; (vii) the kernel's
compiled schedule, which every planned application runs, takes
``ref_mg_vcycle``'s steps in its order and the transcription's bits,
and an untraced application keeps the traced walk's timer keys and
counts.

Tests of the plan itself run armed even in the CI leg that sets
``REPRO_FUSED=0`` for the whole file (the ``armed`` fixture), and
assert that the plan *ran*.
"""

import dataclasses
import itertools
import tracemalloc
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphblas as grb
from repro import obs
from repro.dist import RefDistRun
from repro.graphblas import fused as fused_mod
from repro.graphblas import substrate
from repro.graphblas.substrate import csr as csr_mod
from repro.graphblas.substrate.csr import ColorMajorVCycle, execute
from repro.hpcg.cg import pcg
from repro.hpcg.coloring import color_masks, jones_plassmann_coloring
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy, mg_vcycle
from repro.hpcg.problem import generate_problem
from repro.hpcg.smoothers import JacobiSmoother, RBGSSmoother
from repro.ref import build_ref_hierarchy, ref_pcg
from repro.ref.multigrid import RefMGPreconditioner, ref_mg_vcycle
from repro.util.errors import DimensionMismatch, InvalidValue, OutputAliasing
from repro.util.timer import TimerRegistry
from test_fused_smoother import _held_bytes     # distinct buffers held

pytestmark = pytest.mark.skipif(
    substrate.registry.forced() is not None,
    reason="the plan binds to CSR colour-major sweeps")


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)


@pytest.fixture
def loads(monkeypatch):
    """``loads(M)``: every verdict of ``M``'s plan so far (True = the
    plan ran the application), forgotten once read."""
    calls = []
    load = fused_mod.VCyclePlan.load

    def spy(self, z, r):
        calls.append((self, load(self, z, r)))
        return calls[-1][1]

    def verdicts(M):
        mine = [ran for plan, ran in calls if plan is M._plan]
        calls[:] = [call for call in calls if call[0] is not M._plan]
        return mine

    monkeypatch.setattr(fused_mod.VCyclePlan, "load", spy)
    return verdicts


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def jp_factory(fused):
    def factory(A, A_diag, colors):
        masks = color_masks(jones_plassmann_coloring(A, seed=5))
        return RBGSSmoother(A, A_diag, masks, fused=fused)
    return factory


def hierarchy(problem, levels, scheme="auto", fused=None):
    if scheme == "jp":
        return build_hierarchy(problem, levels=levels,
                               smoother_factory=jp_factory(fused))
    return build_hierarchy(problem, levels=levels, fused=fused)


def apply(M, r):
    z = grb.Vector.dense(r.size, 7.0)      # M overwrites whatever z held
    M(z, r)
    return z.to_dense()


def random_rhs(n, seed=0):
    return grb.Vector.from_dense(
        np.random.default_rng(seed).standard_normal(n))


GRIDS = {"4^3": (4, 4, 4), "8^3": (8, 8, 8), "16^3": (16, 16, 16),
         "8x4x2": (8, 4, 2)}
LATTICE = [
    (stencil, grid, levels, scheme)
    for stencil in ("27pt", "7pt")
    for grid, dims in GRIDS.items()
    for levels in (1, 2, 3, 4)
    for scheme in ("auto", "jp")
    if all(d % 2 ** (levels - 1) == 0 for d in dims)
]


# ---------------------------------------------------------------------------
# (i) plan == transcription
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("armed")
class TestPlanEqualsTranscription:
    """With the lattice colouring the injection points are the colour a
    symmetric pass relaxes last, so after a pre-smooth the restricted
    residual is rounding noise; the Jones-Plassmann colourings are where
    the grid transfers carry weight."""

    @pytest.mark.parametrize("stencil,grid,levels,scheme", LATTICE)
    def test_z_and_residual_histories(self, loads, stencil, grid, levels,
                                      scheme):
        problem = generate_problem(*GRIDS[grid], stencil=stencil)
        plan_h = hierarchy(problem, levels, scheme)
        oracle_h = hierarchy(problem, levels, scheme, fused=False)
        r = random_rhs(problem.n)
        M, oracle = MGPreconditioner(plan_h), MGPreconditioner(oracle_h)
        z = apply(M, r)
        assert_bit_identical(z, apply(oracle, r))
        got = pcg(problem.A, problem.b, problem.x0.dup(), preconditioner=M,
                  max_iters=4)
        want = pcg(problem.A, problem.b, problem.x0.dup(),
                   preconditioner=oracle, max_iters=4)
        assert got.residuals == want.residuals
        assert_bit_identical(got.x.to_dense(), want.x.to_dense())
        ran = loads(M)
        assert ran and all(ran)
        assert not any(loads(oracle))

    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
            1.7e308, 1.0, -1.5]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_signed_zeros_subnormals_and_huge_values(self, loads, problem4,
                                                     data):
        """``+0.0 + 1.0*x`` flips ``-0.0``; subnormals, and overflow to
        inf/nan, must come out of both paths alike.  An ``r`` holding
        ``-0.0`` is declined to the transcription; the same values with
        ``+0.0`` in its place run the plan."""
        values = np.array(data.draw(st.lists(
            st.sampled_from(self.EDGE)
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=problem4.n, max_size=problem4.n)))
        scheme = data.draw(st.sampled_from(["auto", "jp"]))
        M = MGPreconditioner(hierarchy(problem4, 3, scheme))
        oracle = MGPreconditioner(hierarchy(problem4, 3, scheme, fused=False))
        unsigned = np.where(values == 0.0, 0.0, values)
        with np.errstate(all="ignore"):
            for v in (values, unsigned):
                r = grb.Vector.from_dense(v)
                assert_bit_identical(apply(M, r), apply(oracle, r))
        assert loads(M) == [not np.signbit(values[values == 0.0]).any(), True]


# ---------------------------------------------------------------------------
# (ii) declines
# ---------------------------------------------------------------------------

def transcription(problem, levels=3):
    """What Listing 1 returns for ``r = b``: every fast path pinned off."""
    return apply(MGPreconditioner(
        build_hierarchy(problem, levels=levels, fused=False)), problem.b)


@pytest.mark.usefixtures("armed")
class TestDeclines:
    @staticmethod
    def check_usable(loads, M, problem):
        """After a decline the same preconditioner serves the next call."""
        assert_bit_identical(apply(M, problem.b), transcription(problem))
        assert loads(M) == [True]

    def test_kill_switch_is_read_per_call(self, loads, problem8,
                                          monkeypatch):
        M = MGPreconditioner(build_hierarchy(problem8, levels=3))
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        assert_bit_identical(apply(M, problem8.b), transcription(problem8))
        assert loads(M) == [False]
        monkeypatch.delenv(fused_mod.ENV_FUSED)
        self.check_usable(loads, M, problem8)

    def test_hierarchy_pinned_to_the_transcription(self, loads, problem8):
        M = MGPreconditioner(build_hierarchy(problem8, levels=3, fused=False))
        assert_bit_identical(apply(M, problem8.b), transcription(problem8))
        assert loads(M) == [False]

    def test_smoother_that_is_not_rbgs(self, loads, problem8):
        def jacobi(fused):
            return MGPreconditioner(build_hierarchy(
                problem8, levels=3, smoother_factory=lambda A, A_diag, colors:
                JacobiSmoother(A, A_diag, fused=fused)))
        fast, slow = jacobi(None), jacobi(False)
        assert_bit_identical(apply(fast, problem8.b), apply(slow, problem8.b))
        assert loads(fast) == [False]

    def test_one_level_without_an_armed_smoother(self, loads, problem8):
        def mixed(A, A_diag, colors):
            return RBGSSmoother(A, A_diag, colors,
                                fused=A.nrows != problem8.n // 8)
        M = MGPreconditioner(build_hierarchy(
            problem8, levels=3, smoother_factory=mixed))
        assert_bit_identical(apply(M, problem8.b), transcription(problem8))
        assert loads(M) == [False]

    @pytest.mark.parametrize("name", ["sellcs", "blocked"])
    def test_sweep_that_is_not_colour_major(self, loads, problem8, name):
        problem = generate_problem(8, substrate=name)
        M = MGPreconditioner(build_hierarchy(problem, levels=3))
        assert_bit_identical(apply(M, problem.b), transcription(problem8))
        assert loads(M) == [False]

    def test_overlapping_colour_masks(self, loads, problem8):
        """A row in two classes: CSR hands out the natural-order sweep."""
        def overlapped(fused):
            h = build_hierarchy(problem8, levels=2, fused=fused)
            row = int(h.smoother.colors[1].to_coo()[0][0])
            h.smoother.colors[0].set_element(row, True)
            return MGPreconditioner(h)
        M = overlapped(None)
        assert_bit_identical(apply(M, problem8.b),
                             apply(overlapped(False), problem8.b))
        assert loads(M) == [False]

    @pytest.mark.parametrize("edit", ["scaled", "second-entry",
                                      "shared-column"])
    def test_restriction_that_is_not_an_injection(self, loads, problem8,
                                                  edit):
        def damaged(fused):
            h = hierarchy(problem8, 3, "jp", fused)
            rows, cols, _ = h.R.to_coo()
            if edit == "scaled":
                h.R.set_element(3, int(cols[3]), 2.0)
            elif edit == "second-entry":
                h.R.set_element(3, int(cols[3]) + 1, 1.0)
            else:   # two coarse points inject from one fine point
                cols[3] = cols[4]
                h.R = grb.Matrix.from_coo(rows, cols, np.ones(rows.size),
                                          h.R.nrows, h.R.ncols)
            return MGPreconditioner(h)
        M = damaged(None)
        assert_bit_identical(apply(M, problem8.b),
                             apply(damaged(False), problem8.b))
        assert loads(M) == [False]

    def test_sparse_vectors(self, loads, problem8):
        M = MGPreconditioner(build_hierarchy(problem8, levels=3))
        z = grb.Vector.sparse(problem8.n)   # filled before it is read
        M(z, problem8.b)
        assert_bit_identical(z.to_dense(), transcription(problem8))
        holed = problem8.b.dup()
        holed.remove_element(5)
        with pytest.raises(InvalidValue):
            M(grb.Vector.dense(problem8.n), holed)
        assert loads(M) == [False, False]
        self.check_usable(loads, M, problem8)

    def test_non_float64_vectors(self, loads, problem8):
        M = MGPreconditioner(build_hierarchy(problem8, levels=3))
        oracle = MGPreconditioner(
            build_hierarchy(problem8, levels=3, fused=False))
        r32 = grb.Vector.from_dense(
            problem8.b.to_dense().astype(np.float32))
        got, want = (grb.Vector.dense(problem8.n, dtype=np.float32)
                     for _ in range(2))
        M(got, r32)
        oracle(want, r32)
        assert_bit_identical(got.to_dense(), want.to_dense())
        assert loads(M) == [False]
        self.check_usable(loads, M, problem8)

    def test_mis_sized_vectors(self, loads, problem8):
        M = MGPreconditioner(build_hierarchy(problem8, levels=3))
        with pytest.raises(DimensionMismatch):
            M(grb.Vector.dense(problem8.n + 1), problem8.b)
        with pytest.raises(DimensionMismatch):
            M(grb.Vector.dense(problem8.n), grb.Vector.dense(3))
        assert loads(M) == [False, False]
        self.check_usable(loads, M, problem8)

    def test_event_log_runs_the_primitives(self, loads, problem8):
        """An ``EventLog`` prices Listing 1, so Listing 1 runs: the
        stream is what ``mg_vcycle`` emits (8^3, three levels: the
        totals of the commit before the plan existed)."""
        h = build_hierarchy(problem8, levels=3)
        M = MGPreconditioner(h)
        log, direct = grb.backend.EventLog(), grb.backend.EventLog()
        with grb.backend.collect(log):
            got = apply(M, problem8.b)
        assert loads(M) == [False]
        z = grb.Vector.dense(problem8.n)
        with grb.backend.collect(direct):
            mg_vcycle(h, z, problem8.b)
        assert log.events == direct.events
        assert_bit_identical(got, z.to_dense())
        assert (len(log.events), log.total("bytes"), log.total("flops"),
                log.total("nnz")) == (86, 847744, 128032, 58512)
        assert {e.label for e in log.events if e.op == "mxv"} == {
            "restrict@L0", "restrict@L1", "refine@L0", "refine@L1"}
        self.check_usable(loads, M, problem8)

    def test_negative_zero_residual(self, loads, problem8):
        """The one decline a value makes: ``-0.0`` in ``r``.  Only the
        fine ``r`` is checked — restriction adds ``+0.0``."""
        M = MGPreconditioner(build_hierarchy(problem8, levels=3))
        rv = problem8.b.to_dense()
        rv[::5] = -0.0
        r = grb.Vector.from_dense(rv)
        assert_bit_identical(apply(M, r), apply(MGPreconditioner(
            build_hierarchy(problem8, levels=3, fused=False)), r))
        assert loads(M) == [False]
        assert M._plan.declined == "-0.0 residual"
        self.check_usable(loads, M, problem8)

    def test_every_decline_names_its_reason(self, problem8, monkeypatch):
        """``declined`` keeps why the last ``load`` returned False, None
        once one runs: each reason, in the order ``load`` checks them."""
        def reason(M, z=None, r=problem8.b):
            z = grb.Vector.dense(problem8.n) if z is None else z
            with np.errstate(all="ignore"):
                M(z, r)
            return M._plan.declined

        def armed(problem=problem8, edit=None):
            h = build_hierarchy(problem, levels=3)
            if edit:
                edit(h)
            return MGPreconditioner(h)

        M = armed()
        assert reason(M) is None
        got = []
        with monkeypatch.context() as m:
            m.setenv(fused_mod.ENV_FUSED, "0")
            got.append(reason(M))
        with grb.backend.collect(lambda event: None):
            got.append(reason(M))
        with monkeypatch.context() as m:     # a fixed fact of a build
            m.setattr(csr_mod, "CONTRACTS", True)
            got.append(reason(armed()))
        got.append(reason(MGPreconditioner(
            build_hierarchy(problem8, levels=3, fused=False))))
        holed = problem8.A.to_scipy()           # row 0 stores nothing
        holed.data[holed.indptr[0]:holed.indptr[1]] = 0.0
        holed.eliminate_zeros()
        got.append(reason(armed(dataclasses.replace(
            problem8, A=grb.Matrix.from_scipy(holed)))))
        got.append(reason(armed(edit=lambda h: h.R.set_element(
            3, int(h.R.to_coo()[1][3]), 2.0))))
        got.append(reason(M, z=grb.Vector.sparse(problem8.n)))
        rv = problem8.b.to_dense()
        rv[7] = -0.0
        got.append(reason(M, r=grb.Vector.from_dense(rv)))
        assert got == list(fused_mod.VCyclePlan.DECLINES)
        assert reason(M) is None


def test_ambient_kill_switch(loads, problem16):
    """No ``armed`` fixture: in CI's ``REPRO_FUSED=0`` leg the plan
    declines all ten applications, elsewhere it runs them, and either
    way the history is ``repro.ref``'s."""
    M = MGPreconditioner(build_hierarchy(problem16, levels=4))
    got = pcg(problem16.A, problem16.b, problem16.x0.dup(),
              preconditioner=M, max_iters=10)
    want = ref_pcg(problem16.A.to_scipy(), problem16.b.to_dense(),
                   np.zeros(problem16.n), max_iters=10,
                   preconditioner=RefMGPreconditioner(
                       build_ref_hierarchy(problem16, levels=4)))
    assert got.residuals == want.residuals
    assert loads(M) == [fused_mod.fused_enabled()] * 10


class TestBoundaryErrors:
    """Fail at the boundary, in both twins: an aliased call used to
    return all zeros."""

    def test_aliased_output_raises_before_the_fill(self, problem8):
        M = MGPreconditioner(build_hierarchy(problem8, levels=3))
        v = problem8.b.dup()
        with pytest.raises(OutputAliasing):
            M(v, v)
        assert v == problem8.b

    def test_ref_aliased_output_raises_before_the_fill(self, problem8):
        M = RefMGPreconditioner(build_ref_hierarchy(problem8, levels=3))
        v = problem8.b.to_dense()
        for alias in (v, v[:]):
            with pytest.raises(OutputAliasing):
                M(alias, v)
        assert np.array_equal(v, problem8.b.to_dense())


# ---------------------------------------------------------------------------
# (iii) invalidation
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("armed")
class TestInvalidation:
    @staticmethod
    def edit(h, what):
        coarse = h.coarser
        if what == "operator":
            coarse.A.set_element(0, 1, -3.5)
        elif what == "fine-operator":
            h.A.set_element(2, 3, -0.25)
        elif what == "diagonal":
            coarse.A_diag.set_element(4, 31.0)
        elif what == "colour-mask":       # the row leaves every class
            row = int(coarse.smoother.colors[2].to_coo()[0][0])
            coarse.smoother.colors[2].remove_element(row)
        elif what == "R-same-values":     # a bump, the injection unmoved
            h.R.set_element(0, int(h.R.to_coo()[1][0]), 1.0)
        elif what == "R-scaled":          # no longer an injection
            h.R.set_element(3, int(h.R.to_coo()[1][3]), 2.0)
        else:
            raise AssertionError(what)

    @pytest.mark.parametrize("what", ["operator", "fine-operator", "diagonal",
                                      "colour-mask", "R-same-values",
                                      "R-scaled"])
    def test_next_application_sees_the_edit(self, loads, what):
        problem = generate_problem(8)       # edited below: not the fixture
        h = hierarchy(problem, 3, "jp")
        M = MGPreconditioner(h)
        before = apply(M, problem.b)
        self.edit(h, what)
        assert loads(M) == [True]
        got = apply(M, problem.b)
        assert loads(M) == [what != "R-scaled"]
        assert_bit_identical(got, apply(MGPreconditioner(h), problem.b))
        oracle = hierarchy(problem, 3, "jp", fused=False)
        if what != "fine-operator":         # level 0 shares problem.A
            self.edit(oracle, what)
        assert_bit_identical(got, apply(MGPreconditioner(oracle), problem.b))
        assert np.array_equal(got, before) == (what == "R-same-values")


# ---------------------------------------------------------------------------
# (iv) the traced application records the transcription's spans
# ---------------------------------------------------------------------------

def listing(keys):
    """A timer registry that lists the keys it measures, in order."""
    return SimpleNamespace(
        measure=lambda key: keys.append(key) or nullcontext())


def span_tree(ctx):
    """(name, parent name, args) per span, in closing order."""
    by_id = {s.id: s for s in ctx.tracer.spans}
    return [(s.name, getattr(by_id.get(s.parent_id), "name", None), s.args)
            for s in ctx.tracer.spans]


@pytest.mark.usefixtures("armed")
class TestTracedApplication:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_same_spans_as_the_transcription(self, loads, problem8, levels):
        M = MGPreconditioner(build_hierarchy(problem8, levels=levels))

        def walked():
            # a collector declines the plan and nothing else: the
            # smoothers stay fused, as they are inside the plan
            with grb.backend.collect(lambda event: None):
                return apply(M, problem8.b)
        apply(M, problem8.b), walked()    # lazy builds record events too
        assert loads(M) == [True, False]
        with obs.run() as plan_ctx:
            got = apply(M, problem8.b)
        with obs.run() as walk_ctx:
            want = walked()
        assert loads(M) == [True, False]
        assert_bit_identical(got, want)
        assert span_tree(plan_ctx) == span_tree(walk_ctx)
        sweeps = [s for s in plan_ctx.tracer.spans
                  if s.name == "smoother/rbgs_sweep"]
        assert [(s.args["level"], s.args["fused"]) for s in sweeps] == [
            (level, True) for level in
            [*range(levels), *range(levels - 2, -1, -1)]]
        assert plan_ctx.metrics.snapshot() == walk_ctx.metrics.snapshot()
        visits = plan_ctx.metrics.counter("mg_level_visits_total")
        assert [visits.value(level=i) for i in range(levels)] == [1] * levels

    def test_timer_keys_and_counts(self, loads, problem8):
        plan_t, walk_t = TimerRegistry(), TimerRegistry()
        h = build_hierarchy(problem8, levels=3)
        M = MGPreconditioner(h, timers=plan_t)
        apply(M, problem8.b)
        mg_vcycle(h, grb.Vector.dense(problem8.n), problem8.b, walk_t)
        assert loads(M) == [True]
        counts = {k: c for k, (_, c) in plan_t.as_dict(counts=True).items()}
        assert counts == {k: c for k, (_, c)
                          in walk_t.as_dict(counts=True).items()}
        assert counts["mg/L0/rbgs"] == 2 and counts["mg/L2/rbgs"] == 1
        assert counts["mg/L1/restrict"] == counts["mg/L1/prolong"] == 1


# ---------------------------------------------------------------------------
# (v) deterministic cost guards
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("armed")
class TestCostGuards:
    @staticmethod
    def warm(nx, levels=3):
        problem = generate_problem(nx)
        M = MGPreconditioner(build_hierarchy(problem, levels=levels))
        z, r = grb.Vector.dense(problem.n), random_rhs(problem.n)
        with obs.disabled():    # what the guards measure: the schedule
            M(z, r)
            M(z, r)
        return M, z, r

    def test_python_calls_do_not_grow_with_the_grid(self, loads,
                                                    python_calls):
        """One warm application is a fixed number of calls per level
        (229 here since it runs the compiled schedule; 329 while each
        step was a kernel method, 439 while every application formatted
        its names and rebuilt each level's sweep key, and the
        per-primitive walk with its context managers, f-strings and
        container round trips took 1229)."""
        counts = {}
        for nx in (8, 16):
            M, z, r = self.warm(nx)
            with obs.disabled():
                counts[nx] = python_calls(lambda: M(z, r))
            assert loads(M) == [True] * 3
        assert counts[16] <= 1.05 * counts[8]
        assert counts[16] <= 240

    @pytest.mark.parametrize("nx", [16, 24])
    def test_warm_application_allocates_a_constant(self, loads, nx):
        """Every vector pass lands in a buffer the plan or a sweep
        already holds: ``z[inj] += zc + 0.0`` written naively allocates
        two n_c temporaries per level (47 897 bytes at 16^3 and 154 905
        at 24^3 before the plan)."""
        M, z, r = self.warm(nx, levels=4)
        with obs.disabled():
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                M(z, r)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert loads(M) == [True] * 3
        assert peak <= 16 * 1024

    def test_no_environment_read_between_the_levels(self, loads,
                                                    python_calls):
        """The obs context is resolved once per application (24 reads
        of ``REPRO_TRACE`` before: one per level and smoother pass)."""
        M, z, r = self.warm(8)
        reads = python_calls(lambda: M(z, r),
                             obs.context.trace_env_enabled.__code__)
        assert loads(M) == [True] * 3
        assert reads <= 1

    def test_plan_holds_one_vector_and_one_index_array_per_level(self):
        """Per transfer: an ``n_c`` scratch vector and the injection — and
        not one operator entry: the residual's rows are the one plain copy
        the fine sweep keeps for every twin, 12 bytes an entry and an
        ``indptr``."""
        M, _, _ = self.warm(16, levels=4)
        seen = set()
        levels = M.hierarchy.levels()
        assert all(_held_bytes(lvl.smoother.plan, seen) for lvl in levels)
        plains = [lvl.smoother.plan._current_sweep()._plains
                  for lvl in levels]
        assert [len(p) for p in plains] == [1, 1, 1, 0]
        rows = _held_bytes([list(p.values()) for p in plains], seen)
        assert rows == sum(12 * injected_nnz(lvl) + 4 * (lvl.coarser.n + 1)
                           for lvl in levels[:-1])
        extra = _held_bytes(M._plan, seen)
        assert 0 < extra <= sum(2 * 8 * coarse.n for coarse in levels[1:])


# ---------------------------------------------------------------------------
# (vi) no pass over the operator whose output nothing reads
# ---------------------------------------------------------------------------

def negated(problem):
    """``-A x = b``: every diagonal entry of the fine operator negative."""
    A = grb.Matrix.from_scipy(-problem.A.to_scipy())
    return dataclasses.replace(problem, A=A, A_diag=grb.diag(A))


def injected_nnz(level):
    """``nnz(A[injection])`` off the natural-order containers."""
    return int(level.A.to_scipy()[level.grid.injection_indices()].nnz)


def sweep_nnz(level):
    """Entries each colour step of one symmetric sweep reads, in order:
    the stored ones and every row's two-entry tail."""
    sweep = level.smoother.plan._current_sweep()
    return [sweep.nnzs[k] + 2 * sweep.sizes[k]
            for k in level.smoother.symmetric_order]


@pytest.mark.usefixtures("armed")
class TestNoUnreadPass:
    @pytest.mark.parametrize("stencil", ["27pt", "7pt"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_entries_one_application_reads(self, loads, entries_read,
                                           levels, stencil):
        """Per non-coarsest level the residual reads ``nnz(A[injection])``
        (its ``n`` columns), a colour step its stored entries and two
        more a row (``2n`` columns: ``z`` and ``r``), and the first colour
        relaxed from a zero iterate reads nothing (before: ``5 nnz`` a
        level — two sweeps and a full residual)."""
        problem = generate_problem(8, stencil=stencil)
        top = hierarchy(problem, levels)
        M = MGPreconditioner(top)
        apply(M, problem.b)                 # builds the kernel
        entries_read()
        apply(M, problem.b)
        assert loads(M) == [True, True]
        got = entries_read()
        for level in top.levels():
            sweep = sweep_nnz(level)
            if level.coarser is None:       # pre-smoothed only
                assert got.get(2 * level.n, []) == sweep[1:]
                assert level.n not in got
                continue
            assert got[2 * level.n] == sweep[1:] + sweep
            assert got[level.n] == [injected_nnz(level)]
            assert injected_nnz(level) < level.A.nvals / 4

    EDGE_R = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.5])

    @pytest.mark.parametrize("operator", ["A", "-A"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_zero_start_is_bit_identical(self, loads, levels, operator):
        """``r_k - (+0.0)`` is ``r_k``: signed zeros, subnormals and
        values that overflow come out as the product would make them,
        under a negative diagonal too.  With ``-0.0`` in ``r`` the plan
        declines; without it, it runs."""
        problem = generate_problem(8)
        if operator == "-A":
            problem = negated(problem)
        M = MGPreconditioner(hierarchy(problem, levels))
        oracle = MGPreconditioner(hierarchy(problem, levels, fused=False))
        with np.errstate(all="ignore"):
            for edge in (self.EDGE_R, self.EDGE_R[1:]):
                r = grb.Vector.from_dense(np.resize(edge, problem.n))
                assert_bit_identical(apply(M, r), apply(oracle, r))
        assert loads(M) == [False, True]

    def test_stored_inf_takes_no_shortcut(self, loads, entries_read):
        """``0 * Inf`` is a NaN only the product makes: a sweep holding
        a non-finite value multiplies its first colour like the rest."""
        problem = generate_problem(8)       # edited below: not the fixture
        top = hierarchy(problem, 2)
        oracle = MGPreconditioner(hierarchy(problem, 2, fused=False))
        problem.A.set_element(0, 1, np.inf)     # row 0: relaxed first
        M = MGPreconditioner(top)
        with np.errstate(all="ignore"):
            z = apply(M, problem.b)
            assert_bit_identical(z, apply(oracle, problem.b))
        assert loads(M) == [True] and np.isnan(z[0])
        sweep, got = sweep_nnz(top), entries_read()
        assert got[2 * top.n] == sweep + sweep
        assert got[top.n] == [injected_nnz(top)]

    @pytest.mark.parametrize("stencil,scheme", [
        ("27pt", "auto"),   # the injected rows are colour 0
        ("7pt", "auto"),    # a scattered quarter of colour 0
        ("27pt", "jp"),     # greedy colours: they straddle classes
    ])
    def test_residual_rows_are_one_plain_copy(self, loads, stencil, scheme):
        """The residual multiplies ``A``'s injected rows as stored — not
        negated, no tail, in injection order — copied out of the sweep
        once and shared by every kernel over its twins."""
        problem = generate_problem(8, stencil=stencil)
        top = hierarchy(problem, 3, scheme)
        M = MGPreconditioner(top)
        r = random_rhs(problem.n, seed=2)
        assert_bit_identical(
            apply(M, r),
            apply(MGPreconditioner(hierarchy(problem, 3, scheme,
                                             fused=False)), r))
        assert loads(M) == [True]
        kernel = M._plan.kernel
        twins = ColorMajorVCycle(
            [sweep.twin() for sweep, *_ in kernel._levels],
            [lvl.grid.injection_indices() for lvl in top.levels()[:-1]])
        for level, (sweep, head, _, injection), twin in zip(
                top.levels()[:-1], kernel._levels, twins._levels):
            rows, ncols, indptr, indices, data = head
            assert (rows, ncols) == (level.coarser.n, level.n)
            want = level.A.to_scipy()[sweep.perm[injection], :]
            assert np.array_equal(indptr, want.indptr)
            assert np.array_equal(indices, sweep.inverse[want.indices])
            assert_bit_identical(data, want.data)
            for mine, held in ((indices, sweep._indices),
                               (data, sweep._data)):
                assert not any(np.shares_memory(mine, colour)
                               for colour in held)
            assert twin[1] is head


# ---------------------------------------------------------------------------
# (vii) the compiled schedule == Listing 1, step for step
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("armed")
class TestSchedule:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_vcycle_is_listing_1(self, depth):
        """The skeleton alone: level ``i``'s steps run inside ``visit(i)``,
        ``pre`` first and, above the coarsest, the residual, restriction,
        the coarser cycle, refinement and ``post``.  A cycle started below
        the top keeps the absolute level index."""
        for start in range(depth):
            events = []

            @contextmanager
            def visit(i):
                events.append(("enter", i))
                yield
                events.append(("exit", i))

            csr_mod.vcycle(depth, lambda i, name: events.append((i, name)),
                           visit, start)
            down = [event for i in range(start, depth - 1) for event in
                    [("enter", i), (i, "pre"), (i, "spmv"), (i, "restrict")]]
            coarsest = [("enter", depth - 1), (depth - 1, "pre"),
                        ("exit", depth - 1)]
            up = [event for i in range(depth - 2, start - 1, -1) for event in
                  [(i, "prolong"), (i, "post"), ("exit", i)]]
            assert events == down + coarsest + up

    @pytest.mark.parametrize("stencil", ["27pt", "7pt"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_schedule_equals_the_method_walk(self, stencil, levels):
        """The schedule driven by hand is Listing 1: the steps
        ``ref_mg_vcycle`` times in its order, one program per symmetric
        pass (the pre-smoothing's from the zeroed iterate) and per grid
        transfer, and the transcription's bits.  The transcription's walk
        and the engine's booked iteration take the same steps in the same
        order.  Each residual multiplies its sweep's plain copy of the
        injected rows; ``load`` refuses an ``r`` holding ``-0.0``."""
        problem = generate_problem(8, stencil=stencil)
        hier = build_hierarchy(problem, levels=levels).levels()
        ref = build_ref_hierarchy(problem, levels=levels)
        kernel = ColorMajorVCycle(
            [lvl.smoother.plan._current_sweep().twin() for lvl in hier],
            [lvl.grid.injection_indices() for lvl in hier[:-1]])
        assert all(head is sweep.plain(injection)
                   for sweep, head, _, injection in kernel._levels[:-1])
        r = np.random.default_rng(levels).standard_normal(problem.n)
        r[::7] = -0.0
        fine = kernel._levels[0][0]
        before = fine._x.tobytes()
        assert not kernel.load(r)
        assert fine._x.tobytes() == before
        r[::7] = 0.0
        z = np.full(problem.n, 7.0)
        assert kernel.load(r)
        segments = kernel.schedule()
        for _, _, calls in segments:
            execute(calls)
        kernel.store(z)
        walked = []     # what the transcription times, in its order
        assert_bit_identical(z, apply(MGPreconditioner(
            hierarchy(problem, levels, fused=False), timers=listing(walked)),
            grb.Vector.from_dense(r)))
        keys = []       # what ref_mg_vcycle times, in its order
        ref_mg_vcycle(ref, np.zeros(problem.n), r, listing(keys))
        assert [f"mg/L{i}/{step}" for i, step, _ in segments] == keys
        assert walked == keys
        run = RefDistRun(problem, 1, mg_levels=levels)
        run.run_cg(max_iters=2)
        (programs,) = run._numerics.programs.values()
        booked = [key for key in programs["later"].keys
                  if key.startswith("mg/")]
        assert [key for key, _ in itertools.groupby(booked)] == keys
        sweeps = [sweep for sweep, *_ in kernel._levels]
        orders = [lvl.smoother.symmetric_order for lvl in hier]
        assert [calls for _, step, calls in segments if step == "rbgs"] == [
            *(sweep.program(order, True)
              for sweep, order in zip(sweeps, orders)),
            *(sweep.program(order)
              for sweep, order in zip(sweeps[-2::-1], orders[-2::-1]))]
        assert kernel.schedule() is segments      # compiled once

    def test_a_16_cubed_application_is_366_calls(self, loads):
        """Four levels at 16^3, eight colours each: three calls a colour
        step (``fill``, ``csr_matvec``, ``divide``; a zero iterate's first
        is ``multiply``, ``add``, ``divide``), two a residual, four a
        restriction and four a prolongation — 693 while a step was six
        calls and restriction gathered the product through ``pick``."""
        problem = generate_problem(16)
        M = MGPreconditioner(build_hierarchy(problem, levels=4))
        apply(M, random_rhs(problem.n))
        assert loads(M) == [True]
        assert sum(len(calls) for _, _, calls
                   in M._plan.kernel.schedule()) == 366

    def test_untraced_and_traced_solves_time_alike(self, loads, problem8):
        """The untraced solve runs the schedule, the traced one the
        recursive walk: the same ``mg/`` timer keys and counts."""
        def solve(timers):
            M = MGPreconditioner(build_hierarchy(problem8, levels=3),
                                 timers=timers)
            pcg(problem8.A, problem8.b, problem8.x0.dup(), preconditioner=M,
                max_iters=4)
            assert loads(M) == [True] * 4
            return M, {k: c for k, (_, c) in timers.as_dict(counts=True).items()
                       if k.startswith("mg/")}
        with obs.disabled():
            flat, flat_counts = solve(TimerRegistry())
        with obs.run():
            walked_m, walk_counts = solve(TimerRegistry())
        assert flat._planned_walk._flat is not None
        assert walked_m._planned_walk._flat is None
        assert flat_counts == walk_counts
        assert flat_counts["mg/L0/rbgs"] == 8 and flat_counts["mg/L2/rbgs"] == 4
        assert flat_counts["mg/L1/restrict"] == flat_counts["mg/L1/prolong"] == 4
