"""The simulated distributed engine's V-cycle: colour-major, one kernel.

``repro.dist.simulate`` runs every preconditioner application as the
compiled schedule of
:class:`repro.graphblas.substrate.csr.ColorMajorVCycle` — the array
kernel under the serial ``VCyclePlan`` — and then prices it with one
V-cycle walk, the backend's exchange hook at each step.  Enforced here:
(i) the ``z`` an application returns equals ``ref_mg_vcycle``'s value
for value and the GraphBLAS transcription's bit for bit, whatever the
backend, agglomeration or communication mode, and it skips the passes
the serial application skips; (ii) a crash that unwinds a traced V-cycle
half-way leaves nothing behind in the shared kernel, and two runs on one
problem write buffers of their own; (iii) a warm CG iteration allocates
its CG vectors and nothing that grows with the grid, and ``repro.dist``
has no second smoother and no switch; (iv) the kernel driven by hand
equals the plan driven through ``MGPreconditioner``; (v) a traced run's
V-cycle spans nest as the walk does and hold every ``mg/`` tick.
"""

import contextlib
import importlib
import pathlib
import pkgutil
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.dist
from repro import graphblas as grb
from repro import obs
from repro.dist import (Checkpoint, Crash, FaultPlan, Hybrid2DRun,
                        HybridALPRun, RefDistRun, simulate, tape)
from repro.dist.simulate import _RunState
from repro.graphblas import substrate
from repro.graphblas.substrate import csr as csr_mod
from repro.graphblas.substrate.csr import ColorMajorVCycle, execute
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.ref import build_ref_hierarchy
from repro.ref.multigrid import ref_mg_vcycle
from test_vcycle_plan import assert_bit_identical   # values and signbits

BACKENDS = {"ref3d": RefDistRun, "alp1d": HybridALPRun, "alp2d": Hybrid2DRun}
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -1.0]


def engine_apply(run, r):
    """One application ``z = M r`` as a priced iteration makes it,
    outside a solve (a fresh run state stands in for ``run_cg``'s), its
    rows recorded as a program of their own and booked."""
    run._state = state = _RunState(run.nprocs, None, run.machine,
                                   run.comm_mode)
    z = np.full(r.size, 7.0)            # the application overwrites z
    with run._recorded("application"):
        run._precondition(z, r)
    tape.fold(state, [[state.programs["application"], 1, None]])
    return z


def computed(run, **kwargs):
    """``run.run_cg(**kwargs)`` computing its numerics: the dots an
    earlier run on the problem recorded are forgotten first, so the
    residuals are the run's own products, not a replay of that record."""
    run._numerics.trajectories.clear()
    result = run.run_cg(**kwargs)
    assert not result.replayed
    return result


def ref_apply(problem, levels, r):
    return ref_mg_vcycle(build_ref_hierarchy(problem, levels=levels),
                         np.zeros(r.size), r)


def transcription_apply(problem, levels, r):
    """Listing 1 on the containers, every fast path pinned off."""
    z = grb.Vector.dense(r.size, 7.0)
    MGPreconditioner(build_hierarchy(problem, levels=levels, fused=False))(
        z, grb.Vector.from_dense(r))
    return z.to_dense()


@pytest.fixture(scope="module", params=["27pt", "7pt"])
def stencil_problem(request):
    # 4 nodes -> (1, 2, 2): four levels leave one point per node
    return generate_problem(8, 16, 16, stencil=request.param)


# ---------------------------------------------------------------------------
# (i) the engine's z is the reference's
# ---------------------------------------------------------------------------

class TestApplicationEqualsReference:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_every_backend_agglomeration_and_mode(self, stencil_problem,
                                                  levels):
        problem = stencil_problem
        r = np.random.default_rng(levels).standard_normal(problem.n)
        want = ref_apply(problem, levels, r)
        assert_bit_identical(want, transcription_apply(problem, levels, r))
        for cls in BACKENDS.values():
            for below in (0, problem.n // 8):
                for mode in ("eager", "overlap"):
                    run = cls(problem, 4, mg_levels=levels, comm_mode=mode,
                              agglomerate_below=below)
                    assert_bit_identical(engine_apply(run, r), want)

    def test_the_solve_applies_exactly_this(self, stencil_problem,
                                            monkeypatch):
        """What ``run_cg`` hands the kernel and takes back from it, read
        off the real loop: each ``z`` is the reference's for that ``r``."""
        pairs = []
        load, store = ColorMajorVCycle.load, ColorMajorVCycle.store
        monkeypatch.setattr(
            ColorMajorVCycle, "load",
            lambda self, r: (pairs.append([r.copy()]), load(self, r))[1])
        monkeypatch.setattr(
            ColorMajorVCycle, "store",
            lambda self, z: (store(self, z), pairs[-1].append(z.copy()))[0])
        run = RefDistRun(stencil_problem, 4, mg_levels=3)
        assert run.run_cg(max_iters=3).iterations == 3
        assert len(pairs) == 3
        for r, z in pairs:
            assert_bit_identical(z, ref_apply(stencil_problem, 3, r))

    def test_one_colour_per_call_skips_what_the_serial_walk_skips(
            self, stencil_problem, entries_read):
        """The first colour step after ``load`` / ``restrict`` reads no
        operator entry, every other one its stored entries and two more a
        row (``2n`` columns: ``z`` and ``r``), and the residual the
        injected rows only (what the engine *prices* per colour step is
        ``tests/data/dist_golden.json``'s, unchanged)."""
        problem = stencil_problem
        run = RefDistRun(problem, 4, mg_levels=3)
        engine_apply(run, np.random.default_rng(1).standard_normal(problem.n))
        got = entries_read()
        for level in run.levels:
            smoother = level.smoother
            read = [nnz + 2 * rows
                    for nnz, rows in zip(smoother.nnzs, smoother.sizes)]
            sweep = read + read[::-1]
            if level is run.levels[-1]:
                assert got[2 * level.n] == sweep[1:]
                assert level.n not in got
                continue
            injected = level.A[level.grid.injection_indices()].nnz
            assert got[2 * level.n] == sweep[1:] + sweep
            assert got[level.n] == [injected]

    problem = generate_problem(4, 8, 8)     # n = 256; level 1 has 32 rows

    @settings(max_examples=40, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_signed_zeros_subnormals_and_huge_values(self, data):
        """Overflow to inf/nan and underflow to zero come out of the
        engine as they come out of the reference.  The *sign* of an
        exact zero is the GraphBLAS product's — restriction and
        prolongation add ``+0.0`` where the reference copies — so bits
        are compared with the transcription, values with the reference."""
        problem = self.problem
        r = np.array(data.draw(st.lists(
            st.sampled_from(EDGE)
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=problem.n, max_size=problem.n)))
        cls = BACKENDS[data.draw(st.sampled_from(sorted(BACKENDS)))]
        levels = data.draw(st.sampled_from([1, 2]))
        run = cls(problem, 4, mg_levels=levels,
                  comm_mode=data.draw(st.sampled_from(["eager", "overlap"])),
                  agglomerate_below=data.draw(st.sampled_from([0, 32])))
        with np.errstate(all="ignore"):
            z = engine_apply(run, r)
            assert_bit_identical(z, transcription_apply(problem, levels, r))
            assert np.array_equal(z, ref_apply(problem, levels, r),
                                  equal_nan=True)


def priced(run):
    """What one application booked: modelled seconds, timers, steps."""
    state = run._state
    return (state.seconds.hex(), state.timers.as_dict(counts=True),
            state.comm_timers.as_dict(counts=True),
            len(state.tracker.supersteps))


class TestDeclinedApplications:
    """An ``r`` the kernel declines — one holding ``-0.0``, or any when
    the compiled product contracts — is applied by the numerics' Listing 1
    transcription, built once for every run on the problem, and priced as
    every other application."""

    @pytest.mark.parametrize("cls", BACKENDS.values(), ids=list(BACKENDS))
    def test_negative_zero_residual(self, stencil_problem, cls):
        problem = stencil_problem
        r = np.random.default_rng(8).standard_normal(problem.n)
        clean = cls(problem, 4, mg_levels=3)
        engine_apply(clean, r)
        r[::5] = -0.0
        run = cls(problem, 4, mg_levels=3)
        assert not run._kernel.load(r)
        assert_bit_identical(engine_apply(run, r),
                             transcription_apply(problem, 3, r))
        assert priced(run) == priced(clean)
        transcription = run._numerics._transcription
        assert transcription is not None
        engine_apply(RefDistRun(problem, 2, mg_levels=3), r)
        assert run._numerics._transcription is transcription

    def test_contracting_kernel(self, monkeypatch):
        problem = generate_problem(8, 16, 16)
        want = RefDistRun(problem, 4, mg_levels=3).run_cg(max_iters=4)
        monkeypatch.setattr(csr_mod, "CONTRACTS", True)
        run = RefDistRun(problem, 4, mg_levels=3)
        r = np.random.default_rng(2).standard_normal(problem.n)
        assert not run._kernel.load(r)
        assert_bit_identical(engine_apply(run, r),
                             transcription_apply(problem, 3, r))
        # on a problem of its own, so the solve computes (on ``problem``
        # it would price the dots ``want`` recorded)
        got = RefDistRun(generate_problem(8, 16, 16), 4,
                         mg_levels=3).run_cg(max_iters=4)
        assert (got.replayed, got.transcribed) == (False, 4)
        assert snapshot(got) == snapshot(want)

# ---------------------------------------------------------------------------
# (ii) a V-cycle abandoned half-walked leaves nothing stale
# ---------------------------------------------------------------------------

def snapshot(result):
    return (result.residuals, result.nprocs, result.syncs, result.comm_bytes,
            result.modelled_seconds, result.comm_seconds,
            result.exposed_comm_seconds, result.timers.as_dict(counts=True),
            result.resilience)


def walked(run, max_iters):
    """``run.run_cg(max_iters)`` traced: it computes its numerics, then
    folds its plan iteration by iteration, so a planned crash unwinds the
    spans of the iteration where it lands.  (Untraced, a solve whose dots
    a run on the problem recorded applies no V-cycle.)"""
    with obs.run():
        result = run.run_cg(max_iters)
    assert not result.replayed
    return result


def crash_plan(cls, problem, ckpt=Checkpoint(interval=2)):
    """A crash on the level-1 residual's exchange of iteration 3 (the
    fine level's smoothing priced, the coarse one's not) and its step."""
    paced = cls(problem, 4, mg_levels=3,
                faults=FaultPlan(checkpoint=ckpt)).run_cg(max_iters=5)
    steps = [i for i, s in enumerate(paced.tracker.supersteps)
             if s.label == "mg_spmv"]
    per_iteration = len(steps) // 5
    step = steps[2 * per_iteration + per_iteration // 2]
    return FaultPlan(seed=7, crashes=(Crash(1, step),),
                     checkpoint=ckpt), step


@pytest.mark.parametrize("cls", BACKENDS.values(), ids=list(BACKENDS))
class TestCrashMidVCycle:
    plan = staticmethod(crash_plan)

    @pytest.fixture(scope="class")
    def problem(self):
        return generate_problem(8, 16, 16)

    def test_the_crash_lands_inside_the_walk(self, cls, problem):
        """Traced, the crash unwinds the V-cycle's spans where it lands:
        at level 1, through level 0, neither ticked."""
        faults, step = self.plan(cls, problem)
        with obs.run() as ctx:
            result = cls(problem, 4, mg_levels=3, faults=faults).run_cg(5)
        crash, = [e for e in result.resilience["events"]
                  if e["kind"] == "crash"]
        assert crash["superstep"] == step
        unwound = [s for s in ctx.tracer.spans if s.name.startswith("mg/L")
                   and s.modelled_seconds == 0.0]
        assert [s.name for s in unwound] == ["mg/L1", "mg/L0"]
        assert unwound[0].parent_id == unwound[1].id

    def test_same_object_equals_fresh_objects(self, cls, problem):
        faults, _ = self.plan(cls, problem)
        want_clean = snapshot(walked(cls(problem, 4, mg_levels=3), 5))
        want_faulted = snapshot(
            walked(cls(problem, 4, mg_levels=3, faults=faults), 5))
        assert want_faulted[0] == want_clean[0]
        assert want_faulted[-1]["recoveries"] == 1
        run = cls(problem, 4, mg_levels=3, faults=faults)
        assert snapshot(walked(run, 5)) == want_faulted
        assert snapshot(walked(run, 5)) == want_faulted
        run.faults = None
        assert snapshot(walked(run, 5)) == want_clean
        run.faults = faults
        assert snapshot(walked(run, 5)) == want_faulted

    def test_abandoned_walk_then_reload_equals_a_fresh_kernel(
            self, cls, problem, monkeypatch):
        """``load`` and restriction rewrite every vector a level reads:
        the kernel of a run the planned crash abandoned serves the next
        application as a new one does."""
        class Abandoned(Exception):
            pass

        def no_recovery(run, crash):
            raise Abandoned

        faults, _ = self.plan(cls, problem)
        run = cls(problem, 4, mg_levels=3, faults=faults)
        monkeypatch.setattr(cls, "_recover", no_recovery)
        with pytest.raises(Abandoned):
            walked(run, 5)
        r = np.random.default_rng(9).standard_normal(problem.n)
        assert_bit_identical(engine_apply(run, r),
                             engine_apply(cls(problem, 4, mg_levels=3), r))

    def test_parent_and_survivor_interleaved(self, cls, problem):
        """They share one kernel; neither may see the other's vectors."""
        faults, _ = self.plan(cls, problem)
        fresh = cls(problem, 4, mg_levels=3, faults=faults)
        want_parent = snapshot(walked(fresh, 5))
        lone = fresh._respawn(3)
        lone.faults = None
        want_survivor = snapshot(walked(lone, 5))
        run = cls(problem, 4, mg_levels=3, faults=faults)
        survivor = run._respawn(3)
        survivor.faults = None
        assert survivor._kernel is run._kernel
        for _ in range(2):
            assert snapshot(walked(run, 5)) == want_parent
            assert snapshot(walked(survivor, 5)) == want_survivor


def test_runs_on_one_problem_solved_from_several_threads():
    """Runs on one problem share its numerics, not what a walk writes:
    solved at once from more threads than cores, switching every
    microsecond, each equals its sequential solve — residuals, modelled
    seconds and supersteps."""
    problem = generate_problem(8, 16, 16)
    runs = [cls(problem, 4, mg_levels=3) for cls in BACKENDS.values()]
    got = [None] * len(runs)

    def solve(i):
        got[i] = snapshot(runs[i].run_cg(8))

    interval = sys.getswitchinterval()
    with obs.disabled():            # the trace stack is one per process
        want = [snapshot(computed(run, max_iters=8)) for run in runs]
        # the threads compute (but one starting after another published)
        runs[0]._numerics.trajectories.clear()
        threads = [threading.Thread(target=solve, args=(i,))
                   for i in range(len(runs))]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


# ---------------------------------------------------------------------------
# (iii) guards
# ---------------------------------------------------------------------------

class TestGuards:
    @staticmethod
    def warm_iteration_peak(run, iters=3):
        """``tracemalloc`` peak, above its entry level, of the last CG
        iteration of a short solve's computing walk."""
        peaks = []
        iteration = run._iteration

        @contextlib.contextmanager
        def measured(k):
            with iteration(k) as sp:
                tracemalloc.reset_peak()
                entry = tracemalloc.get_traced_memory()[0]
                yield sp
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)

        run._iteration = measured
        with obs.disabled():        # spans are allocations too
            tracemalloc.start()
            try:
                run.run_cg(max_iters=iters)
            finally:
                tracemalloc.stop()
        return peaks[-1]

    @pytest.mark.parametrize("cls", BACKENDS.values(), ids=list(BACKENDS))
    def test_an_iteration_allocates_its_cg_vectors_only(self, cls):
        """``z`` and ``A p`` are the iteration's two fresh ``n``-vectors;
        the V-cycle works in the kernel's buffers.  (Walking the
        reference smoother took a residual, a coarse pair and three
        gathered temporaries per colour step on top, per level visit.)"""
        for nx in (16, 24):
            problem = generate_problem(nx)
            run = cls(problem, 4, mg_levels=3)
            run.run_cg(max_iters=1)                     # warm
            peak = self.warm_iteration_peak(run)
            assert peak <= 2 * 8 * problem.n + 48 * 1024, (nx, peak)


def test_dist_has_no_second_smoother_and_no_switch():
    """No module of ``repro.dist`` imports the reference smoother or the
    fusion switch, and the engine's source names neither, nor keeps a CG
    loop of its own (it runs ``repro.ref.cg``'s)."""
    banned = {"RefRBGS", "fused_enabled", "ENV_FUSED"}
    for info in pkgutil.iter_modules(repro.dist.__path__):
        module = importlib.import_module(f"repro.dist.{info.name}")
        assert not banned & set(vars(module)), info.name
    source = pathlib.Path(simulate.__file__).read_text()
    assert not re.search(r"RefRBGS|update_color|REPRO_FUSED|fused_enabled"
                         r"|require_definite|rtz_old", source)


# ---------------------------------------------------------------------------
# (iv) the kernel by hand == the plan through MGPreconditioner
# ---------------------------------------------------------------------------

@pytest.mark.skipif(substrate.registry.forced() is not None,
                    reason="the plan binds to CSR colour-major sweeps")
@pytest.mark.parametrize("stencil", ["27pt", "7pt"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_kernel_by_hand_equals_the_plan(monkeypatch, stencil, levels):
    from repro.graphblas import fused as fused_mod
    monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
    problem = generate_problem(8, 8, 16, stencil=stencil)
    r = np.random.default_rng(3).standard_normal(problem.n)
    top = build_hierarchy(problem, levels=levels)
    M = MGPreconditioner(top)
    z = grb.Vector.dense(problem.n, 7.0)
    M(z, grb.Vector.from_dense(r))
    assert M._plan.kernel is not None               # the plan ran

    # the same sweeps, the injection straight off the grids: no Vector,
    # no Matrix anywhere below this line
    sweeps = [lvl.smoother.plan._current_sweep() for lvl in top.levels()]
    injections = [lvl.grid.injection_indices()
                  for lvl in top.levels()][:levels - 1]
    kernel = ColorMajorVCycle(sweeps, injections)

    got = np.full(problem.n, 7.0)
    kernel.load(r)
    for _, _, calls in kernel.schedule():
        execute(calls)
    kernel.store(got)
    assert_bit_identical(got, z.to_dense())


# ---------------------------------------------------------------------------
# (v) the traced engine's span tree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls,below,crash", [
    *((cls, below, False) for cls in BACKENDS.values() for below in (0, 64)),
    (RefDistRun, 0, True)])
def test_traced_vcycle_spans_nest_as_the_walk(cls, below, crash):
    """``mg/L0`` under ``cg/iteration``, ``mg/L{i}`` under ``mg/L{i-1}``
    and every ``superstep/mg/L{i}/...`` under ``mg/L{i}``, each level
    span with its arguments; without a crash the ``mg/L0`` spans' ticks
    add up to every ``mg/`` timer."""
    problem = generate_problem(8, 16, 16)
    faults = crash_plan(cls, problem)[0] if crash else None
    with obs.run() as ctx:
        result = cls(problem, 4, mg_levels=3, agglomerate_below=below,
                     faults=faults).run_cg(max_iters=5)
    assert result.resilience is None or result.resilience["recoveries"] == 1
    spans = {s.id: s for s in ctx.tracer.spans}
    levels = [s for s in spans.values() if re.fullmatch(r"mg/L\d", s.name)]
    assert {s.args["level"] for s in levels} == {0, 1, 2}
    for s in levels:
        level, parent = s.args["level"], spans[s.parent_id].name
        assert s.name == f"mg/L{level}"
        assert parent == (f"mg/L{level - 1}" if level else "cg/iteration")
        assert s.args["n"] == problem.n >> 3 * level
        assert s.args["agglomerated"] == (0 < level and s.args["n"] <= below)
    priced = [s for s in spans.values() if s.name.startswith("superstep/mg/")]
    assert priced and all(spans[s.parent_id].name == s.name[10:15]
                          for s in priced)
    if not crash:
        ticked = sum(s.modelled_seconds for s in levels if s.name == "mg/L0")
        assert ticked == pytest.approx(result.timers.total("mg/"), rel=1e-12)
