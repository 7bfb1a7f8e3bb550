"""Simulated distributed runs: correctness and the Table-I behaviours."""

import dataclasses
import gc
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphblas as grb
from repro import obs
from repro.dist import (
    Checkpoint,
    CommTracker,
    Crash,
    DistRunResult,
    ExchangePlan,
    FaultPlan,
    Hybrid2DRun,
    HybridALPRun,
    MessageLoss,
    RefDistRun,
    Straggler,
    factor3,
    numerics,
    simulate,
    tape,
)
from repro.dist.cost import (interior_row_mask, per_entry_owners,
                             rows_touching_remote)
from repro.dist.hybrid import _allgather_matrix
from repro.dist.partition import BlockCyclic1D, bfs_partition, halo_for_owners
from repro.graphblas.substrate.csr import execute
from repro.grid import Grid3D
from repro.hpcg.driver import run_hpcg
from repro.hpcg.problem import generate_problem
from repro.ref import build_ref_hierarchy
from repro.ref.cg import CGState
from repro.ref.multigrid import ref_mg_vcycle
from repro.util.errors import InvalidValue
from repro.util.timer import Timer, TimerRegistry
from test_dist_vcycle import computed         # a solve that is not a replay
from test_dist_vcycle import engine_apply     # as a priced iteration makes it
from test_vcycle_plan import assert_bit_identical   # values and signbits


@pytest.fixture(scope="module")
def dist_problem():
    # p=4 -> (1,2,2): global grid 8x16x16, local 8^3 per node
    return generate_problem(8, 16, 16)


class TestHybridALP:
    def test_residuals_match_serial(self, dist_problem):
        run = HybridALPRun(dist_problem, nprocs=4, mg_levels=3)
        res = computed(run, max_iters=5)
        serial = run_hpcg(nx=0, problem=dist_problem, max_iters=5,
                          mg_levels=3, validate_symmetry=False)
        np.testing.assert_allclose(res.residuals, serial.cg.residuals,
                                   rtol=1e-12)

    def test_allgather_volume_formula(self, dist_problem):
        """Per-mxv traffic is exactly n/p values to each of p-1 peers."""
        run = HybridALPRun(dist_problem, nprocs=4, mg_levels=1)
        res = run.run_cg(max_iters=1, use_mg=False)
        n = dist_problem.n
        expected = (n // 4) * 8 * 3
        assert res.tracker.max_send_per_node() == expected

    def test_allgather_matrix_zero_diag(self):
        part = BlockCyclic1D(100, 4, block=8)
        m = _allgather_matrix(part)
        assert (np.diag(m) == 0).all()
        assert m.sum() == sum(part.local_size(k) for k in range(4)) * 8 * 3

    def test_comm_grows_linearly_with_p(self):
        """The Table-I ALP column: per-node send ~ n (p-1)/p."""
        sends = {}
        for p in (2, 4):
            px, py, pz = factor3(p)
            prob = generate_problem(8 * px, 8 * py, 8 * pz)
            run = HybridALPRun(prob, nprocs=p, mg_levels=1)
            res = run.run_cg(max_iters=1, use_mg=False)
            sends[p] = res.tracker.max_send_per_node() / prob.n
        # n(p-1)/p /n = (p-1)/p: 0.5 at p=2, 0.75 at p=4
        assert sends[2] == pytest.approx(0.5 * 8, rel=0.05)
        assert sends[4] == pytest.approx(0.75 * 8, rel=0.05)

    def test_every_mxv_synchronises(self, dist_problem):
        run = HybridALPRun(dist_problem, nprocs=2, mg_levels=2)
        res = run.run_cg(max_iters=1)
        # one sync per colour per sweep: the fine level runs pre+post
        # symmetric passes (2 x fwd+bwd = 4 sweeps), the coarsest level
        # only its single pre-smoothing pass (2 sweeps): (4+2) x 8 colours.
        rbgs_syncs = sum(1 for s in res.tracker.supersteps
                         if s.label == "rbgs_mxv")
        assert rbgs_syncs == (4 + 2) * 8

    def test_single_node_no_comm(self, dist_problem):
        run = HybridALPRun(dist_problem, nprocs=1, mg_levels=2)
        res = run.run_cg(max_iters=2)
        assert res.comm_bytes == 0

    def test_invalid_nprocs(self, dist_problem):
        with pytest.raises(InvalidValue):
            HybridALPRun(dist_problem, nprocs=0)


@pytest.mark.parametrize("cls", [RefDistRun, HybridALPRun, Hybrid2DRun])
def test_a_bad_fault_plan_fails_before_anything_is_built(dist_problem, cls,
                                                         monkeypatch):
    """A plan naming a node the run does not have is an argument error:
    it must not cost the level numerics, partitions and exchange plans
    first."""
    import repro.dist.simulate as simulate

    built = []
    init = simulate.SimLevel.__init__
    monkeypatch.setattr(
        simulate.SimLevel, "__init__",
        lambda self, *a, **k: built.append(a[0]) or init(self, *a, **k))
    with pytest.raises(InvalidValue, match="crash node 4 out of range"):
        cls(dist_problem, 4, mg_levels=3,
            faults=FaultPlan(crashes=(Crash(4, 10),)))
    assert built == []
    cls(dist_problem, 4, mg_levels=3,
        faults=FaultPlan(crashes=(Crash(3, 10),)))
    assert built == [0, 1, 2]


class TestRefDist:
    def test_residuals_match_serial(self, dist_problem):
        run = RefDistRun(dist_problem, nprocs=4, mg_levels=3)
        res = computed(run, max_iters=5)
        serial = run_hpcg(nx=0, problem=dist_problem, max_iters=5,
                          mg_levels=3, validate_symmetry=False)
        np.testing.assert_allclose(res.residuals, serial.cg.residuals,
                                   rtol=1e-12)

    def test_halo_is_surface_not_volume(self, dist_problem):
        run = RefDistRun(dist_problem, nprocs=4, mg_levels=1)
        level = run.levels[0]
        per_node_send = np.zeros(4, dtype=np.int64)
        for (src, _dst), nbytes in level.spmv_halo.items():
            per_node_send[src] += nbytes
        n_local = dist_problem.n // 4
        # halo ~ O(local^{2/3}) while volume is local; require well below
        assert per_node_send.max() // 8 < n_local / 2

    def test_color_halos_partition_full_halo(self, dist_problem):
        """Per-colour halos sum to the full spmv halo (same points, each
        carrying exactly one colour)."""
        run = RefDistRun(dist_problem, nprocs=4, mg_levels=1)
        level = run.levels[0]
        total_color = {}
        for per in level.color_halo:
            for pair, nbytes in per.items():
                total_color[pair] = total_color.get(pair, 0) + nbytes
        assert total_color == level.spmv_halo

    def test_restriction_is_local(self, dist_problem):
        run = RefDistRun(dist_problem, nprocs=4, mg_levels=3)
        res = run.run_cg(max_iters=2)
        assert res.tracker.label_bytes.get("restrict", 0) == 0
        assert res.tracker.label_bytes.get("refine", 0) == 0

    def test_comm_far_below_alp(self, dist_problem):
        ref = RefDistRun(dist_problem, nprocs=4, mg_levels=3).run_cg(max_iters=3)
        alp = HybridALPRun(dist_problem, nprocs=4, mg_levels=3).run_cg(max_iters=3)
        assert ref.comm_bytes * 10 < alp.comm_bytes

    def test_explicit_process_grid(self):
        prob = generate_problem(8, 8, 16)
        run = RefDistRun(prob, nprocs=2, mg_levels=2, process_grid=(1, 1, 2))
        res = run.run_cg(max_iters=2)
        assert res.nprocs == 2

    def test_summary_and_breakdown(self, dist_problem):
        res = RefDistRun(dist_problem, nprocs=4, mg_levels=3).run_cg(max_iters=2)
        assert "ref-3d" in res.summary()
        rows = res.mg_level_breakdown()
        assert len(rows) == 3
        assert all(0 <= r["rbgs"] <= 1 for r in rows)


class TestBfsPartitionBackend:
    """bfs_partition (solution iv) as a first-class RefDistRun owner
    source: full CG+MG on structure-derived owners."""

    def test_residuals_match_serial(self, dist_problem):
        run = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         partition="bfs")
        res = computed(run, max_iters=5)
        serial = run_hpcg(nx=0, problem=dist_problem, max_iters=5,
                          mg_levels=3, validate_symmetry=False)
        np.testing.assert_allclose(res.residuals, serial.cg.residuals,
                                   rtol=1e-12)

    def test_halo_volume_close_to_geometric(self, dist_problem):
        """The black-box BFS partition recovers most of the geometric
        locality: its halo is the same order as the 3D boxes' surface
        (well below the locality-free cyclic distribution's volume)."""
        geo = RefDistRun(dist_problem, nprocs=4, mg_levels=1)
        bfs = RefDistRun(dist_problem, nprocs=4, mg_levels=1,
                         partition="bfs")
        geo_halo = sum(geo.levels[0].spmv_halo.values())
        bfs_halo = sum(bfs.levels[0].spmv_halo.values())
        assert geo_halo < bfs_halo <= 3 * geo_halo
        # a locality-free ownership moves ~the whole volume instead
        from repro.dist.partition import halo_for_owners
        A = dist_problem.A.to_scipy()
        cyc = BlockCyclic1D(dist_problem.n, 4).owner(
            np.arange(dist_problem.n))
        cyc_halo = sum(idxs.size * 8 for idxs in halo_for_owners(
            A.indptr, A.indices, cyc, 4).values())
        assert bfs_halo * 3 < cyc_halo

    def test_bfs_restriction_crosses_some_nodes(self, dist_problem):
        """BFS levels are partitioned independently, so a few injection
        points cross nodes — priced, unlike the geometric free copy."""
        res = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         partition="bfs").run_cg(max_iters=2)
        moved = (res.tracker.label_bytes.get("restrict", 0)
                 + res.tracker.label_bytes.get("refine", 0))
        assert moved > 0
        # ... but far fewer than the whole coarse vector per transfer
        coarse_n = res.tracker.label_bytes.get("restrict", 0) / 8
        assert coarse_n < dist_problem.n // 8

    def test_unknown_partition_rejected(self, dist_problem):
        with pytest.raises(InvalidValue):
            RefDistRun(dist_problem, nprocs=4, partition="metis")


class TestAgglomeration:
    """Coarse-grid agglomeration: gather tiny levels onto one node."""

    def test_numerics_unchanged(self, dist_problem):
        base = RefDistRun(dist_problem, nprocs=4, mg_levels=3)
        agg = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         agglomerate_below=200)
        res_b = computed(base, max_iters=4)
        res_a = computed(agg, max_iters=4)
        np.testing.assert_array_equal(res_b.residuals, res_a.residuals)

    def test_fewer_supersteps(self, dist_problem):
        base = RefDistRun(dist_problem, nprocs=4, mg_levels=3)
        agg = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         agglomerate_below=200)
        assert agg.levels[2].agglomerated and not agg.levels[0].agglomerated
        res_b = base.run_cg(max_iters=3)
        res_a = agg.run_cg(max_iters=3)
        assert res_a.syncs < res_b.syncs

    def test_latency_bound_grids_win(self, dist_problem):
        """On a latency-dominated fabric, dodging the tiny coarse-level
        supersteps beats the lost parallelism (the ROADMAP tradeoff)."""
        from repro.dist import BSPMachine
        slow_sync = BSPMachine("slow-sync", mem_bandwidth=192.0e9,
                               net_bandwidth=12.5e9, latency=50e-6)
        base = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                          machine=slow_sync).run_cg(max_iters=3)
        agg = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         machine=slow_sync,
                         agglomerate_below=200).run_cg(max_iters=3)
        assert agg.modelled_seconds < base.modelled_seconds

    def test_gather_scatter_priced(self, dist_problem):
        res = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         agglomerate_below=200).run_cg(max_iters=2)
        assert res.tracker.label_bytes.get("agg_gather", 0) > 0
        assert res.tracker.label_bytes.get("agg_scatter", 0) > 0

    def test_agglomerated_level_never_syncs(self, dist_problem):
        res = RefDistRun(dist_problem, nprocs=4, mg_levels=3,
                         agglomerate_below=200).run_cg(max_iters=2)
        # the coarse smoother still costs local time but zero wire time
        assert res.timers.total("mg/L2/rbgs") > 0
        assert res.comm_timers.total("full/mg/L2/rbgs") == 0
        assert res.comm_timers.total("full/mg/L1/rbgs") > 0

    def test_works_on_alp_backend(self, dist_problem):
        base = HybridALPRun(dist_problem, nprocs=4, mg_levels=3)
        agg = HybridALPRun(dist_problem, nprocs=4, mg_levels=3,
                           agglomerate_below=200)
        res_b = computed(base, max_iters=2)
        res_a = computed(agg, max_iters=2)
        np.testing.assert_array_equal(res_b.residuals, res_a.residuals)
        assert res_a.comm_bytes < res_b.comm_bytes

    def test_negative_threshold_rejected(self, dist_problem):
        with pytest.raises(InvalidValue):
            RefDistRun(dist_problem, nprocs=4, agglomerate_below=-1)

    def test_indivisible_coarse_level_names_level_and_remedies(self):
        """A 2^3 coarse grid cannot be cut into 4x4x4 boxes: the error
        says which level, and each remedy it offers works."""
        problem = generate_problem(16)
        with pytest.raises(InvalidValue) as exc:
            RefDistRun(problem, nprocs=64, mg_levels=4)
        message = str(exc.value)
        assert "MG level 3 (grid (2, 2, 2), 8 rows)" in message
        assert "not divisible by process grid (4, 4, 4)" in message
        assert "agglomerate_below >= 8" in message
        assert "mg_levels <= 3" in message
        agg = RefDistRun(problem, nprocs=64, mg_levels=4,
                         agglomerate_below=8)
        assert [lvl.agglomerated for lvl in agg.levels] \
            == [False, False, False, True]
        RefDistRun(problem, nprocs=64, mg_levels=3)


class TestHostCostPerSuperstep:
    """The engine adds accounting only, and a superstep's accounting
    must not cost more the more messages it carries: every pattern is
    recorded at construction and replayed.  Deterministic call counts,
    not timings."""

    CONFIGS = {
        "ref-3d": (RefDistRun, {}),
        "ref-3d/bfs": (RefDistRun, {"partition": "bfs"}),   # injection halo
        "ref-3d/agg": (RefDistRun, {"agglomerate_below": 64}),
        "ref-3d/checkpointed": (
            RefDistRun, {"faults": FaultPlan(checkpoint=Checkpoint(1))}),
        "alp-1d": (HybridALPRun, {}),
        "alp-1d/agg": (HybridALPRun, {"agglomerate_below": 64}),
        "alp-2d": (Hybrid2DRun, {}),
    }

    @pytest.mark.parametrize("mode", ["eager", "overlap"])
    @pytest.mark.parametrize("cls,kwargs", CONFIGS.values(), ids=CONFIGS)
    def test_a_constructed_run_issues_no_send(self, problem8, python_calls,
                                              cls, kwargs, mode):
        run = cls(problem8, 4, mg_levels=3, comm_mode=mode, **kwargs)
        results = []
        sends = python_calls(
            lambda: results.append(run.run_cg(max_iters=2)),
            code=CommTracker.send.__code__)
        assert sends == 0
        assert results[0].syncs > 50 and results[0].comm_bytes > 0

    def test_host_cost_does_not_grow_with_the_node_count(self, problem8,
                                                         python_calls):
        """alp-1d replicates every vector: p^2 messages per exchange,
        one replay whatever p."""
        def calls(nprocs):
            run = HybridALPRun(problem8, nprocs, mg_levels=3)
            run.run_cg(max_iters=2)                  # warm
            return python_calls(lambda: run.run_cg(max_iters=2))

        few, many = calls(4), calls(16)
        assert many <= 1.05 * few, (few, many)

    @pytest.mark.parametrize("cls", [RefDistRun, HybridALPRun, Hybrid2DRun])
    def test_untraced_supersteps_read_no_environment(self, monkeypatch,
                                                     cls):
        """Whether a context is active is decided once per run: booking
        the supersteps — one fold, as the run ends — looks
        ``REPRO_TRACE`` up no more, and closes none through
        ``CommTracker.sync`` or ``wait``.  On a fresh problem, so that
        the run records its programs."""
        monkeypatch.delenv(obs.ENV_TRACE, raising=False)
        reads, closes, at_fold = [], [], []
        monkeypatch.setattr(obs.context, "trace_env_enabled",
                            lambda: reads.append(1) or False)
        for close in ("sync", "wait"):
            monkeypatch.setattr(CommTracker, close,
                                lambda *a, **k: closes.append(1))
        fold = simulate.fold
        monkeypatch.setattr(simulate, "fold", lambda *a: (
            at_fold.append(len(reads)), fold(*a)))
        result = cls(generate_problem(8), 4, mg_levels=3,
                     comm_mode="overlap").run_cg(max_iters=2)
        assert result.syncs > 50 and not closes
        assert reads and at_fold == [len(reads)]


class TestTimersBuiltWhenRead:
    """A run adds its timers' terms to plain per-key totals once, as it
    ends; its result builds ``timers`` and ``comm_timers`` from them when
    first read, equal to what a traced run (booked program by program)
    reads, and keeps none of the run state."""

    PLANS = {
        "clean": None,
        "crash": FaultPlan(checkpoint=Checkpoint(2),
                           crashes=[Crash(node=1, superstep=120)]),
        "loss": FaultPlan(seed=5, message_loss=MessageLoss(0.3, 3)),
    }

    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS)
    @pytest.mark.parametrize("cls", [RefDistRun, HybridALPRun, Hybrid2DRun])
    def test_a_warm_untraced_run_makes_no_timer(self, problem8,
                                                python_calls, cls, plan):
        run = cls(problem8, 4, mg_levels=3, faults=plan)
        run.run_cg(max_iters=4)                      # warm
        results = []
        made = python_calls(lambda: results.append(run.run_cg(max_iters=4)),
                            code=Timer.__init__.__code__)
        assert made == 0
        assert python_calls(lambda: results[0].comm_timers,
                            code=Timer.__init__.__code__) > 0
        # built in the same pass as the wire seconds' registry
        assert python_calls(lambda: results[0].timers,
                            code=Timer.__init__.__code__) == 0

    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS)
    def test_registries_read_twice_are_one_and_equal_a_traced_runs(
            self, problem8, plan):
        run = RefDistRun(problem8, 4, mg_levels=3, faults=plan)
        with obs.disabled():
            result = run.run_cg(max_iters=4)
        with obs.run():
            traced = run.run_cg(max_iters=4)
        assert result.timers is result.timers
        assert result.comm_timers is result.comm_timers
        for got, want in ((result.timers, traced.timers),
                          (result.comm_timers, traced.comm_timers)):
            assert got.as_dict(counts=True) == want.as_dict(counts=True)
            assert list(got.timers) == list(want.timers)    # first ticks
            assert got.total().hex() == want.total().hex()
            assert got.report() == want.report()
            assert got.rollup(2) == want.rollup(2)

    def test_given_registries_are_kept(self):
        timers, comm = TimerRegistry(), TimerRegistry()
        result = DistRunResult(
            backend="given", nprocs=2, n=8, iterations=0, residuals=[],
            modelled_seconds=0.0, tracker=CommTracker(2), mg_levels=1,
            timers=timers, comm_timers=comm)
        assert result.timers is timers and result.comm_timers is comm
        assert DistRunResult(
            backend="given", nprocs=2, n=8, iterations=0, residuals=[],
            modelled_seconds=0.0, tracker=CommTracker(2), mg_levels=1,
            timers=timers).comm_timers is None

    def test_the_result_keeps_no_run_state(self, problem8):
        run = RefDistRun(problem8, 4, mg_levels=3,
                         faults=self.PLANS["crash"])
        result = run.run_cg(max_iters=4)
        state = weakref.ref(run._state)
        run._state = None
        gc.collect()
        assert state() is None
        assert result.timers.total("mg/") > 0
        assert result.comm_timers.total("full/") > 0


# ---------------------------------------------------------------------------
# an untraced run books what a traced one books
# ---------------------------------------------------------------------------

BACKENDS = {"ref-3d": RefDistRun, "alp-1d": HybridALPRun, "alp-2d": Hybrid2DRun}


def accounting(result):
    """Everything a run prices and counts, floats to the bit; a plan by
    its bytes (a survivor run's plans are rebuilt per solve)."""
    def field(value):
        if isinstance(value, ExchangePlan):
            return value.sent.tobytes(), value.received.tobytes(), \
                value.messages
        return value

    tracker = result.tracker
    return dict(
        residuals=result.residuals,
        seconds=[value.hex() for value in (
            result.modelled_seconds, result.comm_seconds,
            result.exposed_comm_seconds)],
        timers=result.timers.as_dict(counts=True),
        comm_timers=result.comm_timers.as_dict(counts=True),
        supersteps=[[field(getattr(step, f.name))
                     for f in dataclasses.fields(step)]
                    for step in tracker.supersteps],
        label_bytes=tracker.label_bytes, label_syncs=tracker.label_syncs,
        resilience=result.resilience,
    )


def kept_programs(run) -> dict:
    """The programs the numerics keep for ``run``'s problem, by key."""
    return {key: dict(kinds)
            for key, kinds in run._numerics.programs.items()}


def iteration_windows(run, solve):
    """``(first, last)`` superstep of each CG iteration of ``run``, which
    must lose no message and crash nowhere: an iteration ends on its
    third dot, and a checkpoint may follow it."""
    with obs.disabled():
        steps = run.run_cg(**solve).tracker.supersteps
    dots = [step.index for step in steps if step.label == "dot"]
    return [(end + 1 + (steps[end + 1].label == "checkpoint"), last)
            for end, last in zip(dots[:-1:3], dots[3::3])]


class TestTapeEqualsStepwise:
    """A run books its plan — the stretch of programs its trajectory
    fixes — after the walk: untraced as one fold (a crash cuts it, and
    the survivors fold theirs), traced entry by entry inside its spans,
    emitting theirs.  Both must price and count the same, to the bit,
    whatever the backend, mode, agglomeration, preconditioner, stopping
    rule and fault plan (``tests/data/dist_fingerprint.json`` pins the
    lattice; these draw plans off it)."""

    problem = generate_problem(8, 16, 16)

    def draw_plan(self, data, kind, run, solve):
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        if kind == "none":
            return None
        if kind == "checkpoint":
            return FaultPlan(seed=seed, checkpoint=Checkpoint(
                data.draw(st.integers(1, 3), label="interval")))
        if kind == "loss":      # any rate and cap, alone or with more
            plan = FaultPlan(seed=seed, message_loss=MessageLoss(
                data.draw(st.floats(0.0, 0.9), label="rate"),
                data.draw(st.integers(1, 4), label="cap")))
            also = data.draw(st.sampled_from(["checkpoint", "crash"])
                             | st.none(), label="with")
            if also == "checkpoint":
                return dataclasses.replace(plan, checkpoint=Checkpoint(
                    data.draw(st.integers(1, 3), label="interval")))
            if also == "crash":
                crashing = self.draw_plan(data, "crash", run, solve)
                return dataclasses.replace(
                    plan, checkpoint=crashing.checkpoint,
                    crashes=crashing.crashes)
            return plan
        if kind == "crash":
            ckpt = Checkpoint(2)
            run.faults = FaultPlan(checkpoint=ckpt)
            first, last = data.draw(st.sampled_from(
                iteration_windows(run, solve)), label="window")
            step = data.draw(st.sampled_from([first, last])
                             | st.integers(first, last), label="superstep")
            return FaultPlan(seed=seed, checkpoint=ckpt, crashes=(
                Crash(data.draw(st.integers(1, 3), label="node"), step),))
        run.faults = None           # a straggler from iteration a to b
        windows = iteration_windows(run, solve)
        a = data.draw(st.integers(0, len(windows) - 1), label="a")
        b = data.draw(st.integers(a, len(windows) - 1), label="b")
        start = data.draw(st.sampled_from(windows[a]), label="start")
        end = data.draw(st.sampled_from([None, windows[b][1] + 1] + [
            bound for bound in windows[b] if bound > start]), label="end")
        return FaultPlan(seed=seed, stragglers=(Straggler(
            data.draw(st.integers(0, 3), label="node"), 2.5, start, end),))

    @pytest.mark.parametrize("kind", ["none", "checkpoint", "crash",
                                      "straggler", "loss"])
    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_a_taped_run_equals_its_stepwise_walk(self, kind, data):
        cls = BACKENDS[data.draw(st.sampled_from(sorted(BACKENDS)))]
        run = cls(self.problem, 4, mg_levels=3,
                  comm_mode=data.draw(st.sampled_from(["eager", "overlap"])),
                  agglomerate_below=data.draw(st.sampled_from([0, 64])))
        solve = dict(use_mg=data.draw(st.booleans(), label="use_mg"),
                     **data.draw(st.sampled_from([
                         {"max_iters": 10},
                         {"max_iters": 40, "tolerance": 1e-4}])))
        run.faults = self.draw_plan(data, kind, run, solve)
        run._numerics.trajectories.clear()
        with obs.disabled():
            taped = run.run_cg(**solve)         # computed, then
            priced = run.run_cg(**solve)        # priced from its record
        assert not taped.replayed and priced.replayed
        with obs.run():
            walked = run.run_cg(**solve)
        assert accounting(taped) == accounting(walked) == accounting(priced)

    @pytest.fixture
    def closes(self, monkeypatch):
        """One entry per superstep the tracker closes stepwise."""
        closed, close = [], CommTracker._close
        monkeypatch.setattr(CommTracker, "_close", lambda *a, **k:
                            closed.append(1) or close(*a, **k))
        return closed

    def test_a_second_untraced_clean_run_walks_no_iteration(
            self, closes, monkeypatch):
        """Once one run has kept its programs, another records none (its
        hooks book nothing), enters no CG iteration (it books its plan
        from the trajectory) and, like every run, closes no superstep
        stepwise: a silent fall-back to recording or walking fails here.
        So does a warm lossy run's, and a warm crash run's."""
        built, walks, entered = [], [], []
        monkeypatch.setattr(simulate, "Program", lambda *a: (
            built.append(1), tape.Program(*a))[1])
        cg_iterations = simulate.cg_iterations
        monkeypatch.setattr(simulate, "cg_iterations", lambda *a: (
            walks.append(1), cg_iterations(*a))[1])
        iteration = simulate.SimulatedDistRun._iteration
        monkeypatch.setattr(simulate.SimulatedDistRun, "_iteration",
                            lambda run, k: (entered.append(k),
                                            iteration(run, k))[1])
        problem = generate_problem(8)
        run = RefDistRun(problem, 4, mg_levels=3)
        with obs.disabled():
            run.run_cg(max_iters=10)
            assert len(built) == 3              # cg_start, first, later
            assert len(walks) == 1 and len(entered) == 10
            del walks[:], entered[:]
            result = run.run_cg(max_iters=10)
        assert len(built) == 3 and not closes and result.syncs > 800
        assert result.replayed and not walks and not entered
        for faults in (FaultPlan(seed=2, message_loss=MessageLoss(0.2, 4)),
                       FaultPlan(seed=7, crashes=(Crash(1, 400),),
                                 checkpoint=Checkpoint(2))):
            run = RefDistRun(problem, 4, mg_levels=3, faults=faults)
            with obs.disabled():
                run.run_cg(max_iters=10)        # records what it lacks
                del walks[:], entered[:]
                warm = run.run_cg(max_iters=10)
            assert warm.replayed and not walks and not entered
        assert warm.resilience["recoveries"] == 1 and not closes

    def test_a_priced_run_records_what_it_lacks_in_two_iterations(
            self, monkeypatch):
        """A run pricing from another's trajectory on a record that keeps
        no program records its own by walking the pricing kernels from
        its plan's start for at most two iterations — the survivors' too,
        from the checkpoint — and books what a computing run books."""
        walks = []
        cg_iterations = simulate.cg_iterations

        def counted(*args):
            walks.append(0)
            for cg in cg_iterations(*args):
                walks[-1] += 1
                yield cg

        monkeypatch.setattr(simulate, "cg_iterations", counted)
        problem = generate_problem(8, 16, 16)
        first = RefDistRun(problem, 4, mg_levels=3)     # keeps numerics
        with obs.disabled():
            first.run_cg(max_iters=10)
            for faults in (None, FaultPlan(seed=7, crashes=(Crash(1, 400),),
                                           checkpoint=Checkpoint(2))):
                del walks[:]
                priced = HybridALPRun(problem, 4, mg_levels=3,
                                      faults=faults).run_cg(max_iters=10)
                walked = list(walks)
                assert priced.replayed and walked and max(walked) <= 2, walked
                computed = HybridALPRun(generate_problem(8, 16, 16), 4,
                                        mg_levels=3,
                                        faults=faults).run_cg(max_iters=10)
                assert not computed.replayed
                assert accounting(priced) == accounting(computed)
        assert len(walked) == 1     # the survivors', from the checkpoint
        assert priced.resilience["recoveries"] == 1

    def test_a_computed_crash_run_applies_the_vcycle_k_times(
            self, monkeypatch):
        """A crash run's history is the clean trajectory: computed once,
        traced or not, the V-cycle applied once an iteration, however many
        iterations the survivors re-execute."""
        applied, apply = [], numerics._Numerics.apply
        monkeypatch.setattr(numerics._Numerics, "apply",
                            lambda *a: applied.append(1) or apply(*a))
        faults = FaultPlan(seed=7, crashes=(Crash(1, 400),),
                           checkpoint=Checkpoint(2))
        for session in (obs.disabled, obs.run):
            del applied[:]
            run = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3,
                             faults=faults)
            with session():
                result = run.run_cg(max_iters=10)
            r = result.resilience
            assert not result.replayed and r["recoveries"] == 1
            assert r["reexecuted_iterations"] > 0
            assert len(applied) == result.iterations == 10

    def test_a_run_books_the_tapes_a_sibling_kept(self):
        """A checkpointed sibling solving fewer iterations keeps the
        programs on a fresh problem; a run with no plan books them and
        keeps nothing new."""
        problem = generate_problem(8, 16, 16)
        sibling = RefDistRun(problem, 4, mg_levels=3,
                             faults=FaultPlan(checkpoint=Checkpoint(1)))
        run = RefDistRun(problem, 4, mg_levels=3)
        with obs.disabled():
            sibling.run_cg(max_iters=3)
            kept = kept_programs(run)
            taped = run.run_cg(max_iters=10)
        assert kept_programs(run) == kept
        assert [sorted(kinds) for kinds in kept.values()] == [
            ["checkpoint", "first", "later", "start"]]
        with obs.run():
            walked = run.run_cg(max_iters=10)
        assert accounting(taped) == accounting(walked)

    @pytest.mark.parametrize("use_mg, rate, cap, seed", [
        (False, 0.2, 3, 3), (True, 0.01, 3, 3), (False, 0.9, 2, 6)])
    def test_a_lossy_run_alone_replays_with_its_retry_draws(
            self, closes, use_mg, rate, cap, seed):
        """On a fresh problem a lossy run keeps the first iteration that
        lost nothing as its tape, then books it with the seeded retry
        draws of every later exchange.  At a rate of 0.9 (seed 6 loses
        nothing in iteration 2, which the later ones fold) most reach the
        cap, where an exchange's draws end with no delivering draw."""
        run = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3,
                         faults=FaultPlan(seed=seed, message_loss=MessageLoss(
                             rate, max_retries=cap)))
        with obs.disabled():
            taped = run.run_cg(max_iters=10, use_mg=use_mg)
        assert len(closes) < taped.syncs
        retries = [e["detail"]["retries"]
                   for e in taped.resilience["events"]]
        assert retries and (rate < 0.9 or retries.count(cap) > 5)
        with obs.run():
            walked = run.run_cg(max_iters=10, use_mg=use_mg)
        assert accounting(taped) == accounting(walked)

    def test_a_crash_among_retries_fires_where_the_walk_fires_it(self):
        """Under loss an iteration's window widens by the retries its
        exchanges may draw, so a crash the retries push into it is never
        replayed past, wherever it lands."""
        problem = generate_problem(8, 16, 16)
        for step in range(8, 40):
            run = RefDistRun(problem, 4, mg_levels=3, faults=FaultPlan(
                seed=1, message_loss=MessageLoss(0.5),
                crashes=(Crash(1, step),)))
            with obs.disabled():
                taped = run.run_cg(max_iters=10, use_mg=False)
            with obs.run():
                walked = run.run_cg(max_iters=10, use_mg=False)
            assert accounting(taped) == accounting(walked), step

    def test_a_survivor_books_a_kept_tape_on_its_fresh_tracker(self):
        """With no checkpoint the survivors restart from iteration 1 on a
        fresh tracker: a second solve books the 3-node programs the first
        kept, labels that tracker has not seen yet included."""
        run = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3)
        (first, _), *_ = iteration_windows(run, {"max_iters": 10})
        run.faults = FaultPlan(crashes=(Crash(1, first),))
        with obs.disabled():
            run.run_cg(max_iters=10)
            kept = kept_programs(run)
            taped = run.run_cg(max_iters=10)
        assert kept_programs(run) == kept
        assert [sorted(kinds) for (record, *_), kinds in kept.items()
                if record[1] == 3] == [["first", "later", "start"]]
        with obs.run():
            walked = run.run_cg(max_iters=10)
        assert accounting(taped) == accounting(walked)

    def test_a_node_speeds_plan_reprices_the_kept_programs(self, closes):
        """Heterogeneous speeds scale every superstep's work term: the
        fold re-prices the kept programs' rows, and nothing is recorded
        anew or closed stepwise."""
        run = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3)
        with obs.disabled():
            clean = run.run_cg(max_iters=5)
            kept = kept_programs(run)
            run.faults = FaultPlan(node_speeds={2: 0.5})
            taped = run.run_cg(max_iters=5)
        assert kept_programs(run) == kept and not closes
        assert taped.modelled_seconds > clean.modelled_seconds
        with obs.run():
            walked = run.run_cg(max_iters=5)
        assert accounting(taped) == accounting(walked)


def test_replays_from_several_threads_equal_their_sequential_replays():
    """Runs on one problem share its tapes, not what a fold lays out or
    draws: replayed at once from several threads, stretches of many
    lengths, clean and lossy, each price what the same replay does
    alone."""
    problem = generate_problem(8, 16, 16)
    plans = [None, FaultPlan(seed=7, message_loss=MessageLoss(0.5, 3)),
             FaultPlan(seed=8, message_loss=MessageLoss(0.9, 2))]
    cases = [(plan, iters) for plan in plans for iters in range(2, 10)]
    runs = [RefDistRun(problem, 4, mg_levels=3, faults=plan)
            for plan, _ in cases]
    got = [None] * len(runs)

    def solve(i):
        got[i] = runs[i].run_cg(max_iters=cases[i][1])

    interval = sys.getswitchinterval()
    with obs.disabled():            # the trace stack is one per process
        runs[0].run_cg(max_iters=9)                 # records, keeps tapes
        want = [accounting(run.run_cg(max_iters=iters))
                for run, (_, iters) in zip(runs, cases)]
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
    assert all(result.replayed for result in got)
    assert [accounting(result) for result in got] == want


# ---------------------------------------------------------------------------
# a run the problem's recorded trajectory covers prices only
# ---------------------------------------------------------------------------

KERNELS = ("compute_spmv", "compute_waxpby", "compute_dot")


def numeric_calls(fn):
    """Calls of the CG kernels, of scipy's ``csr_matvec`` (CG's product
    and every colour step) and of ``CGState.copy`` while ``fn()`` runs."""
    calls = Counter()

    def tick(frame, event, arg):
        if event == "call" and frame.f_code.co_name in KERNELS:
            calls[frame.f_code.co_name] += 1
        elif event == "call" and frame.f_code is CGState.copy.__code__:
            calls["checkpoint copy"] += 1
        elif event == "c_call" and getattr(arg, "__name__", "") \
                == "csr_matvec":
            calls["csr_matvec"] += 1

    previous = sys.getprofile()
    sys.setprofile(tick)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestPricedEqualsComputed:
    """The first untraced run on a problem computes and records every
    dot; a later one whose stop point the record reaches prices only, and
    must price and count what the computing run did, to the bit,
    whatever the backend, mode, agglomeration, preconditioner, stopping
    rule and fault plan."""

    @pytest.mark.parametrize("kind", ["none", "checkpoint", "crash",
                                      "straggler", "loss"])
    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_a_priced_run_equals_the_computed_one(self, kind, data):
        cls = BACKENDS[data.draw(st.sampled_from(sorted(BACKENDS)))]
        config = dict(
            mg_levels=3,
            comm_mode=data.draw(st.sampled_from(["eager", "overlap"])),
            agglomerate_below=data.draw(st.sampled_from([0, 64])))
        solve = dict(use_mg=data.draw(st.booleans(), label="use_mg"),
                     **data.draw(st.sampled_from([
                         {"max_iters": 10},
                         {"max_iters": 40, "tolerance": 1e-4}])))
        # the plan's windows are drawn on another problem, of one shape
        plan = TestTapeEqualsStepwise().draw_plan(
            data, kind, cls(TestTapeEqualsStepwise.problem, 4, **config),
            solve)
        run = cls(generate_problem(8, 16, 16), 4, faults=plan, **config)
        with obs.disabled():
            computed = run.run_cg(**solve)
            priced = run.run_cg(**solve)
        assert (computed.replayed, priced.replayed) == (False, True)
        assert accounting(priced) == accounting(computed)

    @pytest.mark.parametrize("use_mg", [True, False])
    def test_a_second_untraced_run_computes_nothing(self, use_mg):
        """No product, vector update or dot, no colour step and no
        checkpoint copy: a silent fall-back to computing fails here.  (A
        checkpoint is accounting: the computing run copies no vector
        either.)"""
        run = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3,
                         faults=FaultPlan(checkpoint=Checkpoint(2)))
        with obs.disabled():
            first = numeric_calls(lambda: run.run_cg(6, use_mg=use_mg))
            second = numeric_calls(lambda: run.run_cg(6, use_mg=use_mg))
        assert all(first[name] > 0 for name in KERNELS + (
            "csr_matvec",)), first
        assert first["checkpoint copy"] == 0, first
        assert sum(second.values()) == 0, second

    def test_a_crash_resumes_from_the_record(self):
        """The survivors restore ``k``, ``rtz`` and the residuals and
        price on from the record at ``k + 1``."""
        problem = generate_problem(8, 16, 16)
        run = RefDistRun(problem, 4, mg_levels=3)
        first, last = iteration_windows(run, {"max_iters": 8})[4]
        run.faults = FaultPlan(checkpoint=Checkpoint(2),
                               crashes=(Crash(2, (first + last) // 2),))
        with obs.disabled():
            priced = run.run_cg(8)
        fresh = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3,
                           faults=run.faults)
        with obs.disabled():
            computed = fresh.run_cg(8)
        assert priced.replayed and not computed.replayed
        assert priced.resilience["recoveries"] == 1
        assert priced.resilience["reexecuted_iterations"] > 0
        assert accounting(priced) == accounting(computed)

    @pytest.fixture
    def recorded(self):
        """A fresh problem, one run on it and the history it computed."""
        problem = generate_problem(8, 16, 16)
        run = RefDistRun(problem, 4, mg_levels=3)
        with obs.disabled():
            result = run.run_cg(5)
        assert not result.replayed
        return problem, run, result.residuals

    def solve(self, problem, **kwargs):
        with obs.disabled():
            return HybridALPRun(problem, 4, mg_levels=3).run_cg(**kwargs)

    @pytest.mark.parametrize("name", ["b", "x0"])
    def test_a_new_or_mutated_vector_recomputes(self, recorded, name):
        problem, _, residuals = recorded
        other = dataclasses.replace(
            problem, **{name: getattr(problem, name).dup()})
        assert not self.solve(other, max_iters=5).replayed
        assert self.solve(other, max_iters=5).replayed
        getattr(problem, name).set_element(3, 0.5)    # a new version
        mutated = self.solve(problem, max_iters=5)
        assert not mutated.replayed and mutated.residuals != residuals
        assert self.solve(problem, max_iters=5).replayed

    def test_the_other_preconditioner_recomputes(self, recorded):
        problem, _, _ = recorded
        assert not self.solve(problem, max_iters=5, use_mg=False).replayed
        assert self.solve(problem, max_iters=5, use_mg=False).replayed
        assert self.solve(problem, max_iters=5).replayed

    def test_a_run_the_record_does_not_reach_recomputes(self, recorded):
        problem, _, residuals = recorded
        shorter = self.solve(problem, max_iters=3)
        assert shorter.replayed and shorter.residuals == residuals[:4]
        longer = self.solve(problem, max_iters=6)
        assert not longer.replayed and longer.residuals[:6] == residuals
        assert self.solve(problem, max_iters=6).replayed
        # a stop within the record prices, one beyond it computes
        reached = residuals[5] / residuals[0] * 1.01
        within = self.solve(problem, max_iters=40, tolerance=reached)
        assert within.replayed and within.iterations == 5
        beyond = self.solve(problem, max_iters=40, tolerance=reached / 100)
        assert not beyond.replayed and beyond.iterations > 6
        assert self.solve(problem, max_iters=40,
                          tolerance=reached / 100).replayed

    def test_a_traced_run_recomputes(self, recorded):
        problem, run, _ = recorded
        with obs.run():
            traced = run.run_cg(5)
        assert not traced.replayed

    def test_a_declined_application_is_counted(self, monkeypatch):
        """A ``b`` holding ``-0.0`` makes the first ``r`` one the kernel
        declines: the computing run reports every application it
        transcribed, the priced one none, and both book alike."""
        problem = generate_problem(8, 16, 16)
        b = problem.b.to_dense()
        b[::7] = -0.0
        problem = dataclasses.replace(problem, b=grb.Vector.from_dense(b))
        run = RefDistRun(problem, 4, mg_levels=3)
        calls, transcribe = [], numerics._Numerics.transcribe
        monkeypatch.setattr(numerics._Numerics, "transcribe", lambda *a:
                            calls.append(1) or transcribe(*a))
        with obs.disabled():
            computed = run.run_cg(4)
            priced = run.run_cg(4)
        assert (computed.replayed, computed.transcribed) == (False, len(calls))
        assert len(calls) > 0
        assert (priced.replayed, priced.transcribed) == (True, 0)
        assert accounting(priced) == accounting(computed)


# ---------------------------------------------------------------------------
# one problem, one copy of its level numerics
# ---------------------------------------------------------------------------

OPERATOR_ARRAYS = ("_indptr", "_indices", "_data", "perm", "inverse", "_diag")
WALK_BUFFERS = ("z", "r", "_s")
TWICE = grb.UnaryOp("twice", lambda x: 2.0 * x)


def kernel_sweeps(run):
    """The colour-major sweeps a run's V-cycle kernel relaxes."""
    return [entry[0] for entry in run._kernel._levels]


def ledger_style(problem, levels):
    """Makers of the six runs of the ledger's ``dist-32`` pass."""
    return [
        lambda: RefDistRun(problem, 4, mg_levels=levels),
        lambda: RefDistRun(problem, 4, mg_levels=levels, comm_mode="overlap"),
        lambda: HybridALPRun(problem, 4, mg_levels=levels),
        lambda: Hybrid2DRun(problem, 4, mg_levels=levels),
        lambda: RefDistRun(problem, 4, mg_levels=levels, faults=FaultPlan(
            seed=3, crashes=(Crash(1, 300),), checkpoint=Checkpoint(2))),
        lambda: RefDistRun(problem, 4, mg_levels=levels, faults=FaultPlan(
            seed=3, message_loss=MessageLoss(0.05))),
    ]


class TestSharedNumerics:
    """Every run on one problem shares its level numerics read only —
    operators, colourings, injections, colour-major sweep arrays — and
    keeps what a walk writes to itself."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the level constructors called, one entry per call."""
        calls = []
        for name in ("CsrColorSweep", "build_csr"):
            real = getattr(numerics, name)
            monkeypatch.setattr(
                numerics, name, lambda *a, _real=real, _name=name, **k:
                calls.append(_name) or _real(*a, **k))
        return calls

    @staticmethod
    def assert_one_copy(runs):
        first = runs[0]
        for run in runs[1:]:
            assert run._numerics is first._numerics
            for mine, theirs in zip(first.levels, run.levels):
                for name in ("A", "colors", "smoother", "injection"):
                    assert getattr(theirs, name) is getattr(mine, name), name
            for mine, theirs in zip(kernel_sweeps(first), kernel_sweeps(run)):
                for name in OPERATOR_ARRAYS:
                    assert getattr(theirs, name) is getattr(mine, name), name
                for name in WALK_BUFFERS:
                    assert getattr(theirs, name) is not getattr(mine, name)
            # the residual's plain rows: one copy, whichever twin asked
            for mine, theirs in zip(first._kernel._levels[:-1],
                                    run._kernel._levels[:-1]):
                assert theirs[1] is mine[1]

    def test_the_six_ledger_runs_hold_one_copy(self, built):
        runs = [make() for make in ledger_style(generate_problem(16), 4)]
        assert built.count("CsrColorSweep") == 4
        assert built.count("build_csr") == 3
        self.assert_one_copy(runs)

    def test_runs_at_several_node_counts_hold_one_copy(self, built):
        problem = generate_problem(16)
        runs = [cls(problem, p, mg_levels=3)
                for p in (1, 2, 4, 8) for cls in (RefDistRun, HybridALPRun)]
        assert built.count("CsrColorSweep") == 3
        assert built.count("build_csr") == 2
        self.assert_one_copy(runs)

    def test_runs_after_the_first_allocate_a_tenth_of_it(self):
        sizes, runs = [], []
        tracemalloc.start()
        try:
            for make in ledger_style(generate_problem(16), 4):
                before = tracemalloc.get_traced_memory()[0]
                runs.append(make())
                sizes.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert all(size <= 0.10 * sizes[0] for size in sizes[1:]), sizes

    def test_a_mutated_operator_gets_fresh_numerics(self):
        """The run built before the mutation keeps solving the operator
        it was built on, the one after solves the new one: each history
        is a fresh problem's."""
        problem = generate_problem(8, 16, 16)
        old = RefDistRun(problem, 4, mg_levels=3)
        grb.apply_matrix(problem.A, TWICE, problem.A)       # a new version
        new = RefDistRun(problem, 4, mg_levels=3)
        assert new._numerics is not old._numerics
        assert new.levels[0].smoother is not old.levels[0].smoother
        # what fresh problems give, one as generated and one as mutated
        scaled = generate_problem(8, 16, 16)
        grb.apply_matrix(scaled.A, TWICE, scaled.A)
        want_old = RefDistRun(generate_problem(8, 16, 16), 4,
                              mg_levels=3).run_cg(5).residuals
        want_new = RefDistRun(scaled, 4, mg_levels=3).run_cg(5).residuals
        assert want_old != want_new
        assert old.run_cg(5).residuals == want_old
        assert new.run_cg(5).residuals == want_new

    def test_a_different_depth_stencil_or_grid_shares_nothing(self):
        problem = generate_problem(16)
        base = RefDistRun(problem, 4, mg_levels=3)
        others = [
            RefDistRun(problem, 4, mg_levels=2),
            RefDistRun(dataclasses.replace(problem, stencil="7pt"), 4,
                       mg_levels=3),
            RefDistRun(dataclasses.replace(problem, grid=Grid3D(8, 16, 32)),
                       4, mg_levels=3),
        ]
        for other in others:
            assert other._numerics is not base._numerics
            for mine, theirs in zip(base.levels, other.levels):
                # the fine operator is the problem's own, never a copy
                if mine.index:
                    assert theirs.A is not mine.A
                for name in ("colors", "smoother"):
                    assert getattr(theirs, name) is not getattr(mine, name)
            for mine, theirs in zip(kernel_sweeps(base), kernel_sweeps(other)):
                for name in OPERATOR_ARRAYS:
                    assert getattr(theirs, name) is not getattr(mine, name)

    @pytest.fixture
    def kernels(self, monkeypatch):
        """The V-cycle kernels the engine builds, one entry per build."""
        built = []
        real = simulate.ColorMajorVCycle
        monkeypatch.setattr(simulate, "ColorMajorVCycle",
                            lambda *a: built.append(real(*a)) or built[-1])
        return built

    def test_only_the_computing_run_builds_a_kernel(self, kernels):
        runs = [make() for make in ledger_style(generate_problem(8, 16, 16),
                                                3)]
        assert kernels == []
        results = [run.run_cg(10) for run in runs]
        assert [result.replayed for result in results] == [False] + [True] * 5
        assert len(kernels) == 1
        assert runs[0]._kernel_cell == kernels
        assert all(run._kernel_cell == [] for run in runs[1:])

    def test_a_crash_survivor_uses_its_parents_kernel(self, kernels,
                                                      monkeypatch):
        survivors = []
        respawn = RefDistRun._respawn
        monkeypatch.setattr(RefDistRun, "_respawn", lambda self, *a, **k:
                            survivors.append(respawn(self, *a, **k))
                            or survivors[-1])
        crash = ledger_style(generate_problem(8, 16, 16), 3)[4]()
        result = crash.run_cg(10)
        assert not result.replayed and result.resilience["recoveries"] == 1
        [survivor] = survivors
        assert len(kernels) == 1
        assert survivor._kernel_cell is crash._kernel_cell
        assert survivor._kernel is crash._kernel is kernels[0]

    def test_the_numerics_die_with_the_last_run(self):
        problem = generate_problem(8, 16, 16)
        runs = [make() for make in ledger_style(problem, 3)]
        runs[4].run_cg(5)     # a faulted solve leaves a reference cycle
        numerics = weakref.ref(runs[0]._numerics)
        del runs
        gc.collect()
        assert numerics() is None
        assert len(simulate._SHARED) == 0


# ---------------------------------------------------------------------------
# every application runs the kernel's compiled schedule
# ---------------------------------------------------------------------------

def segments(run):
    return run._kernel.schedule()


class TestScheduledApplications:
    """Runs on one problem share sweeps but never a program: programs
    bind buffers."""

    def test_a_thin_grid_with_empty_colour_classes(self):
        problem = generate_problem(8, 8, 16)        # the coarsest is 1x1x2
        run = RefDistRun(problem, 1, mg_levels=4)
        assert 0 in run._numerics[-1].smoother.sizes
        r = np.random.default_rng(4).standard_normal(problem.n)
        assert np.array_equal(engine_apply(run, r), ref_mg_vcycle(
            build_ref_hierarchy(problem, levels=4), np.zeros(problem.n), r))

    def test_two_runs_interleave_segment_by_segment(self):
        """The second run twins sweeps that already hold a program: its
        twins start with none, so the interleaved applications write
        only their own buffers."""
        problem = generate_problem(8, 16, 16)
        first = RefDistRun(problem, 4, mg_levels=3)
        shared = [level.smoother for level in first._numerics]
        for sweep in shared:
            k = len(sweep.sizes)
            sweep.program((*range(k), *range(k)[::-1]))
        second = HybridALPRun(problem, 4, mg_levels=3)
        rng = np.random.default_rng(6)
        rs = [rng.standard_normal(problem.n) for _ in range(2)]
        want = [engine_apply(RefDistRun(problem, 4, mg_levels=3), r)
                for r in rs]
        zs = [np.full(problem.n, 7.0) for _ in rs]
        runs = (first, second)
        for run, r in zip(runs, rs):
            run._kernel.load(r)
        for pair in zip(*map(segments, runs)):
            for _, _, calls in pair:
                execute(calls)
        for run, z, w in zip(runs, zs, want):
            run._kernel.store(z)
            assert_bit_identical(z, w)


@pytest.mark.parametrize("cls", [RefDistRun, HybridALPRun, Hybrid2DRun])
@pytest.mark.parametrize("field", ["A", "b", "x0"])
def test_a_mis_sized_problem_is_refused_before_anything_is_built(
        dist_problem, monkeypatch, cls, field):
    small = generate_problem(8, 8, 16)             # 1024 points, not 2048
    problem = dataclasses.replace(dist_problem,
                                  **{field: getattr(small, field)})
    monkeypatch.setattr(simulate, "_Numerics",
                        lambda *a: pytest.fail("numerics built"))
    with pytest.raises(InvalidValue) as exc:
        cls(problem, 4, mg_levels=3)
    message = str(exc.value)
    assert "\n" not in message
    want = {"A": ("(1024, 1024)", "(2048, 2048)"),
            "b": ("(1024,)", "(2048,)"), "x0": ("(1024,)", "(2048,)")}
    assert all(shape in message for shape in want[field]), message


@pytest.mark.parametrize("p,dtype", [(3, np.uint8), (257, np.uint16)])
def test_narrow_owner_expansion_equals_int64(dist_problem, p, dtype):
    """Halos and interior masks from the narrow per-entry owners are the
    int64 expansion's, element for element."""
    A = dist_problem.A.to_scipy(copy=False)
    for owners in (bfs_partition(A.indptr, A.indices, dist_problem.n, p),
                   BlockCyclic1D(dist_problem.n, p).owner(
                       np.arange(dist_problem.n))):
        row_owner, remote = per_entry_owners(A.indptr, A.indices, owners)
        assert row_owner.dtype == dtype and row_owner.size == A.nnz
        wide = np.repeat(owners.astype(np.int64), np.diff(A.indptr))
        wide_remote = owners[A.indices] != wide
        np.testing.assert_array_equal(remote, wide_remote)
        np.testing.assert_array_equal(row_owner, wide)
        want = halo_for_owners(A.indptr, A.indices, owners, p,
                               entry_owners=(wide, wide_remote))
        got = halo_for_owners(A.indptr, A.indices, owners, p)
        assert want and got.keys() == want.keys()
        for pair, cols in want.items():
            np.testing.assert_array_equal(got[pair], cols)
        np.testing.assert_array_equal(interior_row_mask(A, owners),
                                      ~rows_touching_remote(A, wide_remote))


# ---------------------------------------------------------------------------
# one problem and layout, one communication record
# ---------------------------------------------------------------------------

def record(run):
    return run.levels, run._root_plans, run._dot_plan


def frozen(value):
    """A deep, comparable image of a record: arrays by dtype, shape and
    bytes, plans by their fields (not their cached totals), objects by
    their attributes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ExchangePlan):
        return frozen((value.sent, value.received, value.messages))
    if sp.issparse(value):
        return frozen((value.indptr, value.indices, value.data))
    if isinstance(value, dict):
        return tuple((frozen(k), frozen(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(frozen(item) for item in value)
    if hasattr(value, "__dict__"):
        return type(value).__name__, frozen(vars(value))
    return value


class TestSharedRecord:
    """Runs that agree on backend, node count, agglomeration and layout
    share one communication record, built once and never written."""

    def test_the_four_ledger_ref_runs_hold_one_record(self):
        makers = ledger_style(generate_problem(8, 16, 16), 3)
        first, *others = [makers[i]() for i in (0, 1, 4, 5)]
        for run in others:
            for mine, theirs in zip(record(first), record(run)):
                assert theirs is mine

    def test_a_different_backend_or_layout_shares_nothing(self):
        problem = generate_problem(8, 16, 16)
        runs = [
            RefDistRun(problem, 4, mg_levels=3),
            HybridALPRun(problem, 4, mg_levels=3),
            Hybrid2DRun(problem, 4, mg_levels=3),
            RefDistRun(problem, 2, mg_levels=3),
            RefDistRun(problem, 4, mg_levels=3, partition="bfs"),
            RefDistRun(problem, 4, mg_levels=3, process_grid=(1, 1, 4)),
            RefDistRun(problem, 4, mg_levels=3, agglomerate_below=64),
            HybridALPRun(problem, 4, mg_levels=3, block=2),
        ]
        assert len({id(run._numerics) for run in runs}) == 1
        for i, run in enumerate(runs):
            for other in runs[i + 1:]:
                for mine, theirs in zip(record(run), record(other)):
                    assert theirs is not mine
                for mine, theirs in zip(run.levels, other.levels):
                    assert theirs is not mine

    def test_a_recovery_run_twice_builds_the_survivors_record_once(
            self, monkeypatch):
        built = []
        init = RefDistRun._init_level_comm
        monkeypatch.setattr(
            RefDistRun, "_init_level_comm",
            lambda self, level: built.append(self.nprocs) or init(self, level))
        run = ledger_style(generate_problem(8, 16, 16), 3)[4]()
        first, second = run.run_cg(10), run.run_cg(10)
        assert first.resilience["recoveries"] == 1
        assert built == [4] * 3 + [first.nprocs] * 3
        assert accounting(second) == accounting(first)

    def test_solving_writes_nothing_to_the_record(self):
        problem = generate_problem(8, 16, 16)
        makers = ledger_style(problem, 3)
        clean, overlap, crash = (makers[i]() for i in (0, 1, 4))
        before = frozen(record(clean))
        for run in (clean, overlap, crash):
            run.run_cg(10)
            assert frozen(record(run)) == before

    def test_the_records_die_with_the_last_run(self):
        runs = [make() for make in ledger_style(generate_problem(8, 16, 16),
                                                3)]
        runs[4].run_cg(5)
        alive = [weakref.ref(level) for run in runs for level in run.levels]
        alive.append(weakref.ref(runs[0]._dot_plan))
        del runs
        gc.collect()
        assert all(ref() is None for ref in alive)

    def test_sharing_changes_no_result(self):
        """Each of the six runs, on the shared records, prices and counts
        exactly what it does alone on a fresh problem."""
        shared = [make() for make in ledger_style(generate_problem(8, 16, 16),
                                                  3)]
        for i, run in enumerate(shared):
            alone = ledger_style(generate_problem(8, 16, 16), 3)[i]()
            assert accounting(run.run_cg(10)) == accounting(alone.run_cg(10))
