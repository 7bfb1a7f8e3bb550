"""Metamorphic properties of the simulated engine's cost model.

The fingerprint (``tests/test_dist_fingerprint.py``) pins what the
engine books to the bit; these pin how bookings relate across runs that
differ in one input, so a change that moves every case consistently
still has to keep them: overlap never costs more than eager, a fault
never makes a run cheaper, a straggler's factor orders the runs it
slows, a checkpoint adds its own seconds and nothing else, and an
unfaulted run's wire seconds are what its tracker's supersteps re-price
to.  The edge cases of a crash — before the loop, on a checkpoint's
barrier, among retries — book alike however the run is run.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.dist import (Checkpoint, Crash, FaultPlan, Hybrid2DRun,
                        HybridALPRun, MessageLoss, RefDistRun, Straggler,
                        tracker_comm_time, tracker_exposed_comm_time)
from repro.hpcg.problem import generate_problem
from test_dist_runs import accounting

PROBLEM = generate_problem(8)
BACKENDS = (RefDistRun, HybridALPRun, Hybrid2DRun)
SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=list(HealthCheck))


@st.composite
def configs(draw):
    """A backend, its engine keywords and a solve."""
    cls = draw(st.sampled_from(BACKENDS))
    engine = dict(mg_levels=3, agglomerate_below=draw(st.sampled_from([0, 64])))
    solve = dict(use_mg=draw(st.booleans()), **draw(st.sampled_from([
        {"max_iters": 4}, {"max_iters": 30, "tolerance": 1e-3}])))
    return cls, engine, solve


def solved(cls, engine, solve, **changed):
    with obs.disabled():
        return cls(PROBLEM, 4, **engine, **changed).run_cg(**solve)


@SETTINGS
@given(config=configs())
def test_overlap_never_costs_more_than_eager(config):
    eager, overlap = (solved(*config, comm_mode=mode)
                      for mode in ("eager", "overlap"))
    assert overlap.residuals == eager.residuals
    assert overlap.modelled_seconds <= eager.modelled_seconds
    assert overlap.exposed_comm_seconds <= eager.exposed_comm_seconds
    assert overlap.comm_seconds == eager.comm_seconds


@SETTINGS
@given(config=configs(), seed=st.integers(0, 99), plan=st.sampled_from(
    ["checkpoint", "straggler", "speeds", "loss", "crash"]))
def test_a_fault_never_makes_a_run_cheaper(config, seed, plan):
    faults = {
        "checkpoint": FaultPlan(checkpoint=Checkpoint(2)),
        "straggler": FaultPlan(stragglers=(Straggler(1, 2.0, 5, 60),)),
        "speeds": FaultPlan(node_speeds={2: 0.5}),
        "loss": FaultPlan(seed=seed, message_loss=MessageLoss(0.3)),
        "crash": FaultPlan(checkpoint=Checkpoint(1),
                           crashes=(Crash(1, 10 + seed),)),
    }[plan]
    clean, faulted = solved(*config), solved(*config, faults=faults)
    assert faulted.residuals == clean.residuals
    assert faulted.modelled_seconds >= clean.modelled_seconds
    assert faulted.comm_seconds >= clean.comm_seconds


@SETTINGS
@given(config=configs(), factors=st.lists(
    st.floats(1.0, 8.0), min_size=2, max_size=2).map(sorted),
    window=st.tuples(st.integers(0, 50), st.integers(1, 200)))
def test_modelled_seconds_grow_with_the_straggler_factor(config, factors,
                                                         window):
    start, length = window
    slow, slower = (solved(*config, faults=FaultPlan(stragglers=(
        Straggler(3, factor, start, start + length),)))
        for factor in factors)
    assert slow.modelled_seconds <= slower.modelled_seconds
    assert slow.comm_seconds == slower.comm_seconds


@SETTINGS
@given(config=configs(), interval=st.integers(1, 3))
def test_checkpoints_add_their_own_seconds(config, interval):
    clean = solved(*config)
    checked = solved(*config, faults=FaultPlan(
        checkpoint=Checkpoint(interval)))
    r = checked.resilience
    assert r["checkpoints"] == (clean.iterations - (
        clean.iterations == config[2]["max_iters"])) // interval
    assert checked.modelled_seconds == pytest.approx(
        clean.modelled_seconds + r["checkpoint_seconds"], rel=1e-12)
    assert checked.timers.total("fault/checkpoint") == pytest.approx(
        r["checkpoint_seconds"], rel=1e-12)
    assert checked.syncs == clean.syncs + r["checkpoints"]


@SETTINGS
@given(config=configs(), mode=st.sampled_from(["eager", "overlap"]))
def test_booked_wire_seconds_are_the_tracker_repriced(config, mode):
    cls, engine, solve = config
    run = cls(PROBLEM, 4, comm_mode=mode, **engine)
    with obs.disabled():
        result = run.run_cg(**solve)
    assert result.comm_seconds == tracker_comm_time(run.machine,
                                                    result.tracker)
    assert result.exposed_comm_seconds == tracker_exposed_comm_time(
        run.machine, result.tracker)


def ways(cls, faults, **solve):
    """The run computed, priced from its record, and traced."""
    run = cls(generate_problem(8), 4, mg_levels=3, faults=faults)
    with obs.disabled():
        computed, priced = run.run_cg(**solve), run.run_cg(**solve)
    with obs.run():
        traced = run.run_cg(**solve)
    assert (computed.replayed, priced.replayed) == (False, True)
    return computed, priced, traced


@pytest.mark.parametrize("cls", BACKENDS)
@pytest.mark.parametrize("step", [0, 1])
def test_a_crash_before_the_loop(cls, step):
    """On ``cg_start``'s supersteps: nothing to re-execute, and the
    survivors start over."""
    results = ways(cls, FaultPlan(crashes=(Crash(1, step),)), max_iters=4)
    assert len({repr(accounting(r)) for r in results}) == 1
    r = results[0].resilience
    assert r["recoveries"] == 1 and r["reexecuted_iterations"] == 0
    crash, = [e for e in r["events"] if e["kind"] == "crash"]
    assert crash["superstep"] == step


@pytest.mark.parametrize("cls", BACKENDS)
def test_a_crash_on_a_checkpoint_barrier_leaves_the_previous_snapshot(cls):
    """The torn checkpoint is neither counted, nor timed, nor recorded:
    the survivors resume from the one before it."""
    with obs.disabled():
        steps = [s.index for s in cls(PROBLEM, 4, mg_levels=3, faults=(
            FaultPlan(checkpoint=Checkpoint(2)))).run_cg(6).tracker.supersteps
            if s.label == "checkpoint"]
    results = ways(cls, FaultPlan(checkpoint=Checkpoint(2),
                                  crashes=(Crash(2, steps[1]),)), max_iters=6)
    assert len({repr(accounting(r)) for r in results}) == 1
    events = results[0].resilience["events"]
    assert [(e["kind"], e["superstep"]) for e in events][:3] == [
        ("checkpoint", steps[0]), ("crash", steps[1]),
        ("recovery", steps[1] + 1)]
    assert events[2]["detail"]["resume_iteration"] == 2


@pytest.mark.parametrize("seed", range(6))
def test_a_crash_among_retries_cuts_its_exchange_short(seed):
    """A crash landing on a retry books the retries before it; the
    exchange drew all of them, and its loss event says so."""
    results = ways(RefDistRun, FaultPlan(
        seed=seed, message_loss=MessageLoss(0.9, 4),
        crashes=(Crash(1, 8 + 3 * seed),)), max_iters=6, use_mg=False)
    assert len({repr(accounting(r)) for r in results}) == 1
    r = results[0].resilience
    lost = sum(e["detail"]["retries"] for e in r["events"]
               if e["kind"] == "message_loss")
    assert r["recoveries"] == 1 and lost == r["exchange_retries"]
