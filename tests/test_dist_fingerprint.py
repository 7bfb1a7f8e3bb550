"""Exact fingerprint of the simulated engine's accounting over a lattice.

``tests/data/dist_fingerprint.json`` stores, per case, a sha256 over
:func:`canonical` of ``test_dist_runs.accounting()`` — seconds and every
timer total as ``float.hex``, timer counts, every ``SuperstepStats``
field, label bytes and syncs and the whole ``resilience`` summary — and
the run's three totals (modelled, wire and exposed seconds) in hex in
the clear.  Residuals depend on the BLAS build, so only their count
enters; every way of running a case must agree on them instead.

The lattice: 3 backends x eager/overlap x {clean, checkpoint, straggler,
loss, capping loss, crash, crash + loss} x ``agglomerate_below`` 0/64 x
``use_mg`` x {fixed iterations, tolerance stop}, on 8^3 over 4 nodes.
Each case runs four ways that must all give the stored fingerprint: the
first run on numerics that keep nothing (it builds the communication
record and computes), a computing run on a kept record, a run that
prices only, and a traced run.

Regenerate (only when the cost model is *meant* to change) with
``PYTHONPATH=src:tests python tests/test_dist_fingerprint.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.dist import (Checkpoint, Crash, FaultPlan, Hybrid2DRun,
                        HybridALPRun, MessageLoss, RefDistRun, Straggler)
from repro.dist.bsp import ARM_CLUSTER_NODE, BSPMachine
from repro.dist.comm import CommTracker
from repro.hpcg.problem import generate_problem
from test_dist_runs import accounting

FINGERPRINT = Path(__file__).resolve().parent / "data" / \
    "dist_fingerprint.json"

BACKENDS = {cls.backend: cls for cls in (RefDistRun, HybridALPRun,
                                         Hybrid2DRun)}
PLANS = {
    "clean": None,
    "checkpoint": FaultPlan(checkpoint=Checkpoint(2)),
    "straggler": FaultPlan(node_speeds={3: 0.8}, stragglers=(
        Straggler(1, 2.5, 40, 160), Straggler(2, 4.0, 300))),
    "loss": FaultPlan(seed=5, message_loss=MessageLoss(0.2)),
    "capping-loss": FaultPlan(seed=6, message_loss=MessageLoss(0.7, 2)),
    # one crash in the first iteration, one after a checkpoint (a plain
    # CG iteration closes four supersteps, a V-cycle's hundreds)
    "crash": FaultPlan(checkpoint=Checkpoint(2),
                       crashes=(Crash(1, 14), Crash(2, 250))),
    "crash+loss": FaultPlan(seed=7, checkpoint=Checkpoint(2),
                            message_loss=MessageLoss(0.1),
                            crashes=(Crash(2, 20), Crash(3, 300))),
}
STOPS = {"fixed": {"max_iters": 6},
         "tolerance": {"max_iters": 40, "tolerance": 1e-3}}

CASES = [f"{backend}/{mode}/{plan}/agg{agg}/{'mg' if mg else 'cg'}/{stop}"
         for backend in BACKENDS
         for mode in ("eager", "overlap")
         for plan in PLANS
         for agg in (0, 64)
         for mg in (True, False)
         for stop in STOPS]


def canonical(value):
    """``value`` as JSON-ready data that pins every bit: floats as
    ``float.hex``, bytes as hex, dicts by sorted key."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return [[str(key), canonical(value[key])]
                for key in sorted(value, key=str)]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def fingerprint(result) -> dict:
    """The case's record: the digest, and its three totals in the clear."""
    acct = accounting(result)
    acct["residuals"] = len(acct["residuals"])
    text = json.dumps(canonical(acct), separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "totals": acct["seconds"]}


def forget(problem) -> None:
    """Drop everything the engine keeps on ``problem``'s numerics —
    communication records, what it prices from and recorded dots — so
    the next run on it is a fresh problem's first."""
    from repro.dist.numerics import _SHARED
    for numerics in _SHARED.values():
        if numerics.matrix is problem.A:
            for kept in vars(numerics).values():
                if isinstance(kept, dict):
                    kept.clear()


def make(case: str, problem):
    backend, mode, plan, agg, mg, stop = case.split("/")
    run = BACKENDS[backend](
        problem, 4, mg_levels=3, machine=ARM_CLUSTER_NODE, comm_mode=mode,
        agglomerate_below=int(agg[3:]), faults=PLANS[plan])
    return run, dict(use_mg=mg == "mg", **STOPS[stop])


def four_ways(case: str, problem) -> list:
    """The case run on a fresh problem, computed on a kept record, priced
    only, and traced."""
    forget(problem)
    run, solve = make(case, problem)
    with obs.disabled():
        fresh = run.run_cg(**solve)
        run._numerics.trajectories.clear()
        computed = run.run_cg(**solve)
        priced = run.run_cg(**solve)
    with obs.run():
        traced = run.run_cg(**solve)
    assert [r.replayed for r in (fresh, computed, priced, traced)] == \
        [False, False, True, False]
    return [fresh, computed, priced, traced]


@pytest.fixture(scope="module")
def problem():
    return generate_problem(8)


@pytest.fixture(scope="module")
def stored():
    return json.loads(FINGERPRINT.read_text())


def test_fingerprint_covers_exactly_the_lattice(stored):
    assert sorted(stored) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_every_way_of_running_a_case_matches_its_fingerprint(case, problem,
                                                              stored):
    results = four_ways(case, problem)
    assert all(r.residuals == results[0].residuals for r in results)
    if "crash" in case:         # the recovery path is pinned
        assert results[0].resilience["recoveries"] >= 1
    for way, result in zip(("fresh", "computed", "priced", "traced"),
                           results):
        assert fingerprint(result) == stored[case], (case, way)


@pytest.mark.parametrize("plan", PLANS)
def test_nothing_walks(plan, problem, python_calls, monkeypatch):
    """No run — fresh, computed, priced or traced, on any backend, in
    either mode — prices a superstep through the scalar
    ``superstep_costs``, and no untraced one closes a superstep through
    ``CommTracker.sync`` or ``wait``: every price comes from a program's
    arrays."""
    untraced = []
    for close in ("sync", "wait"):
        original = getattr(CommTracker, close)

        def counted(self, *args, _original=original, **kwargs):
            untraced.append(obs.current() is None)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CommTracker, close, counted)
    cases = [f"{backend}/{mode}/{plan}/agg64/mg/fixed"
             for backend in BACKENDS for mode in ("eager", "overlap")]
    assert python_calls(lambda: [four_ways(case, problem) for case in cases],
                        code=BSPMachine.superstep_costs.__code__) == 0
    assert not any(untraced)


if __name__ == "__main__":
    _problem = generate_problem(8)
    FINGERPRINT.parent.mkdir(exist_ok=True)
    # one case per line: a drifted case is a one-line diff
    FINGERPRINT.write_text("{\n" + ",\n".join(
        json.dumps(case) + ": " + json.dumps(
            fingerprint(four_ways(case, _problem)[0]), sort_keys=True,
            separators=(",", ":"))
        for case in sorted(CASES)) + "\n}\n")
    print(f"wrote {len(CASES)} cases to {FINGERPRINT}")
