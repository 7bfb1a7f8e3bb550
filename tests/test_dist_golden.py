"""Absolute pin of the simulated distributed engine's accounting.

Every other dist suite compares runs to each other (clean vs faulted,
eager vs overlap, dist vs serial), so a change that shifts both sides
together passes them all.  ``tests/data/dist_golden.json`` stores what
the engine priced at the commit that generated it — modelled / wire /
exposed seconds, per-key timer totals, superstep and byte counts and the
whole ``resilience`` summary — for 3 backends x eager/overlap x
{clean, straggler, message_loss, crash_recover} x ``agglomerate_below``
0/64 at 16^3 on 4 nodes.  Everything compares exactly, seconds to the
bit: the engine adds every total left to right, so a change that moves
one rounding moves the file.

Residuals depend on the BLAS build, so none are stored: each run's
history must ``==`` an in-process ``run_hpcg`` one instead.

Machine and communication mode are explicit on every run, so
``REPRO_OVERLAP`` cannot move the numbers.
Regenerate (only when the cost model is *meant* to change) with
``PYTHONPATH=src python tests/test_dist_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.dist import FaultPlan, Hybrid2DRun, HybridALPRun, RefDistRun
from repro.dist.bsp import ARM_CLUSTER_NODE
from repro.hpcg.driver import run_hpcg
from repro.hpcg.problem import generate_problem

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "data" / "dist_golden.json"
PLANS = ROOT.parent / "examples" / "faults"

BACKENDS = {cls.backend: cls for cls in (RefDistRun, HybridALPRun,
                                         Hybrid2DRun)}
SCENARIOS = ("clean", "straggler", "message_loss", "crash_recover")
MAX_ITERS = 6          # enough supersteps for the planned crash at 400
MG_LEVELS = 3
NPROCS = 4

CASES = [f"{backend}/{mode}/{scenario}/agg{agg}"
         for backend in BACKENDS
         for mode in ("eager", "overlap")
         for scenario in SCENARIOS
         for agg in (0, 64)]


def run_case(case: str, problem):
    backend, mode, scenario, agg = case.split("/")
    faults = (None if scenario == "clean"
              else FaultPlan.from_json(PLANS / f"{scenario}.json"))
    run = BACKENDS[backend](
        problem, NPROCS, mg_levels=MG_LEVELS, machine=ARM_CLUSTER_NODE,
        comm_mode=mode, agglomerate_below=int(agg[3:]), faults=faults)
    return run.run_cg(max_iters=MAX_ITERS)


def snapshot(result) -> dict:
    """Everything priced or counted, nothing BLAS-dependent."""
    return {
        "iterations": result.iterations,
        "nprocs": result.nprocs,
        "supersteps": result.syncs,
        "comm_bytes": result.comm_bytes,
        "total_h": result.tracker.total_h,
        "modelled_seconds": result.modelled_seconds,
        "comm_seconds": result.comm_seconds,
        "exposed_comm_seconds": result.exposed_comm_seconds,
        "timers": result.timers.as_dict(counts=True),
        "comm_timers": result.comm_timers.as_dict(counts=True),
        "resilience": result.resilience,
    }


def assert_same(got, want, where: str) -> None:
    """Structural equality, floats to the bit."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), where


@pytest.fixture(scope="module")
def problem():
    return generate_problem(16)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def serial_residuals(problem):
    return run_hpcg(nx=0, problem=problem, max_iters=MAX_ITERS,
                    mg_levels=MG_LEVELS,
                    validate_symmetry=False).cg.residuals


def test_golden_covers_exactly_the_lattice(golden):
    assert sorted(golden) == sorted(CASES)
    # the crash plan must actually fire, or the recovery path is unpinned
    for case in CASES:
        if "/crash_recover/" in case:
            assert golden[case]["resilience"]["recoveries"] == 1, case


@pytest.mark.parametrize("case", CASES)
def test_matches_golden(case, problem, golden, serial_residuals):
    result = run_case(case, problem)
    assert result.residuals == serial_residuals
    # through JSON, so tuples/int keys normalise the way the file did
    got = json.loads(json.dumps(snapshot(result)))
    assert_same(got, golden[case], case)


if __name__ == "__main__":
    _problem = generate_problem(16)
    GOLDEN.parent.mkdir(exist_ok=True)
    # one case per line: compact, and a drifted case is a one-line diff
    GOLDEN.write_text("{\n" + ",\n".join(
        json.dumps(case) + ": " + json.dumps(
            snapshot(run_case(case, _problem)), sort_keys=True,
            separators=(",", ":"))
        for case in sorted(CASES)) + "\n}\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
