"""The untraced pass: end-to-end metrics a user of the system would see.

No span recorder, no ``repro.obs`` context: the ledger clock (CPU
seconds, see clock.py) around whole phases.  Every workload reports the
same metrics; README.md defines them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.dist import tracker_comm_time, tracker_exposed_comm_time
from repro.hpcg.cg import CGWorkspace, pcg
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.hpcg.symmetry import validate
from repro.ref import build_ref_hierarchy, ref_pcg
from repro.ref.multigrid import RefMGPreconditioner
from repro.util.timer import TimerRegistry

import inputs
from checks import Checks
from clock import cpu
from spec import DIST_RUNS, Workload
from stats import paired_ratio, quartiles

MIN_ROUNDS, MAX_ROUNDS = 3, 60
SPMV_CALLS = 300    # reference SpMVs before, and again after, each set-up


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    gc.collect()
    t0 = cpu()
    out = fn()
    return cpu() - t0, out


def spmv_seconds(A, x: np.ndarray) -> float:
    t0 = cpu()
    for _ in range(SPMV_CALLS):
        A @ x
    return cpu() - t0


class RefSide:
    """The ``repro.ref`` yardstick of one system: scipy operator, dense
    right-hand side and the reference V-cycle over ``levels`` levels."""

    def __init__(self, w: Workload, problem, levels: int):
        self.w = w
        self.problem = problem
        self.A_ref = problem.A.to_scipy(copy=False)
        self.b_ref = problem.b.to_dense()
        self.ref_precond = RefMGPreconditioner(
            build_ref_hierarchy(problem, levels=levels))

    def ref_solve(self, iters: int = 0):
        return ref_pcg(self.A_ref, self.b_ref, np.zeros(self.problem.n),
                       preconditioner=self.ref_precond,
                       max_iters=iters or self.w.iters,
                       tolerance=self.w.tolerance)


class SerialSystem(RefSide):
    """One built serial system: GraphBLAS side, Ref side, solve calls."""

    def __init__(self, w: Workload, problem, hierarchy):
        super().__init__(w, problem, w.mg_levels)
        self.hierarchy = hierarchy
        # what run_hpcg configures: one always-on TimerRegistry shared by
        # the preconditioner and the CG loop
        self.timers = TimerRegistry()
        self.precond = MGPreconditioner(hierarchy, timers=self.timers)
        self.workspace = CGWorkspace(problem.n)
        self.x = problem.x0.dup()

    def solve(self, iters: int = 0, preconditioner=None, timers=None):
        """The timed solve, configured as ``run_hpcg`` configures it."""
        self.x.fill(0.0)
        return pcg(self.problem.A, self.problem.b, self.x,
                   preconditioner=preconditioner or self.precond,
                   max_iters=iters or self.w.iters,
                   tolerance=self.w.tolerance,
                   timers=self.timers if timers is None else timers,
                   workspace=self.workspace)


class DistSystem(RefSide):
    """The six simulated backends plus the serial Ref yardstick."""

    def __init__(self, w: Workload, problem, backends):
        super().__init__(w, problem, inputs.dist_levels(w))
        self.backends = backends

    def run(self, name: str):
        return self.backends[name].run_cg(max_iters=self.w.iters,
                                          tolerance=self.w.tolerance)

    def solve(self):
        return {name: self.run(name) for name in DIST_RUNS}


def set_up(w: Workload, seed: int):
    """One timed set-up: ``(seconds, problem, hierarchy or backends)``.

    ``generate_problem`` and ``build_hierarchy`` (``dist``: constructing
    the six backends) are timed; seeding the rhs in between is the
    harness's own input generation and is not.
    """
    t_gen, problem = timed(
        lambda: generate_problem(w.nx, stencil=w.stencil))
    problem = inputs.with_seeded_rhs(problem, seed)
    if w.dist:
        t_build, built = timed(
            lambda: inputs.dist_backends(w, problem, seed))
    else:
        t_build, built = timed(
            lambda: build_hierarchy(problem, levels=w.mg_levels))
    return t_gen + t_build, problem, built


def build(w: Workload, seed: int):
    _, problem, built = set_up(w, seed)
    return (DistSystem if w.dist else SerialSystem)(w, problem, built)


def dist_iterations(results) -> int:
    return sum(r.iterations
               + (r.resilience or {}).get("reexecuted_iterations", 0)
               for r in results.values())


def check_dist_pass(checks: Checks, system: DistSystem, results,
                    reference: List[float]) -> None:
    for name, r in results.items():
        checks.check(f"dist/{name}/residuals-equal-serial",
                     r.residuals == reference)
        machine = system.backends[name].machine
        full = tracker_comm_time(machine, r.tracker)
        exposed = tracker_exposed_comm_time(machine, r.tracker)
        if r.resilience is None:      # retries re-price wire time
            checks.check(f"dist/{name}/exposed+hidden=full",
                         np.isclose(r.comm_seconds, full, rtol=1e-9)
                         and np.isclose(r.exposed_comm_seconds, exposed,
                                        rtol=1e-9))
    clean = results["ref3d"]
    checks.check("dist/overlap<=eager",
                 results["ref3d-overlap"].modelled_seconds
                 <= clean.modelled_seconds)
    for name in ("ref3d-crash", "ref3d-loss"):
        checks.check(f"dist/{name}>=clean",
                     results[name].modelled_seconds >= clean.modelled_seconds)


def run(w: Workload, seed: int, seconds: float, smoke: bool,
        checks: Checks) -> Tuple[Dict[str, Dict[str, float]],
                                 Dict[str, Tuple[str, Dict[str, float]]]]:
    """Measure one workload untraced; returns ``(stats, info)``.

    ``stats`` holds the gated metrics' statistics (``median``/``q1``/
    ``q3``/``n``, plus ``base`` for paired ratios); ``info`` maps a name
    to ``(unit, statistics)`` for what is printed and stored but not
    gated — raw seconds wobble with the host's speed, which is why the
    gates are the paired ratios.
    """
    # --- untimed warm-up of everything timed below -------------------------
    system = build(w, seed)
    if not w.dist:
        checks.check("validate",
                     validate(system.problem.A, system.precond).passed)
    system.solve()
    reference = system.ref_solve().residuals
    # the footprint of one built-and-solved system: read before the
    # sampling loops, whose garbage depends on how many samples fit
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    x_probe = inputs.rng_for(seed, "spmv").uniform(-1.0, 1.0,
                                                   system.problem.n)
    A_ref = system.A_ref
    spmv_seconds(A_ref, x_probe)

    # --- one round = a set-up sample + a solve sample, each bracketed by its
    # yardstick; rounds fill ``seconds``, so both metrics sample the whole
    # window and a burst of host noise cannot own one of them
    def setup_sample():
        before = spmv_seconds(A_ref, x_probe)
        seconds_ = set_up(w, seed)[0]
        after = spmv_seconds(A_ref, x_probe)
        return seconds_, (before + after) / (2 * SPMV_CALLS)

    def yardstick():
        t, ref = timed(system.ref_solve)
        checks.check("solve/ref-repeats", ref.residuals == reference)
        return t

    def solve_sample():
        before = [yardstick() for _ in range(w.ref_repeats)]
        t_a, result = timed(system.solve)
        after = [yardstick() for _ in range(w.ref_repeats)]
        if w.dist:
            check_dist_pass(checks, system, result, reference)
            iterations = dist_iterations(result)
        else:
            checks.check("solve/residuals-bit-identical-to-ref",
                         result.residuals == reference)
            if w.tolerance:
                checks.check("solve/converged", result.converged)
            iterations = result.iterations
        return t_a, statistics.median(before + after), iterations

    rounds = []
    least, most = (2, 2) if smoke else (MIN_ROUNDS, MAX_ROUNDS)
    end = time.perf_counter() + seconds
    while len(rounds) < least or (time.perf_counter() < end
                                  and len(rounds) < most):
        rounds.append(setup_sample() + solve_sample())
    setup_s, spmv_s, solve_s, ref_s, counts = (list(c) for c in zip(*rounds))
    checks.check("solve/iteration-count-repeats", len(set(counts)) == 1)

    stats = {
        # SpMV equivalents times the frozen SpMV: baseline-host seconds
        "setup_s": quartiles([s / y * w.spmv_nominal_s
                              for s, y in zip(setup_s, spmv_s)]),
        "solve_vs_ref": paired_ratio(solve_s, ref_s),
        "peak_rss_mb": quartiles([rss_mb]),
        "cg_iterations": quartiles([max(counts)]),
    }
    info = {
        "info.setup_vs_spmv": ("ratio", paired_ratio(setup_s, spmv_s)),
        "info.setup_cpu_s": ("s", quartiles(setup_s)),
        "info.solve_s": ("s", quartiles(solve_s)),
        "info.ref_solve_s": ("s", quartiles(ref_s)),
        "info.ref_spmv_s": ("s", quartiles(spmv_s)),
    }
    return stats, info
