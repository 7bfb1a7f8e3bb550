"""The traced pass: one span per call into each layer's public functions.

Every workload's traced run takes the whole layer inventory on *that
workload's* grid and stencil — also of layers its end-to-end pass never
enters (the simulated-distributed engine on the serial workloads, the
serial GraphBLAS solver on ``dist-32``) — so one metric set describes
all four.  Numbers are derived from the spans afterwards
(:func:`derive`); module names are the layer names.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from typing import Any, Dict, Tuple

import numpy as np

from repro import graphblas as grb
from repro import obs
from repro.dist import (CommTracker, FaultPlan, Grid3DPartition,
                        LocalRBGSExecutor, LocalSpmvExecutor, bsp_time,
                        factor3, halo_for_owners)
from repro.graphblas import fused as fused_ext
from repro.graphblas import substrate as substrate_mod
from repro.grid import stencil_coo
from repro.hpcg import flops as flops_mod
from repro.hpcg.coloring import (color_masks, coloring_for_problem,
                                 lattice_coloring)
from repro.hpcg.driver import run_hpcg
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.hpcg.restriction import build_restriction, prolong_add, restrict
from repro.hpcg.smoothers import RBGSSmoother
from repro.hpcg.symmetry import validate
from repro.perf.calibrate import measure_triad_bandwidth
from repro.ref import build_ref_hierarchy
from repro.util.timer import TimerRegistry, null_timer

import endtoend
import inputs
from checks import Checks
from spans import Recorder
from spec import DIST_RUNS, FAULT_PLANS, OUT_DIR, REPO_ROOT, Workload
from stats import paired_ratio, quartiles

FORMATS = ("csr", "sellcs", "blocked")
#: obs features, switched on one at a time on top of the previous ones
OBS_LADDER = ("trace", "stream", "artifacts", "profiler", "serve")


def probe_iters(w: Workload) -> int:
    """Iterations of the short solves the traced pass repeats: per-
    iteration numbers do not depend on the count, so five suffice (a
    tolerance-driven workload simply stops unconverged)."""
    return min(w.iters, 5)


def python(*args: str) -> None:
    """A fresh interpreter running ``args`` from the repo root
    (``PYTHONPATH`` already points at ``src``)."""
    subprocess.run([sys.executable, *args], cwd=REPO_ROOT, check=True,
                   capture_output=True, timeout=170)


def run(w: Workload, seed: int, seconds: float, smoke: bool,
        checks: Checks, trace_path: str) -> Tuple[Dict[str, float], Dict]:
    """Trace one workload; returns ``(per-layer values, labels)``."""
    rec = Recorder(w.name)
    k = 2 if smoke else 3              # samples of every ~ms-scale probe
    batch = 5 if smoke else 50         # calls per span of every us-scale probe
    ctx: Dict[str, Any] = {"w": w, "seed": seed, "k": k, "batch": batch,
                           "seconds": seconds, "smoke": smoke}
    with rec.span(w.name):
        with rec.span("setup"):
            setup_phase(rec, ctx)
        with rec.span("validate"):
            system = ctx["system"]
            with rec.span("hpcg.symmetry.validate"):
                report = validate(system.problem.A, system.precond)
            checks.check("validate", report.passed)
        with rec.span("solve"):
            solve_phase(rec, ctx, checks)
        with rec.span("probe"):
            substrate_probes(rec, ctx, checks)
            operation_probes(rec, ctx)
            multigrid_probes(rec, ctx)
            driver_probes(rec, ctx)
            obs_probes(rec, ctx, checks)
            dist_probes(rec, ctx)
    rec.write(trace_path)
    return derive(rec, ctx), ctx["labels"]


# --------------------------------------------------------------------------
# phases
# --------------------------------------------------------------------------

def setup_phase(rec: Recorder, ctx: Dict[str, Any]) -> None:
    w, seed, k = ctx["w"], ctx["seed"], ctx["k"]
    problem = inputs.seeded_problem(w, seed)          # untimed warm-up
    grid, n = problem.grid, problem.n
    coo = rec.probe("grid.stencil_coo", lambda: stencil_coo(grid, w.stencil),
                    k, warm=False)
    rec.probe("graphblas.matrix.from_coo",
              lambda: grb.Matrix.from_coo(*coo, n, n), k, warm=False)
    rec.probe("graphblas.matrix.diag", lambda: grb.diag(problem.A), k)
    rec.probe("hpcg.problem.generate",
              lambda: generate_problem(w.nx, stencil=w.stencil), 2,
              warm=False)
    colors = rec.probe(
        "hpcg.coloring.color",
        lambda: color_masks(coloring_for_problem(problem.A, grid, "auto",
                                                 w.stencil)), k)
    rec.named("hpcg.coloring.color")[-1]["counts"]["num_colors"] = len(colors)
    rec.probe("hpcg.restriction.build", lambda: build_restriction(grid), k)
    hierarchy = rec.probe(
        "hpcg.multigrid.build_hierarchy",
        lambda: build_hierarchy(problem, levels=w.mg_levels), k, warm=False)
    rec.probe("ref.setup",
              lambda: build_ref_hierarchy(problem, levels=w.mg_levels), k)
    # the distributed engine's own set-up pieces, on the fine operator
    csr = problem.A.to_scipy(copy=False)
    shape = factor3(w.nprocs)
    owners = rec.probe(
        "dist.partition.grid3d",
        lambda: Grid3DPartition(grid, w.nprocs, shape=shape).owner(
            np.arange(n, dtype=np.int64)), k)
    rec.probe("dist.partition.halo",
              lambda: halo_for_owners(csr.indptr, csr.indices, owners,
                                      w.nprocs), k)
    plan = str(FAULT_PLANS / "crash_recover.json")
    rec.probe("dist.faults.plan_load", lambda: FaultPlan.from_json(plan),
              k, calls=10)
    ctx.update(
        problem=problem, colors=colors, csr=csr, owners=owners,
        system=endtoend.SerialSystem(w, problem, hierarchy),
        dist=endtoend.DistSystem(
            w, problem, inputs.dist_backends(w, problem, seed)),
        labels={
            "selected_substrate": {f"L{lvl.index}": lvl.A.substrate
                                   for lvl in hierarchy.levels()},
            # working set of one fine SpMV, beside the cache sizes above
            "fine_operator_mb": round(
                (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
                / 2**20, 2),
        },
    )


def solve_phase(rec: Recorder, ctx: Dict[str, Any], checks: Checks) -> None:
    """Traced/plain twins of the serial solve and of the six-run pass,
    interleaved; the traced serial solve carries a span per V-cycle."""
    w, system, dist = ctx["w"], ctx["system"], ctx["dist"]
    iters = probe_iters(w)

    def traced_precond(z, r):
        with rec.span("hpcg.multigrid.vcycle"):
            return system.precond(z, r)

    reference = system.ref_solve(iters).residuals
    system.solve(iters)                                   # untimed warm-up
    end = time.perf_counter() + 0.25 * ctx["seconds"]
    pairs = 0
    while pairs < 2 or (time.perf_counter() < end and pairs < 15):
        with rec.span("hpcg.cg.solve") as sp:
            result = system.solve(iters, preconditioner=traced_precond)
        sp["counts"]["iterations"] = result.iterations
        with rec.span("bench.plain_solve"):
            system.solve(iters)
        checks.check("solve/residuals-bit-identical-to-ref",
                     result.residuals == reference)
        pairs += 1
    rec.probe("ref.solve", lambda: system.ref_solve(iters), ctx["k"])

    dist_reference = dist.ref_solve().residuals
    dist.solve()                                          # untimed warm-up
    for _ in range(2):
        results = {}
        with rec.span("dist.pass"):
            for name in DIST_RUNS:
                with rec.span(f"dist.{name}.run_cg") as sp:
                    results[name] = r = dist.run(name)
                sp["counts"].update(supersteps=r.syncs,
                                    comm_bytes=r.comm_bytes,
                                    modelled_s=r.modelled_seconds)
        with rec.span("bench.plain_pass"):
            dist.solve()
        endtoend.check_dist_pass(checks, dist, results, dist_reference)
    ctx["dist_results"] = results


def substrate_probes(rec: Recorder, ctx: Dict[str, Any],
                     checks: Checks) -> None:
    """Each storage format forced onto the fine operator: first-call
    build, steady ``mxv`` and one symmetric RBGS sweep fused and not."""
    problem, k, seed = ctx["problem"], ctx["k"], ctx["seed"]
    n = problem.n
    x = inputs.probe_vector(seed, "mxv", n)
    r = inputs.probe_vector(seed, "sweep", n)
    y = grb.Vector.dense(n)
    traffic, expected = {}, None
    for fmt in FORMATS:
        A = grb.Matrix.from_scipy(ctx["csr"], substrate=fmt)
        with rec.span(f"graphblas.substrate.{fmt}.first_mxv"):
            grb.mxv(y, None, A, x)
        rec.probe(f"graphblas.substrate.{fmt}.mxv",
                  lambda: grb.mxv(y, None, A, x), k, calls=5, warm=False)
        if expected is None:
            expected = y.to_dense()
        checks.check(f"substrate/{fmt}/mxv-equals-csr",
                     np.array_equal(y.to_dense(), expected))
        traffic[fmt] = A.provider().mxv_traffic()[1]
        for tag, fused in (("fused", True), ("ref", False)):
            smoother = RBGSSmoother(A, problem.A_diag, ctx["colors"],
                                    fused=fused)
            z = grb.Vector.dense(n)
            with rec.span(f"graphblas.substrate.{fmt}.first_sweep_{tag}"):
                smoother.smooth(z, r)
            rec.probe(f"graphblas.substrate.{fmt}.sweep_{tag}",
                      lambda: smoother.smooth(z, r), k, warm=False)
    ctx["mxv_traffic"] = traffic
    rec.probe("graphblas.substrate.resolve",
              lambda: substrate_mod.resolve(ctx["csr"]), k, calls=5)


def operation_probes(rec: Recorder, ctx: Dict[str, Any]) -> None:
    problem, k, batch, seed = (ctx["problem"], ctx["k"], ctx["batch"],
                               ctx["seed"])
    n, A = problem.n, problem.A
    u = inputs.probe_vector(seed, "u", n)
    v = inputs.probe_vector(seed, "v", n)
    out = grb.Vector.dense(n)
    ops = "graphblas.operations."
    rec.probe(ops + "dot", lambda: grb.dot(u, v), k, calls=batch)
    rec.probe(ops + "waxpby", lambda: grb.waxpby(out, 1.0, u, 0.5, v), k,
              calls=batch)
    rec.probe(ops + "norm2", lambda: grb.norm2(u), k, calls=batch)
    rec.probe(ops + "mxv", lambda: grb.mxv(out, None, A, u), k, calls=5)
    mask = ctx["colors"][0]
    rec.probe(ops + "masked_mxv",
              lambda: grb.mxv(out, mask, A, u,
                              desc=grb.descriptors.structural), k, calls=5)
    tiny = [grb.Vector.dense(8, fill) for fill in (0.0, 1.0, 2.0)]
    rec.probe(ops + "dispatch",
              lambda: grb.waxpby(tiny[0], 1.0, tiny[1], 0.5, tiny[2]), k,
              calls=batch * 4)

    def unfused():
        grb.mxv(out, None, A, u)
        grb.waxpby(out, 1.0, v, -1.0, out)

    fused_out = grb.Vector.dense(n)
    fused_ext.fused_spmv_waxpby(fused_out, 1.0, v, -1.0, A, u)   # warm-up
    unfused()
    for _ in range(k):
        with rec.span("graphblas.fused.spmv_waxpby", calls=5):
            for _ in range(5):
                fused_ext.fused_spmv_waxpby(fused_out, 1.0, v, -1.0, A, u)
        with rec.span("graphblas.fused.unfused_pair", calls=5):
            for _ in range(5):
                unfused()
    # the scipy SpMV yardstick and the perf layer's own byte count
    A_ref, x_ref = ctx["system"].A_ref, u.to_dense()
    rec.probe("ref.spmv", lambda: A_ref @ x_ref, k, calls=10)
    log = grb.backend.EventLog()
    with grb.backend.collect(log):
        grb.mxv(out, None, A, u)
    ctx["spmv_model_bytes"] = sum(e.bytes for e in log.events)
    size = 200_000 if ctx["smoke"] else 4_000_000
    with rec.span("perf.calibrate.triad") as sp:
        sp["counts"]["bytes_per_s"] = measure_triad_bandwidth(size=size)
    registry = TimerRegistry()

    def measure():
        with registry.measure("probe"):
            pass

    rec.probe("util.timer.measure", measure, k, calls=batch * 4)
    # the solve as the driver runs it (always-on TimerRegistry) vs the
    # same solve under the null timer, paired
    system, iters = ctx["system"], probe_iters(ctx["w"])
    untimed_precond = MGPreconditioner(system.hierarchy)
    for _ in range(k):
        with rec.span("util.timer.solve_on"):
            system.solve(iters)
        with rec.span("util.timer.solve_off"):
            system.solve(iters, preconditioner=untimed_precond,
                         timers=null_timer)


def multigrid_probes(rec: Recorder, ctx: Dict[str, Any]) -> None:
    """Per-level pieces of one V-cycle, each called in isolation on the
    built hierarchy's public objects."""
    k, seed = ctx["k"], ctx["seed"]
    for lvl in ctx["system"].hierarchy.levels():
        tag = f"hpcg.multigrid.L{lvl.index}."
        calls = 1 if lvl.n >= 4096 else 10
        z = inputs.probe_vector(seed, f"z{lvl.index}", lvl.n)
        r = inputs.probe_vector(seed, f"r{lvl.index}", lvl.n)
        rec.probe(tag + "rbgs", lambda: lvl.smoother.smooth(z, r), k,
                  calls=calls)
        if lvl.coarser is None:
            continue

        def residual():             # the step exactly as mg_vcycle takes it
            if not fused_ext.fused_spmv_waxpby(lvl.f, 1.0, r, -1.0,
                                               lvl.A, z):
                grb.mxv(lvl.f, None, lvl.A, z)
                grb.waxpby(lvl.f, 1.0, r, -1.0, lvl.f)

        rec.probe(tag + "spmv", residual, k, calls=calls)
        rec.probe(tag + "restrict", lambda: restrict(lvl.rc, lvl.R, lvl.f),
                  k, calls=calls)
        rec.probe(tag + "prolong", lambda: prolong_add(z, lvl.R, lvl.zc),
                  k, calls=calls)


def driver_probes(rec: Recorder, ctx: Dict[str, Any]) -> None:
    w, system = ctx["w"], ctx["system"]
    iters = probe_iters(w)
    for _ in range(1 if ctx["smoke"] else ctx["k"]):
        with rec.span("hpcg.driver.import"):
            python("-c", "import repro.hpcg.driver")
    # the CLI has no stencil flag: lap7-40 runs it on its grid, 27-point
    cli = ["-m", "repro.hpcg.driver", "--nx", str(w.nx), "--iters",
           str(iters)]
    if w.dist:
        cli += ["--dist", "ref-3d", "--nprocs", str(w.nprocs),
                "--mg-levels", str(inputs.dist_levels(w))]
    with rec.span("hpcg.driver.cli"):
        python(*cli)
    with rec.span("hpcg.driver.run_hpcg"):
        run_hpcg(w.nx, max_iters=iters, tolerance=w.tolerance,
                 mg_levels=w.mg_levels, problem=system.problem)


def obs_probes(rec: Recorder, ctx: Dict[str, Any], checks: Checks) -> None:
    w, system, k = ctx["w"], ctx["system"], ctx["k"]
    iters = probe_iters(w)

    def spans(count: int) -> None:
        for _ in range(count):
            with obs.span("ledger/probe", "bench"):
                pass

    with obs.disabled():
        rec.probe("obs.null_span", lambda: spans(1000), k, calls=1)
    with obs.run(name="ledger-span-probe"):
        rec.probe("obs.span", lambda: spans(200), k, calls=1)

    stem = str(OUT_DIR / f"obs-{w.name}-{os.getpid()}")
    artifacts = [stem + suffix for suffix in
                 (".jsonl", ".trace.json", ".metrics.json", ".manifest.json")]

    def solve_with(level: int):
        """One solve with the first ``level`` ladder features on."""
        with contextlib.ExitStack() as scope:
            if level == 0:
                scope.enter_context(obs.disabled())
                return system.solve(iters), None
            run_ctx = scope.enter_context(obs.run(name="ledger-ladder"))
            if level >= 2:
                sink = obs.StreamingSink(artifacts[0], run_id=run_ctx.run_id,
                                         tracer=run_ctx.tracer)
                scope.callback(sink.close)
            if level >= 4:
                scope.enter_context(obs.SamplingProfiler(
                    hz=100.0, tracer=run_ctx.tracer,
                    registry=run_ctx.metrics))
            if level >= 5:
                scope.enter_context(
                    obs.LiveServer(obs.live.context_source(run_ctx), port=0))
            result = system.solve(iters)
            if level >= 3:
                obs.export.write_trace(artifacts[1], run_ctx)
                obs.export.write_metrics(artifacts[2], run_ctx)
                obs.export.write_manifest(artifacts[3],
                                          run_ctx.build_manifest())
            return result, run_ctx

    try:
        for _ in range(1 if ctx["smoke"] else k):
            with rec.span("obs.ladder.off"):
                off, _ = solve_with(0)
            for level, feature in enumerate(OBS_LADDER, start=1):
                with rec.span(f"obs.ladder.{feature}") as sp:
                    on, run_ctx = solve_with(level)
                sp["counts"]["spans"] = len(run_ctx.tracer.spans)
                checks.check(f"obs/{feature}/residuals-equal-off",
                             on.residuals == off.residuals)
        with obs.run(name="ledger-export") as run_ctx:
            system.solve(iters)
        rec.probe("obs.export.write_trace",
                  lambda: obs.export.write_trace(artifacts[1], run_ctx), k)
        recorded = run_ctx.tracer.as_dicts()
        rec.probe("obs.analyze.aggregate",
                  lambda: obs.analyze.aggregate(recorded), k)
    finally:
        for path in artifacts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def dist_probes(rec: Recorder, ctx: Dict[str, Any]) -> None:
    """Node-local executors and BSP pricing, outside any ``run_cg``."""
    w, k, seed = ctx["w"], ctx["k"], ctx["seed"]
    n, csr, owners = ctx["problem"].n, ctx["csr"], ctx["owners"]
    x = inputs.rng_for(seed, "halo").uniform(-1.0, 1.0, n)
    spmv = LocalSpmvExecutor(csr, owners, w.nprocs,
                             tracker=CommTracker(w.nprocs))
    rec.probe("dist.halo.spmv_exec", lambda: spmv.spmv(x), k)
    rbgs = LocalRBGSExecutor(
        csr, owners, w.nprocs,
        lattice_coloring(ctx["problem"].grid, w.stencil),
        tracker=CommTracker(w.nprocs))
    z = np.zeros(n)
    rec.probe("dist.halo.rbgs_exec", lambda: rbgs.smooth(z, x), k)
    clean = ctx["dist_results"]["ref3d"]
    steps = clean.tracker.supersteps
    work = [0.0] * len(steps)
    machine = ctx["dist"].backends["ref3d"].machine
    rec.probe("dist.bsp.price", lambda: bsp_time(machine, steps, work), k)


# --------------------------------------------------------------------------
# spans -> metrics
# --------------------------------------------------------------------------

def derive(rec: Recorder, ctx: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric, from the recorded spans and counts."""
    w: Workload = ctx["w"]

    def med(name: str) -> float:
        return quartiles(rec.per_call(name))["median"]

    def ratio(num: str, den: str) -> float:
        return paired_ratio(rec.per_call(num), rec.per_call(den))["median"]

    m: Dict[str, float] = {}
    for name in ("grid.stencil_coo", "graphblas.matrix.from_coo",
                 "graphblas.matrix.diag", "hpcg.problem.generate",
                 "hpcg.coloring.color", "hpcg.restriction.build",
                 "hpcg.multigrid.build_hierarchy", "hpcg.symmetry.validate",
                 "hpcg.driver.import", "hpcg.driver.cli", "ref.setup",
                 "ref.solve", "dist.partition.grid3d", "dist.partition.halo",
                 "obs.export.write_trace", "obs.analyze.aggregate"):
        m[name + "_s"] = med(name)
    for name in ("graphblas.operations.dot", "graphblas.operations.waxpby",
                 "graphblas.operations.norm2", "graphblas.operations.mxv",
                 "graphblas.operations.masked_mxv",
                 "graphblas.operations.dispatch",
                 "graphblas.substrate.resolve",
                 "graphblas.fused.spmv_waxpby", "ref.spmv",
                 "util.timer.measure", "dist.faults.plan_load",
                 "dist.halo.spmv_exec", "dist.halo.rbgs_exec",
                 "dist.bsp.price"):
        m[name + "_us"] = med(name) * 1e6
    m["hpcg.coloring.num_colors"] = (
        rec.named("hpcg.coloring.color")[-1]["counts"]["num_colors"])

    # --- substrates -------------------------------------------------------
    sub = "graphblas.substrate."
    for fmt in FORMATS:
        mxv = med(f"{sub}{fmt}.mxv")
        m[f"{sub}{fmt}.build_s"] = med(f"{sub}{fmt}.first_mxv") - mxv
        m[f"{sub}{fmt}.mxv_us"] = mxv * 1e6
        m[f"{sub}{fmt}.mxv_gbs"] = ctx["mxv_traffic"][fmt] / mxv / 1e9
        m[f"{sub}{fmt}.sweep_fused_us"] = med(f"{sub}{fmt}.sweep_fused") * 1e6
        m[f"{sub}{fmt}.sweep_ref_us"] = med(f"{sub}{fmt}.sweep_ref") * 1e6
    selected = ctx["labels"]["selected_substrate"]["L0"]
    for kind, probe in (("mxv", "mxv_us"), ("sweep", "sweep_fused_us")):
        m[f"{sub}{kind}_regret"] = (
            m[f"{sub}{selected}.{probe}"]
            / min(m[f"{sub}{fmt}.{probe}"] for fmt in FORMATS))
    m["graphblas.fused.spmv_waxpby_speedup"] = ratio(
        "graphblas.fused.unfused_pair", "graphblas.fused.spmv_waxpby")
    m["graphblas.fused.plan_build_s"] = (
        med(f"{sub}{selected}.first_sweep_fused")
        - med(f"{sub}{selected}.sweep_fused"))

    # --- the solve: CG iteration, V-cycle, per-level pieces ---------------
    solves = rec.named("hpcg.cg.solve")
    iteration = quartiles([s["cpu"] / s["counts"]["iterations"]
                           for s in solves])["median"]
    vcycle = med("hpcg.multigrid.vcycle")
    levels = list(range(w.mg_levels))
    parts = {f"L{i}.rbgs": (1 if i == levels[-1] else 2) for i in levels}
    for i in levels[:-1]:
        parts.update({f"L{i}.spmv": 1, f"L{i}.restrict": 1,
                      f"L{i}.prolong": 1})
    for part in parts:
        m[f"hpcg.multigrid.{part}_us"] = med(f"hpcg.multigrid.{part}") * 1e6
    m["hpcg.multigrid.vcycle_us"] = vcycle * 1e6

    def share(select) -> float:
        return sum(m[f"hpcg.multigrid.{p}_us"] * calls
                   for p, calls in parts.items() if select(p)) / 1e6
    m["hpcg.multigrid.unattributed_share"] = 1 - share(lambda p: True) / vcycle
    m["hpcg.multigrid.rbgs_share"] = (
        share(lambda p: p.endswith("rbgs")) / iteration)
    m["hpcg.multigrid.restrict_prolong_share"] = (
        share(lambda p: p.endswith(("restrict", "prolong"))) / iteration)
    ops = "graphblas.operations."
    vector_ops = (2 * m[ops + "dot_us"] + m[ops + "norm2_us"]
                  + 3 * m[ops + "waxpby_us"]) / 1e6
    m["hpcg.cg.iteration_us"] = iteration * 1e6
    m["hpcg.cg.vector_ops_share"] = vector_ops / iteration
    # self time of the solve span = the CG body outside the V-cycles
    m["hpcg.cg.unattributed_share"] = (quartiles([
        (rec.self_time(s) / s["counts"]["iterations"]
         - vector_ops - m[ops + "mxv_us"] / 1e6) for s in solves
    ])["median"] / iteration)
    hierarchy = ctx["system"].hierarchy.levels()
    per_iteration = flops_mod.cg_iteration_flops(
        ctx["problem"].n, ctx["problem"].A.nvals,
        [lvl.A.nvals for lvl in hierarchy], [lvl.n for lvl in hierarchy]
    ).total
    m["hpcg.flops.per_iteration"] = per_iteration
    m["hpcg.flops.gflops"] = per_iteration / iteration / 1e9
    iters = solves[-1]["counts"]["iterations"]
    m["hpcg.driver.run_hpcg_overhead_s"] = (
        med("hpcg.driver.run_hpcg") - m["hpcg.multigrid.build_hierarchy_s"]
        - m["hpcg.symmetry.validate_s"] - iteration * iters)

    # --- perf, obs, util --------------------------------------------------
    triad = rec.named("perf.calibrate.triad")[-1]["counts"]["bytes_per_s"]
    m["perf.calibrate.triad_gbs"] = triad / 1e9
    m["perf.model.spmv_bytes"] = ctx["spmv_model_bytes"]
    m["perf.spmv_bw_fraction"] = m[f"{sub}{selected}.mxv_gbs"] * 1e9 / triad
    m["obs.null_span_ns"] = med("obs.null_span") / 1000 * 1e9
    m["obs.span_us"] = med("obs.span") / 200 * 1e6
    for feature in OBS_LADDER:
        m[f"obs.on_vs_off.{feature}"] = ratio(f"obs.ladder.{feature}",
                                              "obs.ladder.off")
    m["obs.spans_per_solve"] = (
        rec.named("obs.ladder.trace")[-1]["counts"]["spans"])
    m["util.timer.on_vs_off"] = ratio("util.timer.solve_on",
                                      "util.timer.solve_off")

    # --- the simulated-distributed engine ---------------------------------
    for name in DIST_RUNS:
        last = rec.named(f"dist.{name}.run_cg")[-1]["counts"]
        m[f"dist.{name}.run_cg_s"] = med(f"dist.{name}.run_cg")
        m[f"dist.{name}.modelled_s"] = last["modelled_s"]
        m[f"dist.{name}.supersteps"] = last["supersteps"]
        m[f"dist.{name}.comm_bytes"] = last["comm_bytes"]
    results = ctx["dist_results"]
    m["dist.modelled_s"] = sum(m[f"dist.{name}.modelled_s"]
                               for name in DIST_RUNS)
    m["dist.host_us_per_superstep"] = (
        m["dist.ref3d.run_cg_s"] / m["dist.ref3d.supersteps"] * 1e6)
    m["dist.overlap.hidden_comm_s"] = (
        results["ref3d-overlap"].hidden_comm_seconds)
    crash = results["ref3d-crash"].resilience
    m["dist.faults.recoveries"] = crash["recoveries"]
    m["dist.faults.checkpoints"] = crash["checkpoints"]
    m["dist.faults.reexecuted_iterations"] = crash["reexecuted_iterations"]
    m["dist.faults.exchange_retries"] = (
        results["ref3d-loss"].resilience["exchange_retries"])
    m["dist.faults.modelled_overhead_ratio"] = (
        m["dist.ref3d-crash.modelled_s"] / m["dist.ref3d.modelled_s"])
    own = ("dist.pass", "bench.plain_pass") if w.dist else (
        "hpcg.cg.solve", "bench.plain_solve")
    m["bench.trace_overhead_ratio"] = ratio(*own)
    return {name: float(value) for name, value in m.items()}
