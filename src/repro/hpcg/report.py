"""Official-HPCG-style result report.

The real benchmark emits a YAML file (``HPCG-Benchmark_3.1_....yaml``)
with the problem setup, the validation results, per-kernel timing/flop
summaries and the final rating.  This module renders the same structure
from an :class:`~repro.hpcg.driver.HPCGResult`, both as a nested dict
(for programmatic use) and as YAML-formatted text (no YAML library
needed — the subset we emit is plain nested scalars).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # annotation only: keeps `import repro.hpcg` off the driver
    from repro.hpcg.driver import HPCGResult


def to_dict(result: HPCGResult, obs_ctx=None,
            trace_diff=None, trace_baseline=None) -> Dict:
    """The report as a nested dictionary.

    ``obs_ctx`` (a :class:`repro.obs.RunContext`) adds an
    "Observability" section identifying the trace the run produced.
    ``trace_diff`` (a :class:`repro.obs.TraceDiff`, from the driver's
    ``--compare-trace``) adds a "Trace Comparison" section: the
    significant per-span movers against the baseline trace, each with
    its execution-vs-model attribution verdict.
    """
    problem = result.problem
    counts = result.flops.merged()
    kernel_seconds = {
        "spmv": result.timers.total("cg/spmv"),
        "dot": result.timers.total("cg/dot"),
        "waxpby": result.timers.total("cg/waxpby"),
        "mg": result.timers.total("mg/"),
    }
    gflops_per_kernel = {}
    for kernel, seconds in kernel_seconds.items():
        if kernel == "mg":
            flops = sum(v for k, v in counts.items()
                        if k in ("rbgs", "mg_spmv", "restrict", "refine"))
        else:
            flops = counts.get(kernel, 0.0)
        gflops_per_kernel[kernel] = flops / seconds / 1e9 if seconds else 0.0
    obs_section = {}
    if obs_ctx is not None:
        obs_section = {
            "Observability": {
                "Run ID": obs_ctx.run_id,
                "Spans Recorded": len(obs_ctx.tracer.spans),
                "Spans Dropped": obs_ctx.tracer.dropped,
                "Metrics": len(obs_ctx.metrics.names()),
                "Substrate Decisions": len(obs_ctx.manifest.decisions),
            }
        }
    diff_section = {}
    if trace_diff is not None:
        significant = trace_diff.significant_rows()
        movers = {}
        for row in significant[:5]:
            old_self = row.old.wall_self if row.old else 0.0
            new_self = row.new.wall_self if row.new else 0.0
            movers[row.key] = (
                f"{old_self:.4f}s -> {new_self:.4f}s ({row.verdict})"
            )
        diff_section = {
            "Trace Comparison": {
                "Baseline": trace_baseline or "(baseline trace)",
                "Aggregated By": trace_diff.by,
                "Significant Deltas": len(significant),
                **({"Top Movers": movers} if movers else {}),
            }
        }
    return {
        "HPCG-Benchmark": {
            "version": "repro-python",
            "Global Problem Dimensions": {
                "nx": problem.grid.nx,
                "ny": problem.grid.ny,
                "nz": problem.grid.nz,
            },
            "Linear System Information": {
                "Number of Equations": problem.n,
                "Number of Nonzero Terms": problem.A.nvals,
            },
            "Multigrid Information": {
                "Number of coarse grid levels": max(result.mg_levels - 1, 0),
            },
            "Setup Information": {
                "Setup Time": round(result.setup_seconds, 6),
            },
            "Validation Testing": {
                "spmv symmetry error": result.symmetry.spmv_error,
                "preconditioner symmetry error": result.symmetry.precond_error,
                "Result": "PASSED" if result.symmetry.passed else "FAILED",
            },
            "Iteration Count Information": {
                "Total number of optimized iterations": result.cg.iterations,
            },
            "Reproducibility Information": {
                "Scaled residual": result.cg.relative_residual,
            },
            "Benchmark Time Summary": {
                "Total": round(result.run_seconds, 6),
                **{k: round(v, 6) for k, v in kernel_seconds.items()},
            },
            "GFLOP/s Summary": {
                "Raw Total": round(result.gflops, 6),
                **{f"Raw {k.upper()}": round(v, 6)
                   for k, v in gflops_per_kernel.items()},
            },
            **obs_section,
            **diff_section,
            "Final Summary": {
                "HPCG result is": "VALID" if result.symmetry.passed else "INVALID",
                "GFLOP/s rating of": round(result.gflops, 6),
            },
        }
    }


def _render(node, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in node.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def render_report(result: HPCGResult, obs_ctx=None,
                  trace_diff=None, trace_baseline=None) -> str:
    """The report as YAML-formatted text (official-report lookalike)."""
    return _render(to_dict(result, obs_ctx=obs_ctx,
                           trace_diff=trace_diff,
                           trace_baseline=trace_baseline))
