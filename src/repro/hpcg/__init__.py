"""HPCG expressed on GraphBLAS — the paper's primary contribution.

Public API::

    from repro.hpcg import generate_problem, build_hierarchy, pcg, run_hpcg

    problem = generate_problem(32)
    hierarchy = build_hierarchy(problem, levels=4)
    result = run_hpcg(nx=32, max_iters=50)

All numerical code in this package programs against the opaque
:mod:`repro.graphblas` containers only; tests enforce that no module
here touches backend storage.
"""

from repro.hpcg.cg import CGResult, pcg
from repro.hpcg.coloring import (
    color_masks,
    coloring_for_problem,
    greedy_coloring,
    jones_plassmann_coloring,
    lattice_coloring,
    num_colors,
    validate_coloring,
)
from repro.hpcg.multigrid import (
    MGLevel,
    MGPreconditioner,
    build_hierarchy,
    mg_vcycle,
)
from repro.hpcg.problem import Problem, build_operator, generate_problem
from repro.hpcg.report import render_report, to_dict as report_dict
from repro.hpcg.restriction import build_restriction, prolong_add, restrict
from repro.hpcg.smoothers import JacobiSmoother, RBGSSmoother
from repro.hpcg.symmetry import SymmetryReport, validate


def __getattr__(name):
    # lazy (PEP 562): an eager driver import would put the module in
    # sys.modules before ``python -m repro.hpcg.driver`` executes it,
    # which runpy reports as a RuntimeWarning on every CLI run
    if name in ("HPCGResult", "run_hpcg"):
        from repro.hpcg import driver

        return getattr(driver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CGResult",
    "pcg",
    "color_masks",
    "coloring_for_problem",
    "greedy_coloring",
    "jones_plassmann_coloring",
    "lattice_coloring",
    "num_colors",
    "validate_coloring",
    "HPCGResult",
    "run_hpcg",
    "MGLevel",
    "MGPreconditioner",
    "build_hierarchy",
    "mg_vcycle",
    "Problem",
    "build_operator",
    "generate_problem",
    "build_restriction",
    "prolong_add",
    "restrict",
    "JacobiSmoother",
    "RBGSSmoother",
    "SymmetryReport",
    "validate",
    "render_report",
    "report_dict",
]
