"""The "Ref" baseline: reference-HPCG-style kernels on raw CSR storage.

This package deliberately does what :mod:`repro.hpcg` cannot: it reaches
straight into the CSR arrays (restriction by index copy, per-colour row
slices, triangular solves on matrix splits).  The paper's comparison is
precisely GraphBLAS-with-opaque-containers (ALP) versus this style of
code (Ref); keeping both in the repository makes every experiment a
two-sided measurement.

Naming follows the official HPCG sources: ``compute_spmv``,
``compute_waxpby``, ``compute_dot``, ``compute_symgs``, ``compute_mg``.
"""

from repro.ref.kernels import compute_dot, compute_spmv, compute_waxpby
from repro.ref.sgs import RefRBGS, RefSymGS
from repro.ref.multigrid import RefMGLevel, build_ref_hierarchy, ref_mg_vcycle
from repro.ref.cg import CGResult as RefCGResult, ref_pcg
from repro.ref.driver import RefHPCGResult, run_ref_hpcg

__all__ = [
    "compute_spmv",
    "compute_waxpby",
    "compute_dot",
    "RefSymGS",
    "RefRBGS",
    "RefMGLevel",
    "build_ref_hierarchy",
    "ref_mg_vcycle",
    "RefCGResult",
    "ref_pcg",
    "RefHPCGResult",
    "run_ref_hpcg",
]
