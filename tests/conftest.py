"""Shared fixtures: small generated problems, cached per session."""

from __future__ import annotations

import gc
import os
import sys

# One BLAS thread before numpy loads: a threaded OpenBLAS level-1 call
# can stall for milliseconds on a small shared host (README, "Pin the
# BLAS threads").  An exported value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from repro.dist.numerics import _SHARED
from repro.hpcg.problem import generate_problem


@pytest.fixture(scope="session")
def problem8():
    """An 8x8x8 HPCG problem (n=512), reference b-style."""
    return generate_problem(8)


@pytest.fixture(scope="session")
def problem4():
    """A 4x4x4 HPCG problem (n=64)."""
    return generate_problem(4)


@pytest.fixture(scope="session")
def problem16():
    """A 16x16x16 HPCG problem (n=4096) for integration tests."""
    return generate_problem(16)


@pytest.fixture(autouse=True)
def _unrecorded_numerics():
    """Each test's first simulated run on a problem computes: a later
    untraced run prices only when an earlier one on the problem recorded
    its dots, and a problem shared across tests must not carry another
    test's record into a history a test compares."""
    for kept in list(_SHARED.values()):
        kept.trajectories.clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def python_calls():
    """``python_calls(fn, code=None)``: the Python-level ``call`` +
    ``c_call`` events while ``fn()`` runs — deterministic, so a loop that
    crept back into vectorised code shows up as a count, not a timing.
    With ``code`` (a function's ``__code__``), only calls of that
    function are counted."""

    def count_calls(fn, code=None) -> int:
        count = 0

        def tick(frame, event, arg):
            nonlocal count
            if event == "call" and (code is None or frame.f_code is code):
                count += 1
            elif event == "c_call" and code is None:
                count += 1

        # no collection runs a finaliser or weakref callback of older
        # garbage inside the count
        previous, collecting = sys.getprofile(), gc.isenabled()
        gc.collect()
        gc.disable()
        sys.setprofile(tick)
        try:
            fn()
        finally:
            sys.setprofile(previous)
            if collecting:
                gc.enable()
        return count

    return count_calls


@pytest.fixture
def entries_read(monkeypatch):
    """``entries_read()``: per operator size, the stored entries each
    ``csr_matvec`` call of the colour-major kernels has read so far, in
    call order; forgotten once read."""
    from repro.graphblas.substrate import csr as csr_mod

    reads = {}
    matvec = csr_mod._csr_matvec

    def spy(rows, ncols, indptr, *rest):
        reads.setdefault(ncols, []).append(int(indptr[rows] - indptr[0]))
        matvec(rows, ncols, indptr, *rest)

    def taken():
        out = dict(reads)
        reads.clear()
        return out

    monkeypatch.setattr(csr_mod, "_csr_matvec", spy)
    return taken
