"""Shared fixtures: small generated problems, cached per session."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.hpcg.problem import generate_problem


@pytest.fixture(scope="session", autouse=True)
def _isolated_tune_cache(tmp_path_factory):
    """Keep tier-1 hermetic: manifest provenance records the cached
    machine profile, and a developer's own cache must not show up in
    the manifests the suite compares.  An explicit ``REPRO_TUNE_CACHE``
    is honoured.
    """
    from repro.tune import cache as tune_cache

    if os.environ.get(tune_cache.ENV_VAR, "").strip():
        yield
        return
    os.environ[tune_cache.ENV_VAR] = str(tmp_path_factory.mktemp("tune-cache"))
    tune_cache.invalidate()
    try:
        yield
    finally:
        os.environ.pop(tune_cache.ENV_VAR, None)
        tune_cache.invalidate()


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


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
