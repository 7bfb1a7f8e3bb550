"""``repro.tune`` — measured machine profiles.

The fourth subsystem: it makes the modelling pipeline self-calibrating.
BSP pricing in :mod:`repro.dist`, the scaling model in
:mod:`repro.perf` and the thread lane in
:mod:`repro.graphblas.substrate.threads` were seeded with the paper's
Table II datasheet constants; this package replaces them with
*measurements of the machine the code is running on*:

* :mod:`repro.tune.microbench` — the probe suite (STREAM triad, a BSP
  ``g``/``L`` fit from simulated h-relation timings, a
  compute-under-copy interference probe for ``overlap_efficiency``,
  a thread sweep);
* :mod:`repro.tune.profile` — the schema-versioned, canonically
  serialised :class:`MachineProfile` the probes produce;
* :mod:`repro.tune.cache` — persistence under ``REPRO_TUNE_CACHE``
  with staleness checks and a never-raising :func:`current_profile`.

Consumers: ``BSPMachine.from_profile(...)`` and
``MachineSpec.from_profile(...)`` construct measurement-driven machine
models; ``python -m repro.tune measure`` (``--fast`` for CI) produces
the profile.

``microbench`` is imported lazily (via :func:`measure`) so that
reading a profile does not drag the whole HPCG stack in.
"""

from repro.tune.cache import (
    ENV_VAR,
    MAX_AGE_ENV_VAR,
    cache_dir,
    clear,
    current_profile,
    load_profile,
    profile_path,
    save_profile,
)
from repro.tune.profile import (
    SCHEMA_VERSION,
    MachineProfile,
    ProfileVersionError,
    synthetic_profile,
)


def measure(*args, **kwargs):
    """Run the micro-benchmark suite (lazy import of the probe stack).

    See :func:`repro.tune.microbench.measure`.
    """
    from repro.tune import microbench

    return microbench.measure(*args, **kwargs)


__all__ = [
    "ENV_VAR",
    "MAX_AGE_ENV_VAR",
    "SCHEMA_VERSION",
    "MachineProfile",
    "ProfileVersionError",
    "cache_dir",
    "clear",
    "current_profile",
    "load_profile",
    "measure",
    "profile_path",
    "save_profile",
    "synthetic_profile",
]
