"""``repro.tune`` — measured machine profiles.

The fourth subsystem: it lets the modelling pipeline be calibrated.
BSP pricing in :mod:`repro.dist` and the scaling model in
:mod:`repro.perf` are seeded with the paper's Table II datasheet
constants; this package offers *measurements of the machine the code is
running on* in their place:

* :mod:`repro.tune.microbench` — the probe suite (STREAM triad, a BSP
  ``g``/``L`` fit from simulated h-relation timings, a
  compute-under-copy interference probe for ``overlap_efficiency``);
* :mod:`repro.tune.profile` — the schema-versioned, canonically
  serialised :class:`MachineProfile` the probes produce;
* :mod:`repro.tune.cache` — persistence under ``REPRO_TUNE_CACHE``
  and a never-raising :func:`current_profile`.

A leaf package: it consumes ``perf``/``dist``, and neither
:mod:`repro.graphblas` nor :mod:`repro.dist` imports it.  A profile
changes a result only when passed as an argument —
``BSPMachine.from_profile(...)`` / ``MachineSpec.from_profile(...)``
construct measurement-driven machine models (``python -m repro.tune
scale`` does exactly that); the cache is otherwise read only to
*report* (the driver's ``--profile``, manifest provenance, ``tune
show``).  ``python -m repro.tune measure`` (``--fast`` for CI) produces
the profile.

``microbench`` is imported lazily (via :func:`measure`) so that
reading a profile does not drag the whole HPCG stack in.
"""

from repro.tune.cache import (
    ENV_VAR,
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
