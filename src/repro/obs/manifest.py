"""Run provenance: the manifest that makes a run reproducible.

One solver run's configuration is scattered across environment toggles
(``REPRO_SUBSTRATE``, ``REPRO_FUSED``, ``REPRO_OVERLAP``,
``REPRO_TRACE``), per-matrix substrate-selection
decisions, and driver arguments.  The
manifest captures all of it in one JSON document — the *why* next to
the *what* — so any result file can answer "how was this run
configured, and why did it pick these kernels?".

Selection decisions carry their **reason** (``pin``, ``env``,
``default``) as recorded by
:mod:`repro.graphblas.substrate.registry` at resolve time; seeds and
arbitrary config are recorded by whoever owns them (the driver records
its CLI, simulated runs record backend/partition/machine).
"""

from __future__ import annotations

import os
import platform
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.util.errors import InvalidValue

#: Manifest schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

#: Every environment variable with this prefix is captured verbatim.
ENV_PREFIX = "REPRO_"

#: Keys every valid manifest must carry (see :func:`validate_manifest`).
REQUIRED_KEYS = (
    "schema_version", "run_id", "created_at", "package_version",
    "python", "environment", "toggles",
    "substrate_decisions", "seeds", "config",
)


class ManifestRecorder:
    """Accumulates the run-scoped half of a manifest.

    Thread-safe; one recorder lives on each
    :class:`repro.obs.context.RunContext`.  The environment/toggle half
    is captured fresh at :meth:`build` time so the manifest reflects
    the state the run actually saw.
    """

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self._seeds: Dict[str, Any] = {}
        self._decisions: List[Dict[str, Any]] = []
        self._config: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def record_seed(self, name: str, value: Any) -> None:
        with self._lock:
            self._seeds[str(name)] = value

    def record_config(self, **items: Any) -> None:
        with self._lock:
            self._config.update(items)

    def record_decision(self, **fields: Any) -> None:
        """One substrate-selection decision (chosen format + reason)."""
        with self._lock:
            self._decisions.append(dict(fields))

    @property
    def decisions(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(d) for d in self._decisions]

    def build(self, **extra_config: Any) -> Dict[str, Any]:
        """The complete manifest as a JSON-able dict."""
        with self._lock:
            seeds = dict(self._seeds)
            decisions = [dict(d) for d in self._decisions]
            config = dict(self._config)
        config.update(extra_config)
        return build_manifest(
            run_id=self.run_id, seeds=seeds, decisions=decisions,
            config=config,
        )


def capture_environment() -> Dict[str, str]:
    """Every ``REPRO_*`` environment variable, verbatim."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith(ENV_PREFIX)
    }


def capture_toggles() -> Dict[str, Any]:
    """The *resolved* state of every runtime switch.

    Environment capture alone is not reproducible — unset variables
    have defaults — so the manifest also records what each toggle
    resolved to at capture time.
    """
    from repro.dist.comm import resolve_comm_mode
    from repro.graphblas.fused import fused_enabled
    from repro.graphblas.substrate import registry as registry_mod
    from repro.obs.context import trace_env_enabled

    return {
        "fused": _resolved(fused_enabled),
        "comm_mode": _resolved(resolve_comm_mode),
        "substrate_force": _resolved(registry_mod.forced),
        "trace": trace_env_enabled(),
    }


def _resolved(resolve) -> Any:
    """What ``resolve()`` gives, or ``"invalid"`` when it refuses."""
    try:
        return resolve()
    except InvalidValue:
        return "invalid"


def build_manifest(
    run_id: str = "",
    seeds: Optional[Dict[str, Any]] = None,
    decisions: Optional[List[Dict[str, Any]]] = None,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict from recorded state + a fresh capture."""
    from repro import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "created_at": time.time(),
        "package_version": __version__,
        "python": {
            "version": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "environment": capture_environment(),
        "toggles": capture_toggles(),
        "substrate_decisions": list(decisions or []),
        "seeds": dict(seeds or {}),
        "config": dict(config or {}),
    }


def validate_manifest(manifest: Dict[str, Any]) -> None:
    """Raise :class:`InvalidValue` unless ``manifest`` is well-formed."""
    if not isinstance(manifest, dict):
        raise InvalidValue("manifest must be a JSON object")
    missing = [k for k in REQUIRED_KEYS if k not in manifest]
    if missing:
        raise InvalidValue(f"manifest missing keys: {', '.join(missing)}")
    if manifest["schema_version"] != SCHEMA_VERSION:
        raise InvalidValue(
            f"manifest schema {manifest['schema_version']!r} != "
            f"supported {SCHEMA_VERSION}"
        )
    if not isinstance(manifest["substrate_decisions"], list):
        raise InvalidValue("substrate_decisions must be a list")
    for decision in manifest["substrate_decisions"]:
        for key in ("chosen", "reason"):
            if key not in decision:
                raise InvalidValue(
                    f"substrate decision missing {key!r}: {decision}"
                )
    for section in ("environment", "toggles", "seeds", "config"):
        if not isinstance(manifest[section], dict):
            raise InvalidValue(f"manifest {section} must be an object")
