"""The persisted, versioned record of a measured machine.

A :class:`MachineProfile` is what the micro-benchmark suite
(:mod:`repro.tune.microbench`) produces and what its consumers are
handed explicitly: ``BSPMachine.from_profile`` prices simulated
distributed runs with the *measured* memory bandwidth, fitted BSP
``g``/``L`` and measured overlap efficiency instead of the Table II
datasheet constants, and ``MachineSpec.from_profile`` feeds the
shared-memory scaling model.

Serialisation is canonical JSON — keys sorted, two-space indent, one
trailing newline — so ``save → load → save`` is byte-identical (the
round-trip contract ``tests/test_tune.py`` enforces), and the file
carries an explicit ``schema_version`` so a profile written by an
incompatible release is rejected cleanly rather than misread.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict

from repro.util.errors import InvalidValue

#: Bump on any incompatible change to the on-disk layout.
#: v3 dropped the per-substrate SpMV / RBGS rate tables (per-format
#: cost is measured by ``benchmarks/ledger`` instead); v4 dropped the
#: thread-scaling fields (nothing sizes a lane from a profile).
SCHEMA_VERSION = 4


class ProfileVersionError(InvalidValue):
    """A profile file's schema version does not match this release."""


@dataclass(frozen=True)
class MachineProfile:
    """Measured rates of one machine, as captured by ``repro.tune``.

    Bandwidths are bytes/second, the latency seconds.
    """

    name: str
    created_at: float               # unix seconds, stamped at measure time
    host: str
    cores: int
    triad_bandwidth: float          # bytes/s, STREAM-triad
    net_bandwidth: float            # fitted BSP g, bytes/s
    latency: float                  # fitted BSP L, seconds
    overlap_efficiency: float       # measured compute-under-copy hiding
    fast: bool = False              # produced under the --fast CI budget
    schema_version: int = field(default=SCHEMA_VERSION)

    def __post_init__(self):
        if self.triad_bandwidth <= 0:
            raise InvalidValue(
                f"triad bandwidth must be positive, got {self.triad_bandwidth}"
            )
        if self.net_bandwidth <= 0 or self.latency < 0:
            raise InvalidValue(
                f"need net_bandwidth > 0 and latency >= 0, got "
                f"g={self.net_bandwidth}, L={self.latency}"
            )
        if not (0.0 <= self.overlap_efficiency <= 1.0):
            raise InvalidValue(
                f"overlap efficiency must lie in [0, 1], "
                f"got {self.overlap_efficiency}"
            )

    # --- serialisation ------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    def dumps(self) -> str:
        """Canonical JSON text (sorted keys, stable layout, newline-
        terminated) — the byte-identical re-save contract."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "MachineProfile":
        if not isinstance(data, dict):
            raise InvalidValue(f"profile data must be a mapping, got "
                               f"{type(data).__name__}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ProfileVersionError(
                f"profile schema version {version!r} does not match this "
                f"release's {SCHEMA_VERSION}; re-run "
                f"`python -m repro.tune measure`"
            )
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise InvalidValue(
                f"unknown profile keys: {', '.join(sorted(unknown))}"
            )
        missing = fields - set(data)
        if missing:
            raise InvalidValue(
                f"profile is missing keys: {', '.join(sorted(missing))}"
            )
        return cls(**data)

    @classmethod
    def loads(cls, text: str) -> "MachineProfile":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidValue(f"profile is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
        return path

    @classmethod
    def load(cls, path: str) -> "MachineProfile":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    # --- presentation -------------------------------------------------------
    @property
    def measured_at(self) -> str:
        """``created_at`` in UTC: every report that names the profile
        says how old it is (nothing expires a profile silently)."""
        return time.strftime("%Y-%m-%d %H:%M UTC",
                             time.gmtime(self.created_at))

    def summary(self) -> str:
        return "\n".join([
            f"MachineProfile {self.name!r} (schema v{self.schema_version}, "
            f"host {self.host}, {self.cores} cores"
            f"{', fast budget' if self.fast else ''}, "
            f"measured {self.measured_at})",
            f"  triad bandwidth   {self.triad_bandwidth / 1e9:.2f} GB/s",
            f"  BSP g (net)       {self.net_bandwidth / 1e9:.2f} GB/s",
            f"  BSP L (latency)   {self.latency * 1e6:.2f} us",
            f"  overlap efficiency {self.overlap_efficiency:.2f}",
        ])


def synthetic_profile(
    name: str = "synthetic",
    triad_bandwidth: float = 10e9,
    net_bandwidth: float = 1e9,
    latency: float = 10e-6,
    overlap_efficiency: float = 0.8,
    fast: bool = True,
) -> MachineProfile:
    """A hand-built profile for tests and documentation examples."""
    return MachineProfile(
        name=name,
        created_at=0.0,
        host="synthetic",
        cores=1,
        triad_bandwidth=triad_bandwidth,
        net_bandwidth=net_bandwidth,
        latency=latency,
        overlap_efficiency=overlap_efficiency,
        fast=fast,
    )
