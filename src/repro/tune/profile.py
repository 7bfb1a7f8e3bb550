"""The persisted, versioned record of a measured machine.

A :class:`MachineProfile` is what the micro-benchmark suite
(:mod:`repro.tune.microbench`) produces and what every downstream
consumer reads: ``BSPMachine.from_profile`` prices simulated
distributed runs with the *measured* memory bandwidth, fitted BSP
``g``/``L`` and measured overlap efficiency instead of the Table II
datasheet constants; ``MachineSpec.from_profile`` feeds the
shared-memory scaling model; and ``REPRO_THREADS=auto`` sizes the
thread lane from the fitted ``half_sat_threads``.

Serialisation is canonical JSON — keys sorted, two-space indent, one
trailing newline — so ``save → load → save`` is byte-identical (the
round-trip contract ``tests/test_tune.py`` enforces), and the file
carries an explicit ``schema_version`` so a profile written by an
incompatible release is rejected cleanly rather than misread.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.util.errors import InvalidValue

#: Bump on any incompatible change to the on-disk layout.
#: v2 added the thread-scaling fields (``half_sat_threads``,
#: ``thread_rates``) that size the ``REPRO_THREADS=auto`` lane;
#: v3 dropped the per-substrate SpMV / RBGS rate tables (per-format
#: cost is measured by ``benchmarks/ledger`` instead).
SCHEMA_VERSION = 3


class ProfileVersionError(InvalidValue):
    """A profile file's schema version does not match this release."""


@dataclass(frozen=True)
class MachineProfile:
    """Measured rates of one machine, as captured by ``repro.tune``.

    Rates are *effective* bytes/second over the csr-equivalent byte
    stream of the probed kernel (``nnz*16 + nrows*16`` for SpMV).
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
    #: smallest thread count reaching half the saturated parallel SpMV
    #: rate — what ``REPRO_THREADS=auto`` resolves to (1 = stay serial)
    half_sat_threads: int = 1
    #: {kernel: {thread count (str, JSON-keyable): effective bytes/s}}
    #: from the thread-sweep probe; "1" is the serial baseline
    thread_rates: Dict[str, Dict[str, float]] = field(default_factory=dict)
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
        if self.half_sat_threads < 1:
            raise InvalidValue(
                f"half_sat_threads must be >= 1, got {self.half_sat_threads}"
            )

    # --- rate lookups -------------------------------------------------------
    def thread_rate(self, kernel: str, nthreads: int) -> Optional[float]:
        """Measured effective bytes/s of ``kernel`` at ``nthreads``
        (``None`` when that point was not probed)."""
        return self.thread_rates.get(kernel, {}).get(str(nthreads))

    def thread_speedup(self, kernel: str = "spmv") -> float:
        """Measured parallel speedup at the fitted ``half_sat_threads``
        over the serial baseline (1.0 when unprobed or serial-only)."""
        serial = self.thread_rate(kernel, 1)
        fitted = self.thread_rate(kernel, self.half_sat_threads)
        if not serial or not fitted:
            return 1.0
        return fitted / serial

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
    def summary(self) -> str:
        lines = [
            f"MachineProfile {self.name!r} (schema v{self.schema_version}, "
            f"host {self.host}, {self.cores} cores"
            f"{', fast budget' if self.fast else ''})",
            f"  triad bandwidth   {self.triad_bandwidth / 1e9:.2f} GB/s",
            f"  BSP g (net)       {self.net_bandwidth / 1e9:.2f} GB/s",
            f"  BSP L (latency)   {self.latency * 1e6:.2f} us",
            f"  overlap efficiency {self.overlap_efficiency:.2f}",
        ]
        lines.append(
            f"  half-saturation threads: {self.half_sat_threads} "
            f"(REPRO_THREADS=auto target, "
            f"x{self.thread_speedup():.2f} vs serial)"
        )
        for kernel in sorted(self.thread_rates):
            per = self.thread_rates[kernel]
            cells = ", ".join(
                f"{t}t={per[t] / 1e9:.2f}"
                for t in sorted(per, key=int)
            )
            lines.append(f"  thread scaling {kernel} (GB/s): {cells}")
        return "\n".join(lines)


def synthetic_profile(
    name: str = "synthetic",
    triad_bandwidth: float = 10e9,
    net_bandwidth: float = 1e9,
    latency: float = 10e-6,
    overlap_efficiency: float = 0.8,
    fast: bool = True,
    half_sat_threads: int = 1,
    thread_rates: Optional[Dict[str, Dict[str, float]]] = None,
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
        half_sat_threads=half_sat_threads,
        thread_rates=thread_rates if thread_rates is not None else {},
    )
