"""The paper's experimental machines (Table II) as data.

All figures come straight from the paper; the ``attained_bandwidth`` is
the measured STREAM-like figure the paper reports, which is the number
the bandwidth-bound kernel model divides by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.util.errors import InvalidValue


@dataclass(frozen=True)
class MachineSpec:
    """One shared-memory machine (a node of the cluster)."""

    name: str
    cpu: str
    cores_per_socket: int
    sockets: int
    threads_per_core: int           # 2 when SMT/HT is enabled
    numa_domains_per_socket: int
    max_frequency_ghz: float
    l3_cache_mb: float              # per socket
    l2_cache_kb_per_core: float
    memory_channels: int            # per socket
    ram_gb: int
    ddr_frequency_mhz: int
    attained_bandwidth: float       # bytes/s, whole machine
    network: str

    def __post_init__(self):
        if self.cores_per_socket < 1 or self.sockets < 1:
            raise InvalidValue("machine must have at least one core/socket")

    @classmethod
    def single_socket(cls, name: str, cpu: str, cores: int,
                      bandwidth: float, network: str) -> "MachineSpec":
        """A measured single-socket spec with neutral placeholders.

        The scaling model only consumes cores, sockets, NUMA domains
        and bandwidth; cache/frequency fields are zeroed.  This is the
        shape behind :func:`repro.perf.calibrate.this_machine`.
        """
        return cls(
            name=name,
            cpu=cpu,
            cores_per_socket=max(int(cores), 1),
            sockets=1,
            threads_per_core=1,
            numa_domains_per_socket=1,
            max_frequency_ghz=0.0,
            l3_cache_mb=0.0,
            l2_cache_kb_per_core=0.0,
            memory_channels=0,
            ram_gb=0,
            ddr_frequency_mhz=0,
            attained_bandwidth=bandwidth,
            network=network,
        )

    @property
    def physical_cores(self) -> int:
        return self.cores_per_socket * self.sockets

    @property
    def hardware_threads(self) -> int:
        return self.physical_cores * self.threads_per_core

    @property
    def bandwidth_per_socket(self) -> float:
        return self.attained_bandwidth / self.sockets

    @property
    def cores_per_numa_domain(self) -> int:
        return self.cores_per_socket // self.numa_domains_per_socket


# Table II, x86 column: dual-socket Xeon Gold 6238T.
X86 = MachineSpec(
    name="x86",
    cpu="Xeon Gold 6238T",
    cores_per_socket=22,
    sockets=2,
    threads_per_core=2,             # HT enabled: 44 threads/socket
    numa_domains_per_socket=1,
    max_frequency_ghz=3.70,
    l3_cache_mb=30.25,
    l2_cache_kb_per_core=1024,
    memory_channels=6,
    ram_gb=192,
    ddr_frequency_mhz=2933,
    attained_bandwidth=192.0e9,
    network="Mellanox ConnectX-5, 2x100Gb/s",
)

# Table II, ARM column: dual-socket Kunpeng 920-4826.
ARM = MachineSpec(
    name="ARM",
    cpu="Kunpeng 920-4826",
    cores_per_socket=48,
    sockets=2,
    threads_per_core=1,
    numa_domains_per_socket=2,
    max_frequency_ghz=2.6,
    l3_cache_mb=48,
    l2_cache_kb_per_core=512,
    memory_channels=8,
    ram_gb=512,
    ddr_frequency_mhz=2933,
    attained_bandwidth=246.3e9,
    network="Mellanox ConnectX-5, 2x100Gb/s",
)


def table2_rows() -> List[Dict[str, str]]:
    """Regenerate the rows of paper Table II from the encoded specs."""
    rows = []
    for field, getter in [
        ("CPU", lambda m: m.cpu),
        ("cores (per socket)", lambda m: str(m.cores_per_socket)),
        ("threads (per node)", lambda m: str(m.hardware_threads)),
        ("max frequency (GHz)", lambda m: f"{m.max_frequency_ghz:g}"),
        ("L3 cache (MB, per socket)", lambda m: f"{m.l3_cache_mb:g}"),
        ("per core L2 cache (KB)", lambda m: f"{m.l2_cache_kb_per_core:g}"),
        ("memory channels (per socket)", lambda m: str(m.memory_channels)),
        ("NUMA domains (per socket)", lambda m: str(m.numa_domains_per_socket)),
        ("sockets", lambda m: str(m.sockets)),
        ("RAM memory (GB)", lambda m: str(m.ram_gb)),
        ("max DDR frequency (MHz)", lambda m: str(m.ddr_frequency_mhz)),
        ("attained bandwidth (GB/s)", lambda m: f"{m.attained_bandwidth / 1e9:g}"),
        ("network adapter", lambda m: m.network),
    ]:
        rows.append({"field": field, "x86": getter(X86), "ARM": getter(ARM)})
    return rows
