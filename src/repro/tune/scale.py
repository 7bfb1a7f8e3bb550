"""The weak-scaling sweep on a measured profile (``repro.tune scale``).

The ROADMAP's open item: rerun the Figure 3 weak-scaling study —
per-node problem size fixed, node count growing — with the BSP node
class priced by this machine's measured :class:`MachineProfile`
(:meth:`BSPMachine.from_profile`: STREAM-triad memory bandwidth, fitted
``g``/``L``, measured overlap efficiency) and put it side by side with
the paper's Table-II preset, so the datasheet-vs-measurement gap is a
table instead of a guess.

Both sweeps run the identical simulated backends on identical problems
(``repro.experiments.fig3``); only the machine pricing differs, which
is exactly the claim the comparison isolates.  The shape claims (Ref
weak-scales, ALP grows linearly) are evaluated under both machines —
they are *shape* claims and should survive any realistic pricing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dist.bsp import ARM_CLUSTER_NODE, X86_NODE, BSPMachine
from repro.tune.profile import MachineProfile
from repro.util.errors import InvalidValue

#: Table-II node classes selectable as the comparison baseline.
PRESETS = {"arm": ARM_CLUSTER_NODE, "x86": X86_NODE}


@dataclass
class ScaleComparison:
    """One weak-scaling study priced twice: preset vs measured profile."""

    profile: MachineProfile
    preset_machine: BSPMachine
    measured_machine: BSPMachine
    preset: "Fig3Result"          # noqa: F821 - repro.experiments.fig3
    measured: "Fig3Result"        # noqa: F821


def run_scale(profile: MachineProfile, preset: str = "arm",
              local_nx: int = 16, iterations: int = 2,
              mg_levels: int = 4,
              nodes: Tuple[int, ...] = (2, 3, 4, 5, 6, 7)
              ) -> ScaleComparison:
    """Run the Figure 3 study under the preset and the measured machine."""
    from repro.experiments import fig3

    if preset not in PRESETS:
        raise InvalidValue(
            f"unknown preset {preset!r}; expected one of {tuple(PRESETS)}"
        )
    preset_machine = PRESETS[preset]
    measured_machine = BSPMachine.from_profile(profile)
    return ScaleComparison(
        profile=profile,
        preset_machine=preset_machine,
        measured_machine=measured_machine,
        preset=fig3.run(local_nx=local_nx, iterations=iterations,
                        mg_levels=mg_levels, nodes=nodes,
                        machine=preset_machine),
        measured=fig3.run(local_nx=local_nx, iterations=iterations,
                          mg_levels=mg_levels, nodes=nodes,
                          machine=measured_machine),
    )


def render(comp: ScaleComparison) -> str:
    """The comparison table plus both machines' shape claims."""
    from repro.experiments.common import format_table

    pre, mea = comp.preset, comp.measured
    table = format_table(
        ["nodes", "n",
         f"ALP@{comp.preset_machine.name} (s)",
         f"Ref@{comp.preset_machine.name} (s)",
         "ALP@profile (s)", "Ref@profile (s)", "Ref profile/preset"],
        [
            (p, n, pa, pr, ma, mr, mr / pr if pr else float("nan"))
            for p, n, pa, pr, ma, mr in zip(
                pre.nodes, pre.ns, pre.alp_seconds, pre.ref_seconds,
                mea.alp_seconds, mea.ref_seconds,
            )
        ],
    )
    lines = [
        f"Weak scaling (local grid {pre.local_nx}^3/node, "
        f"{pre.iterations} iters) — Table-II preset "
        f"{comp.preset_machine.name!r} vs measured profile "
        f"{comp.profile.name!r} ({comp.profile.measured_at})",
        table,
        "",
        f"measured machine: mem {comp.measured_machine.mem_bandwidth / 1e9:.2f} GB/s, "
        f"net {comp.measured_machine.net_bandwidth / 1e9:.2f} GB/s, "
        f"L {comp.measured_machine.latency * 1e6:.2f} us, "
        f"overlap eff {comp.measured_machine.overlap_efficiency:.2f}",
    ]
    for tag, result in (("preset", pre), ("profile", mea)):
        claims = result.shape_claims()
        lines.append(f"shape claims ({tag}):")
        lines.extend(
            f"  [{'ok' if v else 'FAIL'}] {k}" for k, v in claims.items()
        )
    return "\n".join(lines)
