"""The micro-benchmark suite behind ``python -m repro.tune measure``.

Three probes, each answering one question the modelling pipeline
otherwise answers with a datasheet constant:

* **STREAM triad** — the machine's attainable memory bandwidth (the
  number every bandwidth-bound prediction divides by); reuses
  :func:`repro.perf.calibrate.measure_triad_bandwidth`.
* **Message cost** — BSP ``g`` and ``L`` fitted by least squares to
  timed simulated h-relations (staged buffer copies standing in for
  the wire, exactly what the simulated backends' sends are).
* **Compute-under-copy interference** — a copy thread running against
  a triad loop; the measured fraction of the shorter phase that the
  concurrency hides is the machine's ``overlap_efficiency``.

Budgets: :data:`FULL` for a real calibration, :data:`FAST` for the CI
leg (the whole suite in well under a minute), :data:`SMOKE` for tests.

Each probe runs inside a ``tune/probe/*`` observability span carrying
its budget and measured result, so a traced calibration shows up in
trace diffs and flamegraphs like any other subsystem.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.perf.calibrate import measure_triad_bandwidth
from repro.tune.profile import MachineProfile


@dataclass(frozen=True)
class ProbeBudget:
    """How much work each probe spends (sizes and best-of repeats)."""

    name: str
    triad_size: int
    triad_repeats: int
    message_sizes: Tuple[int, ...]
    message_repeats: int
    overlap_size: int
    overlap_repeats: int


FULL = ProbeBudget(
    name="full",
    triad_size=4_000_000, triad_repeats=5,
    message_sizes=(4_096, 32_768, 262_144, 1_048_576, 4_194_304),
    message_repeats=7,
    overlap_size=4_000_000, overlap_repeats=5,
)

FAST = ProbeBudget(
    name="fast",
    triad_size=1_000_000, triad_repeats=3,
    message_sizes=(4_096, 65_536, 524_288, 2_097_152),
    message_repeats=3,
    overlap_size=1_000_000, overlap_repeats=3,
)

#: Minimal budget for unit tests: validity of the pipeline, not of the
#: numbers.
SMOKE = ProbeBudget(
    name="smoke",
    triad_size=100_000, triad_repeats=1,
    message_sizes=(4_096, 65_536, 262_144),
    message_repeats=1,
    overlap_size=100_000, overlap_repeats=1,
)

BUDGETS = {b.name: b for b in (FULL, FAST, SMOKE)}


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` calls (noise-floor timing)."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# the probes
# ---------------------------------------------------------------------------

def fit_message_cost(budget: ProbeBudget) -> Tuple[float, float]:
    """Fit BSP ``(g, L)`` to timed simulated h-relations.

    The simulated backends' "wire" is host memory: a send is a staged
    copy (pack into a message buffer, unpack at the receiver).  Timing
    that transport over a range of message sizes and fitting
    ``seconds = L + h / g`` by least squares yields the g/L the BSP
    model should charge *for this simulator on this machine* — the
    honest analogue of a ping-pong fit on a real fabric.
    """
    sizes: List[float] = []
    times: List[float] = []
    with obs.span("tune/probe/message_cost", "tune",
                  {"budget": budget.name,
                   "sizes": list(budget.message_sizes),
                   "repeats": budget.message_repeats}) as span:
        for nbytes in budget.message_sizes:
            n = max(nbytes // 8, 1)
            src = np.random.default_rng(1).standard_normal(n)
            stage = np.empty(n)
            dst = np.empty(n)

            def exchange():
                np.copyto(stage, src)   # pack / inject
                np.copyto(dst, stage)   # deliver / unpack

            exchange()   # warm-up
            elapsed = _best_of(exchange, budget.message_repeats)
            sizes.append(float(n * 8))
            times.append(elapsed)
        slope, intercept = np.polyfit(np.asarray(sizes), np.asarray(times), 1)
        if slope <= 0:
            # timer-noise degenerate fit: fall back to the largest probe's
            # raw throughput and a nominal microsecond of latency
            g = sizes[-1] / times[-1] if times[-1] > 0 else 1e9
            latency = 1e-6
        else:
            g = 1.0 / slope
            latency = max(float(intercept), 1e-9)
        if span is not None:
            span.set(g=float(g), latency=float(latency))
    return float(g), latency


def measure_overlap_efficiency(budget: ProbeBudget) -> float:
    """Measured fraction of a copy the machine hides behind compute.

    Times a triad compute phase and a buffer-copy phase separately,
    then concurrently (the copy on a thread — NumPy releases the GIL
    for both).  Perfect NIC/compute-style concurrency gives
    ``t_both == max(t_comp, t_copy)`` (efficiency 1); full serialisation
    gives ``t_both == t_comp + t_copy`` (efficiency 0).
    """
    n = budget.overlap_size
    rng = np.random.default_rng(2)
    a = np.zeros(n)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    src = rng.standard_normal(n)
    dst = np.empty(n)

    def compute():
        np.multiply(b, 2.5, out=a)
        np.add(a, c, out=a)

    def copy():
        np.copyto(dst, src)

    best_eff = 0.0
    with obs.span("tune/probe/overlap", "tune",
                  {"budget": budget.name, "size": budget.overlap_size,
                   "repeats": budget.overlap_repeats}) as span:
        for _ in range(max(budget.overlap_repeats, 1)):
            t_comp = _best_of(compute, 1)
            t_copy = _best_of(copy, 1)
            thread = threading.Thread(target=copy)
            start = time.perf_counter()
            thread.start()
            compute()
            thread.join()
            t_both = time.perf_counter() - start
            shorter = min(t_comp, t_copy)
            if shorter <= 0:
                continue
            hidden = (t_comp + t_copy) - t_both
            best_eff = max(best_eff, hidden / shorter)
        efficiency = float(np.clip(best_eff, 0.0, 1.0))
        if span is not None:
            span.set(overlap_efficiency=efficiency)
    return efficiency


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------

def measure(budget: ProbeBudget = FULL,
            name: Optional[str] = None) -> MachineProfile:
    """Run every probe and assemble the :class:`MachineProfile`."""
    with obs.span("tune/probe/triad", "tune",
                  {"budget": budget.name, "size": budget.triad_size,
                   "repeats": budget.triad_repeats}) as span:
        triad = measure_triad_bandwidth(size=budget.triad_size,
                                        repeats=budget.triad_repeats)
        if span is not None:
            span.set(bandwidth=float(triad))
    g, latency = fit_message_cost(budget)
    overlap = measure_overlap_efficiency(budget)
    return MachineProfile(
        name=name or platform.node() or "local",
        created_at=time.time(),
        host=platform.node() or "unknown",
        cores=os.cpu_count() or 1,
        triad_bandwidth=triad,
        net_bandwidth=g,
        latency=latency,
        overlap_efficiency=overlap,
        fast=budget.name != "full",
    )
