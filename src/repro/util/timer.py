"""Hierarchical wall-clock timers used by the HPCG driver and experiments.

Two kinds of "time" coexist in this project:

* real wall-clock time (this module), used for serial kernel benchmarks
  and the breakdown figures when running natively; and
* modelled BSP time (:mod:`repro.perf.model`), used to reproduce the
  multi-thread / multi-node figures on a machine we do not have.

``Timer`` supports both: ``tick(seconds)`` adds modelled time, while the
context-manager form measures wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Timer:
    """Accumulates elapsed seconds and invocation counts for one label.

    The timer is its own context manager: ``measure()`` returns it.
    """

    name: str
    total: float = 0.0
    count: int = 0
    _start: Optional[float] = field(default=None, repr=False, compare=False)

    def measure(self) -> "Timer":
        return self

    def __enter__(self) -> "Timer":
        # Re-entrant measurement of one timer double-counts the outer
        # elapsed interval — a silent corruption of every breakdown
        # figure — so it is an error, not a merge.
        if self._start is not None:
            raise RuntimeError(
                f"re-entrant measure() on timer {self.name!r}"
            )
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.total += time.perf_counter() - self._start
        self._start = None
        self.count += 1
        return False

    def tick(self, seconds: float) -> None:
        """Record ``seconds`` of modelled (non-wall-clock) time."""
        if seconds < 0:
            raise ValueError(f"negative time tick: {seconds}")
        self.total += seconds
        self.count += 1

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0


@dataclass
class TimerRegistry:
    """A flat registry of named timers with ``a/b/c`` path-style labels.

    HPCG uses labels like ``mg/level0/rbgs`` and ``mg/level0/restrict`` so
    the per-level breakdowns of Figures 4-7 can be recovered by prefix.
    """

    timers: Dict[str, Timer] = field(default_factory=dict)

    def get(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = Timer(name)
            self.timers[name] = timer
        return timer

    measure = get   # ``with registry.measure(name) as timer:``

    def tick(self, name: str, seconds: float) -> None:
        self.get(name).tick(seconds)

    def total(self, prefix: str = "") -> float:
        """Sum of all timers whose name starts with ``prefix``."""
        return sum(t.total for name, t in self.timers.items() if name.startswith(prefix))

    def reset(self) -> None:
        for t in self.timers.values():
            t.reset()

    def as_dict(self, counts: bool = False) -> Dict[str, object]:
        """Label → seconds; with ``counts=True``, label → (seconds, calls)."""
        if counts:
            return {name: (t.total, t.count)
                    for name, t in sorted(self.timers.items())}
        return {name: t.total for name, t in sorted(self.timers.items())}

    def merge(self, other: "TimerRegistry") -> "TimerRegistry":
        """Fold another registry's totals and counts into this one."""
        for name, timer in other.timers.items():
            mine = self.get(name)
            mine.total += timer.total
            mine.count += timer.count
        return self

    def rollup(self, depth: int = 1, sep: str = "/") -> Dict[str, float]:
        """Totals aggregated to the first ``depth`` label segments.

        ``mg/L0/rbgs`` and ``mg/L0/restrict`` both land under ``mg`` at
        depth 1 (or ``mg/L0`` at depth 2).  Each leaf timer contributes
        to exactly one rollup bucket, so lifting the rollup into obs
        spans never double-counts a leaf.
        """
        if depth < 1:
            raise ValueError(f"rollup depth must be >= 1, got {depth}")
        out: Dict[str, float] = {}
        for name, t in self.timers.items():
            key = sep.join(name.split(sep)[:depth])
            out[key] = out.get(key, 0.0) + t.total
        return dict(sorted(out.items()))

    def report(self, min_fraction: float = 0.0) -> str:
        """Human-readable table sorted by descending total time."""
        grand = sum(t.total for t in self.timers.values()) or 1.0
        lines = [f"{'timer':<40} {'seconds':>12} {'calls':>8} {'share':>7}"]
        for name, t in sorted(self.timers.items(), key=lambda kv: -kv[1].total):
            share = t.total / grand
            if share < min_fraction:
                continue
            lines.append(f"{name:<40} {t.total:>12.6f} {t.count:>8d} {share:>6.1%}")
        return "\n".join(lines)


class _NullTimer:
    """A timer sink that ignores everything (used when timing is disabled)."""

    def measure(self, name: str = "") -> "_NullTimer":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def tick(self, name: str, seconds: float = 0.0) -> None:
        pass

    def get(self, name: str) -> "_NullTimer":
        return self

    def total(self, prefix: str = "") -> float:
        return 0.0


null_timer = _NullTimer()
