"""The harness's own span recorder (traced pass only).

Spans wrap calls *into* the program's public functions from outside —
nothing under ``src/`` is edited and none of the program's own timing
systems (``TimerRegistry``, ``EventLog``, ``repro.obs``) supplies a
number.  Spans nest workload -> phase -> layer call, live in memory
until the worker ends, and carry wall-clock start/end, the CPU seconds
spent inside (the number every metric is derived from, see clock.py)
and the counts taken at the same boundary (calls in a batch,
supersteps, bytes, ...).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from clock import cpu


class Recorder:
    """In-memory span store for one workload's traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "start": 0.0, "end": 0.0,
                  "cpu": 0.0, "counts": counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        cpu0 = cpu()
        try:
            yield record
        finally:
            record["cpu"] = cpu() - cpu0
            record["end"] = time.perf_counter()
            self._stack.pop()

    def probe(self, name: str, fn, samples: int, calls: int = 1,
              warm: bool = True):
        """``samples`` spans of ``calls`` back-to-back ``fn()`` each,
        after one untimed warm-up; returns the last result."""
        out = fn() if warm else None
        for _ in range(samples):
            with self.span(name, calls=calls):
                for _ in range(calls):
                    out = fn()
        return out

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def per_call(self, name: str) -> List[float]:
        """CPU seconds per call of every span called ``name``."""
        return [s["cpu"] / s["counts"].get("calls", 1)
                for s in self.named(name)]

    def self_time(self, span: Dict[str, Any]) -> float:
        """CPU duration minus the part its child spans cover (children
        of one span never overlap: the recorder is single-threaded)."""
        covered = sum(c["cpu"] for c in self.spans
                      if c["parent"] == span["id"])
        return span["cpu"] - covered

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload,
                       "clocks": {"start/end": "perf_counter",
                                  "cpu": "process + reaped children"},
                       "spans": self.spans}, fh)


def trace_problems(doc: Dict[str, Any]) -> List[str]:
    """Why ``doc`` is not a well-formed ledger trace (empty when it is):
    one root, every parent known, every child inside its parent."""
    spans = doc.get("spans", [])
    by_id = {s["id"]: s for s in spans}
    problems = []
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected 1")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ends before it starts")
        if s["workload"] != doc.get("workload"):
            problems.append(f"span {s['id']} has a foreign workload id")
        parent: Optional[Dict[str, Any]] = by_id.get(s["parent"])
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} has an unknown parent")
        elif parent is not None and not (
                parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            problems.append(f"span {s['id']} leaks out of its parent")
    return problems
