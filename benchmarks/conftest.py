"""Shared fixtures for the benchmark harness.

Every paper table/figure has a ``bench_*`` module here; each both
*times* the regeneration (pytest-benchmark) and *asserts* the paper's
shape claims, so ``pytest benchmarks/ --benchmark-only`` doubles as the
reproduction check.

``--bench-json PATH`` dumps any bench run's per-bench wall-clock (and
whatever named metrics a bench records via the :func:`bench_json`
fixture — per-format priced bytes, hidden comm seconds, ...) as
machine-readable JSON.  It is a dump, not a gate: the numbers that are
compared across commits come from ``benchmarks/ledger/run.py``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, Optional

import numpy as np
import pytest

from repro.hpcg.problem import generate_problem


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="dump per-bench timings (and recorded metrics) as JSON",
    )


class BenchJsonCollector:
    """Accumulates per-bench durations and bench-recorded metrics.

    Inert when no ``--bench-json`` path was given — benches call
    :meth:`record` unconditionally and the data simply goes nowhere.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self.benches: Dict[str, Dict] = {}
        self.metrics: Dict[str, Dict] = {}

    def record(self, nodeid: str, **metrics) -> None:
        """Attach named metric values to a bench (merged across calls)."""
        self.metrics.setdefault(nodeid, {}).update(metrics)

    def add_report(self, report) -> None:
        if report.when != "call":
            return
        self.benches[report.nodeid] = {
            "seconds": report.duration,
            "outcome": report.outcome,
        }

    def write(self) -> Optional[str]:
        if self.path is None:
            return None
        payload = {
            "created_at": time.time(),
            "host": platform.node() or "unknown",
            "benches": self.benches,
            "metrics": self.metrics,
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.path


def pytest_configure(config):
    config._bench_json = BenchJsonCollector(config.getoption("--bench-json"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    collector = getattr(item.config, "_bench_json", None)
    if collector is not None:
        collector.add_report(outcome.get_result())


def pytest_sessionfinish(session, exitstatus):
    collector = getattr(session.config, "_bench_json", None)
    if collector is not None:
        collector.write()


@pytest.fixture(scope="session")
def bench_json(request):
    """The JSON collector: ``bench_json.record(nodeid, metric=value)``."""
    return request.config._bench_json


@pytest.fixture(scope="session")
def problem16():
    return generate_problem(16)


@pytest.fixture(scope="session")
def problem8():
    return generate_problem(8)


@pytest.fixture(scope="session")
def rhs16(problem16):
    rng = np.random.default_rng(42)
    return rng.standard_normal(problem16.n)
