"""Smoke test of the performance ledger (collected by tier-1).

Runs every workload's untraced and traced pass in ``--smoke`` mode (8^3
grids, two samples — numbers meaningless, structure real) and checks
that ``BENCHMARK.json`` and what the harness emits agree in both
directions, that the declaration respects the benchmark contract's
limits, and that the trace files are well formed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
KIND = {0: "end_to_end", 1: "per_layer"}


def command(*extra: str) -> list:
    return [sys.executable, str(LEDGER / "run.py"), *extra]


@pytest.fixture(scope="module")
def smoke_runs():
    """All workloads x both passes, launched together: the runs share
    no file, and only their structure is looked at."""
    procs = {
        (name, trace): subprocess.Popen(
            command("--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke"),
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        for name in WORKLOADS for trace in KIND
    }
    runs = {}
    for key, proc in procs.items():
        out, err = proc.communicate(timeout=170)
        runs[key] = (proc.returncode, out, err)
    return runs


def test_declaration_respects_the_contract_limits():
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["benchmarks/ledger"]
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    names = (WORKLOADS + [m["name"] for m in DECLARATION["end_to_end"]]
             + [m["name"] for m in DECLARATION["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in DECLARATION["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DECLARATION["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in DECLARATION["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in DECLARATION["end_to_end"])


@pytest.mark.parametrize("trace", sorted(KIND))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_exactly_the_declared_metrics(smoke_runs, workload, trace):
    code, out, err = smoke_runs[(workload, trace)]
    assert code == 0, err[-2000:] + out[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARATION[KIND[trace]]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])
        if trace == 0:
            assert metric["value"] > 0        # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_file_is_well_formed(smoke_runs, workload):
    assert smoke_runs[(workload, 1)][0] == 0
    spec = importlib.util.spec_from_file_location("ledger_spans",
                                                  LEDGER / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with open(LEDGER / "out" / f"trace-{workload}.json",
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert spans.trace_problems(doc) == []
    root = [s for s in doc["spans"] if s["parent"] is None][0]
    assert root["name"] == workload
    phases = [s["name"] for s in doc["spans"] if s["parent"] == root["id"]]
    assert phases == ["setup", "validate", "solve", "probe"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files the command must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "hpcg-16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
