"""Sets of runs: all workloads at once, two sets compared, a set repeated."""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict, List, Sequence

import spec
from stats import quartiles


def run_all(args, order: Sequence[str] = (), out: str = "") -> int:
    """One worker process per workload (and per pass); writes the
    ledger file ``--compare`` reads.  Returns the worst exit code."""
    passes = [0, 1] if args.trace else [0]
    runs, worst = [], 0
    for name in order or spec.WORKLOADS:
        for trace in passes:
            cmd = [sys.executable, str(spec.LEDGER_DIR / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(trace)]
            if args.seconds:
                cmd += ["--seconds", str(args.seconds)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))         # all but the JSON line
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
            worst = max(worst, proc.returncode)
            suffix = "-trace" if trace else ""
            result = spec.OUT_DIR / f"result-{name}{suffix}.json"
            if proc.returncode in (0, 1) and result.exists():
                with open(result, encoding="utf-8") as fh:
                    runs.append(json.load(fh))
    path = out or args.out or str(spec.OUT_DIR / "ledger.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1)
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"== ledger: {len(runs)} runs -> {path}; "
          f"checks failed {failed}/{attempted}")
    return worst


def end_to_end_stats(path: str) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {metric: {median, q1, q3}}}`` of a ledger file; with
    several untraced runs of one workload the quartiles are taken across
    the runs' medians, with one they are that run's own."""
    with open(path, encoding="utf-8") as fh:
        runs = [r for r in json.load(fh)["runs"] if r["kind"] == "end_to_end"]
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in {r["workload"] for r in runs}:
        mine = [r for r in runs if r["workload"] == name]
        out[name] = {
            metric: (mine[0]["stats"][metric] if len(mine) == 1 else
                     quartiles([r["stats"][metric]["median"] for r in mine]))
            for metric in mine[0]["stats"]}
    return out


def verdict(old: Dict[str, float], new: Dict[str, float], better: str,
            bound: float) -> Dict[str, Any]:
    """One row of ``--compare``: signed worsening and what it means."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new["median"] - old["median"]) / old["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (old, new))
    overlap = old["q1"] <= new["q3"] and new["q1"] <= old["q3"]
    if worse != 0 and spread > bound and overlap:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif worse < -bound:
        word = "improved"
    else:
        word = "within bound"
    return {"worse": worse, "spread": spread, "verdict": word}


def compare_files(old_path: str, new_path: str) -> int:
    old, new = end_to_end_stats(old_path), end_to_end_stats(new_path)
    regressed = 0
    declared = spec.declared("end_to_end")
    print(f"{'workload':<9} {'metric':<14} {'old [q1, q3]':>34} "
          f"{'new [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for name in spec.WORKLOADS:
        if name not in old or name not in new:
            continue
        for decl in declared:
            a, b = old[name][decl["name"]], new[name][decl["name"]]
            row = verdict(a, b, decl["better"], decl["bound"])
            regressed += row["verdict"] == "regressed"

            def cell(s):
                return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
            print(f"{name:<9} {decl['name']:<14} {cell(a):>34} "
                  f"{cell(b):>34} {row['worse']:>+8.1%} "
                  f"{decl['bound']:>6.0%}  {row['verdict']}")
    print("(change > 0 is worse; 'unresolved' = spread above the bound "
          "and overlapping quartile ranges)")
    return 1 if regressed else 0


def check_repeat(args) -> int:
    """Two whole untraced sets, workload order alternated; fails when an
    end-to-end metric differs between them by more than its own bound
    (counts must repeat exactly)."""
    args.trace = 0
    names: List[str] = list(spec.WORKLOADS)
    paths = [str(spec.OUT_DIR / f"repeat-{i}.json") for i in (1, 2)]
    worst = max(run_all(args, order=names, out=paths[0]),
                run_all(args, order=names[::-1], out=paths[1]))
    first, second = (end_to_end_stats(p) for p in paths)
    declared = spec.declared("end_to_end")
    failures = 0
    for name in names:
        for decl in declared:
            a = first[name][decl["name"]]["median"]
            b = second[name][decl["name"]]["median"]
            gap = abs(a - b) / min(a, b)
            limit = 0.0 if decl["unit"] == "count" else decl["bound"]
            ok = gap <= limit
            failures += not ok
            print(f"{name:<9} {decl['name']:<14} {a:>12.6g} {b:>12.6g} "
                  f"gap {gap:>6.1%} bound {limit:>4.0%} "
                  f"{'ok' if ok else 'DIFFERS'}")
    return 1 if failures or worst else 0
