#!/usr/bin/env python
"""Performance-trend gate: compare a fresh perf-smoke run to a baseline.

Usage::

    python benchmarks/check_trend.py BASELINE.json FRESH.json \
        [--max-regression 0.25]

Both files are ``--bench-json`` outputs (see ``benchmarks/conftest.py``):
``{"benches": {nodeid: {seconds, outcome}}, "metrics": {nodeid: {...}},
"host": ..., "created_at": ...}``.

Two checks, in decreasing portability:

1. **Speedup floors** (always enforced): every ``fused_speedup`` metric
   in the fresh run must stay >= 1.0.  The speedup is a ratio measured
   within one process on one machine, so it transfers across hosts —
   a fused lane slower than the reference transcription is a
   regression wherever it happens.
2. **Wall-clock trend** (only when the two files carry the same
   ``host``): per-bench ``fused_seconds``-style absolute timings may
   not regress by more than ``--max-regression`` (default 25%).
   Absolute seconds measured on different machines are not comparable,
   so a host mismatch downgrades this check to an informational note
   instead of silently failing on every new CI runner.

With ``--triage OLD_TRACE NEW_TRACE`` a failing check additionally
runs the :mod:`repro.obs.analyze` trace differ over the two
``trace.json`` artifacts and attaches the ranked span-level diff to
the failure output — "which span regressed, and was it execution or
the cost model" — so the human reading a red build starts from the
attribution, not from two raw JSON files.  ``--triage-json PATH``
saves the machine-readable diff for the CI artifact upload, plus a
folded flamegraph pair (``PATH.old.folded`` / ``PATH.new.folded``)
ready for ``obs flame``/``flamegraph.pl`` or a differential
flamegraph.

Exit status: 0 when every enforced check passes, 1 otherwise.
The gate itself is stdlib-only on purpose — CI calls it before the
package environment is proven healthy; only the optional triage step
imports ``repro.obs`` (and degrades to a note when it cannot).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

#: metrics keys holding absolute wall-clock seconds worth trending
WALL_CLOCK_KEYS = ("fused_seconds", "reference_seconds")


def load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "benches" not in data:
        raise SystemExit(f"{path}: not a --bench-json artifact")
    data.setdefault("metrics", {})
    return data


def check_speedups(fresh: Dict) -> List[str]:
    """Every fused_speedup in the fresh run must be >= 1.0."""
    failures = []
    for nodeid, metrics in sorted(fresh["metrics"].items()):
        speedup = metrics.get("fused_speedup")
        if speedup is None:
            continue
        marker = "ok" if speedup >= 1.0 else "FAIL"
        print(f"  {marker:>4}  {nodeid}: fused_speedup={speedup:.3f}"
              f" (floor 1.0)")
        if speedup < 1.0:
            failures.append(
                f"{nodeid}: fused lane slower than reference "
                f"(speedup {speedup:.3f} < 1.0)"
            )
    return failures


def check_wall_clock(baseline: Dict, fresh: Dict,
                     max_regression: float) -> Tuple[List[str], bool]:
    """Absolute-seconds trend; skipped (not failed) across hosts."""
    base_host = baseline.get("host")
    fresh_host = fresh.get("host")
    if not base_host or base_host != fresh_host:
        print(f"  note: hosts differ (baseline={base_host!r}, "
              f"fresh={fresh_host!r}); wall-clock trend not comparable, "
              f"skipping")
        return [], False
    failures = []
    compared = False
    for nodeid, metrics in sorted(fresh["metrics"].items()):
        base_metrics = baseline["metrics"].get(nodeid, {})
        for key in WALL_CLOCK_KEYS:
            new = metrics.get(key)
            old = base_metrics.get(key)
            if new is None or not old:
                continue
            compared = True
            ratio = new / old
            limit = 1.0 + max_regression
            marker = "ok" if ratio <= limit else "FAIL"
            print(f"  {marker:>4}  {nodeid}: {key} "
                  f"{old:.4f}s -> {new:.4f}s ({ratio:.2f}x, "
                  f"limit {limit:.2f}x)")
            if ratio > limit:
                failures.append(
                    f"{nodeid}: {key} regressed {ratio:.2f}x "
                    f"(> {limit:.2f}x allowed)"
                )
    if not compared:
        print("  note: no overlapping wall-clock metrics to compare")
    return failures, compared


def triage(old_trace: str, new_trace: str,
           json_out: str = None) -> List[str]:
    """Span-level attribution of a regression: the trace diff, as lines.

    Never raises: a missing trace file or an unimportable ``repro.obs``
    degrades to an explanatory note, so triage can only add signal to
    a failure, never mask one.
    """
    try:
        from repro.obs import analyze, export
    except ImportError as exc:   # package not installed: note, don't fail
        return [f"(triage unavailable: cannot import repro.obs: {exc})"]
    try:
        diff = analyze.diff_traces(old_trace, new_trace)
    except Exception as exc:
        return [f"(triage failed on {old_trace} vs {new_trace}: {exc})"]
    lines = [f"span-level triage ({old_trace} -> {new_trace}):"]
    lines.extend(analyze.format_table(diff, top=10).splitlines())
    lines.append(f"attribution: {analyze.summarize(diff)}")
    if json_out:
        try:
            export.write_json(json_out, diff.as_dict())
            lines.append(f"machine-readable triage -> {json_out}")
        except OSError as exc:
            lines.append(f"(could not write {json_out}: {exc})")
        # a folded flamegraph pair next to the report: feed either file
        # to `obs flame --folded`, flamegraph.pl, or a differential
        # flamegraph tool to *see* where the regression sits
        base = json_out[:-len(".json")] if json_out.endswith(".json") \
            else json_out
        try:
            from repro.obs import flame
            for tag, trace_path in (("old", old_trace), ("new", new_trace)):
                folded_path = f"{base}.{tag}.folded"
                stacks = flame.folded_stacks(analyze.load_spans(trace_path))
                with open(folded_path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(flame.folded_lines(stacks)) + "\n")
                lines.append(f"folded stacks ({tag}) -> {folded_path}")
        except Exception as exc:
            lines.append(f"(could not write folded stacks: {exc})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when the perf smoke regresses vs a baseline")
    parser.add_argument("baseline", help="committed --bench-json baseline")
    parser.add_argument("fresh", help="freshly produced --bench-json file")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional wall-clock regression "
                             "when hosts match (default 0.25 = +25%%)")
    parser.add_argument("--triage", nargs=2,
                        metavar=("OLD_TRACE", "NEW_TRACE"), default=None,
                        help="on failure, attach a span-level trace diff "
                             "of these two trace.json artifacts")
    parser.add_argument("--triage-json", metavar="PATH", default=None,
                        help="with --triage, also save the machine-"
                             "readable diff here")
    args = parser.parse_args(argv)
    baseline = load(args.baseline)
    fresh = load(args.fresh)

    print(f"baseline: {args.baseline} (host={baseline.get('host')!r}, "
          f"{len(baseline['benches'])} benches)")
    print(f"fresh:    {args.fresh} (host={fresh.get('host')!r}, "
          f"{len(fresh['benches'])} benches)")

    print("speedup floors:")
    failures = check_speedups(fresh)
    if not fresh["metrics"]:
        print("  note: fresh run carries no metrics")

    print("wall-clock trend:")
    wall_failures, _ = check_wall_clock(baseline, fresh,
                                        args.max_regression)
    failures.extend(wall_failures)

    broken = [nodeid for nodeid, bench in sorted(fresh["benches"].items())
              if bench.get("outcome") not in ("passed", None)]
    for nodeid in broken:
        failures.append(f"{nodeid}: outcome "
                        f"{fresh['benches'][nodeid]['outcome']!r}")

    if failures:
        print("TREND CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        if args.triage:
            for line in triage(args.triage[0], args.triage[1],
                               json_out=args.triage_json):
                print(f"  {line}")
        return 1
    print("trend check passed")
    if args.triage:
        print("(no regression; span-level triage skipped)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
