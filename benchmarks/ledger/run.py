#!/usr/bin/env python3
"""The performance ledger: one command, four workloads, every metric.

    python3 benchmarks/ledger/run.py                 # all workloads, untraced
    python3 benchmarks/ledger/run.py --trace         # ... plus per-layer pass
    python3 benchmarks/ledger/run.py --workload hpcg-32 --seed 3 \
        --seconds 12 --trace 0                       # one run (driver form)
    python3 benchmarks/ledger/run.py --compare OLD.json NEW.json
    python3 benchmarks/ledger/run.py --check-repeat

A ``--workload`` run prints every metric by name with its unit, the
output checks, and — as the last line of stdout — one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
check makes the command exit non-zero.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import spec

SRC_DIR = spec.REPO_ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> list:
    """Make "default" mean the uncalibrated path every user gets, and
    take BLAS threading out of the measurement — before numpy loads.

    Returns the names of the ``REPRO_*`` variables that were scrubbed.
    """
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"error: {SRC_DIR}/repro not found — the ledger measures "
                 f"the program in src/ and cannot run without it")
    # a cache directory that is never created: no machine profile, ever
    no_cache = str(spec.OUT_DIR / "no-tune-cache")
    scrubbed = sorted(k for k, v in os.environ.items()
                      if k.startswith("REPRO_") and v != no_cache)
    for name in scrubbed:
        del os.environ[name]
    os.environ["REPRO_TUNE_CACHE"] = no_cache
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(SRC_DIR)      # for child interpreters
    sys.path.insert(0, str(SRC_DIR))
    spec.OUT_DIR.mkdir(exist_ok=True)
    return scrubbed


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process "
                             "(default: all, one worker process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer pass (bare --trace "
                             "with no --workload: both passes)")
    parser.add_argument("--smoke", action="store_true",
                        help="8^3 grids, two samples: structure checks only")
    parser.add_argument("--out", default=None, metavar="JSON",
                        help="where an all-workloads run writes its ledger "
                             "(default: out/ledger.json)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--check-repeat", action="store_true")
    return parser.parse_args(argv)


def print_table(title: str, rows) -> None:
    print(f"-- {title}")
    for name, unit, stat in rows:
        line = f"{name:<46} {stat['median']:>14.6g} {unit:<7}"
        if stat.get("n", 1) > 1:
            line += (f" q1 {stat['q1']:.6g} q3 {stat['q3']:.6g} "
                     f"n {stat['n']}")
        if "base" in stat:
            line += f" base {stat['base']:.6g}"
        print(line)


def worker(args: argparse.Namespace, scrubbed: list) -> int:
    """Measure one workload in this process (the driver's invocation)."""
    from checks import Checks
    from provenance import provenance

    if args.workload not in spec.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(spec.WORKLOADS)}")
    w = spec.workload(args.workload, smoke=args.smoke)
    seconds = args.seconds or spec.load_declaration()["run_seconds"]
    checks = Checks()
    labels, info_stats = {}, {}
    if args.trace:
        import layers
        kind = "per_layer"
        trace_path = spec.OUT_DIR / f"trace-{w.name}.json"
        values, labels = layers.run(w, args.seed, seconds, args.smoke,
                                    checks, str(trace_path))
        stats = {name: {"median": v, "n": 1} for name, v in values.items()}
    else:
        import endtoend
        kind = "end_to_end"
        stats, info_stats = endtoend.run(w, args.seed, seconds, args.smoke,
                                         checks)
    metrics = spec.attach_units(
        kind, {name: s["median"] for name, s in stats.items()})

    info = provenance(args.seed, seconds, scrubbed)
    info.update(labels)
    print(f"== {w.name} ({'traced' if args.trace else 'untraced'}) "
          f"seed {args.seed}")
    for key, value in info.items():
        print(f"   {key}: {value}")
    print_table(kind, [(name, metrics[name]["unit"], stats[name])
                       for name in metrics])
    if info_stats:
        print_table("informational (host-speed dependent, not gated)",
                    [(name, unit, stat)
                     for name, (unit, stat) in info_stats.items()])
    print(f"-- checks: {checks.failed}/{checks.attempted} failed")
    for name in checks.failures:
        print(f"   FAILED {name}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    detail = dict(result, workload=w.name, kind=kind, stats=stats,
                  info=info_stats, provenance=info, failures=checks.failures)
    suffix = "-trace" if args.trace else ""
    with open(spec.OUT_DIR / f"result-{w.name}{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    scrubbed = pin_environment()
    if args.compare:
        import runsets
        return runsets.compare_files(*args.compare)
    if args.check_repeat:
        import runsets
        return runsets.check_repeat(args)
    if args.workload is None:
        import runsets
        return runsets.run_all(args)
    return worker(args, scrubbed)


if __name__ == "__main__":
    raise SystemExit(main())
