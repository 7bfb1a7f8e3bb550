"""CLI for observability artifacts: ``python -m repro.obs``.

Subcommands:

``validate [PATH...] [--trace T] [--metrics M] [--manifest MF]``
    Validate artifacts against their schemas (the CI gate).  Positional
    paths may be files (kind sniffed from content) or directories
    (every ``*.json`` and ``*.jsonl`` inside, non-recursive); every
    file is reported pass/fail individually and the exit status is 1
    if *any* failed.  JSONL trace *streams* are first-class: a stream
    without its clean end marker (killed run) and a trace truncated by
    ``max_spans`` validate with a printed **warning**, not a failure.

``serve [--port N] [--host H] [--metrics M.json] [--manifest MF.json]``
    Serve finished artifacts over the live-telemetry endpoints
    (``/metrics`` Prometheus text, ``/healthz``, ``/manifest``,
    ``/progress``), re-reading the files per request.  The in-process
    variant for *running* solves is the driver's
    ``--serve-metrics PORT``.

``diff OLD NEW [--by name|level|category] [--top N] [--json PATH]``
    Per-key wall/modelled self-time deltas between two traces, ranked
    by movement under a noise threshold, with an attribution verdict
    per row (execution vs model).  ``--json`` also writes the
    machine-readable diff.

``flame TRACE [--clock wall|modelled] [--out PATH] [--top N]``
    Collapse the span forest into Brendan-Gregg folded format
    (``name;name;name count``, counts in self-microseconds).  Default
    prints folded lines (pipe into ``flamegraph.pl``); ``--top N``
    renders a terminal view instead.

``top TRACE [--by ...] [--clock ...] [--top N]``
    The single-trace profile: keys ranked by self time.

``diff-manifest OLD NEW [--json PATH]``
    Structural diff of two run manifests — toggles, environment,
    seeds, config, versions, sections present on one side only, and
    per-matrix substrate decisions with their reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from repro.obs import analyze, export, flame, manifest_diff
from repro.util.errors import InvalidValue


def _expand_paths(paths: List[str]) -> List[str]:
    """Files stay files; directories contribute ``*.json`` + ``*.jsonl``."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                os.path.join(path, name) for name in os.listdir(path)
                if name.endswith(".json") or name.endswith(".jsonl")
            )
            out.extend(entries)
        else:
            out.append(path)
    return out


def _cmd_validate(args) -> int:
    checks: List[Tuple[str, str]] = []
    for path, kind in ((args.trace, "trace"), (args.metrics, "metrics"),
                       (args.manifest, "manifest")):
        if path:
            checks.append((path, kind))
    checks.extend((path, "auto") for path in _expand_paths(args.paths))
    if not checks:
        print("nothing to validate: pass paths (files or directories) "
              "and/or --trace/--metrics/--manifest", file=sys.stderr)
        return 2
    failures = 0
    for path, kind in checks:
        try:
            kind, warnings = export.validate_file_report(path, kind)
        except (InvalidValue, OSError, ValueError) as exc:
            print(f"INVALID {kind} {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok: {kind} {path}")
        for warning in warnings:
            print(f"  warning: {warning}")
    if failures:
        print(f"{failures} of {len(checks)} file(s) invalid",
              file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args) -> int:
    diff = analyze.diff_traces(
        args.old, args.new, by=args.by,
        rel_threshold=args.threshold, abs_floor=args.abs_floor,
    )
    print(f"trace diff ({args.old} -> {args.new}, by {diff.by}):")
    print(analyze.format_table(diff, top=args.top,
                               significant_only=args.significant_only))
    print(f"attribution: {analyze.summarize(diff)}")
    if args.json:
        export.write_json(args.json, diff.as_dict())
        print(f"machine-readable diff -> {args.json}")
    return 0


def _cmd_flame(args) -> int:
    spans = analyze.load_spans(args.trace)
    stacks = flame.folded_stacks(spans, clock=args.clock)
    if args.top:
        print(flame.render_top(stacks, top=args.top, clock=args.clock))
        return 0
    lines = flame.folded_lines(stacks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"{len(lines)} folded stacks -> {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_top(args) -> int:
    spans = analyze.load_spans(args.trace)
    stats = sorted(
        analyze.aggregate(spans, by=args.by).values(),
        key=lambda s: (-(s.wall_self if args.clock == "wall"
                         else s.modelled_self), s.key),
    )
    shown = stats[:args.top] if args.top else stats
    field = "wall_self" if args.clock == "wall" else "modelled_self"
    total = sum(getattr(s, field) for s in stats) or 1.0
    width = max([len(s.key) for s in shown] + [12])
    print(f"{args.trace}: top {len(shown)} of {len(stats)} keys "
          f"by {args.clock} self time (by {args.by})")
    print(f"{'key':<{width}}  {'calls':>7}  {'self (s)':>10}  "
          f"{'share':>6}  {'total (s)':>10}")
    for s in shown:
        own = getattr(s, field)
        tot = s.wall if args.clock == "wall" else s.modelled
        print(f"{s.key:<{width}}  {s.count:>7}  {own:>10.4f}  "
              f"{own / total:>6.1%}  {tot:>10.4f}")
    return 0


def _cmd_diff_manifest(args) -> int:
    diff = manifest_diff.diff_manifests(args.old, args.new)
    print(manifest_diff.format_manifest_diff(diff))
    if args.json:
        export.write_json(args.json, diff)
        print(f"machine-readable diff -> {args.json}")
    return 0


def _cmd_serve(args) -> int:
    from repro.obs import live

    source = live.file_source(metrics=args.metrics, manifest=args.manifest)
    server = live.LiveServer(source, host=args.host, port=args.port)
    with server:
        print(f"serving telemetry on {server.url} "
              f"(/metrics /healthz /manifest /progress; Ctrl-C stops)")
        if args.once:        # test/CI hook: bind, report, exit cleanly
            return 0
        import time
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("stopped")
    return 0


def _add_clock(parser) -> None:
    parser.add_argument("--clock", choices=list(flame.CLOCKS),
                        default="wall",
                        help="which span clock to read (default wall)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability artifact tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate",
                         help="validate artifacts against their schemas")
    val.add_argument("paths", nargs="*",
                     help="artifact files or directories of *.json "
                          "(kind sniffed from content)")
    val.add_argument("--trace", help="Chrome trace_event JSON to validate")
    val.add_argument("--metrics", help="metrics snapshot JSON to validate")
    val.add_argument("--manifest", help="run manifest JSON to validate")
    val.set_defaults(fn=_cmd_validate)

    diff = sub.add_parser("diff", help="per-span deltas between two traces")
    diff.add_argument("old", help="baseline trace.json")
    diff.add_argument("new", help="fresh trace.json")
    diff.add_argument("--by", choices=list(analyze.GROUP_BYS),
                      default="name",
                      help="aggregation altitude (default name)")
    diff.add_argument("--top", type=int, default=20,
                      help="rows to print (0 = all, default 20)")
    diff.add_argument("--threshold", type=float,
                      default=analyze.REL_THRESHOLD,
                      help="relative noise threshold "
                           f"(default {analyze.REL_THRESHOLD})")
    diff.add_argument("--abs-floor", type=float, default=analyze.ABS_FLOOR,
                      help="absolute noise floor in seconds "
                           f"(default {analyze.ABS_FLOOR})")
    diff.add_argument("--significant-only", action="store_true",
                      help="print only rows that clear the threshold")
    diff.add_argument("--json", metavar="PATH",
                      help="also write the machine-readable diff")
    diff.set_defaults(fn=_cmd_diff)

    fl = sub.add_parser("flame",
                        help="folded flamegraph export / terminal view")
    fl.add_argument("trace", help="trace.json to collapse")
    _add_clock(fl)
    fl.add_argument("--out", metavar="PATH",
                    help="write folded lines here instead of stdout")
    fl.add_argument("--top", type=int, default=0,
                    help="render a terminal top-N view instead of "
                         "folded lines")
    fl.set_defaults(fn=_cmd_flame)

    top = sub.add_parser("top", help="single-trace self-time profile")
    top.add_argument("trace", help="trace.json to profile")
    top.add_argument("--by", choices=list(analyze.GROUP_BYS),
                     default="name",
                     help="aggregation altitude (default name)")
    _add_clock(top)
    top.add_argument("--top", type=int, default=15,
                     help="rows to print (0 = all, default 15)")
    top.set_defaults(fn=_cmd_top)

    dm = sub.add_parser("diff-manifest",
                        help="structural diff of two run manifests")
    dm.add_argument("old", help="baseline manifest.json")
    dm.add_argument("new", help="fresh manifest.json")
    dm.add_argument("--json", metavar="PATH",
                    help="also write the machine-readable diff")
    dm.set_defaults(fn=_cmd_diff_manifest)

    srv = sub.add_parser("serve",
                         help="serve artifacts over the live-telemetry "
                              "endpoints (/metrics etc.)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind host (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=0,
                     help="bind port (default 0 = ephemeral, printed)")
    srv.add_argument("--metrics", metavar="PATH",
                     help="metrics snapshot JSON behind /metrics and "
                          "/progress (re-read per request)")
    srv.add_argument("--manifest", metavar="PATH",
                     help="run manifest JSON behind /manifest")
    srv.add_argument("--once", action="store_true",
                     help="bind, print the URL, exit (smoke-test hook)")
    srv.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidValue, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
