"""Trace analysis: loading, aggregation, and trace *diffing*.

PR 6 made every run emit a ``trace.json``; this module is the consumer
side.  The model is a two-step pipeline:

1. :func:`aggregate` rolls a flat span list up into per-key
   :class:`SpanStats` — total and **self** time on *both* clocks
   (wall-clock and modelled BSP seconds), plus call counts.  Keys are
   span names by default; ``by="level"`` rolls up per MG level and
   ``by="category"`` per instrumentation category, so "which level
   regressed" and "which subsystem regressed" are the same query at a
   different altitude.
2. :func:`diff_traces` compares two aggregations under a noise
   threshold and ranks the result by self-time movement — the quantity
   a leaf kernel actually owns, so a slower ``smoother/rbgs_sweep``
   outranks the ``mg/L0`` parent that merely contains it.

Because every span carries both clocks, each delta is *attributed*:
wall moved while modelled stayed flat means the execution changed
(kernel, machine, noise), modelled moved while wall stayed flat means
the cost model or communication plan changed, and both moving together
points at a real algorithmic change.  That attribution line closes
``python -m repro.obs diff`` and the driver's ``--compare-trace``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.errors import InvalidValue

#: Relative change below this fraction of the old value is noise.
#: Wall clocks on repeated identical runs routinely wander by double-
#: digit percents on small spans; real regressions (a disabled fused
#: lane, a changed partition) move integer factors.
REL_THRESHOLD = 0.25

#: Absolute seconds below this are noise regardless of the ratio.
#: Millisecond-scale spans (a per-level SpMV over a few dozen calls)
#: wobble by whole milliseconds between identical runs under scheduler
#: jitter; the regressions this differ exists for move tens of them.
ABS_FLOOR = 5e-3

#: Aggregation altitudes accepted by :func:`aggregate` and the CLI.
GROUP_BYS = ("name", "level", "category")

_LEVEL_RE = re.compile(r"(?:^|/)L(\d+)(?:/|$)")


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_spans(source: Any) -> List[Dict[str, Any]]:
    """Span dicts from a trace file path, payload dict, or span list.

    Accepts the artifacts :mod:`repro.obs.export` writes (Chrome
    ``trace_event`` JSON with the plain span list under
    ``otherData.spans``), a JSONL trace *stream* from
    :mod:`repro.obs.stream` (partial traces of killed runs included),
    a bare ``{"spans": [...]}`` wrapper, or an already-loaded span
    list.  A Chrome trace written by other tooling (no
    ``otherData.spans``) is reconstructed from its "X" events —
    parent links and modelled seconds ride in each event's ``args``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            source = json.loads(text)
        except json.JSONDecodeError:
            # not one JSON document: try the JSONL trace-stream format
            from repro.obs import stream as stream_mod
            source = stream_mod.parse_stream_text(text)[1]
    if isinstance(source, dict) and source.get("kind"):
        # a header-only stream file parses as a single JSON object
        from repro.obs import stream as stream_mod
        if source.get("kind") == stream_mod.STREAM_KIND:
            source = []
    if isinstance(source, list):
        spans = source
    elif isinstance(source, dict):
        other = source.get("otherData")
        if isinstance(other, dict) and isinstance(other.get("spans"), list):
            spans = other["spans"]
        elif isinstance(source.get("spans"), list):
            spans = source["spans"]
        elif isinstance(source.get("traceEvents"), list):
            spans = _spans_from_events(source["traceEvents"])
        else:
            raise InvalidValue(
                "trace carries neither otherData.spans, spans, nor "
                "traceEvents"
            )
    else:
        raise InvalidValue(f"cannot load spans from {type(source).__name__}")
    for i, span in enumerate(spans):
        if not isinstance(span, dict) or "name" not in span:
            raise InvalidValue(f"span[{i}] is not a span object")
    return spans


def _spans_from_events(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild a span list from Chrome "X" events (best effort)."""
    spans = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        spans.append({
            "id": args.pop("id", None),
            "parent_id": args.pop("parent_id", None),
            "name": ev.get("name", ""),
            "category": ev.get("cat", ""),
            "thread": ev.get("tid", 0),
            "start": float(ev.get("ts", 0.0)) / 1e6,
            "wall_seconds": float(ev.get("dur", 0.0)) / 1e6,
            "modelled_seconds": float(args.pop("modelled_seconds", 0.0)),
            "args": args,
        })
    return spans


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class SpanStats:
    """Aggregated totals for one key (span name / level / category)."""

    key: str
    count: int = 0
    wall: float = 0.0
    modelled: float = 0.0
    wall_self: float = 0.0
    modelled_self: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "count": self.count,
            "wall_seconds": self.wall,
            "modelled_seconds": self.modelled,
            "wall_self_seconds": self.wall_self,
            "modelled_self_seconds": self.modelled_self,
        }


def span_key(span: Dict[str, Any], by: str = "name") -> str:
    """The aggregation key of one span at altitude ``by``."""
    if by == "name":
        return str(span.get("name", ""))
    if by == "category":
        return str(span.get("category", "")) or "(uncategorised)"
    if by == "level":
        level = (span.get("args") or {}).get("level")
        if level is None:
            match = _LEVEL_RE.search(str(span.get("name", "")))
            if match:
                level = match.group(1)
        return f"L{level}" if level is not None else "(no level)"
    raise InvalidValue(f"unknown grouping {by!r}; expected one of {GROUP_BYS}")


def aggregate(spans: Sequence[Dict[str, Any]],
              by: str = "name") -> Dict[str, SpanStats]:
    """Per-key totals, counts and self times over a span list.

    Self time is each span's own clock minus the sum over its direct
    children (clamped at zero: concurrent child threads can overlap
    the parent), summed into the span's key — the flamegraph notion of
    "time in this frame itself".  Instant events carry no duration and
    are skipped.
    """
    spans = [s for s in spans
             if not (s.get("args") or {}).get("instant")]
    child_wall: Dict[Any, float] = {}
    child_modelled: Dict[Any, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_wall[parent] = (child_wall.get(parent, 0.0)
                                  + float(span.get("wall_seconds", 0.0)))
            child_modelled[parent] = (
                child_modelled.get(parent, 0.0)
                + float(span.get("modelled_seconds", 0.0)))
    out: Dict[str, SpanStats] = {}
    for span in spans:
        key = span_key(span, by)
        stats = out.get(key)
        if stats is None:
            stats = out[key] = SpanStats(key)
        wall = float(span.get("wall_seconds", 0.0))
        modelled = float(span.get("modelled_seconds", 0.0))
        sid = span.get("id")
        stats.count += 1
        stats.wall += wall
        stats.modelled += modelled
        stats.wall_self += max(wall - child_wall.get(sid, 0.0), 0.0)
        stats.modelled_self += max(
            modelled - child_modelled.get(sid, 0.0), 0.0)
    return out


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

@dataclass
class DiffRow:
    """One key's movement between an old and a new trace."""

    key: str
    old: Optional[SpanStats]
    new: Optional[SpanStats]
    significant: bool = False
    verdict: str = "flat"

    @property
    def status(self) -> str:
        if self.old is None:
            return "added"
        if self.new is None:
            return "removed"
        return "common"

    def _pair(self, attr: str) -> Tuple[float, float]:
        return (getattr(self.old, attr) if self.old else 0.0,
                getattr(self.new, attr) if self.new else 0.0)

    def delta(self, attr: str = "wall_self") -> float:
        old, new = self._pair(attr)
        return new - old

    def ratio(self, attr: str = "wall_self") -> Optional[float]:
        old, new = self._pair(attr)
        return new / old if old > 0 else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "status": self.status,
            "significant": self.significant,
            "verdict": self.verdict,
            "old": self.old.as_dict() if self.old else None,
            "new": self.new.as_dict() if self.new else None,
            "wall_delta": self.delta("wall"),
            "wall_self_delta": self.delta("wall_self"),
            "modelled_delta": self.delta("modelled"),
            "modelled_self_delta": self.delta("modelled_self"),
        }


@dataclass
class TraceDiff:
    """The ranked result of diffing two traces."""

    rows: List[DiffRow]
    by: str
    rel_threshold: float
    abs_floor: float
    old_total_wall: float = 0.0
    new_total_wall: float = 0.0

    def significant_rows(self) -> List[DiffRow]:
        return [row for row in self.rows if row.significant]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "by": self.by,
            "rel_threshold": self.rel_threshold,
            "abs_floor": self.abs_floor,
            "old_total_wall_seconds": self.old_total_wall,
            "new_total_wall_seconds": self.new_total_wall,
            "significant": len(self.significant_rows()),
            "rows": [row.as_dict() for row in self.rows],
        }


def _moved(old: float, new: float, rel: float, floor: float) -> bool:
    """Is ``old -> new`` a real move under the noise thresholds?"""
    delta = abs(new - old)
    if delta <= floor:
        return False
    base = max(old, floor)
    return delta / base > rel


def _verdict(row: DiffRow, rel: float, floor: float) -> str:
    """Attribute a row's movement to execution, model, or both.

    Wall and modelled clocks answer different questions: wall is what
    the machine did, modelled is what the BSP cost model priced.  Only
    one moving localises the cause.
    """
    wall_moved = _moved(*row._pair("wall_self"), rel=rel, floor=floor) or \
        _moved(*row._pair("wall"), rel=rel, floor=floor)
    model_moved = _moved(*row._pair("modelled_self"), rel=rel, floor=floor) or \
        _moved(*row._pair("modelled"), rel=rel, floor=floor)
    if wall_moved and model_moved:
        return "both"
    if wall_moved:
        return "execution"
    if model_moved:
        return "model"
    return "flat"


def diff_traces(
    old: Any,
    new: Any,
    by: str = "name",
    rel_threshold: float = REL_THRESHOLD,
    abs_floor: float = ABS_FLOOR,
) -> TraceDiff:
    """Diff two traces (paths, payloads, span lists, or aggregations).

    Rows cover the union of keys, ranked by absolute **self-time**
    movement (wall clock first, modelled as tiebreak), so the kernels
    that own the regression outrank the phases that merely contain
    them.  A row is *significant* when either clock's movement clears
    both the relative threshold and the absolute floor, or when the
    key appeared/disappeared with more than floor seconds of self time.
    """
    old_stats = old if _is_aggregation(old) else aggregate(load_spans(old), by)
    new_stats = new if _is_aggregation(new) else aggregate(load_spans(new), by)
    rows: List[DiffRow] = []
    for key in sorted(set(old_stats) | set(new_stats)):
        row = DiffRow(key=key, old=old_stats.get(key), new=new_stats.get(key))
        row.verdict = _verdict(row, rel_threshold, abs_floor)
        if row.status in ("added", "removed"):
            present = row.new if row.old is None else row.old
            row.significant = (present.wall_self > abs_floor
                               or present.modelled_self > abs_floor)
            row.verdict = row.status
        else:
            row.significant = row.verdict != "flat"
        rows.append(row)
    rows.sort(key=lambda r: (abs(r.delta("wall_self")),
                             abs(r.delta("modelled_self")),
                             r.key), reverse=True)
    return TraceDiff(
        rows=rows, by=by, rel_threshold=rel_threshold, abs_floor=abs_floor,
        old_total_wall=sum(s.wall_self for s in old_stats.values()),
        new_total_wall=sum(s.wall_self for s in new_stats.values()),
    )


def _is_aggregation(obj: Any) -> bool:
    return (isinstance(obj, dict) and obj
            and all(isinstance(v, SpanStats) for v in obj.values()))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_delta(old: float, new: float) -> str:
    delta = new - old
    if old > 0:
        return f"{delta / old:+8.1%}"
    return "    new " if new > 0 else "   flat "


def format_table(diff: TraceDiff, top: int = 20,
                 significant_only: bool = False) -> str:
    """The diff as a ranked human-readable table.

    One line per key: self-time old -> new on both clocks, the relative
    movement, and the attribution verdict ("execution" = wall moved but
    the model stayed flat, so the run changed, not the plan).
    """
    rows = diff.significant_rows() if significant_only else diff.rows
    rows = rows[:top] if top else rows
    width = max([len(r.key) for r in rows] + [12])
    header = (f"{'span':<{width}}  {'calls':>11}  "
              f"{'wall self (s)':>21} {'Δwall':>8}  "
              f"{'modelled self (s)':>21} {'Δmodel':>8}  verdict")
    lines = [header, "-" * len(header)]
    for row in rows:
        o_count = row.old.count if row.old else 0
        n_count = row.new.count if row.new else 0
        ow, nw = row._pair("wall_self")
        om, nm = row._pair("modelled_self")
        marker = "*" if row.significant else " "
        lines.append(
            f"{row.key:<{width}}  {o_count:>5}>{n_count:<5}  "
            f"{ow:>10.4f}>{nw:<10.4f} {_fmt_delta(ow, nw)}  "
            f"{om:>10.4f}>{nm:<10.4f} {_fmt_delta(om, nm)}  "
            f"{marker}{row.verdict}"
        )
    sig = len(diff.significant_rows())
    lines.append(
        f"total wall self: {diff.old_total_wall:.4f}s -> "
        f"{diff.new_total_wall:.4f}s "
        f"({_fmt_delta(diff.old_total_wall, diff.new_total_wall).strip()}); "
        f"{sig} significant delta{'s' if sig != 1 else ''} "
        f"(rel>{diff.rel_threshold:.0%}, abs>{diff.abs_floor:g}s)"
    )
    return "\n".join(lines)


def summarize(diff: TraceDiff, top: int = 3) -> str:
    """A one-paragraph attribution: the headline movers, in words."""
    sig = diff.significant_rows()
    if not sig:
        return (f"no significant per-{diff.by} deltas "
                f"(rel>{diff.rel_threshold:.0%}, "
                f"abs>{diff.abs_floor:g}s)")
    parts = []
    for row in sig[:top]:
        ow, nw = row._pair("wall_self")
        verdict = {
            "execution": "execution not model",
            "model": "model not execution",
            "both": "execution and model",
        }.get(row.verdict, row.verdict)
        parts.append(f"`{row.key}` {_fmt_delta(ow, nw).strip()} wall "
                     f"({verdict})")
    more = len(sig) - top
    tail = f" (+{more} more)" if more > 0 else ""
    return "; ".join(parts) + tail
