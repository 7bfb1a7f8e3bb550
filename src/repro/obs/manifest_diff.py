"""Manifest diffing: "why is this run different", as one command.

A run manifest (:mod:`repro.obs.manifest`) records everything a run's
configuration resolved to — toggles, environment, seeds, driver config,
versions, and every substrate-selection decision with its reason.
:func:`diff_manifests` compares two of them structurally:

* per-section key diffs (added / removed / changed) over ``toggles``,
  ``environment``, ``seeds``, ``config``, ``python`` and the package
  version — identity fields (``run_id``, ``created_at``) are ignored,
  they differ by construction;
* top-level sections present on one side only (a manifest written by
  an older layout, say), reported as added or removed;
* a decision diff: substrate selections are keyed by the matrix they
  describe (shape + nnz + request), so a forced-substrate run against
  a default run reports *which matrices* changed format **and why**
  (``default -> env``), not just that something did.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: Sections compared key-by-key; ``python`` nests interpreter/platform
#: identity.
SECTIONS = ("toggles", "environment", "seeds", "config", "python")

#: Top-level scalars worth flagging (identity fields excluded).
SCALARS = ("schema_version", "package_version")

#: Per-decision fields that identify *which matrix* was resolved.
DECISION_KEY_FIELDS = ("nrows", "ncols", "nnz", "request")


def load_manifest(source: Any) -> Dict[str, Any]:
    """A manifest dict from a path or an already-loaded dict."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return dict(source)


def _section_diff(old: Optional[Dict[str, Any]],
                  new: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    old = old or {}
    new = new or {}
    added = {k: new[k] for k in sorted(set(new) - set(old))}
    removed = {k: old[k] for k in sorted(set(old) - set(new))}
    changed = {
        k: {"old": old[k], "new": new[k]}
        for k in sorted(set(old) & set(new))
        if old[k] != new[k]
    }
    return {"added": added, "removed": removed, "changed": changed}


def _decision_key(decision: Dict[str, Any]) -> Tuple:
    return tuple(decision.get(f) for f in DECISION_KEY_FIELDS)


def _decision_outcomes(decisions: List[Dict[str, Any]]
                       ) -> Dict[Tuple, Dict[str, int]]:
    """Per matrix key, how often each ``chosen (reason)`` outcome fired.

    The same matrix resolves repeatedly (every kernel call re-asks the
    registry), so outcomes are multisets, not single values.
    """
    out: Dict[Tuple, Dict[str, int]] = {}
    for decision in decisions:
        key = _decision_key(decision)
        outcome = (f"{decision.get('chosen', '?')} "
                   f"({decision.get('reason', '?')})")
        bucket = out.setdefault(key, {})
        bucket[outcome] = bucket.get(outcome, 0) + 1
    return out


def _decision_diff(old: List[Dict[str, Any]],
                   new: List[Dict[str, Any]]) -> Dict[str, Any]:
    old_outcomes = _decision_outcomes(old)
    new_outcomes = _decision_outcomes(new)
    changed = []
    for key in sorted(set(old_outcomes) | set(new_outcomes),
                      key=lambda k: tuple(str(f) for f in k)):
        before = old_outcomes.get(key)
        after = new_outcomes.get(key)
        if before == after:
            continue
        matrix = dict(zip(DECISION_KEY_FIELDS, key))
        changed.append({
            "matrix": matrix,
            "old": before,
            "new": after,
        })
    return {
        "old_count": len(old),
        "new_count": len(new),
        "changed": changed,
    }


def diff_manifests(old: Any, new: Any) -> Dict[str, Any]:
    """Structural diff of two manifests (paths or dicts)."""
    old_m = load_manifest(old)
    new_m = load_manifest(new)
    sections = {}
    for section in SECTIONS:
        diff = _section_diff(
            _as_dict(old_m.get(section)), _as_dict(new_m.get(section)))
        if diff["added"] or diff["removed"] or diff["changed"]:
            sections[section] = diff
    scalars = {
        name: {"old": old_m.get(name), "new": new_m.get(name)}
        for name in SCALARS
        if old_m.get(name) != new_m.get(name)
    }
    presence = {"added": sorted(set(new_m) - set(old_m)),
                "removed": sorted(set(old_m) - set(new_m))}
    decisions = _decision_diff(
        list(old_m.get("substrate_decisions") or []),
        list(new_m.get("substrate_decisions") or []),
    )
    identical = (not sections and not scalars and not decisions["changed"]
                 and not presence["added"] and not presence["removed"])
    return {
        "identical": identical,
        "old_run_id": old_m.get("run_id"),
        "new_run_id": new_m.get("run_id"),
        "scalars": scalars,
        "presence": presence,
        "sections": sections,
        "decisions": decisions,
    }


def _as_dict(value: Any) -> Optional[Dict[str, Any]]:
    return value if isinstance(value, dict) else None


def format_manifest_diff(diff: Dict[str, Any]) -> str:
    """The diff as indented human-readable text."""
    lines = [f"manifest diff: {diff.get('old_run_id')} -> "
             f"{diff.get('new_run_id')}"]
    if diff["identical"]:
        lines.append("  identical configuration "
                     "(identity fields excluded)")
        return "\n".join(lines)
    for name, change in diff["scalars"].items():
        lines.append(f"  {name}: {change['old']!r} -> {change['new']!r}")
    for name in diff["presence"]["added"]:
        lines.append(f"  + section {name}")
    for name in diff["presence"]["removed"]:
        lines.append(f"  - section {name} (removed)")
    for section, body in diff["sections"].items():
        lines.append(f"  {section}:")
        for key, value in body["added"].items():
            lines.append(f"    + {key} = {value!r}")
        for key, value in body["removed"].items():
            lines.append(f"    - {key} = {value!r}")
        for key, change in body["changed"].items():
            lines.append(f"    ~ {key}: {change['old']!r} -> "
                         f"{change['new']!r}")
    decisions = diff["decisions"]
    if decisions["changed"]:
        lines.append(f"  substrate decisions "
                     f"({decisions['old_count']} -> "
                     f"{decisions['new_count']} recorded):")
        for change in decisions["changed"]:
            matrix = change["matrix"]
            shape = (f"{matrix.get('nrows')}x{matrix.get('ncols')} "
                     f"nnz={matrix.get('nnz')}")
            if matrix.get("request") is not None:
                shape += f" request={matrix['request']}"
            lines.append(f"    ~ {shape}: {_outcomes(change['old'])} -> "
                         f"{_outcomes(change['new'])}")
    return "\n".join(lines)


def _outcomes(bucket: Optional[Dict[str, int]]) -> str:
    if not bucket:
        return "(absent)"
    return ", ".join(f"{outcome} x{count}" if count > 1 else outcome
                     for outcome, count in sorted(bucket.items()))
