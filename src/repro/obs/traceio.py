"""The persisted ``trace.json`` artifact: schema, validation, campaign merge.

Payload layout (``TRACE_SCHEMA`` 1)::

    {
      "schema": 1,
      "name": "<run label>",
      "created_unix": <float>,
      "spans": [
        {"id": "<pid-hex>.<seq-hex>", "parent": "<id>"|null, "name": str,
         "start_unix": <float>, "duration_s": <float>, "attrs": {...}},
        ...
      ],
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }

Single flows persist one payload (``repro-sizer size --trace``); sweeps
persist one per cell beside its artifact plus a merged campaign
``trace.json`` whose cell sub-trees are re-rooted under a synthetic
campaign root (worker span ids are pid-scoped, so the merge additionally
prefixes them with the cell ordinal to make collisions impossible when a
pid is recycled).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

TRACE_SCHEMA = 1

#: Fields every span record must carry.
_SPAN_FIELDS = ("id", "parent", "name", "start_unix", "duration_s", "attrs")


def trace_payload(
    name: str,
    spans: Sequence[Any],
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-1 payload from spans (dicts or Span objects).

    Spans whose parent is not part of this payload (e.g. a flow recorded
    while an enclosing sweep-cell span was open) are re-rooted: their
    parent is normalized to ``None`` so every payload is self-contained.
    """
    records = [
        dict(s) if isinstance(s, dict) else s.to_dict() for s in spans
    ]
    ids = {r["id"] for r in records}
    for record in records:
        if record.get("parent") is not None and record["parent"] not in ids:
            record["parent"] = None
    return {
        "schema": TRACE_SCHEMA,
        "name": name,
        "created_unix": time.time(),
        "spans": records,
        "metrics": metrics or {"counters": {}, "gauges": {}, "histograms": {}},
    }


def write_trace(path: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Persist one payload atomically (tmp-file + rename, like artifacts)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    problems = validate_trace(payload)
    if problems:
        raise ValueError(f"{path}: invalid trace ({'; '.join(problems)})")
    return payload


def validate_trace(payload: Any) -> List[str]:
    """Structural problems of one payload (empty list == valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != TRACE_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, expected {TRACE_SCHEMA}")
    if not isinstance(payload.get("name"), str):
        problems.append("missing run name")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        return [*problems, "spans is not a list"]
    ids = set()
    for i, record in enumerate(spans):
        if not isinstance(record, dict):
            problems.append(f"span[{i}] is not an object")
            continue
        missing = [f for f in _SPAN_FIELDS if f not in record]
        if missing:
            problems.append(f"span[{i}] missing field(s): {', '.join(missing)}")
            continue
        if not isinstance(record["id"], str) or not record["id"]:
            problems.append(f"span[{i}] has a non-string id")
            continue
        if record["id"] in ids:
            problems.append(f"span id {record['id']!r} is duplicated")
        ids.add(record["id"])
        if not isinstance(record["duration_s"], (int, float)) or record["duration_s"] < 0:
            problems.append(f"span {record['id']!r} has a negative duration")
        if not isinstance(record["attrs"], dict):
            problems.append(f"span {record['id']!r} attrs is not an object")
    for record in spans:
        if not isinstance(record, dict):
            continue
        parent = record.get("parent")
        if parent is not None and parent not in ids:
            problems.append(
                f"span {record.get('id')!r} references unknown parent {parent!r}"
            )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or any(
        key not in metrics for key in ("counters", "gauges", "histograms")
    ):
        problems.append("metrics must carry counters/gauges/histograms")
    return problems


def merge_traces(
    children: Iterable[Dict[str, Any]],
    name: str = "campaign",
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One campaign payload from per-cell payloads.

    Every child's spans are id-prefixed with its ordinal (worker pids can
    be recycled across cells) and re-rooted: spans whose parent is missing
    from their own payload hang off the synthetic campaign root.
    """
    root_id = "campaign.0"
    merged: List[Dict[str, Any]] = []
    starts: List[float] = []
    ends: List[float] = []

    def _adopt(records: Sequence[Dict[str, Any]], prefix: str) -> None:
        local_ids = {r["id"] for r in records}
        for record in records:
            adopted = dict(record)
            adopted["id"] = prefix + record["id"]
            parent = record.get("parent")
            adopted["parent"] = (
                prefix + parent if parent in local_ids else root_id
            )
            merged.append(adopted)
            starts.append(float(record.get("start_unix", 0.0)))
            ends.append(
                float(record.get("start_unix", 0.0))
                + float(record.get("duration_s", 0.0))
            )

    for i, child in enumerate(children):
        _adopt(child.get("spans", []), f"c{i}/")

    start = min(starts) if starts else time.time()
    duration = max(0.0, (max(ends) - start)) if ends else 0.0
    root = {
        "id": root_id,
        "parent": None,
        "name": name,
        "start_unix": start,
        "duration_s": duration,
        "attrs": {"cells": sum(1 for s in merged if s["parent"] == root_id)},
    }
    return trace_payload(name, [root, *merged], metrics=metrics)


def span_tree_coverage(payload: Dict[str, Any]) -> Dict[str, float]:
    """How much of the root span's wall-clock its children account for.

    Returns ``{"root_s": ..., "children_s": ..., "coverage": ...}`` where
    ``coverage`` is the summed duration of the root's *direct* children over
    the root's own duration — the acceptance metric for "the span tree
    covers >= 95% of measured wall-clock".
    """
    spans = payload.get("spans", [])
    roots = [s for s in spans if s.get("parent") is None]
    if not roots:
        return {"root_s": 0.0, "children_s": 0.0, "coverage": 0.0}
    root = max(roots, key=lambda s: float(s.get("duration_s", 0.0)))
    children = sum(
        float(s.get("duration_s", 0.0))
        for s in spans
        if s.get("parent") == root["id"]
    )
    root_s = float(root.get("duration_s", 0.0))
    return {
        "root_s": root_s,
        "children_s": children,
        "coverage": children / root_s if root_s > 0 else 0.0,
    }
