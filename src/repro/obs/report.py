"""Rendering of trace payloads: ``repro-sizer stats``.

``repro-sizer stats`` summarizes one trace payload (or a sweep directory's
campaign ``trace.json``): per-span-name aggregates, root coverage and the
metrics registry snapshot, as text or JSON.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.traceio import span_tree_coverage


def aggregate_spans(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-span-name aggregates of one payload, sorted by total time.

    Each entry carries ``name``, ``count``, ``total_s``, ``mean_s`` and
    ``max_s``.  Durations are *inclusive* (a parent counts its children),
    so the table answers "where does the wall-clock go" per layer, not as
    a flat sum.
    """
    buckets: Dict[str, List[float]] = {}
    for record in payload.get("spans", []):
        buckets.setdefault(record["name"], []).append(float(record["duration_s"]))
    rows = [
        {
            "name": name,
            "count": len(durations),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "max_s": max(durations),
        }
        for name, durations in buckets.items()
    ]
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


def resolve_trace_path(path: Union[str, Path]) -> Path:
    """Accept either a trace file or a sweep directory holding one."""
    path = Path(path)
    if path.is_dir():
        candidate = path / "trace.json"
        if not candidate.is_file():
            raise FileNotFoundError(f"{path} has no trace.json")
        return candidate
    return path


def stats_data(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Everything ``stats`` reports, as one JSON-able object."""
    return {
        "name": payload.get("name"),
        "spans": len(payload.get("spans", [])),
        "coverage": span_tree_coverage(payload),
        "by_name": aggregate_spans(payload),
        "metrics": payload.get("metrics", {}),
    }


def format_stats_text(data: Dict[str, Any], top: int = 20) -> str:
    """Human-readable ``stats`` rendering."""
    lines: List[str] = []
    coverage = data["coverage"]
    lines.append(f"trace      : {data['name']} ({data['spans']} spans)")
    lines.append(
        f"root span  : {coverage['root_s']:.3f} s, direct children cover "
        f"{100.0 * coverage['coverage']:.1f} %"
    )
    lines.append("")
    lines.append(f"{'span':<28s} {'count':>7s} {'total_s':>10s} {'mean_s':>10s} {'max_s':>10s}")
    for row in data["by_name"][:top]:
        lines.append(
            f"{row['name']:<28s} {row['count']:>7d} {row['total_s']:>10.3f} "
            f"{row['mean_s']:>10.4f} {row['max_s']:>10.4f}"
        )
    dropped = len(data["by_name"]) - top
    if dropped > 0:
        lines.append(f"... {dropped} more span name(s); use --top to widen")
    metrics = data.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<40s} {counters[name]}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<40s} {gauges[name]:g}")
    hists = metrics.get("histograms", {})
    if hists:
        lines.append("histograms:")
        for name in sorted(hists):
            h = hists[name]
            if not h:
                continue
            lines.append(
                f"  {name:<40s} n={h['count']} mean={h['mean']:g} "
                f"min={h['min']:g} max={h['max']:g}"
            )
    return "\n".join(lines)
