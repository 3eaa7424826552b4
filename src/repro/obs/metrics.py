"""Counters, gauges and histograms — always on, merge-able across processes.

Unlike spans (which are opt-in because they read the clock), metric updates
are a dict write and stay enabled everywhere: cache hit/miss counts,
dirty-cone sizes, sweep cell totals and the like cost integers, not
syscalls.

The module-level :data:`METRICS` registry is the process-wide default.
Sweep workers reset it per cell and ship ``snapshot()`` dicts back to the
parent with each cell's result; the parent folds them into a
campaign-level registry with :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class MetricsRegistry:
    """A flat namespace of counters, gauges and summary histograms."""

    __slots__ = ("_counters", "_gauges", "_hists")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self._hists: Dict[str, List[float]] = {}

    # -- updates -----------------------------------------------------------
    def counter(self, name: str, inc: int = 1) -> None:
        """Add ``inc`` to a monotonically growing count."""
        self._counters[name] = self._counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time quantity."""
        self._gauges[name] = float(value)

    def histogram(self, name: str, value: float) -> None:
        """Fold ``value`` into a (count, sum, min, max) summary."""
        hist = self._hists.get(name)
        if hist is None:
            self._hists[name] = [1, float(value), float(value), float(value)]
        else:
            hist[0] += 1
            hist[1] += value
            if value < hist[2]:
                hist[2] = value
            if value > hist[3]:
                hist[3] = value

    # -- reads -------------------------------------------------------------
    def get_counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def get_gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def get_histogram(self, name: str) -> Optional[Dict[str, float]]:
        hist = self._hists.get(name)
        if hist is None:
            return None
        count, total, lo, hi = hist
        return {
            "count": int(count),
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count if count else 0.0,
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able copy of everything (the wire/artifact format)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: self.get_histogram(name) for name in sorted(self._hists)
            },
        }

    # -- lifecycle ---------------------------------------------------------
    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, histograms combine their summaries, gauges last-write
        wins (they are point-in-time readings, not totals).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name, int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, summary in snapshot.get("histograms", {}).items():
            if not summary or not summary.get("count"):
                continue
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = [
                    int(summary["count"]), float(summary["sum"]),
                    float(summary["min"]), float(summary["max"]),
                ]
            else:
                hist[0] += int(summary["count"])
                hist[1] += float(summary["sum"])
                hist[2] = min(hist[2], float(summary["min"]))
                hist[3] = max(hist[3], float(summary["max"]))

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._hists)


#: Process-wide default registry (what instrumented library code updates).
METRICS = MetricsRegistry()
