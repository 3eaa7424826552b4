"""Zero-dependency instrumentation layer: tracing spans + metrics.

Every other layer of the reproduction measures itself through this package
(repo lint RL005 forbids raw ``time.perf_counter()`` anywhere else in
``src/``), so there is exactly one timing source:

* :mod:`repro.obs.trace` — nested timing spans with a context-manager and
  decorator API.  The module-level :func:`span` helper records into the
  *current* tracer; the default tracer is disabled and returns a shared
  null span, so instrumentation is free when tracing is off.  Set
  ``REPRO_TRACE=1`` (inherited by sweep workers) to enable it globally.
* :mod:`repro.obs.metrics` — an always-on registry of counters, gauges and
  histograms (cache hits, dirty-cone sizes, ...).  Snapshots merge across
  processes, which is how sweep workers ship their numbers back to the
  parent.
* :mod:`repro.obs.traceio` — the persisted ``trace.json`` artifact:
  schema, validation, and the campaign merge that re-roots per-cell
  worker traces under one tree.
* :mod:`repro.obs.report` — rendering for ``repro-sizer stats``: per-span
  aggregates, root coverage and the metrics of one trace (a flow's, a
  cell's or a sweep's merged campaign trace).
"""

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Stopwatch,
    Tracer,
    activate,
    clock,
    get_tracer,
    set_tracer,
    span,
    stopwatch,
    traced,
    tracing_enabled,
)
from repro.obs.traceio import (
    TRACE_SCHEMA,
    load_trace,
    merge_traces,
    span_tree_coverage,
    trace_payload,
    validate_trace,
    write_trace,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Stopwatch",
    "TRACE_SCHEMA",
    "Tracer",
    "activate",
    "clock",
    "get_tracer",
    "load_trace",
    "merge_traces",
    "set_tracer",
    "span",
    "span_tree_coverage",
    "stopwatch",
    "trace_payload",
    "traced",
    "tracing_enabled",
    "validate_trace",
    "write_trace",
]
