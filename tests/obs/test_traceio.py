"""trace.json payloads: schema, validation, campaign merge, coverage."""

from __future__ import annotations

import pytest

from repro.obs import (
    TRACE_SCHEMA,
    Tracer,
    load_trace,
    merge_traces,
    span_tree_coverage,
    trace_payload,
    validate_trace,
    write_trace,
)


def _payload(names_and_parents, name="t"):
    """A payload from (id, parent, name) triples with unit durations."""
    spans = [
        {"id": sid, "parent": parent, "name": span_name,
         "start_unix": 0.0, "duration_s": 1.0, "attrs": {}}
        for sid, parent, span_name in names_and_parents
    ]
    return trace_payload(name, spans)


class TestTracePayload:
    def test_from_tracer_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        payload = trace_payload("run", tracer.spans)
        assert payload["schema"] == TRACE_SCHEMA
        assert validate_trace(payload) == []
        assert {s["name"] for s in payload["spans"]} == {"outer", "inner"}

    def test_unknown_parents_rerooted(self):
        # A flow recorded while an enclosing sweep-cell span was open: the
        # flow's root references a parent outside this payload and must be
        # normalized to None so the payload is self-contained.
        payload = _payload([("a.1", "not-here", "flow"), ("a.2", "a.1", "stage")])
        roots = [s for s in payload["spans"] if s["parent"] is None]
        assert [s["name"] for s in roots] == ["flow"]
        assert validate_trace(payload) == []

    def test_default_metrics_block(self):
        payload = _payload([("a.1", None, "x")])
        assert payload["metrics"] == {"counters": {}, "gauges": {},
                                      "histograms": {}}


class TestValidation:
    def test_roundtrip(self, tmp_path):
        payload = _payload([("a.1", None, "root"), ("a.2", "a.1", "child")])
        path = write_trace(tmp_path / "trace.json", payload)
        assert load_trace(path) == payload

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('{"schema": 99, "name": "x", "spans": [], '
                        '"metrics": {}}')
        with pytest.raises(ValueError, match="invalid trace"):
            load_trace(path)

    @pytest.mark.parametrize("mutate, problem", [
        (lambda p: p.update(schema=2), "schema"),
        (lambda p: p.update(name=None), "name"),
        (lambda p: p["spans"][0].pop("duration_s"), "missing field"),
        (lambda p: p["spans"][0].update(duration_s=-1.0), "negative duration"),
        (lambda p: p["spans"].append(dict(p["spans"][0])), "duplicated"),
        (lambda p: p["spans"][0].update(parent="ghost"), "unknown parent"),
        (lambda p: p.update(metrics={}), "metrics"),
    ])
    def test_structural_problems_reported(self, mutate, problem):
        payload = _payload([("a.1", None, "root")])
        mutate(payload)
        assert any(problem in text for text in validate_trace(payload))


class TestMergeTraces:
    def test_cells_rerooted_under_campaign_root(self):
        cell_a = _payload([("a.1", None, "cell"), ("a.2", "a.1", "flow")])
        cell_b = _payload([("a.1", None, "cell")])  # recycled pid-style ids
        merged = merge_traces([cell_a, cell_b], name="sweep")
        assert validate_trace(merged) == []
        by_id = {s["id"]: s for s in merged["spans"]}
        root = by_id["campaign.0"]
        assert root["parent"] is None
        assert root["name"] == "sweep"
        # Same original ids, disambiguated by the cell ordinal prefix.
        assert by_id["c0/a.1"]["parent"] == "campaign.0"
        assert by_id["c0/a.2"]["parent"] == "c0/a.1"
        assert by_id["c1/a.1"]["parent"] == "campaign.0"
        assert root["attrs"]["cells"] == 2

    def test_root_duration_spans_children(self):
        early = _payload([("a.1", None, "cell")])
        early["spans"][0].update(start_unix=10.0, duration_s=2.0)
        late = _payload([("b.1", None, "cell")])
        late["spans"][0].update(start_unix=13.0, duration_s=4.0)
        merged = merge_traces([early, late])
        root = next(s for s in merged["spans"] if s["id"] == "campaign.0")
        assert root["start_unix"] == 10.0
        assert root["duration_s"] == pytest.approx(7.0)


class TestSpanTreeCoverage:
    def test_direct_children_over_root(self):
        payload = _payload([
            ("r.1", None, "flow"),
            ("r.2", "r.1", "stage_a"),
            ("r.3", "r.1", "stage_b"),
            ("r.4", "r.2", "nested"),  # grandchild: not double-counted
        ])
        root = payload["spans"][0]
        root["duration_s"] = 4.0
        coverage = span_tree_coverage(payload)
        assert coverage["root_s"] == 4.0
        assert coverage["children_s"] == 2.0
        assert coverage["coverage"] == pytest.approx(0.5)

    def test_empty_payload(self):
        assert span_tree_coverage({"spans": []})["coverage"] == 0.0
