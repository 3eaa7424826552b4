"""End-to-end observability: flow traces, pinned metrics, campaign merges.

Uses c17 with a minimal sizer budget so every flow is tens of
milliseconds; the pinned cache-hit counters are exact because the sizing
flow is deterministic.  Tests that read the process-wide ``METRICS``
registry reset it first — it accumulates for the process lifetime.
"""

import json

import pytest

from repro.circuits.registry import build_benchmark
from repro.core.sizer import SizerConfig
from repro.flow import run_sizing_flow
from repro.obs import METRICS, load_trace, span_tree_coverage, validate_trace
from repro.runner.faults import FAULTS_ENV, FaultRule, fault_env_value
from repro.runner.sweep import run_cells, table1_specs

#: Smallest useful sizer budget (mirrors tests/runner/test_faults.py).
FAST = SizerConfig(lam=3.0, max_iterations=2, max_outputs_per_pass=1, patience=1)

QUICK_RETRY = {"retry_backoff": 0.01, "backoff_factor": 1.0}

#: The exact memoization counters of a deterministic c17 flow at this
#: budget.  These pin the *wiring* (a refactor that stops counting cache
#: hits fails here), and doubling under an accidental second accumulation
#: would too.  Each sizing pass looks every distinct gate up once, so a
#: gate visited twice in one pass counts once.
PINNED_FLOW_CONFIG = SizerConfig(lam=3.0, max_iterations=3)
PINNED_FLOW_COUNTERS = {
    "sizer.eval_cache_hits": 0,
    "sizer.eval_cache_misses": 13,
    "sizer.subcircuit_cache_hits": 7,
    "sizer.subcircuit_cache_misses": 6,
    "incremental.runs": 1,
    "incremental.full_runs": 1,
    "incremental.preview_runs": 4,
}


def _run_flow(config):
    from repro.library.delay_model import LookupTableDelayModel
    from repro.library.synthetic90nm import make_synthetic_90nm_library
    from repro.variation.model import VariationModel

    library = make_synthetic_90nm_library()
    return run_sizing_flow(
        build_benchmark("c17"),
        lam=config.lam,
        library=library,
        delay_model=LookupTableDelayModel(library),
        variation_model=VariationModel(),
        sizer_config=config,
    )


class TestFlowTrace:
    def test_span_tree_covers_flow_runtime(self):
        METRICS.reset()
        flow = _run_flow(PINNED_FLOW_CONFIG)
        assert flow.trace is not None
        assert validate_trace(flow.trace) == []
        coverage = span_tree_coverage(flow.trace)
        # The acceptance bar: the stage spans account for >= 95% of the
        # root flow span — unexplained wall-clock stays under 5%.
        assert coverage["coverage"] >= 0.95

    def test_runtime_property_derived_from_trace(self):
        METRICS.reset()
        flow = _run_flow(FAST)
        root = next(
            s for s in flow.trace["spans"] if s["parent"] is None
        )
        assert flow.total_runtime_seconds == root["duration_s"]

    def test_pinned_cache_metrics(self):
        METRICS.reset()
        flow = _run_flow(PINNED_FLOW_CONFIG)
        counters = flow.trace["metrics"]["counters"]
        for name, expected in PINNED_FLOW_COUNTERS.items():
            assert counters.get(name) == expected, name

    def test_one_sweep_span_per_batched_evaluation(self):
        from repro.library.synthetic90nm import make_synthetic_90nm_library

        flow = _run_flow(PINNED_FLOW_CONFIG)
        spans = {s["id"]: s for s in flow.trace["spans"]}

        def sizer_of(sweep):
            parent = spans[sweep["parent"]]
            while parent["name"] not in ("baseline.optimize", "sizer.optimize"):
                parent = spans[parent["parent"]]
            return parent["name"]

        sweeps = [s for s in spans.values() if s["name"] == "cost.sweep"]
        assert {sizer_of(s) for s in sweeps} == {"baseline.optimize", "sizer.optimize"}
        # Every c17 gate is a NAND2, so each seed contributes one row per
        # NAND2 size, and each row one entry per subcircuit member.
        circuit = build_benchmark("c17")
        assert {gate.cell_type for gate in circuit.gates.values()} == {"NAND2"}
        num_sizes = make_synthetic_90nm_library().num_sizes("NAND2")
        for sweep in sweeps:
            attrs = sweep["attrs"]
            assert attrs["seeds"] >= 1
            assert attrs["rows"] == attrs["seeds"] * num_sizes
            assert attrs["rows"] <= attrs["entries"] <= attrs["rows"] * len(circuit.gates)


class TestSweepTraces:
    def test_serial_sweep_writes_cell_and_campaign_traces(self, tmp_path):
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        report = run_cells(specs, jobs=1, out_dir=tmp_path)
        assert report.computed == 2

        cell_runs = []
        for spec in specs:
            cell_trace = load_trace(
                spec.artifact_path(tmp_path).with_suffix(".trace.json")
            )
            assert validate_trace(cell_trace) == []
            cell_runs.append(cell_trace["metrics"]["counters"]["fullssta.runs"])
            roots = [s for s in cell_trace["spans"] if s["parent"] is None]
            assert [s["name"] for s in roots] == ["cell"]
            assert roots[0]["attrs"]["circuit"] == "c17"
            # The flow's stage spans nested under the cell span.
            names = {s["name"] for s in cell_trace["spans"]}
            assert {"cell", "flow", "sizer.optimize"} <= names

        campaign = load_trace(tmp_path / "trace.json")
        assert validate_trace(campaign) == []
        root = next(s for s in campaign["spans"] if s["parent"] is None)
        assert root["name"] == "sweep"
        assert root["attrs"]["cells"] == 2
        # Campaign metrics aggregate both cells plus orchestrator counters.
        counters = campaign["metrics"]["counters"]
        assert counters["sweep.cells_total"] == 2
        assert counters["sweep.cells_computed"] == 2
        # Every cell runs FULLSSTA; the campaign counter is the sum of the
        # cells' own counters (a lost or doubled accumulation fails).
        assert min(cell_runs) >= 1
        assert counters["fullssta.runs"] == sum(cell_runs)

    def test_parallel_sweep_merges_spans_across_worker_pids(self, tmp_path):
        specs = table1_specs(["c17"], (3.0, 6.0, 9.0), sizer_config=FAST)
        report = run_cells(specs, jobs=2, out_dir=tmp_path)
        assert report.computed == 3

        campaign = load_trace(tmp_path / "trace.json")
        assert validate_trace(campaign) == []
        # One cell span per cell, each re-rooted under the campaign root.
        root = next(s for s in campaign["spans"] if s["parent"] is None)
        cells = [s for s in campaign["spans"] if s["parent"] == root["id"]]
        assert len(cells) == 3
        lams = sorted(s["attrs"]["lam"] for s in cells)
        assert lams == [3.0, 6.0, 9.0]
        # Worker span ids embed the worker's pid; with jobs=2 at least two
        # distinct processes contributed to the merged tree.
        pids = {s["id"].split("/")[-1].split(".")[0] for s in cells}
        assert len(pids) >= 2
        # Report metrics match the persisted campaign trace metrics.
        assert campaign["metrics"] == report.metrics

    def test_cached_resume_preserves_campaign_trace(self, tmp_path):
        specs = table1_specs(["c17"], (3.0,), sizer_config=FAST)
        run_cells(specs, jobs=1, out_dir=tmp_path)
        before = (tmp_path / "trace.json").read_bytes()
        cell_trace = load_trace(
            specs[0].artifact_path(tmp_path).with_suffix(".trace.json")
        )
        cell_runs = cell_trace["metrics"]["counters"]["fullssta.runs"]
        report = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert report.skipped == 1 and report.computed == 0
        # Nothing ran, nothing changed.
        assert (tmp_path / "trace.json").read_bytes() == before
        # But the cached cell's shipped metrics still aggregate.
        assert report.metrics["counters"]["sweep.cells_cached"] == 1
        assert cell_runs >= 1
        assert report.metrics["counters"]["fullssta.runs"] == cell_runs


class TestCrashedWorkerTrace:
    def test_crashed_attempt_synthesizes_failure_span(
        self, tmp_path, monkeypatch
    ):
        # The crashed worker can never ship its partial spans back; the
        # orchestrator synthesizes a cell.failure span from the ledger
        # record so the campaign trace still accounts for the lost attempt.
        monkeypatch.setenv(FAULTS_ENV, fault_env_value([
            FaultRule(mode="crash", circuit="c17", lam=9.0, attempts=(0,)),
        ]))
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        report = run_cells(specs, jobs=2, out_dir=tmp_path,
                           max_retries=2, **QUICK_RETRY)
        assert report.computed == 2 and report.failed == 0

        campaign = load_trace(tmp_path / "trace.json")
        assert validate_trace(campaign) == []
        failures = [s for s in campaign["spans"] if s["name"] == "cell.failure"]
        assert len(failures) == 1
        attrs = failures[0]["attrs"]
        assert attrs["category"] == "crash"
        assert attrs["attempt"] == 0
        assert attrs["retried"] is True
        root = next(s for s in campaign["spans"] if s["parent"] is None)
        assert failures[0]["parent"] == root["id"]
        # The successful retry's span tree is present alongside it.
        cell_spans = [s for s in campaign["spans"] if s["name"] == "cell"]
        assert len(cell_spans) == 2
        # The respawned worker shows up in the campaign metrics.
        assert report.metrics["counters"].get("pool.respawns", 0) >= 1
        assert report.metrics["counters"]["sweep.failures.crash"] == 1
        assert report.metrics["counters"]["sweep.retries"] == 1


class TestArtifactHygiene:
    def test_cell_traces_never_collide_with_artifacts(self, tmp_path):
        specs = table1_specs(["c17"], (3.0,), sizer_config=FAST)
        run_cells(specs, jobs=1, out_dir=tmp_path)
        artifact = specs[0].artifact_path(tmp_path)
        trace_file = artifact.with_suffix(".trace.json")
        assert artifact.is_file() and trace_file.is_file()
        # The artifact itself stays schema-2 sweep payload, not a trace.
        payload = json.loads(artifact.read_text())
        assert "spans" not in payload
        assert payload["key"] == specs[0].key()
        # Resume treats the trace companion as a trace, not an artifact.
        report = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert report.skipped == 1
        (cached,) = report.results
        assert cached.from_cache and cached.trace is not None
        assert validate_trace(cached.trace) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
