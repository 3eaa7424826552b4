"""Tests for the parallel sweep orchestrator and its artifacts.

All sweeps here run the smallest circuits with a reduced sizer budget; the
full-scale serial-vs-parallel comparison lives in
``benchmarks/bench_sweep.py``.
"""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.runner.sweep as sweep_module
from repro.core.sizer import SizerConfig
from repro.runner.artifacts import (
    ARTIFACT_SCHEMA,
    artifact_path,
    load_artifact,
    spec_key,
    write_artifact,
)
from repro.runner.errors import (
    NumericalHealthError,
    check_payload_health,
    ensure_finite_moments,
)
from repro.runner.sweep import (
    CellSpec,
    SubstrateSpec,
    config_with_lam,
    evaluate_cell,
    fig4_specs,
    run_cells,
    table1_specs,
    yield_specs,
)

FAST = SizerConfig(lam=3.0, max_iterations=3, max_outputs_per_pass=2, patience=2)


def _row_fields_except_runtime(result):
    fields = dict(result.result)
    fields.pop("runtime_seconds", None)
    return fields


class TestConfigWithLam:
    def test_none_gives_default_at_lam(self):
        config = config_with_lam(None, 9.0)
        assert config == SizerConfig(lam=9.0)

    def test_preserves_every_other_field(self):
        base = SizerConfig(
            lam=3.0,
            subcircuit_depth=1,
            max_iterations=7,
            sigma_target=5.0,
            pdf_samples=11,
            max_outputs_per_pass=2,
            patience=3,
        )
        replaced = config_with_lam(base, 9.0)
        assert replaced.lam == 9.0
        expected = dataclasses.asdict(base)
        expected["lam"] = 9.0
        assert dataclasses.asdict(replaced) == expected

    def test_same_lam_returns_config_unchanged(self):
        assert config_with_lam(FAST, FAST.lam) is FAST


class TestSpecsAndKeys:
    def test_table1_grid(self):
        specs = table1_specs(["c17", "alu1"], (3.0, 9.0), sizer_config=FAST)
        assert len(specs) == 4
        assert {(s.circuit, s.lam) for s in specs} == {
            ("c17", 3.0), ("c17", 9.0), ("alu1", 3.0), ("alu1", 9.0)
        }
        # Each cell's config carries the cell lambda but keeps FAST's budget.
        for spec in specs:
            assert spec.sizer_config.lam == spec.lam
            assert spec.sizer_config.max_iterations == FAST.max_iterations

    def test_key_is_deterministic_and_config_sensitive(self):
        spec = CellSpec(kind="table1", circuit="c17", lam=3.0, sizer_config=FAST)
        same = CellSpec(kind="table1", circuit="c17", lam=3.0, sizer_config=FAST)
        assert spec.key() == same.key()
        other_config = dataclasses.replace(FAST, max_iterations=5)
        changed = CellSpec(
            kind="table1", circuit="c17", lam=3.0, sizer_config=other_config
        )
        assert changed.key() != spec.key()

    def test_int_and_float_lambda_are_the_same_cell(self, tmp_path):
        as_int = CellSpec(kind="table1", circuit="c17", lam=3,
                          sizer_config=SizerConfig(lam=3))
        as_float = CellSpec(kind="table1", circuit="c17", lam=3.0,
                            sizer_config=SizerConfig(lam=3.0))
        assert as_int.key() == as_float.key()
        assert as_int.artifact_path(tmp_path) == as_float.artifact_path(tmp_path)

    def test_key_sensitive_to_seed(self):
        base = CellSpec(kind="table1", circuit="c17", lam=3.0)
        assert CellSpec(kind="table1", circuit="c17", lam=3.0, seed=1).key() != base.key()

    def test_key_sensitive_to_substrates_and_mc(self):
        base = CellSpec(kind="table1", circuit="c17", lam=3.0)
        assert (
            CellSpec(
                kind="table1", circuit="c17", lam=3.0,
                substrates=SubstrateSpec(proportional_alpha=0.3),
            ).key()
            != base.key()
        )
        assert (
            CellSpec(
                kind="table1", circuit="c17", lam=3.0, monte_carlo_samples=100
            ).key()
            != base.key()
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CellSpec(kind="table2", circuit="c17", lam=3.0)


class TestArtifacts:
    def test_roundtrip(self, tmp_path):
        path = artifact_path(tmp_path, "table1", "c17", 3.0)
        write_artifact(path, key="k", spec={"a": 1}, result={"b": 2.5},
                       runtime_seconds=1.25)
        payload = load_artifact(path)
        assert payload["schema"] == ARTIFACT_SCHEMA
        assert payload["key"] == "k"
        assert payload["result"] == {"b": 2.5}
        assert payload["runtime_seconds"] == 1.25

    def test_missing_and_corrupt_return_none(self, tmp_path):
        assert load_artifact(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_artifact(bad) is None

    def test_schema_mismatch_returns_none(self, tmp_path):
        path = artifact_path(tmp_path, "table1", "c17", 3.0)
        write_artifact(path, key="k", spec={}, result={}, runtime_seconds=0.0)
        payload = json.loads(path.read_text())
        payload["schema"] = ARTIFACT_SCHEMA + 1
        path.write_text(json.dumps(payload))
        assert load_artifact(path) is None

    def test_spec_key_order_independent(self):
        assert spec_key({"a": 1, "b": 2}) == spec_key({"b": 2, "a": 1})

    def test_close_lambdas_do_not_collide(self, tmp_path):
        # %g-style formatting would map 3.0 and 3.0000001 onto one file,
        # making the up-to-date resume state unreachable.
        a = artifact_path(tmp_path, "table1", "c17", 3.0)
        b = artifact_path(tmp_path, "table1", "c17", 3.0000001)
        assert a != b

    def test_cells_with_different_knobs_do_not_collide(self, tmp_path):
        # All three cells are (table1, c17, lam=3.0); only the spec-key
        # digest in the filename tells monte_carlo_samples/seed apart.
        (a,) = table1_specs(["c17"], (3.0,), sizer_config=FAST)
        (b,) = table1_specs(["c17"], (3.0,), sizer_config=FAST, seed=1)
        (c,) = table1_specs(["c17"], (3.0,), sizer_config=FAST,
                            monte_carlo_samples=50)
        paths = [spec.artifact_path(tmp_path) for spec in (a, b, c)]
        assert len(set(paths)) == 3
        stems = {path.stem.rsplit("__", 1)[0] for path in paths}
        assert stems == {"table1__c17__lam3.0"}

    def test_digest_is_stable_and_key_derived(self):
        (spec,) = table1_specs(["c17"], (3.0,), sizer_config=FAST)
        assert spec.digest() == spec.key()[:8]
        assert spec.artifact_path(".").stem.endswith(spec.digest())


class TestHealthGuards:
    def test_finite_moment_guard(self):
        ensure_finite_moments(100.0, 5.0, context="ok", area=10.0)
        with pytest.raises(NumericalHealthError, match="non-finite"):
            ensure_finite_moments(float("nan"), 5.0, context="bad")
        with pytest.raises(NumericalHealthError, match="negative sigma"):
            ensure_finite_moments(100.0, -1.0, context="bad")
        with pytest.raises(NumericalHealthError, match="area"):
            ensure_finite_moments(100.0, 5.0, context="bad", area=float("inf"))

    def test_payload_health_rejects_nan_and_negative_sigma(self):
        check_payload_health({"mean": 1.0, "nested": {"sigma": 0.5}}, "cell")
        with pytest.raises(NumericalHealthError, match="non-finite"):
            check_payload_health({"rows": [1.0, float("inf")]}, "cell")
        with pytest.raises(NumericalHealthError, match="negative sigma"):
            check_payload_health({"original_sigma": -2.0}, "cell")

    def test_payload_health_allows_negative_deltas(self):
        # The paper reports sigma *reductions* as negative percentages.
        check_payload_health({"sigma_reduction_pct": -35.2}, "cell")


class TestRunCells:
    def test_serial_matches_parallel(self, tmp_path):
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=2)
        assert serial.computed == 2 and parallel.computed == 2
        for a, b in zip(serial.results, parallel.results, strict=True):
            assert a.spec == b.spec
            # Rows are bitwise identical apart from measured wall-clock.
            assert _row_fields_except_runtime(a) == _row_fields_except_runtime(b)

    def test_results_follow_spec_order(self):
        specs = table1_specs(["c17"], (9.0, 3.0), sizer_config=FAST)
        report = run_cells(specs, jobs=2)
        assert [r.spec.lam for r in report.results] == [9.0, 3.0]

    def test_resume_skips_up_to_date_cells(self, tmp_path):
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        first = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert first.computed == 2 and first.skipped == 0
        mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.json")}
        second = run_cells(specs, jobs=2, out_dir=tmp_path, resume=True)
        assert second.computed == 0 and second.skipped == 2
        assert all(r.from_cache for r in second.results)
        # Artifacts were not rewritten.
        assert mtimes == {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.json")}
        # Cached rows equal the originally computed ones.
        for a, b in zip(first.results, second.results, strict=True):
            assert _row_fields_except_runtime(a) == _row_fields_except_runtime(b)

    def test_resume_recomputes_on_config_change(self, tmp_path):
        specs = table1_specs(["c17"], (3.0,), sizer_config=FAST)
        run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        changed = table1_specs(
            ["c17"], (3.0,),
            sizer_config=dataclasses.replace(FAST, max_iterations=2),
        )
        report = run_cells(changed, jobs=1, out_dir=tmp_path, resume=True)
        assert report.computed == 1 and report.skipped == 0

    def test_resume_without_out_dir_computes(self):
        specs = table1_specs(["c17"], (3.0,), sizer_config=FAST)
        report = run_cells(specs, jobs=1, out_dir=None, resume=True)
        assert report.computed == 1

    def test_progress_callback_sees_every_cell(self, tmp_path):
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        seen = []
        run_cells(specs, jobs=1, out_dir=tmp_path,
                  progress=lambda done, total, r: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_cells([], jobs=0)

    @pytest.mark.parametrize(
        "damage", ["truncated", "binary", "old-schema", "stale-key"]
    )
    def test_resume_recomputes_a_damaged_artifact(self, tmp_path, damage):
        # Resume trusts only an artifact that parses, carries the current
        # schema and matches the spec key; anything else is recomputed and
        # overwritten with a valid artifact.
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        first = run_cells(specs, jobs=1, out_dir=tmp_path)
        damaged = specs[1].artifact_path(tmp_path)
        text = damaged.read_text()
        if damage == "truncated":
            damaged.write_text(text[: len(text) // 2])
        elif damage == "binary":
            damaged.write_bytes(b"\xff\xfe not even UTF-8")
        else:
            payload = json.loads(text)
            if damage == "old-schema":
                payload["schema"] = ARTIFACT_SCHEMA - 1
            else:  # a well-formed artifact whose spec key is not this cell's
                payload["key"] = "0" * 64
            damaged.write_text(json.dumps(payload))
        report = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert report.skipped == 1 and report.computed == 1
        assert not report.results[1].from_cache
        assert load_artifact(damaged)["key"] == specs[1].key()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            name for spec in specs
            for name in (spec.artifact_path(tmp_path).name,
                         spec.artifact_path(tmp_path).stem + ".trace.json")
        ) + ["trace.json"]
        for a, b in zip(first.results, report.results, strict=True):
            assert _row_fields_except_runtime(a) == _row_fields_except_runtime(b)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_keeps_finished_artifacts_for_resume(self, tmp_path, jobs):
        # A KeyboardInterrupt raised from the progress callback lands in the
        # orchestration loop where a real Ctrl-C would, after the first
        # computed cell's artifact is on disk.
        specs = table1_specs(["c17"], (3.0, 6.0, 9.0), sizer_config=FAST)
        finished = []

        def interrupt(done, total, result):
            finished.append(result.spec)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_cells(specs, jobs=jobs, out_dir=tmp_path, progress=interrupt)
        (first,) = finished
        assert load_artifact(first.artifact_path(tmp_path))["key"] == first.key()

        resumed = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert resumed.skipped == 1 and resumed.computed == 2
        cached = [r.spec for r in resumed.results if r.from_cache]
        assert cached == [first]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the patched evaluator only when forked",
    )
    @pytest.mark.parametrize("death", ["exit", "sigint"])
    def test_dead_worker_fails_its_cell(self, tmp_path, monkeypatch, death):
        # A worker that exits, or takes a Ctrl-C, breaks the pool: its cell
        # fails with BrokenProcessPool.  The SIGINT must kill the worker
        # rather than unwind it into a KeyboardInterrupt result.
        evaluate = sweep_module._EVALUATORS["table1"]

        def die_at_lam9(spec):
            if spec.lam == 9.0:
                if death == "exit":
                    os._exit(13)
                os.kill(os.getpid(), signal.SIGINT)
            return evaluate(spec)

        monkeypatch.setitem(sweep_module._EVALUATORS, "table1", die_at_lam9)
        specs = table1_specs(["c17"], (3.0, 9.0), sizer_config=FAST)
        try:
            with pytest.raises(RuntimeError,
                               match=r"table1 c17 lam=9: BrokenProcessPool"):
                run_cells(specs, jobs=2, out_dir=tmp_path)
        except KeyboardInterrupt:
            pytest.fail("the worker's SIGINT reached the parent")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the slowed evaluator only when forked",
    )
    def test_sigint_to_the_parent_alone_stops_the_workers(self, tmp_path):
        # ``kill -INT`` on the sweep's process (not its group) while two
        # workers are inside long cells: the parent must stop them rather
        # than wait out their cells, keep the two finished artifacts, and
        # leave a resume only the rest to compute.
        out = tmp_path / "out"
        args = ["sweep", "c17", "--lam", "1", "2", "3", "4", "5", "--jobs", "2",
                "--max-iterations", "1", "--out", str(out), "--quiet"]
        script = (
            "import sys, time\n"
            "from repro import cli\n"
            "from repro.runner import sweep\n"
            "evaluate = sweep._EVALUATORS['table1']\n"
            "def slow(spec):\n"
            "    if spec.lam > 2:\n"
            "        time.sleep(60)\n"
            "    return evaluate(spec)\n"
            "sweep._EVALUATORS['table1'] = slow\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *args], env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while len(_cell_artifacts(out)) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(_cell_artifacts(out)) == 2
            time.sleep(0.5)  # both workers are now inside a slow cell
            os.kill(proc.pid, signal.SIGINT)
            start = time.monotonic()
            try:
                status = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pytest.fail("the interrupted sweep waited for its running cells")
            assert time.monotonic() - start < 2.0
            assert status == 130
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the sweep's own session only
            proc.wait()
        finished = _cell_artifacts(out)
        assert len(finished) == 2
        resumed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args[:-1], "--resume"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert "3 computed, 2 reused" in resumed.stdout
        assert all(load_artifact(path) for path in finished)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_preserves_siblings(self, tmp_path, jobs):
        # One bad cell must not discard the completed ones: their artifacts
        # persist, and a later resume only pays for the failure.
        specs = table1_specs(["c17", "no_such_circuit"], (3.0,),
                             sizer_config=FAST)
        with pytest.raises(RuntimeError, match="no_such_circuit") as exc_info:
            run_cells(specs, jobs=jobs, out_dir=tmp_path)
        # The cell's own error, traceback included, is the cause.
        assert isinstance(exc_info.value.__cause__, KeyError)
        assert exc_info.value.__cause__.__traceback__ is not None
        good = load_artifact(specs[0].artifact_path(tmp_path))
        assert good is not None
        report = run_cells(specs[:1], jobs=1, out_dir=tmp_path, resume=True)
        assert report.computed == 0 and report.skipped == 1


def _cell_artifacts(out):
    """The cell artifacts a sweep has written to ``out`` (not the traces)."""
    return sorted(p for p in out.glob("*.json") if not p.name.endswith("trace.json"))


class TestFig4Cells:
    def test_lam_zero_is_pure_baseline(self):
        (spec,) = fig4_specs("c17", (0.0,), sizer_config=FAST)
        result = evaluate_cell(spec).result
        assert result["mean"] == result["original_mean"]
        assert result["sigma"] == result["original_sigma"]

    def test_optimized_cell_reduces_sigma(self):
        (spec,) = fig4_specs("c17", (9.0,),
                             sizer_config=SizerConfig(lam=9.0, max_iterations=6,
                                                      patience=2))
        result = evaluate_cell(spec).result
        assert result["sigma"] <= result["original_sigma"] + 1e-9
        assert result["area"] > 0

    def test_baseline_memoized_across_lambdas(self):
        # A serial fig4 sweep derives the deterministic mean-delay baseline
        # once per (circuit, substrates), not once per lambda.
        sweep_module._FIG4_BASELINES.clear()
        results = [
            evaluate_cell(spec).result
            for spec in fig4_specs("c17", (0.0, 3.0), sizer_config=FAST)
        ]
        assert len(sweep_module._FIG4_BASELINES) == 1
        assert results[0]["original_mean"] == results[1]["original_mean"]
        assert results[0]["original_sigma"] == results[1]["original_sigma"]

    def test_table1_row_rejected_for_fig4(self):
        (spec,) = fig4_specs("c17", (0.0,), sizer_config=FAST)
        with pytest.raises(ValueError):
            evaluate_cell(spec).table1_row()


class TestYieldCells:
    def test_yield_grid_and_configs(self):
        specs = yield_specs(["c17", "alu1"], (0.9, 0.99), sizer_config=FAST)
        assert len(specs) == 4
        assert {(s.circuit, s.target_yield) for s in specs} == {
            ("c17", 0.9), ("c17", 0.99), ("alu1", 0.9), ("alu1", 0.99)
        }
        for spec in specs:
            assert spec.kind == "yield"
            assert spec.lam == 0.0
            assert spec.sizer_config.objective == "yield"
            assert spec.sizer_config.target_yield == spec.target_yield
            # Budget knobs of the caller's config are preserved.
            assert spec.sizer_config.max_iterations == FAST.max_iterations

    def test_yield_cell_requires_target(self):
        with pytest.raises(ValueError):
            CellSpec(kind="yield", circuit="c17", lam=0.0)

    def test_keys_distinguish_targets(self):
        a, b = yield_specs(["c17"], (0.9, 0.99), sizer_config=FAST)
        assert a.key() != b.key()

    def test_artifact_paths_distinguish_targets(self, tmp_path):
        a, b = yield_specs(["c17"], (0.9, 0.99), sizer_config=FAST)
        path_a = artifact_path(tmp_path, a.kind, a.circuit, a.lam, a.target_yield)
        path_b = artifact_path(tmp_path, b.kind, b.circuit, b.lam, b.target_yield)
        assert path_a != path_b
        assert "y0.9" in path_a.name and "y0.99" in path_b.name

    def test_evaluate_yield_cell(self):
        (spec,) = yield_specs(["c17"], (0.99,), sizer_config=FAST)
        result = evaluate_cell(spec).result
        assert result["target_yield"] == 0.99
        # The sized design needs a period no larger than the original's.
        assert result["final_period"] <= result["original_period"] + 1e-9
        # At the achieved period the sized design meets the target while the
        # original does not exceed it.
        assert result["final_yield_at_final_period"] >= 0.99 - 1e-9
        assert result["original_yield_at_final_period"] <= (
            result["final_yield_at_final_period"] + 1e-9
        )
        assert result["area"] >= result["original_area"] - 1e-9

    def test_yield_cells_resume(self, tmp_path):
        specs = yield_specs(["c17"], (0.9, 0.99), sizer_config=FAST)
        first = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert first.computed == 2 and first.skipped == 0
        second = run_cells(specs, jobs=1, out_dir=tmp_path, resume=True)
        assert second.computed == 0 and second.skipped == 2
        for a, b in zip(first.results, second.results, strict=True):
            assert _row_fields_except_runtime(a) == _row_fields_except_runtime(b)

    def test_table1_row_rejected_for_yield(self):
        (spec,) = yield_specs(["c17"], (0.99,), sizer_config=FAST)
        with pytest.raises(ValueError):
            evaluate_cell(spec).table1_row()
