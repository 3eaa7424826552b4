"""Pre-flight DRC hooks: defective netlists must fail in the parent process
before any compute is spent — no process pool, no sizer pass, no artifact.
"""

import pytest

from repro.flow import run_sizing_flow
from repro.netlist.circuit import Circuit
from repro.runner.errors import DeterministicError
from repro.runner.sweep import CellSpec, run_cells
from repro.verify import PreflightError, preflight_circuit


def _defective_circuit(name="c17"):
    """A cyclic two-gate circuit (DRC001) under any requested name."""
    circuit = Circuit(name, primary_inputs=["a"], primary_outputs=["y"])
    circuit.add("g1", "NAND2", ["a", "n2"], "n1")
    circuit.add("g2", "INV", ["n1"], "n2")
    circuit.add("g3", "INV", ["n1"], "y")
    return circuit


class TestPreflightCircuit:
    def test_clean_circuit_returns_report(self, c17_circuit, library):
        report = preflight_circuit(c17_circuit, library=library)
        assert report.ok

    def test_defective_circuit_raises_preflight_error(self):
        with pytest.raises(PreflightError) as exc_info:
            preflight_circuit(_defective_circuit())
        assert "DRC001" in {d.rule_id for d in exc_info.value.report.errors}

    def test_preflight_error_is_deterministic_category(self):
        try:
            preflight_circuit(_defective_circuit())
        except PreflightError as exc:
            assert isinstance(exc, DeterministicError)
        else:  # pragma: no cover - defect must raise
            pytest.fail("expected PreflightError")

    def test_warnings_reported_via_callback(self, library):
        circuit = Circuit("warn", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "y")
        circuit.add("dead", "INV", ["a"], "n_dead")  # DRC006 warning
        lines = []
        report = preflight_circuit(circuit, library=library, warn=lines.append)
        assert report.ok
        assert any("DRC006" in line for line in lines)


class TestFlowPreflight:
    def test_flow_rejects_defective_circuit_up_front(self):
        with pytest.raises(DeterministicError):
            run_sizing_flow(_defective_circuit())

    def test_flow_opt_out_reaches_the_engine_failure(self):
        # Without pre-flight the defect surfaces as a deep engine error
        # (levelization of a cyclic circuit) — exactly what the hook is
        # meant to pre-empt.
        with pytest.raises(Exception) as exc_info:
            run_sizing_flow(_defective_circuit(), preflight=False)
        assert not isinstance(exc_info.value, DeterministicError)


class TestSweepPreflight:
    def test_defective_cell_fails_before_any_worker(self, monkeypatch, tmp_path):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "build_benchmark",
                            lambda name: _defective_circuit(name))

        constructed = []

        class _SentinelPool:  # pragma: no cover - must never be instantiated
            def __init__(self, *args, **kwargs):
                constructed.append(self)
                raise AssertionError("pool constructed despite preflight")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", _SentinelPool)

        spec = CellSpec(kind="table1", circuit="c17", lam=3.0)
        with pytest.raises(DeterministicError) as exc_info:
            run_cells([spec], jobs=2, out_dir=tmp_path)
        assert constructed == []
        assert isinstance(exc_info.value, PreflightError)
        # No artifacts were produced for the doomed sweep.
        assert list(tmp_path.glob("table1__*.json")) == []

    def test_preflight_error_is_not_a_cell_failure(self, monkeypatch):
        # The serial path raises the PreflightError itself, before any
        # cell runs, not the sweep's aggregated cell-failure RuntimeError.
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "build_benchmark",
                            lambda name: _defective_circuit(name))
        evaluated = []
        monkeypatch.setattr(sweep_mod, "evaluate_cell", evaluated.append)
        spec = CellSpec(kind="table1", circuit="c17", lam=3.0)
        with pytest.raises(PreflightError):
            run_cells([spec], jobs=1)
        assert evaluated == []

    def test_opt_out_falls_through_to_cell_failure(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "build_benchmark",
                            lambda name: _defective_circuit(name))
        spec = CellSpec(kind="table1", circuit="c17", lam=3.0)
        with pytest.raises(RuntimeError, match="1 of 1 sweep cell") as exc_info:
            run_cells([spec], jobs=1, preflight=False)
        assert not isinstance(exc_info.value, DeterministicError)
        assert "table1 c17 lam=3" in str(exc_info.value)

    def test_unresolvable_circuit_name_is_not_a_preflight_error(self, monkeypatch):
        # Pre-flight only lints circuits it can build; a bad name fails as
        # its own cell, so sibling cells still run and the sweep's error
        # names it.
        spec = CellSpec(kind="table1", circuit="no_such_circuit", lam=3.0)
        with pytest.raises(RuntimeError, match="1 of 1 sweep cell") as exc_info:
            run_cells([spec], jobs=1)
        assert not isinstance(exc_info.value, DeterministicError)
        assert "no_such_circuit" in str(exc_info.value)

    def test_clean_sweep_unaffected_by_preflight(self, tmp_path):
        from repro.core.sizer import SizerConfig

        fast = SizerConfig(lam=3.0, max_iterations=2, max_outputs_per_pass=1,
                           patience=1)
        spec = CellSpec(kind="table1", circuit="c17", lam=3.0,
                        sizer_config=fast)
        report = run_cells([spec], jobs=1, out_dir=tmp_path)
        assert len(report.results) == 1
