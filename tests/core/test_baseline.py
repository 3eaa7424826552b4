"""Unit tests for the deterministic mean-delay baseline sizer."""

import pytest

from repro.circuits.adders import ripple_carry_adder
from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.netlist.validate import validate_circuit
from repro.sta.dsta import DeterministicSTA
from repro.verify import ir_problems


@pytest.fixture
def baseline(delay_model):
    return MeanDelaySizer(delay_model)


class TestOptimize:
    def test_delay_never_increases(self, baseline, small_adder):
        result = baseline.optimize(small_adder)
        assert result.final_delay <= result.initial_delay + 1e-6
        assert result.delay_reduction_pct >= 0.0

    def test_reported_delay_matches_circuit(self, baseline, delay_model, small_adder):
        result = baseline.optimize(small_adder)
        actual = DeterministicSTA(delay_model).max_delay(small_adder)
        assert result.final_delay == pytest.approx(actual, rel=1e-9)

    def test_substantial_improvement_on_loaded_circuit(self, baseline, delay_model):
        # An 8-bit ripple adder at minimum sizes has heavily loaded carry
        # gates; mean-delay sizing should recover a significant fraction.
        circuit = ripple_carry_adder(8)
        result = baseline.optimize(circuit)
        assert result.delay_reduction_pct > 10.0

    def test_area_accounting(self, baseline, delay_model, small_adder):
        result = baseline.optimize(small_adder)
        assert result.final_area == pytest.approx(delay_model.circuit_area(small_adder))
        assert result.initial_area > 0

    def test_circuit_stays_valid(self, baseline, library, small_adder):
        baseline.optimize(small_adder)
        assert validate_circuit(small_adder, library) == []

    def test_runtime_and_passes_recorded(self, baseline, small_adder):
        result = baseline.optimize(small_adder)
        assert result.passes >= 1
        assert result.runtime_seconds > 0.0

    def test_not_every_gate_is_maxed_out(self, baseline, library):
        # A mean-delay optimizer with realistic load costs must not simply
        # saturate every gate at maximum size (the paper's "high usage of
        # smaller devices" observation about mean-optimized designs).
        circuit = build_benchmark("c432")
        baseline.optimize(circuit)
        max_indices = sum(
            1
            for g in circuit.gates.values()
            if g.size_index == library.max_size_index(g.cell_type)
        )
        assert max_indices < circuit.num_gates() * 0.5


class TestAreaRecovery:
    @staticmethod
    def assert_recovers_area(delay_model, circuit):
        """Area recovery on a deliberately upsized circuit: the area falls
        and the worst delay stays within the recovery tolerance."""
        sizer = MeanDelaySizer(delay_model)
        area = delay_model.circuit_area(circuit)
        delay = sizer.dsta.max_delay(circuit)
        final_delay = sizer._recover_area(circuit, delay)
        assert delay_model.circuit_area(circuit) < area
        assert final_delay == sizer.dsta.max_delay(circuit)
        assert final_delay <= delay * (1.0 + MeanDelaySizer.AREA_RECOVERY_TOLERANCE)

    def test_area_recovery_reduces_area_without_hurting_delay(self, delay_model):
        circuit = ripple_carry_adder(6)
        for gate_name in circuit.gates:
            circuit.set_size(gate_name, 3)
        self.assert_recovers_area(delay_model, circuit)

    def test_area_recovery_from_maximum_sizes(self, delay_model, library, small_adder):
        for gate_name, gate in small_adder.gates.items():
            small_adder.set_size(gate_name, library.max_size_index(gate.cell_type))
        self.assert_recovers_area(delay_model, small_adder)

    @pytest.mark.parametrize("name", ["c432", "c1355"])
    def test_recovery_downsizes_reach_the_ir(self, delay_model, name):
        # Incremental re-analysis and the packed delay stage only see
        # resizes Circuit.set_size writes into the compiled IR.
        circuit = build_benchmark(name)
        for gate_name in circuit.gates:
            circuit.set_size(gate_name, 3)
        circuit.compiled()
        before = circuit.sizes()
        sizer = MeanDelaySizer(delay_model)
        sizer._recover_area(circuit, sizer.dsta.max_delay(circuit))
        changed = {g for g, size in circuit.sizes().items() if size != before[g]}
        assert changed
        assert ir_problems(circuit.compiled(), circuit) == []
