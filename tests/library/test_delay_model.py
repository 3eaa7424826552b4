"""Unit tests for the delay models (load computation, gate delay, area)."""

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark, c17
from repro.library.delay_model import (
    LinearRCDelayModel,
    LookupTableDelayModel,
    make_delay_model,
)


class TestLoadComputation:
    def test_load_counts_fanout_caps(self, delay_model, chain_circuit):
        # n1 drives only i2.
        i2 = chain_circuit.gate("i2")
        expected = delay_model.library.input_cap(i2.cell_type, i2.size_index)
        assert delay_model.load_on_net(chain_circuit, "n1") == pytest.approx(expected)

    def test_load_sums_multiple_fanouts(self, delay_model, chain_circuit):
        # n2 drives i3 and i4.
        caps = [
            delay_model.library.input_cap("INV", chain_circuit.gate(n).size_index)
            for n in ("i3", "i4")
        ]
        assert delay_model.load_on_net(chain_circuit, "n2") == pytest.approx(sum(caps))

    def test_primary_output_gets_default_load(self, delay_model, chain_circuit):
        assert delay_model.load_on_net(chain_circuit, "out1") == pytest.approx(
            delay_model.library.default_output_load
        )

    def test_load_increases_when_fanout_upsized(self, delay_model, chain_circuit):
        before = delay_model.load_on_net(chain_circuit, "n2")
        chain_circuit.set_size("i3", 5)
        after = delay_model.load_on_net(chain_circuit, "n2")
        assert after > before


class TestGateDelay:
    def test_upsizing_reduces_delay_under_load(self, delay_model, chain_circuit):
        gate = chain_circuit.gate("i2")
        d_small = delay_model.gate_delay_at_size(chain_circuit, gate, 0)
        d_large = delay_model.gate_delay_at_size(chain_circuit, gate, 6)
        assert d_large < d_small

    def test_gate_delay_matches_at_size(self, delay_model, chain_circuit):
        gate = chain_circuit.gate("i1")
        assert delay_model.gate_delay(chain_circuit, gate) == pytest.approx(
            delay_model.gate_delay_at_size(chain_circuit, gate, gate.size_index)
        )

    def test_linear_and_lut_models_agree_on_synthetic_library(
        self, delay_model, linear_delay_model, chain_circuit
    ):
        # The synthetic library's tables are sampled from the RC expression,
        # so both models should agree to interpolation accuracy.
        for gate in chain_circuit.gates.values():
            lut = delay_model.gate_delay(chain_circuit, gate)
            lin = linear_delay_model.gate_delay(chain_circuit, gate)
            assert lut == pytest.approx(lin, rel=1e-6)


class TestArea:
    def test_circuit_area_sums_gate_areas(self, delay_model, chain_circuit):
        total = sum(
            delay_model.library.area(g.cell_type, g.size_index)
            for g in chain_circuit.gates.values()
        )
        assert delay_model.circuit_area(chain_circuit) == pytest.approx(total)

    def test_area_increases_with_upsizing(self, delay_model, chain_circuit):
        before = delay_model.circuit_area(chain_circuit)
        chain_circuit.set_size("i1", 6)
        assert delay_model.circuit_area(chain_circuit) > before

    @pytest.mark.parametrize("name", ["c17", "alu2", "c432", "c1908", "c7552"])
    def test_packed_area_is_bitwise_the_per_gate_sum(self, library, name):
        """The packed per-(cell, size) areas, summed in ``circuit.gates``
        order, equal the per-gate sum bit for bit after random resizes."""
        circuit = c17() if name == "c17" else build_benchmark(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        names = list(circuit.gates)
        for model in (LookupTableDelayModel(library), LinearRCDelayModel(library)):
            for _ in range(3):
                for gate in rng.choice(names, size=min(40, len(names)), replace=False):
                    cell = circuit.gate(str(gate)).cell_type
                    circuit.set_size(str(gate), int(rng.integers(library.num_sizes(cell))))
                per_gate = sum(
                    library.area(g.cell_type, g.size_index) for g in circuit.gates.values()
                )
                assert model.circuit_area(circuit) == per_gate


class TestFactory:
    def test_make_delay_model(self, library):
        assert isinstance(make_delay_model(library, "lut"), LookupTableDelayModel)
        assert isinstance(make_delay_model(library, "linear"), LinearRCDelayModel)
        with pytest.raises(ValueError):
            make_delay_model(library, "quantum")
