"""Unit tests for subcircuit extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.registry import build_benchmark
from repro.core.subcircuit import SubcircuitCache, extract_subcircuit, extraction_statistics


def _scan_extract(circuit, seed, depth):
    """Extraction by a scan of the whole topological order, the reference
    the id-sorted members are pinned to: (gate_names, input_nets, output_nets)."""
    members = {seed} | circuit.transitive_fanin(seed, depth)
    members |= circuit.transitive_fanout(seed, depth)
    order = [name for name in circuit.topological_order() if name in members]
    driven = {circuit.gate(name).output for name in order}
    inputs = [net for name in order for net in circuit.gate(name).inputs if net not in driven]
    outputs = [
        circuit.gate(name).output
        for name in order
        if circuit.is_primary_output(circuit.gate(name).output)
        or not circuit.loads_of(circuit.gate(name).output)
        or any(load.name not in members for load in circuit.loads_of(circuit.gate(name).output))
    ]
    return order, list(dict.fromkeys(inputs)), outputs


def fringe_gates(circuit, gate_names):
    """Non-member gates loading a member output, by name, in first-seen order."""
    members = set(gate_names)
    loads = [load.name for name in gate_names for load in circuit.loads_of(circuit.gate(name).output)]
    return [name for name in dict.fromkeys(loads) if name not in members]


def local_program(circuit, seed, gate_names, input_nets, output_nets):
    """The name-based lowering the extraction's ``program`` is pinned to.

    One int32 row per member: gate id, level inside the region, 1 when its
    delay depends on the seed's size, its output's rank in ``output_nets``
    (-1 if none), then its local input slots padded with -1; local slots are
    the inputs, then the member outputs.
    """
    plan = circuit.compiled()
    num_inputs = len(input_nets)
    slot = {net: i for i, net in enumerate(input_nets)}
    for position, name in enumerate(gate_names, num_inputs):
        slot[circuit.gate(name).output] = position
    outputs = {net: rank for rank, net in enumerate(output_nets)}
    seed_inputs = set(circuit.gate(seed).inputs)
    program = np.full((len(gate_names), 4 + plan.fanin_matrix.shape[1]), -1, dtype=np.int32)
    for row, name in zip(program, gate_names, strict=True):
        gate = circuit.gate(name)
        pins = [slot[net] for net in gate.inputs]
        drivers = [program[pin - num_inputs, 1] for pin in pins if pin >= num_inputs]
        row[:4] = (
            plan.gate_index[name],
            1 + max(drivers, default=-1),
            name == seed or gate.output in seed_inputs,
            outputs.get(gate.output, -1),
        )
        row[4 : 4 + len(pins)] = pins
    return program


def dependencies(circuit, gate_names, input_nets):
    """Member and fringe gate ids, then ``num_gates`` plus each input slot."""
    plan = circuit.compiled()
    gates = [plan.gate_index[name] for name in gate_names + fringe_gates(circuit, gate_names)]
    slots = [plan.num_gates + plan.net_index[net] for net in input_nets]
    return np.array(gates + slots, dtype=np.intp)


def _assert_extractions_match_scan(circuit, depths=range(4)):
    cache = SubcircuitCache()
    plan = circuit.compiled()
    for depth in depths:
        for seed in circuit.gates:
            sub = cache.get(circuit, seed, depth)
            names, inputs, outputs = _scan_extract(circuit, seed, depth)
            assert (sub.gate_names, sub.input_nets, sub.output_nets) == (names, inputs, outputs), (
                seed, depth)
            program = local_program(circuit, seed, names, inputs, outputs)
            assert sub.program.dtype == np.int32 and sub.program.shape == program.shape
            assert sub.program.tobytes() == program.tobytes(), (seed, depth)
            assert sub.dependencies.tobytes() == dependencies(circuit, names, inputs).tobytes()
            fringe = [plan.gate_names[gid] for gid in sub.fringe_ids.tolist()]
            assert fringe == fringe_gates(circuit, names), (seed, depth)


class TestExtraction:
    def test_seed_always_included(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=2)
        assert "g16" in sub.gate_names
        assert sub.seed == "g16"

    def test_depth_zero_is_seed_only(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=0)
        assert sub.gate_names == ["g16"]
        assert set(sub.input_nets) == {"N2", "N11"}
        assert sub.output_nets == ["N16"]

    def test_depth_one_covers_direct_neighbours(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=1)
        assert set(sub.gate_names) == {"g11", "g16", "g22", "g23"}

    def test_depth_two_covers_paper_default(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=2)
        # Two levels of transitive fanin/fanout of g16: its fanin g11 and its
        # fanouts g22/g23.  Siblings (g10, g19) are not in either cone.
        assert set(sub.gate_names) == {"g11", "g16", "g22", "g23"}
        assert "g10" not in sub.gate_names
        assert set(sub.input_nets) >= {"N2", "N10", "N19"}

    def test_gates_in_topological_order(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=2)
        topo = c17_circuit.topological_order()
        positions = [topo.index(name) for name in sub.gate_names]
        assert positions == sorted(positions)

    def test_input_nets_are_external(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=1)
        internal_outputs = {c17_circuit.gate(n).output for n in sub.gate_names}
        for net in sub.input_nets:
            assert net not in internal_outputs

    def test_output_nets_are_observed_outside(self, c17_circuit):
        sub = extract_subcircuit(c17_circuit, "g16", depth=1)
        member = set(sub.gate_names)
        for net in sub.output_nets:
            external_load = any(
                load.name not in member for load in c17_circuit.loads_of(net)
            )
            assert c17_circuit.is_primary_output(net) or external_load

    def test_unknown_seed_raises(self, c17_circuit):
        from repro.netlist.circuit import CircuitError

        with pytest.raises(CircuitError):
            extract_subcircuit(c17_circuit, "nope")

    def test_negative_depth_rejected(self, c17_circuit):
        with pytest.raises(ValueError):
            extract_subcircuit(c17_circuit, "g16", depth=-1)

    def test_subcircuit_much_smaller_than_circuit(self):
        circuit = build_benchmark("c432")
        sub = extract_subcircuit(circuit, circuit.topological_order()[len(circuit) // 2], depth=2)
        assert sub.num_gates < circuit.num_gates() / 2

    def test_repr_contains_seed(self, c17_circuit):
        assert "g16" in repr(extract_subcircuit(c17_circuit, "g16"))


class TestIdOrderedExtraction:
    """Members sorted by IR gate id, against a scan of the whole topological
    order, and every lowered array against the name-based lowering."""

    @pytest.mark.parametrize(
        "name", ["c17", "c432", "c880", "c1355", "c7552", "gen:depth=10,width=50,seed=17"]
    )
    def test_every_gate_at_depths_0_to_3(self, name):
        _assert_extractions_match_scan(build_benchmark(name))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_circuits(self, depth, width, seed):
        spec = f"gen:depth={depth},width={width},seed={seed}"
        _assert_extractions_match_scan(build_benchmark(spec))


class TestExtractionStatistics:
    def test_statistics_fields(self, c17_circuit):
        stats = extraction_statistics(c17_circuit, depth=1)
        assert stats["min_gates"] >= 1
        assert stats["avg_gates"] <= stats["max_gates"]
        assert stats["max_gates"] <= c17_circuit.num_gates()

    def test_bigger_depth_bigger_subcircuits(self, c17_circuit):
        shallow = extraction_statistics(c17_circuit, depth=1)
        deep = extraction_statistics(c17_circuit, depth=3)
        assert deep["avg_gates"] >= shallow["avg_gates"]
