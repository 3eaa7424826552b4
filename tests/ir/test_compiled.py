"""Lowering invariants of the compiled array-native IR.

Every structural claim :class:`~repro.ir.compiled.CompiledCircuit` makes —
bijective ids, CSR adjacency mirroring the netlist, level-major gate order,
the PI / gate-output / floating net-slot layout — is checked here against
the source :class:`~repro.netlist.circuit.Circuit`, on every registry
benchmark and on Hypothesis-generated circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import ripple_carry_adder
from repro.circuits.alu import alu
from repro.circuits.multiplier import array_multiplier
from repro.circuits.registry import BENCHMARK_NAMES, build_benchmark, c17
from repro.ir import CompiledCircuit, lower_circuit
from repro.netlist.circuit import Circuit

ALL_NAMES = ["c17", *BENCHMARK_NAMES]


def build(name):
    return c17() if name == "c17" else build_benchmark(name)


def assert_lowering_invariants(circuit, plan):
    """The full IR <-> netlist round-trip contract."""
    # --- id <-> name bijections -------------------------------------
    assert plan.num_gates == len(circuit.gates)
    assert len(plan.gate_names) == plan.num_gates
    assert len(set(plan.gate_names)) == plan.num_gates
    for gid, name in enumerate(plan.gate_names):
        assert plan.gate_index[name] == gid
    assert set(plan.gate_names) == set(circuit.gates)

    assert len(plan.net_names) == plan.num_nets
    assert len(set(plan.net_names)) == plan.num_nets
    for slot, net in enumerate(plan.net_names):
        assert plan.net_index[net] == slot

    # --- net-slot layout: PIs, then gate outputs, then floating ------
    assert plan.num_pis == len(circuit.primary_inputs)
    assert plan.net_names[: plan.num_pis] == list(circuit.primary_inputs)
    for gid, name in enumerate(plan.gate_names):
        slot = plan.gate_output_slot[gid]
        assert slot == plan.num_pis + gid
        assert plan.net_names[slot] == circuit.gate(name).output
    floating_start = plan.num_pis + plan.num_gates
    assert plan.floating == frozenset(plan.net_names[floating_start:])
    np.testing.assert_array_equal(
        plan.floating_mask, np.arange(plan.num_nets) >= floating_start
    )
    # Floating nets really are undriven non-PI nets read by some gate.
    driven = {circuit.gate(n).output for n in plan.gate_names}
    read = {net for g in circuit for net in g.inputs}
    assert plan.floating == (read - driven - set(circuit.primary_inputs))

    # --- fanin CSR matches Gate.inputs in pin order ------------------
    for gid, name in enumerate(plan.gate_names):
        gate = circuit.gate(name)
        slots = plan.gate_fanin_slots(gid)
        assert [plan.net_names[s] for s in slots] == list(gate.inputs)
        assert plan.fanin_counts[gid] == len(gate.inputs)

    # --- dense padded fanin matrix mirrors the CSR -------------------
    if plan.num_gates:
        assert plan.fanin_matrix.shape == (
            plan.num_gates,
            int(plan.fanin_counts.max()),
        )
    for gid in range(plan.num_gates):
        n = plan.fanin_counts[gid]
        row = plan.fanin_matrix[gid]
        np.testing.assert_array_equal(row[:n], plan.gate_fanin_slots(gid))
        assert (row[n:] == plan.num_nets).all()  # sentinel padding

    # --- fanout CSR matches loads_of ---------------------------------
    for slot, net in enumerate(plan.net_names):
        readers = [plan.gate_names[g] for g in plan.net_fanout_gates(slot)]
        assert readers == [g.name for g in circuit.loads_of(net)]

    # --- level-major gate order --------------------------------------
    levels_map = circuit.levels()
    assert plan.level_values == sorted(set(levels_map.values()))
    assert plan.num_levels == len(plan.level_values)
    assert plan.level_offsets[0] == 0
    assert plan.level_offsets[-1] == plan.num_gates
    for li, level in enumerate(plan.level_values):
        start, stop = plan.level_offsets[li], plan.level_offsets[li + 1]
        assert start < stop
        for gid in range(start, stop):
            assert levels_map[plan.gate_names[gid]] == level
            assert plan.gate_level[gid] == level
    # Within a level, gates keep their relative topological order.
    topo_pos = {n: i for i, n in enumerate(circuit.topological_order())}
    for li in range(plan.num_levels):
        start, stop = plan.level_offsets[li], plan.level_offsets[li + 1]
        positions = [topo_pos[n] for n in plan.gate_names[start:stop]]
        assert positions == sorted(positions)
    # Ascending gate id is a valid topological order overall.
    for gid, _name in enumerate(plan.gate_names):
        for slot in plan.gate_fanin_slots(gid):
            if plan.num_pis <= slot < floating_start:
                assert slot - plan.num_pis < gid  # driver id < reader id

    # --- per-gate arrays ---------------------------------------------
    for gid, name in enumerate(plan.gate_names):
        gate = circuit.gate(name)
        assert plan.cell_types[plan.cell_type_ids[gid]] == gate.cell_type
        assert plan.size_index[gid] == gate.size_index

    assert plan.structure_version == circuit.structure_version


class TestLoweringRegistry:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_lowering_invariants(self, name):
        circuit = build(name)
        assert_lowering_invariants(circuit, circuit.compiled())


class TestLoweringProperties:
    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_adder_round_trip(self, width):
        circuit = ripple_carry_adder(width)
        assert_lowering_invariants(circuit, lower_circuit(circuit))

    @given(st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_multiplier_round_trip(self, width):
        circuit = array_multiplier(width)
        assert_lowering_invariants(circuit, lower_circuit(circuit))

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_alu_round_trip(self, width):
        circuit = alu(width)
        assert_lowering_invariants(circuit, lower_circuit(circuit))


class TestFloatingNets:
    def test_floating_inputs_take_the_slot_tail(self):
        circuit = Circuit("f", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "NAND2", ["a", "ghost1"], "n1")
        circuit.add("g2", "NAND2", ["n1", "ghost2"], "y")
        plan = circuit.compiled()
        assert plan.floating == {"ghost1", "ghost2"}
        assert plan.net_names[-2:] == ["ghost1", "ghost2"]
        assert_lowering_invariants(circuit, plan)


class TestCacheSemantics:
    def test_same_structure_reuses_instance(self, c17_circuit):
        plan = c17_circuit.compiled()
        assert c17_circuit.compiled() is plan

    def test_size_only_change_refreshes_in_place(self, c17_circuit):
        plan = c17_circuit.compiled()
        name = plan.gate_names[0]
        c17_circuit.set_size(name, 3)
        plan2 = c17_circuit.compiled()
        assert plan2 is plan  # no relower
        assert plan.size_index[plan.gate_index[name]] == 3

    def test_structural_edit_relowers(self, c17_circuit):
        plan = c17_circuit.compiled()
        c17_circuit.add("g_extra", "INV", ["N22"], "N90")
        c17_circuit.add_primary_output("N90")
        plan2 = c17_circuit.compiled()
        assert plan2 is not plan
        assert "g_extra" in plan2.gate_index
        assert_lowering_invariants(c17_circuit, plan2)

    def test_apply_sizes_bulk_refresh(self, c17_circuit):
        plan = c17_circuit.compiled()
        sizes = {name: 2 for name in c17_circuit.gates}
        c17_circuit.apply_sizes(sizes)
        plan2 = c17_circuit.compiled()
        assert plan2 is plan
        np.testing.assert_array_equal(
            plan.size_index, np.full(plan.num_gates, 2)
        )


class TestFanoutCone:
    @pytest.mark.parametrize("name", ["c17", "c432", "c880"])
    def test_cone_matches_transitive_fanout(self, name):
        circuit = build(name)
        plan = circuit.compiled()
        for seed in list(circuit.gates)[:: max(1, len(circuit) // 10)]:
            cone = plan.fanout_cone([plan.gate_index[seed]])
            got = {plan.gate_names[g] for g in cone}
            want = circuit.transitive_fanout(seed) | {seed}
            assert got == want
            # Ascending ids: a valid topological order of the cone.
            assert list(cone) == sorted(cone)

    def test_multi_seed_union(self):
        circuit = build("c432")
        plan = circuit.compiled()
        seeds = list(circuit.gates)[:3]
        cone = plan.fanout_cone(plan.gate_index[s] for s in seeds)
        got = {plan.gate_names[g] for g in cone}
        want = set(seeds)
        for s in seeds:
            want |= circuit.transitive_fanout(s)
        assert got == want


def test_lower_circuit_smoke_repr():
    plan = lower_circuit(c17())
    assert isinstance(plan, CompiledCircuit)
    assert "c17" in repr(plan)
