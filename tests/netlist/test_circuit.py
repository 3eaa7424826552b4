"""Unit tests for the Circuit DAG."""

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark, c17
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.subcircuit import SubcircuitCache
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gate import Gate
from repro.sta.dsta import DeterministicSTA
from repro.verify import ir_problems


@pytest.fixture
def simple():
    """a, b -> g1(NAND) -> n1 -> g2(INV) -> out ; n1 also feeds g3(INV) -> out2."""
    circuit = Circuit("simple", primary_inputs=["a", "b"], primary_outputs=["out", "out2"])
    circuit.add("g1", "NAND2", ["a", "b"], "n1")
    circuit.add("g2", "INV", ["n1"], "out")
    circuit.add("g3", "INV", ["n1"], "out2")
    return circuit


class TestConstruction:
    def test_add_and_query_gates(self, simple):
        assert simple.num_gates() == 3
        assert simple.gate("g1").cell_type == "NAND2"
        assert simple.has_gate("g2")
        assert not simple.has_gate("nope")

    def test_duplicate_gate_name_rejected(self, simple):
        with pytest.raises(CircuitError):
            simple.add("g1", "INV", ["a"], "x")

    def test_multiple_drivers_rejected(self, simple):
        with pytest.raises(CircuitError):
            simple.add("g4", "INV", ["a"], "n1")

    def test_driving_primary_input_rejected(self, simple):
        with pytest.raises(CircuitError):
            simple.add("g4", "INV", ["n1"], "a")

    def test_duplicate_primary_input_rejected(self):
        with pytest.raises(CircuitError):
            Circuit("c", primary_inputs=["a", "a"])

    def test_unknown_gate_raises(self, simple):
        with pytest.raises(CircuitError):
            simple.gate("missing")

    def test_add_primary_io_after_construction(self):
        circuit = Circuit("c")
        circuit.add_primary_input("a")
        circuit.add("g", "INV", ["a"], "y")
        circuit.add_primary_output("y")
        assert circuit.primary_inputs == ["a"]
        assert circuit.primary_outputs == ["y"]

    def test_remove_gate(self, simple):
        removed = simple.remove_gate("g3")
        assert removed.name == "g3"
        assert not simple.has_gate("g3")
        assert simple.loads_of("n1") == [simple.gate("g2")]

    def test_remove_unknown_gate(self, simple):
        with pytest.raises(CircuitError):
            simple.remove_gate("nope")


class TestConnectivity:
    def test_driver_of(self, simple):
        assert simple.driver_of("n1").name == "g1"
        assert simple.driver_of("a") is None

    def test_loads_of(self, simple):
        loads = {g.name for g in simple.loads_of("n1")}
        assert loads == {"g2", "g3"}
        assert simple.loads_of("out") == []

    def test_fanin_fanout_gates(self, simple):
        assert [g.name for g in simple.fanout_gates("g1")] == ["g2", "g3"]
        assert [g.name for g in simple.fanin_gates("g2")] == ["g1"]
        assert simple.fanin_gates("g1") == []

    def test_nets(self, simple):
        assert set(simple.nets()) == {"a", "b", "n1", "out", "out2"}

    def test_is_primary_io(self, simple):
        assert simple.is_primary_input("a")
        assert not simple.is_primary_input("n1")
        assert simple.is_primary_output("out")
        assert not simple.is_primary_output("n1")


class TestOrdering:
    def test_topological_order(self, simple):
        order = simple.topological_order()
        assert order.index("g1") < order.index("g2")
        assert order.index("g1") < order.index("g3")
        assert len(order) == 3

    def test_cycle_detection(self):
        circuit = Circuit("cyclic", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "NAND2", ["a", "n2"], "n1")
        circuit.add("g2", "INV", ["n1"], "n2")
        circuit.add("g3", "INV", ["n1"], "y")
        with pytest.raises(CircuitError):
            circuit.topological_order()

    def test_levels(self, simple):
        levels = simple.levels()
        assert levels["g1"] == 1
        assert levels["g2"] == 2
        assert levels["g3"] == 2

    def test_logic_depth(self, simple, c17_circuit):
        assert simple.logic_depth() == 2
        assert c17_circuit.logic_depth() == 3

    def test_iteration_is_topological(self, c17_circuit):
        names = [g.name for g in c17_circuit]
        assert names == c17_circuit.topological_order()

    def test_cache_invalidation_on_add(self, simple):
        simple.topological_order()
        simple.add("g4", "INV", ["out"], "out3")
        assert "g4" in simple.topological_order()


class TestCones:
    def test_transitive_fanin_unbounded(self, c17_circuit):
        cone = c17_circuit.transitive_fanin("g22")
        assert cone == {"g10", "g16", "g11"}

    def test_transitive_fanin_depth_limited(self, c17_circuit):
        assert c17_circuit.transitive_fanin("g22", depth=1) == {"g10", "g16"}

    def test_transitive_fanout(self, c17_circuit):
        assert c17_circuit.transitive_fanout("g11") == {"g16", "g19", "g22", "g23"}
        assert c17_circuit.transitive_fanout("g11", depth=1) == {"g16", "g19"}

    def test_output_cone(self, c17_circuit):
        cone = c17_circuit.output_cone("N22")
        assert cone == {"g22", "g10", "g16", "g11"}
        assert c17_circuit.output_cone("N1") == set()

    def test_unknown_seed_raises(self, c17_circuit):
        with pytest.raises(CircuitError):
            c17_circuit.transitive_fanin("nope")


class TestSizesAndCopy:
    def test_set_size_and_snapshot(self, simple):
        simple.set_size("g1", 3)
        sizes = simple.sizes()
        assert sizes["g1"] == 3
        simple.set_size("g1", 0)
        simple.apply_sizes(sizes)
        assert simple.gate("g1").size_index == 3

    def test_replace_gate_same_output(self, simple):
        replacement = Gate("g2", "INV", ["n1"], "out", size_index=5)
        simple.replace_gate(replacement)
        assert simple.gate("g2").size_index == 5

    def test_replace_gate_different_output_rejected(self, simple):
        with pytest.raises(CircuitError):
            simple.replace_gate(Gate("g2", "INV", ["n1"], "elsewhere"))

    def test_replace_gate_new_inputs_updates_loads(self, simple):
        simple.replace_gate(Gate("g3", "INV", ["out"], "out2"))
        assert {g.name for g in simple.loads_of("n1")} == {"g2"}
        assert {g.name for g in simple.loads_of("out")} == {"g3"}

    def test_copy_is_deep(self, simple):
        dup = simple.copy()
        dup.set_size("g1", 4)
        assert simple.gate("g1").size_index == 0
        assert dup.num_gates() == simple.num_gates()

    def test_stats(self, simple):
        stats = simple.stats()
        assert stats.num_gates == 3
        assert stats.num_primary_inputs == 2
        assert stats.num_primary_outputs == 2
        assert stats.logic_depth == 2
        assert stats.max_fanout == 2
        assert stats.avg_fanin == pytest.approx(4.0 / 3.0)

    def test_len_and_repr(self, simple):
        assert len(simple) == 3
        assert "simple" in repr(simple)


class TestMutationsReachTheCaches:
    """Mutations the compiled IR, incremental FULLSSTA and the subcircuit
    cache must see: the packed delay stage reads the IR's cell types, sizes
    and primary-output slots."""

    @staticmethod
    def _latest_internal_net(circuit, delay_model):
        arrival, _ = DeterministicSTA(delay_model).arrival_times(circuit)
        internal = [
            gate.output for gate in circuit.gates.values()
            if not circuit.is_primary_output(gate.output) and circuit.loads_of(gate.output)
        ]
        return max(internal, key=arrival.__getitem__)

    def test_promoted_output_reaches_incremental_fullssta(
        self, delay_model, variation_model
    ):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()
        net = self._latest_internal_net(circuit, delay_model)
        version = circuit.structure_version
        circuit.add_primary_output(net)
        assert circuit.structure_version > version
        incremental = reanalysis.analyze().output_rv
        fresh = engine.analyze(circuit).output_rv
        assert (incremental.mean, incremental.sigma) == (fresh.mean, fresh.sigma)

    def test_promoted_output_loads_its_driver(self, delay_model):
        circuit = build_benchmark("c432")
        dsta = DeterministicSTA(delay_model)
        dsta.arrival_times(circuit)
        net = self._latest_internal_net(circuit, delay_model)
        circuit.add_primary_output(net)
        driver = circuit.driver_of(net)
        _, gate_delays = dsta.arrival_times(circuit)
        assert gate_delays[driver.name] == delay_model.gate_delay(circuit, driver)
        assert ir_problems(circuit.compiled(), circuit) == []

    def test_promoted_output_reaches_cached_subcircuits(self, delay_model):
        circuit = build_benchmark("c432")
        net = self._latest_internal_net(circuit, delay_model)
        driver = circuit.driver_of(net).name
        cache = SubcircuitCache()
        # Every load of the driver's net is a member at depth 2.
        assert net not in cache.get(circuit, driver, depth=2).output_nets
        circuit.add_primary_output(net)
        assert net in cache.get(circuit, driver, depth=2).output_nets

    def test_replaced_cell_type_relowers(self, delay_model, variation_model):
        circuit = c17()
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()
        old = circuit.gate("g10")
        circuit.replace_gate(Gate("g10", "NOR2", old.inputs, old.output, size_index=3))
        assert ir_problems(circuit.compiled(), circuit) == []
        incremental = reanalysis.analyze().output_rv
        fresh = engine.analyze(circuit).output_rv
        assert (incremental.mean, incremental.sigma) == (fresh.mean, fresh.sigma)

    @pytest.mark.parametrize("resize", [
        lambda circuit: circuit.set_size("g10", 3),
        lambda circuit: circuit.apply_sizes({**circuit.sizes(), "g10": 3}),
        lambda circuit: circuit.replace_gate(circuit.gate("g10").with_size(3)),
    ], ids=["set_size", "apply_sizes", "replace_gate"])
    def test_resize_writes_the_cached_ir_in_place(self, resize):
        circuit = c17()
        plan = circuit.compiled()
        want = plan.size_index.copy()
        want[plan.gate_index["g10"]] = 3
        resize(circuit)
        assert np.array_equal(plan.size_index, want)  # before any compiled() call
        assert circuit.compiled() is plan

    def test_resize_after_a_structural_edit_reaches_the_relowered_ir(self):
        circuit = c17()
        stale = circuit.compiled()
        before = stale.size_index.copy()
        circuit.add("extra", "INV", ["N22"], "n_extra")
        circuit.set_size("g10", 3)
        assert np.array_equal(stale.size_index, before)
        plan = circuit.compiled()
        assert plan is not stale
        assert plan.size_index[plan.gate_index["g10"]] == 3

    def test_direct_gate_write_is_invisible_to_the_ir(self):
        # The documented contract: resizes go through set_size.
        circuit = c17()
        plan = circuit.compiled()
        before = plan.size_index.copy()
        circuit.gate("g10").size_index = 3
        assert circuit.compiled() is plan
        assert np.array_equal(plan.size_index, before)
        assert ir_problems(plan, circuit) != []

    def test_replaced_size_reaches_the_ir(self, delay_model, variation_model):
        circuit = c17()
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()
        version = circuit.structure_version
        circuit.replace_gate(circuit.gate("g10").with_size(3))
        assert circuit.structure_version == version
        assert ir_problems(circuit.compiled(), circuit) == []
        incremental = reanalysis.analyze().output_rv
        fresh = engine.analyze(circuit).output_rv
        assert (incremental.mean, incremental.sigma) == (fresh.mean, fresh.sigma)
