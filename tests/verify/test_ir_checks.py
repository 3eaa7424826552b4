"""Corrupt one compiled-IR field at a time; verify_compiled must name it.

Each test lowers a fresh c17, mutates exactly one invariant, and asserts
that :func:`ir_problems` reports it (and that :func:`verify_compiled`
raises :class:`IRVerificationError` carrying the same lines).
"""

import pytest

from repro.circuits.registry import build_benchmark, c17
from repro.verify import IRVerificationError, ir_problems, verify_compiled


@pytest.fixture
def compiled_pair():
    circuit = c17()
    return circuit, circuit.compiled(verify=False)


class TestCleanIR:
    def test_c17_verifies_with_and_without_circuit(self, compiled_pair):
        circuit, compiled = compiled_pair
        assert ir_problems(compiled) == []
        assert ir_problems(compiled, circuit) == []
        assert verify_compiled(compiled, circuit) is compiled

    def test_compiled_verify_flag_checks_cache_hits(self):
        circuit = c17()
        compiled = circuit.compiled(verify=True)
        compiled.gate_output_slot[0] += 1  # corrupt the cached instance
        with pytest.raises(IRVerificationError):
            circuit.compiled(verify=True)

    def test_registry_circuit_verifies(self):
        circuit = build_benchmark("alu1")
        verify_compiled(circuit.compiled(verify=False), circuit)


def _expect(compiled, circuit, needle):
    problems = ir_problems(compiled, circuit)
    assert problems, f"expected a problem mentioning {needle!r}"
    assert any(needle in p for p in problems), problems
    with pytest.raises(IRVerificationError) as exc_info:
        verify_compiled(compiled, circuit)
    assert needle in str(exc_info.value)


class TestCorruptions:
    def test_gate_output_slot(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.gate_output_slot[0] += 1
        _expect(compiled, circuit, "gate_output_slot")

    def test_level_offsets(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.level_offsets[1] += 1
        _expect(compiled, circuit, "level")

    def test_gate_level_monotonicity(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.gate_level[-1] = 0
        problems = ir_problems(compiled, circuit)
        assert problems

    def test_fanin_indptr(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.fanin_indptr[1] += 1
        _expect(compiled, circuit, "fanin_indptr")

    def test_fanin_slot_out_of_range(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.fanin_slots[0] = compiled.num_nets + 5
        _expect(compiled, circuit, "fanin_slots")

    def test_fanin_matrix_sentinel(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.fanin_matrix[0, 0] = compiled.num_nets
        _expect(compiled, circuit, "fanin_matrix")

    def test_fanout_symmetry(self, compiled_pair):
        circuit, compiled = compiled_pair
        if len(compiled.fanout_gates) >= 2:
            compiled.fanout_gates[:2] = compiled.fanout_gates[:2][::-1]
        problems = ir_problems(compiled, circuit)
        assert problems

    def test_floating_mask(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.floating_mask[0] = True
        _expect(compiled, circuit, "floating_mask")

    def test_net_index_bijection(self, compiled_pair):
        circuit, compiled = compiled_pair
        a, b = compiled.net_names[0], compiled.net_names[1]
        compiled.net_index[a], compiled.net_index[b] = (
            compiled.net_index[b],
            compiled.net_index[a],
        )
        _expect(compiled, circuit, "net_index")

    def test_size_index_vs_circuit(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.size_index[0] = compiled.size_index[0] + 1
        problems = ir_problems(compiled, circuit)
        assert any("size_index" in p for p in problems)

    def test_cell_type_id_out_of_vocab(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.cell_type_ids[0] = len(compiled.cell_types)
        _expect(compiled, circuit, "cell_type")

    def test_topological_soundness(self, compiled_pair):
        circuit, compiled = compiled_pair
        # Make the last gate's first input read its own output slot range:
        # a driver at an equal-or-higher level.
        last = compiled.num_gates - 1
        lo = compiled.fanin_indptr[last]
        compiled.fanin_slots[lo] = compiled.gate_output_slot[last]
        compiled.fanin_matrix[last, 0] = compiled.gate_output_slot[last]
        problems = ir_problems(compiled)
        assert problems

    def test_problem_lines_all_reported(self, compiled_pair):
        circuit, compiled = compiled_pair
        compiled.gate_output_slot[0] += 1
        compiled.floating_mask[compiled.num_pis] = True
        with pytest.raises(IRVerificationError) as exc_info:
            verify_compiled(compiled, circuit)
        assert len(exc_info.value.problems) >= 2


class TestSizeRefreshStaysVerified:
    def test_size_change_then_verify(self):
        circuit = c17()
        circuit.compiled(verify=True)
        name = next(iter(circuit.gates))
        circuit.set_size(name, 3)
        compiled = circuit.compiled(verify=True)  # cache hit + size refresh
        gid = compiled.gate_index[name]
        assert int(compiled.size_index[gid]) == 3
