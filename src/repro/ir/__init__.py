"""Array-native circuit IR shared by every analysis engine.

See :mod:`repro.ir.compiled` for the lowering; consumers get at it through
:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`.
"""

from repro.ir.compiled import CompiledCircuit, arrival_matrix, lower_circuit, propagate_levelized

__all__ = ["CompiledCircuit", "arrival_matrix", "lower_circuit", "propagate_levelized"]
