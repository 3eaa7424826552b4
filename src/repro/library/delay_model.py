"""Delay models: how a sized gate's nominal delay is computed.

Two models are provided:

* :class:`LinearRCDelayModel` — ``delay = intrinsic + R_drive * C_load``.
  Simple, monotone in load and in 1/drive, and adequate for studying the
  optimization algorithm (the paper's conclusions do not depend on the
  exact delay equation, only on bigger gates being faster under load and
  less variable).
* :class:`LookupTableDelayModel` — interpolates explicit (load, delay)
  tables when the library provides them, mirroring the "lookup-table based"
  industrial library the paper used.

Both models also compute the capacitive load seen by a gate output: the sum
of the input capacitances of its fanout pins, plus the library's default
output load for primary outputs, plus an optional per-fanout wire estimate.
"""

from __future__ import annotations

from repro.library.cell import Library
from repro.netlist.circuit import Circuit
from repro.netlist.gate import Gate


class BaseDelayModel:
    """Shared load computation for all delay models."""

    def __init__(self, library: Library) -> None:
        self.library = library

    # -- load -----------------------------------------------------------
    def load_on_net(self, circuit: Circuit, net: str) -> float:
        """Total capacitive load (fF) on ``net``."""
        load = 0.0
        fanouts = circuit.loads_of(net)
        for sink in fanouts:
            load += self.library.input_cap(sink.cell_type, sink.size_index)
        load += self.library.wire_cap_per_fanout * len(fanouts)
        if circuit.is_primary_output(net):
            load += self.library.default_output_load
        return load

    def load_on_gate(self, circuit: Circuit, gate: Gate) -> float:
        """Capacitive load driven by ``gate``'s output."""
        return self.load_on_net(circuit, gate.output)

    # -- delay ----------------------------------------------------------
    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        """Nominal delay (ps) of ``gate`` in its current size within ``circuit``."""
        raise NotImplementedError

    def gate_delay_at_size(
        self, circuit: Circuit, gate: Gate, size_index: int
    ) -> float:
        """Nominal delay of ``gate`` if it were resized to ``size_index``.

        The load is re-computed with the *current* netlist; resizing the gate
        itself changes its input capacitance (affecting its fanin drivers)
        but not its own load, so this is exact for the candidate gate.
        """
        raise NotImplementedError

    def circuit_area(self, circuit: Circuit) -> float:
        """Total cell area (µm²) of the circuit."""
        return sum(
            self.library.area(g.cell_type, g.size_index) for g in circuit.gates.values()
        )


class LinearRCDelayModel(BaseDelayModel):
    """``delay = intrinsic + drive_resistance * load`` for every cell size."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        size = self.library.size(gate.cell_type, gate.size_index)
        return size.linear_delay(self.load_on_gate(circuit, gate))

    def gate_delay_at_size(self, circuit: Circuit, gate: Gate, size_index: int) -> float:
        size = self.library.size(gate.cell_type, size_index)
        return size.linear_delay(self.load_on_gate(circuit, gate))


class LookupTableDelayModel(BaseDelayModel):
    """Interpolate the per-size (load, delay) tables; fall back to linear-RC.

    This mirrors the NLDM-style "lookup-table based standard cell library"
    of the paper.  Cells without a table silently use the linear expression,
    so mixed libraries work.
    """

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        return self.library.delay(
            gate.cell_type, gate.size_index, self.load_on_gate(circuit, gate)
        )

    def gate_delay_at_size(self, circuit: Circuit, gate: Gate, size_index: int) -> float:
        return self.library.delay(
            gate.cell_type, size_index, self.load_on_gate(circuit, gate)
        )


def make_delay_model(library: Library, kind: str = "lut") -> BaseDelayModel:
    """Factory: ``kind`` is ``"lut"`` or ``"linear"``."""
    if kind == "lut":
        return LookupTableDelayModel(library)
    if kind == "linear":
        return LinearRCDelayModel(library)
    raise ValueError(f"unknown delay model kind {kind!r}")
