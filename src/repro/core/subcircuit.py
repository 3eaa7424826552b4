"""Subcircuit extraction around a candidate gate (paper §4.5).

For every gate considered for resizing the optimizer extracts a small
region — by default two levels of transitive fanin plus two levels of
transitive fanout, the depth the paper found "sufficiently accurate without
being too costly to evaluate" — and scores candidate sizes by running FASSTA
on that region only.

A :class:`Subcircuit` is a *view* onto the parent circuit rather than a
copy: member gates are referenced by name, and all electrical queries (loads
in particular) are answered against the parent.  This keeps boundary loads
exact — a member gate driving non-member gates still sees their input
capacitance.  :meth:`Subcircuit.local_program` lowers the region once onto
the parent's compiled IR, the compact form the batched candidate sweep runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist.circuit import Circuit

#: Default extraction depth (levels of transitive fanin and fanout).
DEFAULT_DEPTH = 2


@dataclass
class Subcircuit:
    """A region of a parent circuit centred on ``seed``.

    Attributes
    ----------
    parent:
        The full circuit the region was extracted from.
    seed:
        Name of the candidate gate at the centre of the region.
    gate_names:
        Member gate names in parent topological order.
    input_nets:
        Nets read by member gates but driven outside the region (or primary
        inputs); their arrival times must be supplied as boundary conditions.
    output_nets:
        Nets driven by member gates that are observed outside the region
        (primary outputs or inputs of non-member gates); the cost function
        is evaluated over these.
    """

    parent: Circuit
    seed: str
    gate_names: List[str]
    input_nets: List[str]
    output_nets: List[str]
    _member_set: Optional[Set[str]] = field(default=None, repr=False, compare=False)
    _fringe_gates: Optional[List[str]] = field(default=None, repr=False, compare=False)
    _program: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def num_gates(self) -> int:
        return len(self.gate_names)

    def member_set(self) -> Set[str]:
        if self._member_set is None:
            self._member_set = set(self.gate_names)
        return self._member_set

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self.member_set()

    # ------------------------------------------------------------------
    def fringe_gates(self) -> List[str]:
        """Non-member gates loading a member output net, in deterministic order.

        Their sizes set the input capacitance seen by member drivers, so a
        member gate's delay depends on them even though they are outside the
        evaluated region.
        """
        if self._fringe_gates is None:
            members = self.member_set()
            fringe: List[str] = []
            seen: Set[str] = set()
            for name in self.gate_names:
                net = self.parent.gate(name).output
                for load in self.parent.loads_of(net):
                    if load.name not in members and load.name not in seen:
                        seen.add(load.name)
                        fringe.append(load.name)
            self._fringe_gates = fringe
        return self._fringe_gates

    def context_signature(self) -> Tuple[int, ...]:
        """Size indices of every gate that can influence this region's timing
        given fixed boundary arrivals: the members (delays) plus the fringe
        loads (member output capacitance).  Two evaluations with the same
        seed, depth, boundary arrivals and context signature are guaranteed
        to produce identical costs, which is what makes the decision memo of
        :meth:`CostEvaluator.best_sizes <repro.core.cost.CostEvaluator.best_sizes>`
        exact.
        """
        gates = self.parent.gates
        return tuple(
            gates[name].size_index
            for name in self.gate_names + self.fringe_gates()
        )

    def local_program(self) -> np.ndarray:
        """The region lowered onto the parent's IR, built once per subcircuit.

        One int32 row per member, in ``gate_names`` order: its IR gate id,
        its level inside the region (0 when it reads only boundary inputs),
        1 when its delay depends on the seed's size (the seed and the member
        drivers of its input nets, whose loads hold its input cap), the
        position of its output in ``output_nets`` (-1 if not an output),
        then its input slots in pin order, padded with -1 to the parent's
        largest fanin.  Local slots are the boundary inputs (in
        ``input_nets`` order), then the member outputs (in member order).
        This is the form the batched candidate sweep runs.
        """
        if self._program is None:
            circuit = self.parent
            plan = circuit.compiled()
            num_inputs = len(self.input_nets)
            slot = {net: i for i, net in enumerate(self.input_nets)}
            for position, name in enumerate(self.gate_names, num_inputs):
                slot[circuit.gate(name).output] = position
            outputs = {net: rank for rank, net in enumerate(self.output_nets)}
            seed_inputs = set(circuit.gate(self.seed).inputs)
            width = 4 + plan.fanin_matrix.shape[1]
            program = np.full((self.num_gates, width), -1, dtype=np.int32)
            for row, name in zip(program, self.gate_names, strict=True):
                gate = circuit.gate(name)
                pins = [slot[net] for net in gate.inputs]
                drivers = [program[pin - num_inputs, 1] for pin in pins if pin >= num_inputs]
                row[:4] = (
                    plan.gate_index[name],
                    1 + max(drivers, default=-1),
                    name == self.seed or gate.output in seed_inputs,
                    outputs.get(gate.output, -1),
                )
                row[4 : 4 + len(pins)] = pins
            self._program = program
        return self._program

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"Subcircuit(seed={self.seed!r}, gates={self.num_gates}, "
            f"inputs={len(self.input_nets)}, outputs={len(self.output_nets)})"
        )


def extract_subcircuit(
    circuit: Circuit, seed_gate: str, depth: int = DEFAULT_DEPTH
) -> Subcircuit:
    """Extract the TFI/TFO region of ``seed_gate`` up to ``depth`` levels each way.

    The seed gate is always included.  Member gates are returned in the
    parent circuit's topological order so moment propagation can run over
    them directly.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    circuit.gate(seed_gate)  # raises for unknown seeds

    members: Set[str] = {seed_gate}
    members.update(circuit.transitive_fanin(seed_gate, depth=depth))
    members.update(circuit.transitive_fanout(seed_gate, depth=depth))

    # Structural extraction, not an analysis loop; the IR has no subcircuit
    # view.  repro-lint: allow=RL001
    order = [name for name in circuit.topological_order() if name in members]

    driven_inside = {circuit.gate(name).output for name in members}
    input_nets: List[str] = []
    seen_inputs: Set[str] = set()
    for name in order:
        for net in circuit.gate(name).inputs:
            if net not in driven_inside and net not in seen_inputs:
                seen_inputs.add(net)
                input_nets.append(net)

    output_nets: List[str] = []
    for name in order:
        net = circuit.gate(name).output
        external_load = any(
            load.name not in members for load in circuit.loads_of(net)
        )
        if circuit.is_primary_output(net) or external_load or not circuit.loads_of(net):
            output_nets.append(net)

    return Subcircuit(
        parent=circuit,
        seed=seed_gate,
        gate_names=order,
        input_nets=input_nets,
        output_nets=output_nets,
    )


class SubcircuitCache:
    """Memoizes :func:`extract_subcircuit` per (seed, depth) for one circuit.

    Extraction walks the parent's full topological order, so the greedy
    sizer — which extracts around every WNSS-path gate every pass — pays
    O(gates) per visit without a cache.  Subcircuit structure only depends
    on the netlist, not on gate sizes, so entries stay valid until the
    circuit's :attr:`~repro.netlist.circuit.Circuit.structure_version`
    changes (or a different circuit is queried), at which point the cache
    resets itself.
    """

    def __init__(self) -> None:
        self._circuit: Optional[Circuit] = None
        self._structure_version: Optional[int] = None
        self._entries: Dict[Tuple[str, int], Subcircuit] = {}
        self.hits = 0
        self.misses = 0

    def sync(self, circuit: Circuit) -> bool:
        """Follow ``circuit``; True, after a reset, if it is another circuit
        or its structure changed since the last call."""
        if (
            self._circuit is circuit
            and self._structure_version == circuit.structure_version
        ):
            return False
        self._entries.clear()
        self._circuit = circuit
        self._structure_version = circuit.structure_version
        return True

    def get(self, circuit: Circuit, seed: str, depth: int = DEFAULT_DEPTH) -> Subcircuit:
        """Cached extraction of the (seed, depth) region of ``circuit``."""
        self.sync(circuit)
        key = (seed, depth)
        subcircuit = self._entries.get(key)
        if subcircuit is None:
            self.misses += 1
            subcircuit = extract_subcircuit(circuit, seed, depth)
            self._entries[key] = subcircuit
        else:
            self.hits += 1
        return subcircuit


def extraction_statistics(circuit: Circuit, depth: int = DEFAULT_DEPTH) -> Dict[str, float]:
    """Average/maximum subcircuit size over all gates (used in reports/tests)."""
    sizes = [
        extract_subcircuit(circuit, name, depth).num_gates
        # repro-lint: allow=RL001 -- reporting helper, not a hot path
        for name in circuit.topological_order()
    ]
    if not sizes:
        return {"avg_gates": 0.0, "max_gates": 0.0, "min_gates": 0.0}
    return {
        "avg_gates": sum(sizes) / len(sizes),
        "max_gates": float(max(sizes)),
        "min_gates": float(min(sizes)),
    }
