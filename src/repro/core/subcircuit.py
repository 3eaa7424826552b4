"""Subcircuit extraction around a candidate gate (paper §4.5).

For every gate considered for resizing the optimizer extracts a small
region — by default two levels of transitive fanin plus two levels of
transitive fanout, the depth the paper found "sufficiently accurate without
being too costly to evaluate" — and scores candidate sizes by running FASSTA
on that region only.

A :class:`Subcircuit` is a set of index arrays into the parent's compiled
IR rather than a copy: member gate ids, boundary and observed net slots,
fringe gate ids, the region lowered into the program the batched candidate
sweep runs, and the indices its costs depend on, which the sweep's decision
memo watches.  Loads stay the parent's, so a member gate driving non-member
gates still sees their input capacitance.  :func:`extract_subcircuit` fills
every array in one walk over the IR's fanin and fanout adjacency; the name
lists are derived from them for the scalar reference and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.ir.compiled import IntArray
from repro.netlist.circuit import Circuit, CircuitError

#: Default extraction depth (levels of transitive fanin and fanout).
DEFAULT_DEPTH = 2


@dataclass(frozen=True, eq=False)
class Subcircuit:
    """A region of a parent circuit centred on ``seed``, as IR index arrays.

    Attributes
    ----------
    parent:
        The full circuit the region was extracted from; every id and slot
        indexes its compiled IR.
    seed:
        Name of the candidate gate at the centre of the region.
    gate_ids:
        Member gate ids, ascending, which is a topological order.
    input_slots:
        Net slots read by members but driven outside the region (or primary
        inputs), in first-read order; their arrival moments are the
        boundary conditions.
    output_slots:
        Member output slots observed outside the region (primary outputs,
        inputs of non-member gates, or read by nothing), in member order;
        the cost function is evaluated over these.
    fringe_ids:
        Non-member gates reading a member output, in first-seen order.  Their
        sizes set the input capacitance member drivers see, so a member's
        delay depends on them even though they are outside the region.
    program:
        The region lowered onto the IR, the form the batched candidate
        sweep runs.  One int32 row per member: its gate id, its level inside
        the region (0 when it reads only boundary inputs), 1 when its delay
        depends on the seed's size (the seed and the member drivers of its
        input nets, whose loads hold its input cap), the position of its
        output in ``output_slots`` (-1 if not an output), then its local
        input slots in pin order, padded with -1 to the parent's largest
        fanin.  Local slots are the boundary inputs (in ``input_slots``
        order), then the member outputs (in member order).
    dependencies:
        Everything the region's costs depend on, as one IR index array:
        the member and fringe gate ids (delays and member output loads),
        then ``num_gates`` plus each input slot (boundary moments).  While
        none of them changes, neither do the costs, which makes the memo of
        :meth:`CostEvaluator.best_sizes <repro.core.cost.CostEvaluator.best_sizes>`
        exact.
    """

    parent: Circuit
    seed: str
    gate_ids: IntArray
    input_slots: IntArray
    output_slots: IntArray
    fringe_ids: IntArray
    program: NDArray[np.int32]
    dependencies: IntArray

    @property
    def num_gates(self) -> int:
        return len(self.gate_ids)

    @property
    def gate_names(self) -> List[str]:
        """Member gate names, in ``gate_ids`` order."""
        return _names(self.parent.compiled().gate_names, self.gate_ids)

    @property
    def input_nets(self) -> List[str]:
        """Names of the nets at ``input_slots``."""
        return _names(self.parent.compiled().net_names, self.input_slots)

    @property
    def output_nets(self) -> List[str]:
        """Names of the nets at ``output_slots``."""
        return _names(self.parent.compiled().net_names, self.output_slots)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"Subcircuit(seed={self.seed!r}, gates={self.num_gates}, "
            f"inputs={len(self.input_slots)}, outputs={len(self.output_slots)})"
        )


def _names(names: Sequence[str], ids: IntArray) -> List[str]:
    return [names[i] for i in ids.tolist()]


def extract_subcircuit(
    circuit: Circuit, seed_gate: str, depth: int = DEFAULT_DEPTH
) -> Subcircuit:
    """Extract the TFI/TFO region of ``seed_gate`` up to ``depth`` levels each way.

    The seed gate is always included.  One walk over the compiled IR's
    fanin and fanout adjacency finds the members, sorts them by gate id
    (ids ascend along ``circuit.topological_order()``, whose
    first-in-first-out walk visits the gates level by level, the order the
    lowering numbers them in) and lowers them, member by member, into every
    array of the :class:`Subcircuit`.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    plan = circuit.compiled()
    seed = plan.gate_index.get(seed_gate)
    if seed is None:
        raise CircuitError(f"no gate named {seed_gate!r}")
    num_pis, fanin, sentinel = plan.num_pis, plan.fanin_matrix, plan.num_nets
    driven = num_pis + plan.num_gates  # gate output slots end here

    def drivers(gate: int) -> List[int]:
        return [slot - num_pis for slot in fanin[gate].tolist() if num_pis <= slot < driven]

    def readers(gate: int) -> List[int]:
        slot = num_pis + gate
        return plan.fanout_gates[plan.fanout_indptr[slot]: plan.fanout_indptr[slot + 1]].tolist()

    members = {seed}
    for step in (drivers, readers):
        reached, frontier = {seed}, {seed}
        for _ in range(depth):
            frontier = {near for gate in frontier for near in step(gate)} - reached
            reached |= frontier
        members |= reached
    gate_ids = sorted(members)

    # Local slots: the boundary inputs in first-read order, then the member
    # outputs in member order; the fanin sentinel reads -1.
    pins = fanin[gate_ids].tolist()
    member_at = {num_pis + gate: i for i, gate in enumerate(gate_ids)}
    inputs = list(dict.fromkeys(
        slot for row in pins for slot in row if slot not in member_at and slot != sentinel))
    base = len(inputs)
    local = {sentinel: -1, **{slot: i for i, slot in enumerate(inputs)}}
    local.update((slot, base + i) for slot, i in member_at.items())
    seed_pins = set(fanin[seed].tolist())
    observed = plan.output_mask[np.add(gate_ids, num_pis)].tolist()
    program: List[List[int]] = []
    fringe: Dict[int, None] = {}
    outputs: List[int] = []
    for gate, row, primary in zip(gate_ids, pins, observed, strict=True):
        row_local = [local[slot] for slot in row]
        level = 1 + max([program[pin - base][1] for pin in row_local if pin >= base], default=-1)
        loads = readers(gate)
        outside = [load for load in loads if num_pis + load not in member_at]
        fringe.update(dict.fromkeys(outside))
        rank = -1
        if primary or outside or not loads:
            rank = len(outputs)
            outputs.append(num_pis + gate)
        affected = gate == seed or num_pis + gate in seed_pins
        program.append([gate, level, affected, rank, *row_local])

    ids = np.array(gate_ids, dtype=np.intp)
    boundary = np.array(inputs, dtype=np.intp)
    fringe_ids = np.array(list(fringe), dtype=np.intp)
    return Subcircuit(
        parent=circuit,
        seed=seed_gate,
        gate_ids=ids,
        input_slots=boundary,
        output_slots=np.array(outputs, dtype=np.intp),
        fringe_ids=fringe_ids,
        program=np.array(program, dtype=np.int32),
        dependencies=np.concatenate([ids, fringe_ids, plan.num_gates + boundary]),
    )


class SubcircuitCache:
    """Memoizes :func:`extract_subcircuit` per (seed, depth) for one circuit.

    The greedy sizers extract around every WNSS-path (or near-critical)
    gate every pass, and each region carries its lowered program and
    dependencies, so a cached region costs one dict lookup.  Subcircuit
    structure only depends on the netlist, not on gate sizes, so entries
    stay valid until the circuit's
    :attr:`~repro.netlist.circuit.Circuit.structure_version` changes (or a
    different circuit is queried), at which point the cache resets itself.
    """

    def __init__(self) -> None:
        self._circuit: Optional[Circuit] = None
        self._structure_version: Optional[int] = None
        self._entries: Dict[Tuple[str, int], Subcircuit] = {}
        self.hits = 0
        self.misses = 0

    def get(self, circuit: Circuit, seed: str, depth: int = DEFAULT_DEPTH) -> Subcircuit:
        """Cached extraction of the (seed, depth) region of ``circuit``."""
        if self._circuit is not circuit or self._structure_version != circuit.structure_version:
            self._entries.clear()
            self._circuit, self._structure_version = circuit, circuit.structure_version
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
    sizes = [extract_subcircuit(circuit, name, depth).num_gates for name in circuit.gates]
    if not sizes:
        return {"avg_gates": 0.0, "max_gates": 0.0, "min_gates": 0.0}
    return {
        "avg_gates": sum(sizes) / len(sizes),
        "max_gates": float(max(sizes)),
        "min_gates": float(min(sizes)),
    }
