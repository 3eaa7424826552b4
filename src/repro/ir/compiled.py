"""The compiled array-native circuit IR.

Every analysis engine in the reproduction used to re-derive its own
levelized schedule over per-gate Python objects (three near-identical
``_VectorPlan`` copies lived in FASSTA, FULLSSTA and the criticality
analyzer).  :class:`CompiledCircuit` promotes that schedule into a single
structure-of-arrays lowering of a :class:`~repro.netlist.circuit.Circuit`
that *every* consumer shares:

* **integer ids** — gates and nets are numbered once; ``gate_names`` /
  ``net_names`` and the inverse ``gate_index`` / ``net_index`` maps are the
  only places names appear.  Gate ids are assigned in level-major order
  (level 1 first, topological order within a level), so the logic levels
  are contiguous id ranges described by ``level_offsets`` instead of
  per-level Python lists.
* **net slots** — primary inputs occupy slots ``[0, num_pis)``, gate
  outputs ``[num_pis, num_pis + num_gates)`` in gate-id order, and floating
  nets (read by some gate but neither driven nor declared primary inputs)
  fill the tail; every engine times primary inputs and floating nets at
  zero arrival.  ``floating_mask`` marks the floating tail and
  ``output_mask`` the primary-output slots (the nets that carry the
  library's output load).
* **CSR adjacency** — ``fanin_indptr`` / ``fanin_slots`` give each gate's
  input net slots in pin order; ``fanout_indptr`` / ``fanout_gates`` give,
  per net slot, the gate ids reading that net.
  ``fanin_matrix`` is the dense companion: ``(num_gates, max_fanin)`` with
  invalid positions trailing each row and pointing at the sentinel slot
  ``num_nets``.  It is the one fanin layout: every levelized engine walks
  its ``level_offsets`` windows.  Engines that park ``-inf`` at the sentinel
  fold a whole level with a single gather + ``max`` reduction —
  :func:`propagate_levelized`, the max-plus program DSTA (one column, or
  one per resize trial) and the Monte-Carlo timers (one column per sample)
  share, in place on gate delays held in the gate-output rows; FASSTA,
  FULLSSTA and the criticality analyzer mask the sentinel columns instead.
  Incremental re-analysis walks the same windows for its dirty cones:
  :meth:`fanout_cones <CompiledCircuit.fanout_cones>` propagates one reach
  mask per stacked trial level by level, so every trial's static fanout
  cone comes from one array computation, with no per-gate Python walk.
* **per-gate arrays** — ``cell_type_ids`` (into the ``cell_types``
  vocabulary), ``size_index`` and ``fanin_counts``.  ``size_index`` is the
  only mutable array and the one copy of the sizes the engines time:
  :meth:`Circuit.set_size <repro.netlist.circuit.Circuit.set_size>` writes
  it in place without recompiling the structure.  :meth:`resize_rows
  <CompiledCircuit.resize_rows>` is the one rule for which gates a resize
  retimes.

Lowering happens once per ``structure_version`` through
:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`, which
caches the instance on the circuit itself — FASSTA, FULLSSTA, DSTA, the
Monte-Carlo timers, the criticality analyzer and incremental re-analysis
all see the *same* :class:`CompiledCircuit` object for a given structure.
"""

from __future__ import annotations

from itertools import pairwise
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple

import numpy as np
from numpy.typing import NDArray

IntArray = NDArray[np.intp]
BoolArray = NDArray[np.bool_]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (circuit imports us)
    from repro.netlist.circuit import Circuit


class CompiledCircuit:
    """Array-native lowering of one circuit structure.

    Build through :func:`lower_circuit` (or, almost always, through the
    caching :meth:`Circuit.compiled` accessor rather than directly).
    """

    __slots__ = (
        "name",
        "structure_version",
        "num_gates",
        "num_nets",
        "num_pis",
        "gate_names",
        "gate_index",
        "net_names",
        "net_index",
        "gate_output_slot",
        "gate_level",
        "level_values",
        "level_offsets",
        "fanin_indptr",
        "fanin_slots",
        "fanin_counts",
        "fanin_matrix",
        "fanout_indptr",
        "fanout_gates",
        "cell_types",
        "cell_type_ids",
        "size_index",
        "floating_mask",
        "floating",
        "output_mask",
    )

    def __init__(
        self,
        name: str,
        structure_version: int,
        gate_names: List[str],
        net_names: List[str],
        num_pis: int,
        gate_output_slot: IntArray,
        gate_level: IntArray,
        level_values: List[int],
        level_offsets: IntArray,
        fanin_indptr: IntArray,
        fanin_slots: IntArray,
        fanout_indptr: IntArray,
        fanout_gates: IntArray,
        cell_types: List[str],
        cell_type_ids: IntArray,
        size_index: IntArray,
        output_mask: BoolArray,
    ) -> None:
        self.name = name
        self.structure_version = structure_version
        self.num_gates = len(gate_names)
        self.num_nets = len(net_names)
        self.num_pis = num_pis
        self.gate_names = gate_names
        self.gate_index = {n: i for i, n in enumerate(gate_names)}
        self.net_names = net_names
        self.net_index = {n: i for i, n in enumerate(net_names)}
        self.gate_output_slot = gate_output_slot
        self.gate_level = gate_level
        self.level_values = level_values
        self.level_offsets = level_offsets
        self.fanin_indptr = fanin_indptr
        self.fanin_slots = fanin_slots
        self.fanin_counts = np.diff(fanin_indptr)
        # Globally padded fanin matrix: (num_gates, max_fanin), invalid
        # positions point at the sentinel slot ``num_nets``.  Consumers that
        # keep a ``-inf`` row there can fold a whole level with one gather
        # and one ``max`` reduction — no validity mask needed, because
        # ``max(x, -inf) == x`` exactly.
        max_fanin = int(self.fanin_counts.max()) if self.num_gates else 0
        self.fanin_matrix = np.full(
            (self.num_gates, max_fanin), self.num_nets, dtype=np.intp
        )
        if self.num_gates:
            # Scatter the CSR payload in one shot: row gid's first
            # fanin_counts[gid] columns are valid, and fanin_slots is
            # already row-major in that same order.
            valid = (
                np.arange(max_fanin, dtype=np.intp)[None, :]
                < self.fanin_counts[:, None]
            )
            self.fanin_matrix[valid] = fanin_slots
        self.fanout_indptr = fanout_indptr
        self.fanout_gates = fanout_gates
        self.cell_types = cell_types
        self.cell_type_ids = cell_type_ids
        self.size_index = size_index

        floating_start = num_pis + self.num_gates
        self.floating_mask = np.zeros(self.num_nets, dtype=bool)
        self.floating_mask[floating_start:] = True
        self.floating: FrozenSet[str] = frozenset(net_names[floating_start:])
        self.output_mask = output_mask

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.level_values)

    # ------------------------------------------------------------------
    def gate_fanin_slots(self, gate_id: int) -> IntArray:
        """Input net slots of one gate, in pin order."""
        return self.fanin_slots[
            self.fanin_indptr[gate_id]: self.fanin_indptr[gate_id + 1]
        ]

    # ------------------------------------------------------------------
    def fanout_cones(
        self, seed_trial: IntArray, seed_gate: IntArray, count: int
    ) -> Tuple[IntArray, IntArray]:
        """Each of ``count`` trials' seed gates plus their transitive fanout.

        Seed ``i`` puts gate ``seed_gate[i]`` into trial ``seed_trial[i]``'s
        cone.  One reach mask per (net slot, trial) is propagated level by
        level over ``fanin_matrix``, from the lowest seeded level: a gate is
        in a trial's cone when it is seeded there or one of its inputs is.
        Returns the ``(trial, gate)`` pairs gate-major (trials ascending per
        gate); gate ids are level-major, so every trial's gates come out in
        a valid topological order.
        """
        reach = np.zeros((self.num_nets + 1, count), dtype=bool)  # + the fanin sentinel
        reach[self.gate_output_slot[seed_gate], seed_trial] = True
        first = int(np.searchsorted(
            self.level_offsets, seed_gate.min(initial=self.num_gates), side="right")) - 1
        for start, stop in pairwise(self.level_offsets[first:].tolist()):
            level = reach[self.num_pis + start: self.num_pis + stop]
            level |= reach[self.fanin_matrix[start:stop]].any(axis=1)
        pair_gate, pair_trial = np.nonzero(reach[self.num_pis: self.num_pis + self.num_gates])
        return pair_trial, pair_gate

    # ------------------------------------------------------------------
    def resize_rows(self, gate_ids: IntArray) -> Tuple[IntArray, IntArray]:
        """The gates whose delay a resize of each of ``gate_ids`` changes.

        A resize changes the gate's own delay and its fanin drivers' (their
        load holds its input cap).  Returns ``(index into gate_ids, gate id)``
        pairs, index-major and ascending.
        """
        # A driver's gate id is its output slot less the primary inputs;
        # input, floating and sentinel slots fall outside [0, num_gates).
        members = np.concatenate(
            [gate_ids[:, None], self.fanin_matrix[gate_ids] - self.num_pis], axis=1
        )
        keep = (members >= 0) & (members < self.num_gates)
        index = np.arange(len(gate_ids), dtype=np.intp)[:, None]
        keys = np.unique((index * self.num_gates + members)[keep])
        return keys // self.num_gates, keys % self.num_gates

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"CompiledCircuit({self.name!r}, v{self.structure_version}, "
            f"gates={self.num_gates}, nets={self.num_nets}, "
            f"levels={self.num_levels})"
        )


def lower_circuit(circuit: "Circuit") -> CompiledCircuit:
    """Lower ``circuit`` to a fresh :class:`CompiledCircuit`.

    Most callers should use :meth:`Circuit.compiled`, which caches the
    result per structure version and writes resizes into its size array.
    """
    levels_map = circuit.levels()
    by_level: Dict[int, List[str]] = {}
    # The one sanctioned netlist walk: this IS the lowering every engine
    # shares.  repro-lint: allow=RL001
    for name in circuit.topological_order():
        by_level.setdefault(levels_map[name], []).append(name)
    level_values = sorted(by_level)

    gate_names: List[str] = []
    level_offsets = np.zeros(len(level_values) + 1, dtype=np.intp)
    for li, level in enumerate(level_values):
        gate_names.extend(by_level[level])
        level_offsets[li + 1] = len(gate_names)

    num_gates = len(gate_names)
    # One dict lookup per gate for the whole lowering, not one per loop.
    all_gates = circuit.gates
    gate_objs = [all_gates[name] for name in gate_names]

    gate_level = np.zeros(num_gates, dtype=np.intp)
    for gid, name in enumerate(gate_names):
        gate_level[gid] = levels_map[name]

    # Net slots: primary inputs, then gate outputs (gate-id order), then
    # floating nets in first-seen (gate-id, pin) order.
    net_names: List[str] = list(circuit.primary_inputs)
    net_index: Dict[str, int] = {n: i for i, n in enumerate(net_names)}
    gate_output_slot = np.zeros(num_gates, dtype=np.intp)
    for gid, gate in enumerate(gate_objs):
        out = gate.output
        gate_output_slot[gid] = len(net_names)
        net_index[out] = len(net_names)
        net_names.append(out)
    for gate in gate_objs:
        for net in gate.inputs:
            if net not in net_index:
                net_index[net] = len(net_names)
                net_names.append(net)

    # Fanin CSR (gate -> input net slots, pin order).
    fanin_indptr = np.zeros(num_gates + 1, dtype=np.intp)
    flat_fanin: List[int] = []
    for gid, gate in enumerate(gate_objs):
        for net in gate.inputs:
            flat_fanin.append(net_index[net])
        fanin_indptr[gid + 1] = len(flat_fanin)
    fanin_slots = np.array(flat_fanin, dtype=np.intp)

    # Fanout CSR (net slot -> reader gate ids, load order).
    num_nets = len(net_names)
    fanout_indptr = np.zeros(num_nets + 1, dtype=np.intp)
    flat_fanout: List[int] = []
    gate_index = {n: i for i, n in enumerate(gate_names)}
    for slot, net in enumerate(net_names):
        for load_name in circuit.load_names(net):
            flat_fanout.append(gate_index[load_name])
        fanout_indptr[slot + 1] = len(flat_fanout)
    fanout_gates = np.array(flat_fanout, dtype=np.intp)

    # Per-gate cell/size arrays.
    cell_types: List[str] = []
    cell_vocab: Dict[str, int] = {}
    cell_type_ids = np.zeros(num_gates, dtype=np.intp)
    size_index = np.zeros(num_gates, dtype=np.intp)
    for gid, gate in enumerate(gate_objs):
        cid = cell_vocab.get(gate.cell_type)
        if cid is None:
            cid = len(cell_types)
            cell_vocab[gate.cell_type] = cid
            cell_types.append(gate.cell_type)
        cell_type_ids[gid] = cid
        size_index[gid] = gate.size_index

    # Primary-output slots (an output net that no gate drives or reads has
    # no slot and no load to carry).
    output_mask = np.zeros(num_nets, dtype=bool)
    for net in circuit.primary_outputs:
        slot = net_index.get(net)
        if slot is not None:
            output_mask[slot] = True

    return CompiledCircuit(
        name=circuit.name,
        structure_version=circuit.structure_version,
        gate_names=gate_names,
        net_names=net_names,
        num_pis=len(circuit.primary_inputs),
        gate_output_slot=gate_output_slot,
        gate_level=gate_level,
        level_values=level_values,
        level_offsets=level_offsets,
        fanin_indptr=fanin_indptr,
        fanin_slots=fanin_slots,
        fanout_indptr=fanout_indptr,
        fanout_gates=fanout_gates,
        cell_types=cell_types,
        cell_type_ids=cell_type_ids,
        size_index=size_index,
        output_mask=output_mask,
    )


def arrival_matrix(plan: CompiledCircuit, columns: int) -> NDArray[np.float64]:
    """Zero ``(num_nets + 1, columns)`` arrivals in net-slot order, for :func:`propagate_levelized`.

    The extra sentinel row holds ``-inf`` so the padded fanin matrix folds
    without a validity mask (``max(x, -inf) == x`` exactly).
    """
    arr = np.zeros((plan.num_nets + 1, columns))
    arr[plan.num_nets] = -np.inf
    return arr


def propagate_levelized(plan: CompiledCircuit, arr: NDArray[np.float64]) -> NDArray[np.float64]:
    """Max-plus arrival propagation over the IR, in place, one column per scenario.

    ``arr`` is an :func:`arrival_matrix` whose gate-output rows (the block
    ``[num_pis, num_pis + num_gates)`` in gate-id order) hold the gate
    delays, so no separate delay matrix exists; each becomes its gate's
    arrival, boundary slots (primary inputs and floating gate inputs) stay
    zero, and ``arr`` is returned.

    Per logic level the program is one ``arr.take`` gather per fanin column
    folded with in-place ``np.maximum`` into a preallocated scratch buffer,
    then one ``np.add`` of that fold into the level's contiguous output rows.
    ``max`` and float addition are exact, so every column equals a
    gate-by-gate topological walk bit for bit.
    """
    if not plan.num_gates:
        return arr
    num_columns = arr.shape[1]
    fanin = plan.fanin_matrix
    offsets = plan.level_offsets
    max_fanin = fanin.shape[1]
    max_width = int(np.diff(offsets).max())
    acc = np.empty((max_width, num_columns))
    tmp = np.empty((max_width, num_columns))
    for li in range(plan.num_levels):
        start, stop = offsets[li], offsets[li + 1]
        width = stop - start
        worst = acc[:width]
        arr.take(fanin[start:stop, 0], axis=0, out=worst)
        for col in range(1, max_fanin):
            other = tmp[:width]
            arr.take(fanin[start:stop, col], axis=0, out=other)
            np.maximum(worst, other, out=worst)
        rows = arr[plan.num_pis + start: plan.num_pis + stop]
        np.add(worst, rows, out=rows)
    return arr


__all__ = ("CompiledCircuit", "arrival_matrix", "lower_circuit", "propagate_levelized")
