"""Combinational circuit DAG.

A :class:`Circuit` owns a set of :class:`~repro.netlist.gate.Gate` instances
connected by named nets.  It provides the structural queries every timing
engine and the optimizer need: topological order, levelization, fanin/fanout
cones, and cheap structural statistics.

Design notes
------------
* Nets are plain strings; each net has at most one driver (a primary input
  or a gate output) and any number of loads.
* The class caches its topological order and invalidates the cache on any
  structural mutation (adding/removing gates).  Re-sizing a gate is *not* a
  structural mutation: :meth:`Circuit.set_size` writes the new size into the
  cached compiled IR's ``size_index`` array in place, the one copy of the
  sizes every engine times (incremental consumers such as
  :class:`~repro.core.fullssta.IncrementalReanalysis` diff it against the
  sizes they last timed).
* All queries return data in deterministic order so that optimization runs
  are reproducible.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set

from repro.netlist.gate import Gate

if TYPE_CHECKING:  # pragma: no cover - circular-import guard (ir imports us)
    from repro.ir.compiled import CompiledCircuit


class CircuitError(Exception):
    """Raised for structural violations while building a circuit."""


@dataclass(frozen=True)
class CircuitStats:
    """Cheap structural summary of a circuit."""

    name: str
    num_gates: int
    num_primary_inputs: int
    num_primary_outputs: int
    num_nets: int
    logic_depth: int
    max_fanout: int
    avg_fanin: float


class Circuit:
    """A combinational gate-level netlist.

    Parameters
    ----------
    name:
        Circuit name (used in reports and serialised files).
    primary_inputs:
        Ordered net names driven from outside the circuit.
    primary_outputs:
        Ordered net names observed outside the circuit.  A primary output
        may also drive internal gates.
    """

    def __init__(
        self,
        name: str,
        primary_inputs: Optional[Sequence[str]] = None,
        primary_outputs: Optional[Sequence[str]] = None,
    ) -> None:
        self.name = name
        self._primary_inputs: List[str] = list(primary_inputs or [])
        self._primary_outputs: List[str] = list(primary_outputs or [])
        self._pi_set: Set[str] = set(self._primary_inputs)
        self._po_set: Set[str] = set(self._primary_outputs)
        self._gates: Dict[str, Gate] = {}
        self._driver: Dict[str, str] = {}  # net -> gate name driving it
        self._loads: Dict[str, List[str]] = {}  # net -> gate names reading it
        self._topo_cache: Optional[List[str]] = None
        self._level_cache: Optional[Dict[str, int]] = None
        self._structure_version: int = 0
        self._compiled_cache: Optional["CompiledCircuit"] = None

        if len(self._pi_set) != len(self._primary_inputs):
            seen: Set[str] = set()
            for pi in self._primary_inputs:
                if pi in seen:
                    raise CircuitError(f"duplicate primary input {pi!r}")
                seen.add(pi)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_primary_input(self, net: str) -> None:
        """Declare ``net`` as a primary input."""
        if net in self._pi_set:
            raise CircuitError(f"primary input {net!r} already declared")
        if net in self._driver:
            raise CircuitError(f"net {net!r} is already driven by gate {self._driver[net]!r}")
        self._primary_inputs.append(net)
        self._pi_set.add(net)
        self._invalidate()

    def add_primary_output(self, net: str) -> None:
        """Declare ``net`` as a primary output.

        A structural mutation: the output load it adds to ``net``'s driver
        and the output set of extracted subcircuits both depend on it.
        """
        if net in self._po_set:
            raise CircuitError(f"primary output {net!r} already declared")
        self._primary_outputs.append(net)
        self._po_set.add(net)
        self._invalidate()

    def add_gate(self, gate: Gate) -> Gate:
        """Add a gate instance; returns the gate for chaining."""
        if gate.name in self._gates:
            raise CircuitError(f"duplicate gate name {gate.name!r}")
        if gate.output in self._driver:
            raise CircuitError(
                f"net {gate.output!r} already driven by {self._driver[gate.output]!r}"
            )
        if gate.output in self._pi_set:
            raise CircuitError(f"gate {gate.name!r} drives primary input {gate.output!r}")
        self._gates[gate.name] = gate
        self._driver[gate.output] = gate.name
        for net in gate.inputs:
            self._loads.setdefault(net, []).append(gate.name)
        self._invalidate()
        return gate

    def add(
        self,
        name: str,
        cell_type: str,
        inputs: Sequence[str],
        output: str,
        size_index: int = 0,
    ) -> Gate:
        """Convenience wrapper: build and add a :class:`Gate` in one call."""
        return self.add_gate(Gate(name, cell_type, list(inputs), output, size_index))

    def remove_gate(self, name: str) -> Gate:
        """Remove the gate called ``name`` and return it."""
        gate = self._gates.pop(name, None)
        if gate is None:
            raise CircuitError(f"no gate named {name!r}")
        del self._driver[gate.output]
        for net in gate.inputs:
            loads = self._loads.get(net, [])
            if name in loads:
                loads.remove(name)
            if not loads and net in self._loads:
                del self._loads[net]
        self._invalidate()
        return gate

    def replace_gate(self, gate: Gate) -> None:
        """Replace an existing gate of the same name (size changes, etc.).

        The replacement must keep the same output net; inputs may change.
        A new cell type or new inputs is a structural mutation; a replacement
        that only changes the size reaches the compiled IR like :meth:`set_size`.
        """
        old = self._gates.get(gate.name)
        if old is None:
            raise CircuitError(f"no gate named {gate.name!r} to replace")
        if old.output != gate.output:
            raise CircuitError(
                f"replace_gate cannot change the driven net "
                f"({old.output!r} -> {gate.output!r})"
            )
        rewired = list(old.inputs) != list(gate.inputs)
        if rewired:
            for net in old.inputs:
                loads = self._loads.get(net, [])
                if gate.name in loads:
                    loads.remove(gate.name)
                if not loads and net in self._loads:
                    del self._loads[net]
            for net in gate.inputs:
                self._loads.setdefault(net, []).append(gate.name)
        self._gates[gate.name] = gate
        if rewired or old.cell_type != gate.cell_type:
            self._invalidate()
        else:
            self.set_size(gate.name, gate.size_index)

    def set_size(self, gate_name: str, size_index: int) -> None:
        """Set the discrete size of a gate in place (no structural invalidation).

        A compiled IR that is current (lowered at this structure version)
        gets the size in its ``size_index`` array at once; a stale one is
        left alone, and the next :meth:`compiled` relowers from the gates.
        """
        self.gate(gate_name).size_index = size_index
        cache = self._compiled_cache
        if cache is not None and cache.structure_version == self._structure_version:
            cache.size_index[cache.gate_index[gate_name]] = size_index

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._level_cache = None
        self._structure_version += 1

    # ------------------------------------------------------------------
    # Compiled IR
    # ------------------------------------------------------------------
    def compiled(self, verify: Optional[bool] = None) -> "CompiledCircuit":
        """The circuit's array-native IR, lowered once per structure version.

        Every engine (FASSTA, FULLSSTA, DSTA, Monte Carlo, incremental
        re-analysis) consumes the *same*
        :class:`~repro.ir.compiled.CompiledCircuit` instance for a given
        structure.  Structural mutations bump ``structure_version`` and the
        next call relowers; :meth:`set_size` (and a size-only
        :meth:`replace_gate`) writes the instance's ``size_index`` array in
        place, so it stays the circuit's one copy of the sizes.  A direct
        ``Gate.size_index`` write bypasses it and stays invisible to every
        engine until the next relowering.

        ``verify`` runs :func:`repro.verify.ir_checks.verify_compiled` over
        every *fresh* lowering (debug/test mode; the test suite enables it
        globally via the ``REPRO_VERIFY_IR`` environment variable, which is
        also the default when ``verify`` is ``None``).  ``verify=True`` on a
        cache hit re-verifies the cached instance, catching external
        mutation of the IR arrays.
        """
        from repro.ir.compiled import lower_circuit  # local: avoids a cycle

        if verify is None:
            verify = bool(os.environ.get("REPRO_VERIFY_IR"))
            verify_cached = False
        else:
            verify_cached = verify

        cache = self._compiled_cache
        if cache is None or cache.structure_version != self._structure_version:
            cache = lower_circuit(self)
            self._compiled_cache = cache
            verify_cached = verify
        if verify_cached:
            from repro.verify.ir_checks import verify_compiled  # local: cycle

            verify_compiled(cache, self)
        return cache

    # ------------------------------------------------------------------
    # Change tracking (consumed by incremental re-analysis)
    # ------------------------------------------------------------------
    @property
    def structure_version(self) -> int:
        """Monotone counter bumped on every structural mutation.

        Consumers caching structure-derived data (topological order,
        extracted subcircuits, levelized propagation plans) compare this
        against the version they cached at.
        """
        return self._structure_version

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def primary_inputs(self) -> List[str]:
        """Ordered list of primary-input net names."""
        return list(self._primary_inputs)

    @property
    def primary_outputs(self) -> List[str]:
        """Ordered list of primary-output net names."""
        return list(self._primary_outputs)

    @property
    def gates(self) -> Dict[str, Gate]:
        """Mapping of gate name to :class:`Gate` (live view, do not mutate keys)."""
        return self._gates

    def gate(self, name: str) -> Gate:
        """Return the gate called ``name``."""
        try:
            return self._gates[name]
        except KeyError:
            raise CircuitError(f"no gate named {name!r}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._gates

    def num_gates(self) -> int:
        return len(self._gates)

    def nets(self) -> List[str]:
        """All net names: primary inputs plus every gate output."""
        nets = list(self._primary_inputs)
        nets.extend(g.output for g in self._gates.values())
        return nets

    def is_primary_input(self, net: str) -> bool:
        return net in self._pi_set

    def is_primary_output(self, net: str) -> bool:
        return net in self._po_set

    def driver_of(self, net: str) -> Optional[Gate]:
        """Gate driving ``net``, or ``None`` if it is a primary input."""
        name = self._driver.get(net)
        return self._gates[name] if name is not None else None

    def loads_of(self, net: str) -> List[Gate]:
        """Gates reading ``net`` (deterministic order of insertion)."""
        return [self._gates[n] for n in self._loads.get(net, [])]

    def load_names(self, net: str) -> List[str]:
        """Names of the gates reading ``net`` (same order as :meth:`loads_of`).

        Cheaper than :meth:`loads_of` on hot paths (the IR lowering walks
        every net) because no :class:`Gate` objects are materialised.
        """
        return list(self._loads.get(net, []))

    def fanout_gates(self, gate_name: str) -> List[Gate]:
        """Gates directly driven by the output of ``gate_name``."""
        gate = self.gate(gate_name)
        return self.loads_of(gate.output)

    def fanin_gates(self, gate_name: str) -> List[Gate]:
        """Gates directly driving the inputs of ``gate_name`` (no PIs)."""
        gate = self.gate(gate_name)
        result = []
        for net in gate.inputs:
            drv = self.driver_of(net)
            if drv is not None:
                result.append(drv)
        return result

    # ------------------------------------------------------------------
    # Ordering / levelization
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Gate names in topological (fanin-before-fanout) order.

        Raises :class:`CircuitError` if the circuit contains a combinational
        cycle.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)

        in_degree: Dict[str, int] = {}
        for name, gate in self._gates.items():
            deg = 0
            for net in gate.inputs:
                if net in self._driver:
                    deg += 1
            in_degree[name] = deg

        ready = deque(sorted(n for n, d in in_degree.items() if d == 0))
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            gate = self._gates[name]
            for load_name in self._loads.get(gate.output, []):
                in_degree[load_name] -= 1
                if in_degree[load_name] == 0:
                    ready.append(load_name)

        if len(order) != len(self._gates):
            remaining = sorted(set(self._gates) - set(order))
            raise CircuitError(
                f"circuit {self.name!r} has a combinational cycle involving "
                f"{remaining[:5]}{'...' if len(remaining) > 5 else ''}"
            )
        self._topo_cache = order
        return list(order)

    def levels(self) -> Dict[str, int]:
        """Logic level of every gate (primary inputs are level 0).

        A gate's level is one more than the maximum level of its fanin
        drivers; gates fed only by primary inputs are level 1.
        """
        if self._level_cache is not None:
            return dict(self._level_cache)
        level: Dict[str, int] = {}
        for name in self.topological_order():
            gate = self._gates[name]
            fan_levels = [0]
            for net in gate.inputs:
                drv = self._driver.get(net)
                if drv is not None:
                    fan_levels.append(level[drv])
            level[name] = max(fan_levels) + 1
        self._level_cache = level
        return dict(level)

    def logic_depth(self) -> int:
        """Maximum logic level across all gates (0 for an empty circuit)."""
        levels = self.levels()
        return max(levels.values()) if levels else 0

    # ------------------------------------------------------------------
    # Cones
    # ------------------------------------------------------------------
    def transitive_fanin(self, gate_name: str, depth: Optional[int] = None) -> Set[str]:
        """Gate names in the transitive fanin cone of ``gate_name``.

        ``depth`` limits the traversal to that many gate levels back
        (``depth=1`` is the direct fanin gates); ``None`` means unlimited.
        The seed gate itself is not included.
        """
        return self._cone(gate_name, depth, forward=False)

    def transitive_fanout(self, gate_name: str, depth: Optional[int] = None) -> Set[str]:
        """Gate names in the transitive fanout cone of ``gate_name``."""
        return self._cone(gate_name, depth, forward=True)

    def _cone(self, gate_name: str, depth: Optional[int], forward: bool) -> Set[str]:
        self.gate(gate_name)  # raise early for unknown names
        visited: Set[str] = set()
        frontier = deque([(gate_name, 0)])
        while frontier:
            name, dist = frontier.popleft()
            if depth is not None and dist >= depth:
                continue
            neighbours = (
                self.fanout_gates(name) if forward else self.fanin_gates(name)
            )
            for neighbour in neighbours:
                if neighbour.name not in visited:
                    visited.add(neighbour.name)
                    frontier.append((neighbour.name, dist + 1))
        visited.discard(gate_name)
        return visited

    def output_cone(self, net: str) -> Set[str]:
        """All gate names that can affect the value/timing of ``net``."""
        drv = self.driver_of(net)
        if drv is None:
            return set()
        cone = self.transitive_fanin(drv.name, depth=None)
        cone.add(drv.name)
        return cone

    # ------------------------------------------------------------------
    # Copying / stats
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Structural deep copy (gates are copied; sizes are preserved)."""
        dup = Circuit(name or self.name, self._primary_inputs, self._primary_outputs)
        for gate in self._gates.values():
            dup.add_gate(gate.copy())
        return dup

    def sizes(self) -> Dict[str, int]:
        """Snapshot of every gate's current size index."""
        return {name: gate.size_index for name, gate in self._gates.items()}

    def apply_sizes(self, sizes: Dict[str, int]) -> None:
        """Bulk-apply a size snapshot produced by :meth:`sizes`."""
        for name, idx in sizes.items():
            self.set_size(name, idx)

    def stats(self) -> CircuitStats:
        """Return a :class:`CircuitStats` structural summary."""
        fanouts = [len(self._loads.get(g.output, [])) for g in self._gates.values()]
        fanins = [g.fanin for g in self._gates.values()]
        return CircuitStats(
            name=self.name,
            num_gates=len(self._gates),
            num_primary_inputs=len(self._primary_inputs),
            num_primary_outputs=len(self._primary_outputs),
            num_nets=len(self.nets()),
            logic_depth=self.logic_depth(),
            max_fanout=max(fanouts) if fanouts else 0,
            avg_fanin=(sum(fanins) / len(fanins)) if fanins else 0.0,
        )

    def __iter__(self) -> Iterator[Gate]:
        for name in self.topological_order():
            yield self._gates[name]

    def __len__(self) -> int:
        return len(self._gates)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"Circuit({self.name!r}, gates={len(self._gates)}, "
            f"pis={len(self._primary_inputs)}, pos={len(self._primary_outputs)})"
        )
