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

Each model answers the same question two ways:

* **The packed delay stage**, :meth:`BaseDelayModel.nominal_delays`: the
  nominal delay of every gate of a circuit (or of a gate-id subset), in
  the order of its compiled IR, in a handful of numpy ops.  The library is
  packed once per IR cell vocabulary into per-(cell, size) arrays
  (:class:`PackedCells`); loads are ``np.bincount`` sums over the IR's
  fanout CSR and the tables are interpolated branch for branch like
  :func:`~repro.library.cell._interpolate_table`.  The result is bitwise
  equal to the scalar query below.  Every whole-circuit timing pass (DSTA,
  FASSTA, FULLSSTA, Monte Carlo) reads it, through
  :meth:`VariationModel.delay_moments
  <repro.variation.model.VariationModel.delay_moments>` for the
  statistical ones, and so does the sizers' batched candidate sweep,
  through the stage's trial form (a gate timed as if one other gate, or
  itself, were at a trial size).  It reads sizes from the IR, which
  :meth:`Circuit.set_size <repro.netlist.circuit.Circuit.set_size>` writes,
  so a size written straight into ``Gate.size_index`` is invisible to it.
* **The scalar query**, :meth:`BaseDelayModel.gate_delay_at_size`: one gate,
  read from the live :class:`~repro.netlist.gate.Gate` objects.  Only the
  baseline's gate-by-gate area recovery and the DRC load rules use it, plus
  the scalar sweep reference the batched sweep is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.library.cell import CellSize, Library
from repro.netlist.circuit import Circuit
from repro.netlist.gate import Gate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.compiled import CompiledCircuit

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.intp]
#: ``(trial_ids, trial_sizes)``: per row, a gate and the size to time it at.
Trial = Tuple[IntArray, IntArray]


@dataclass
class PackedCells:
    """One library packed over one IR cell vocabulary.

    Row ``cell_id * width + size_index`` of every per-row array describes
    one (cell, size) pair, where ``cell_id`` indexes the vocabulary
    (:attr:`CompiledCircuit.cell_types <repro.ir.compiled.CompiledCircuit>`)
    and ``width`` is its largest size count.  Delay tables are sorted once
    and padded with their last point, so a one-point table reads as a
    zero-width segment; ``table_len`` is 0 for a size without a table.
    """

    cell_types: Tuple[str, ...]
    width: int
    num_sizes: IntArray  # (cells,)
    drive: List[float]  # (rows,)
    area: FloatArray  # (rows,)
    input_cap: FloatArray  # (rows,)
    intrinsic: FloatArray  # (rows,)
    resistance: FloatArray  # (rows,)
    table_len: IntArray  # (rows,)
    table_x: FloatArray  # (rows, points)
    table_y: FloatArray  # (rows, points)
    _drive_pow: Dict[float, FloatArray] = field(default_factory=dict, repr=False)

    @classmethod
    def pack(cls, library: Library, cell_types: Sequence[str]) -> "PackedCells":
        cells = [library.cell(name) for name in cell_types]
        width = max((cell.num_sizes for cell in cells), default=0)
        sizes: List[Optional[CellSize]] = [
            cell.sizes[i] if i < cell.num_sizes else None
            for cell in cells
            for i in range(width)
        ]
        tables = [sorted(size.delay_table) if size else [] for size in sizes]
        points = max([2, *(len(table) for table in tables)])
        table_x = np.zeros((len(sizes), points))
        table_y = np.zeros((len(sizes), points))
        for row, table in enumerate(tables):
            if table:
                padded = table + [table[-1]] * (points - len(table))
                table_x[row], table_y[row] = zip(*padded, strict=True)
        return cls(
            cell_types=tuple(cell_types),
            width=width,
            num_sizes=np.array([cell.num_sizes for cell in cells], dtype=np.intp),
            drive=[size.drive if size else 1.0 for size in sizes],
            area=np.array([size.area if size else 0.0 for size in sizes]),
            input_cap=np.array([size.input_cap if size else 0.0 for size in sizes]),
            intrinsic=np.array([size.intrinsic_delay if size else 0.0 for size in sizes]),
            resistance=np.array([size.drive_resistance if size else 0.0 for size in sizes]),
            table_len=np.array([len(table) for table in tables], dtype=np.intp),
            table_x=table_x,
            table_y=table_y,
        )

    # ------------------------------------------------------------------
    def rows(
        self,
        plan: "CompiledCircuit",
        gate_ids: Optional[IntArray] = None,
        trial: Optional[Trial] = None,
    ) -> IntArray:
        """The (cell, size) row of every gate, or of ``gate_ids``.

        With ``trial = (trial_ids, trial_sizes)`` (and ``gate_ids``), entry
        ``i`` is at size ``trial_sizes[i]`` when ``gate_ids[i]`` is
        ``trial_ids[i]``.  Raises ``IndexError`` for a size the cell does
        not have, like :meth:`CellType.size <repro.library.cell.CellType.size>`.
        """
        cells = plan.cell_type_ids
        sizes = plan.size_index
        if gate_ids is not None:
            cells, sizes = cells[gate_ids], sizes[gate_ids]
        if trial is not None:
            trial_ids, trial_sizes = trial
            sizes = np.where(gate_ids == trial_ids, trial_sizes, sizes)
        bad = (sizes < 0) | (sizes >= self.num_sizes[cells])
        if bad.any():
            first = int(bad.argmax())
            cell, size = int(cells[first]), int(sizes[first])
            raise IndexError(
                f"cell type {self.cell_types[cell]!r}: size index {size} out of "
                f"range (has {self.num_sizes[cell]} sizes)"
            )
        return cells * self.width + sizes

    def drive_pow(self, exponent: float) -> FloatArray:
        """``drive ** exponent`` per row, evaluated with Python's ``**``.

        numpy's ``power`` may round differently in the last bit, so the
        scalar :meth:`VariationModel.sigma_for
        <repro.variation.model.VariationModel.sigma_for>` arithmetic is
        replayed once per row and memoized per exponent.
        """
        table = self._drive_pow.get(exponent)
        if table is None:
            table = np.array([drive ** exponent for drive in self.drive])
            self._drive_pow[exponent] = table
        return table

    # ------------------------------------------------------------------
    def linear_delays(self, rows: IntArray, load: FloatArray) -> FloatArray:
        """:meth:`CellSize.linear_delay <repro.library.cell.CellSize.linear_delay>` per row."""
        return self.intrinsic[rows] + self.resistance[rows] * np.where(0.0 > load, 0.0, load)

    def table_delays(self, rows: IntArray, load: FloatArray) -> FloatArray:
        """:meth:`Library.delay <repro.library.cell.Library.delay>` per row.

        Replays :func:`~repro.library.cell._interpolate_table` branch for
        branch: the first segment at or below the table's first load, the
        last at or above its last load, otherwise the segment whose right
        end is the first point at or past the load.  Sizes without a table
        fall back to the linear-RC expression.
        """
        count = self.table_len[rows]
        if not count.any():
            return self.linear_delays(rows, load)
        x, y = self.table_x[rows], self.table_y[rows]
        segment = (x < load[:, None]).sum(axis=1) - 1
        segment = np.where(load <= x[:, 0], 0, np.where(load >= x[:, -1], count - 2, segment))
        # A one-point table (count - 2 == -1) reads its padded pair (p0, p0).
        gate = np.arange(len(rows))
        lo = np.maximum(segment, 0)
        x0, x1, y0, y1 = x[gate, lo], x[gate, lo + 1], y[gate, lo], y[gate, lo + 1]
        flat = x1 == x0
        frac = (load - x0) / np.where(flat, 1.0, x1 - x0)
        value = np.where(flat, y0, y0 + frac * (y1 - y0))
        value = np.where(0.0 > value, 0.0, value)
        if count.all():
            return value
        return np.where(count > 0, value, self.linear_delays(rows, load))


class BaseDelayModel:
    """Shared load computation for all delay models."""

    def __init__(self, library: Library) -> None:
        self.library = library
        self._packed: Dict[Tuple[str, ...], PackedCells] = {}

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

    # -- the packed delay stage -------------------------------------------
    def packed(self, plan: "CompiledCircuit") -> PackedCells:
        """The library packed over ``plan``'s cell vocabulary (once per vocabulary)."""
        key = tuple(plan.cell_types)
        pack = self._packed.get(key)
        if pack is None:
            pack = self._packed[key] = PackedCells.pack(self.library, key)
        return pack

    def nominal_delays(
        self,
        circuit: Circuit,
        gate_ids: Optional[IntArray] = None,
        trial: Optional[Trial] = None,
    ) -> FloatArray:
        """Nominal delay (ps) of every gate, or of ``gate_ids``, in IR gate order.

        Bitwise equal to :meth:`gate_delay` per gate, with the sizes the
        compiled IR holds.  Each gate's load sums its output net's fanout
        pins in load order, one by one from 0.0 (``np.bincount``), the
        order :meth:`load_on_net` adds them in; a subset call therefore
        equals the matching rows of a whole-circuit call.

        The trial form, ``trial = (trial_ids, trial_sizes)`` (both the
        length of ``gate_ids``), times row ``i`` as if gate ``trial_ids[i]``
        were at size ``trial_sizes[i]``: the gate's own row when it is that
        gate, and the input cap of every fanout pin that gate holds.  That
        is bitwise :meth:`gate_delay` with the trial size written into
        ``Gate.size_index``.
        """
        plan = circuit.compiled()
        pack = self.packed(plan)
        rows = pack.rows(plan, gate_ids, trial)
        slots = plan.gate_output_slot if gate_ids is None else plan.gate_output_slot[gate_ids]
        starts = plan.fanout_indptr[slots]
        counts = plan.fanout_indptr[slots + 1] - starts
        # Fanout entries of every selected output net, net by net.
        owner = np.repeat(np.arange(len(slots)), counts)
        entries = np.arange(owner.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        reader_trial = None if trial is None else (trial[0][owner], trial[1][owner])
        caps = pack.input_cap[pack.rows(plan, plan.fanout_gates[entries], reader_trial)]
        load = (
            np.bincount(owner, weights=caps, minlength=len(slots))
            + self.library.wire_cap_per_fanout * counts
        )
        load[plan.output_mask[slots]] += self.library.default_output_load
        return self._packed_delays(pack, rows, load)

    def _packed_delays(self, pack: PackedCells, rows: IntArray, load: FloatArray) -> FloatArray:
        raise NotImplementedError

    def circuit_area(self, circuit: Circuit) -> float:
        """Total cell area (µm²) at the IR's sizes: the packed per-(cell, size)
        areas, added by ``sum`` in ``circuit.gates`` order, as gate by gate."""
        plan = circuit.compiled()
        pack = self.packed(plan)
        area = pack.area[pack.rows(plan)]
        return sum(area[[plan.gate_index[name] for name in circuit.gates]].tolist())


class LinearRCDelayModel(BaseDelayModel):
    """``delay = intrinsic + drive_resistance * load`` for every cell size."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        size = self.library.size(gate.cell_type, gate.size_index)
        return size.linear_delay(self.load_on_gate(circuit, gate))

    def gate_delay_at_size(self, circuit: Circuit, gate: Gate, size_index: int) -> float:
        size = self.library.size(gate.cell_type, size_index)
        return size.linear_delay(self.load_on_gate(circuit, gate))

    def _packed_delays(self, pack: PackedCells, rows: IntArray, load: FloatArray) -> FloatArray:
        return pack.linear_delays(rows, load)


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

    def _packed_delays(self, pack: PackedCells, rows: IntArray, load: FloatArray) -> FloatArray:
        return pack.table_delays(rows, load)


def make_delay_model(library: Library, kind: str = "lut") -> BaseDelayModel:
    """Factory: ``kind`` is ``"lut"`` or ``"linear"``."""
    if kind == "lut":
        return LookupTableDelayModel(library)
    if kind == "linear":
        return LinearRCDelayModel(library)
    raise ValueError(f"unknown delay model kind {kind!r}")
