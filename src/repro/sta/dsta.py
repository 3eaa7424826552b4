"""Deterministic (nominal) static timing analysis.

Arrival times are propagated forward through the levelized circuit using the
nominal gate delays from the library delay model; required times are
propagated backward from a clock period (or from the worst arrival time when
no constraint is given); slack = required - arrival.  The critical path is
the chain of gates with the smallest slack — the classic WNS path the paper
generalises into the WNSS path.

:class:`NominalTimer` is the one timer: committed delays and arrivals,
previews from the lowest dirty level (a column per trial, through the IR's
max-plus kernel :func:`repro.ir.compiled.propagate_levelized`) and a
report from one reverse levelized pass; a first run is a preview with every
gate dirty.  ``max`` and float addition are exact, so every column equals a
gate-by-gate topological walk bit for bit.  :class:`DeterministicSTA`'s
queries wrap a fresh timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.ir.compiled import CompiledCircuit, arrival_matrix, propagate_levelized
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span


def _named(names: Sequence[str], values: np.ndarray) -> Dict[str, float]:
    """``{name: value}`` over the first ``len(names)`` entries of ``values``."""
    return dict(zip(names, values[: len(names)].tolist(), strict=True))


@dataclass(eq=False)
class DeterministicTimingReport:
    """Result of one deterministic STA run.

    ``arrivals``, ``required_times`` and ``slacks`` hold one entry per net
    slot of ``plan`` and ``delays`` one per gate id.  The name-keyed maps
    are built on first read: ``arrival`` and ``slack`` cover the primary
    inputs and gate outputs (a floating net reads as 0.0 through ``.get``),
    ``required`` every slot (a net nothing reads or constrains is required
    at the period).
    """

    plan: CompiledCircuit
    arrivals: np.ndarray
    required_times: np.ndarray
    slacks: np.ndarray
    delays: np.ndarray
    critical_path: List[str]
    worst_output: str
    worst_arrival: float
    clock_period: float

    @cached_property
    def arrival(self) -> Dict[str, float]:
        return _named(self.plan.net_names[: self.plan.num_pis + self.plan.num_gates], self.arrivals)

    @cached_property
    def required(self) -> Dict[str, float]:
        return _named(self.plan.net_names, self.required_times)

    @cached_property
    def slack(self) -> Dict[str, float]:
        return _named(self.plan.net_names[: self.plan.num_pis + self.plan.num_gates], self.slacks)

    @cached_property
    def gate_delays(self) -> Dict[str, float]:
        return _named(self.plan.gate_names, self.delays)

    @property
    def wns(self) -> float:
        """Worst negative slack (can be positive when the circuit meets timing)."""
        return self.clock_period - self.worst_arrival

    def path_delay(self) -> float:
        """Sum of gate delays along the critical path."""
        return sum(self.gate_delays[g] for g in self.critical_path)


class _Timing(NamedTuple):
    """Timed states, one per column: size and nominal delay per gate id, and
    arrival per net slot plus the ``-inf`` fanin sentinel."""

    sizes: np.ndarray
    delays: np.ndarray
    arrivals: np.ndarray

    def column(self, j: int) -> "_Timing":
        return _Timing(*(matrix[:, j:j + 1].copy() for matrix in self))


class NominalTimer:
    """Committed nominal STA of one circuit behind ``IncrementalReanalysis``'s protocol.

    A result is a worst delay (0.0 when no output has a net slot).
    :meth:`analyze` commits the circuit's sizes; :meth:`preview` times them
    and stays held, so an ``analyze()`` at those sizes commits it without
    propagating; ``preview(trials)`` times each ``(gate, size)`` against the
    committed sizes, which the circuit must hold, and ``commit_preview(j)``
    keeps trial ``j`` once the circuit holds it.  A structural edit resets
    the timer, so its next run retimes every gate.
    """

    def __init__(self, delay_model: BaseDelayModel, circuit: Circuit) -> None:
        self.delay_model, self.circuit = delay_model, circuit
        self._version: Optional[int] = None
        self._state = _Timing(*[np.empty((0, 1))] * 3)  # the committed column
        self._bulk: Optional[_Timing] = None  # the last no-argument preview
        self._pending: Optional[_Timing] = None  # the last preview, until a commit

    @property
    def arrivals(self) -> np.ndarray:
        """Committed arrival per net slot; the last entry is the ``-inf`` fanin sentinel."""
        return self._state.arrivals[:, 0]

    @property
    def delays(self) -> np.ndarray:
        """Committed nominal delay per gate id."""
        return self._state.delays[:, 0]

    def analyze(self) -> float:
        """Commit the circuit's sizes (the held preview, when it has them) and time them."""
        plan = self._plan()
        bulk, self._bulk, self._pending = self._bulk, None, None
        held = bulk is not None and np.array_equal(bulk.sizes[:, 0], plan.size_index)
        self._state = bulk if held else self._retime(plan)
        return float(self._worst(plan, self._state.arrivals)[0])

    def preview(self, trials: Optional[Sequence[Tuple[str, int]]] = None):
        """Worst delay at the circuit's sizes, or a list of one per ``(gate, size)`` trial."""
        plan = self._plan()
        if trials is None:
            self._pending = self._bulk = self._retime(plan)
            return float(self._worst(plan, self._bulk.arrivals)[0])
        if not np.array_equal(plan.size_index, self._state.sizes[:, 0]):
            raise ValueError("preview(trials) needs the committed sizes; call analyze() first")
        gates = np.array([plan.gate_index[name] for name, _ in trials], dtype=np.intp)
        sizes = np.array([size for _, size in trials], dtype=np.intp)
        trial_sizes, delays = (np.repeat(m, len(trials), axis=1) for m in self._state[:2])
        trial_sizes[gates, np.arange(len(trials))] = sizes
        trial, rows = plan.resize_rows(gates)
        delays[rows, trial] = self.delay_model.nominal_delays(
            self.circuit, rows, (gates[trial], sizes[trial]))
        self._pending = self._time(plan, trial_sizes, delays, rows)
        return self._worst(plan, self._pending.arrivals).tolist()

    def commit_preview(self, index: int = 0) -> bool:
        """Commit column ``index`` of the last preview; False (committing
        nothing) without one or when the circuit does not hold its sizes."""
        plan = self._plan()
        timing = None if self._pending is None else self._pending.column(index)
        if timing is None or not np.array_equal(timing.sizes[:, 0], plan.size_index):
            return False
        self._state, self._pending = timing, None
        return True

    def report(self, clock_period: Optional[float] = None) -> DeterministicTimingReport:
        """Commit the circuit's sizes and report them: one reverse levelized pass.

        Without ``clock_period`` the period is the worst output's arrival,
        which makes the worst slack zero.  The worst output is the first
        primary output with the latest arrival; the critical path walks back
        from its driver through each gate's first latest-arriving input pin.
        """
        self.analyze()
        outputs = self.circuit.primary_outputs
        plan, arrivals, delays = self.circuit.compiled(), self.arrivals, self.delays
        with span("dsta.report", gates=plan.num_gates):
            slots = np.array([plan.net_index.get(net, plan.num_nets) for net in outputs])
            at = np.where(slots < plan.num_nets, arrivals[slots], 0.0)
            worst = int(at.argmax())
            period = float(at[worst]) if clock_period is None else clock_period
            # Sinks (outputs, and nets nothing reads) start at the period; each
            # level's required input times fold into its fanin slots by min.
            sinks = plan.output_mask | (np.diff(plan.fanout_indptr) == 0)
            required = np.append(np.where(sinks, period, np.inf), np.inf)  # + the fanin sentinel
            for lo, hi in reversed(list(pairwise(plan.level_offsets.tolist()))):
                need = required[plan.num_pis + lo: plan.num_pis + hi] - delays[lo:hi]
                np.minimum.at(required, plan.fanin_matrix[lo:hi], need[:, None])
            path, gate = [], int(slots[worst]) - plan.num_pis
            while 0 <= gate < plan.num_gates:
                path.append(plan.gate_names[gate])
                pins = plan.gate_fanin_slots(gate)
                gate = int(pins[arrivals[pins].argmax()]) - plan.num_pis
        return DeterministicTimingReport(
            plan, arrivals[:-1], required[:-1], required[:-1] - arrivals[:-1], delays,
            path[::-1], outputs[worst], float(at[worst]), period,
        )

    # ------------------------------------------------------------------
    def _plan(self) -> CompiledCircuit:
        """The circuit's IR; after a structural edit, the committed state times nothing."""
        plan = self.circuit.compiled()
        if self._version != plan.structure_version:
            if not self.circuit.primary_outputs:
                raise ValueError(f"circuit {self.circuit.name!r} has no primary outputs")
            self._version, self._bulk, self._pending = plan.structure_version, None, None
            unsized = np.full((plan.num_gates, 1), -1, dtype=np.intp)
            self._state = _Timing(unsized, np.zeros((plan.num_gates, 1)), arrival_matrix(plan, 1))
        return plan

    def _retime(self, plan: CompiledCircuit) -> _Timing:
        """The committed state moved to the sizes the IR holds (itself when they match)."""
        changed = np.flatnonzero(plan.size_index != self._state.sizes[:, 0])
        if not changed.size:
            return self._state
        rows = np.unique(plan.resize_rows(changed)[1]) if changed.size < plan.num_gates else changed
        delays = self._state.delays.copy()
        delays[rows, 0] = self.delay_model.nominal_delays(self.circuit, rows)
        return self._time(plan, plan.size_index[:, None].copy(), delays, rows)

    def _time(
        self, plan: CompiledCircuit, sizes: np.ndarray, delays: np.ndarray, rows: np.ndarray
    ) -> _Timing:
        """Arrival columns of states whose delays differ from the committed
        ones only at gate ids ``rows``, propagated from the lowest of their levels."""
        first = int(plan.level_offsets.searchsorted(rows.min(initial=plan.num_gates), "right")) - 1
        METRICS.counter("dsta.runs")
        with span("dsta.preview", trials=sizes.shape[1], first_level=first, rows=rows.size):
            arrivals = np.repeat(self._state.arrivals, sizes.shape[1], axis=1)
            start = plan.level_offsets[first]
            arrivals[plan.num_pis + start: plan.num_pis + plan.num_gates] = delays[start:]
            propagate_levelized(plan, arrivals, first)
        return _Timing(sizes, delays, arrivals)

    @staticmethod
    def _worst(plan: CompiledCircuit, arrivals: np.ndarray) -> np.ndarray:
        """Per column, the latest arrival over the output slots (0.0 without any)."""
        outputs = arrivals[np.flatnonzero(plan.output_mask)]
        return outputs.max(axis=0) if len(outputs) else np.zeros(arrivals.shape[1])


class DeterministicSTA:
    """Classic nominal STA: each query times the circuit with a fresh :class:`NominalTimer`."""

    def __init__(self, delay_model: BaseDelayModel) -> None:
        self.delay_model = delay_model

    def arrival_times(self, circuit: Circuit) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(net_arrival, gate_delays)``: the arrival at every primary input
        (time 0) and gate output, floating nets left out (they read as 0.0
        through ``.get``), and the nominal delay of every gate."""
        with span("dsta.arrival_times", gates=circuit.num_gates()):
            timer = NominalTimer(self.delay_model, circuit)
            timer.analyze()
            plan = circuit.compiled()
            arrival = _named(plan.net_names[: plan.num_pis + plan.num_gates], timer.arrivals)
        return arrival, _named(plan.gate_names, timer.delays)

    def analyze(
        self, circuit: Circuit, clock_period: Optional[float] = None
    ) -> DeterministicTimingReport:
        """Full STA (see :meth:`NominalTimer.report`); without ``clock_period``
        the worst slack is exactly zero."""
        return NominalTimer(self.delay_model, circuit).report(clock_period)

    def critical_path(self, circuit: Circuit) -> List[str]:
        """Gate names along the nominal critical (WNS) path, inputs first."""
        return self.analyze(circuit).critical_path

    def max_delay(self, circuit: Circuit) -> float:
        """Worst primary-output arrival; an output nothing drives or reads arrives at 0."""
        return self.max_delays(circuit)[0]

    def max_delays(
        self, circuit: Circuit, trials: Optional[Sequence[Tuple[str, int]]] = None
    ) -> List[float]:
        """:meth:`max_delay` at the circuit's sizes, or per ``(gate, size)``
        trial: bitwise ``set_size`` + :meth:`max_delay` + revert."""
        timer = NominalTimer(self.delay_model, circuit)
        delay = timer.analyze()
        return [delay] if trials is None else timer.preview(trials)
