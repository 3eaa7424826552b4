"""Deterministic (nominal) static timing analysis.

Arrival times are propagated forward through the levelized circuit using the
nominal gate delays from the library delay model; required times are
propagated backward from a clock period (or from the worst arrival time when
no constraint is given); slack = required - arrival.  The critical path is
the chain of gates with the smallest slack — the classic WNS path the paper
generalises into the WNSS path.

:class:`NominalTimer` is the one timer: committed sizes, delays and
arrivals, previews as deltas against them (the retimed delay rows and an
arrival column per trial, propagated from the lowest dirty level through
the IR's max-plus kernel :func:`repro.ir.compiled.propagate_levelized`)
and a report from one reverse levelized pass; a first run is a preview
with every gate dirty.  ``max`` and float addition are exact, so every
column equals a gate-by-gate topological walk bit for bit.
:class:`DeterministicSTA`'s queries wrap a fresh timer.
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


class _Delta(NamedTuple):
    """One timed state against the committed one: the resized gate ids and
    their sizes, the retimed delay rows and their delays, and the arrival
    column per net slot plus the ``-inf`` fanin sentinel."""

    gate_ids: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    delays: np.ndarray
    arrivals: np.ndarray


class NominalTimer:
    """Committed nominal STA of one circuit behind ``IncrementalReanalysis``'s protocol.

    A result is a worst delay (0.0 when no output has a net slot).
    :meth:`analyze` commits the circuit's sizes; :meth:`preview` times them
    and stays held, so an ``analyze()`` at those sizes commits it without
    propagating; ``preview(trials)`` times each ``(gate, size)`` against the
    committed sizes, which the circuit must hold, and ``commit_preview(j)``
    keeps trial ``j`` once the circuit holds it.  The committed state is
    three vectors (size and delay per gate id, arrival per net slot); a
    previewed state is a delta against them, and a commit replaces them, so
    an earlier :meth:`report` keeps its own.  A structural edit resets the
    timer, so its next run retimes every gate.
    """

    def __init__(self, delay_model: BaseDelayModel, circuit: Circuit) -> None:
        self.delay_model, self.circuit = delay_model, circuit
        self._version: Optional[int] = None
        self._sizes = np.empty(0, dtype=np.intp)  # the committed size per gate id ...
        self.delays = np.empty(0)  # ... nominal delay per gate id ...
        self.arrivals = np.empty(0)  # ... and arrival per net slot, then the -inf sentinel
        self._bulk: Optional[_Delta] = None  # the last no-argument preview
        self._pending: Optional[List[_Delta]] = None  # the last preview, until a commit

    def analyze(self) -> float:
        """Commit the circuit's sizes (the held preview, when it has them) and time them."""
        plan = self._plan()
        bulk = self._bulk
        self._commit(bulk if bulk is not None and self._holds(bulk) else self._retime(plan))
        return float(self._worst(plan, self.arrivals))

    def preview(self, trials: Optional[Sequence[Tuple[str, int]]] = None):
        """Worst delay at the circuit's sizes, or a list of one per ``(gate, size)`` trial."""
        plan = self._plan()
        if trials is None:
            self._bulk = self._retime(plan)
            self._pending = [self._bulk]
            return float(self._worst(plan, self._bulk.arrivals))
        if not np.array_equal(plan.size_index, self._sizes):
            raise ValueError("preview(trials) needs the committed sizes; call analyze() first")
        gates = np.array([plan.gate_index[name] for name, _ in trials], dtype=np.intp)
        sizes = np.array([size for _, size in trials], dtype=np.intp)
        trial, rows = plan.resize_rows(gates)
        delays = self.delay_model.nominal_delays(self.circuit, rows, (gates[trial], sizes[trial]))
        arrivals = self._time(plan, len(trials), trial, rows, delays)
        cuts = np.searchsorted(trial, np.arange(len(trials) + 1)).tolist()
        self._pending = [
            _Delta(gates[j:j + 1], sizes[j:j + 1], rows[lo:hi], delays[lo:hi], arrivals[:, j])
            for j, (lo, hi) in enumerate(pairwise(cuts))
        ]
        return self._worst(plan, arrivals).tolist()

    def commit_preview(self, index: int = 0) -> bool:
        """Commit trial ``index`` of the last preview; False (committing
        nothing) without one or when the circuit does not hold its sizes."""
        self._plan()
        if self._pending is None or not self._holds(self._pending[index]):
            return False
        self._commit(self._pending[index])
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
            self._sizes = np.full(plan.num_gates, -1, dtype=np.intp)
            self.delays = np.zeros(plan.num_gates)
            self.arrivals = arrival_matrix(plan, 1)[:, 0]
        return plan

    def _holds(self, delta: _Delta) -> bool:
        """Does the IR hold the committed sizes with ``delta``'s laid over them?"""
        sizes = self._sizes.copy()
        sizes[delta.gate_ids] = delta.sizes
        return bool(np.array_equal(self.circuit.compiled().size_index, sizes))

    def _commit(self, delta: _Delta) -> None:
        """Make ``delta`` the committed state, in new vectors; drops every preview."""
        self._sizes, self.delays = self._sizes.copy(), self.delays.copy()
        self._sizes[delta.gate_ids], self.delays[delta.rows] = delta.sizes, delta.delays
        self.arrivals = np.ascontiguousarray(delta.arrivals)
        self._bulk = self._pending = None

    def _retime(self, plan: CompiledCircuit) -> _Delta:
        """The sizes the IR holds as a delta (an empty one when they are committed)."""
        changed = np.flatnonzero(plan.size_index != self._sizes)
        if not changed.size:
            return _Delta(changed, changed, changed, np.empty(0), self.arrivals)
        rows = np.unique(plan.resize_rows(changed)[1]) if changed.size < plan.num_gates else changed
        delays = self.delay_model.nominal_delays(self.circuit, rows)
        arrivals = self._time(plan, 1, np.zeros(rows.size, dtype=np.intp), rows, delays)
        return _Delta(changed, plan.size_index[changed], rows, delays, arrivals[:, 0])

    def _time(
        self, plan: CompiledCircuit, count: int, trial: np.ndarray, rows: np.ndarray,
        delays: np.ndarray,
    ) -> np.ndarray:
        """Arrival columns of ``count`` states, column ``trial[i]`` with the
        delay of gate id ``rows[i]`` at ``delays[i]`` and every other one
        committed, propagated from the lowest level of ``rows``."""
        first = int(plan.level_offsets.searchsorted(rows.min(initial=plan.num_gates), "right")) - 1
        METRICS.counter("dsta.runs")
        with span("dsta.preview", trials=count, first_level=first, rows=rows.size):
            arrivals = np.empty((plan.num_nets + 1, count))
            arrivals[:] = self.arrivals[:, None]
            start = plan.level_offsets[first]
            arrivals[plan.num_pis + start: plan.num_pis + plan.num_gates] = self.delays[start:, None]
            arrivals[plan.num_pis + rows, trial] = delays
            propagate_levelized(plan, arrivals, first)
        return arrivals

    @staticmethod
    def _worst(plan: CompiledCircuit, arrivals: np.ndarray) -> np.ndarray:
        """Per column, the latest arrival over the output slots (0.0 without any)."""
        outputs = arrivals[np.flatnonzero(plan.output_mask)]
        return outputs.max(axis=0) if len(outputs) else np.zeros(arrivals.shape[1:])


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
