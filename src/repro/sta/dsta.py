"""Deterministic (nominal) static timing analysis.

Arrival times are propagated forward through the levelized circuit using the
nominal gate delays from the library delay model; required times are
propagated backward from a clock period (or from the worst arrival time when
no constraint is given); slack = required - arrival.  The critical path is
the chain of gates with the smallest slack — the classic WNS path the paper
generalises into the WNSS path.

The forward pass is the max-plus program of the circuit's compiled IR
(:func:`repro.ir.compiled.propagate_levelized`, the kernel the Monte-Carlo
timer runs with one column per sample) over a single column whose
gate-output rows start out holding the nominal delays of the packed delay
stage (:meth:`BaseDelayModel.nominal_delays
<repro.library.delay_model.BaseDelayModel.nominal_delays>`).  ``max`` over
floats and float addition are exact, so the arrivals equal a gate-by-gate
topological walk bit for bit.  :meth:`DeterministicSTA.max_delay` reads the
primary-output maximum straight from the arrival array.
:meth:`DeterministicSTA.max_delays` times resize trials in one run, a column
each, whose retimed rows (:meth:`CompiledCircuit.resize_rows
<repro.ir.compiled.CompiledCircuit.resize_rows>`) come from the stage's trial form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.compiled import CompiledCircuit, arrival_matrix, propagate_levelized
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span


@dataclass
class DeterministicTimingReport:
    """Result of one deterministic STA run."""

    arrival: Dict[str, float]
    required: Dict[str, float]
    slack: Dict[str, float]
    gate_delays: Dict[str, float]
    critical_path: List[str]
    worst_output: str
    worst_arrival: float
    clock_period: float

    @property
    def wns(self) -> float:
        """Worst negative slack (can be positive when the circuit meets timing)."""
        return self.clock_period - self.worst_arrival

    def path_delay(self) -> float:
        """Sum of gate delays along the critical path."""
        return sum(self.gate_delays[g] for g in self.critical_path)


class DeterministicSTA:
    """Classic nominal static timing analysis over a combinational circuit.

    Parameters
    ----------
    delay_model:
        Library delay model giving nominal gate delays under load.
    """

    def __init__(self, delay_model: BaseDelayModel) -> None:
        self.delay_model = delay_model

    # ------------------------------------------------------------------
    def _propagate(
        self, circuit: Circuit, trials: Optional[Sequence[Tuple[str, int]]] = None
    ) -> Tuple[CompiledCircuit, np.ndarray, np.ndarray]:
        """``(plan, gate delays, arrivals per net slot and trial)``; boundary slots hold 0."""
        METRICS.counter("dsta.runs")
        plan = circuit.compiled()
        delay = self.delay_model.nominal_delays(circuit)
        arr = arrival_matrix(plan, 1 if trials is None else len(trials))
        arr[plan.gate_output_slot] = delay[:, None]
        if trials:
            gate = np.array([plan.gate_index[name] for name, _ in trials], dtype=np.intp)
            size = np.array([size for _, size in trials], dtype=np.intp)
            column, rows = plan.resize_rows(gate)
            arr[plan.gate_output_slot[rows], column] = self.delay_model.nominal_delays(
                circuit, rows, (gate[column], size[column])
            )
        return plan, delay, propagate_levelized(plan, arr)[: plan.num_nets]

    def arrival_times(self, circuit: Circuit) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Forward propagation.

        Returns ``(net_arrival, gate_delays)``: the arrival time at every
        primary input and gate output, and the nominal delay of every gate.
        Primary inputs arrive at time 0; floating nets stay out of the map
        (they read as 0.0 through ``.get``).
        """
        with span("dsta.arrival_times") as sp:
            plan, delay, arr = self._propagate(circuit)
            timed = plan.num_pis + plan.num_gates
            arrival = dict(zip(plan.net_names[:timed], arr[:timed, 0].tolist(), strict=True))
            gate_delays = dict(zip(plan.gate_names, delay.tolist(), strict=True))
            sp.set(gates=plan.num_gates)
        return arrival, gate_delays

    def analyze(
        self, circuit: Circuit, clock_period: Optional[float] = None
    ) -> DeterministicTimingReport:
        """Run full STA and return a :class:`DeterministicTimingReport`.

        When ``clock_period`` is omitted the constraint is set to the worst
        primary-output arrival time, making the worst slack exactly zero.
        """
        arrival, gate_delays = self.arrival_times(circuit)

        outputs = circuit.primary_outputs
        if not outputs:
            raise ValueError(f"circuit {circuit.name!r} has no primary outputs")
        worst_output = max(outputs, key=lambda net: arrival.get(net, 0.0))
        worst_arrival = arrival.get(worst_output, 0.0)
        period = clock_period if clock_period is not None else worst_arrival

        # Backward propagation of required times.
        required: Dict[str, float] = {}
        for net in outputs:
            required[net] = period
        for gate in reversed(list(circuit)):
            out_required = required.get(gate.output)
            if out_required is None:
                # Dangling gate output: unconstrained.
                out_required = period
                required[gate.output] = out_required
            input_required = out_required - gate_delays[gate.name]
            for net in gate.inputs:
                previous = required.get(net)
                if previous is None or input_required < previous:
                    required[net] = input_required

        slack = {
            net: required.get(net, period) - arr for net, arr in arrival.items()
        }

        critical_path = self._trace_critical_path(circuit, arrival, gate_delays, worst_output)
        return DeterministicTimingReport(
            arrival=arrival,
            required=required,
            slack=slack,
            gate_delays=gate_delays,
            critical_path=critical_path,
            worst_output=worst_output,
            worst_arrival=worst_arrival,
            clock_period=period,
        )

    # ------------------------------------------------------------------
    def _trace_critical_path(
        self,
        circuit: Circuit,
        arrival: Dict[str, float],
        gate_delays: Dict[str, float],
        worst_output: str,
    ) -> List[str]:
        """Walk back from the worst output picking the latest-arriving input."""
        path: List[str] = []
        gate = circuit.driver_of(worst_output)
        while gate is not None:
            path.append(gate.name)
            worst_net = max(gate.inputs, key=lambda net: arrival.get(net, 0.0))
            gate = circuit.driver_of(worst_net)
        path.reverse()
        return path

    def critical_path(self, circuit: Circuit) -> List[str]:
        """Gate names along the nominal critical (WNS) path, inputs first."""
        return self.analyze(circuit).critical_path

    def max_delay(self, circuit: Circuit) -> float:
        """Nominal delay of the longest path (worst primary-output arrival).

        An output net no gate drives or reads arrives at 0.
        """
        return self.max_delays(circuit)[0]

    def max_delays(
        self, circuit: Circuit, trials: Optional[Sequence[Tuple[str, int]]] = None
    ) -> List[float]:
        """:meth:`max_delay` at the circuit's sizes, or per ``(gate, size)``
        trial: bitwise ``set_size`` + :meth:`max_delay` + revert, all in one run."""
        if not circuit.primary_outputs:
            raise ValueError(f"circuit {circuit.name!r} has no primary outputs")
        plan, _, arr = self._propagate(circuit, trials)
        outputs = arr[plan.output_mask]
        return outputs.max(axis=0).tolist() if len(outputs) else [0.0] * arr.shape[1]
