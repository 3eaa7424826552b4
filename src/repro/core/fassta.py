"""FASSTA — the fast, moment-based statistical timing engine (paper §4.3).

FASSTA is the inner-loop engine used while evaluating candidate gate sizes.
Instead of carrying full discrete pdfs it carries only the first two moments
of every arrival time (a :class:`~repro.core.rv.NormalDelay`):

* ``sum`` — means and variances add (independent-normal assumption),
* ``max`` — Clark's formulae with the quadratic-cdf approximation plus the
  ±2.6-sigma dominance shortcut (:func:`repro.core.clark.clark_max_fast`).

:meth:`FASSTA.analyze` times a whole :class:`~repro.netlist.circuit.Circuit`
as a levelized program over the circuit's shared array-native IR
(:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`): the
gate-delay moments of every gate come from the packed delay stage in one
call (:meth:`VariationModel.delay_moments
<repro.variation.model.VariationModel.delay_moments>`), then per logic level
(a ``level_offsets`` window of the IR's ``fanin_matrix``)
:func:`fold_level` folds the input positions left to right with the Clark
fast-max over NumPy arrays of μ/σ
(:func:`repro.core.clark.clark_max_fast_arrays`), the pairwise order of
:meth:`NormalDelay.maximum_of`, and adds the delays, so every net's moments
are bitwise those of a gate-by-gate fold.  It always times the whole
circuit, from zero-arrival primary inputs to the primary outputs.  The
sizers' inner loop evaluates extracted two-level subcircuits instead, with
boundary arrival moments recorded by the outer engine, and times every
candidate size of a pass in one batch that runs the same
:func:`fold_level` (:meth:`CostEvaluator.size_sweep_components
<repro.core.cost.CostEvaluator.size_sweep_components>`) — the nesting the
paper describes ("a slower more accurate approach for tracking statistical
critical paths and a fast engine for evaluation of gate size
assignments").  :meth:`FASSTA.gate_delay_rv`, the scalar per-gate query,
serves the scalar reference the batch is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.clark import clark_max_fast_arrays
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.ir.compiled import BoolArray, IntArray
from repro.library.delay_model import BaseDelayModel, FloatArray
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel


@dataclass
class FasstaResult:
    """Arrival-time moments produced by one FASSTA run."""

    arrivals: Dict[str, NormalDelay]
    output_rv: NormalDelay

    def arrival(self, net: str) -> NormalDelay:
        """Arrival-time moments at ``net`` (0 for unknown/primary-input nets)."""
        return self.arrivals.get(net, ZERO_DELAY)

    @property
    def mean(self) -> float:
        """Mean of the circuit-level max arrival (the paper's mu of RV_O)."""
        return self.output_rv.mean

    @property
    def sigma(self) -> float:
        """Standard deviation of the circuit-level max arrival."""
        return self.output_rv.sigma


def fold_level(
    mu: FloatArray,
    sg: FloatArray,
    in_slots: IntArray,
    in_mask: BoolArray,
    delay_mu: FloatArray,
    delay_sg: FloatArray,
) -> Tuple[FloatArray, FloatArray]:
    """Output moments of one level of gates: max over inputs, plus delay.

    Row ``i`` reads the arrival moments ``mu``/``sg`` at its valid input
    slots ``in_slots[i][in_mask[i]]`` and folds them left to right with
    :func:`~repro.core.clark.clark_max_fast_arrays` — the pairwise order of
    :meth:`NormalDelay.maximum_of` — then adds its delay
    (``mu + mu_d``, ``sqrt(sigma^2 + sigma_d^2)``).  Bitwise equal to the
    scalar ``NormalDelay`` fold, gate by gate.  Invalid positions trail the
    valid ones, so the fold stops at the first column with no valid pin.
    """
    worst_mu = mu[in_slots[:, 0]]
    worst_sg = sg[in_slots[:, 0]]
    for col in range(1, in_slots.shape[1]):
        rows = np.flatnonzero(in_mask[:, col])
        if not rows.size:
            break
        max_mu, max_var = clark_max_fast_arrays(
            worst_mu[rows], worst_sg[rows], mu[in_slots[rows, col]], sg[in_slots[rows, col]]
        )
        worst_mu[rows] = max_mu
        worst_sg[rows] = np.sqrt(max_var)
    return worst_mu + delay_mu, np.sqrt(worst_sg * worst_sg + delay_sg * delay_sg)


class FASSTA:
    """Fast moment-propagation SSTA engine.

    Parameters
    ----------
    delay_model:
        Library delay model giving nominal gate delays under load.
    variation_model:
        Process-variation model assigning a sigma to every gate delay.
    """

    def __init__(self, delay_model: BaseDelayModel, variation_model: VariationModel) -> None:
        self.delay_model = delay_model
        self.variation_model = variation_model

    # ------------------------------------------------------------------
    def gate_delay_rv(
        self, circuit: Circuit, gate_name: str, size_index: Optional[int] = None
    ) -> NormalDelay:
        """Delay distribution of one gate (optionally at a hypothetical size).

        The scalar query, read from the live gate: it sees a trial size
        written straight into ``Gate.size_index``, which the packed stage
        behind :meth:`analyze` does not (its trial form takes trial sizes
        as arguments instead).
        """
        gate = circuit.gate(gate_name)
        dist = self.variation_model.gate_distribution(
            circuit, gate, self.delay_model, size_index
        )
        return NormalDelay(dist.mean, dist.sigma)

    # ------------------------------------------------------------------
    def analyze(self, circuit: Circuit) -> FasstaResult:
        """Propagate arrival-time moments through ``circuit``.

        Primary inputs and floating nets arrive at ``NormalDelay(0, 0)``;
        the circuit-level max is taken over the primary outputs.  A primary
        output no gate drives raises ``KeyError`` naming the net instead of
        silently timing as zero.
        """
        METRICS.counter("fassta.runs")
        with span("fassta.analyze") as sp:
            arrivals = self._propagate(circuit)
            sp.set(gates=circuit.num_gates())
        return self._build_result(circuit, arrivals)

    # ------------------------------------------------------------------
    def _propagate(self, circuit: Circuit) -> Dict[str, NormalDelay]:
        plan = circuit.compiled()

        mu = np.zeros(plan.num_nets + 1)  # + the fanin sentinel
        sg = np.zeros(plan.num_nets + 1)
        delay_mu, delay_sg = self.variation_model.delay_moments(circuit, self.delay_model)
        for lo, hi in pairwise(plan.level_offsets.tolist()):
            in_slots = plan.fanin_matrix[lo:hi]
            out = slice(plan.num_pis + lo, plan.num_pis + hi)
            mu[out], sg[out] = fold_level(
                mu, sg, in_slots, in_slots != plan.num_nets, delay_mu[lo:hi], delay_sg[lo:hi]
            )

        return {
            net: NormalDelay(float(mu[idx]), float(sg[idx]))
            for net, idx in plan.net_index.items()
            if net not in plan.floating
        }

    # ------------------------------------------------------------------
    def _build_result(
        self, circuit: Circuit, arrivals: Dict[str, NormalDelay]
    ) -> FasstaResult:
        output_nets = circuit.primary_outputs
        if not output_nets:
            raise ValueError(f"circuit {circuit.name!r} has no outputs to time")
        missing = [net for net in output_nets if net not in arrivals]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )
        output_rv = NormalDelay.maximum_of([arrivals[net] for net in output_nets])
        return FasstaResult(arrivals=arrivals, output_rv=output_rv)
