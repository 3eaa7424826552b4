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
the Clark fast-max folds the input positions left to right over NumPy arrays
of μ/σ (:func:`repro.core.clark.clark_max_fast_arrays`), the pairwise order
of :meth:`NormalDelay.maximum_of`, so every net's moments agree with a
gate-by-gate fold within 1e-9 ps (``tests/core/test_incremental.py``).  It
always times the whole circuit, from zero-arrival primary inputs to the
primary outputs.  The sizers' inner loop evaluates
extracted two-level subcircuits instead, with boundary arrival moments
recorded by the outer engine (:meth:`CostEvaluator.subcircuit_arrivals
<repro.core.cost.CostEvaluator.subcircuit_arrivals>`), and times trial sizes
with this engine's scalar per-gate query (:meth:`FASSTA.gate_delay_rv`,
which sees a size written straight into ``Gate.size_index``) — the nesting
the paper describes ("a slower more accurate approach for tracking
statistical critical paths and a fast engine for evaluation of gate size
assignments").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.clark import clark_max_fast_arrays
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel


@dataclass
class FasstaResult:
    """Arrival-time moments produced by one FASSTA run."""

    arrivals: Dict[str, NormalDelay]
    gate_delays: Dict[str, NormalDelay]
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
        behind :meth:`analyze` does not.
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
            arrivals, gate_delays = self._propagate(circuit)
            sp.set(gates=len(gate_delays))
        return self._build_result(circuit, arrivals, gate_delays)

    # ------------------------------------------------------------------
    def _propagate(
        self, circuit: Circuit
    ) -> Tuple[Dict[str, NormalDelay], Dict[str, NormalDelay]]:
        plan = circuit.compiled()

        mu = np.zeros(plan.num_nets)
        sg = np.zeros(plan.num_nets)
        delay_mu, delay_sg = self.variation_model.delay_moments(circuit, self.delay_model)
        gate_delays = dict(
            zip(
                plan.gate_names,
                map(NormalDelay, delay_mu.tolist(), delay_sg.tolist()),
                strict=True,
            )
        )
        for block in plan.levels:
            out_ids, in_ids, in_mask = block.out_slots, block.in_slots, block.in_mask
            d_mu = delay_mu[block.gate_ids]
            d_sg = delay_sg[block.gate_ids]

            # Left-to-right pairwise fold over input positions, masked so a
            # gate with fewer inputs keeps its running max untouched — the
            # fold order of NormalDelay.maximum_of.
            worst_mu = mu[in_ids[:, 0]]
            worst_sg = sg[in_ids[:, 0]]
            for col in range(1, in_ids.shape[1]):
                mask = in_mask[:, col]
                cand_mu = mu[in_ids[:, col]]
                cand_sg = sg[in_ids[:, col]]
                max_mu, max_var = clark_max_fast_arrays(
                    worst_mu, worst_sg, cand_mu, cand_sg
                )
                max_sg = np.sqrt(max_var)
                worst_mu = np.where(mask, max_mu, worst_mu)
                worst_sg = np.where(mask, max_sg, worst_sg)

            mu[out_ids] = worst_mu + d_mu
            sg[out_ids] = np.sqrt(worst_sg * worst_sg + d_sg * d_sg)

        arrivals = {
            net: NormalDelay(float(mu[idx]), float(sg[idx]))
            for net, idx in plan.net_index.items()
            if net not in plan.floating
        }
        return arrivals, gate_delays

    # ------------------------------------------------------------------
    def _build_result(
        self,
        circuit: Circuit,
        arrivals: Dict[str, NormalDelay],
        gate_delays: Dict[str, NormalDelay],
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
        return FasstaResult(arrivals=arrivals, gate_delays=gate_delays, output_rv=output_rv)
