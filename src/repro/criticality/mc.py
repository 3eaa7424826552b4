"""Monte-Carlo cross-check of analytic criticality probabilities.

The analytic criticalities of :mod:`repro.criticality.analysis` inherit the
engines' approximations (Clark max moments, input independence).  This
module provides the golden model: draw joint gate-delay samples with
:class:`~repro.montecarlo.mc.MonteCarloTimer`'s own sampler
(:meth:`~repro.montecarlo.mc.MonteCarloTimer.sample`, so the draws and
arrivals are the timer's), and for every draw determine the
*deterministic* critical path by backtracking argmax inputs from the
argmax output.  The frequency with which a gate (or a whole path) lies on
the per-draw critical path estimates its true criticality probability.

The backtrace is vectorized across samples: per gate one boolean
"on-the-critical-path" array is propagated backwards, and argmax-input
indicator arrays route it to the inputs — no per-sample Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.criticality.paths import StatisticalPath
from repro.library.delay_model import BaseDelayModel
from repro.montecarlo.mc import MonteCarloTimer, output_slots
from repro.netlist.circuit import Circuit
from repro.variation.model import VariationModel


@dataclass
class MonteCarloCriticalityResult:
    """Empirical critical-path frequencies from one MC run."""

    num_samples: int
    #: Gate name -> fraction of draws whose critical path passes through it.
    gate_frequency: Dict[str, float]
    #: Output net -> fraction of draws in which it is the slowest output.
    output_frequency: Dict[str, float]
    #: Per requested path: fraction of draws whose critical path *is* it.
    path_frequency: List[float] = field(default_factory=list)

    def frequency(self, gate_name: str) -> float:
        return self.gate_frequency.get(gate_name, 0.0)

    def max_abs_gate_error(self, analytic: Dict[str, float]) -> float:
        """Largest |analytic - empirical| criticality over all gates."""
        names = set(self.gate_frequency) | set(analytic)
        return max(
            abs(analytic.get(n, 0.0) - self.gate_frequency.get(n, 0.0))
            for n in names
        )

    def mean_abs_gate_error(self, analytic: Dict[str, float]) -> float:
        """Mean |analytic - empirical| criticality over all gates."""
        names = set(self.gate_frequency) | set(analytic)
        total = sum(
            abs(analytic.get(n, 0.0) - self.gate_frequency.get(n, 0.0))
            for n in names
        )
        return total / len(names) if names else 0.0


class MonteCarloCriticality:
    """Samples which gates/paths are critical under the variation model."""

    def __init__(
        self, delay_model: BaseDelayModel, variation_model: VariationModel
    ) -> None:
        self.delay_model = delay_model
        self.variation_model = variation_model

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        num_samples: int = 2000,
        seed: Optional[int] = 0,
        paths: Optional[Sequence[StatisticalPath]] = None,
    ) -> MonteCarloCriticalityResult:
        """Estimate criticality frequencies from ``num_samples`` draws.

        ``paths`` optionally requests per-path frequencies: for each
        :class:`StatisticalPath` the returned ``path_frequency`` entry is
        the fraction of draws whose critical path coincides with it edge
        for edge (including the source net).
        """
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        outputs = circuit.primary_outputs
        sampler = MonteCarloTimer(self.delay_model, self.variation_model)
        plan, arr = sampler.sample(circuit, num_samples, seed)
        slots = output_slots(circuit, plan)

        # Each gate's argmax input per draw.  The sentinel row holds -inf, so
        # argmax over the padded columns keeps np.argmax's first-max tie
        # convention for the real pins (a -inf pad can never win — every
        # gate has at least one input).
        argmax_input: Dict[str, np.ndarray] = {}
        for start, stop in pairwise(plan.level_offsets.tolist()):
            amax = arr[plan.fanin_matrix[start:stop]].argmax(axis=1)
            argmax_input.update(zip(plan.gate_names[start:stop], amax, strict=True))

        # Which output is the slowest, per draw.
        out_argmax = np.argmax(arr[slots], axis=0)
        output_frequency = {
            net: float(np.mean(out_argmax == i)) for i, net in enumerate(outputs)
        }

        # Backward pass: boolean per-net "on the critical path" arrays.
        crit_net: Dict[str, np.ndarray] = {}
        for i, net in enumerate(outputs):
            sel = out_argmax == i
            existing = crit_net.get(net)
            crit_net[net] = sel if existing is None else (existing | sel)

        gate_frequency: Dict[str, float] = {}
        for name in reversed(plan.gate_names):  # gate ids descend: a reverse topological order
            gate = circuit.gate(name)
            g_crit = crit_net.get(gate.output)
            if g_crit is None:
                gate_frequency[name] = 0.0
                continue
            gate_frequency[name] = float(np.mean(g_crit))
            chosen = argmax_input[name]
            for idx, net in enumerate(gate.inputs):
                routed = g_crit & (chosen == idx)
                if not routed.any():
                    continue
                existing = crit_net.get(net)
                crit_net[net] = routed if existing is None else (existing | routed)

        path_frequency: List[float] = []
        if paths:
            for path in paths:
                try:
                    out_idx = outputs.index(path.output_net)
                except ValueError:
                    path_frequency.append(0.0)
                    continue
                indicator = out_argmax == out_idx
                # Walk output-side first; each gate must have chosen the
                # predecessor net on the path (the previous gate's output,
                # or the source net for the innermost gate).
                ok = True
                for pos in range(len(path.gates) - 1, -1, -1):
                    gate_name = path.gates[pos]
                    gate = circuit.gate(gate_name)
                    predecessor = (
                        path.gates[pos - 1] if pos > 0 else None
                    )
                    wanted = (
                        circuit.gate(predecessor).output
                        if predecessor is not None
                        else path.source_net
                    )
                    try:
                        pin = gate.inputs.index(wanted)
                    except ValueError:
                        ok = False
                        break
                    indicator = indicator & (argmax_input[gate_name] == pin)
                path_frequency.append(float(np.mean(indicator)) if ok else 0.0)

        return MonteCarloCriticalityResult(
            num_samples=num_samples,
            gate_frequency=gate_frequency,
            output_frequency=output_frequency,
            path_frequency=path_frequency,
        )
