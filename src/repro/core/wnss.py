"""Worst Negative Statistical Slack (WNSS) path tracing (paper §4.4).

The deterministic critical (WNS) path is the chain of latest-arriving inputs
from the worst output back to a primary input.  Statistically this no longer
works: "one cannot simply pick the input with the higher mean or variance to
determine which input is most responsible for the variance at the output",
because every input of a statistical ``max`` contributes to the result.

The paper's procedure, implemented here:

1. start at the output whose arrival has the worst weighted cost
   (``mu + lambda*sigma``) — the statistical analogue of the worst output;
2. at each gate compare its inputs pairwise:
   * if the Eq. 5/6 dominance test fires (normalized mean separation beyond
     2.6), pick the input with the larger mean — it clearly dominates;
   * otherwise compare the finite-difference sensitivities
     ``dVar[max]/dmu`` of the two inputs, where a perturbation of an input's
     mean is coupled to its sigma through ``delta_sigma = c * delta_mu``
     (the constant ``c`` is the same one relating a gate's mean delay to its
     variation), and pick the input with the larger sensitivity;
3. follow the winning input's driver and repeat until a primary input is
   reached.

The traced gates form the WNSS path the sizer focuses its effort on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core import clark
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.netlist.circuit import Circuit


@dataclass
class WNSSPath:
    """Result of one WNSS trace."""

    gates: List[str]
    output_net: str
    output_rv: NormalDelay
    decisions: List["TraceDecision"] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self.gates


@dataclass(frozen=True)
class TraceDecision:
    """Record of one input-selection decision along the trace (for reports/tests)."""

    gate: str
    chosen_net: str
    method: str  # "single", "dominance" or "sensitivity"
    candidates: Dict[str, NormalDelay]


class WNSSTracer:
    """Traces the worst-negative-statistical-slack path of a circuit.

    Parameters
    ----------
    coupling:
        The linear mean-to-sigma coupling constant ``c`` of §4.4
        (``delta_sigma ~= c * delta_mu`` along a path).  Usually taken from
        :attr:`repro.variation.model.VariationModel.mean_sigma_coupling`.
    lam:
        Weight used to pick the starting output (``mu + lam*sigma``); the
        same lambda the optimizer is run with.

    An input dominates beyond the paper's normalized mean separation of 2.6
    (:data:`~repro.core.clark.DOMINANCE_THRESHOLD`), and the sensitivity
    comparison steps 1 % of the mean ("values for h of the order of 1% of
    the mean"), :func:`~repro.core.clark.variance_sensitivities`' default.
    """

    def __init__(self, coupling: float, lam: float = 3.0) -> None:
        if coupling < 0:
            raise ValueError("coupling must be non-negative")
        if lam < 0:
            raise ValueError("lambda must be non-negative")
        self.coupling = coupling
        self.lam = lam

    # ------------------------------------------------------------------
    def select_start_output(
        self, circuit: Circuit, arrivals: Mapping[str, NormalDelay]
    ) -> str:
        """The primary output with the worst weighted arrival cost."""
        outputs = circuit.primary_outputs
        if not outputs:
            raise ValueError(f"circuit {circuit.name!r} has no primary outputs")
        return max(
            outputs,
            key=lambda net: self._cost(arrivals.get(net, ZERO_DELAY)),
        )

    def _cost(self, rv: NormalDelay) -> float:
        return rv.mean + self.lam * rv.sigma

    # ------------------------------------------------------------------
    def pick_dominant_input(
        self, candidates: Mapping[str, NormalDelay]
    ) -> "tuple[str, str]":
        """Pick the input most responsible for the output max.

        Returns ``(net, method)`` where method is ``"single"``,
        ``"dominance"`` or ``"sensitivity"``.  The tournament is run
        pairwise, carrying the current winner forward, exactly as described
        in §4.4.
        """
        nets = list(candidates)
        if not nets:
            raise ValueError("pick_dominant_input needs at least one candidate")
        if len(nets) == 1:
            return nets[0], "single"

        winner = nets[0]
        method = "dominance"
        for challenger in nets[1:]:
            a = candidates[winner]
            b = candidates[challenger]
            dom = clark.dominance(a.mean, a.sigma, b.mean, b.sigma)
            if dom != 0:
                # Eq. 5/6 satisfied: the input with the higher mean dominates.
                if b.mean > a.mean:
                    winner = challenger
                continue
            sens_a, sens_b = clark.variance_sensitivities(
                a.mean, a.sigma, b.mean, b.sigma, self.coupling
            )
            method = "sensitivity"
            if sens_b > sens_a:
                winner = challenger
            elif sens_b == sens_a and b.mean > a.mean:
                winner = challenger
        return winner, method

    # ------------------------------------------------------------------
    def trace(
        self,
        circuit: Circuit,
        arrivals: Mapping[str, NormalDelay],
        start_output: Optional[str] = None,
    ) -> WNSSPath:
        """Trace the WNSS path from ``start_output`` (or the worst output) to a PI.

        ``arrivals`` maps net names to arrival moments, typically the
        ``arrival_moments`` recorded by the last FULLSSTA run.  The returned
        gate list is ordered from inputs towards the output (the order the
        sizer visits them in).
        """
        output_net = start_output or self.select_start_output(circuit, arrivals)
        output_rv = arrivals.get(output_net, ZERO_DELAY)

        gates: List[str] = []
        decisions: List[TraceDecision] = []
        gate = circuit.driver_of(output_net)
        visited = set()
        while gate is not None and gate.name not in visited:
            visited.add(gate.name)
            gates.append(gate.name)
            candidates = {
                net: arrivals.get(net, ZERO_DELAY) for net in gate.inputs
            }
            chosen, method = self.pick_dominant_input(candidates)
            decisions.append(
                TraceDecision(
                    gate=gate.name,
                    chosen_net=chosen,
                    method=method,
                    candidates=dict(candidates),
                )
            )
            gate = circuit.driver_of(chosen)

        gates.reverse()
        decisions.reverse()
        return WNSSPath(
            gates=gates,
            output_net=output_net,
            output_rv=output_rv,
            decisions=decisions,
        )
