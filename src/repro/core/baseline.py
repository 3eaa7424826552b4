"""Deterministic mean-delay sizer — the "original" design point.

The first column of the paper's Table 1 ("original") is "the ratio of sigma
to mu obtained by optimizing for mean delay": before the statistical sizer
runs, the circuit is sized by a conventional deterministic greedy optimizer
whose only goal is minimum worst-case (mean) delay.  Such a design "will
typically exhibit the widest spread in performance due to high usage of
smaller devices".

:class:`MeanDelaySizer` implements that baseline following the classic
greedy critical-path sizing template the paper cites (Coudert 1997, Fishburn
1992, Murgai 2002):

1. run deterministic STA, find the WNS critical path;
2. for each gate on the path, evaluate every size by the resulting critical
   path delay through its two-level subcircuit (nominal delays only);
3. commit the best sizes if they help, else the single resizes that do; repeat;
4. recover area: downsize gates off the critical path as long as the
   circuit's worst delay does not degrade beyond a tolerance.

Step 2 is the statistical sizer's own inner loop,
:meth:`CostEvaluator.best_sizes <repro.core.cost.CostEvaluator.best_sizes>`,
in its ``lambda = 0``, zero-variation configuration, so the two optimizers
are directly comparable.  Steps 1 and 3 run on one committed
:class:`~repro.sta.dsta.NominalTimer`: a pass's report (one reverse
levelized pass) gives the near-critical targets and their zero-sigma
boundary arrivals, and the statistical sizer's
:func:`~repro.core.sizer.resize_scheduled_gates` previews the bulk resize
and each galloping stack of single resizes (a column each) from the lowest
dirty level.  Only step 4, which resizes gate by gate, asks for delays one
gate at a time.  The settings are class constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.core.cost import CostEvaluator, WeightedCost
from repro.core.fassta import FASSTA
from repro.core.sizer import resize_scheduled_gates
from repro.core.subcircuit import DEFAULT_DEPTH

# Extraction goes through CostEvaluator; the name stays importable here
# because flowbench/layers.py wraps it in this namespace.
from repro.core.subcircuit import extract_subcircuit  # noqa: F401
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import clock, span
from repro.sta.dsta import DeterministicSTA, DeterministicTimingReport, NominalTimer
from repro.variation.model import VariationModel


@dataclass
class BaselineResult:
    """Outcome of the deterministic mean-delay sizing."""

    circuit: Circuit
    initial_delay: float
    final_delay: float
    initial_area: float
    final_area: float
    passes: int
    runtime_seconds: float

    @property
    def delay_reduction_pct(self) -> float:
        if self.initial_delay == 0:
            return 0.0
        return 100.0 * (self.initial_delay - self.final_delay) / self.initial_delay


def _beats(min_gain: float) -> Callable[[float, float], bool]:
    """``better(new, best)``: ``new`` is more than ``min_gain`` below ``best``."""
    return lambda new, best: new < best - min_gain


class MeanDelaySizer:
    """Greedy deterministic gate sizer minimizing the worst nominal delay."""

    #: Levels of fanin and fanout in each candidate subcircuit.
    SUBCIRCUIT_DEPTH = DEFAULT_DEPTH
    #: Cap on sizing passes.
    MAX_PASSES = 40
    #: Worst-delay gain, relative to the best delay, a commit must exceed.
    MIN_GAIN = 1e-6
    #: Relative worst-delay loss the area recovery may spend.
    AREA_RECOVERY_TOLERANCE = 0.002
    #: Downsizing passes of the area recovery.
    AREA_RECOVERY_PASSES = 3
    #: Output slack, as a fraction of the period, that makes a gate a target.
    NEAR_CRITICAL_FRACTION = 0.05
    #: Passes without a new best delay before giving up.
    PATIENCE = 3

    def __init__(self, delay_model: BaseDelayModel) -> None:
        self.delay_model = delay_model
        self.dsta = DeterministicSTA(delay_model)
        # Zero variation makes FASSTA a nominal-delay evaluator: every sigma
        # is zero, so the lambda = 0 cost is the mean delay.
        no_variation = VariationModel(proportional_alpha=0.0, random_sigma=0.0)
        self.evaluator = CostEvaluator(FASSTA(delay_model, no_variation), WeightedCost(0.0))

    # ------------------------------------------------------------------
    def optimize(self, circuit: Circuit) -> BaselineResult:
        """Size ``circuit`` in place for minimum mean delay."""
        with span("baseline.optimize", circuit=circuit.name) as sp:
            result = self._optimize(circuit)
            sp.set(passes=result.passes)
        return result

    def _optimize(self, circuit: Circuit) -> BaselineResult:
        start = clock()
        timer = NominalTimer(self.delay_model, circuit)
        initial_delay = timer.analyze()
        initial_area = self.delay_model.circuit_area(circuit)
        plan = circuit.compiled()
        no_sigma = np.zeros(plan.num_nets)

        best_delay = initial_delay
        best_sizes = plan.size_index.copy()
        passes = 0
        stall = 0
        for _ in range(self.MAX_PASSES):
            passes += 1
            targets = self._near_critical_gates(timer.report())
            # The sweep's boundary moments: committed nominal arrivals, zero sigma.
            best = self.evaluator.best_sizes(
                circuit, targets, self.SUBCIRCUIT_DEPTH, timer.arrivals, no_sigma
            )
            scheduled = {
                name: best[name] for name in targets if best[name] != circuit.gate(name).size_index
            }
            if not scheduled:
                break
            kept, delay, _ = resize_scheduled_gates(
                timer, circuit, scheduled, best_delay,
                lambda worst: worst, _beats(self.MIN_GAIN * max(best_delay, 1.0)),
            )
            if kept:
                best_delay, best_sizes, stall = delay, plan.size_index.copy(), 0
                continue
            stall += 1  # nothing helped: the pass is kept anyway, under the patience counter
            if stall >= self.PATIENCE:
                break

        circuit.apply_sizes(dict(zip(plan.gate_names, best_sizes.tolist(), strict=True)))
        best_delay = self._recover_area(circuit, best_delay)

        runtime = clock() - start
        return BaselineResult(
            circuit=circuit,
            initial_delay=initial_delay,
            final_delay=best_delay,
            initial_area=initial_area,
            final_area=self.delay_model.circuit_area(circuit),
            passes=passes,
            runtime_seconds=runtime,
        )

    # ------------------------------------------------------------------
    def _near_critical_gates(self, report: DeterministicTimingReport) -> List[str]:
        """The critical path and the gates whose output slack is within a
        small fraction of the period, in gate-id order (the circuit's
        topological order, which sets the fallback's trial order).

        Working on all near-critical gates (rather than the single worst
        path) lets circuits with many parallel, similar-length paths — the
        ECC and multi-output datapath benchmarks — converge in a handful of
        passes instead of one pass per path.
        """
        plan = report.plan
        threshold = self.NEAR_CRITICAL_FRACTION * max(report.clock_period, 1.0)
        near = report.slacks[plan.gate_output_slot] <= threshold
        near[[plan.gate_index[name] for name in report.critical_path]] = True
        return [plan.gate_names[gid] for gid in np.flatnonzero(near).tolist()]

    # ------------------------------------------------------------------
    def _recover_area(self, circuit: Circuit, best_delay: float) -> float:
        """Downsize off-critical gates while the worst delay stays within tolerance.

        This is the "area is recovered as far as possible without violating
        a delay constraint" step the paper describes for constrained-mode
        deterministic sizers; it keeps the baseline honest (otherwise every
        gate would simply end up at maximum size and the statistical sizer
        would have nothing left to upsize).  A gate steps down one size per
        pass when the local delay increase fits well inside the slack at its
        output; a preview of the pass's resizes rolls it back if it breaks
        the global constraint.
        """
        limit = best_delay * (1.0 + self.AREA_RECOVERY_TOLERANCE)
        timer = NominalTimer(self.delay_model, circuit)
        for _ in range(self.AREA_RECOVERY_PASSES):
            report = timer.report(clock_period=limit)  # commits the last pass's preview
            snapshot = circuit.sizes()
            changed = False
            for gate_name in reversed(circuit.compiled().gate_names):  # descending gate id
                gate = circuit.gate(gate_name)
                if gate.size_index == 0:
                    continue
                slack = report.slack.get(gate.output, 0.0)
                if slack <= 0:
                    continue
                current_delay = self.delay_model.gate_delay(circuit, gate)
                smaller_delay = self.delay_model.gate_delay_at_size(
                    circuit, gate, gate.size_index - 1
                )
                if smaller_delay - current_delay < 0.5 * slack:
                    circuit.set_size(gate_name, gate.size_index - 1)
                    changed = True
            if not changed:
                break
            if timer.preview() > limit:
                circuit.apply_sizes(snapshot)
                break
        return timer.analyze()
