"""Statistical slacks: backward required-time propagation and slack PDFs.

Deterministic STA defines slack as ``required - arrival``; statistically
both terms are random variables.  Required times propagate *backwards*
through the circuit:

* a primary output's required time is the clock period ``T``
  (deterministic);
* a net's required time is the statistical **min** over its load gates of
  ``required(load output) - delay(load)``.  The min of independent normals
  is evaluated through Clark on the negated moments
  (``min(A, B) = -max(-A, -B)``), mirroring the forward max.

The slack RV at a net is then ``required - arrival`` with means subtracted
and variances added (the independence approximation the engines already
make for the forward max).  Per-gate slack *PDFs* are discretized in one
batched call (:func:`repro.core.discrete_pdf.batched_from_normal`), so a
whole circuit's slack histograms cost one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core import clark
from repro.core.discrete_pdf import (
    DEFAULT_SAMPLES,
    DiscretePDF,
    batched_from_normal,
)
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.netlist.circuit import Circuit


def statistical_min(a: NormalDelay, b: NormalDelay) -> NormalDelay:
    """Clark-based min of two independent normals: ``-max(-A, -B)``."""
    mean, var = clark.clark_max_fast(-a.mean, a.sigma, -b.mean, b.sigma)
    return NormalDelay(-mean, math.sqrt(max(var, 0.0)))


@dataclass
class SlackResult:
    """Statistical required times, slack RVs and slack PDFs of one circuit."""

    circuit_name: str
    clock_period: float
    #: Net -> statistical required time (outputs are pinned at the period).
    required: Dict[str, NormalDelay]
    #: Net -> slack RV ``required - arrival`` (negative mean = failing).
    slack: Dict[str, NormalDelay]
    #: Gate name -> discretized pdf of the slack at its output net.
    slack_pdfs: Dict[str, DiscretePDF]

    def slack_of(self, net: str) -> NormalDelay:
        """Slack RV at ``net`` (raises KeyError for unknown nets)."""
        return self.slack[net]

    def worst_slacks(self, k: int = 10):
        """The ``k`` smallest-mean slack nets as ``(net, rv)`` pairs."""
        ranked = sorted(self.slack.items(), key=lambda kv: (kv[1].mean, kv[0]))
        return ranked[:k]

    def negative_slack_probability(self, net: str) -> float:
        """P(slack < 0) at ``net`` under the normal approximation."""
        rv = self.slack[net]
        if rv.sigma == 0.0:
            return 1.0 if rv.mean < 0.0 else 0.0
        return clark.capital_phi(-rv.mean / rv.sigma)


def compute_slacks(
    circuit: Circuit,
    arrivals: Mapping[str, NormalDelay],
    gate_delays: Mapping[str, NormalDelay],
    clock_period: Optional[float] = None,
    lam: float = 3.0,
    num_samples: int = DEFAULT_SAMPLES,
) -> SlackResult:
    """Backward required-time propagation and slack PDFs for ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    arrivals:
        Net -> arrival moments from a forward FASSTA/FULLSSTA run.
    gate_delays:
        Gate name -> delay moments
        (:attr:`~repro.core.fassta.FasstaResult.gate_delays`).
    clock_period:
        Required time at every primary output.  Defaults to the worst
        weighted output cost ``max_o (mu_o + lam * sigma_o)`` — the
        statistical analogue of a zero-worst-slack clock.
    lam:
        Weight used by the default clock period.
    num_samples:
        Samples per discretized slack pdf.
    """
    outputs = circuit.primary_outputs
    if not outputs:
        raise ValueError(f"circuit {circuit.name!r} has no outputs to analyse")
    if clock_period is None:
        clock_period = max(
            arrivals.get(net, ZERO_DELAY).mean
            + lam * arrivals.get(net, ZERO_DELAY).sigma
            for net in outputs
        )

    period_rv = NormalDelay(float(clock_period), 0.0)
    required: Dict[str, NormalDelay] = {net: period_rv for net in outputs}

    # Backward required-time pass; the compiled IR only orders forward
    # levels and this path is not per-sample.  repro-lint: allow=RL001
    for name in circuit.reverse_topological_order():
        gate = circuit.gate(name)
        # A gate output that neither reaches an output nor another gate
        # (dangling) imposes no requirement; pin it at the period — and
        # *record* that pin, so the dangling net still gets a slack entry
        # and its pdf reflects the real arrival rather than 0±0.
        out_required = required.setdefault(gate.output, period_rv)
        delay = gate_delays.get(name, ZERO_DELAY)
        candidate = NormalDelay(
            out_required.mean - delay.mean,
            math.sqrt(out_required.variance + delay.variance),
        )
        for net in gate.inputs:
            existing = required.get(net)
            required[net] = (
                candidate
                if existing is None
                else statistical_min(existing, candidate)
            )

    slack: Dict[str, NormalDelay] = {}
    for net, req in required.items():
        arr = arrivals.get(net, ZERO_DELAY)
        slack[net] = NormalDelay(
            req.mean - arr.mean, math.sqrt(req.variance + arr.variance)
        )

    gate_names = list(circuit.gates)
    gate_nets = [circuit.gate(name).output for name in gate_names]
    slack_rvs = [slack.get(net, ZERO_DELAY) for net in gate_nets]
    means = np.array([rv.mean for rv in slack_rvs], dtype=float)
    sigmas = np.array([rv.sigma for rv in slack_rvs], dtype=float)
    slack_pdfs: Dict[str, DiscretePDF] = {}
    if gate_names:
        values, probs, counts = batched_from_normal(means, sigmas, num_samples)
        for row, name in enumerate(gate_names):
            n = int(counts[row])
            slack_pdfs[name] = DiscretePDF._from_canonical(
                values[row, :n].copy(), probs[row, :n].copy()
            )
    return SlackResult(
        circuit_name=circuit.name,
        clock_period=float(clock_period),
        required=required,
        slack=slack,
        slack_pdfs=slack_pdfs,
    )
