"""Statistical criticality probabilities (gate / net / edge).

The WNSS trace of §4.4 extracts exactly *one* statistical worst path, but
its own premise — "every input of a statistical max contributes to the
result" — means the probability mass of being critical is spread over many
near-critical paths.  This module turns that observation into numbers: for
every gate, net and gate-input edge, the probability that it lies on the
*statistically critical path* of the circuit.

The computation is the classical two-pass criticality propagation:

1. **forward** — arrival-time moments at every net, supplied by the caller
   (FASSTA's ``arrivals`` or FULLSSTA's ``arrival_moments``; both engines
   already record exactly these values);
2. **local selection probabilities** — at a gate with inputs ``x_1..x_k``
   the probability that input ``j`` determines the output max is
   ``P(x_j >= max_{i != j} x_i)``.  The complement max is built from Clark
   prefix/suffix folds (:func:`repro.core.clark.clark_max_fast_arrays`),
   and the tie probability of two independent normals is
   ``Phi((mu_j - mu_c) / sqrt(sg_j^2 + sg_c^2))``.  The same formula over
   the primary-output arrivals gives each output's probability of being the
   circuit-level max;
3. **backward** — criticality mass starts at the outputs (their selection
   probabilities, or 1.0 for a single-output cone analysis) and flows
   backwards: a gate inherits the criticality of its output net, and
   distributes it over its input nets proportionally to the selection
   probabilities.  Because the per-gate probabilities are normalized to sum
   to one, mass is conserved level by level — the criticalities absorbed at
   the primary inputs of an output's fan-in cone sum to ~1.

Everything is vectorized over logic levels using the circuit's shared
array-native IR (:meth:`Circuit.compiled()
<repro.netlist.circuit.Circuit.compiled>`) — the same ``level_offsets``
windows of ``fanin_matrix`` the levelized engines walk; the backward pass is
a reverse-level scatter-add.

Approximations inherited from the engines: arrival times at a gate's inputs
are treated as independent (reconvergent fanout correlation is ignored) and
the max moments come from Clark's formulae.  The Monte-Carlo cross-check in
:mod:`repro.criticality.mc` quantifies the resulting error per circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr as _ndtr

from repro.core.clark import clark_max_fast_arrays
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.netlist.circuit import Circuit

#: Sentinel mean used for masked-out input positions: so far below any real
#: arrival that the dominance shortcut removes it from every max.
_NEG_SENTINEL = -1.0e30


@dataclass
class CriticalityResult:
    """Criticality probabilities of one circuit under one arrival state.

    All probabilities refer to the event "the statistically critical path
    passes through this object" with respect to the analysed output set.
    """

    circuit_name: str
    #: Output net -> probability that it is the circuit-level max (the
    #: weights the backward pass was seeded with).
    output_probabilities: Dict[str, float]
    #: Gate name -> probability that the critical path passes through it.
    gate_criticality: Dict[str, float]
    #: Net name -> criticality mass flowing through the net.
    net_criticality: Dict[str, float]
    #: Gate name -> {input net -> local selection probability}.  Each inner
    #: map sums to 1: it is the conditional distribution of "which input
    #: determines this gate's output max".
    edge_probabilities: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Primary-input (or floating) net -> absorbed criticality mass.  Sums
    #: to ~1 over the analysed cone(s): total mass is conserved.
    source_criticality: Dict[str, float] = field(default_factory=dict)

    def criticality(self, gate_name: str) -> float:
        """Criticality probability of ``gate_name`` (0 for unknown gates)."""
        return self.gate_criticality.get(gate_name, 0.0)

    def top_gates(self, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` most critical gates as ``(name, probability)`` pairs."""
        ranked = sorted(
            self.gate_criticality.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:k]

    def total_source_mass(self) -> float:
        """Total mass absorbed at the sources (~1 when mass is conserved)."""
        return float(sum(self.source_criticality.values()))

    def gates_above(self, threshold: float) -> List[str]:
        """Names of gates whose criticality reaches ``threshold``."""
        return [
            name
            for name, value in self.gate_criticality.items()
            if value >= threshold
        ]


def selection_probabilities(
    rvs: Sequence[NormalDelay],
) -> np.ndarray:
    """P(rv_j is the maximum) for independent normal arrivals.

    Each probability compares ``rv_j`` against the Clark max of all the
    *other* entries (prefix/suffix complement folds); the vector is
    normalized to sum to one.  Used both for gate-input selection and for
    ranking primary outputs.
    """
    mu = np.array([rv.mean for rv in rvs], dtype=float)[None, :]
    sg = np.array([rv.sigma for rv in rvs], dtype=float)[None, :]
    mask = np.ones_like(mu, dtype=bool)
    return _row_selection_probs(mu, sg, mask)[0]


def _row_selection_probs(
    mu: np.ndarray, sg: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Row-wise selection probabilities over padded ``(rows, F)`` arrays.

    Masked-out positions receive probability 0; each row's valid positions
    sum to 1.  Rows with a single valid position get probability 1 there.
    """
    rows, width = mu.shape
    if width == 1:
        return mask.astype(float)

    # Replace invalid positions by a sentinel so the Clark folds ignore them.
    m = np.where(mask, mu, _NEG_SENTINEL)
    s = np.where(mask, sg, 0.0)
    v = s * s

    # Prefix maxes: pm[:, j] = max(x_0..x_j); suffix likewise from the right.
    pm = np.empty_like(m)
    pv = np.empty_like(m)
    pm[:, 0] = m[:, 0]
    pv[:, 0] = v[:, 0]
    for j in range(1, width):
        pm[:, j], pv[:, j] = clark_max_fast_arrays(
            pm[:, j - 1], np.sqrt(pv[:, j - 1]), m[:, j], s[:, j]
        )
    sm = np.empty_like(m)
    sv = np.empty_like(m)
    sm[:, -1] = m[:, -1]
    sv[:, -1] = v[:, -1]
    for j in range(width - 2, -1, -1):
        sm[:, j], sv[:, j] = clark_max_fast_arrays(
            sm[:, j + 1], np.sqrt(sv[:, j + 1]), m[:, j], s[:, j]
        )

    probs = np.zeros_like(m)
    for j in range(width):
        if j == 0:
            comp_mu, comp_var = sm[:, 1], sv[:, 1]
        elif j == width - 1:
            comp_mu, comp_var = pm[:, j - 1], pv[:, j - 1]
        else:
            comp_mu, comp_var = clark_max_fast_arrays(
                pm[:, j - 1], np.sqrt(pv[:, j - 1]), sm[:, j + 1], np.sqrt(sv[:, j + 1])
            )
        denom2 = v[:, j] + comp_var
        safe = np.sqrt(np.where(denom2 > 0.0, denom2, 1.0))
        z = (m[:, j] - comp_mu) / safe
        p = _ndtr(z)
        # Deterministic comparison when both sides have zero variance.
        # Exact ties go to the *first* tied position — the convention of the
        # scalar max folds and of ``np.argmax`` in the Monte-Carlo
        # backtrace, so zero-variance ties (all primary inputs arrive at
        # exactly t=0) route their mass identically in both models.
        deterministic = denom2 <= 0.0
        if j == 0:
            beats_earlier = np.ones(rows, dtype=bool)
        else:
            beats_earlier = pm[:, j - 1] < m[:, j]
        p = np.where(
            deterministic,
            np.where(
                m[:, j] > comp_mu,
                1.0,
                np.where(
                    (m[:, j] == comp_mu) & beats_earlier, 1.0, 0.0
                ),
            ),
            p,
        )
        probs[:, j] = np.where(mask[:, j], p, 0.0)

    totals = probs.sum(axis=1, keepdims=True)
    # A row can only total zero if every valid tie probability vanished to
    # exactly 0.0; fall back to the (valid) first position in that case.
    degenerate = totals[:, 0] <= 0.0
    if np.any(degenerate):
        first_valid = np.argmax(mask, axis=1)
        probs[degenerate, first_valid[degenerate]] = 1.0
        totals = probs.sum(axis=1, keepdims=True)
    return probs / totals


class CriticalityAnalyzer:
    """Computes criticality probabilities over one circuit.

    The levelized schedule comes from the circuit's own compiled IR
    (:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`),
    lowered once per structure version and shared with every engine — so
    repeated analyses inside a sizing loop are cheap and the analyzer holds
    no plan state of its own.

    Parameters
    ----------
    circuit:
        The circuit to analyse.  Structural edits are detected through
        :attr:`~repro.netlist.circuit.Circuit.structure_version` and
        recompile the IR automatically.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit

    # ------------------------------------------------------------------
    def analyze(
        self,
        arrivals: Mapping[str, NormalDelay],
        outputs: Optional[Sequence[str]] = None,
        output_weights: Optional[Mapping[str, float]] = None,
    ) -> CriticalityResult:
        """Compute criticality probabilities for the given arrival state.

        Parameters
        ----------
        arrivals:
            Net -> arrival moments, as recorded by FASSTA
            (:attr:`~repro.core.fassta.FasstaResult.arrivals`) or FULLSSTA
            (:attr:`~repro.core.fullssta.FullSstaResult.arrival_moments`).
            Unknown nets default to a zero arrival, like the engines.
        outputs:
            Output nets seeding the backward pass.  Defaults to the
            circuit's primary outputs.  Passing a single net analyses that
            output's fan-in cone alone (its weight is then 1.0).
        output_weights:
            Explicit output seed masses, overriding the Clark-based output
            selection probabilities.  Must be non-negative.
        """
        circuit = self.circuit
        plan = circuit.compiled()
        output_nets = list(outputs) if outputs is not None else circuit.primary_outputs
        if not output_nets:
            raise ValueError(f"circuit {circuit.name!r} has no outputs to analyse")
        missing = [
            net
            for net in output_nets
            if net not in plan.net_index and net not in arrivals
        ]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )

        if output_weights is not None:
            weights = {net: float(output_weights.get(net, 0.0)) for net in output_nets}
            if any(w < 0 for w in weights.values()):
                raise ValueError("output weights must be non-negative")
        elif len(output_nets) == 1:
            weights = {output_nets[0]: 1.0}
        else:
            probs = selection_probabilities(
                [arrivals.get(net, ZERO_DELAY) for net in output_nets]
            )
            weights = {}
            for net, p in zip(output_nets, probs, strict=True):
                weights[net] = weights.get(net, 0.0) + float(p)

        # Arrival moments per slot, + the fanin sentinel.
        mu = np.zeros(plan.num_nets + 1)
        sg = np.zeros(plan.num_nets + 1)
        for net, idx in plan.net_index.items():
            rv = arrivals.get(net)
            if rv is not None:
                mu[idx] = rv.mean
                sg[idx] = rv.sigma

        crit = np.zeros(plan.num_nets)
        for net, weight in weights.items():
            idx = plan.net_index.get(net)
            if idx is not None and weight:
                crit[idx] += weight

        gate_criticality: Dict[str, float] = {}
        edge_probabilities: Dict[str, Dict[str, float]] = {}
        for lo, hi in reversed(list(pairwise(plan.level_offsets.tolist()))):
            # The level's own width: trailing all-sentinel columns would
            # join the Clark complement folds.
            in_ids = plan.fanin_matrix[lo:hi, : plan.fanin_counts[lo:hi].max()]
            in_mask = in_ids != plan.num_nets
            probs = _row_selection_probs(mu[in_ids], sg[in_ids], in_mask)
            gate_crit = crit[plan.gate_output_slot[lo:hi]]
            contrib = gate_crit[:, None] * probs
            np.add.at(crit, in_ids[in_mask], contrib[in_mask])
            for row, name in enumerate(plan.gate_names[lo:hi]):
                gate_criticality[name] = float(gate_crit[row])
                gate = circuit.gate(name)
                edges: Dict[str, float] = {}
                for col, net in enumerate(gate.inputs):
                    edges[net] = edges.get(net, 0.0) + float(probs[row, col])
                edge_probabilities[name] = edges

        net_criticality = {
            net: float(crit[idx]) for net, idx in plan.net_index.items()
        }
        sources = set(circuit.primary_inputs) | plan.floating
        source_criticality = {
            net: net_criticality.get(net, 0.0) for net in sorted(sources)
        }
        return CriticalityResult(
            circuit_name=circuit.name,
            output_probabilities=weights,
            gate_criticality=gate_criticality,
            net_criticality=net_criticality,
            edge_probabilities=edge_probabilities,
            source_criticality=source_criticality,
        )
