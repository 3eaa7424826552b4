"""Cost functions: the weighted mean/sigma objective (paper Eq. 7).

For every output ``O_i`` of a (sub)circuit the paper scores

    Cost(O_i) = mu_i + lambda * sigma_i

where ``lambda`` is a user-specified weight that "ranks relative importance
of minimizing standard variation against mean of delay"; the cost of the
(sub)circuit is the *maximum* of the per-output costs.  ``lambda = 0``
recovers a pure mean-delay objective; the paper's experiments use
``lambda in {3, 9}`` (and 6 in Fig. 4).

:class:`YieldObjective` recasts the same machinery as a *parametric timing
yield* target (the paper's Fig. 1 motivation): minimize the clock period at
which ``target_yield`` of manufactured parts meet timing.  Under the normal
approximation that period is exactly ``mu + z * sigma`` with
``z = Phi^{-1}(target_yield)`` — i.e. a weighted cost whose lambda is the
target's z-score — which is what the sizer's inner loop uses; circuit-level
accept/reject decisions use the exact discrete-pdf quantile instead.

:class:`CostEvaluator` binds the cost to a FASSTA engine and evaluates
candidate gate sizes on extracted subcircuits, which is exactly the
``Cost(S)`` procedure of the Fig. 2 pseudocode.  Both sizers pick sizes
with :meth:`CostEvaluator.best_sizes`, once per sizing pass: the one place
that owns the subcircuit cache and an exact decision memo, and that
evaluates every memo miss of the pass, at every candidate size, in one
vectorized FASSTA batch on the packed delay stage
(:meth:`CostEvaluator.size_sweep_components`) — the statistical sizer with
its lambda, the mean-delay baseline with lambda = 0 and zero variation.
The scalar per-candidate evaluation
(:meth:`CostEvaluator.candidate_size_cost_components`) remains as the
reference the batch is pinned to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.core.discrete_pdf import DiscretePDF
from repro.core.fassta import FASSTA, fold_level
from repro.core.rv import NormalDelay, ZERO_DELAY, _standard_normal_quantile
from repro.core.subcircuit import Subcircuit, SubcircuitCache
from repro.ir.compiled import IntArray
from repro.netlist.circuit import Circuit
from repro.obs import span


@dataclass(frozen=True)
class WeightedCost:
    """``cost(rv) = rv.mean + lam * rv.sigma`` (Eq. 7)."""

    lam: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda weight must be non-negative")

    def of(self, rv: NormalDelay) -> float:
        """Cost of a single arrival-time random variable."""
        return rv.mean + self.lam * rv.sigma

    def components(self, arrivals: Mapping[str, NormalDelay]) -> "CostComponents":
        """Both the worst and the summed per-output cost of a set of outputs.

        The worst is the subcircuit cost of §4.5 (the Eq. 7 max over the
        outputs).  The sum acts as a tie-breaker when comparing candidate
        gate sizes: a resize that improves a non-worst output of the
        subcircuit (without hurting the worst one) is still progress, even
        though the Eq. 7 max is unchanged.  Without the tie-breaker, circuits with many parallel
        near-critical paths dead-lock because every local improvement is
        masked by some slower path crossing the same subcircuit.
        """
        if not arrivals:
            raise ValueError("components() needs at least one output arrival")
        costs = [self.of(rv) for rv in arrivals.values()]
        return CostComponents(worst=max(costs), total=sum(costs))


@dataclass(frozen=True)
class YieldObjective:
    """Size for the smallest clock period achieving ``target_yield``.

    Parameters
    ----------
    target_yield:
        Fraction of manufactured parts that must meet the period, in
        ``[0.5, 1)``.  Targets below one half would reward *increasing*
        variance (negative z-score) and are rejected.
    """

    target_yield: float

    def __post_init__(self) -> None:
        if not 0.5 <= self.target_yield < 1.0:
            raise ValueError("target_yield must be in [0.5, 1)")

    @property
    def z(self) -> float:
        """z-score of the target yield, ``Phi^{-1}(target_yield)``."""
        return _standard_normal_quantile(self.target_yield)

    def equivalent_cost(self) -> WeightedCost:
        """The Eq. 7 cost whose lambda equals the target's z-score.

        For normal moments ``mu + z * sigma`` *is* the period that achieves
        the target yield, so the sizer's moment-based inner loop optimizes
        the yield objective by reusing the weighted cost unchanged.
        """
        return WeightedCost(self.z)

    def period_for(self, distribution: Union[NormalDelay, DiscretePDF]) -> float:
        """Smallest clock period achieving the target on ``distribution``:
        its quantile at ``target_yield``."""
        return distribution.quantile(self.target_yield)


@dataclass(frozen=True)
class CostComponents:
    """(worst, total) cost of a subcircuit's outputs, compared lexicographically."""

    worst: float
    total: float

    #: Relative tolerance used when deciding the worst costs are "equal".
    REL_TOL = 1e-9

    def better_than(self, other: "CostComponents") -> bool:
        """True when this cost is strictly preferable to ``other``."""
        tol = self.REL_TOL * max(abs(self.worst), abs(other.worst), 1.0)
        if self.worst < other.worst - tol:
            return True
        if self.worst > other.worst + tol:
            return False
        return self.total < other.total - tol


class CostEvaluator:
    """Evaluates the Eq. 7 cost of a subcircuit with the FASSTA engine.

    :meth:`best_sizes` is the inner loop of Fig. 2 for both sizers: one call
    per sizing pass, which evaluates every memo miss of the pass, for every
    candidate size, in one batch (:meth:`size_sweep_components`).  It keeps
    two exactness-preserving caches for the circuit it last saw, and drops
    both when a different circuit object is queried or the circuit's
    ``structure_version`` changes:

    * subcircuit extraction per (seed, depth), with each region's
      :meth:`~repro.core.subcircuit.Subcircuit.local_program`
      (:class:`~repro.core.subcircuit.SubcircuitCache`);
    * every decision, keyed on (gate, depth,
      :meth:`~repro.core.subcircuit.Subcircuit.context_signature`, boundary
      moments), which is all a decision depends on.  Unchanged regions keep
      bitwise-identical boundary moments between passes, so gates far from
      the action hit it every pass.  Hits and misses count distinct gates
      per call.

    Delays come from the packed delay stage, which reads sizes from the
    compiled IR, so sizes must change through ``Circuit.set_size``.

    Parameters
    ----------
    fassta:
        The fast inner-loop engine.
    cost:
        The weighted cost (carries lambda).
    """

    #: Decision memo entries kept before a wholesale reset.  Boundary moments
    #: are part of the key, so entries from passes whose upstream arrivals
    #: moved never hit again; the reset bounds memory on very long runs.
    MEMO_LIMIT = 200_000
    #: Most (row, member) entries one vectorized evaluation holds; a sweep
    #: with more is evaluated in consecutive groups of seeds.  Each entry
    #: costs a few hundred bytes of temporaries.
    BATCH_ENTRIES = 4096

    def __init__(self, fassta: FASSTA, cost: WeightedCost) -> None:
        self.fassta = fassta
        self.cost = cost
        self.subcircuits = SubcircuitCache()
        self.memo_hits = 0
        self.memo_misses = 0
        self._memo: Dict[Tuple[object, ...], int] = {}

    @property
    def counters(self) -> Dict[str, int]:
        """Cumulative decision-memo and subcircuit-cache hits and misses."""
        return {
            "evaluation_cache_hits": self.memo_hits,
            "evaluation_cache_misses": self.memo_misses,
            "subcircuit_cache_hits": self.subcircuits.hits,
            "subcircuit_cache_misses": self.subcircuits.misses,
        }

    def best_sizes(
        self,
        circuit: Circuit,
        gate_names: Iterable[str],
        depth: int,
        arrival_of: Callable[[str], NormalDelay],
    ) -> Dict[str, int]:
        """Best size of each of ``gate_names`` by the cost of its ``depth``-level subcircuit.

        ``arrival_of`` gives the arrival moments of each subcircuit input
        net (FULLSSTA moments for the statistical sizer, nominal STA times
        with zero sigma for the baseline).  Each distinct gate's answer is
        :meth:`best_seed_size` of its extracted region, memoized as the
        class docstring describes; the misses are swept in one batch.  A
        gate's answer is its current size when no candidate beats it.
        """
        if self.subcircuits.sync(circuit):
            self._memo.clear()
        best: Dict[str, int] = {}
        keys: List[Tuple[object, ...]] = []
        requests: List[Tuple[Subcircuit, Dict[str, NormalDelay]]] = []
        for gate_name in dict.fromkeys(gate_names):
            subcircuit = self.subcircuits.get(circuit, gate_name, depth)
            boundary = {net: arrival_of(net) for net in subcircuit.input_nets}
            key = (
                gate_name,
                depth,
                subcircuit.context_signature(),
                tuple((rv.mean, rv.sigma) for rv in boundary.values()),
            )
            size = self._memo.get(key)
            if size is not None:
                self.memo_hits += 1
                best[gate_name] = size
            else:
                self.memo_misses += 1
                keys.append(key)
                requests.append((subcircuit, boundary))
        for key, (subcircuit, _), sweep in zip(
            keys, requests, self.size_sweep_components(requests), strict=True
        ):
            if len(self._memo) >= self.MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = best[subcircuit.seed] = self._pick(subcircuit, sweep)
        return best

    def best_size(
        self,
        circuit: Circuit,
        gate_name: str,
        depth: int,
        arrival_of: Callable[[str], NormalDelay],
    ) -> int:
        """:meth:`best_sizes` of one gate."""
        return self.best_sizes(circuit, [gate_name], depth, arrival_of)[gate_name]

    # ------------------------------------------------------------------
    # The scalar reference: one (subcircuit, size) at a time, gate by gate,
    # with the trial size written into the live gate.  The batched sweep
    # is pinned bitwise to it (tests/core/test_cost.py).
    def subcircuit_arrivals(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
    ) -> Dict[str, NormalDelay]:
        """Propagate moments across the subcircuit's member gates only.

        ``boundary_arrivals`` supplies the arrival moments of the
        subcircuit's input nets (typically the values FULLSSTA recorded).
        Delays come from the scalar query :meth:`FASSTA.gate_delay_rv
        <repro.core.fassta.FASSTA.gate_delay_rv>`, with loads computed
        against the parent circuit so boundary fanout is exact.
        """
        circuit = subcircuit.parent
        arrivals: Dict[str, NormalDelay] = {}
        for net in subcircuit.input_nets:
            arrivals[net] = boundary_arrivals.get(net, ZERO_DELAY)

        for gate_name in subcircuit.gate_names:
            gate = circuit.gate(gate_name)
            delay_rv = self.fassta.gate_delay_rv(circuit, gate_name)
            input_rvs = [arrivals.get(net, ZERO_DELAY) for net in gate.inputs]
            if len(input_rvs) == 1:
                worst_input = input_rvs[0]
            else:
                worst_input = NormalDelay.maximum_of(input_rvs)
            arrivals[gate.output] = worst_input + delay_rv
        return arrivals

    def _output_arrivals(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
    ) -> Dict[str, NormalDelay]:
        arrivals = self.subcircuit_arrivals(subcircuit, boundary_arrivals)
        return {net: arrivals.get(net, ZERO_DELAY) for net in subcircuit.output_nets}

    def subcircuit_cost_components(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
    ) -> CostComponents:
        """(worst, total) cost of the subcircuit, for candidate-size comparisons."""
        return self.cost.components(self._output_arrivals(subcircuit, boundary_arrivals))

    def candidate_size_cost_components(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
        size_index: int,
    ) -> CostComponents:
        """(worst, total) cost with the seed gate temporarily at ``size_index``.

        The seed's size is restored before returning, so the parent circuit
        is never left in the trial state.
        """
        circuit = subcircuit.parent
        gate = circuit.gate(subcircuit.seed)
        original = gate.size_index
        try:
            gate.size_index = size_index
            return self.subcircuit_cost_components(subcircuit, boundary_arrivals)
        finally:
            gate.size_index = original

    # ------------------------------------------------------------------
    def size_sweep_components(
        self, requests: Sequence[Tuple[Subcircuit, Mapping[str, NormalDelay]]]
    ) -> List[Dict[int, CostComponents]]:
        """(worst, total) cost for every library size of every request's seed.

        Each request is a subcircuit and its boundary moments; the result
        holds one ``{size: CostComponents}`` per request, bitwise equal to
        :meth:`candidate_size_cost_components` per size.  The batch is one
        vectorized FASSTA evaluation (:meth:`_evaluate`), taken in
        consecutive groups of seeds of at most :attr:`BATCH_ENTRIES`
        (row, member) entries each, which bounds its temporaries.  No gate
        is resized, not even temporarily.
        """
        results: List[Dict[int, CostComponents]] = []
        if not requests:
            return results
        library = self.fassta.delay_model.library
        sizes = [
            library.num_sizes(sub.parent.gate(sub.seed).cell_type) for sub, _ in requests
        ]
        entries = [
            count * sub.num_gates for count, (sub, _) in zip(sizes, requests, strict=True)
        ]
        with span("cost.sweep") as sp:
            group = [0]
            load = 0
            for index, count in enumerate(entries):
                if index > group[-1] and load + count > self.BATCH_ENTRIES:
                    group.append(index)
                    load = 0
                load += count
            group.append(len(requests))
            for lo, hi in zip(group[:-1], group[1:], strict=True):
                results += self._evaluate(requests[lo:hi], np.array(sizes[lo:hi]))
            sp.set(seeds=len(requests), rows=sum(sizes), entries=sum(entries))
        return results

    def _evaluate(
        self,
        requests: Sequence[Tuple[Subcircuit, Mapping[str, NormalDelay]]],
        num_sizes: IntArray,
    ) -> List[Dict[int, CostComponents]]:
        """One vectorized FASSTA evaluation of every (seed, size) row.

        Each row is one copy of its seed's
        :meth:`~repro.core.subcircuit.Subcircuit.local_program` with its own
        block of local slots, timed level by level across all rows with
        :func:`~repro.core.fassta.fold_level`.  Unaffected members are timed
        once per distinct gate, the affected ones per row on the packed
        stage's trial form (:meth:`VariationModel.delay_moments
        <repro.variation.model.VariationModel.delay_moments>`).
        """
        circuit = requests[0][0].parent
        plan = circuit.compiled()
        num_inputs = np.array([len(sub.input_nets) for sub, _ in requests], dtype=np.intp)
        num_members = np.array([sub.num_gates for sub, _ in requests], dtype=np.intp)
        program = np.concatenate([sub.local_program() for sub, _ in requests])
        gate_ids, level, affected, rank = program[:, :4].T

        # Rows: one per (request, candidate size), each with its own block
        # of local slots (boundary inputs, then member outputs).
        row_request = np.repeat(np.arange(len(requests)), num_sizes)
        row_size = _ranges(np.zeros_like(num_sizes), num_sizes)
        row_inputs = num_inputs[row_request]
        row_members = num_members[row_request]
        row_base = _starts(row_inputs + row_members)
        mu = np.empty(int((row_inputs + row_members).sum()))
        sg = np.empty_like(mu)
        boundary = [
            arrivals.get(net, ZERO_DELAY) for sub, arrivals in requests for net in sub.input_nets
        ]
        inputs = _ranges(_starts(num_inputs)[row_request], row_inputs)
        slots = _ranges(row_base, row_inputs)
        mu[slots] = np.array([rv.mean for rv in boundary])[inputs]
        sg[slots] = np.array([rv.sigma for rv in boundary])[inputs]

        # Entries: one per (row, member), sorted by local level so that each
        # level is one slice; ``member`` indexes the concatenated programs.
        member = _ranges(_starts(num_members)[row_request], row_members)
        entry_row = np.repeat(np.arange(row_request.size), row_members)
        order = np.argsort(level[member], kind="stable")
        member, entry_row = member[order], entry_row[order]
        bounds = np.searchsorted(level[member], np.arange(int(level.max()) + 2))
        out_slots = (row_base + row_inputs - _starts(num_members)[row_request])[entry_row] + member
        fanin = program[member, 4:]
        fanin_mask = fanin >= 0
        fanin = fanin + row_base[entry_row][:, None]

        # Delays: unaffected members once per distinct gate, the seed and
        # its member drivers per row at the row's trial size.
        variation, delay_model = self.fassta.variation_model, self.fassta.delay_model
        distinct, which = np.unique(gate_ids[member], return_inverse=True)
        delay_mu, delay_sg = variation.delay_moments(circuit, delay_model, distinct)
        delay_mu, delay_sg = delay_mu[which], delay_sg[which]
        trials = np.flatnonzero(affected[member])
        trial_rows = entry_row[trials]
        seeds = np.array([plan.gate_index[sub.seed] for sub, _ in requests])
        delay_mu[trials], delay_sg[trials] = variation.delay_moments(
            circuit,
            delay_model,
            gate_ids[member[trials]],
            (seeds[row_request[trial_rows]], row_size[trial_rows]),
        )

        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
            mu[out_slots[lo:hi]], sg[out_slots[lo:hi]] = fold_level(
                mu, sg, fanin[lo:hi], fanin_mask[lo:hi], delay_mu[lo:hi], delay_sg[lo:hi]
            )
        if not (np.isfinite(mu).all() and np.isfinite(sg).all()):
            raise ValueError("mean and sigma must be finite")

        # Cost per output, then worst and total column by column in
        # ``output_nets`` order: Python's max and left-to-right sum.
        observed = np.flatnonzero(rank[member] >= 0)
        out = np.full((row_request.size, int(rank.max()) + 1), -1, dtype=np.intp)
        out[entry_row[observed], rank[member[observed]]] = out_slots[observed]
        cost = mu[out] + self.cost.lam * sg[out]
        worst = np.full(row_request.size, -np.inf)
        total = np.zeros(row_request.size)
        for col in range(out.shape[1]):
            here = out[:, col] >= 0
            worst = np.where(here & (cost[:, col] > worst), cost[:, col], worst)
            total = np.where(here, total + cost[:, col], total)
        rows = zip(worst.tolist(), total.tolist(), strict=True)
        return [
            {size: CostComponents(*next(rows)) for size in range(count)}
            for count in num_sizes.tolist()
        ]

    def best_seed_size(
        self, subcircuit: Subcircuit, boundary_arrivals: Mapping[str, NormalDelay]
    ) -> int:
        """The seed size with the best subcircuit cost, by one size sweep.

        Unmemoized; :meth:`best_sizes` is the memoized entry point both
        sizers use.
        """
        return self._pick(
            subcircuit, self.size_sweep_components([(subcircuit, boundary_arrivals)])[0]
        )

    @staticmethod
    def _pick(subcircuit: Subcircuit, sweep: Dict[int, CostComponents]) -> int:
        """The best-size rule: in library order, a candidate wins when it is
        strictly better than the best so far, starting from the seed's
        current size, which it returns when no candidate beats it."""
        current = subcircuit.parent.gate(subcircuit.seed).size_index
        best = current
        for size_index, cost in sweep.items():
            if size_index != current and cost.better_than(sweep[best]):
                best = size_index
        return best


def _starts(counts: IntArray) -> IntArray:
    """Offset of each block in a concatenation of blocks of ``counts`` items."""
    return np.cumsum(counts) - counts


def _ranges(starts: IntArray, counts: IntArray) -> IntArray:
    """``arange(start, start + count)`` for every pair, concatenated."""
    return np.arange(int(counts.sum())) + np.repeat(starts - _starts(counts), counts)
