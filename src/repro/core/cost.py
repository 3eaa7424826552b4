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
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.discrete_pdf import DiscretePDF
from repro.core.fassta import FASSTA, fold_level
from repro.core.rv import NormalDelay, ZERO_DELAY, _standard_normal_quantile
from repro.core.subcircuit import Subcircuit, SubcircuitCache
from repro.ir.compiled import CompiledCircuit, IntArray
from repro.library.delay_model import FloatArray
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
      :meth:`~repro.core.subcircuit.Subcircuit.local_program` and
      :meth:`~repro.core.subcircuit.Subcircuit.dependencies`
      (:class:`~repro.core.subcircuit.SubcircuitCache`);
    * every decision per (gate, depth), reused while none of its region's
      :meth:`~repro.core.subcircuit.Subcircuit.dependencies` (member and
      fringe sizes, boundary moments) changed since the call that made it.
      Each call stamps the gate sizes and net-slot moments that differ, bit
      for bit, from the previous call's.  A resize reverted after a call
      saw it misses, which recomputes the same answer.  Hits and misses
      count distinct gates per call.

    Delays come from the packed delay stage, which reads sizes from the
    compiled IR, so sizes must change through ``Circuit.set_size``.

    Parameters
    ----------
    fassta:
        The fast inner-loop engine.
    cost:
        The weighted cost (carries lambda).
    """

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
        self._plan: Optional[CompiledCircuit] = None  # the IR the stamps index
        self._calls = 0
        self._seen = (np.empty(0, dtype=np.intp), np.empty((2, 0), dtype=np.int64))
        self._stamps = np.empty(0, dtype=np.intp)  # last change: per gate id, then net slot
        self._decisions: Dict[int, IntArray] = {}  # per depth and gate id: size, call made

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
        mean: FloatArray,
        sigma: FloatArray,
    ) -> Dict[str, int]:
        """Best size of each of ``gate_names`` by the cost of its ``depth``-level subcircuit.

        ``mean`` and ``sigma`` give the arrival moments per net slot of the
        compiled circuit, past ``num_nets`` ignored (committed FULLSSTA
        moments for the statistical sizer, nominal STA times with zero
        sigma for the baseline).  Each distinct gate's answer is
        :meth:`best_seed_size` of its extracted region, memoized as the
        class docstring describes; the misses are swept in one batch.  A
        gate's answer is its current size when no candidate beats it.
        """
        plan = circuit.compiled()
        sizes = plan.size_index.copy()
        moments = np.stack([mean[:plan.num_nets], sigma[:plan.num_nets]]).view(np.int64)
        if plan is not self._plan:  # another circuit, or a structural edit
            self._plan, self._calls, self._seen, self._decisions = plan, 0, (sizes, moments), {}
            self._stamps = np.zeros(plan.num_gates + plan.num_nets, dtype=np.intp)
        self._calls += 1
        self._stamps[:plan.num_gates][sizes != self._seen[0]] = self._calls
        self._stamps[plan.num_gates:][(moments != self._seen[1]).any(axis=0)] = self._calls
        self._seen = sizes, moments

        names = list(dict.fromkeys(gate_names))
        if not names:
            return {}
        regions = [self.subcircuits.get(circuit, name, depth) for name in names]
        seeds = np.array([plan.gate_index[name] for name in names], dtype=np.intp)
        watched = [region.dependencies() for region in regions]
        changed = np.maximum.reduceat(
            self._stamps[np.concatenate(watched)],
            _starts(np.array([w.size for w in watched], dtype=np.intp)),
        )
        best, made = self._decisions.setdefault(depth, np.zeros((2, plan.num_gates), dtype=np.intp))
        miss = np.flatnonzero((made[seeds] == 0) | (changed > made[seeds]))
        self.memo_hits += len(names) - miss.size
        self.memo_misses += miss.size
        if miss.size:
            best[seeds[miss]] = self._best([regions[i] for i in miss.tolist()], mean, sigma)
            made[seeds[miss]] = self._calls
        return dict(zip(names, best[seeds].tolist(), strict=True))

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
        self, subcircuits: Sequence[Subcircuit], mean: FloatArray, sigma: FloatArray
    ) -> Tuple[FloatArray, FloatArray, IntArray]:
        """(worst, total) cost for every library size of every subcircuit's seed.

        ``mean`` and ``sigma`` hold the boundary moments per net slot of
        the parent circuit.  Returns the worst and total cost per row, one
        row per (subcircuit, size) in subcircuit order and ascending size,
        each bitwise equal to :meth:`candidate_size_cost_components` at that
        size, and each subcircuit's number of sizes.  The batch is one
        vectorized FASSTA evaluation (:meth:`_evaluate`), taken in
        consecutive groups of seeds of at most :attr:`BATCH_ENTRIES`
        (row, member) entries each, which bounds its temporaries.  No gate
        is resized, not even temporarily.
        """
        library = self.fassta.delay_model.library
        plan = subcircuits[0].parent.compiled()
        seeds = np.array([plan.gate_index[sub.seed] for sub in subcircuits], dtype=np.intp)
        counts = np.array([library.num_sizes(cell) for cell in plan.cell_types], dtype=np.intp)
        num_sizes = counts[plan.cell_type_ids[seeds]]
        entries = (num_sizes * [sub.num_gates for sub in subcircuits]).tolist()
        with span("cost.sweep") as sp:
            group = [0]
            load = 0
            for index, count in enumerate(entries):
                if index > group[-1] and load + count > self.BATCH_ENTRIES:
                    group.append(index)
                    load = 0
                load += count
            group.append(len(subcircuits))
            costs = [
                self._evaluate(subcircuits[lo:hi], seeds[lo:hi], num_sizes[lo:hi], mean, sigma)
                for lo, hi in zip(group[:-1], group[1:], strict=True)
            ]
            sp.set(seeds=len(subcircuits), rows=int(num_sizes.sum()), entries=sum(entries))
        worst, total = (np.concatenate(column) for column in zip(*costs, strict=True))
        return worst, total, num_sizes

    def _evaluate(
        self,
        subcircuits: Sequence[Subcircuit],
        seeds: IntArray,
        num_sizes: IntArray,
        mean: FloatArray,
        sigma: FloatArray,
    ) -> Tuple[FloatArray, FloatArray]:
        """One vectorized FASSTA evaluation of every (seed, size) row.

        Each row is one copy of its seed's
        :meth:`~repro.core.subcircuit.Subcircuit.local_program` with its own
        block of local slots, timed level by level across all rows with
        :func:`~repro.core.fassta.fold_level`.  The boundary inputs read
        ``mean`` and ``sigma`` at their net slots.  Unaffected members are
        timed once per distinct gate, the affected ones per row on the
        packed stage's trial form (:meth:`VariationModel.delay_moments
        <repro.variation.model.VariationModel.delay_moments>`).
        """
        circuit = subcircuits[0].parent
        num_inputs = np.array([len(sub.input_nets) for sub in subcircuits], dtype=np.intp)
        num_members = np.array([sub.num_gates for sub in subcircuits], dtype=np.intp)
        program = np.concatenate([sub.local_program() for sub in subcircuits])
        gate_ids, level, affected, rank = program[:, :4].T

        # Rows: one per (subcircuit, candidate size), each with its own block
        # of local slots (boundary inputs, then member outputs).
        row_request = np.repeat(np.arange(len(subcircuits)), num_sizes)
        row_size = _ranges(np.zeros_like(num_sizes), num_sizes)
        row_inputs = num_inputs[row_request]
        row_members = num_members[row_request]
        row_base = _starts(row_inputs + row_members)
        mu = np.empty(int((row_inputs + row_members).sum()))
        sg = np.empty_like(mu)
        boundary = np.concatenate([sub.input_slots() for sub in subcircuits])
        inputs = boundary[_ranges(_starts(num_inputs)[row_request], row_inputs)]
        slots = _ranges(row_base, row_inputs)
        mu[slots], sg[slots] = mean[inputs], sigma[inputs]

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
        return worst, total

    def best_seed_size(self, subcircuit: Subcircuit, mean: FloatArray, sigma: FloatArray) -> int:
        """The seed size with the best subcircuit cost, by one size sweep.

        Unmemoized; :meth:`best_sizes` is the memoized entry point both
        sizers use.
        """
        return int(self._best([subcircuit], mean, sigma)[0])

    def _best(
        self, subcircuits: Sequence[Subcircuit], mean: FloatArray, sigma: FloatArray
    ) -> IntArray:
        """The best-size rule over one sweep of every subcircuit, all rows at once.

        Per seed, in library order, a candidate wins when it is strictly
        better (:meth:`CostComponents.better_than`, elementwise) than the
        best so far, starting from the seed's current size, which it keeps
        when no candidate beats it.
        """
        worst, total, num_sizes = self.size_sweep_components(subcircuits, mean, sigma)
        plan = subcircuits[0].parent.compiled()
        current = plan.size_index[[plan.gate_index[sub.seed] for sub in subcircuits]]
        first, best = _starts(num_sizes), current.copy()
        for size in range(int(num_sizes.max())):
            live = (size < num_sizes) & (size != current)
            row, held = first + np.where(live, size, best), first + best
            w, w_best = worst[row], worst[held]
            tol = CostComponents.REL_TOL * np.maximum(np.maximum(np.abs(w), np.abs(w_best)), 1.0)
            better = (w < w_best - tol) | (~(w > w_best + tol) & (total[row] < total[held] - tol))
            best[live & better] = size
        return best


def _starts(counts: IntArray) -> IntArray:
    """Offset of each block in a concatenation of blocks of ``counts`` items."""
    return np.cumsum(counts) - counts


def _ranges(starts: IntArray, counts: IntArray) -> IntArray:
    """``arange(start, start + count)`` for every pair, concatenated."""
    return np.arange(int(counts.sum())) + np.repeat(starts - _starts(counts), counts)
