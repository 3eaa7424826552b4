"""StatisticalGreedy — the gain-based statistical sizing algorithm (paper Fig. 2).

The optimizer nests the two statistical engines:

* the **outer loop** runs FULLSSTA over the whole circuit, records per-node
  arrival moments, and traces the WNSS path;
* the **inner loop** visits every gate on the WNSS path, extracts the
  two-level TFI/TFO subcircuit around it, and evaluates every available
  discrete size of that gate with FASSTA, scoring candidates with the
  weighted cost ``max_i (mu_i + lambda * sigma_i)`` over the subcircuit's
  outputs (Eq. 7).  The best size per gate is *scheduled*; all scheduled
  resizes are committed together at the end of the pass ("Resize scheduled
  gates"), and the outer loop repeats.

Termination follows the paper: "until constraints are satisfied or no
further improvements can be made".  Improvement is measured on the
circuit-level objective ``mu_O + lambda * sigma_O`` computed by FULLSSTA;
an optional sigma target and iteration cap provide the constrained mode.

Throughput machinery (all exactness-preserving, so enabling it never
changes the optimization trajectory):

* the outer engine runs behind :class:`~repro.core.fullssta.IncrementalReanalysis`
  — after each commit only the resized gates' cones are re-propagated;
* the inner loop is :meth:`CostEvaluator.best_size
  <repro.core.cost.CostEvaluator.best_size>`, shared with the mean-delay
  baseline: memoized subcircuit extraction, delay moments of unaffected
  members shared across candidates and seeds, and an exact decision memo.
  With incremental FULLSSTA, untouched regions keep bitwise-identical
  moments between passes, so gates far from the action hit the memo every
  pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.cost import CostComponents, CostEvaluator, WeightedCost, YieldObjective
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA, FullSstaResult, IncrementalReanalysis
from repro.core.rv import NormalDelay
from repro.core.subcircuit import DEFAULT_DEPTH
from repro.core.wnss import WNSSTracer
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, clock, span
from repro.variation.model import VariationModel


@dataclass
class SizerConfig:
    """Tuning knobs of the StatisticalGreedy optimizer.

    Parameters mirror the paper's description; defaults reproduce its setup.
    ``incremental_reanalysis`` selects the fast evaluation pipeline: it is
    exactness-preserving and on by default; turning it off re-runs the
    levelized FULLSSTA from scratch for every outer-loop analysis (the
    reference in ``benchmarks/bench_incremental.py``).

    ``objective`` selects what the optimizer minimizes:

    * ``"cost"`` (default) — the paper's weighted cost ``mu + lam * sigma``;
    * ``"yield"`` — the smallest clock period achieving ``target_yield``
      (:class:`~repro.core.cost.YieldObjective`).  ``lam`` is then ignored:
      the inner loop scores candidates with the equivalent weight
      ``z = Phi^{-1}(target_yield)`` while circuit-level accept/reject
      decisions use the exact FULLSSTA discrete-pdf quantile.  An optional
      ``max_area_ratio`` rejects states whose area exceeds that multiple of
      the starting area (the area-constrained variant); the constraint also
      applies under the cost objective when set.

    ``criticality_threshold`` enables criticality-guided candidate pruning:
    before each pass the per-gate statistical criticality probabilities are
    computed from the recorded FULLSSTA arrival moments
    (:class:`~repro.criticality.analysis.CriticalityAnalyzer`), and WNSS
    gates whose criticality falls below the threshold are skipped by the
    inner loop.  The default of ``0.0`` disables pruning entirely — the
    optimization trajectory is then bit-identical to a sizer without the
    feature; practical thresholds (0.01-0.05) trade a small objective
    deviation for fewer subcircuit evaluations per pass
    (``benchmarks/bench_criticality.py`` measures both).
    """

    lam: float = 3.0
    subcircuit_depth: int = DEFAULT_DEPTH
    max_iterations: int = 60
    sigma_target: Optional[float] = None
    pdf_samples: int = 13
    max_outputs_per_pass: int = 6
    patience: int = 4
    incremental_reanalysis: bool = True
    objective: str = "cost"
    target_yield: float = 0.99
    max_area_ratio: Optional[float] = None
    criticality_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.subcircuit_depth < 0:
            raise ValueError("subcircuit_depth must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_outputs_per_pass < 1:
            raise ValueError("max_outputs_per_pass must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.sigma_target is not None and self.sigma_target < 0:
            raise ValueError("sigma_target must be non-negative")
        if self.objective not in ("cost", "yield"):
            raise ValueError(
                f"objective must be 'cost' or 'yield', got {self.objective!r}"
            )
        if self.objective == "yield" and not 0.5 <= self.target_yield < 1.0:
            raise ValueError("target_yield must be in [0.5, 1)")
        if self.max_area_ratio is not None and self.max_area_ratio < 1.0:
            raise ValueError("max_area_ratio must be >= 1 (relative to start)")
        if not 0.0 <= self.criticality_threshold < 1.0:
            raise ValueError("criticality_threshold must be in [0, 1)")


@dataclass
class IterationRecord:
    """Diagnostics of one outer-loop iteration."""

    index: int
    objective: float
    mean: float
    sigma: float
    area: float
    wnss_length: int
    resized_gates: Dict[str, int] = field(default_factory=dict)


@dataclass
class SizerResult:
    """Outcome of a StatisticalGreedy run."""

    circuit: Circuit
    initial: NormalDelay
    final: NormalDelay
    initial_area: float
    final_area: float
    iterations: List[IterationRecord]
    runtime_seconds: float
    lam: float
    converged: bool
    diagnostics: Dict[str, int] = field(default_factory=dict)
    #: Which objective drove the run ("cost" or "yield"); in yield mode
    #: ``lam`` records the equivalent z-score weight actually used.
    objective: str = "cost"
    target_yield: Optional[float] = None

    @property
    def sigma_reduction_pct(self) -> float:
        """Percentage reduction in output sigma relative to the starting point."""
        if self.initial.sigma == 0:
            return 0.0
        return 100.0 * (self.initial.sigma - self.final.sigma) / self.initial.sigma

    @property
    def mean_increase_pct(self) -> float:
        if self.initial.mean == 0:
            return 0.0
        return 100.0 * (self.final.mean - self.initial.mean) / self.initial.mean

    @property
    def area_increase_pct(self) -> float:
        if self.initial_area == 0:
            return 0.0
        return 100.0 * (self.final_area - self.initial_area) / self.initial_area

    @property
    def final_cv(self) -> float:
        """Final sigma/mu ratio (the paper's per-circuit quality metric)."""
        return self.final.sigma / self.final.mean if self.final.mean else 0.0

    @property
    def initial_cv(self) -> float:
        return self.initial.sigma / self.initial.mean if self.initial.mean else 0.0


class StatisticalGreedySizer:
    """The paper's StatisticalGreedy algorithm (Fig. 2)."""

    def __init__(
        self,
        delay_model: BaseDelayModel,
        variation_model: VariationModel,
        config: Optional[SizerConfig] = None,
    ) -> None:
        self.delay_model = delay_model
        self.variation_model = variation_model
        self.config = config or SizerConfig()

        # Under the yield objective every moment-based ranking (inner-loop
        # candidate scores, WNSS tracing, output ordering) uses the target's
        # z-score as the lambda weight — for normal moments mu + z * sigma
        # *is* the period achieving the target yield — while circuit-level
        # accept/reject decisions use the discrete-pdf quantile directly.
        self.yield_objective: Optional[YieldObjective] = None
        if self.config.objective == "yield":
            self.yield_objective = YieldObjective(self.config.target_yield)
            self.cost = self.yield_objective.equivalent_cost()
        else:
            self.cost = WeightedCost(self.config.lam)
        self.fullssta = FULLSSTA(
            delay_model, variation_model, num_samples=self.config.pdf_samples
        )
        self.fassta = FASSTA(delay_model, variation_model)
        self.evaluator = CostEvaluator(self.fassta, self.cost)
        self.tracer = WNSSTracer(
            coupling=variation_model.mean_sigma_coupling, lam=self.cost.lam
        )

    # ------------------------------------------------------------------
    def optimize(self, circuit: Circuit) -> SizerResult:
        """Run StatisticalGreedy on ``circuit`` in place and return the result."""
        with span("sizer.optimize", circuit=circuit.name) as sp:
            result = self._optimize(circuit)
            sp.set(
                iterations=len(result.iterations),
                converged=result.converged,
            )
        return result

    def _optimize(self, circuit: Circuit) -> SizerResult:
        start_time = clock()
        start_counters = self.evaluator.counters
        config = self.config

        reanalysis: Optional[IncrementalReanalysis] = None
        if config.incremental_reanalysis:
            reanalysis = IncrementalReanalysis(self.fullssta, circuit)
            analyze: Callable[[], FullSstaResult] = reanalysis.analyze
        else:
            analyze = lambda: self.fullssta.analyze(circuit)  # noqa: E731

        # Criticality-guided pruning (off at threshold 0: no analyzer is even
        # built, so the default path is exactly the historical one).
        crit_analyzer = None
        pruned_gates = 0
        if config.criticality_threshold > 0.0:
            from repro.criticality.analysis import CriticalityAnalyzer

            crit_analyzer = CriticalityAnalyzer(circuit)

        initial_full = analyze()
        initial_rv = initial_full.output_rv
        initial_area = self.delay_model.circuit_area(circuit)
        area_limit = (
            config.max_area_ratio * initial_area
            if config.max_area_ratio is not None
            else None
        )

        best_components = self._objective_components(circuit, initial_full)
        best_sizes = circuit.sizes()
        best_full = initial_full
        iterations: List[IterationRecord] = []
        converged = False
        current_full = initial_full
        stall = 0

        for iteration in range(config.max_iterations):
            # Constraint check ("until constraints met").
            if (
                config.sigma_target is not None
                and current_full.output_rv.sigma <= config.sigma_target
            ):
                converged = True
                break

            # Trace the WNSS path of the worst output first; if none of its
            # gates can be improved, fall through to the next-worst outputs.
            # A circuit's variance is set by *all* outputs with comparable
            # mean (paper §2.1), so giving up after the single worst path
            # would leave most of the recoverable variance on the table.
            outputs_by_cost = sorted(
                circuit.primary_outputs,
                key=lambda net: self.cost.of(current_full.arrival(net)),
                reverse=True,
            )[: config.max_outputs_per_pass]

            # One criticality analysis per pass: gates below the floor are
            # excluded from the inner loop's candidate set.
            critical_enough = None
            if crit_analyzer is not None:
                crit = crit_analyzer.analyze(current_full.arrival_moments)
                critical_enough = {
                    name
                    for name, value in crit.gate_criticality.items()
                    if value >= config.criticality_threshold
                }

            scheduled: Dict[str, int] = {}
            wnss_length = 0
            for output_net in outputs_by_cost:
                wnss = self.tracer.trace(
                    circuit, current_full.arrival_moments, start_output=output_net
                )
                wnss_length = max(wnss_length, len(wnss))
                for gate_name in wnss.gates:
                    if gate_name in scheduled:
                        continue
                    if (
                        critical_enough is not None
                        and gate_name not in critical_enough
                    ):
                        pruned_gates += 1
                        continue
                    new_size = self._best_size_for(circuit, gate_name, current_full)
                    if new_size is not None:
                        scheduled[gate_name] = new_size

            if not scheduled:
                converged = True
                break

            # "Resize scheduled gates" — commit the whole pass at once.
            snapshot = circuit.sizes()
            for gate_name, size_index in scheduled.items():
                circuit.set_size(gate_name, size_index)

            new_full = analyze()
            new_objective = self.cost.of(new_full.output_rv)
            new_components = self._objective_components(circuit, new_full)

            bulk_improved = new_components.better_than(
                best_components
            ) and self._area_ok(circuit, area_limit)
            if not bulk_improved:
                # Bulk commit did not help (individually good moves can
                # interact through shared loads, or blow the area budget).
                # Roll back and retry the scheduled resizes one at a time,
                # keeping only those that improve the global objective.
                circuit.apply_sizes(snapshot)
                accepted, accepted_full, accepted_components = self._commit_incrementally(
                    circuit, scheduled, best_components, analyze, reanalysis,
                    area_limit,
                )
                if accepted:
                    scheduled = accepted
                    new_full = accepted_full
                    new_components = accepted_components
                    new_objective = self.cost.of(new_full.output_rv)
                else:
                    # Nothing helps individually either: keep the bulk pass
                    # (the changed loads may unlock progress next pass) and
                    # let the patience counter decide when to give up.  The
                    # bulk-state analysis (new_full) is still valid for it.
                    for gate_name, size_index in scheduled.items():
                        circuit.set_size(gate_name, size_index)

            # The pass is accepted even when it does not beat the best-seen
            # objective (later passes can recover through the new loads); the
            # best configuration is tracked and restored at the end, and the
            # loop stops after ``patience`` passes without a new best.
            current_full = new_full
            iterations.append(
                IterationRecord(
                    index=iteration,
                    objective=new_objective,
                    mean=new_full.output_rv.mean,
                    sigma=new_full.output_rv.sigma,
                    area=self.delay_model.circuit_area(circuit),
                    wnss_length=wnss_length,
                    resized_gates=dict(scheduled),
                )
            )

            if new_components.better_than(best_components) and self._area_ok(
                circuit, area_limit
            ):
                best_components = new_components
                best_sizes = circuit.sizes()
                best_full = new_full
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    converged = True
                    break

        # Restore the best configuration seen during the run.
        circuit.apply_sizes(best_sizes)
        final_full = best_full
        runtime = clock() - start_time

        # This run's share of the evaluator's cumulative counters.
        diagnostics: Dict[str, int] = {
            key: value - start_counters[key]
            for key, value in self.evaluator.counters.items()
        }
        if crit_analyzer is not None:
            diagnostics["criticality_pruned_gates"] = pruned_gates
        if reanalysis is not None:
            diagnostics.update(reanalysis.stats)
        METRICS.counter("sizer.eval_cache_hits", diagnostics["evaluation_cache_hits"])
        METRICS.counter("sizer.eval_cache_misses", diagnostics["evaluation_cache_misses"])
        METRICS.counter("sizer.subcircuit_cache_hits", diagnostics["subcircuit_cache_hits"])
        METRICS.counter(
            "sizer.subcircuit_cache_misses", diagnostics["subcircuit_cache_misses"]
        )
        if crit_analyzer is not None:
            METRICS.counter("sizer.criticality_pruned_gates", pruned_gates)

        return SizerResult(
            circuit=circuit,
            initial=initial_rv,
            final=final_full.output_rv,
            initial_area=initial_area,
            final_area=self.delay_model.circuit_area(circuit),
            iterations=iterations,
            runtime_seconds=runtime,
            lam=self.cost.lam,
            converged=converged,
            diagnostics=diagnostics,
            objective=config.objective,
            target_yield=(
                config.target_yield if self.yield_objective is not None else None
            ),
        )

    # ------------------------------------------------------------------
    def _objective_components(
        self, circuit: Circuit, full_result: FullSstaResult
    ) -> CostComponents:
        """Global objective as (worst, total) components.

        Cost mode: the worst component is the paper's objective,
        ``mu + lambda * sigma`` of the circuit-level max arrival; the total
        sums the weighted cost over all primary outputs and acts as a
        tie-breaker so progress on non-worst outputs (which still feeds the
        overall variance) is recognised between passes.

        Yield mode: the same shape, but worst is the exact discrete-pdf
        period achieving the target yield on the circuit-level output pdf,
        and the tie-breaker sums the per-output pdf periods.
        """
        if self.yield_objective is not None:
            worst = self.yield_objective.period_for(full_result.output_pdf)
            total = sum(
                self.yield_objective.period_for(full_result.arrival_pdfs[net])
                for net in circuit.primary_outputs
            )
            return CostComponents(worst=worst, total=total)
        worst = self.cost.of(full_result.output_rv)
        total = sum(
            self.cost.of(full_result.arrival(net)) for net in circuit.primary_outputs
        )
        return CostComponents(worst=worst, total=total)

    # ------------------------------------------------------------------
    def _area_ok(self, circuit: Circuit, area_limit: Optional[float]) -> bool:
        """True when the circuit respects the optional area constraint."""
        if area_limit is None:
            return True
        return self.delay_model.circuit_area(circuit) <= area_limit * (1.0 + 1e-12)

    # ------------------------------------------------------------------
    def _commit_incrementally(
        self,
        circuit: Circuit,
        scheduled: Dict[str, int],
        best_components: CostComponents,
        analyze: Callable[[], FullSstaResult],
        reanalysis: Optional[IncrementalReanalysis],
        area_limit: Optional[float],
    ) -> "tuple[Dict[str, int], FullSstaResult, CostComponents]":
        """Apply scheduled resizes one at a time, keeping only improving ones.

        Fallback used when the bulk commit of a pass does not improve the
        global objective; returns the accepted resizes and the FULLSSTA
        result / objective components of the resulting circuit.  ``analyze``
        is the outer-loop analysis callable; with ``reanalysis`` available
        each trial is *previewed* against the cached state — an accepted
        trial commits its delta, a rejected one is reverted for free instead
        of paying a second cone re-propagation to undo itself.
        """
        if reanalysis is not None:
            # Sync the cache to the rolled-back base state once, so each
            # trial below is a single-cone preview on top of it.
            analyze()
        accepted: Dict[str, int] = {}
        components = best_components
        full_result: Optional[FullSstaResult] = None
        for gate_name, size_index in scheduled.items():
            previous = circuit.gate(gate_name).size_index
            circuit.set_size(gate_name, size_index)
            trial_full = reanalysis.preview() if reanalysis is not None else None
            previewed = trial_full is not None
            if trial_full is None:
                trial_full = analyze()
            trial_components = self._objective_components(circuit, trial_full)
            if trial_components.better_than(components) and self._area_ok(
                circuit, area_limit
            ):
                accepted[gate_name] = size_index
                components = trial_components
                full_result = trial_full
                if previewed:
                    reanalysis.commit_preview()
            else:
                circuit.set_size(gate_name, previous)
        if full_result is None:
            full_result = analyze()
        return accepted, full_result, components

    # ------------------------------------------------------------------
    def _best_size_for(
        self,
        circuit: Circuit,
        gate_name: str,
        full_result: FullSstaResult,
    ) -> Optional[int]:
        """Inner loop of Fig. 2: best size of one gate by subcircuit cost.

        Returns the winning size index, or ``None`` when the current size
        wins.  Boundary arrivals are the moments FULLSSTA recorded.
        """
        best = self.evaluator.best_size(
            circuit, gate_name, self.config.subcircuit_depth, full_result.arrival
        )
        return None if best == circuit.gate(gate_name).size_index else best
