"""StatisticalGreedy — the gain-based statistical sizing algorithm (paper Fig. 2).

The optimizer nests the two statistical engines:

* the **outer loop** runs FULLSSTA over the whole circuit, records per-node
  arrival moments, and traces the WNSS path;
* the **inner loop** visits every gate on the WNSS path, extracts the
  two-level TFI/TFO subcircuit around it, and evaluates every available
  discrete size of that gate with FASSTA, scoring candidates with the
  weighted cost ``max_i (mu_i + lambda * sigma_i)`` over the subcircuit's
  outputs (Eq. 7).  The best size per gate is *scheduled*; all scheduled
  resizes are applied together at the end of the pass ("Resize scheduled
  gates"), and the outer loop repeats.

Termination follows the paper: "until constraints are satisfied or no
further improvements can be made".  Improvement is measured on the
circuit-level objective ``mu_O + lambda * sigma_O`` computed by FULLSSTA;
an optional sigma target and iteration cap provide the constrained mode.

Throughput machinery (all exactness-preserving: results are bitwise those
of the from-scratch engines, so the optimization trajectory is the same):

* every outer-loop state is timed once, through
  :class:`~repro.core.fullssta.IncrementalReanalysis`: a pass's bulk resize
  and its fallback trials (many per stacked preview) are previewed against
  the committed state, which holds the circuit's sizes between passes, and
  only the states kept are committed (:func:`resize_scheduled_gates`, the
  accept/reject schedule the mean-delay baseline runs on nominal STA);
* the inner loop is one :meth:`CostEvaluator.best_sizes
  <repro.core.cost.CostEvaluator.best_sizes>` call per pass, shared with
  the mean-delay baseline: memoized subcircuit extraction, an exact
  decision memo, and one vectorized FASSTA batch for every miss at every
  candidate size, with the committed per-net-slot moments of the
  incremental FULLSSTA as boundary moments.  The WNSS traces read only the
  pass's FULLSSTA result and resizes are committed only at the end of the
  pass, so the batch makes exactly the decisions a gate-by-gate loop
  would.  A decision stands while its region's sizes and boundary moments
  do, so gates far from the action hit the memo every pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

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

_Result = TypeVar("_Result")
_Score = TypeVar("_Score")

#: Trials in the fallback's first stacked preview and in the first after each keep.
FIRST_STACK = 8


@dataclass
class SizerConfig:
    """Tuning knobs of the StatisticalGreedy optimizer.

    Parameters mirror the paper's description; defaults reproduce its setup.
    ``pdf_samples`` is FULLSSTA's samples per pdf (at least 3).

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
    """

    lam: float = 3.0
    subcircuit_depth: int = DEFAULT_DEPTH
    max_iterations: int = 60
    sigma_target: Optional[float] = None
    pdf_samples: int = 13
    max_outputs_per_pass: int = 6
    patience: int = 4
    objective: str = "cost"
    target_yield: float = 0.99
    max_area_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.subcircuit_depth < 0:
            raise ValueError("subcircuit_depth must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.pdf_samples < 3:
            raise ValueError("pdf_samples must be >= 3")
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
    #: FULLSSTA analyses of the starting design and of the restored best
    #: design, each bitwise equal to a fresh ``FULLSSTA.analyze`` of it.
    initial_analysis: FullSstaResult
    final_analysis: FullSstaResult
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
    def initial(self) -> NormalDelay:
        """Output moments of the starting design."""
        return self.initial_analysis.output_rv

    @property
    def final(self) -> NormalDelay:
        """Output moments of the returned (best) design."""
        return self.final_analysis.output_rv

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
        reanalysis = IncrementalReanalysis(self.fullssta, circuit)

        initial_full = reanalysis.analyze()
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

        def fits() -> bool:
            """True when the circuit respects the optional area constraint."""
            if area_limit is None:
                return True
            return self.delay_model.circuit_area(circuit) <= area_limit * (1.0 + 1e-12)

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

            # The traces read only current_full, so every visit's best size
            # comes from one batched evaluation.  A gate is scheduled at its
            # first visit, which sets the order of the one-at-a-time trials.
            paths = [
                self.tracer.trace(circuit, current_full.arrival_moments, start_output=net)
                for net in outputs_by_cost
            ]
            wnss_length = max((len(wnss) for wnss in paths), default=0)
            visits = [gate_name for wnss in paths for gate_name in wnss.gates]
            best = self.evaluator.best_sizes(
                circuit, visits, config.subcircuit_depth, reanalysis.mean, reanalysis.sigma
            )
            scheduled = {
                name: best[name]
                for name in visits
                if best[name] != circuit.gate(name).size_index
            }

            if not scheduled:
                converged = True
                break

            # "Resize scheduled gates", with the one-at-a-time fallback.
            kept, current_full, new_components = resize_scheduled_gates(
                reanalysis, circuit, scheduled, best_components,
                partial(self._objective_components, circuit), CostComponents.better_than, fits,
            )

            # The pass is accepted even when it does not beat the best-seen
            # objective (later passes can recover through the new loads); the
            # best configuration is tracked and restored at the end, and the
            # loop stops after ``patience`` passes without a new best.
            iterations.append(
                IterationRecord(
                    index=iteration,
                    objective=self.cost.of(current_full.output_rv),
                    mean=current_full.output_rv.mean,
                    sigma=current_full.output_rv.sigma,
                    area=self.delay_model.circuit_area(circuit),
                    wnss_length=wnss_length,
                    resized_gates=kept or scheduled,
                )
            )

            if new_components.better_than(best_components) and fits():
                best_components = new_components
                best_sizes = circuit.sizes()
                best_full = current_full
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    converged = True
                    break

        # Restore the best configuration seen during the run.
        circuit.apply_sizes(best_sizes)
        runtime = clock() - start_time

        # This run's share of the evaluator's cumulative counters.
        diagnostics: Dict[str, int] = {
            key: value - start_counters[key]
            for key, value in self.evaluator.counters.items()
        }
        diagnostics.update(reanalysis.stats)
        METRICS.counter("sizer.eval_cache_hits", diagnostics["evaluation_cache_hits"])
        METRICS.counter("sizer.eval_cache_misses", diagnostics["evaluation_cache_misses"])
        METRICS.counter("sizer.subcircuit_cache_hits", diagnostics["subcircuit_cache_hits"])
        METRICS.counter(
            "sizer.subcircuit_cache_misses", diagnostics["subcircuit_cache_misses"]
        )

        return SizerResult(
            circuit=circuit,
            initial_analysis=initial_full,
            final_analysis=best_full,
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


def resize_scheduled_gates(
    timer: Any,
    circuit: Circuit,
    scheduled: Dict[str, int],
    best: _Score,
    score: Callable[[_Result], _Score],
    better: Callable[[_Score, _Score], bool],
    fits: Callable[[], bool] = lambda: True,
) -> Tuple[Dict[str, int], _Result, _Score]:
    """Fig. 2's "Resize scheduled gates" with its fallback, for both sizers.

    ``timer`` speaks :class:`~repro.core.fullssta.IncrementalReanalysis`'s
    ``analyze`` / ``preview`` / ``commit_preview`` protocol, committed at the
    circuit's sizes.  The schedule is kept when ``better(score(result),
    best)`` and ``fits()`` (on the circuit as it stands).  Otherwise (resizes
    interact through shared loads) it is reverted and previewed in galloping
    stacks of :data:`FIRST_STACK`, twice that, and so on: the first trial
    better than the last kept one that fits is kept, and the next stack
    starts right after it at :data:`FIRST_STACK` again, so the decisions
    are a one-at-a-time loop's.  If no trial is kept, the
    schedule is kept anyway (its loads may unlock the next pass) and
    committed with ``analyze()``, which reuses the held bulk preview (both
    ``IncrementalReanalysis`` and the baseline's ``NominalTimer`` hold it).

    Returns the resizes kept for beating ``best`` (empty when the schedule
    was kept anyway) and the result and score of the circuit's new sizes.
    """
    undo = {name: circuit.gate(name).size_index for name in scheduled}
    circuit.apply_sizes(scheduled)
    bulk = timer.preview()
    assert bulk is not None  # no structural edit happens inside a pass
    bulk_score = score(bulk)
    if better(bulk_score, best) and fits():
        committed = timer.commit_preview()
        assert committed, "the circuit holds the previewed sizes"
        return dict(scheduled), bulk, bulk_score
    circuit.apply_sizes(undo)

    trials = list(scheduled.items())
    kept: Dict[str, int] = {}
    start, stack_size = 0, FIRST_STACK
    while start < len(trials):
        stack = trials[start:start + stack_size]
        previews = timer.preview(stack)
        assert previews is not None
        start, stack_size = start + len(stack), 2 * stack_size
        for index, trial_result in enumerate(previews):
            trial_score = score(trial_result)
            if not better(trial_score, best):
                continue
            name, size = stack[index]
            circuit.set_size(name, size)
            if not fits():
                circuit.set_size(name, undo[name])
                continue
            committed = timer.commit_preview(index)
            assert committed, "the circuit holds the previewed trial"
            kept[name] = size
            result, best = trial_result, trial_score
            start, stack_size = start - len(stack) + index + 1, FIRST_STACK
            break
    if not kept:
        circuit.apply_sizes(scheduled)
        timer.analyze()
        result, best = bulk, bulk_score
    return kept, result, best
