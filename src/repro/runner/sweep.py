"""Process-pool sweep orchestrator for (circuit, lambda) experiment grids.

Every cell of a Table-1 or Fig-4 sweep is an independent job: build the
benchmark, size it for minimum mean delay, re-size it statistically at one
lambda, and measure the before/after moments.  :func:`run_cells` executes a
list of such cells either serially (``jobs=1``, in-process) or across a
``concurrent.futures.ProcessPoolExecutor``, persisting each completed cell
through :mod:`repro.runner.artifacts` and skipping cells whose artifact
already matches the current spec when ``resume=True``.

Cell specs and the evaluators are plain module-level dataclasses/functions
so they pickle cleanly into worker processes.  Results are deterministic —
the sizing flow has no randomness outside the seeded Monte-Carlo validator
— so serial and parallel sweeps produce identical rows (pinned by
``tests/runner/test_sweep.py``); only the recorded wall-clock runtimes
differ.

Failures have one behaviour.  A cell that raises does not stop its
siblings: every other cell still runs and persists its artifact, and
:func:`run_cells` then raises one ``RuntimeError`` naming each failed cell.
A worker process that dies surfaces as ``BrokenProcessPool`` on the cells
still in its pool, which fail the same way.  Ctrl-C is a plain
``KeyboardInterrupt``: the cells not yet started are cancelled and the
interrupt propagates.  Either way every finished artifact stays on disk,
so a rerun with ``resume=True`` computes only the rest.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import signal
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.circuits.registry import build_benchmark
from repro.core.sizer import SizerConfig
from repro.library.delay_model import LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.obs import (
    METRICS,
    MetricsRegistry,
    Tracer,
    activate,
    clock,
    load_trace,
    merge_traces,
    trace_payload,
    write_trace,
)
from repro.runner.artifacts import (
    DIGEST_LEN,
    artifact_path,
    load_artifact,
    spec_key,
    write_artifact,
)
from repro.runner.errors import check_payload_health
from repro.variation.model import VariationModel

#: Cell kinds understood by :func:`evaluate_cell`.
KINDS = ("table1", "fig4", "yield")


def config_with_lam(config: Optional[SizerConfig], lam: float) -> SizerConfig:
    """The sizer configuration for one sweep cell.

    Preserves every caller-chosen field (``subcircuit_depth``,
    ``max_iterations``, ...) and only swaps the lambda — the historical
    behavior of silently replacing a mismatched config with a default
    ``SizerConfig(lam=lam)`` dropped all of them.
    """
    if config is None:
        return SizerConfig(lam=lam)
    if config.lam == lam:
        return config
    return dataclasses.replace(config, lam=lam)


@dataclass(frozen=True)
class SubstrateSpec:
    """Picklable recipe for the library / delay / variation substrates.

    The CLI's ``--sizes-per-cell / --alpha / --random-sigma`` options map
    onto these fields, so a sweep cell carries the exact substrates it must
    be evaluated with (and they participate in the artifact key).
    """

    sizes_per_cell: int = 7
    proportional_alpha: float = 0.6
    random_sigma: float = 2.0

    def build(self) -> Tuple[Any, Any, Any]:
        """Instantiate (library, delay_model, variation_model)."""
        library = make_synthetic_90nm_library(sizes_per_cell=self.sizes_per_cell)
        delay_model = LookupTableDelayModel(library)
        variation_model = VariationModel(
            proportional_alpha=self.proportional_alpha,
            random_sigma=self.random_sigma,
        )
        return library, delay_model, variation_model


@dataclass(frozen=True)
class CellSpec:
    """One (circuit, lambda) cell of a sweep, fully self-describing.

    ``yield`` cells sweep a target yield instead of a lambda: their
    ``target_yield`` is set, their ``lam`` is fixed at 0.0 (the weight is
    derived from the target inside the sizer) and the artifact filename
    carries the target so different targets never collide.
    """

    kind: str
    circuit: str
    lam: float
    sizer_config: Optional[SizerConfig] = None
    monte_carlo_samples: int = 0
    seed: int = 0
    substrates: SubstrateSpec = SubstrateSpec()
    target_yield: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "yield" and self.target_yield is None:
            raise ValueError("yield cells need a target_yield")
        # Normalize so lam=3 and lam=3.0 describe the same cell: both the
        # artifact filename and the json-encoded key payload must agree, or
        # resume would recompute (and duplicate) semantically identical cells.
        object.__setattr__(self, "lam", float(self.lam))
        if self.target_yield is not None:
            object.__setattr__(self, "target_yield", float(self.target_yield))

    def payload(self) -> Dict[str, Any]:
        """Canonical JSON-able description of every input shaping the result."""
        sizer_config = dataclasses.asdict(
            config_with_lam(self.sizer_config, self.lam)
        )
        sizer_config["lam"] = float(sizer_config["lam"])
        return {
            "kind": self.kind,
            "circuit": self.circuit,
            "lam": self.lam,
            "target_yield": self.target_yield,
            "sizer_config": sizer_config,
            "monte_carlo_samples": self.monte_carlo_samples,
            "seed": self.seed,
            "substrates": dataclasses.asdict(self.substrates),
        }

    def key(self) -> str:
        return spec_key(self.payload())

    def digest(self) -> str:
        """Short spec-key prefix folded into the artifact filename.

        Covers every spec field the explicit filename parts miss —
        ``monte_carlo_samples``, ``seed``, substrates and the sizer config —
        so two table1 cells for the same circuit and lambda can never
        overwrite one file.
        """
        return self.key()[:DIGEST_LEN]

    def artifact_path(self, out_dir: Union[str, Path]) -> Path:
        """Canonical artifact file for this cell under ``out_dir``."""
        return artifact_path(
            out_dir, self.kind, self.circuit, self.lam, self.target_yield,
            digest=self.digest(),
        )

    def describe(self) -> str:
        """Human-readable one-liner for progress and error messages."""
        text = f"{self.kind} {self.circuit} lam={self.lam:g}"
        if self.target_yield is not None:
            text += f" y={self.target_yield:g}"
        return text


@dataclass
class CellResult:
    """Outcome of one cell: the result payload plus provenance."""

    spec: CellSpec
    key: str
    result: Dict[str, Any]
    runtime_seconds: float
    from_cache: bool = False
    #: Schema-1 trace payload of this cell's evaluation (span tree + the
    #: worker's per-cell metrics snapshot); ships back to the parent with
    #: the result and is persisted beside the artifact.
    trace: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def table1_row(self) -> "Table1Row":
        """Reconstruct the Table-1 row of a ``kind == "table1"`` cell."""
        # Imported lazily: repro.analysis re-exports the experiment runners,
        # which drive this module — a top-level import would be circular.
        from repro.analysis.metrics import Table1Row

        if self.spec.kind != "table1":
            raise ValueError(f"cell kind is {self.spec.kind!r}, not 'table1'")
        return Table1Row(**self.result)


@dataclass
class SweepReport:
    """Summary of one successful :func:`run_cells` invocation."""

    results: List[CellResult]
    computed: int
    skipped: int
    wall_seconds: float
    jobs: int
    out_dir: Optional[Path]
    #: Campaign-level metrics snapshot: every cell's registry merged, plus
    #: the orchestrator's own ``sweep.*`` counters.
    metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} cell(s): {self.computed} computed, "
            f"{self.skipped} reused from artifacts",
            f"wall {self.wall_seconds:.1f} s with jobs={self.jobs}",
        ]
        if self.out_dir is not None:
            parts.append(f"artifacts in {self.out_dir}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Spec builders
# ---------------------------------------------------------------------------
def table1_specs(
    circuit_names: Sequence[str],
    lams: Sequence[float],
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
    monte_carlo_samples: int = 0,
    seed: int = 0,
) -> List[CellSpec]:
    """The (circuit, lambda) grid of a Table-1 regeneration."""
    substrates = substrates or SubstrateSpec()
    return [
        CellSpec(
            kind="table1",
            circuit=name,
            lam=lam,
            sizer_config=config_with_lam(sizer_config, lam),
            monte_carlo_samples=monte_carlo_samples,
            seed=seed,
            substrates=substrates,
        )
        for name in circuit_names
        for lam in lams
    ]


def fig4_specs(
    circuit_name: str,
    lams: Sequence[float],
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
) -> List[CellSpec]:
    """One circuit swept across lambda values (the Fig. 4 trade-off curve)."""
    substrates = substrates or SubstrateSpec()
    return [
        CellSpec(
            kind="fig4",
            circuit=circuit_name,
            lam=lam,
            sizer_config=config_with_lam(sizer_config, lam),
            substrates=substrates,
        )
        for lam in lams
    ]


def yield_specs(
    circuit_names: Sequence[str],
    target_yields: Sequence[float],
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
) -> List[CellSpec]:
    """The (circuit, target_yield) grid of a yield-objective sweep.

    Each cell sizes its circuit for the minimum clock period achieving the
    target yield.  ``sizer_config`` supplies the budget knobs
    (``max_iterations``, ``pdf_samples``, ...); its objective, target and
    lambda are overridden per cell.
    """
    substrates = substrates or SubstrateSpec()
    base = sizer_config or SizerConfig()
    return [
        CellSpec(
            kind="yield",
            circuit=name,
            lam=0.0,
            sizer_config=dataclasses.replace(
                base, lam=0.0, objective="yield", target_yield=float(target)
            ),
            substrates=substrates,
            target_yield=target,
        )
        for name in circuit_names
        for target in target_yields
    ]


# ---------------------------------------------------------------------------
# Per-cell evaluators (module-level so they pickle into workers)
# ---------------------------------------------------------------------------
def _evaluate_table1(spec: CellSpec) -> Dict[str, Any]:
    from repro.analysis.metrics import Table1Row
    from repro.flow import run_sizing_flow

    circuit = build_benchmark(spec.circuit)
    library, delay_model, variation_model = spec.substrates.build()
    flow = run_sizing_flow(
        circuit,
        lam=spec.lam,
        library=library,
        delay_model=delay_model,
        variation_model=variation_model,
        sizer_config=config_with_lam(spec.sizer_config, spec.lam),
        monte_carlo_samples=spec.monte_carlo_samples,
        seed=spec.seed,
    )
    return dataclasses.asdict(Table1Row.from_flow(spec.circuit, flow))


#: Per-process memo of the deterministic fig4 baseline, keyed by
#: (circuit, substrates): (sizes, original mean, original sigma).  Serial
#: sweeps derive the mean-delay starting point once per circuit instead of
#: once per lambda; workers warm their own copy on first use.  MeanDelaySizer
#: is deterministic, so the memo never changes any result.
_FIG4_BASELINES: Dict[Tuple[str, SubstrateSpec], Tuple[Dict[str, int], float, float]] = {}


def _evaluate_fig4(spec: CellSpec) -> Dict[str, Any]:
    from repro.core.baseline import MeanDelaySizer
    from repro.core.fullssta import FULLSSTA
    from repro.core.rv import NormalDelay
    from repro.core.sizer import StatisticalGreedySizer

    library, delay_model, variation_model = spec.substrates.build()
    circuit = build_benchmark(spec.circuit)
    fullssta = FULLSSTA(delay_model, variation_model)
    memo_key = (spec.circuit, spec.substrates)
    cached = _FIG4_BASELINES.get(memo_key)
    if cached is None:
        MeanDelaySizer(delay_model).optimize(circuit)
        original = fullssta.analyze(circuit).output_rv
        _FIG4_BASELINES[memo_key] = (
            dict(circuit.sizes()), original.mean, original.sigma
        )
    else:
        sizes, mean, sigma = cached
        circuit.apply_sizes(sizes)
        original = NormalDelay(mean, sigma)
    if spec.lam > 0:
        config = config_with_lam(spec.sizer_config, spec.lam)
        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        final = fullssta.analyze(circuit).output_rv
    else:
        final = original
    return {
        "circuit": spec.circuit,
        "lam": spec.lam,
        "original_mean": original.mean,
        "original_sigma": original.sigma,
        "mean": final.mean,
        "sigma": final.sigma,
        "area": delay_model.circuit_area(circuit),
    }


def _evaluate_yield(spec: CellSpec) -> Dict[str, Any]:
    from repro.flow import run_sizing_flow

    circuit = build_benchmark(spec.circuit)
    library, delay_model, variation_model = spec.substrates.build()
    config = dataclasses.replace(
        config_with_lam(spec.sizer_config, spec.lam),
        objective="yield",
        target_yield=spec.target_yield,
    )
    flow = run_sizing_flow(
        circuit,
        lam=config.lam,
        library=library,
        delay_model=delay_model,
        variation_model=variation_model,
        sizer_config=config,
    )
    result: Dict[str, Any] = {
        "circuit": spec.circuit,
        "original_mean": flow.original_rv.mean,
        "original_sigma": flow.original_rv.sigma,
        "mean": flow.final_rv.mean,
        "sigma": flow.final_rv.sigma,
        "area": flow.final_area,
        "original_area": flow.original_area,
    }
    result.update(flow.yield_summary(spec.target_yield))
    return result


_EVALUATORS: Dict[str, Callable[[CellSpec], Dict[str, Any]]] = {
    "table1": _evaluate_table1,
    "fig4": _evaluate_fig4,
    "yield": _evaluate_yield,
}


def evaluate_cell(spec: CellSpec) -> CellResult:
    """Run one sweep cell to completion (this is the worker entry point).

    The result payload is health-checked before it can ever reach an
    artifact: NaN/inf values or negative sigmas raise
    :class:`~repro.runner.errors.NumericalHealthError`.
    """
    # Each cell records its own span tree and metrics from scratch: the
    # process-wide registry is reset so a worker reused across cells ships
    # per-cell (not cumulative) numbers back with its result.
    METRICS.reset()
    tracer = Tracer(enabled=True)
    with activate(tracer):
        with tracer.span(
            "cell", kind=spec.kind, circuit=spec.circuit, lam=spec.lam
        ) as cell_span:
            result = _EVALUATORS[spec.kind](spec)
    check_payload_health(result, context=spec.describe())
    trace = trace_payload(
        f"cell {spec.artifact_path('.').stem}",
        tracer.spans,
        metrics=METRICS.snapshot(),
    )
    return CellResult(
        spec=spec,
        key=spec.key(),
        result=result,
        runtime_seconds=cell_span.duration_s,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
ProgressFn = Callable[[int, int, CellResult], None]


def _cell_trace_path(artifact: Path) -> Path:
    """The per-cell trace file living beside ``artifact`` (``*.trace.json``)."""
    return artifact.with_suffix(".trace.json")


def _cached_result(spec: CellSpec, out_path: Path) -> Optional[CellResult]:
    """The cell's result from its artifact, when that artifact is current."""
    path = spec.artifact_path(out_path)
    artifact = load_artifact(path)
    if artifact is None or artifact["key"] != spec.key():
        return None
    trace = None
    trace_file = _cell_trace_path(path)
    if trace_file.exists():
        try:
            trace = load_trace(trace_file)
        except (ValueError, OSError):
            trace = None
    return CellResult(
        spec=spec,
        key=artifact["key"],
        result=artifact["result"],
        runtime_seconds=float(artifact.get("runtime_seconds", 0.0)),
        from_cache=True,
        trace=trace,
    )


def _preflight_cells(specs: Sequence[CellSpec]) -> None:
    """Lint each distinct (circuit, library) pair once before any evaluation.

    Cells sharing a circuit and a library geometry are checked once; the
    linter's ERROR diagnostics surface as
    :class:`~repro.verify.preflight.PreflightError` (a
    :class:`~repro.runner.errors.DeterministicError`) in the parent process.
    Uses the module-level ``build_benchmark`` binding so tests (and embedding
    callers) that monkeypatch it exercise the same circuits the workers
    would evaluate.
    """
    from repro.verify.preflight import preflight_circuit

    seen = set()
    for spec in specs:
        key = (spec.circuit, spec.substrates.sizes_per_cell)
        if key in seen:
            continue
        seen.add(key)
        try:
            circuit = build_benchmark(spec.circuit)
        except Exception:
            # An unresolvable circuit name is not a lint finding: the cell
            # fails on its own, so sibling cells still run and the sweep's
            # error names it.
            continue
        library = make_synthetic_90nm_library(
            sizes_per_cell=spec.substrates.sizes_per_cell
        )
        preflight_circuit(circuit, library=library)


def _die_on_sigint() -> None:
    """Worker initializer: Ctrl-C kills a worker instead of unwinding it.

    A ``KeyboardInterrupt`` caught inside a worker would come back as its
    cell's result while the worker goes on to the next cell the pool has
    already queued for it, and one that lands while the worker reads the
    pool's shared call queue can leave that queue unreadable and hang the
    pool's shutdown.  A worker killed by the signal breaks the pool cleanly
    while the parent handles the interrupt.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _evaluate_pending(
    specs: Sequence[CellSpec], pending: Sequence[int], jobs: int
) -> Iterator[Tuple[int, Union[CellResult, Exception]]]:
    """Yield each pending cell's result, or the exception it raised.

    ``jobs == 1`` evaluates in-process, in spec order; otherwise a
    ``ProcessPoolExecutor`` of up to ``jobs`` workers runs the cells and
    they come back in completion order.  Closing the generator early (a
    ``KeyboardInterrupt``, even one sent to this process alone) terminates
    the workers, then cancels the cells not yet started.
    """
    if jobs == 1:
        for index in pending:
            try:
                outcome: Union[CellResult, Exception] = evaluate_cell(specs[index])
            except Exception as exc:
                outcome = exc
            yield index, outcome
        return
    if not pending:
        return
    others = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)), initializer=_die_on_sigint
    )
    try:
        futures = {pool.submit(evaluate_cell, specs[i]): i for i in pending}
        for future in as_completed(futures):
            try:
                outcome = future.result()
            except Exception as exc:
                outcome = exc
            yield futures[future], outcome
    except BaseException:  # closed early: running cells' results would be discarded
        for worker in set(multiprocessing.active_children()) - others:
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    out_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    preflight: bool = True,
) -> SweepReport:
    """Execute sweep cells, serially or on a process pool, resumably.

    Parameters
    ----------
    specs:
        The cells to run; results come back in the same order.
    jobs:
        ``1`` runs everything in-process; ``> 1`` fans pending cells across
        a ``ProcessPoolExecutor`` of up to ``jobs`` worker processes.
    out_dir:
        Results directory for per-cell JSON artifacts and traces, and the
        merged campaign ``trace.json``.  ``None`` disables persistence (and
        therefore resume).
    resume:
        Skip cells whose artifact under ``out_dir`` parses, carries the
        current schema and stores the current spec's key.  Any other
        artifact is recomputed and overwritten.
    progress:
        Optional callback invoked as ``progress(done, total, result)``
        after every successful cell (cached or computed), in completion
        order, once the cell's artifact is on disk.
    preflight:
        Lint each distinct (circuit, substrates) pair among the *pending*
        cells against the DRC catalogue before any evaluation starts.
        ERROR diagnostics raise
        :class:`~repro.runner.errors.DeterministicError` in the parent,
        before a single cell runs.  The CLI exposes ``--no-preflight`` to
        opt out.

    Raises
    ------
    DeterministicError
        When ``preflight=True`` and a pending cell's circuit fails DRC.
    RuntimeError
        After every cell has run, when any cell failed; the message names
        each failed cell.
    KeyboardInterrupt
        Propagated as is, after cancelling the cells not yet started.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    start = clock()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    total = len(specs)
    results: List[Optional[CellResult]] = [None] * total
    done = 0
    pending: List[int] = []
    for i, spec in enumerate(specs):
        cached = (
            _cached_result(spec, out_path)
            if resume and out_path is not None
            else None
        )
        if cached is None:
            pending.append(i)
            continue
        results[i] = cached
        done += 1
        if progress is not None:
            progress(done, total, cached)
    skipped = done

    if preflight and pending:
        _preflight_cells([specs[i] for i in pending])

    # A failing cell must not discard its siblings: every other cell still
    # runs, completed cells persist to artifacts (so a later resume only
    # pays for the failures), and the errors are reported together at the end.
    failures: List[Tuple[CellSpec, Exception]] = []
    with closing(_evaluate_pending(specs, pending, jobs)) as outcomes:
        for index, outcome in outcomes:
            if isinstance(outcome, Exception):
                failures.append((specs[index], outcome))
                continue
            results[index] = outcome
            if out_path is not None:
                path = outcome.spec.artifact_path(out_path)
                write_artifact(
                    path,
                    key=outcome.key,
                    spec=outcome.spec.payload(),
                    result=outcome.result,
                    runtime_seconds=outcome.runtime_seconds,
                )
                if outcome.trace is not None:
                    write_trace(_cell_trace_path(path), outcome.trace)
            done += 1
            if progress is not None:
                progress(done, total, outcome)
    computed = done - skipped

    # Fold every cell's shipped metrics (cached cells included, so the
    # campaign numbers describe the whole grid) plus the orchestrator's own
    # counters into one registry; the snapshot rides on the report and the
    # campaign trace.
    completed = [r for r in results if r is not None]
    campaign_metrics = MetricsRegistry()
    for result in completed:
        if result.trace is not None:
            campaign_metrics.merge(result.trace.get("metrics", {}))
    campaign_metrics.counter("sweep.cells_total", total)
    campaign_metrics.counter("sweep.cells_computed", computed)
    campaign_metrics.counter("sweep.cells_cached", skipped)
    campaign_metrics.counter("sweep.failed", len(failures))
    metrics = campaign_metrics.snapshot()

    # One merged campaign trace: every completed cell's span tree under a
    # synthetic root.  A fully-cached resume leaves the existing file
    # untouched — nothing ran, nothing changed.
    if out_path is not None and (
        computed or not (out_path / "trace.json").exists()
    ):
        write_trace(
            out_path / "trace.json",
            merge_traces(
                [r.trace for r in completed if r.trace is not None],
                name="sweep",
                metrics=metrics,
            ),
        )

    if failures:
        details = "; ".join(
            f"{spec.describe()}: {type(exc).__name__}: {exc}"
            for spec, exc in failures
        )
        # The first failure rides along as the cause, with its traceback.
        raise RuntimeError(
            f"{len(failures)} of {total} sweep cell(s) failed ({details})"
            + ("; completed cells were persisted to artifacts"
               if out_path is not None else "")
        ) from failures[0][1]

    return SweepReport(
        results=completed,
        computed=computed,
        skipped=skipped,
        wall_seconds=clock() - start,
        jobs=jobs,
        out_dir=out_path,
        metrics=metrics,
    )
