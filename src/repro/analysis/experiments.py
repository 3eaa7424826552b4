"""Experiment runners for every table and figure of the paper.

* Table 1 — :func:`run_table1_row` / :func:`run_table1`
* Figure 1 — :func:`run_fig1` (output-delay pdfs of the original design and
  of variance-optimized designs)
* Figure 3 — :func:`run_fig3_example` (WNSS tracing on the paper's 6-gate
  example)
* Figure 4 — :func:`run_fig4_sweep` (normalized mean vs sigma trade-off of
  one circuit across lambda values)

The runners deliberately return plain dataclasses/lists rather than printing
so they can be reused from tests, benchmarks and the examples; the text
rendering lives in :mod:`repro.analysis.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import Table1Row
from repro.circuits.registry import BENCHMARK_NAMES, build_benchmark
from repro.core.clark import variance_sensitivities
from repro.core.discrete_pdf import DiscretePDF
from repro.core.fullssta import FULLSSTA
from repro.core.rv import NormalDelay
from repro.core.sizer import SizerConfig
from repro.core.wnss import WNSSTracer
from repro.library.delay_model import LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.runner.sweep import (
    CellSpec,
    ProgressFn,
    SubstrateSpec,
    config_with_lam,
    evaluate_cell,
    fig4_specs,
    run_cells,
    table1_specs,
)
from repro.variation.model import VariationModel


def _default_substrates():
    library = make_synthetic_90nm_library()
    delay_model = LookupTableDelayModel(library)
    variation_model = VariationModel()
    return library, delay_model, variation_model


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def run_table1_row(
    circuit_name: str,
    lam: float,
    sizer_config: Optional[SizerConfig] = None,
    monte_carlo_samples: int = 0,
    substrates: Optional[SubstrateSpec] = None,
    seed: int = 0,
) -> Table1Row:
    """Run the paper's flow for one circuit at one lambda and return its row.

    ``sizer_config`` is evaluated at ``lam`` (only its lambda is replaced;
    every other tuning field is preserved); ``seed`` drives the optional
    Monte-Carlo validation.
    """
    spec = CellSpec(
        kind="table1",
        circuit=circuit_name,
        lam=lam,
        sizer_config=config_with_lam(sizer_config, lam),
        monte_carlo_samples=monte_carlo_samples,
        seed=seed,
        substrates=substrates or SubstrateSpec(),
    )
    return evaluate_cell(spec).table1_row()


def run_table1(
    circuit_names: Optional[Sequence[str]] = None,
    lams: Sequence[float] = (3.0, 9.0),
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
    monte_carlo_samples: int = 0,
    seed: int = 0,
    jobs: int = 1,
    out_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> List[Table1Row]:
    """Regenerate Table 1 for the given circuits and lambda values.

    A thin driver over :func:`repro.runner.sweep.run_cells`: ``jobs`` fans
    the (circuit, lambda) cells across worker processes (``jobs=1`` keeps
    the historical serial in-process path), ``out_dir`` persists each cell
    as a JSON artifact, and ``resume`` skips cells whose artifact matches
    the current configuration (see :func:`run_cells`).  Running the
    full 13-circuit set takes a while on the larger circuits; the
    benchmarks default to a representative subset (see
    ``benchmarks/bench_table1.py``).
    """
    specs = table1_specs(
        circuit_names or BENCHMARK_NAMES,
        lams,
        sizer_config=sizer_config,
        substrates=substrates,
        monte_carlo_samples=monte_carlo_samples,
        seed=seed,
    )
    report = run_cells(
        specs, jobs=jobs, out_dir=out_dir, resume=resume, progress=progress
    )
    return [result.table1_row() for result in report.results]


# ---------------------------------------------------------------------------
# Figure 1 — output delay pdfs at different optimization points
# ---------------------------------------------------------------------------
@dataclass
class Fig1Curves:
    """Output-delay pdfs of the original and optimized designs."""

    circuit: str
    original: DiscretePDF
    optimized: Dict[float, DiscretePDF] = field(default_factory=dict)

    def series(self) -> Dict[str, Tuple[Tuple[float, float], ...]]:
        """All curves as name -> ((delay, probability), ...) pairs for plotting."""
        out = {"original": self.original.as_tuples()}
        for lam, pdf in sorted(self.optimized.items()):
            out[f"lambda={lam:g}"] = pdf.as_tuples()
        return out


def run_fig1(
    circuit_name: str = "c432",
    lams: Sequence[float] = (3.0, 9.0),
    sizer_config: Optional[SizerConfig] = None,
    pdf_samples: int = 31,
) -> Fig1Curves:
    """Regenerate Figure 1: the circuit-output delay pdf before/after optimization.

    The original curve is the mean-delay-optimized design (widest spread);
    each optimized curve is the same circuit re-sized at one lambda.  A finer
    pdf sampling than the optimizer's default is used purely for plotting.
    """
    library, delay_model, variation_model = _default_substrates()
    plot_engine = FULLSSTA(delay_model, variation_model, num_samples=pdf_samples)

    # Original (mean-delay optimized) design.
    base_circuit = build_benchmark(circuit_name)
    from repro.core.baseline import MeanDelaySizer

    MeanDelaySizer(delay_model).optimize(base_circuit)
    original_pdf = plot_engine.analyze(base_circuit).output_pdf
    original_sizes = base_circuit.sizes()

    curves = Fig1Curves(circuit=circuit_name, original=original_pdf)
    for lam in lams:
        circuit = base_circuit.copy()
        circuit.apply_sizes(original_sizes)
        config = config_with_lam(sizer_config, lam)
        from repro.core.sizer import StatisticalGreedySizer

        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        curves.optimized[lam] = plot_engine.analyze(circuit).output_pdf
    return curves


# ---------------------------------------------------------------------------
# Figure 3 — WNSS tracing example
# ---------------------------------------------------------------------------
def run_fig3_example(coupling: float = 0.12) -> Dict[str, object]:
    """Reproduce the paper's Fig. 3 WNSS-tracing decision.

    The figure shows a node X whose two input arrivals are (357, 32) and
    (392, 35) — too close for the dominance test — while deeper in the cone
    the candidate arrivals are (320, 27) vs (310, 45) and (190, 41).  The
    statistical tracer must weigh variance contributions, not just means.
    This runner rebuilds that situation and reports which inputs the tracer
    picks and why.
    """
    arrivals = {
        "arc_a": NormalDelay(320.0, 27.0),
        "arc_b": NormalDelay(310.0, 45.0),
        "arc_c": NormalDelay(357.0, 32.0),
        "arc_d": NormalDelay(392.0, 35.0),
        "arc_e": NormalDelay(190.0, 41.0),
    }
    tracer = WNSSTracer(coupling=coupling, lam=3.0)

    # Decision at node X: inputs (357, 32) vs (392, 35).
    choice_x, method_x = tracer.pick_dominant_input(
        {"arc_c": arrivals["arc_c"], "arc_d": arrivals["arc_d"]}
    )
    # Decision one level up: inputs (320, 27) vs (310, 45): close means, very
    # different sigmas — the sensitivity comparison must prefer the noisier arc.
    choice_y, method_y = tracer.pick_dominant_input(
        {"arc_a": arrivals["arc_a"], "arc_b": arrivals["arc_b"]}
    )
    # And a clearly dominated pair: (392, 35) vs (190, 41).
    choice_z, method_z = tracer.pick_dominant_input(
        {"arc_d": arrivals["arc_d"], "arc_e": arrivals["arc_e"]}
    )

    sens = variance_sensitivities(320.0, 27.0, 310.0, 45.0, coupling)
    return {
        "arrivals": arrivals,
        "node_x": {"chosen": choice_x, "method": method_x},
        "node_y": {"chosen": choice_y, "method": method_y},
        "node_z": {"chosen": choice_z, "method": method_z},
        "sensitivities_y": {"arc_a": sens[0], "arc_b": sens[1]},
    }


# ---------------------------------------------------------------------------
# Figure 4 — mean/sigma trade-off sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Point:
    """One point of the Fig. 4 normalized mean vs sigma plot."""

    lam: float
    mean: float
    sigma: float
    normalized_mean: float
    normalized_sigma: float
    area: float


def run_fig4_sweep(
    circuit_name: str = "c432",
    lams: Sequence[float] = (0.0, 3.0, 6.0, 9.0),
    sizer_config: Optional[SizerConfig] = None,
    substrates: Optional[SubstrateSpec] = None,
    jobs: int = 1,
    out_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> List[Fig4Point]:
    """Regenerate Figure 4: (mu, sigma) of one circuit across lambda values.

    Values are normalized to the original (mean-optimized, lambda = 0) design
    point, as in the paper's plot: the x axis is mu / mu_original, the y axis
    sigma / mu_original.

    A thin driver over :func:`repro.runner.sweep.run_cells` — each lambda is
    one independent cell (every worker re-derives the deterministic
    mean-delay baseline), so the sweep parallelizes and resumes exactly like
    :func:`run_table1`.  ``sizer_config`` is re-targeted per lambda with
    :func:`~repro.runner.sweep.config_with_lam`, preserving all its tuning
    fields.
    """
    specs = fig4_specs(
        circuit_name, lams, sizer_config=sizer_config, substrates=substrates
    )
    report = run_cells(
        specs, jobs=jobs, out_dir=out_dir, resume=resume, progress=progress
    )
    results = [result.result for result in report.results]
    if not results:
        return []
    # Every cell measures the same deterministic baseline; normalize to it.
    mu0 = results[0]["original_mean"] or 1.0
    return [
        Fig4Point(
            lam=cell["lam"],
            mean=cell["mean"],
            sigma=cell["sigma"],
            normalized_mean=cell["mean"] / mu0,
            normalized_sigma=cell["sigma"] / mu0,
            area=cell["area"],
        )
        for cell in results
    ]
