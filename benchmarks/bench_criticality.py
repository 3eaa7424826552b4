"""Criticality benchmark: analytic-vs-MC agreement + criticality-pruned sizing.

Two sections:

* **agreement** — analytic gate-criticality probabilities
  (:class:`~repro.criticality.analysis.CriticalityAnalyzer`) against the
  empirical Monte-Carlo critical-path frequencies
  (:class:`~repro.criticality.mc.MonteCarloCriticality`) on the largest
  registry circuits.  Asserts that criticality mass is conserved (sources
  sum to ~1) and that the mean absolute per-gate deviation stays below the
  documented tolerance;
* **sizer** — StatisticalGreedy wall-clock at criticality pruning
  thresholds {0, 0.01, 0.05}.  The threshold-0 run is asserted bit-identical
  to an independently-configured reference sizer (the from-scratch
  pipeline: ``incremental_reanalysis=False`` — a genuine cross-config
  equivalence check, not a self-comparison), and
  some positive threshold must actually prune gate visits (a deterministic
  property).  Wall-clock and the resulting speedup are *reported* but not
  asserted — timing on a shared CI runner is too noisy to gate on.

Run directly::

    PYTHONPATH=src python benchmarks/bench_criticality.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_criticality.py           # larger circuits

The report is written to ``benchmarks/results/criticality.txt``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

# Allow running as a plain script from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.circuits.registry import build_benchmark  # noqa: E402
from repro.core.baseline import MeanDelaySizer  # noqa: E402
from repro.core.fassta import FASSTA  # noqa: E402
from repro.core.sizer import SizerConfig, StatisticalGreedySizer  # noqa: E402
from repro.criticality import (  # noqa: E402
    CriticalityAnalyzer,
    MonteCarloCriticality,
    extract_top_paths,
    total_path_mass,
)
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.obs import clock  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402

#: Agreement-section circuits: the largest registry stand-ins (full mode).
FULL_AGREEMENT_CIRCUITS = ["c2670", "c5315", "c6288", "c7552"]
QUICK_AGREEMENT_CIRCUITS = ["c432", "c499"]

#: Sizer-section circuit per mode (deep WNSS paths make pruning bite).
FULL_SIZER_CIRCUIT = "c1908"
QUICK_SIZER_CIRCUIT = "c432"

#: Criticality pruning thresholds compared in the sizer section.
THRESHOLDS = (0.0, 0.01, 0.05)

MASS_TOLERANCE = 1e-6
MEAN_ABS_TOLERANCE = 0.05


def _substrates():
    library = make_synthetic_90nm_library()
    return LookupTableDelayModel(library), VariationModel()


def _bench_agreement(
    circuits: List[str], mc_samples: int, delay_model, variation_model
) -> Tuple[List[str], bool]:
    lines = [
        "Analytic vs Monte-Carlo criticality "
        f"({mc_samples} draws; mean-|err| tolerance {MEAN_ABS_TOLERANCE:g})",
        "",
        f"{'circuit':8s} {'gates':>6s} {'mass':>10s} {'top5 mass':>10s} "
        f"{'mean |err|':>11s} {'max |err|':>10s} {'analytic (ms)':>14s} "
        f"{'mc (ms)':>10s}",
    ]
    ok = True
    for name in circuits:
        circuit = build_benchmark(name)
        engine = FASSTA(delay_model, variation_model)
        analysis = engine.analyze(circuit)  # warm the levelized plan
        analyzer = CriticalityAnalyzer(circuit)
        start = clock()
        analysis = engine.analyze(circuit)
        crit = analyzer.analyze(analysis.arrivals)
        t_analytic = clock() - start
        paths = extract_top_paths(circuit, crit, analysis.arrivals, k=5)

        start = clock()
        mc = MonteCarloCriticality(delay_model, variation_model).run(
            circuit, num_samples=mc_samples, seed=0, paths=paths
        )
        t_mc = clock() - start

        mass = crit.total_source_mass()
        mean_err = mc.mean_abs_gate_error(crit.gate_criticality)
        max_err = mc.max_abs_gate_error(crit.gate_criticality)
        good = abs(mass - 1.0) <= MASS_TOLERANCE and mean_err <= MEAN_ABS_TOLERANCE
        ok = ok and good
        lines.append(
            f"{name:8s} {circuit.num_gates():6d} {mass:10.6f} "
            f"{total_path_mass(paths):10.4f} {mean_err:11.5f} {max_err:10.4f} "
            f"{t_analytic * 1e3:14.1f} {t_mc * 1e3:10.1f}"
            + ("" if good else "  << AGREEMENT FAILURE")
        )
    return lines, ok


def _bench_sizer(
    circuit_name: str, max_iterations: int, delay_model, variation_model
) -> Tuple[List[str], bool]:
    lines = [
        f"Criticality-pruned StatisticalGreedy on {circuit_name} "
        f"(lambda = 3, {max_iterations} pass cap)",
        "",
        f"{'threshold':>9s} {'time (s)':>9s} {'speedup':>8s} {'passes':>7s} "
        f"{'pruned':>7s} {'mu+3sigma (ps)':>15s} {'identical':>10s}",
    ]

    # Independent reference: the from-scratch evaluation pipeline at
    # threshold 0.  Its sizing decisions define "the plain sizer's output";
    # the fast threshold-0 run below must match them exactly.  (Not timed
    # into the speedup column — it is deliberately the slow path.)
    reference_circuit = build_benchmark(circuit_name)
    MeanDelaySizer(delay_model).optimize(reference_circuit)
    StatisticalGreedySizer(
        delay_model,
        variation_model,
        SizerConfig(
            lam=3.0,
            max_iterations=max_iterations,
            incremental_reanalysis=False,
        ),
    ).optimize(reference_circuit)
    reference_sizes = reference_circuit.sizes()

    baseline_time = None
    results = []
    for threshold in THRESHOLDS:
        circuit = build_benchmark(circuit_name)
        MeanDelaySizer(delay_model).optimize(circuit)
        config = SizerConfig(
            lam=3.0,
            max_iterations=max_iterations,
            criticality_threshold=threshold,
        )
        start = clock()
        result = StatisticalGreedySizer(
            delay_model, variation_model, config
        ).optimize(circuit)
        elapsed = clock() - start
        if threshold == 0.0:
            baseline_time = elapsed
        results.append((threshold, elapsed, result, circuit.sizes()))

    # Exactness pin: the fast threshold-0 run must reproduce the reference
    # pipeline's decisions (cross-config equivalence, pinned independently
    # by tests/core/test_sizer_criticality.py).  The gating checks are
    # deterministic — identical threshold-0 decisions and actual pruned
    # gate visits at some positive threshold; the speedup column is
    # informational (CI runners are too noisy to assert on wall-clock).
    identical_ok = True
    pruning_seen = False
    for threshold, elapsed, result, sizes in results:
        identical = sizes == reference_sizes
        if threshold == 0.0 and not identical:
            identical_ok = False
        speedup = baseline_time / max(elapsed, 1e-12)
        pruned = result.diagnostics.get("criticality_pruned_gates", 0)
        if threshold > 0.0 and pruned > 0:
            pruning_seen = True
        objective = result.final.mean + 3.0 * result.final.sigma
        lines.append(
            f"{threshold:9.2f} {elapsed:9.2f} {speedup:7.2f}x "
            f"{len(result.iterations):7d} {pruned:7d} {objective:15.2f} "
            f"{'yes' if identical else 'no':>10s}"
        )
    if not pruning_seen:
        lines.append("  << NO GATE VISITS PRUNED at any positive threshold")
    return lines, identical_ok and pruning_seen


def run(
    circuits: List[str], sizer_circuit: str, mc_samples: int, max_iterations: int
) -> Tuple[str, bool]:
    """Run the benchmark; returns (report text, all-checks-passed)."""
    delay_model, variation_model = _substrates()
    agreement_lines, agreement_ok = _bench_agreement(
        circuits, mc_samples, delay_model, variation_model
    )
    sizer_lines, sizer_ok = _bench_sizer(
        sizer_circuit, max_iterations, delay_model, variation_model
    )
    return "\n".join(agreement_lines + [""] + sizer_lines), agreement_ok and sizer_ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small circuits, fewer MC draws, capped sizer budget",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated agreement circuits (overrides the mode default)",
    )
    parser.add_argument(
        "--mc-samples",
        type=int,
        default=None,
        help="Monte-Carlo draws per circuit (default: 1000 quick / 4000 full)",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="sizer outer-loop pass cap (default: 4 quick / 8 full)",
    )
    args = parser.parse_args(argv)

    circuits = (
        [name.strip() for name in args.circuits.split(",") if name.strip()]
        if args.circuits
        else (QUICK_AGREEMENT_CIRCUITS if args.quick else FULL_AGREEMENT_CIRCUITS)
    )
    mc_samples = (
        args.mc_samples if args.mc_samples is not None else (1000 if args.quick else 4000)
    )
    max_iterations = (
        args.max_iterations if args.max_iterations is not None else (4 if args.quick else 8)
    )
    sizer_circuit = QUICK_SIZER_CIRCUIT if args.quick else FULL_SIZER_CIRCUIT

    report, ok = run(circuits, sizer_circuit, mc_samples, max_iterations)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "criticality.txt").write_text(report + "\n")

    if not ok:
        print(
            "FAILED: criticality mass/agreement out of tolerance, threshold-0 "
            "decisions diverged, or no gate visits pruned at any positive "
            "threshold",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
