"""Criticality benchmark: analytic vs Monte-Carlo criticality agreement.

Analytic gate-criticality probabilities
(:class:`~repro.criticality.analysis.CriticalityAnalyzer`) against the
empirical Monte-Carlo critical-path frequencies
(:class:`~repro.criticality.mc.MonteCarloCriticality`) on the largest
registry circuits.  Asserts that criticality mass is conserved (sources sum
to ~1) and that the mean absolute per-gate deviation stays below the
documented tolerance; the analytic and MC wall-clock are reported, not
asserted.

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
from repro.core.fassta import FASSTA  # noqa: E402
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

#: The largest registry stand-ins (full mode) and two small ones (quick).
FULL_AGREEMENT_CIRCUITS = ["c2670", "c5315", "c6288", "c7552"]
QUICK_AGREEMENT_CIRCUITS = ["c432", "c499"]

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


def run(circuits: List[str], mc_samples: int) -> Tuple[str, bool]:
    """Run the benchmark; returns (report text, all-checks-passed)."""
    delay_model, variation_model = _substrates()
    lines, ok = _bench_agreement(circuits, mc_samples, delay_model, variation_model)
    return "\n".join(lines), ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small circuits, fewer MC draws",
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
    args = parser.parse_args(argv)

    circuits = (
        [name.strip() for name in args.circuits.split(",") if name.strip()]
        if args.circuits
        else (QUICK_AGREEMENT_CIRCUITS if args.quick else FULL_AGREEMENT_CIRCUITS)
    )
    mc_samples = (
        args.mc_samples if args.mc_samples is not None else (1000 if args.quick else 4000)
    )

    report, ok = run(circuits, mc_samples)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "criticality.txt").write_text(report + "\n")

    if not ok:
        print("FAILED: criticality mass/agreement out of tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
