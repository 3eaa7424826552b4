"""Yield-mode benchmark: yield-targeted sizing vs the weighted-cost sizer.

``SizerConfig(objective="yield")`` runs against the paper's weighted-cost
sizer from the same mean-delay baseline.  The comparison metric is the
acceptance criterion of the yield mode: the yield-sized circuit's
parametric timing yield at its own target period must be at least the
cost-sized circuit's.

Run directly::

    PYTHONPATH=src python benchmarks/bench_yield.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_yield.py           # larger circuits

The report is written to ``benchmarks/results/yield.txt``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

# Allow running as a plain script from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.timing_yield import period_for_yield, timing_yield  # noqa: E402
from repro.circuits.registry import build_benchmark  # noqa: E402
from repro.core.baseline import MeanDelaySizer  # noqa: E402
from repro.core.fullssta import FULLSSTA  # noqa: E402
from repro.core.sizer import SizerConfig, StatisticalGreedySizer  # noqa: E402
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.obs import clock  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402

#: Sizer-comparison circuit: the yield objective's discrete-pdf quantile
#: pays off on c432's wide, many-output priority-controller structure.
SIZER_CIRCUIT = "c432"

TARGET_YIELD = 0.99


def _substrates():
    library = make_synthetic_90nm_library()
    return LookupTableDelayModel(library), VariationModel()


def _bench_sizer(
    delay_model, variation_model, max_iterations: int
) -> Tuple[List[str], bool]:
    referee = FULLSSTA(delay_model, variation_model, num_samples=31)

    def sized(config: SizerConfig):
        circuit = build_benchmark(SIZER_CIRCUIT)
        MeanDelaySizer(delay_model).optimize(circuit)
        start = clock()
        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        runtime = clock() - start
        return referee.analyze(circuit).output_pdf, runtime

    yield_pdf, t_yield = sized(
        SizerConfig(objective="yield", target_yield=TARGET_YIELD,
                    max_iterations=max_iterations)
    )
    cost_pdf, t_cost = sized(SizerConfig(lam=3.0, max_iterations=max_iterations))

    target_period = period_for_yield(yield_pdf, TARGET_YIELD)
    yield_at_target = timing_yield(yield_pdf, target_period)
    cost_at_target = timing_yield(cost_pdf, target_period)
    ok = yield_at_target >= cost_at_target - 1e-12
    lines = [
        f"Yield-objective vs weighted-cost sizer on {SIZER_CIRCUIT} "
        f"(target yield {TARGET_YIELD:g}, {max_iterations} pass cap)",
        "",
        f"  yield-sized : period@{100 * TARGET_YIELD:g}% "
        f"{target_period:8.1f} ps   runtime {t_yield:6.1f} s",
        f"  cost-sized  : period@{100 * TARGET_YIELD:g}% "
        f"{period_for_yield(cost_pdf, TARGET_YIELD):8.1f} ps   "
        f"runtime {t_cost:6.1f} s   (lambda = 3)",
        f"  yield at the yield-sized target period ({target_period:.1f} ps): "
        f"yield-sized {100 * yield_at_target:.2f} %  vs  "
        f"cost-sized {100 * cost_at_target:.2f} %"
        + ("" if ok else "  << YIELD REGRESSION"),
    ]
    return lines, ok


def run(max_iterations: int) -> Tuple[str, bool]:
    """Run the benchmark; returns (report text, all-checks-passed)."""
    delay_model, variation_model = _substrates()
    lines, ok = _bench_sizer(delay_model, variation_model, max_iterations)
    return "\n".join(lines), ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: capped sizer budget",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="outer-loop pass cap for both sizers (default: 12 quick / 60 full)",
    )
    args = parser.parse_args(argv)

    max_iterations = (
        args.max_iterations
        if args.max_iterations is not None
        else (12 if args.quick else 60)
    )

    report, ok = run(max_iterations)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "yield.txt").write_text(report + "\n")

    if not ok:
        print("FAILED: the yield objective lost to the weighted-cost sizer",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
