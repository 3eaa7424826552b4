"""From-scratch vs incremental/vectorized sizing-pipeline benchmark.

Measures the wall-clock effect of the exactness-preserving evaluation
pipeline on full :class:`~repro.core.sizer.StatisticalGreedySizer` runs:

* **baseline** — ``SizerConfig(incremental_reanalysis=False)``: every
  outer-loop analysis re-propagates the whole circuit with the levelized
  FULLSSTA;
* **fast** — the default pipeline: incremental FULLSSTA re-analysis over
  dirty cones through the same levelized kernel.

Both configurations share the memoized subcircuit extraction, whole-gate
evaluations and candidate-sweep delay moments.

Because every layer is exactness-preserving the two configurations take
identical sizing decisions; the benchmark asserts the final mu/sigma match
to 1e-6 and reports the speedup.  A second section times the raw engines
(scalar vs vectorized FASSTA; from-scratch vs incremental FULLSSTA under
random resize sequences).

Run directly::

    PYTHONPATH=src python benchmarks/bench_incremental.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_incremental.py           # largest circuit

The report is written to ``benchmarks/results/incremental.txt``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

# Allow running as a plain script from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.trajectory import append_entry  # noqa: E402
from repro.circuits.registry import build_benchmark  # noqa: E402
from repro.core.fassta import FASSTA  # noqa: E402
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis  # noqa: E402
from repro.core.sizer import SizerConfig, SizerResult, StatisticalGreedySizer  # noqa: E402
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.obs import clock  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402

#: Default circuit for the full benchmark: the largest registry circuit.
FULL_CIRCUITS = ["c6288"]
#: Quick (CI smoke) configuration.
QUICK_CIRCUITS = ["c432"]

MOMENT_TOLERANCE = 1e-6


def _substrates():
    library = make_synthetic_90nm_library()
    return LookupTableDelayModel(library), VariationModel()


def _run_sizer(
    circuit_name: str,
    delay_model,
    variation_model,
    max_iterations: int,
    lam: float,
    fast: bool,
) -> Tuple[SizerResult, float]:
    circuit = build_benchmark(circuit_name)
    config = SizerConfig(
        lam=lam,
        max_iterations=max_iterations,
        incremental_reanalysis=fast,
    )
    sizer = StatisticalGreedySizer(delay_model, variation_model, config)
    start = clock()
    result = sizer.optimize(circuit)
    return result, clock() - start


def _time_engines(circuit_name: str, delay_model, variation_model):
    """Raw-engine comparison: FASSTA scalar/vectorized, FULLSSTA scratch/incremental."""
    circuit = build_benchmark(circuit_name)
    rounds = 3

    scalar = FASSTA(delay_model, variation_model)
    vectorized = FASSTA(delay_model, variation_model, vectorized=True)
    scalar.analyze(circuit)
    vectorized.analyze(circuit)  # warm the levelized plan
    start = clock()
    for _ in range(rounds):
        ref = scalar.analyze(circuit)
    t_scalar = (clock() - start) / rounds
    start = clock()
    for _ in range(rounds):
        vec = vectorized.analyze(circuit)
    t_vector = (clock() - start) / rounds
    moment_err = abs(ref.mean - vec.mean) + abs(ref.sigma - vec.sigma)

    engine = FULLSSTA(delay_model, variation_model)
    incremental = IncrementalReanalysis(engine, circuit)
    incremental.analyze()
    rng = np.random.default_rng(2026)
    names = list(circuit.gates)
    t_full = t_inc = 0.0
    steps = 8
    for _ in range(steps):
        for gate in rng.choice(names, size=3, replace=False):
            circuit.set_size(str(gate), int(rng.integers(0, 7)))
        start = clock()
        inc_result = incremental.analyze()
        t_inc += clock() - start
        start = clock()
        full_result = engine.analyze(circuit)
        t_full += clock() - start
        assert abs(inc_result.mean - full_result.mean) <= MOMENT_TOLERANCE
        assert abs(inc_result.sigma - full_result.sigma) <= MOMENT_TOLERANCE

    lines = [
        f"Raw engines on {circuit_name} ({circuit.num_gates()} gates):",
        f"  FASSTA   scalar {t_scalar * 1e3:8.1f} ms   vectorized {t_vector * 1e3:8.1f} ms   "
        f"speedup {t_scalar / max(t_vector, 1e-12):.2f}x   moment err {moment_err:.2e}",
        f"  FULLSSTA scratch {t_full / steps * 1e3:7.1f} ms   incremental {t_inc / steps * 1e3:7.1f} ms   "
        f"speedup {t_full / max(t_inc, 1e-12):.2f}x   (3 random resizes per step)",
    ]
    record = {
        "circuit": circuit_name,
        "gates": circuit.num_gates(),
        "kind": "engines",
        "fassta": {
            "scalar_ms": t_scalar * 1e3,
            "levelized_ms": t_vector * 1e3,
            "speedup": t_scalar / max(t_vector, 1e-12),
            "max_moment_err": moment_err,
            "tolerance": MOMENT_TOLERANCE,
        },
        "fullssta_incremental": {
            "scratch_ms": t_full / steps * 1e3,
            "incremental_ms": t_inc / steps * 1e3,
            "speedup": t_full / max(t_inc, 1e-12),
        },
    }
    return lines, record


def run(
    circuits: List[str],
    max_iterations: int,
    lam: float,
    engine_circuit: Optional[str] = None,
) -> Tuple[str, List[dict], bool]:
    """Run the benchmark; returns (report text, trajectory records, ok)."""
    delay_model, variation_model = _substrates()
    lines = [
        "Incremental & vectorized SSTA evaluation pipeline",
        f"(lam = {lam}, max_iterations = {max_iterations}; "
        f"tolerance on final moments = {MOMENT_TOLERANCE:g})",
        "",
        f"{'circuit':8s} {'gates':>6s} {'scratch (s)':>12s} {'fast (s)':>10s} "
        f"{'speedup':>8s} {'mu diff':>9s} {'sigma diff':>10s}",
    ]
    ok = True
    speedups = []
    records = []
    for name in circuits:
        baseline, t_base = _run_sizer(
            name, delay_model, variation_model, max_iterations, lam, fast=False
        )
        fast, t_fast = _run_sizer(
            name, delay_model, variation_model, max_iterations, lam, fast=True
        )
        mu_diff = abs(baseline.final.mean - fast.final.mean)
        sigma_diff = abs(baseline.final.sigma - fast.final.sigma)
        matched = mu_diff <= MOMENT_TOLERANCE and sigma_diff <= MOMENT_TOLERANCE
        ok = ok and matched
        speedup = t_base / max(t_fast, 1e-12)
        speedups.append(speedup)
        num_gates = build_benchmark(name).num_gates()
        records.append({
            "circuit": name,
            "gates": num_gates,
            "kind": "optimizer",
            "optimizer": {
                "scratch_s": t_base,
                "fast_s": t_fast,
                "speedup": speedup,
                "max_moment_err": max(mu_diff, sigma_diff),
                "tolerance": MOMENT_TOLERANCE,
            },
        })
        lines.append(
            f"{name:8s} {num_gates:6d} {t_base:12.2f} {t_fast:10.2f} "
            f"{speedup:7.2f}x {mu_diff:9.2e} {sigma_diff:10.2e}"
            + ("" if matched else "  << MOMENT MISMATCH")
        )
        diag = fast.diagnostics
        lines.append(
            f"         eval cache {diag.get('evaluation_cache_hits', 0)}/{diag.get('evaluation_cache_hits', 0) + diag.get('evaluation_cache_misses', 0)} hits, "
            f"reanalysis {diag.get('incremental_runs', 0)} incremental / {diag.get('full_runs', 0)} full, "
            f"{diag.get('gates_retimed', 0)} gates retimed over {len(fast.iterations)} passes"
        )

    lines.append("")
    engine_lines, engine_record = _time_engines(
        engine_circuit or circuits[-1], delay_model, variation_model
    )
    lines.extend(engine_lines)
    records.append(engine_record)
    if speedups:
        lines.append("")
        lines.append(
            f"Optimizer speedup: min {min(speedups):.2f}x / max {max(speedups):.2f}x "
            f"(identical sizing decisions in both configurations)"
        )
    return "\n".join(lines), records, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small circuit, few passes (finishes in ~1 min)",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated registry circuit names (overrides the mode default)",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="outer-loop pass cap for both configurations (default: 4 quick / 10 full)",
    )
    parser.add_argument("--lam", type=float, default=3.0, help="cost weight lambda")
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to BENCH_incremental.json (CI smoke uses this)",
    )
    args = parser.parse_args(argv)

    circuits = (
        [name.strip() for name in args.circuits.split(",") if name.strip()]
        if args.circuits
        else (QUICK_CIRCUITS if args.quick else FULL_CIRCUITS)
    )
    if args.max_iterations is not None:
        max_iterations = args.max_iterations
    else:
        max_iterations = 4 if args.quick else 10

    report, records, ok = run(circuits, max_iterations, args.lam)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "incremental.txt").write_text(report + "\n")
    if not args.no_trajectory:
        path = append_entry(
            "incremental", records, "quick" if args.quick else "full",
            description="from-scratch vs incremental/vectorized sizing "
                        "pipeline (bench_incremental.py)",
        )
        print(f"trajectory appended to {path}")

    if not ok:
        print("FAILED: incremental/vectorized pipeline diverged from the "
              "from-scratch engines", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
