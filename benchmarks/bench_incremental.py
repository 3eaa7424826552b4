"""From-scratch vs incremental FULLSSTA benchmark.

Times the raw engine under random resize sequences: after every step of
three random resizes, :meth:`IncrementalReanalysis.analyze
<repro.core.fullssta.IncrementalReanalysis.analyze>` (which re-propagates
only the dirty cones) against a from-scratch :meth:`FULLSSTA.analyze
<repro.core.fullssta.FULLSSTA.analyze>`.  The engine's contract is bitwise,
so the two must report bit-identical output moments, and the script exits 1
when they do not.  The sizer times every outer-loop state through
the incremental path; its decisions are pinned equal to a from-scratch
reference by ``tests/core/test_incremental.py``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_incremental.py --quick   # c432, seconds
    PYTHONPATH=src python benchmarks/bench_incremental.py           # largest circuit
    PYTHONPATH=src python benchmarks/bench_incremental.py --circuits c432,c6288 --no-trajectory

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
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis  # noqa: E402
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.obs import clock  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402

#: Default circuit for the full benchmark: the largest registry circuit.
FULL_CIRCUITS = ["c6288"]
#: Quick (CI smoke) configuration.
QUICK_CIRCUITS = ["c432"]

#: Resize steps per circuit (three random resizes each).
STEPS = 8


def _substrates():
    library = make_synthetic_90nm_library()
    return LookupTableDelayModel(library), VariationModel()


def _time_engines(circuit_name: str, delay_model, variation_model) -> Tuple[str, dict, bool]:
    """FULLSSTA from scratch vs incremental; returns (table row, record, ok)."""
    circuit = build_benchmark(circuit_name)
    engine = FULLSSTA(delay_model, variation_model)
    incremental = IncrementalReanalysis(engine, circuit)
    incremental.analyze()
    rng = np.random.default_rng(2026)
    names = list(circuit.gates)
    t_full = t_inc = max_err = 0.0
    for _ in range(STEPS):
        for gate in rng.choice(names, size=3, replace=False):
            circuit.set_size(str(gate), int(rng.integers(0, 7)))
        start = clock()
        inc_result = incremental.analyze()
        t_inc += clock() - start
        start = clock()
        full_result = engine.analyze(circuit)
        t_full += clock() - start
        max_err = max(
            max_err,
            abs(inc_result.mean - full_result.mean),
            abs(inc_result.sigma - full_result.sigma),
        )

    ok = max_err == 0.0
    speedup = t_full / max(t_inc, 1e-12)
    row = (
        f"{circuit_name:8s} {circuit.num_gates():6d} {t_full / STEPS * 1e3:12.1f} "
        f"{t_inc / STEPS * 1e3:16.1f} {speedup:7.2f}x {max_err:10.2e}"
        + ("" if ok else "  << MOMENT MISMATCH")
    )
    record = {
        "circuit": circuit_name,
        "gates": circuit.num_gates(),
        "kind": "engines",
        "fullssta_incremental": {
            "scratch_ms": t_full / STEPS * 1e3,
            "incremental_ms": t_inc / STEPS * 1e3,
            "speedup": speedup,
        },
    }
    return row, record, ok


def run(circuits: List[str]) -> Tuple[str, List[dict], bool]:
    """Run the benchmark; returns (report text, trajectory records, ok)."""
    delay_model, variation_model = _substrates()
    lines = [
        "From-scratch vs incremental FULLSSTA",
        f"({STEPS} steps of 3 random resizes; output moments must match bitwise)",
        "",
        f"{'circuit':8s} {'gates':>6s} {'scratch (ms)':>12s} {'incremental (ms)':>16s} "
        f"{'speedup':>8s} {'max diff':>10s}",
    ]
    ok = True
    records = []
    for name in circuits:
        row, record, matched = _time_engines(name, delay_model, variation_model)
        lines.append(row)
        records.append(record)
        ok = ok and matched
    return "\n".join(lines), records, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: a small circuit (finishes in seconds)",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated registry circuit names (overrides the mode default)",
    )
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

    report, records, ok = run(circuits)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "incremental.txt").write_text(report + "\n")
    if not args.no_trajectory:
        path = append_entry(
            "incremental", records, "quick" if args.quick else "full",
            description="from-scratch vs incremental FULLSSTA (bench_incremental.py)",
        )
        print(f"trajectory appended to {path}")

    if not ok:
        print("FAILED: incremental FULLSSTA diverged from the from-scratch "
              "engine", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
