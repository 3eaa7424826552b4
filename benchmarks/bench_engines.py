"""IR-levelized engine benchmark (the compiled-IR rationale).

Every analysis engine consumes the circuit's compiled array-native IR
(:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`).  This
benchmark times the engines on real registry circuits:

* **DSTA**, **FASSTA**, **FULLSSTA** — one full-circuit analysis each,
  recorded as levelized milliseconds.  Each engine has a single propagation
  path, so there is no ratio to report; its equivalence with a gate-by-gate
  fold is pinned by the tier-1 tests (``tests/sta/test_dsta.py``,
  ``tests/core/test_incremental.py``, ``tests/core/test_fullssta_vectorized.py``);
* **MC**      — the historical per-gate dict propagation (inlined below as
  the reference) vs the levelized all-samples-at-once program.

The MC comparison times the *propagation stage* on shared pre-drawn gate
delays, held in the gate-output rows of an arrival matrix as the production
sampler holds them (there is no separate delay matrix) — the code the IR
refactor actually rewrote; the Gaussian draws are
bit-identical in both paths (same generator stream) and would otherwise
dominate the wall clock and dilute the comparison.  The end-to-end run
(draws + propagation) is reported alongside for transparency.  Propagation
is gather-bound: the levelized program wins while the arrival matrix stays
cache-resident (hundreds of samples on the largest circuits), which is why
the default sample count is moderate rather than huge.

Equivalence is asserted, not assumed: the MC sample streams must be
bit-identical to the per-gate reference.  The report goes to
``benchmarks/results/engines.txt`` and a machine-readable entry is appended
to the checked-in ``BENCH_engines.json`` perf trajectory at the repo root.

A second axis, ``--generated depth,width[,seed]``, times the front-end scale
path on synthetic circuits instead: generate -> elaborate/canonicalize ->
lint -> compile -> levelized DSTA, stage by stage.  This axis tracks
pipeline linearity at up to 100k gates; its records land in the same
``BENCH_engines.json`` trajectory tagged ``"kind": "frontend-scale"``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_engines.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_engines.py           # largest circuits
    PYTHONPATH=src python benchmarks/bench_engines.py \\
        --circuits "" --generated 100,1000,17                   # 100k-gate scale
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# Allow running as a plain script from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.trajectory import append_entry  # noqa: E402
from repro.circuits.registry import build_benchmark  # noqa: E402
from repro.core.fassta import FASSTA  # noqa: E402
from repro.core.fullssta import FULLSSTA  # noqa: E402
from repro.library.delay_model import LookupTableDelayModel  # noqa: E402
from repro.library.synthetic90nm import make_synthetic_90nm_library  # noqa: E402
from repro.ir.compiled import arrival_matrix, propagate_levelized  # noqa: E402
from repro.montecarlo.mc import MonteCarloTimer  # noqa: E402
from repro.obs import clock  # noqa: E402
from repro.sta.dsta import DeterministicSTA  # noqa: E402
from repro.variation.model import VariationModel  # noqa: E402

#: Full benchmark: the two largest registry circuits.
FULL_CIRCUITS = ["c6288", "c7552"]
#: Quick (CI smoke) configuration.
QUICK_CIRCUITS = ["c432"]

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_engines.json"


def _substrates():
    library = make_synthetic_90nm_library()
    return LookupTableDelayModel(library), VariationModel()


def _best_of(fn, rounds: int) -> Tuple[float, object]:
    """Best wall-clock of ``rounds`` calls, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        start = clock()
        value = fn()
        best = min(best, clock() - start)
    return best, value


def _reference_mc_samples(timer, circuit, num_samples, seed):
    """The historical per-gate dict-propagation Monte-Carlo path.

    Same generator stream as :meth:`MonteCarloTimer.run` (draws in
    topological order), propagation one gate at a time — the exact code the
    levelized path replaced, kept here as the bit-identity reference.
    """
    rng = np.random.default_rng(seed)
    order = circuit.topological_order()
    gate_samples = {}
    for name in order:
        dist = timer.variation_model.gate_distribution(
            circuit, circuit.gate(name), timer.delay_model
        )
        gate_samples[name] = rng.normal(dist.mean, dist.sigma, num_samples)
    arrivals = {net: np.zeros(num_samples) for net in circuit.primary_inputs}
    for name in order:
        gate = circuit.gate(name)
        worst = None
        for net in gate.inputs:
            arr = arrivals.setdefault(net, np.zeros(num_samples))
            worst = arr if worst is None else np.maximum(worst, arr)
        arrivals[gate.output] = worst + gate_samples[name]
    delay = None
    for net in circuit.primary_outputs:
        arr = arrivals[net]
        delay = arr if delay is None else np.maximum(delay, arr)
    return delay


def _draw_gate_delays(timer, circuit, plan, num_samples, seed):
    """Pre-draw every gate's delays into its output row of an arrival matrix.

    The :func:`arrival_matrix` that :func:`propagate_levelized` takes, with
    gate ``g``'s samples in row ``num_pis + g``.  Same generator stream as
    both propagation paths (draws in topological order), so the
    propagation-stage comparison below starts from literally the same numbers.
    """
    rng = np.random.default_rng(seed)
    mu, sigma = timer.variation_model.delay_moments(circuit, timer.delay_model)
    drawn = arrival_matrix(plan, num_samples)
    for name in circuit.topological_order():
        gid = plan.gate_index[name]
        drawn[plan.num_pis + gid] = rng.normal(mu[gid], sigma[gid], num_samples)
    return drawn


def _pergate_propagation(circuit, plan, drawn):
    """The historical per-gate dict propagation over pre-drawn delays.

    The exact propagation loop the levelized array program replaced, reading
    each gate's delays from its row of the shared drawn matrix so only
    propagation is timed.
    """
    num_samples = drawn.shape[1]
    arrivals = {net: np.zeros(num_samples) for net in circuit.primary_inputs}
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        worst = None
        for net in gate.inputs:
            arr = arrivals.setdefault(net, np.zeros(num_samples))
            worst = arr if worst is None else np.maximum(worst, arr)
        arrivals[gate.output] = worst + drawn[plan.num_pis + plan.gate_index[name]]
    return np.stack([arrivals[net] for net in circuit.primary_outputs])


def bench_circuit(
    name: str,
    delay_model,
    variation_model,
    mc_samples: int,
    rounds: int,
) -> Tuple[Dict[str, object], List[str], bool]:
    """Benchmark all four engines on one circuit; returns (record, lines, ok)."""
    circuit = build_benchmark(name)
    circuit.compiled()  # lower once up front; every path below shares it
    ok = True
    record: Dict[str, object] = {
        "circuit": name,
        "gates": circuit.num_gates(),
        "levels": circuit.logic_depth(),
        "mc_samples": mc_samples,
    }
    lines = [
        f"{name} ({circuit.num_gates()} gates, depth {circuit.logic_depth()}):"
    ]

    def row(label, t_scalar, t_vector, note):
        speedup = t_scalar / max(t_vector, 1e-12)
        lines.append(
            f"  {label:9s} scalar {t_scalar * 1e3:9.1f} ms   "
            f"levelized {t_vector * 1e3:9.1f} ms   "
            f"speedup {speedup:6.2f}x   {note}"
        )
        return speedup

    # --- DSTA / FASSTA / FULLSSTA: one levelized path each --------------
    engines = {
        "dsta": ("DSTA", DeterministicSTA(delay_model).arrival_times),
        "fassta": ("FASSTA", FASSTA(delay_model, variation_model).analyze),
        "fullssta": ("FULLSSTA", FULLSSTA(delay_model, variation_model).analyze),
    }
    for key, (label, analyze) in engines.items():
        t_v, _ = _best_of(functools.partial(analyze, circuit), rounds)
        lines.append(f"  {label:9s} levelized {t_v * 1e3:9.1f} ms")
        record[key] = {"levelized_ms": t_v * 1e3}

    # --- Monte Carlo --------------------------------------------------
    timer = MonteCarloTimer(delay_model, variation_model)
    plan = circuit.compiled()

    # Propagation stage on shared pre-drawn delays: the per-gate dict loop vs
    # the production levelized program, bit-identity asserted.  The levelized
    # program runs in place, so each round propagates a copy of the draws.
    drawn = _draw_gate_delays(timer, circuit, plan, mc_samples, seed=0)
    t_s, ref_po = _best_of(lambda: _pergate_propagation(circuit, plan, drawn), rounds)
    t_v, arr = _best_of(lambda: propagate_levelized(plan, drawn.copy()), rounds)
    out_rows = [plan.net_index[net] for net in circuit.primary_outputs]
    identical = np.array_equal(arr[out_rows], ref_po)
    ok = ok and identical
    speedup = row(
        "MC-prop", t_s, t_v,
        f"{mc_samples} samples, "
        + ("bit-identical" if identical else "MISMATCH"),
    )
    record["mc"] = {
        "scalar_ms": t_s * 1e3, "levelized_ms": t_v * 1e3,
        "speedup": speedup, "bit_identical": identical,
    }

    # End-to-end (draws + propagation), for transparency: the Gaussian
    # draws are identical work in both paths and dominate the wall clock.
    t_es, ref_samples = _best_of(
        lambda: _reference_mc_samples(timer, circuit, mc_samples, seed=0), rounds
    )
    t_ev, result = _best_of(
        lambda: timer.run(circuit, num_samples=mc_samples, seed=0), rounds
    )
    e2e_identical = np.array_equal(result.samples, ref_samples)
    ok = ok and e2e_identical
    e2e_speedup = row(
        "MC-e2e", t_es, t_ev,
        "incl. identical draws, "
        + ("bit-identical stream" if e2e_identical else "STREAM MISMATCH"),
    )
    record["mc"]["end_to_end"] = {
        "scalar_ms": t_es * 1e3, "levelized_ms": t_ev * 1e3,
        "speedup": e2e_speedup, "bit_identical": e2e_identical,
    }

    return record, lines, ok


def bench_generated(
    spec_text: str,
    delay_model,
    rounds: int,
) -> Tuple[Dict[str, object], List[str], bool]:
    """Front-end scale benchmark on one generated circuit.

    Times the full pipeline stage by stage — generate (raw netlist),
    elaborate + canonicalize, DRC lint, compile to the array IR, levelized
    DSTA — to track that the front end and compiled path stay linear.
    """
    from repro.circuits.synthetic import parse_generated_spec, synthetic_raw
    from repro.netlist.elaborate import elaborate
    from repro.verify import lint_circuit

    spec = parse_generated_spec(spec_text)
    stages: Dict[str, float] = {}

    start = clock()
    raw = synthetic_raw(spec)
    stages["generate_s"] = clock() - start

    start = clock()
    circuit = elaborate(raw, name=spec.display_name)
    stages["elaborate_s"] = clock() - start

    start = clock()
    lint = lint_circuit(circuit, library=delay_model.library)
    stages["lint_s"] = clock() - start
    ok = lint.ok

    start = clock()
    circuit.compiled()
    stages["compile_s"] = clock() - start

    dsta = DeterministicSTA(delay_model)
    stages["dsta_levelized_s"], _ = _best_of(
        lambda: dsta.arrival_times(circuit), rounds
    )

    record: Dict[str, object] = {
        "circuit": f"gen:{spec_text}",
        "kind": "frontend-scale",
        "gates": circuit.num_gates(),
        "levels": circuit.logic_depth(),
        "lint_errors": len(lint.errors),
        "stages": stages,
    }
    lines = [
        f"gen:{spec_text} ({circuit.num_gates()} gates, "
        f"depth {circuit.logic_depth()}):",
        "  " + "   ".join(
            f"{stage.rsplit('_', 1)[0]} {seconds:6.2f} s"
            for stage, seconds in stages.items()
        )
        + f"   lint {'clean' if ok else f'{len(lint.errors)} error(s)'}",
    ]
    return record, lines, ok


def append_trajectory(records: List[Dict[str, object]], mode: str) -> None:
    """Append one entry to the checked-in BENCH_engines.json trajectory."""
    append_entry(
        "engines", records, mode,
        description="IR-levelized engine runtimes (bench_engines.py)",
    )


def run(
    circuits: List[str], mc_samples: int, rounds: int,
    generated: Optional[List[str]] = None,
) -> Tuple[str, List[Dict[str, object]], bool]:
    delay_model, variation_model = _substrates()
    lines = [
        "Engines on the compiled IR: levelized runtimes, MC vs per-gate reference",
        f"(MC propagation asserted bit-identical per run; best of {rounds} rounds)",
        "",
    ]
    records = []
    ok = True
    for name in circuits:
        record, circuit_lines, circuit_ok = bench_circuit(
            name, delay_model, variation_model, mc_samples, rounds
        )
        records.append(record)
        lines.extend(circuit_lines)
        lines.append("")
        ok = ok and circuit_ok
    for spec_text in generated or []:
        record, circuit_lines, circuit_ok = bench_generated(
            spec_text, delay_model, rounds
        )
        records.append(record)
        lines.extend(circuit_lines)
        lines.append("")
        ok = ok and circuit_ok
    return "\n".join(lines).rstrip() + "\n", records, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: one small circuit, fewer samples",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated registry circuit names (overrides the mode default)",
    )
    parser.add_argument(
        "--generated",
        action="append",
        default=None,
        metavar="DEPTH,WIDTH[,SEED]",
        help="additionally run the front-end scale benchmark on a generated "
             "circuit (repeatable; any SyntheticSpec keyword form works, "
             "e.g. 'depth=100,width=1000,seed=17')",
    )
    parser.add_argument(
        "--mc-samples",
        type=int,
        default=None,
        help="Monte-Carlo samples (default: 128 — cache-resident regime "
        "for the propagation comparison; see module docstring)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds per path (default: 2 quick / 3 full)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to BENCH_engines.json (CI smoke uses this)",
    )
    args = parser.parse_args(argv)

    circuits = (
        [name.strip() for name in args.circuits.split(",") if name.strip()]
        if args.circuits
        else (QUICK_CIRCUITS if args.quick else FULL_CIRCUITS)
    )
    if args.circuits == "":
        circuits = []
    mc_samples = args.mc_samples or 128
    rounds = args.rounds or (2 if args.quick else 5)

    report, records, ok = run(circuits, mc_samples, rounds,
                              generated=args.generated)
    print(report)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engines.txt").write_text(report)
    if not args.no_trajectory:
        append_trajectory(records, "quick" if args.quick else "full")
        print(f"trajectory appended to {TRAJECTORY_PATH}")

    if not ok:
        print(
            "FAILED: the levelized MC propagation diverged from its per-gate reference",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
