"""Flow benchmark: wall-clock, quality and per-layer attribution of the sizing flow.

Run from the repository root::

    python3 flowbench/run.py --workload c7552_cost --seed 1 --seconds 15 --trace 0
    python3 flowbench/run.py --workload c7552_cost --seed 1 --trace 1
    python3 flowbench/run.py --diff before.txt after.txt

``--trace 0`` times the flow untraced (repeating it while under
``--seconds``) and prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the flow once untraced and once with every layer's entry
points wrapped (``layers.py``) and prints the per-layer metrics.  Every flow
is checked against its recorded decision fingerprint (``fingerprints.json``)
and against a fresh analysis of its final sizes; a failed check makes the
run exit 1.  The last line of standard output is one JSON object; a
human-readable summary goes to standard error.

``--seed`` drives the Monte-Carlo sampling.  The circuits are fixed so that
runs with different seeds measure the same work; ``--circuit-seed`` picks
the generator seed of ``gen500_yield_mc`` (17 by default, 3 held out).

``--diff A B`` compares two saved outputs of this command: it ranks layers
by the change in self time and flags end-to-end metrics that got worse by
more than their BENCHMARK.json bound (exit 1 when any did).
"""

from __future__ import annotations

import os
import sys

# One single-threaded process: pin BLAS/OpenMP pools before numpy loads, and
# ignore the package's own tracing/verification switches.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_TRACE", "REPRO_VERIFY_IR", "REPRO_FAULTS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Set-ups timed before the first flow (at least this many, for at least
#: this long); their median is ``setup_s``.
SETUP_REPS = 25
SETUP_MIN_S = 1.5


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
def run_untraced(workload: Any, seed: int, seconds: float, circuit_seed: int) -> int:
    import workloads as wl

    expected = wl.load_fingerprints().get(workload.fingerprint_key(circuit_seed))
    setup, setup_s = wl.timed_setups(workload, circuit_seed, SETUP_REPS, SETUP_MIN_S)

    ok: List[bool] = []
    flow_runs: List[Any] = []
    last = last_setup = None
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        try:
            run = wl.run_flow(workload, setup, seed)
            if not peak_rss_mb:
                # Peak RSS of the set-ups and the first flow, so it does not
                # depend on how many flows fit in --seconds.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            _, problems = wl.check_flow(workload, circuit_seed, run, expected)
        except Exception:
            _log(traceback.format_exc())
            ok.append(False)
        else:
            for problem in problems:
                _log(f"FAILED: {problem}")
            ok.append(not problems)
            flow_runs.append(run)
            last, last_setup = run, setup
        if time.perf_counter() - start >= seconds:
            break
        setup, _ = wl.set_up(workload, circuit_seed)

    metrics: Dict[str, Any] = {}
    if last is not None:
        mc_err = wl.mc_sigma_err_pct(last_setup, last, seed)
        margin = 100.0 * (wl.MC_SIGMA_TOL_PCT - mc_err) / wl.MC_SIGMA_TOL_PCT
        _log(
            f"mc_sigma_err_pct {mc_err:.2f} / tol {wl.MC_SIGMA_TOL_PCT:.0f}, "
            f"margin {margin:.0f}%"
        )
        if mc_err > wl.MC_SIGMA_TOL_PCT:
            _log("FAILED: FULLSSTA sigma error against Monte Carlo exceeds the tolerance")
            ok[-1] = False
        metrics = {
            "flow_s": _metric(statistics.median(r.seconds for r in flow_runs), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            **{
                name: _metric(value, "%")
                for name, value in wl.quality(last.result).items()
            },
            "mc_sigma_err_pct": _metric(mc_err, "%"),
            "passed_runs_frac": _metric(sum(ok) / len(ok), "ratio"),
        }
        _log(
            f"{workload.name}: flow_s "
            f"{' '.join(f'{r.seconds:.3f}' for r in flow_runs)} normalized, "
            f"{' '.join(f'{r.wall_s:.3f}' for r in flow_runs)} wall-clock; "
            f"setup_s {setup_s:.4f}; peak RSS {peak_rss_mb:.1f} MB"
        )
    failed = ok.count(False)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
def run_traced(workload: Any, seed: int, circuit_seed: int) -> int:
    import workloads as wl
    from layers import ROOT_KEYS, LayerProfiler, window

    key = workload.fingerprint_key(circuit_seed)
    expected = wl.load_fingerprints().get(key)

    setup, _ = wl.set_up(workload, circuit_seed)
    plain = wl.run_flow(workload, setup, seed)
    plain_print, problems = wl.check_flow(workload, circuit_seed, plain, expected)
    plain_ok = not problems

    profiler = LayerProfiler()
    with profiler:
        setup, _ = wl.set_up(workload, circuit_seed)
        before = profiler.snapshot()
        traced = wl.run_flow(workload, setup, seed)
        in_flow = window(before, profiler.snapshot())
        if traced.result.mc_final is None:
            # The cost flows run no Monte Carlo; their accuracy run is the
            # montecarlo layer's work in this trace.
            wl.mc_sigma_err_pct(setup, traced, seed)
    traced_print, traced_problems = wl.check_flow(workload, circuit_seed, traced, expected)
    if traced_print != plain_print:
        traced_problems.append(
            f"traced fingerprint {traced_print} != untraced {plain_print}"
        )
    problems += traced_problems
    for problem in problems:
        _log(f"FAILED: {problem}")

    stat = profiler.stats
    # Layer seconds are reported at the speed probe's reference speed, like
    # flow_s, so two traces taken under different machine load compare.
    scale = traced.speed_factor
    flow_s = in_flow["flow"].inclusive_s
    leaf_s = sum(s.self_s for k, s in in_flow.items() if k not in ROOT_KEYS)
    previews = stat["core.fullssta.preview"].calls
    diagnostics = traced.result.sizer_result.diagnostics
    lookups = diagnostics["evaluation_cache_hits"] + diagnostics["evaluation_cache_misses"]
    metrics: Dict[str, Any] = {}
    for name in (
        "core.fullssta.preview", "core.fullssta.incremental", "core.fullssta.analyze",
        "core.discrete_pdf.scalar_ops", "sta.dsta.arrival_times", "core.cost.candidate",
        "core.cost.sweep", "core.subcircuit.extract", "core.wnss.trace",
        "library.delay_model", "variation.model.gate_distribution", "montecarlo.run",
    ):
        metrics[f"{name}.calls"] = _metric(stat[name].calls, "count")
        metrics[f"{name}.self_s"] = _metric(stat[name].self_s * scale, "s")
    for name in ("core.discrete_pdf.batched_combine", "core.fassta.gate_delay_rv",
                 "ir.compiled"):
        metrics[f"{name}.calls"] = _metric(stat[name].calls, "count")
    for name in ("core.baseline.optimize", "core.sizer.optimize"):
        metrics[f"{name}.s"] = _metric(stat[name].inclusive_s * scale, "s")
        metrics[f"{name}.self_s"] = _metric(stat[name].self_s * scale, "s")
    for name in ("core.fullssta.preview", "core.baseline.optimize"):
        metrics[f"{name}.share_pct"] = _metric(
            100.0 * in_flow[name].inclusive_s / flow_s, "%"
        )
    for name in ("circuits.build", "netlist.elaborate", "ir.compiled", "verify.preflight"):
        metrics[f"{name}.s"] = _metric(stat[name].inclusive_s * scale, "s")
    metrics.update({
        # The sizer calls commit_preview() only for trials it keeps, so the
        # accepted commits are counted against the previews attempted.
        "core.fullssta.preview_accept_ratio": _metric(
            profiler.commits_accepted / previews if previews else 0.0, "ratio"
        ),
        "core.fullssta.gates_retimed": _metric(diagnostics["gates_retimed"], "count"),
        "core.baseline.passes": _metric(traced.result.baseline.passes, "count"),
        "core.sizer.iterations": _metric(
            len(traced.result.sizer_result.iterations), "count"
        ),
        "core.sizer.eval_cache_hit_ratio": _metric(
            diagnostics["evaluation_cache_hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "flow.unattributed_s": _metric(in_flow["flow"].self_s * scale, "s"),
        "trace.flow_s": _metric(traced.seconds, "s"),
        "trace.leaf_coverage_pct": _metric(100.0 * leaf_s / flow_s, "%"),
        "trace.overhead_pct": _metric(
            100.0 * (traced.seconds - plain.seconds) / plain.seconds, "%"
        ),
    })
    _log(
        f"{workload.name}: flow_s untraced {plain.seconds:.3f}, traced {traced.seconds:.3f} "
        f"(wall-clock {plain.wall_s:.3f}, {traced.wall_s:.3f}); leaf layers cover "
        f"{100.0 * leaf_s / flow_s:.1f}% of the traced flow; wall-clock seconds:"
    )
    for name, stats in sorted(in_flow.items(), key=lambda kv: -kv[1].self_s):
        _log(
            f"  {name:36s} calls {stats.calls:9d}  self {stats.self_s:8.3f} s"
            f"  incl {stats.inclusive_s:8.3f} s"
        )
    failed = int(not plain_ok) + int(bool(traced_problems))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
def _read_metrics(path: str) -> Dict[str, float]:
    """Metric values from every result line of a saved output file."""
    values: Dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and isinstance(payload.get("metrics"), dict):
            for name, metric in payload["metrics"].items():
                values[name] = float(metric["value"])
    if not values:
        raise SystemExit(f"error: no result line with metrics in {path}")
    return values


def diff(path_a: str, path_b: str) -> int:
    """Rank layers by self-time change from A to B; flag end-to-end regressions."""
    a, b = _read_metrics(path_a), _read_metrics(path_b)
    layers = [
        (re.sub(r"\.self_s$", "", name), a[name], b[name])
        for name in sorted(a.keys() & b.keys())
        if name.endswith(".self_s")
    ]
    layers.sort(key=lambda row: -abs(row[2] - row[1]))
    if layers:
        print("layers by change in self time (A -> B):")
        for rank, (layer, before, after) in enumerate(layers, 1):
            print(f"{rank:3d}. {layer:40s} {before:9.3f} -> {after:9.3f} s  ({after - before:+.3f} s)")
    flagged = 0
    spec = json.loads(BENCHMARK_JSON.read_text())
    rows = [m for m in spec["end_to_end"] if m["name"] in a and m["name"] in b]
    if rows:
        print("end-to-end metrics (A -> B, bound):")
    for m in rows:
        before, after = a[m["name"]], b[m["name"]]
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = (sign * (after - before) / abs(before) if before else 0.0) + 0.0
        outside = worse > m["bound"]
        flagged += outside
        print(
            f"     {m['name']:40s} {before:11.4f} -> {after:11.4f} {m['unit']:6s}"
            f" worse by {100 * worse:+7.2f}% (bound {100 * m['bound']:.0f}%)"
            f"{'  OUTSIDE BOUND' if outside else ''}"
        )
    return 1 if flagged else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--circuit-seed", type=int, default=None)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    parser.add_argument(
        "--bless", action="store_true",
        help="run the flow once and record its decision fingerprint",
    )
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)

    if not (SRC / "repro" / "flow.py").is_file():
        _log(f"error: the repro package is missing under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload or "")
    if workload is None:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.circuit_seed is not None and not workload.generated:
        parser.error("--circuit-seed applies to generated workloads only")
    circuit_seed = (
        wl.DEFAULT_CIRCUIT_SEED if args.circuit_seed is None else args.circuit_seed
    )
    if args.bless:
        setup, _ = wl.set_up(workload, circuit_seed)
        print_ = wl.fingerprint(wl.run_flow(workload, setup, args.seed))
        wl.bless(workload.fingerprint_key(circuit_seed), print_)
        _log(f"recorded {workload.fingerprint_key(circuit_seed)}: {print_}")
        return 0
    if args.trace:
        return run_traced(workload, args.seed, circuit_seed)
    return run_untraced(workload, args.seed, args.seconds, circuit_seed)


if __name__ == "__main__":
    sys.exit(main())
