"""Command-line interface.

``python -m repro.cli <command>`` (or the ``repro-sizer`` console script)
exposes the main flows without writing any Python:

* ``info``   — structural summary of a benchmark or ``.bench`` netlist;
* ``sta``    — deterministic STA report (worst delay, critical path);
* ``ssta``   — statistical STA report (FASSTA and FULLSSTA moments, optional
  Monte-Carlo validation and timing yield at a clock period);
* ``size``   — run the full flow (baseline mean-delay sizing followed by
  StatisticalGreedy) and report the Table 1 metrics for one circuit
  (``--explain-path`` additionally prints the final design's WNSS trace
  with every dominance-vs-sensitivity decision);
* ``lint``   — run the static design-rule checker (DRC001 ...) over a
  circuit and report diagnostics as text or JSON; exit 0 when clean at the
  chosen severity threshold, 1 otherwise, 2 on usage errors;
* ``table1`` — regenerate Table 1 rows for a list of circuits;
* ``stats``  — summarize a ``trace.json`` (from ``size --trace`` or a sweep
  directory): per-span aggregates, root coverage and the metrics snapshot,
  as text or JSON;
* ``sweep``  — parallel, resumable (circuit, lambda) sweep: fans the cells
  across a process pool (``--jobs``), persists each completed cell as a
  JSON artifact (``--out``) and skips up-to-date cells on ``--resume``.  A
  failed cell ends the sweep with one ``error:`` line and exit 1, Ctrl-C
  with exit 130; either way every finished cell stays saved for
  ``--resume``;
* ``benchmarks`` — list the available benchmark circuits and their stand-in
  gate counts versus the paper's.

Circuits are named by registry name (``alu2``, ``c432`` ...), by a synthetic
generator spec (``gen50k`` or ``gen:depth=40,width=250``), or by a path to an
ISCAS ``.bench`` or structural-Verilog ``.v`` netlist (``--top`` picks the
root module of a hierarchical design).  ``info --frontend`` additionally
reports what the netlist front end did on the way in: nets merged by
``assign``-alias canonicalization, repair buffers inserted, duplicate
drivers removed and any diagnostics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Tuple

from repro.analysis.experiments import run_table1
from repro.analysis.report import format_table, format_table1
from repro.runner.errors import DeterministicError
from repro.runner.sweep import (
    SubstrateSpec,
    fig4_specs,
    run_cells,
    table1_specs,
    yield_specs,
)
from repro.analysis.timing_yield import YieldReport
from repro.circuits.registry import (
    BENCHMARK_NAMES,
    GENERATED_SPECS,
    PAPER_GATE_COUNTS,
    build_benchmark,
)
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA
from repro.core.sizer import SizerConfig
from repro.flow import run_sizing_flow
from repro.montecarlo.mc import MonteCarloTimer
from repro.netlist.bench import parse_bench_file
from repro.obs import load_trace, write_trace
from repro.obs.report import format_stats_text, resolve_trace_path, stats_data
from repro.netlist.circuit import Circuit
from repro.netlist.verilog import parse_verilog_file
from repro.netlist.validate import validate_circuit
from repro.sta.dsta import DeterministicSTA


def load_circuit(name_or_path: str, top: Optional[str] = None) -> Circuit:
    """Resolve a circuit argument.

    Accepts a registry name, a named synthetic scale point (``gen50k``), an
    inline generator spec (``gen:40,250``), or a path to a ``.bench`` or
    structural-Verilog ``.v``/``.sv`` netlist.  ``top`` selects the root
    module when a hierarchical Verilog file declares several.
    """
    path = Path(name_or_path)
    if path.suffix in (".v", ".sv"):
        return parse_verilog_file(path, top=top)
    if path.suffix == ".bench" or path.exists():
        return parse_bench_file(path)
    return build_benchmark(name_or_path)


def _frontend_result(name_or_path: str, top: Optional[str]):
    """The :class:`CanonicalizeResult` behind a circuit argument.

    Re-runs the front-end pipeline (parse -> elaborate -> canonicalize) so
    ``info --frontend`` can report net merges, repairs and diagnostics.
    Registry builders are routed through ``RawNetlist.from_circuit`` so the
    report works uniformly for every circuit source.
    """
    from repro.netlist.ast import RawNetlist
    from repro.netlist.bench import parse_bench_raw
    from repro.netlist.elaborate import elaborate_design
    from repro.netlist.verilog import parse_verilog_raw

    path = Path(name_or_path)
    if path.suffix in (".v", ".sv"):
        raw = parse_verilog_raw(path.read_text())
        return elaborate_design(raw, top=top, name=path.stem)
    if path.suffix == ".bench" or path.exists():
        raw = parse_bench_raw(path.read_text(), name=path.stem)
        return elaborate_design(raw, name=path.stem)
    if name_or_path.startswith("gen:") or name_or_path in GENERATED_SPECS:
        from repro.circuits.synthetic import parse_generated_spec, synthetic_raw

        spec = (GENERATED_SPECS[name_or_path]
                if name_or_path in GENERATED_SPECS
                else parse_generated_spec(name_or_path[len("gen:"):]))
        return elaborate_design(synthetic_raw(spec), name=spec.display_name)
    circuit = build_benchmark(name_or_path)
    return elaborate_design(RawNetlist.from_circuit(circuit), name=circuit.name)


def _substrate_spec(args) -> SubstrateSpec:
    """The picklable substrate recipe matching the common CLI options."""
    return SubstrateSpec(
        sizes_per_cell=args.sizes_per_cell,
        proportional_alpha=args.alpha,
        random_sigma=args.random_sigma,
    )


def _substrates(args) -> Tuple:
    return _substrate_spec(args).build()


def _add_frontend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--top", default=None, metavar="MODULE",
                        help="top module of a hierarchical Verilog netlist "
                             "(default: the unique uninstantiated module)")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sizes-per-cell", type=int, default=7,
                        help="discrete sizes per cell type in the synthetic library")
    parser.add_argument("--alpha", type=float, default=0.6,
                        help="proportional variation coefficient of a minimum-size gate")
    parser.add_argument("--random-sigma", type=float, default=2.0,
                        help="unsystematic (size-independent) delay sigma in ps")


#: The valid range of every numeric option, by flag: (test, rule).  A
#: command reads only the flags its parser defines; ``--top`` is numeric
#: only for ``stats`` (elsewhere it names a Verilog module).
NUMERIC_OPTIONS = {
    "--sizes-per-cell": (lambda v: 2 <= v <= 10, "in [2, 10]"),
    "--alpha": (lambda v: v >= 0, ">= 0"),
    "--random-sigma": (lambda v: v >= 0, ">= 0"),
    "--lam": (lambda v: v >= 0, ">= 0"),
    "--period": (lambda v: v >= 0, ">= 0"),
    "--target-yield": (lambda v: 0.5 <= v < 1, "in [0.5, 1)"),
    "--max-area-ratio": (lambda v: v >= 1, ">= 1"),
    "--pdf-samples": (lambda v: v >= 3, ">= 3"),
    "--max-iterations": (lambda v: v >= 1, ">= 1"),
    "--monte-carlo": (lambda v: v == 0 or v >= 2, "0 (off) or >= 2"),
    "--seed": (lambda v: v >= 0, ">= 0"),
    "--jobs": (lambda v: v >= 1, ">= 1"),
    "--top": (lambda v: v >= 1, ">= 1"),
}


def _check_numeric_options(args) -> Optional[str]:
    """The error message of the first out-of-range numeric option, or None.

    ``main`` calls this once, before a command builds a circuit, so a bad
    value ends the run before any lint, sizing or analysis starts.
    """
    for flag, (valid, rule) in NUMERIC_OPTIONS.items():
        values = getattr(args, flag[2:].replace("-", "_"), None)
        for value in values if isinstance(values, list) else [values]:
            if isinstance(value, (int, float)) and not valid(value):
                return f"{flag} must be {rule}, got {value:g}"
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_info(args) -> int:
    if args.frontend:
        result = _frontend_result(args.circuit, args.top)
        circuit = result.circuit
    else:
        result = None
        circuit = load_circuit(args.circuit, top=args.top)
    library, _, _ = _substrates(args)
    stats = circuit.stats()
    problems = validate_circuit(circuit, library, raise_on_error=False)
    print(f"circuit        : {stats.name}")
    print(f"gates          : {stats.num_gates}")
    print(f"primary inputs : {stats.num_primary_inputs}")
    print(f"primary outputs: {stats.num_primary_outputs}")
    print(f"logic depth    : {stats.logic_depth}")
    print(f"max fanout     : {stats.max_fanout}")
    print(f"avg fanin      : {stats.avg_fanin:.2f}")
    print(f"validation     : {'ok' if not problems else f'{len(problems)} problem(s)'}")
    for problem in problems:
        print(f"  - {problem}")
    if result is not None:
        print("front end:")
        print(f"  merged nets   : {result.merged_nets}")
        print(f"  repair buffers: {len(result.repairs)}")
        print(f"  deduplicated  : {len(result.deduplicated)}")
        print(f"  diagnostics   : {len(result.diagnostics)}")
        for diag in result.diagnostics:
            print(f"    [{diag.severity}] {diag.rule}: {diag.message}")
    return 1 if problems else 0


def cmd_sta(args) -> int:
    circuit = load_circuit(args.circuit, top=args.top)
    _, delay_model, _ = _substrates(args)
    report = DeterministicSTA(delay_model).analyze(circuit, clock_period=args.period)
    print(f"worst arrival : {report.worst_arrival:.1f} ps at {report.worst_output}")
    print(f"clock period  : {report.clock_period:.1f} ps")
    print(f"worst slack   : {report.wns:+.1f} ps")
    print(f"total area    : {delay_model.circuit_area(circuit):.0f} um^2")
    print(f"critical path ({len(report.critical_path)} gates):")
    for name in report.critical_path:
        gate = circuit.gate(name)
        print(f"  {name:16s} {gate.cell_type:8s} size {gate.size_index}  "
              f"delay {report.gate_delays[name]:7.1f} ps")
    return 0


def cmd_ssta(args) -> int:
    circuit = load_circuit(args.circuit, top=args.top)
    _, delay_model, variation_model = _substrates(args)
    fast = FASSTA(delay_model, variation_model).analyze(circuit).output_rv
    full = FULLSSTA(delay_model, variation_model).analyze(circuit).output_rv
    print(f"FASSTA   : mean {fast.mean:9.1f} ps   sigma {fast.sigma:7.2f} ps   "
          f"sigma/mu {fast.cv:.4f}")
    print(f"FULLSSTA : mean {full.mean:9.1f} ps   sigma {full.sigma:7.2f} ps   "
          f"sigma/mu {full.cv:.4f}")
    if args.monte_carlo:
        mc = MonteCarloTimer(delay_model, variation_model).run(
            circuit, num_samples=args.monte_carlo, seed=args.seed
        )
        print(f"MonteCarlo({args.monte_carlo}): mean {mc.mean:9.1f} ps   "
              f"sigma {mc.sigma:7.2f} ps   sigma/mu {mc.cv:.4f}")
    if args.period is not None:
        report = YieldReport.from_distribution(full, args.period)
        print(f"timing yield at {args.period:.0f} ps : {100 * report.yield_fraction:.1f} %")
        print(f"period for 99 % yield    : {report.period_for_99:.1f} ps")
    return 0


def cmd_size(args) -> int:
    circuit = load_circuit(args.circuit, top=args.top)
    library, delay_model, variation_model = _substrates(args)
    config = SizerConfig(
        lam=args.lam,
        max_iterations=args.max_iterations,
        objective=args.objective,
        target_yield=args.target_yield,
        max_area_ratio=args.max_area_ratio,
        pdf_samples=args.pdf_samples,
    )
    try:
        result = run_sizing_flow(
            circuit,
            lam=args.lam,
            library=library,
            delay_model=delay_model,
            variation_model=variation_model,
            sizer_config=config,
            monte_carlo_samples=args.monte_carlo,
            run_baseline=not args.no_baseline,
            preflight=not args.no_preflight,
        )
    except DeterministicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run `repro-sizer lint` for the full diagnostics, or "
              "--no-preflight to proceed anyway", file=sys.stderr)
        return 1
    if args.trace and result.trace is not None:
        write_trace(args.trace, result.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.objective == "yield":
        print(f"circuit {circuit.name}: {circuit.num_gates()} gates, "
              f"objective=yield target={args.target_yield:g} "
              f"(equivalent lambda={result.sizer_result.lam:.3f})")
    else:
        print(f"circuit {circuit.name}: {circuit.num_gates()} gates, lambda={args.lam:g}")
    print(f"  mean delay : {result.original_rv.mean:9.1f} -> {result.final_rv.mean:9.1f} ps "
          f"({result.mean_increase_pct:+.1f} %)")
    print(f"  sigma      : {result.original_rv.sigma:9.2f} -> {result.final_rv.sigma:9.2f} ps "
          f"({-result.sigma_reduction_pct:+.1f} %)")
    print(f"  sigma/mu   : {result.original_cv:9.4f} -> {result.final_cv:9.4f}")
    print(f"  area       : {result.original_area:9.0f} -> {result.final_area:9.0f} um^2 "
          f"({result.area_increase_pct:+.1f} %)")
    print(f"  runtime    : {result.sizer_result.runtime_seconds:.1f} s sizer "
          f"({len(result.sizer_result.iterations)} passes), "
          f"{result.total_runtime_seconds:.1f} s total flow")
    if args.objective == "yield":
        ys = result.yield_summary(args.target_yield)
        print(f"  period@{100 * args.target_yield:.4g}% : {ys['original_period']:9.1f} -> "
              f"{ys['final_period']:9.1f} ps ({-ys['period_reduction_pct']:+.1f} %)")
        print(f"  yield at {ys['final_period']:.1f} ps : "
              f"{100 * ys['original_yield_at_final_period']:.2f} % -> "
              f"{100 * ys['final_yield_at_final_period']:.2f} %")
    if result.mc_original and result.mc_final:
        print(f"  MC sigma   : {result.mc_original.sigma:9.2f} -> {result.mc_final.sigma:9.2f} ps")
    if args.explain_path and result.final_wnss is not None:
        wnss = result.final_wnss
        print(f"  WNSS path of the final design ({len(wnss.gates)} gates, "
              f"output {wnss.output_net}, arrival "
              f"{wnss.output_rv.mean:.1f}+/-{wnss.output_rv.sigma:.1f} ps):")
        for decision in reversed(wnss.decisions):
            candidates = "  ".join(
                f"{net}={rv.mean:.1f}+/-{rv.sigma:.1f}"
                + ("*" if net == decision.chosen_net else "")
                for net, rv in decision.candidates.items()
            )
            print(f"    {decision.gate:16s} {decision.method:11s} "
                  f"-> {decision.chosen_net:12s} [{candidates}]")
    return 0


def cmd_lint(args) -> int:
    """Static design-rule check of one circuit (text or JSON diagnostics)."""
    from repro.verify import Severity, lint_circuit, rule_catalogue

    if args.list_rules:
        headers = ["rule", "severity", "library", "title"]
        rows = [
            (r["rule_id"], r["severity"],
             "yes" if r["requires_library"] else "-", r["title"])
            for r in rule_catalogue()
        ]
        print(format_table(headers, rows))
        return 0
    if not args.circuit:
        print("error: a circuit is required unless --list-rules is given",
              file=sys.stderr)
        return 2
    circuit = load_circuit(args.circuit, top=args.top)
    library = None if args.no_library else _substrates(args)[0]
    report = lint_circuit(circuit, library=library)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    fail_on = Severity.WARNING if args.fail_on == "warning" else Severity.ERROR
    return report.exit_code(fail_on=fail_on)


#: Default circuit subset for table1/sweep runs (small enough to regenerate
#: interactively; the full 13-circuit set is spelled out explicitly).
DEFAULT_TABLE1_CIRCUITS = ["alu1", "alu2", "alu3", "c432", "c499"]
#: Circuits for ``sweep --quick`` (CI smoke).
QUICK_SWEEP_CIRCUITS = ["c17", "alu1"]


def _sweep_sizer_config(args, quick: bool) -> Optional[SizerConfig]:
    """Sizer configuration for table1/sweep runs (lambda replaced per cell)."""
    if quick:
        return SizerConfig(
            lam=args.lam[0],
            max_iterations=(
                args.max_iterations if args.max_iterations is not None else 4
            ),
            max_outputs_per_pass=2,
            patience=2,
        )
    if args.max_iterations is not None:
        return SizerConfig(lam=args.lam[0], max_iterations=args.max_iterations)
    return None


def cmd_table1(args) -> int:
    circuits = args.circuits or DEFAULT_TABLE1_CIRCUITS
    rows = run_table1(
        circuits,
        lams=tuple(args.lam),
        sizer_config=_sweep_sizer_config(args, quick=False),
        substrates=_substrate_spec(args),
    )
    print(format_table1(rows))
    return 0


def cmd_sweep(args) -> int:
    if args.kind != "table1" and args.monte_carlo:
        print("error: --monte-carlo is only supported with --kind table1",
              file=sys.stderr)
        return 2
    substrates = _substrate_spec(args)
    config = _sweep_sizer_config(args, quick=args.quick)
    circuits = args.circuits or (
        QUICK_SWEEP_CIRCUITS if args.quick else DEFAULT_TABLE1_CIRCUITS
    )
    if args.kind == "table1":
        specs = table1_specs(
            circuits,
            args.lam,
            sizer_config=config,
            substrates=substrates,
            monte_carlo_samples=args.monte_carlo,
            seed=args.seed,
        )
    elif args.kind == "yield":
        specs = yield_specs(
            circuits,
            args.target_yield,
            sizer_config=config,
            substrates=substrates,
        )
    else:
        specs = [
            spec
            for name in circuits
            for spec in fig4_specs(
                name, args.lam, sizer_config=config, substrates=substrates
            )
        ]

    # Progress goes to stderr so stdout stays a clean result table that can
    # be piped; --quiet drops it, --progress json emits one object per cell.
    def progress(done, total, result):
        if args.quiet:
            return
        status = "cached" if result.from_cache else "computed"
        if args.progress == "json":
            import json

            print(
                json.dumps({
                    "done": done,
                    "total": total,
                    "kind": result.spec.kind,
                    "circuit": result.spec.circuit,
                    "lam": result.spec.lam,
                    "target_yield": result.spec.target_yield,
                    "status": status,
                    "runtime_seconds": result.runtime_seconds,
                }, sort_keys=True),
                file=sys.stderr,
                flush=True,
            )
            return
        if result.spec.kind == "yield":
            axis = f"y={result.spec.target_yield:<5g}"
        else:
            axis = f"lam={result.spec.lam:<4g}"
        print(
            f"[{done:3d}/{total:3d}] {result.spec.kind} "
            f"{result.spec.circuit:<8s} {axis} "
            f"{status:8s} {result.runtime_seconds:8.1f} s",
            file=sys.stderr,
            flush=True,
        )

    resume_hint = (f"finished cells are saved in {args.out}; rerun with "
                   "--resume to compute only the rest")
    try:
        report = run_cells(
            specs,
            jobs=args.jobs,
            out_dir=args.out,
            resume=args.resume,
            progress=progress,
            preflight=not args.no_preflight,
        )
    except DeterministicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run `repro-sizer lint` for the full diagnostics, or "
              "--no-preflight to proceed anyway", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # Every other cell ran and its artifact persisted.
        print(f"error: {exc}", file=sys.stderr)
        print(resume_hint, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"interrupted: {resume_hint}", file=sys.stderr)
        return 130
    print()
    if args.kind == "table1":
        print(format_table1([r.table1_row() for r in report.results]))
    elif args.kind == "yield":
        headers = ["circuit", "target", "orig_period", "period_ps", "delta_pct",
                   "orig_yield_pct", "area_um2"]
        body = []
        for result in report.results:
            cell = result.result
            body.append((
                cell["circuit"], f"{cell['target_yield']:g}",
                f"{cell['original_period']:.1f}", f"{cell['final_period']:.1f}",
                f"{-cell['period_reduction_pct']:+.1f}",
                f"{100 * cell['original_yield_at_final_period']:.2f}",
                f"{cell['area']:.0f}",
            ))
        print(format_table(headers, body))
    else:
        headers = ["circuit", "lambda", "mean_ps", "sigma_ps", "norm_mean",
                   "norm_sigma", "area_um2"]
        body = []
        for result in report.results:
            cell = result.result
            mu0 = cell["original_mean"] or 1.0
            body.append((
                cell["circuit"], f"{cell['lam']:g}", f"{cell['mean']:.1f}",
                f"{cell['sigma']:.2f}", f"{cell['mean'] / mu0:.3f}",
                f"{cell['sigma'] / mu0:.4f}", f"{cell['area']:.0f}",
            ))
        print(format_table(headers, body))
    print(report.summary())
    return 0


def cmd_stats(args) -> int:
    """Summarize one trace payload (file or sweep directory)."""
    try:
        payload = load_trace(resolve_trace_path(args.path))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = stats_data(payload)
    if args.format == "json":
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(format_stats_text(data, top=args.top))
    return 0


def cmd_benchmarks(args) -> int:
    headers = ["name", "paper gates", "generated gates", "depth"]
    rows = []
    for name in BENCHMARK_NAMES:
        circuit = build_benchmark(name)
        rows.append((name, PAPER_GATE_COUNTS[name], circuit.num_gates(), circuit.logic_depth()))
    print(format_table(headers, rows))
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sizer",
        description="Statistical gate sizing for process-variation tolerance "
                    "(Neiroukh & Song, DATE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structural summary of a circuit")
    p_info.add_argument("circuit")
    p_info.add_argument("--frontend", action="store_true",
                        help="also report the netlist front end's work: "
                             "merged alias nets, repair buffers, removed "
                             "duplicate drivers and diagnostics")
    _add_frontend_options(p_info)
    _add_common_options(p_info)
    p_info.set_defaults(func=cmd_info)

    p_sta = sub.add_parser("sta", help="deterministic STA report")
    p_sta.add_argument("circuit")
    p_sta.add_argument("--period", type=float, default=None, help="clock period in ps")
    _add_frontend_options(p_sta)
    _add_common_options(p_sta)
    p_sta.set_defaults(func=cmd_sta)

    p_ssta = sub.add_parser("ssta", help="statistical STA report")
    p_ssta.add_argument("circuit")
    p_ssta.add_argument("--monte-carlo", type=int, default=0, metavar="N",
                        help="validate with N Monte-Carlo samples")
    p_ssta.add_argument("--period", type=float, default=None,
                        help="report timing yield at this clock period (ps)")
    p_ssta.add_argument("--seed", type=int, default=0)
    _add_frontend_options(p_ssta)
    _add_common_options(p_ssta)
    p_ssta.set_defaults(func=cmd_ssta)

    p_size = sub.add_parser("size", help="run the full statistical sizing flow")
    p_size.add_argument("circuit")
    p_size.add_argument("--lam", type=float, default=3.0, help="Eq. 7 sigma weight")
    p_size.add_argument("--objective", choices=["cost", "yield"], default="cost",
                        help="minimize the weighted cost (Eq. 7) or the clock "
                             "period achieving --target-yield")
    p_size.add_argument("--target-yield", type=float, default=0.99,
                        help="parametric timing-yield target for "
                             "--objective yield (in [0.5, 1))")
    p_size.add_argument("--max-area-ratio", type=float, default=None,
                        help="reject sizings whose area exceeds this multiple "
                             "of the starting area (>= 1)")
    p_size.add_argument("--pdf-samples", type=int, default=13,
                        help="FULLSSTA samples per pdf (more sharpens the "
                             "yield-objective quantile)")
    p_size.add_argument("--max-iterations", type=int, default=60)
    p_size.add_argument("--monte-carlo", type=int, default=0, metavar="N")
    p_size.add_argument("--no-baseline", action="store_true",
                        help="skip the mean-delay baseline sizing step")
    p_size.add_argument("--no-preflight", action="store_true",
                        help="skip the pre-flight DRC lint of the circuit")
    p_size.add_argument("--explain-path", action="store_true",
                        help="print the final design's WNSS trace with every "
                             "dominance-vs-sensitivity decision")
    p_size.add_argument("--trace", default=None, metavar="FILE",
                        help="persist the flow's timing-span trace as FILE "
                             "(inspect with `repro-sizer stats FILE`)")
    _add_frontend_options(p_size)
    _add_common_options(p_size)
    p_size.set_defaults(func=cmd_size)

    p_lint = sub.add_parser(
        "lint",
        help="static design-rule check of a circuit (DRC001 ...)",
    )
    p_lint.add_argument("circuit", nargs="?", default=None,
                        help="registry name, gen: spec, or .bench/.v path")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument("--fail-on", choices=["error", "warning"],
                        default="error",
                        help="lowest severity that makes the exit code 1 "
                             "(default: error)")
    p_lint.add_argument("--no-library", action="store_true",
                        help="skip the library-domain rules (DRC007-DRC010)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    _add_frontend_options(p_lint)
    _add_common_options(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_table = sub.add_parser("table1", help="regenerate Table 1 rows")
    p_table.add_argument("circuits", nargs="*", help="circuit names (default: small subset)")
    p_table.add_argument("--lam", type=float, nargs="+", default=[3.0, 9.0])
    p_table.add_argument("--max-iterations", type=int, default=None,
                         help="cap the sizer's outer-loop passes per cell")
    _add_common_options(p_table)
    p_table.set_defaults(func=cmd_table1)

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel, resumable (circuit, lambda) sweep with JSON artifacts",
    )
    p_sweep.add_argument("circuits", nargs="*",
                         help="circuit names (default: small subset; "
                              "--quick shrinks it further)")
    p_sweep.add_argument("--lam", type=float, nargs="+", default=[3.0, 9.0])
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (1 = serial, in-process)")
    p_sweep.add_argument("--out", default="sweep-results", metavar="DIR",
                         help="artifact directory (one JSON file per cell)")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip cells whose artifact matches the current config")
    p_sweep.add_argument("--quick", action="store_true",
                         help="CI smoke mode: tiny circuits, reduced sizer budget")
    p_sweep.add_argument("--kind", choices=["table1", "fig4", "yield"],
                         default="table1",
                         help="cell type: Table-1 rows, Fig-4 trade-off points "
                              "or yield-objective cells")
    p_sweep.add_argument("--target-yield", type=float, nargs="+", default=[0.99],
                         help="target yields swept by --kind yield")
    p_sweep.add_argument("--monte-carlo", type=int, default=0, metavar="N",
                         help="validate each table1 cell with N MC samples")
    p_sweep.add_argument("--max-iterations", type=int, default=None,
                         help="cap the sizer's outer-loop passes per cell")
    p_sweep.add_argument("--no-preflight", action="store_true",
                         help="skip the pre-flight DRC lint of each pending "
                              "circuit (defective netlists then fail as cells "
                              "instead of up front)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines (stderr)")
    p_sweep.add_argument("--progress", choices=["text", "json"], default="text",
                         help="per-cell progress format on stderr: aligned "
                              "text lines or one JSON object per cell")
    _add_common_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_stats = sub.add_parser(
        "stats",
        help="summarize a trace.json: per-span aggregates, coverage, metrics",
    )
    p_stats.add_argument("path",
                         help="trace file, or a sweep directory holding a "
                              "campaign trace.json")
    p_stats.add_argument("--format", choices=["text", "json"], default="text")
    p_stats.add_argument("--top", type=int, default=20,
                         help="span names shown in the text table")
    p_stats.set_defaults(func=cmd_stats)

    p_bench = sub.add_parser("benchmarks", help="list available benchmark circuits")
    _add_common_options(p_bench)
    p_bench.set_defaults(func=cmd_benchmarks)

    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _check_numeric_options(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
