"""Regenerate Table 1: per-circuit sigma reduction / mean / area at lambda = 3 and 9.

The paper's Table 1 reports, for 13 circuits, the original sigma/mu of the
mean-delay-optimized design and — for lambda = 3 and lambda = 9 — the change
in mean delay, the change in sigma, the resulting sigma/mu, the area change
and the runtime.  ``test_regenerate_table1`` reproduces those rows for the
selected circuit subset (see ``conftest.selected_circuits``) and writes them
to ``benchmarks/results/table1.txt``; the timed benchmark measures one
representative optimization run.

Paper headline to compare against: at lambda = 9 an *average* sigma
reduction of ~72 % for ~20 % average area increase; at lambda = 3 roughly
-55 % sigma for ~12 % area.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import selected_circuits, write_result
from repro.analysis.experiments import run_table1
from repro.analysis.metrics import summarize_rows
from repro.analysis.report import format_table1
from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.core.sizer import SizerConfig, StatisticalGreedySizer


@pytest.mark.benchmark(group="table1")
def test_regenerate_table1(benchmark):
    """Regenerate the Table 1 rows for the selected circuits (both lambdas)."""
    circuits = selected_circuits()
    rows = benchmark.pedantic(
        lambda: run_table1(circuits, lams=(3.0, 9.0)), rounds=1, iterations=1
    )
    text = format_table1(rows)
    lines = ["Table 1 reproduction (selected circuits)", "", text, ""]
    for lam in (3.0, 9.0):
        summary = summarize_rows([r for r in rows if r.lam == lam])
        paper = "(paper: -72 % sigma / +20 % area)" if lam == 9.0 else "(paper: ~-55 % sigma / ~+12 % area)"
        lines.append(
            f"lambda={lam:g}: avg sigma {-summary['avg_sigma_reduction_pct']:.1f} %, "
            f"avg area {summary['avg_area_increase_pct']:+.1f} %, "
            f"avg mean {summary['avg_mean_increase_pct']:+.1f} %  {paper}"
        )
    report = "\n".join(lines)
    print("\n" + report)
    write_result("table1.txt", report)

    # Qualitative shape checks (the numbers are in results/table1.txt): sigma
    # is consistently reduced, never increased, and area does not shrink.
    for row in rows:
        assert row.sigma_change_pct <= 1e-9, row
        assert row.area_increase_pct >= -1.0, row


@pytest.mark.benchmark(group="table1")
def test_statistical_greedy_runtime(benchmark, substrates):
    """Time one full StatisticalGreedy run on the c432-class circuit (lambda=3)."""
    _, delay_model, variation_model = substrates

    def run_once():
        circuit = build_benchmark("c432")
        MeanDelaySizer(delay_model).optimize(circuit)
        sizer = StatisticalGreedySizer(
            delay_model, variation_model, SizerConfig(lam=3.0)
        )
        return sizer.optimize(circuit).sigma_reduction_pct

    reduction = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert reduction >= 0.0


@pytest.mark.benchmark(group="table1")
def test_baseline_sizer_runtime(benchmark, substrates):
    """Time the deterministic mean-delay baseline on the c432-class circuit."""
    _, delay_model, _ = substrates

    def run_once():
        circuit = build_benchmark("c432")
        return MeanDelaySizer(delay_model).optimize(circuit).delay_reduction_pct

    reduction = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert reduction > 0.0
