"""Tests for the top-level convenience flow (repro.flow / package exports)."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.circuits.adders import ripple_carry_adder
from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.core.fullssta import FULLSSTA
from repro.core.sizer import SizerConfig
from repro.flow import quick_flow, run_sizing_flow
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.library.delay_model import LinearRCDelayModel

FAST = SizerConfig(lam=3.0, max_iterations=4, max_outputs_per_pass=2, patience=2)


class TestPackageExports:
    def test_version(self):
        assert repro.__version__
        assert repro.FlowResult is not None

    def test_public_api_importable(self):
        from repro.core import StatisticalGreedySizer, FULLSSTA, FASSTA  # noqa: F401
        from repro.netlist import Circuit, parse_bench  # noqa: F401
        from repro.library import make_synthetic_90nm_library  # noqa: F401


class TestQuickFlow:
    def test_quick_flow_on_c17(self):
        result = quick_flow("c17", lam=3.0, sizer_config=FAST)
        assert result.circuit.num_gates() == 6
        assert result.original_rv.mean > 0
        assert result.final_rv.sigma <= result.original_rv.sigma + 1e-9
        assert result.sigma_reduction_pct >= 0.0
        assert result.lam == 3.0

    def test_quick_flow_with_monte_carlo(self):
        result = quick_flow("c17", lam=3.0, sizer_config=FAST, monte_carlo_samples=200)
        assert result.mc_original is not None
        assert result.mc_final is not None
        assert result.mc_original.num_samples == 200

    def test_final_wnss_trace_is_surfaced(self):
        result = quick_flow("c17", lam=3.0, sizer_config=FAST)
        wnss = result.final_wnss
        assert wnss is not None
        assert wnss.gates
        assert wnss.output_net in result.circuit.primary_outputs
        # One recorded decision per traced gate, each naming a real input
        # of its gate and a supported method.
        assert len(wnss.decisions) == len(wnss.gates)
        for decision in wnss.decisions:
            gate = result.circuit.gate(decision.gate)
            assert decision.chosen_net in gate.inputs
            assert decision.method in ("single", "dominance", "sensitivity")
            assert set(decision.candidates) == set(gate.inputs)

    def test_table1_row_dict(self):
        result = quick_flow("c17", lam=3.0, sizer_config=FAST)
        row = result.as_table1_row()
        assert row["gates"] == 6.0
        assert row["original_cv"] == pytest.approx(result.original_cv)
        assert row["sigma_reduction_pct"] == pytest.approx(-result.sigma_reduction_pct)


class TestRunSizingFlow:
    def test_custom_substrates(self):
        library = make_synthetic_90nm_library(sizes_per_cell=6)
        delay_model = LinearRCDelayModel(library)
        circuit = ripple_carry_adder(2)
        result = run_sizing_flow(
            circuit, lam=3.0, delay_model=delay_model, sizer_config=FAST
        )
        assert result.final_area > 0
        assert result.baseline.final_delay <= result.baseline.initial_delay + 1e-9

    def test_without_baseline(self):
        circuit = ripple_carry_adder(2)
        result = run_sizing_flow(circuit, lam=3.0, run_baseline=False, sizer_config=FAST)
        assert result.baseline.passes == 0
        assert result.baseline.initial_delay == pytest.approx(result.baseline.final_delay)

    def test_metrics_signs_consistent(self):
        circuit = ripple_carry_adder(3)
        result = run_sizing_flow(circuit, lam=3.0, sizer_config=FAST)
        # sigma reduction percentage and final/original sigma must agree.
        expected = 100.0 * (result.original_rv.sigma - result.final_rv.sigma) / result.original_rv.sigma
        assert result.sigma_reduction_pct == pytest.approx(expected)
        expected_area = 100.0 * (result.final_area - result.original_area) / result.original_area
        assert result.area_increase_pct == pytest.approx(expected_area)

    @pytest.mark.parametrize("objective", ["cost", "yield"])
    def test_reported_analyses_match_fresh_fullssta(
        self, objective, delay_model, variation_model
    ):
        # The flow reports the sizer's incremental analyses; they must be
        # bitwise those of a from-scratch FULLSSTA of each design.
        config = dataclasses.replace(FAST, objective=objective)
        result = run_sizing_flow(
            build_benchmark("c432"),
            delay_model=delay_model,
            variation_model=variation_model,
            sizer_config=config,
        )
        fullssta = FULLSSTA(delay_model, variation_model, num_samples=config.pdf_samples)
        fresh = build_benchmark("c432")
        MeanDelaySizer(delay_model).optimize(fresh)
        original = fullssta.analyze(fresh)
        fresh.apply_sizes(result.circuit.sizes())
        final = fullssta.analyze(fresh)
        for rv, pdf, analysis in (
            (result.original_rv, result.original_output_pdf, original),
            (result.final_rv, result.final_output_pdf, final),
        ):
            assert rv == analysis.output_rv
            assert np.array_equal(pdf.values, analysis.output_pdf.values)
            assert np.array_equal(pdf.probabilities, analysis.output_pdf.probabilities)
