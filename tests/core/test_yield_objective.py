"""Tests for the yield-targeted optimization mode.

The sizer's ``objective="yield"`` minimizes the clock period achieving a
target parametric timing yield: the inner loop reuses the weighted cost at
the target's z-score, circuit-level decisions use the exact FULLSSTA
discrete-pdf quantile.
"""


import pytest

from repro.analysis.timing_yield import period_for_yield, timing_yield
from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.core.cost import WeightedCost, YieldObjective
from repro.core.discrete_pdf import DiscretePDF
from repro.core.fullssta import FULLSSTA
from repro.core.rv import NormalDelay
from repro.core.sizer import SizerConfig, StatisticalGreedySizer


class TestYieldObjective:
    def test_z_scores(self):
        assert YieldObjective(0.5).z == pytest.approx(0.0, abs=1e-9)
        assert YieldObjective(0.99).z == pytest.approx(2.3263478740, abs=1e-6)
        assert YieldObjective(0.99865).z == pytest.approx(3.0, abs=1e-3)

    def test_equivalent_cost_is_normal_quantile(self):
        objective = YieldObjective(0.95)
        rv = NormalDelay(1000.0, 40.0)
        assert objective.equivalent_cost().of(rv) == pytest.approx(
            rv.quantile(0.95), abs=1e-6
        )
        assert isinstance(objective.equivalent_cost(), WeightedCost)

    def test_period_for_dispatches_on_distribution(self):
        objective = YieldObjective(0.9)
        rv = NormalDelay(500.0, 20.0)
        pdf = DiscretePDF.from_normal(500.0, 20.0, 31)
        assert objective.period_for(rv) == period_for_yield(rv, 0.9)
        assert objective.period_for(pdf) == period_for_yield(pdf, 0.9)
        assert objective.period_for(pdf) == pytest.approx(
            objective.period_for(rv), rel=0.02
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            YieldObjective(0.4)  # below half rewards increasing variance
        with pytest.raises(ValueError):
            YieldObjective(1.0)


class TestSizerConfigValidation:
    def test_objective_names(self):
        with pytest.raises(ValueError):
            SizerConfig(objective="speed")
        assert SizerConfig(objective="yield").target_yield == 0.99

    def test_target_yield_range(self):
        with pytest.raises(ValueError):
            SizerConfig(objective="yield", target_yield=0.3)
        # The target is only validated when the yield objective is active.
        assert SizerConfig(objective="cost", target_yield=0.3).lam == 3.0

    def test_max_area_ratio_range(self):
        with pytest.raises(ValueError):
            SizerConfig(max_area_ratio=0.9)


class TestYieldModeSizer:
    TARGET = 0.99

    def _sized(self, name, config, delay_model, variation_model):
        circuit = build_benchmark(name)
        MeanDelaySizer(delay_model).optimize(circuit)
        original_pdf = FULLSSTA(delay_model, variation_model).analyze(circuit).output_pdf
        result = StatisticalGreedySizer(delay_model, variation_model, config).optimize(
            circuit
        )
        final_pdf = FULLSSTA(delay_model, variation_model).analyze(circuit).output_pdf
        return circuit, original_pdf, final_pdf, result

    def test_reduces_target_period_on_c17(self, delay_model, variation_model):
        config = SizerConfig(objective="yield", target_yield=self.TARGET,
                             max_iterations=8)
        _, original_pdf, final_pdf, result = self._sized(
            "c17", config, delay_model, variation_model
        )
        p_before = period_for_yield(original_pdf, self.TARGET)
        p_after = period_for_yield(final_pdf, self.TARGET)
        assert p_after < p_before
        # The sized design actually achieves the target at its period.
        assert timing_yield(final_pdf, p_after) >= self.TARGET - 1e-9
        assert result.objective == "yield"
        assert result.target_yield == self.TARGET
        # The recorded lambda is the target's z-score, not the config default.
        assert result.lam == pytest.approx(YieldObjective(self.TARGET).z)

    def test_area_constrained_variant(self, delay_model, variation_model):
        ratio = 1.10
        config = SizerConfig(objective="yield", target_yield=self.TARGET,
                             max_iterations=8, max_area_ratio=ratio)
        circuit = build_benchmark("c17")
        MeanDelaySizer(delay_model).optimize(circuit)
        start_area = delay_model.circuit_area(circuit)
        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        assert delay_model.circuit_area(circuit) <= ratio * start_area * (1 + 1e-9)

    def test_area_constraint_applies_to_cost_objective_too(
        self, delay_model, variation_model
    ):
        config = SizerConfig(lam=9.0, max_iterations=8, max_area_ratio=1.05)
        circuit = build_benchmark("c17")
        MeanDelaySizer(delay_model).optimize(circuit)
        start_area = delay_model.circuit_area(circuit)
        StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit)
        assert delay_model.circuit_area(circuit) <= 1.05 * start_area * (1 + 1e-9)

    def test_cost_mode_unchanged_by_new_fields(self, delay_model, variation_model):
        # The default config must still drive the paper's weighted cost.
        sizer = StatisticalGreedySizer(delay_model, variation_model, SizerConfig())
        assert sizer.yield_objective is None
        assert sizer.cost.lam == 3.0
        result = sizer.optimize(build_benchmark("c17"))
        assert result.objective == "cost"
        assert result.target_yield is None
        assert result.lam == 3.0

    def test_yield_flow_summary(self, delay_model, variation_model, library):
        from repro.flow import run_sizing_flow

        circuit = build_benchmark("c17")
        config = SizerConfig(objective="yield", target_yield=self.TARGET,
                             max_iterations=6)
        flow = run_sizing_flow(
            circuit,
            library=library,
            delay_model=delay_model,
            variation_model=variation_model,
            sizer_config=config,
        )
        assert flow.original_output_pdf is not None
        assert flow.final_output_pdf is not None
        summary = flow.yield_summary(self.TARGET)
        assert summary["final_period"] <= summary["original_period"]
        assert summary["final_yield_at_final_period"] >= self.TARGET - 1e-9
        assert summary["original_yield_at_final_period"] <= (
            summary["final_yield_at_final_period"] + 1e-9
        )

    def test_finer_pdf_sampling_sharpens_the_quantile(
        self, delay_model, variation_model
    ):
        # The yield objective is driven by the discrete-pdf quantile, so the
        # pdf_samples knob directly controls its resolution; the run must
        # simply remain well-behaved at a non-default budget.
        config = SizerConfig(objective="yield", target_yield=self.TARGET,
                             max_iterations=4, pdf_samples=21)
        _, original_pdf, final_pdf, _ = self._sized(
            "c17", config, delay_model, variation_model
        )
        assert period_for_yield(final_pdf, self.TARGET) <= period_for_yield(
            original_pdf, self.TARGET
        )
