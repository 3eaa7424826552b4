"""Unit tests for the StatisticalGreedy sizer."""

import pytest

from repro.circuits.adders import ripple_carry_adder
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.sizer import SizerConfig, StatisticalGreedySizer
from repro.netlist.validate import validate_circuit


@pytest.fixture
def sizer(delay_model, variation_model):
    return StatisticalGreedySizer(delay_model, variation_model, SizerConfig(lam=3.0))


class TestSizerConfig:
    def test_defaults_match_paper_setup(self):
        config = SizerConfig()
        assert config.lam == 3.0
        assert config.subcircuit_depth == 2
        assert 10 <= config.pdf_samples <= 15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"subcircuit_depth": -1},
            {"max_iterations": 0},
            {"max_outputs_per_pass": 0},
            {"max_outputs_per_pass": -1},
            {"patience": 0},
            {"patience": -3},
            {"sigma_target": -1.0},
            {"pdf_samples": 2},
            {"pdf_samples": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SizerConfig(**kwargs)


class TestOptimizeSmallCircuits:
    def test_c17_sigma_never_increases(self, sizer, c17_circuit):
        result = sizer.optimize(c17_circuit)
        assert result.final.sigma <= result.initial.sigma + 1e-9
        assert result.sigma_reduction_pct >= 0.0

    def test_result_reflects_circuit_state(self, sizer, c17_circuit, delay_model, variation_model):
        result = sizer.optimize(c17_circuit)
        # The reported final moments must match a fresh FULLSSTA run on the
        # returned circuit (the best configuration is restored).
        check = FULLSSTA(delay_model, variation_model).analyze(c17_circuit).output_rv
        assert result.final.mean == pytest.approx(check.mean, rel=1e-6)
        assert result.final.sigma == pytest.approx(check.sigma, rel=1e-6)
        assert result.final_area == pytest.approx(delay_model.circuit_area(c17_circuit))

    def test_objective_improves(self, sizer, c17_circuit):
        lam = sizer.config.lam
        result = sizer.optimize(c17_circuit)
        initial_obj = result.initial.mean + lam * result.initial.sigma
        final_obj = result.final.mean + lam * result.final.sigma
        assert final_obj <= initial_obj + 1e-9

    def test_circuit_stays_valid(self, sizer, small_adder, library):
        sizer.optimize(small_adder)
        assert validate_circuit(small_adder, library) == []

    def test_iteration_records(self, sizer, small_adder):
        result = sizer.optimize(small_adder)
        for record in result.iterations:
            assert record.sigma >= 0
            assert record.area > 0
            assert record.wnss_length >= 1
            assert record.resized_gates

    def test_runtime_recorded(self, sizer, c17_circuit):
        result = sizer.optimize(c17_circuit)
        assert result.runtime_seconds > 0.0

    def test_metrics_properties(self, sizer, small_adder):
        result = sizer.optimize(small_adder)
        assert result.initial_cv == pytest.approx(result.initial.sigma / result.initial.mean)
        assert result.final_cv == pytest.approx(result.final.sigma / result.final.mean)
        # Area should not decrease: the algorithm only upsizes to reduce sigma.
        assert result.area_increase_pct >= -1.0


class TestLambdaBehaviour:
    def test_sigma_target_constraint_stops_early(self, delay_model, variation_model, small_adder):
        loose_target = 1e6  # already met before the first pass
        sizer = StatisticalGreedySizer(
            delay_model,
            variation_model,
            SizerConfig(lam=3.0, sigma_target=loose_target),
        )
        result = sizer.optimize(small_adder)
        assert result.converged
        assert result.iterations == []

    def test_lambda_zero_behaves_like_mean_optimizer(self, delay_model, variation_model):
        circuit = ripple_carry_adder(4)
        sizer = StatisticalGreedySizer(delay_model, variation_model, SizerConfig(lam=0.0))
        result = sizer.optimize(circuit)
        assert result.final.mean <= result.initial.mean + 1e-9

    def test_max_iterations_respected(self, delay_model, variation_model, small_adder):
        sizer = StatisticalGreedySizer(
            delay_model, variation_model, SizerConfig(lam=3.0, max_iterations=2)
        )
        result = sizer.optimize(small_adder)
        assert len(result.iterations) <= 2


class TestBestSizeSelection:
    def test_best_sizes_returns_a_valid_size_per_gate(self, sizer, c17_circuit, library):
        reanalysis = IncrementalReanalysis(sizer.fullssta, c17_circuit)
        reanalysis.analyze()
        names = c17_circuit.topological_order()
        best = sizer.evaluator.best_sizes(
            c17_circuit, names + names, sizer.config.subcircuit_depth,
            reanalysis.mean, reanalysis.sigma,
        )
        assert sorted(best) == sorted(names)
        for name, choice in best.items():
            assert 0 <= choice < library.num_sizes(c17_circuit.gate(name).cell_type)
