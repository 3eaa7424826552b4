"""Unit tests for the gate-delay variation model."""

import pytest

from repro.variation.model import GateDelayDistribution, VariationModel


class TestGateDelayDistribution:
    def test_variance_and_cv(self):
        dist = GateDelayDistribution(mean=50.0, sigma=10.0)
        assert dist.variance == pytest.approx(100.0)
        assert dist.cv == pytest.approx(0.2)

    def test_zero_mean_cv(self):
        # repro-lint: allow=RL004 -- cv is defined as exactly 0 at mean 0
        assert GateDelayDistribution(mean=0.0, sigma=1.0).cv == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            GateDelayDistribution(mean=-1.0, sigma=0.0)
        with pytest.raises(ValueError):
            GateDelayDistribution(mean=1.0, sigma=-0.1)


class TestSigmaFor:
    def test_two_component_structure(self):
        model = VariationModel(proportional_alpha=0.2, random_sigma=3.0, size_exponent=0.5)
        assert model.sigma_for(100.0, 1.0) == pytest.approx(0.2 * 100.0 + 3.0)
        assert model.sigma_for(100.0, 4.0) == pytest.approx(0.2 * 100.0 / 2.0 + 3.0)

    def test_sigma_decreases_with_drive(self, variation_model):
        sigmas = [variation_model.sigma_for(80.0, d) for d in (1.0, 2.0, 4.0, 8.0)]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_random_floor_never_removed(self, variation_model):
        assert variation_model.sigma_for(80.0, 1e9) >= variation_model.random_sigma

    def test_zero_delay_gives_floor_only(self, variation_model):
        assert variation_model.sigma_for(0.0, 1.0) == pytest.approx(
            variation_model.random_sigma
        )

    def test_invalid_arguments(self, variation_model):
        with pytest.raises(ValueError):
            variation_model.sigma_for(-1.0, 1.0)
        with pytest.raises(ValueError):
            variation_model.sigma_for(1.0, 0.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            VariationModel(proportional_alpha=-0.1)
        with pytest.raises(ValueError):
            VariationModel(random_sigma=-1.0)
        with pytest.raises(ValueError):
            VariationModel(size_exponent=-1.0)


class TestCoupling:
    def test_default_coupling_equals_alpha(self):
        model = VariationModel(proportional_alpha=0.27)
        assert model.mean_sigma_coupling == pytest.approx(0.27)

    def test_explicit_coupling(self):
        model = VariationModel(proportional_alpha=0.3, mean_sigma_coupling=0.1)
        assert model.mean_sigma_coupling == pytest.approx(0.1)


class TestGateDistributions:
    def test_gate_distribution_uses_current_size(
        self, variation_model, delay_model, chain_circuit
    ):
        gate = chain_circuit.gate("i2")
        small = variation_model.gate_distribution(chain_circuit, gate, delay_model)
        big = variation_model.gate_distribution(chain_circuit, gate, delay_model, size_index=6)
        assert big.sigma < small.sigma
        assert big.mean < small.mean

    def test_upsizing_reduces_cv(self, variation_model, delay_model, chain_circuit):
        gate = chain_circuit.gate("i2")
        cv_small = variation_model.gate_distribution(chain_circuit, gate, delay_model, 0).cv
        cv_big = variation_model.gate_distribution(chain_circuit, gate, delay_model, 6).cv
        assert cv_big < cv_small
