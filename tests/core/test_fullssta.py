"""Unit tests for the FULLSSTA discrete-PDF engine."""


import pytest

from repro.core.fullssta import FULLSSTA
from repro.core.fassta import FASSTA
from repro.montecarlo.mc import MonteCarloTimer
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA
from repro.variation.correlation import SpatialCorrelationModel


@pytest.fixture
def fullssta(delay_model, variation_model):
    return FULLSSTA(delay_model, variation_model)


class TestConstruction:
    def test_sample_budget_validation(self, delay_model, variation_model):
        with pytest.raises(ValueError):
            FULLSSTA(delay_model, variation_model, num_samples=2)

    def test_gate_delay_pdf_moments(self, fullssta, chain_circuit, delay_model, variation_model):
        # n1 is driven by i1 alone from a primary input, so its arrival pdf
        # is i1's discretized delay pdf.
        pdf = fullssta.analyze(chain_circuit).arrival_pdf("n1")
        dist = variation_model.gate_distribution(
            chain_circuit, chain_circuit.gate("i1"), delay_model
        )
        assert pdf.mean() == pytest.approx(dist.mean, rel=0.01)
        assert pdf.std() == pytest.approx(dist.sigma, rel=0.08)


class TestPropagation:
    def test_chain_moments(self, fullssta, fassta_pair, chain_circuit):
        fassta = fassta_pair
        full_result = fullssta.analyze(chain_circuit)
        fast_result = fassta.analyze(chain_circuit)
        # On a pure chain both engines are exact, so they must agree closely.
        assert full_result.arrival("out1").mean == pytest.approx(
            fast_result.arrival("out1").mean, rel=0.01
        )
        assert full_result.arrival("out1").sigma == pytest.approx(
            fast_result.arrival("out1").sigma, rel=0.08
        )

    def test_mean_at_least_deterministic(self, fullssta, delay_model, c17_circuit):
        nominal = DeterministicSTA(delay_model).max_delay(c17_circuit)
        assert fullssta.analyze(c17_circuit).output_rv.mean >= nominal - 1e-6

    def test_per_node_moments_recorded(self, fullssta, c17_circuit):
        result = fullssta.analyze(c17_circuit)
        for net in ("N10", "N16", "N22"):
            assert result.arrival(net).mean > 0
            assert result.arrival_pdf(net) is not None
        assert set(result.gate_delay_moments) == set(c17_circuit.gates)

    def test_against_monte_carlo_on_small_circuit(
        self, fullssta, delay_model, variation_model, c17_circuit
    ):
        mc = MonteCarloTimer(delay_model, variation_model).run(
            c17_circuit, num_samples=4000, seed=7
        )
        result = fullssta.analyze(c17_circuit)
        # Independence assumptions at reconvergent fanout bias both moments
        # (the paper defers correlation handling to the outer loop's PCA
        # hook); require agreement to ~10 % on the mean and the right order
        # of magnitude on sigma.
        assert result.output_rv.mean == pytest.approx(mc.mean, rel=0.10)
        assert result.output_rv.sigma == pytest.approx(mc.sigma, rel=0.40)

    def test_no_outputs_raises(self, fullssta):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("no_outs", primary_inputs=["a"])
        circuit.add("g", "INV", ["a"], "y")
        with pytest.raises(ValueError):
            fullssta.analyze(circuit)


class TestSamplingRates:
    def test_more_samples_improve_sigma_stability(self, delay_model, variation_model, c17_circuit):
        coarse = FULLSSTA(delay_model, variation_model, num_samples=5)
        fine = FULLSSTA(delay_model, variation_model, num_samples=31)
        sigma_coarse = coarse.analyze(c17_circuit).output_rv.sigma
        sigma_fine = fine.analyze(c17_circuit).output_rv.sigma
        # Both should be in the same ballpark; the fine one is the reference.
        assert sigma_coarse == pytest.approx(sigma_fine, rel=0.3)


class TestCorrelationOverlay:
    def test_correlation_increases_output_sigma(self, delay_model, variation_model, c17_circuit):
        independent = FULLSSTA(delay_model, variation_model)
        correlated = FULLSSTA(
            delay_model,
            variation_model,
            correlation_model=SpatialCorrelationModel(correlated_fraction=0.8),
        )
        assert (
            correlated.analyze(c17_circuit).output_rv.sigma
            > independent.analyze(c17_circuit).output_rv.sigma
        )


@pytest.fixture
def fassta_pair(delay_model, variation_model):
    return FASSTA(delay_model, variation_model)


class TestOutputValidationAndRanking:
    def test_unknown_output_net_raises_key_error(self, delay_model, variation_model):
        # Regression: an output no gate drives used to time silently as a
        # zero pdf; it is not a timeable net, so the engine names it, like MC.
        circuit = Circuit("typo", primary_inputs=["a"], primary_outputs=["y", "typo"])
        circuit.add("g", "INV", ["a"], "y")
        engine = FULLSSTA(delay_model, variation_model)
        with pytest.raises(KeyError, match="typo"):
            engine.analyze(circuit)

    def test_worst_key_threads_cost_criterion(self, delay_model, variation_model, c17_circuit):
        from repro.core.cost import WeightedCost

        cost = WeightedCost(50.0)
        engine = FULLSSTA(delay_model, variation_model, worst_key=cost.of)
        result = engine.analyze(c17_circuit)
        costs = {
            net: cost.of(result.arrival(net)) for net in c17_circuit.primary_outputs
        }
        assert result.worst_output == max(costs, key=costs.get)

    def test_worst_output_matches_sizer_objective(self, delay_model, variation_model, c17_circuit):
        # The sizer constructs its engines with its weighted cost, so the
        # reported worst output agrees with the mu + lambda*sigma objective.
        from repro.core.sizer import SizerConfig, StatisticalGreedySizer

        sizer = StatisticalGreedySizer(delay_model, variation_model, SizerConfig(lam=9.0))
        result = sizer.fullssta.analyze(c17_circuit)
        costs = {
            net: sizer.cost.of(result.arrival(net))
            for net in c17_circuit.primary_outputs
        }
        assert result.worst_output == max(costs, key=costs.get)
