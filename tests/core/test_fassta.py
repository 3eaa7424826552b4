"""Unit tests for the FASSTA fast moment-propagation engine."""


import pytest

from repro.core.cost import CostEvaluator, WeightedCost
from repro.core.fassta import FASSTA
from repro.core.rv import NormalDelay
from repro.core.subcircuit import extract_subcircuit
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA
from repro.variation.model import VariationModel


@pytest.fixture
def fassta(delay_model, variation_model):
    return FASSTA(delay_model, variation_model)


class TestGateDelayRV:
    def test_moments_match_variation_model(self, fassta, chain_circuit, delay_model, variation_model):
        rv = fassta.gate_delay_rv(chain_circuit, "i1")
        dist = variation_model.gate_distribution(
            chain_circuit, chain_circuit.gate("i1"), delay_model
        )
        assert rv.mean == pytest.approx(dist.mean)
        assert rv.sigma == pytest.approx(dist.sigma)

    def test_hypothetical_size(self, fassta, chain_circuit):
        small = fassta.gate_delay_rv(chain_circuit, "i2", size_index=0)
        large = fassta.gate_delay_rv(chain_circuit, "i2", size_index=6)
        assert large.mean < small.mean
        assert large.sigma < small.sigma


class TestChainPropagation:
    def test_chain_mean_is_sum_of_means(self, fassta, chain_circuit):
        result = fassta.analyze(chain_circuit)
        expected_mean = sum(
            fassta.gate_delay_rv(chain_circuit, g).mean for g in ("i1", "i2", "i3")
        )
        assert result.arrival("out1").mean == pytest.approx(expected_mean)

    def test_chain_variance_adds(self, fassta, chain_circuit):
        result = fassta.analyze(chain_circuit)
        expected_var = sum(
            fassta.gate_delay_rv(chain_circuit, g).variance for g in ("i1", "i2", "i3")
        )
        assert result.arrival("out1").variance == pytest.approx(expected_var)

    def test_single_input_gates_do_no_max(self, fassta, chain_circuit):
        # With one input there is no max operation, so arrival = input + delay.
        result = fassta.analyze(chain_circuit)
        i1 = fassta.gate_delay_rv(chain_circuit, "i1")
        assert result.arrival("n1").mean == pytest.approx(i1.mean)
        assert result.arrival("n1").sigma == pytest.approx(i1.sigma)


class TestCircuitLevel:
    def test_mean_at_least_deterministic_delay(self, fassta, delay_model, c17_circuit):
        nominal = DeterministicSTA(delay_model).max_delay(c17_circuit)
        result = fassta.analyze(c17_circuit)
        assert result.output_rv.mean >= nominal - 1e-6

    def test_worst_output_is_max_mean_output(self, fassta, c17_circuit):
        result = fassta.analyze(c17_circuit)
        means = {net: result.arrival(net).mean for net in c17_circuit.primary_outputs}
        assert result.worst_output == max(means, key=means.get)

    def test_no_outputs_raises(self, fassta):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("no_outs", primary_inputs=["a"])
        circuit.add("g", "INV", ["a"], "y")
        with pytest.raises(ValueError):
            fassta.analyze(circuit)

    def test_zero_variation_reduces_to_deterministic(self, delay_model, c17_circuit):
        zero = VariationModel(proportional_alpha=0.0, random_sigma=0.0)
        engine = FASSTA(delay_model, zero)
        result = engine.analyze(c17_circuit)
        nominal = DeterministicSTA(delay_model).max_delay(c17_circuit)
        assert result.output_rv.mean == pytest.approx(nominal)
        assert result.output_rv.sigma == pytest.approx(0.0, abs=1e-9)


class TestBoundaryArrivals:
    def test_boundary_arrivals_shift_outputs(self, fassta, chain_circuit):
        # Boundary arrivals enter through the subcircuit path: on a chain of
        # single-input gates a boundary moment shifts every downstream
        # arrival by exactly its mean and variance.
        base = fassta.analyze(chain_circuit)
        evaluator = CostEvaluator(fassta, WeightedCost(3.0))
        sub = extract_subcircuit(chain_circuit, "i2", depth=2)
        assert sub.input_nets == ["in"]
        shifted = evaluator.subcircuit_arrivals(sub, {"in": NormalDelay(100.0, 8.0)})
        assert shifted["out1"].mean == pytest.approx(base.arrival("out1").mean + 100.0)
        assert shifted["out1"].variance == pytest.approx(
            base.arrival("out1").variance + 64.0
        )

    def test_upsizing_reduces_output_sigma(self, fassta, chain_circuit):
        before = fassta.analyze(chain_circuit).output_rv
        for name in chain_circuit.gates:
            chain_circuit.set_size(name, 6)
        after = fassta.analyze(chain_circuit).output_rv
        assert after.sigma < before.sigma


class TestOutputValidation:
    def test_unknown_output_net_raises_key_error(self, fassta):
        # Regression: an output no gate drives used to time silently as
        # ZERO_DELAY; it is not a timeable net, so the engine names it.
        circuit = Circuit("typo", primary_inputs=["a"], primary_outputs=["y", "typo"])
        circuit.add("g", "INV", ["a"], "y")
        with pytest.raises(KeyError, match="typo"):
            fassta.analyze(circuit)

    def test_known_outputs_still_work(self, fassta, c17_circuit):
        result = fassta.analyze(c17_circuit)
        assert c17_circuit.primary_outputs == ["N22", "N23"]
        assert all(result.arrival(net).mean > 0 for net in ("N22", "N23"))
        assert result.output_rv.mean > 0


class TestWorstOutputRanking:
    def test_default_ranks_by_mean(self, fassta, c17_circuit):
        result = fassta.analyze(c17_circuit)
        means = {net: result.arrival(net).mean for net in c17_circuit.primary_outputs}
        assert result.worst_output == max(means, key=means.get)

    def test_worst_key_threads_cost_criterion(self, delay_model, c17_circuit):
        # A sigma-heavy criterion must be able to flip the reported worst
        # output relative to pure-mean ranking when means are close.
        from repro.core.cost import WeightedCost

        variation = VariationModel()
        lam = 50.0
        cost = WeightedCost(lam)
        engine = FASSTA(delay_model, variation, worst_key=cost.of)
        result = engine.analyze(c17_circuit)
        costs = {
            net: cost.of(result.arrival(net)) for net in c17_circuit.primary_outputs
        }
        assert result.worst_output == max(costs, key=costs.get)
