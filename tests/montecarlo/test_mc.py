"""Unit tests for the Monte-Carlo golden model."""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.timing_yield import period_for_yield, timing_yield
from repro.montecarlo.mc import BLOCK_COLUMNS, MonteCarloTimer
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA
from repro.variation.model import VariationModel


@pytest.fixture
def timer(delay_model, variation_model):
    return MonteCarloTimer(delay_model, variation_model)


def _gate_distributions(variation_model, circuit, delay_model):
    """Per-gate scalar delay distributions, keyed by gate name.

    The references below build on the scalar query, so they also
    cross-check the packed delay stage the timers read.
    """
    return {
        gate.name: variation_model.gate_distribution(circuit, gate, delay_model)
        for gate in circuit.gates.values()
    }


class TestBasicProperties:
    def test_reproducible_with_seed(self, timer, c17_circuit):
        r1 = timer.run(c17_circuit, num_samples=500, seed=11)
        r2 = timer.run(c17_circuit, num_samples=500, seed=11)
        assert np.array_equal(r1.samples, r2.samples)

    def test_different_seeds_differ(self, timer, c17_circuit):
        r1 = timer.run(c17_circuit, num_samples=500, seed=1)
        r2 = timer.run(c17_circuit, num_samples=500, seed=2)
        assert not np.array_equal(r1.samples, r2.samples)

    def test_sample_count_and_outputs(self, timer, c17_circuit):
        result = timer.run(c17_circuit, num_samples=256, seed=0)
        assert result.num_samples == 256
        assert set(result.per_output_mean) == set(c17_circuit.primary_outputs)
        assert all(s > 0 for s in result.per_output_sigma.values())

    def test_mean_close_to_deterministic(self, timer, delay_model, c17_circuit):
        nominal = DeterministicSTA(delay_model).max_delay(c17_circuit)
        result = timer.run(c17_circuit, num_samples=3000, seed=0)
        # The statistical mean of the max exceeds the nominal max but not wildly.
        assert result.mean >= nominal * 0.95
        assert result.mean <= nominal * 1.5

    def test_quantiles_and_cv(self, timer, c17_circuit):
        result = timer.run(c17_circuit, num_samples=2000, seed=0)
        assert result.quantile(0.99) > result.quantile(0.5) > result.quantile(0.01)
        assert result.cv == pytest.approx(result.sigma / result.mean)
        with pytest.raises(ValueError):
            result.quantile(1.5)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.9973, 0.99865])
    def test_quantile_meets_its_yield(self, timer, c17_circuit, q):
        result = timer.run(c17_circuit, num_samples=2000, seed=0)
        assert result.quantile(q) == period_for_yield(result.samples, q)
        assert timing_yield(result.samples, result.quantile(q)) >= q

    def test_too_few_samples_rejected(self, timer, c17_circuit):
        with pytest.raises(ValueError):
            timer.run(c17_circuit, num_samples=1)

    def test_no_outputs_rejected(self, timer):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("none", primary_inputs=["a"])
        circuit.add("g", "INV", ["a"], "y")
        with pytest.raises(ValueError):
            timer.run(circuit, num_samples=10)


class TestAgainstAnalyticalChain:
    def test_chain_moments_match_theory(self, delay_model, variation_model, chain_circuit):
        # On a pure chain the circuit delay is the sum of independent normals,
        # so MC must match the analytic sum of moments.
        timer = MonteCarloTimer(delay_model, variation_model)
        result = timer.run(chain_circuit, num_samples=20_000, seed=3)
        dists = _gate_distributions(variation_model, chain_circuit, delay_model)
        # out1 path: i1 -> i2 -> i3 ; out2 path: i1 -> i2 -> i4 (same moments)
        mean = dists["i1"].mean + dists["i2"].mean + dists["i3"].mean
        assert result.per_output_mean["out1"] == pytest.approx(mean, rel=0.02)
        var = dists["i1"].variance + dists["i2"].variance + dists["i3"].variance
        assert result.per_output_sigma["out1"] ** 2 == pytest.approx(var, rel=0.08)

    def test_zero_variation_gives_zero_sigma(self, delay_model, chain_circuit):
        timer = MonteCarloTimer(
            delay_model, VariationModel(proportional_alpha=0.0, random_sigma=0.0)
        )
        result = timer.run(chain_circuit, num_samples=100, seed=0)
        assert result.sigma == pytest.approx(0.0, abs=1e-9)


class TestUpsizingEffect:
    def test_upsizing_reduces_mc_sigma(self, timer, small_adder):
        before = timer.run(small_adder, num_samples=2000, seed=5)
        for name in small_adder.gates:
            small_adder.set_size(name, 5)
        after = timer.run(small_adder, num_samples=2000, seed=5)
        assert after.sigma < before.sigma


class TestUnknownNets:
    def test_undriven_primary_output_raises(self, timer):
        circuit = Circuit("ghost", primary_inputs=["a"],
                          primary_outputs=["y", "ghost"])
        circuit.add("g", "INV", ["a"], "y")
        with pytest.raises(KeyError, match="ghost"):
            timer.run(circuit, num_samples=10)

    def test_floating_non_pi_input_times_as_zero_like_engines(
        self, timer, delay_model, variation_model
    ):
        # Floating (undriven non-PI) gate inputs follow the IR boundary
        # mask: zero arrival, exactly like FASSTA/FULLSSTA.  Historically MC
        # raised here while the engines timed the net as zero — the models
        # disagreed on the same netlist.
        circuit = Circuit("dangle", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g", "NAND2", ["a", "phantom"], "y")
        result = timer.run(circuit, num_samples=500, seed=3)
        from repro.core.fassta import FASSTA

        engine_mean = FASSTA(delay_model, variation_model).analyze(circuit).mean
        # Both models now see the same single-gate circuit: the MC mean must
        # land near the engine mean instead of raising.
        assert result.mean == pytest.approx(engine_mean, rel=0.1)

    def test_true_primary_inputs_keep_zero_arrival(self, timer, chain_circuit):
        # The documented boundary condition survives: PIs start at t = 0, so
        # the first gate's arrival is exactly its own delay samples.
        result = timer.run(chain_circuit, num_samples=50, seed=0)
        assert result.num_samples == 50


def _reference_independent_samples(timer, circuit, num_samples, seed):
    """The historical per-gate dict-propagation independent path."""
    rng = np.random.default_rng(seed)
    order = circuit.topological_order()
    distributions = _gate_distributions(timer.variation_model, circuit, timer.delay_model)
    gate_samples = {}
    for name in order:
        dist = distributions[name]
        gate_samples[name] = rng.normal(dist.mean, dist.sigma, num_samples)
    arrivals = {net: np.zeros(num_samples) for net in circuit.primary_inputs}
    for name in order:
        gate = circuit.gate(name)
        worst = None
        for net in gate.inputs:
            arr = arrivals.setdefault(net, np.zeros(num_samples))
            worst = arr if worst is None else np.maximum(worst, arr)
        arrivals[gate.output] = worst + gate_samples[name]
    circuit_delay = None
    for net in circuit.primary_outputs:
        arr = arrivals[net]
        circuit_delay = (
            arr if circuit_delay is None else np.maximum(circuit_delay, arr)
        )
    return circuit_delay


class TestLevelizedVectorization:
    """The levelized IR propagation against the historical per-gate loop.

    The generator stream is shared (draws stay in topological order) and
    ``np.maximum``/float addition are exact, so the circuit-delay samples
    must be bit-for-bit identical — no tolerance.
    """

    @pytest.mark.parametrize("name", ["c17", "c432", "c880"])
    def test_bit_identical_to_per_gate_reference(self, timer, name):
        from repro.circuits.registry import build_benchmark, c17

        circuit = c17() if name == "c17" else build_benchmark(name)
        reference = _reference_independent_samples(
            timer, circuit, num_samples=300, seed=7
        )
        result = timer.run(circuit, num_samples=300, seed=7)
        assert np.array_equal(result.samples, reference)

    def test_bit_identical_across_column_blocks(self, timer):
        """More samples than one propagation block, the last block ragged."""
        from repro.circuits.registry import build_benchmark

        circuit = build_benchmark("c432")
        samples = 2 * BLOCK_COLUMNS + 37
        reference = _reference_independent_samples(timer, circuit, samples, seed=5)
        assert np.array_equal(timer.run(circuit, num_samples=samples, seed=5).samples, reference)

    def test_bit_identical_on_fixtures(self, timer, small_adder, small_alu):
        for circuit in (small_adder, small_alu):
            reference = _reference_independent_samples(
                timer, circuit, num_samples=200, seed=1
            )
            result = timer.run(circuit, num_samples=200, seed=1)
            assert np.array_equal(result.samples, reference)


class TestPeakMemory:
    def test_sample_keeps_no_gate_delay_matrix(self, timer):
        """Each gate's draws go straight into its arrival row.

        A separate ``(num_gates, num_samples)`` delay matrix would add about
        0.9x the arrival matrix on this circuit (a 2.2x peak in all).
        """
        from repro.circuits.registry import build_benchmark

        circuit = build_benchmark("gen:depth=10,width=50,seed=17")
        tracemalloc.start()
        try:
            _, arr = timer.sample(circuit, 4000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * arr.nbytes

    def test_propagation_scratch_does_not_grow_with_samples(self, timer):
        """Propagation runs ``BLOCK_COLUMNS`` sample columns at a time, so the
        peak above the arrival matrix stays flat as the sample count grows
        (a whole-matrix fold's scratch grows with it, 4x here)."""
        from repro.circuits.registry import build_benchmark

        circuit = build_benchmark("gen:depth=10,width=50,seed=17")
        extra = []
        for samples in (2 * BLOCK_COLUMNS, 8 * BLOCK_COLUMNS):
            tracemalloc.start()
            try:
                _, arr = timer.sample(circuit, samples, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - arr.nbytes)
        assert extra[1] <= 1.25 * extra[0]
