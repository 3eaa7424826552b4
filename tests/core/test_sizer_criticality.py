"""Criticality-guided candidate pruning in the StatisticalGreedy sizer.

Pins the exactness contract of ``criticality_threshold``: at the default
threshold of 0 the optimizer's decisions are bit-identical to a run without
the feature, while positive thresholds prune low-criticality WNSS gates
from the inner loop and record how many were skipped.
"""

import pytest

from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.core.sizer import SizerConfig, StatisticalGreedySizer


def _sized(delay_model, variation_model, threshold, name="c432", iterations=4,
           **config_kwargs):
    circuit = build_benchmark(name)
    MeanDelaySizer(delay_model).optimize(circuit)
    config = SizerConfig(
        lam=3.0,
        max_iterations=iterations,
        criticality_threshold=threshold,
        **config_kwargs,
    )
    result = StatisticalGreedySizer(delay_model, variation_model, config).optimize(
        circuit
    )
    return circuit, result


class TestCriticalityThreshold:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SizerConfig(criticality_threshold=-0.1)
        with pytest.raises(ValueError):
            SizerConfig(criticality_threshold=1.0)
        assert SizerConfig(criticality_threshold=0.5).criticality_threshold == 0.5

    def test_zero_threshold_is_bit_identical(self, delay_model, variation_model):
        # Cross-config equivalence, not a self-comparison: the default fast
        # pipeline at threshold 0 must reproduce the from-scratch reference
        # pipeline's decisions exactly.
        fast_circuit, fast = _sized(delay_model, variation_model, 0.0)
        ref_circuit, ref = _sized(
            delay_model,
            variation_model,
            0.0,
            incremental_reanalysis=False,
        )
        assert fast_circuit.sizes() == ref_circuit.sizes()
        assert fast.final.mean == pytest.approx(ref.final.mean, abs=1e-9)
        assert fast.final.sigma == pytest.approx(ref.final.sigma, abs=1e-9)
        assert [it.resized_gates for it in fast.iterations] == [
            it.resized_gates for it in ref.iterations
        ]
        # Pruning diagnostics only exist when the feature is active.
        assert "criticality_pruned_gates" not in fast.diagnostics

    def test_positive_threshold_prunes_and_reports(
        self, delay_model, variation_model
    ):
        circuit, result = _sized(delay_model, variation_model, 0.05)
        assert "criticality_pruned_gates" in result.diagnostics
        assert result.diagnostics["criticality_pruned_gates"] >= 0
        # The optimization still improves the objective from the baseline.
        assert result.final.mean + 3 * result.final.sigma <= (
            result.initial.mean + 3 * result.initial.sigma
        )

    def test_high_threshold_restricts_resizes_to_critical_gates(
        self, delay_model, variation_model
    ):
        from repro.core.fullssta import FULLSSTA
        from repro.criticality.analysis import CriticalityAnalyzer

        threshold = 0.2
        circuit = build_benchmark("c17")
        MeanDelaySizer(delay_model).optimize(circuit)
        # Criticality of the starting point: resizes of the very first pass
        # must all come from gates at/above the threshold.
        full = FULLSSTA(delay_model, variation_model).analyze(circuit)
        crit = CriticalityAnalyzer(circuit).analyze(full.arrival_moments)
        allowed = set(crit.gates_above(threshold))

        config = SizerConfig(
            lam=3.0, max_iterations=1, criticality_threshold=threshold
        )
        result = StatisticalGreedySizer(
            delay_model, variation_model, config
        ).optimize(circuit)
        if result.iterations:
            first_pass = set(result.iterations[0].resized_gates)
            assert first_pass <= allowed
