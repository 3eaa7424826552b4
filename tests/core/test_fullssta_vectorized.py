"""Exactness pinning for the levelized FULLSSTA propagation.

The batched discrete-pdf propagation replays the scalar ``DiscretePDF``
canonicalize/compact arithmetic over padded arrays, so its per-net moments
must agree with a gate-by-gate pdf fold (the ``reference_fold`` fixture) to
~1e-9 on every registry circuit — the same contract the
incremental-reanalysis cache carries.
"""

import numpy as np
import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build_benchmark
from repro.core.discrete_pdf import (
    DiscretePDF,
    batched_combine,
    batched_from_normal,
)
from repro.core.fullssta import FULLSSTA
from repro.core.rv import NormalDelay

TOL = 1e-9


def fullssta_reference(fold, engine, circuit):
    """A FULLSSTA result from the gate-by-gate reference pdf fold."""
    n = engine.num_samples

    def delay_moments(gate):
        dist = engine.variation_model.gate_distribution(circuit, gate, engine.delay_model)
        return NormalDelay(dist.mean, dist.sigma)

    arrivals, _ = fold(
        circuit,
        delay_moments,
        DiscretePDF.point(0.0),
        lambda pdfs: DiscretePDF.maximum_of(pdfs, n),
        lambda worst, d: worst.add(DiscretePDF.from_normal(d.mean, d.sigma, n), n),
    )
    moments = {net: NormalDelay(pdf.mean(), pdf.std()) for net, pdf in arrivals.items()}
    return engine._build_result(circuit, arrivals, moments)


def assert_fullssta_results_close(reference, candidate, tol=TOL):
    assert set(candidate.arrival_pdfs) == set(reference.arrival_pdfs)
    for net, ref_pdf in reference.arrival_pdfs.items():
        cand_pdf = candidate.arrival_pdfs[net]
        assert cand_pdf.mean() == pytest.approx(ref_pdf.mean(), abs=tol), net
        assert cand_pdf.std() == pytest.approx(ref_pdf.std(), abs=tol), net
    assert candidate.output_rv.mean == pytest.approx(reference.output_rv.mean, abs=tol)
    assert candidate.output_rv.sigma == pytest.approx(reference.output_rv.sigma, abs=tol)


class TestBatchedPrimitives:
    """The padded-array primitives against their scalar counterparts."""

    def _random_pdfs(self, rng, count, num_samples=13):
        pdfs = []
        for _ in range(count):
            mean = rng.uniform(20.0, 400.0)
            sigma = rng.uniform(0.0, 25.0)
            pdfs.append(DiscretePDF.from_normal(mean, sigma, num_samples))
        pdfs.append(DiscretePDF.point(0.0))
        pdfs.append(DiscretePDF.point(rng.uniform(1.0, 50.0)))
        return pdfs

    @staticmethod
    def _to_batch(pdfs, width):
        values = np.zeros((len(pdfs), width))
        probs = np.zeros((len(pdfs), width))
        counts = np.zeros(len(pdfs), dtype=np.intp)
        for row, pdf in enumerate(pdfs):
            n = pdf.num_samples
            values[row, :n] = pdf.values
            values[row, n:] = pdf.values[-1]
            probs[row, :n] = pdf.probabilities
            counts[row] = n
        return values, probs, counts

    def test_batched_from_normal_matches_scalar(self):
        rng = np.random.default_rng(7)
        means = rng.uniform(10.0, 500.0, 50)
        sigmas = rng.uniform(0.0, 40.0, 50)
        sigmas[::7] = 0.0
        values, probs, counts = batched_from_normal(means, sigmas, 13)
        for row, (mean, sigma) in enumerate(zip(means, sigmas, strict=True)):
            ref = DiscretePDF.from_normal(mean, sigma, 13)
            n = counts[row]
            assert n == ref.num_samples
            np.testing.assert_allclose(values[row, :n], ref.values, atol=1e-12)
            np.testing.assert_allclose(probs[row, :n], ref.probabilities, atol=1e-12)
            assert np.all(probs[row, n:] == 0.0)

    @pytest.mark.parametrize("op,scalar_op", [
        ("add", DiscretePDF.add),
        ("max", DiscretePDF.maximum),
    ])
    def test_batched_combine_matches_scalar(self, op, scalar_op):
        rng = np.random.default_rng(11)
        pdfs_a = self._random_pdfs(rng, 30)
        pdfs_b = list(reversed(self._random_pdfs(rng, 30)))
        a = self._to_batch(pdfs_a, 13)
        b = self._to_batch(pdfs_b, 13)
        values, probs, counts = batched_combine(a[0], a[1], b[0], b[1], op, 13)
        assert values.shape == (len(pdfs_a), 13)
        for row, (pa, pb) in enumerate(zip(pdfs_a, pdfs_b, strict=True)):
            ref = scalar_op(pa, pb, 13)
            n = counts[row]
            assert n == ref.num_samples
            np.testing.assert_allclose(values[row, :n], ref.values, atol=1e-12)
            np.testing.assert_allclose(probs[row, :n], ref.probabilities, atol=1e-12)
            # Padding: zero mass, repeated last value (rows stay sorted).
            assert np.all(probs[row, n:] == 0.0)
            assert np.all(values[row, n:] == values[row, n - 1])

    def test_batched_combine_rejects_unknown_op(self):
        values = np.zeros((1, 2))
        probs = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            batched_combine(values, probs, values, probs, "sub", 13)


class TestVectorizedEngine:
    @pytest.mark.parametrize("name", [*BENCHMARK_NAMES, "c17"])
    def test_matches_scalar_on_registry_circuit(
        self, name, delay_model, variation_model, reference_fold
    ):
        circuit = build_benchmark(name)
        engine = FULLSSTA(delay_model, variation_model)
        assert_fullssta_results_close(
            fullssta_reference(reference_fold, engine, circuit), engine.analyze(circuit)
        )

    def test_matches_scalar_after_resizes(self, delay_model, variation_model, reference_fold):
        circuit = build_benchmark("alu1")
        engine = FULLSSTA(delay_model, variation_model)
        rng = np.random.default_rng(3)
        names = list(circuit.gates)
        for _ in range(3):
            for gate in rng.choice(names, size=5, replace=False):
                circuit.set_size(str(gate), int(rng.integers(0, 7)))
            assert_fullssta_results_close(
                fullssta_reference(reference_fold, engine, circuit), engine.analyze(circuit)
            )

    def test_plan_reuse_and_invalidation(self, delay_model, variation_model, c17_circuit):
        engine = FULLSSTA(delay_model, variation_model)
        engine.analyze(c17_circuit)
        plan = c17_circuit.compiled()
        engine.analyze(c17_circuit)
        assert c17_circuit.compiled() is plan  # same structure: IR reused
        c17_circuit.add("g_extra", "INV", ["N22"], "N90")
        c17_circuit.add_primary_output("N90")
        engine.analyze(c17_circuit)
        assert c17_circuit.compiled() is not plan  # structural edit: relowered
