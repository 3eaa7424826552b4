"""Unit tests for discrete sampled PDFs (the FULLSSTA value type)."""

import math

import numpy as np
import pytest

from repro.core.discrete_pdf import DEFAULT_SAMPLES, DiscretePDF


class TestConstruction:
    def test_normalisation(self):
        pdf = DiscretePDF([1.0, 2.0, 3.0], [2.0, 2.0, 4.0])
        assert pdf.probabilities.sum() == pytest.approx(1.0)
        assert pdf.probabilities[2] == pytest.approx(0.5)

    def test_sorting_and_merging_duplicates(self):
        pdf = DiscretePDF([3.0, 1.0, 3.0], [0.25, 0.5, 0.25])
        assert list(pdf.values) == [1.0, 3.0]
        assert pdf.probabilities[1] == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DiscretePDF([], [])
        with pytest.raises(ValueError):
            DiscretePDF([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            DiscretePDF([1.0, 2.0], [-1.0, 0.5])
        with pytest.raises(ValueError):
            DiscretePDF([1.0, 2.0], [0.0, 0.0])

    def test_point(self):
        pdf = DiscretePDF.point(42.0)
        assert pdf.num_samples == 1
        assert pdf.mean() == 42.0
        assert pdf.std() == 0.0


class TestFromNormal:
    def test_moments_close_to_continuous(self):
        pdf = DiscretePDF.from_normal(100.0, 15.0, num_samples=13)
        assert pdf.num_samples == 13
        assert pdf.mean() == pytest.approx(100.0, abs=0.5)
        assert pdf.std() == pytest.approx(15.0, rel=0.05)

    def test_paper_sampling_range_10_to_15(self):
        for n in (10, 13, 15):
            pdf = DiscretePDF.from_normal(200.0, 30.0, num_samples=n)
            assert pdf.mean() == pytest.approx(200.0, abs=1.5)
            assert pdf.std() == pytest.approx(30.0, rel=0.08)

    def test_zero_sigma_is_point(self):
        pdf = DiscretePDF.from_normal(50.0, 0.0)
        assert pdf.num_samples == 1
        assert pdf.mean() == 50.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DiscretePDF.from_normal(0.0, 1.0, num_samples=0)
        with pytest.raises(ValueError):
            DiscretePDF.from_normal(0.0, -1.0)

    def test_from_samples(self):
        rng = np.random.default_rng(3)
        data = rng.normal(70.0, 9.0, 20_000)
        pdf = DiscretePDF.from_samples(data, num_bins=15)
        assert pdf.mean() == pytest.approx(70.0, abs=0.5)
        assert pdf.std() == pytest.approx(9.0, rel=0.1)

    def test_from_samples_degenerate(self):
        pdf = DiscretePDF.from_samples([5.0, 5.0, 5.0])
        assert pdf.num_samples == 1
        with pytest.raises(ValueError):
            DiscretePDF.from_samples([])


class TestStatistics:
    def test_cdf_and_quantile(self):
        pdf = DiscretePDF([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
        assert pdf.cdf(0.5) == 0.0
        assert pdf.cdf(2.0) == pytest.approx(0.5)
        assert pdf.cdf(10.0) == pytest.approx(1.0)
        assert pdf.quantile(0.5) == 2.0
        assert pdf.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            pdf.quantile(0.0)

    def test_quantile_is_generalized_inverse_cdf(self):
        # quantile(q) is the smallest value whose cdf reaches q — pinned
        # exactly on a pdf whose cumulative hits q between and at samples.
        pdf = DiscretePDF([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert pdf.quantile(0.2) == 1.0   # cdf(1) = 0.2 reaches q exactly
        assert pdf.quantile(0.21) == 2.0  # 1.0 no longer suffices
        assert pdf.quantile(0.5) == 2.0
        assert pdf.quantile(0.51) == 3.0

    def test_quantile_boundaries(self):
        pdf = DiscretePDF([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
        assert pdf.quantile(1.0) == 4.0
        single = DiscretePDF.point(7.5)
        assert single.quantile(1e-9) == 7.5
        assert single.quantile(0.5) == 7.5
        assert single.quantile(1.0) == 7.5

    def test_quantile_with_unnormalized_cumsum(self):
        # Force probabilities whose sum drifts off 1.0 (as after repeated
        # compact/truncation) and check the inverse CDF stays consistent:
        # the old un-normalized searchsorted could return the wrong bin.
        pdf = DiscretePDF.point(0.0)
        pdf.probabilities = np.full(10, 0.1 - 1e-13)
        pdf.values = np.arange(10.0)
        assert pdf.quantile(1.0) == 9.0
        # cdf and quantile normalize consistently: cdf(quantile(q)) >= q
        # (up to summation order).
        for q in (0.1, 0.3, 0.5, 0.9, 0.999, 1.0):
            v = pdf.quantile(q)
            assert pdf.cdf(v) >= q - 1e-12

    def test_quantile_after_compaction_consistent_with_cdf(self):
        rng = np.random.default_rng(5)
        pdf = DiscretePDF(rng.uniform(0, 100, 500), rng.uniform(0.1, 1, 500))
        compacted = pdf.compact(13)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            v = compacted.quantile(q)
            assert compacted.cdf(v) >= q - 1e-12
            # Smallest such value: the previous sample must not reach q.
            below = compacted.values[compacted.values < v]
            if below.size:
                assert compacted.cdf(float(below[-1])) < q

    def test_support(self):
        pdf = DiscretePDF([5.0, 1.0, 3.0], [1, 1, 1])
        assert pdf.support() == (1.0, 5.0)

    def test_as_tuples(self):
        pdf = DiscretePDF([1.0, 2.0], [0.5, 0.5])
        assert pdf.as_tuples() == ((1.0, 0.5), (2.0, 0.5))


class TestOperations:
    def test_add_matches_analytic_normal_sum(self):
        a = DiscretePDF.from_normal(100.0, 10.0, 15)
        b = DiscretePDF.from_normal(50.0, 5.0, 15)
        c = a.add(b)
        assert c.mean() == pytest.approx(150.0, rel=0.01)
        assert c.std() == pytest.approx(math.sqrt(125.0), rel=0.08)
        assert c.num_samples <= DEFAULT_SAMPLES

    def test_add_point_is_shift(self):
        a = DiscretePDF.from_normal(100.0, 10.0)
        shifted = a.add(DiscretePDF.point(25.0))
        assert shifted.mean() == pytest.approx(125.0, rel=0.01)
        assert shifted.std() == pytest.approx(a.std(), rel=0.05)

    def test_shift(self):
        a = DiscretePDF.from_normal(10.0, 2.0)
        assert a.shift(5.0).mean() == pytest.approx(a.mean() + 5.0)

    def test_maximum_against_clark(self):
        from repro.core.clark import clark_max_exact

        a = DiscretePDF.from_normal(100.0, 10.0, 31)
        b = DiscretePDF.from_normal(102.0, 12.0, 31)
        m = a.maximum(b, num_samples=31)
        mean, var = clark_max_exact(100.0, 10.0, 102.0, 12.0)
        assert m.mean() == pytest.approx(mean, rel=0.02)
        assert m.std() == pytest.approx(math.sqrt(var), rel=0.12)

    def test_maximum_dominant_case(self):
        a = DiscretePDF.from_normal(500.0, 5.0)
        b = DiscretePDF.from_normal(100.0, 5.0)
        m = a.maximum(b)
        assert m.mean() == pytest.approx(500.0, rel=0.01)

    def test_maximum_of_list(self):
        pdfs = [DiscretePDF.from_normal(m, 3.0) for m in (10.0, 20.0, 90.0)]
        assert DiscretePDF.maximum_of(pdfs).mean() == pytest.approx(90.0, rel=0.02)
        with pytest.raises(ValueError):
            DiscretePDF.maximum_of([])


class TestCompaction:
    def test_compact_preserves_mass_and_mean(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0, 100.0, 400)
        probs = rng.uniform(0.1, 1.0, 400)
        pdf = DiscretePDF(values, probs)
        compacted = pdf.compact(13)
        assert compacted.num_samples <= 13
        assert compacted.probabilities.sum() == pytest.approx(1.0)
        assert compacted.mean() == pytest.approx(pdf.mean(), rel=1e-9)

    def test_compact_noop_when_small(self):
        pdf = DiscretePDF([1.0, 2.0], [0.5, 0.5])
        assert pdf.compact(13) is pdf

    def test_operations_keep_sample_budget(self):
        a = DiscretePDF.from_normal(10.0, 1.0, 15)
        b = DiscretePDF.from_normal(12.0, 1.5, 15)
        assert a.add(b, num_samples=11).num_samples <= 11
        assert a.maximum(b, num_samples=11).num_samples <= 11


# ----------------------------------------------------------------------
# The scalar arithmetic against its previous form
# ----------------------------------------------------------------------
def reference_canonical(values, probabilities):
    """The constructor's canonical form as ``np.unique`` + ``np.add.at``."""
    vals = np.asarray(list(values), dtype=float)
    probs = np.clip(np.asarray(list(probabilities), dtype=float), 0.0, None)
    probs = probs / probs.sum()
    order = np.argsort(vals)
    vals, probs = vals[order], probs[order]
    unique_vals, inverse = np.unique(vals, return_inverse=True)
    merged = np.zeros_like(unique_vals)
    np.add.at(merged, inverse, probs)
    return unique_vals, merged


def reference_combine(a, b, op, num_samples=DEFAULT_SAMPLES):
    """``a.add(b)`` / ``a.maximum(b)`` as the constructor plus ``compact``
    computed them with ``np.unique`` and ``np.add.at``."""
    pair = np.add.outer if op == "add" else np.maximum.outer
    values, probs = reference_canonical(
        pair(a.values, b.values).ravel(),
        np.multiply.outer(a.probabilities, b.probabilities).ravel(),
    )
    if values.size <= num_samples:
        return values, probs
    lo, hi = float(values[0]), float(values[-1])
    edges = np.linspace(lo, hi, num_samples + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(values, edges) - 1, 0, num_samples - 1)
    masses = np.zeros(num_samples)
    np.add.at(masses, idx, probs)
    sums = np.zeros(num_samples)
    np.add.at(sums, idx, probs * values)
    occupied = masses > 0
    centers[occupied] = sums[occupied] / masses[occupied]
    return reference_canonical(centers[occupied], masses[occupied])


def _random_pdf(rng):
    """Widths 1-13; some point pdfs, some supports with ties."""
    if rng.random() < 0.05:
        return DiscretePDF.point(float(rng.normal(100.0, 20.0)))
    width = int(rng.integers(1, 14))
    values = rng.normal(100.0, 20.0, width)
    if rng.random() < 0.2:
        values = np.round(values / 5.0) * 5.0
    return DiscretePDF(values, rng.random(width) + 1e-3)


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("op", ["add", "max"])
    def test_operations_match_reference_combine(self, op):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            a, b = _random_pdf(rng), _random_pdf(rng)
            got = a.add(b) if op == "add" else a.maximum(b)
            values, probs = reference_combine(a, b, op)
            assert np.array_equal(got.values, values)
            assert np.array_equal(got.probabilities, probs)

    def test_constructor_matches_reference_canonical(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            width = int(rng.integers(1, 40))
            # Unsorted, with duplicates, unnormalized (and a few zeros).
            values = rng.choice(rng.normal(100.0, 20.0, max(1, width // 3)), width)
            probs = rng.random(width) * 7.0
            probs[rng.random(width) < 0.1] = 0.0
            probs[0] += 0.5
            pdf = DiscretePDF(values, probs)
            ref_values, ref_probs = reference_canonical(values, probs)
            assert np.array_equal(pdf.values, ref_values)
            assert np.array_equal(pdf.probabilities, ref_probs)
