"""Property-based tests for discrete PDFs (hypothesis)."""

import importlib.util
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discrete_pdf import DiscretePDF

# The scalar oracle lives with the unit tests of the pdf kernels.
ORACLES = Path(__file__).resolve().parents[1] / "core" / "test_discrete_pdf.py"
spec = importlib.util.spec_from_file_location("discrete_pdf_oracles", ORACLES)
oracles = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracles)

means = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
sigmas = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
sample_counts = st.integers(min_value=5, max_value=21)


@st.composite
def discrete_pdfs(draw):
    """Arbitrary small discrete pdfs with positive probabilities."""
    n = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        st.lists(
            st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    return DiscretePDF(values, probs)


class TestInvariants:
    @given(discrete_pdfs())
    @settings(max_examples=150)
    def test_probabilities_normalised_and_sorted(self, pdf):
        assert pdf.probabilities.sum() == np.float64(1.0) or abs(pdf.probabilities.sum() - 1.0) < 1e-9
        assert np.all(np.diff(pdf.values) > 0)

    @given(discrete_pdfs())
    @settings(max_examples=150)
    def test_mean_within_support(self, pdf):
        lo, hi = pdf.support()
        assert lo - 1e-9 <= pdf.mean() <= hi + 1e-9

    @given(discrete_pdfs())
    @settings(max_examples=100)
    def test_variance_non_negative(self, pdf):
        assert pdf.variance() >= -1e-12

    @given(discrete_pdfs(), st.integers(min_value=3, max_value=15))
    @settings(max_examples=100)
    def test_compaction_preserves_mass_and_mean(self, pdf, budget):
        compacted = pdf.compact(budget)
        assert compacted.num_samples <= max(budget, pdf.num_samples if pdf.num_samples <= budget else budget)
        assert abs(compacted.probabilities.sum() - 1.0) < 1e-9
        assert compacted.mean() == np.float64(pdf.mean()) or abs(compacted.mean() - pdf.mean()) < 1e-6 * max(abs(pdf.mean()), 1.0)

    @given(discrete_pdfs())
    @settings(max_examples=100)
    def test_cdf_monotone(self, pdf):
        lo, hi = pdf.support()
        points = np.linspace(lo - 1.0, hi + 1.0, 7)
        cdf_values = [pdf.cdf(float(x)) for x in points]
        assert all(b >= a - 1e-12 for a, b in zip(cdf_values, cdf_values[1:], strict=False))
        assert cdf_values[-1] == 1.0 or abs(cdf_values[-1] - 1.0) < 1e-9


class TestAgainstAnalyticNormals:
    @given(means, sigmas, sample_counts)
    @settings(max_examples=100)
    def test_from_normal_moments(self, mu, sigma, n):
        pdf = DiscretePDF.from_normal(mu, sigma, num_samples=n)
        assert abs(pdf.mean() - mu) <= 0.05 * sigma + 1e-6
        assert abs(pdf.std() - sigma) <= 0.15 * sigma

    @given(means, sigmas, means, sigmas)
    @settings(max_examples=75)
    def test_sum_matches_normal_sum(self, mu_a, s_a, mu_b, s_b):
        a = DiscretePDF.from_normal(mu_a, s_a, 15)
        b = DiscretePDF.from_normal(mu_b, s_b, 15)
        c = a.add(b, num_samples=15)
        assert abs(c.mean() - (mu_a + mu_b)) <= 0.05 * (s_a + s_b) + 1e-6
        expected_sigma = math.sqrt(s_a ** 2 + s_b ** 2)
        assert abs(c.std() - expected_sigma) <= 0.2 * expected_sigma

    @given(means, sigmas, means, sigmas)
    @settings(max_examples=75)
    def test_max_mean_at_least_operand_means(self, mu_a, s_a, mu_b, s_b):
        a = DiscretePDF.from_normal(mu_a, s_a, 13)
        b = DiscretePDF.from_normal(mu_b, s_b, 13)
        m = a.maximum(b, num_samples=13)
        # Discretization can shave a little off the tail; allow a small slack
        # proportional to the operand sigmas.
        assert m.mean() >= max(mu_a, mu_b) - 0.2 * max(s_a, s_b) - 1e-6

    @given(means, sigmas, means, sigmas)
    @settings(max_examples=75)
    def test_max_against_clark(self, mu_a, s_a, mu_b, s_b):
        from repro.core.clark import clark_max_exact

        a = DiscretePDF.from_normal(mu_a, s_a, 21)
        b = DiscretePDF.from_normal(mu_b, s_b, 21)
        m = a.maximum(b, num_samples=21)
        mean, var = clark_max_exact(mu_a, s_a, mu_b, s_b)
        scale = max(s_a, s_b)
        assert abs(m.mean() - mean) <= 0.25 * scale + 1e-6


@st.composite
def grid_pdfs(draw):
    """Pdfs on a value grid, so pair sums and maxima tie: point pdfs, and
    zero probabilities anywhere but the first drawn sample."""
    n = draw(st.integers(min_value=1, max_value=20))
    ticks = draw(st.lists(st.integers(min_value=0, max_value=60), min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.1, 0.5, 1.0, 2.5, 7.3]))
    offset = draw(st.floats(min_value=-100.0, max_value=100.0))
    probs = draw(st.lists(
        st.just(0.0) | st.floats(min_value=0.01, max_value=10.0), min_size=n, max_size=n
    ))
    probs[0] = max(probs[0], 0.01)
    return DiscretePDF(np.array(ticks) * scale + offset, probs)


class TestOpsAgainstReferenceCombine:
    @given(grid_pdfs(), grid_pdfs(), st.integers(min_value=3, max_value=64),
           st.sampled_from(["add", "max"]))
    @settings(max_examples=300, deadline=None)
    def test_ops_match_reference_combine_bitwise(self, a, b, budget, op):
        got = a.add(b, budget) if op == "add" else a.maximum(b, budget)
        values, probs = oracles.reference_combine(a, b, op, budget)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.probabilities, probs)
