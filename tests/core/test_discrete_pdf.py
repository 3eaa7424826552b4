"""Unit tests for discrete sampled PDFs (the FULLSSTA value type)."""

import math

import numpy as np
import pytest

from repro.core.discrete_pdf import (
    DEFAULT_SAMPLES,
    DiscretePDF,
    batched_combine,
    batched_from_normal,
)


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


def _random_pdf(rng, max_width=DEFAULT_SAMPLES):
    """Widths 1 to ``max_width``; some point pdfs, some supports with ties."""
    if rng.random() < 0.05:
        return DiscretePDF.point(float(rng.normal(100.0, 20.0)))
    width = int(rng.integers(1, max_width + 1))
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


# ----------------------------------------------------------------------
# The batched kernel against its previous form and the scalar arithmetic
# ----------------------------------------------------------------------
def _reference_pad(values, probabilities, counts):
    hi = np.take_along_axis(values, (counts - 1)[:, None], axis=1)
    pad = np.arange(values.shape[1])[None, :] >= counts[:, None]
    np.copyto(values, np.broadcast_to(hi, values.shape), where=pad)
    probabilities[pad] = 0.0


def reference_rows(values, probs, num_samples):
    """Row-wise canonicalize-and-compact as ``batched_combine`` computed it
    with ``take_along_axis``, a 2-D merge scatter, a (rows x width x edges)
    bin compare and a stable ``argsort`` left-compaction."""
    num_rows, width = values.shape
    probs = probs / probs.sum(axis=1, keepdims=True)
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    probs = np.take_along_axis(probs, order, axis=1)

    fresh = np.ones((num_rows, width), dtype=bool)
    fresh[:, 1:] = values[:, 1:] != values[:, :-1]
    group = np.cumsum(fresh, axis=1) - 1
    counts = group[:, -1] + 1
    merged_width = int(counts.max())
    flat_group = (np.arange(num_rows)[:, None] * merged_width + group).ravel()
    merged_probs = np.bincount(
        flat_group, weights=probs.ravel(), minlength=num_rows * merged_width
    ).reshape(num_rows, merged_width)
    merged_values = np.zeros((num_rows, merged_width))
    merged_values[np.arange(num_rows)[:, None], group] = values
    _reference_pad(merged_values, merged_probs, counts)

    if merged_width <= num_samples:
        if merged_width < num_samples:
            pad_cols = num_samples - merged_width
            merged_values = np.concatenate(
                [merged_values, np.repeat(merged_values[:, -1:], pad_cols, axis=1)], axis=1
            )
            merged_probs = np.concatenate([merged_probs, np.zeros((num_rows, pad_cols))], axis=1)
        return merged_values, merged_probs, counts

    lo = merged_values[:, :1]
    hi = merged_values[:, -1:]
    span = np.where(hi > lo, hi - lo, 1.0)
    edges = lo + np.arange(num_samples + 1) * (span / num_samples)
    edges[:, -1:] = hi
    bin_idx = np.clip(
        (merged_values[:, :, None] >= edges[:, None, :]).sum(axis=2) - 1, 0, num_samples - 1
    )
    flat_bins = (np.arange(num_rows)[:, None] * num_samples + bin_idx).ravel()
    minlength = num_rows * num_samples
    masses = np.bincount(
        flat_bins, weights=merged_probs.ravel(), minlength=minlength
    ).reshape(num_rows, num_samples)
    sums = np.bincount(
        flat_bins, weights=(merged_probs * merged_values).ravel(), minlength=minlength
    ).reshape(num_rows, num_samples)
    occupied = masses > 0
    centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
    centers = np.where(occupied, sums / np.where(occupied, masses, 1.0), centers)

    keep_order = np.argsort(~occupied, axis=1, kind="stable")
    binned_values = np.take_along_axis(centers, keep_order, axis=1)
    binned_probs = np.take_along_axis(np.where(occupied, masses, 0.0), keep_order, axis=1)
    binned_counts = occupied.sum(axis=1).astype(np.intp)
    binned_probs /= binned_probs.sum(axis=1, keepdims=True)
    _reference_pad(binned_values, binned_probs, binned_counts)

    over_budget = counts > num_samples
    out_values = np.where(over_budget[:, None], binned_values, merged_values[:, :num_samples])
    out_probs = np.where(over_budget[:, None], binned_probs, merged_probs[:, :num_samples])
    out_counts = np.where(over_budget, binned_counts, counts)
    return out_values, out_probs, out_counts


def _padded_rows(pdfs, width=DEFAULT_SAMPLES):
    """Pdfs as a padded ``(values, probabilities)`` batch."""
    values = np.zeros((len(pdfs), width))
    probs = np.zeros((len(pdfs), width))
    for row, pdf in enumerate(pdfs):
        n = pdf.num_samples
        values[row, :n] = pdf.values
        values[row, n:] = pdf.values[-1]
        probs[row, :n] = pdf.probabilities
    return values, probs


def _random_rows(rng, num_rows, max_width=DEFAULT_SAMPLES):
    """A padded batch of canonical rows: widths 1 to ``max_width``, 5 % point
    pdfs, and 20 % of rows on a 5 ps grid, whose pair sums and maxima tie."""
    widths = rng.integers(1, max_width + 1, num_rows)
    widths[rng.random(num_rows) < 0.05] = 1
    values = np.sort(rng.normal(100.0, 20.0, (num_rows, max_width)), axis=1)
    tied = np.flatnonzero(rng.random(num_rows) < 0.2)
    steps = rng.integers(1, 3, (tied.size, max_width))
    values[tied] = 5.0 * (rng.integers(10, 30, (tied.size, 1)) + np.cumsum(steps, axis=1))
    probs = rng.random((num_rows, max_width)) + 1e-3
    probs[np.arange(max_width) >= widths[:, None]] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    _reference_pad(values, probs, widths)
    return values, probs


class TestBatchedKernel:
    @pytest.mark.parametrize("op", ["add", "max"])
    def test_rows_match_reference_rows_bitwise(self, op):
        rng = np.random.default_rng(11 if op == "add" else 12)
        over = under = narrow_batches = 0
        for batch in range(200):
            num_rows = int(rng.integers(1, 501))
            # Every tenth batch holds rows of at most 3 samples, so the whole
            # call stays within budget and takes the merge-only return.
            width = 3 if batch % 10 == 0 else DEFAULT_SAMPLES
            a_values, a_probs = _random_rows(rng, num_rows, width)
            b_values, b_probs = _random_rows(rng, num_rows, width)
            got = batched_combine(a_values, a_probs, b_values, b_probs, op)
            if op == "add":
                pairs = a_values[:, :, None] + b_values[:, None, :]
            else:
                pairs = np.maximum(a_values[:, :, None], b_values[:, None, :])
            pairs = pairs.reshape(num_rows, -1)
            pair_probs = (a_probs[:, :, None] * b_probs[:, None, :]).reshape(num_rows, -1)
            expected = reference_rows(pairs, pair_probs, DEFAULT_SAMPLES)
            for got_part, expected_part in zip(got, expected, strict=True):
                assert np.array_equal(got_part, expected_part)
            ordered = np.sort(pairs, axis=1)
            unique = 1 + (np.diff(ordered, axis=1) != 0).sum(axis=1)
            over += int((unique > DEFAULT_SAMPLES).sum())
            under += int((unique <= DEFAULT_SAMPLES).sum())
            narrow_batches += int(unique.max() <= DEFAULT_SAMPLES)
        assert over and under and narrow_batches

    @pytest.mark.parametrize("op", ["add", "max"])
    def test_one_row_batches_agree_with_scalar_ops_to_ulps(self, op):
        """The batched and scalar arithmetic keep the same samples but add
        in different orders: counts agree, values and probabilities only
        to a few ulps (so the pdf arithmetic is not yet one)."""
        rng = np.random.default_rng(99)
        differs = 0
        for _ in range(2000):
            a, b = _random_pdf(rng), _random_pdf(rng)
            scalar = a.add(b) if op == "add" else a.maximum(b)
            values, probs, counts = batched_combine(*_padded_rows([a]), *_padded_rows([b]), op)
            n = int(counts[0])
            assert n == scalar.num_samples
            np.testing.assert_allclose(values[0, :n], scalar.values, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(probs[0, :n], scalar.probabilities, rtol=0.0, atol=1e-14)
            differs += not (
                np.array_equal(values[0, :n], scalar.values)
                and np.array_equal(probs[0, :n], scalar.probabilities)
            )
        assert differs  # the comparison above is not vacuously bitwise


# ----------------------------------------------------------------------
# Edge cases of both kernels against the oracles above
# ----------------------------------------------------------------------
BUDGETS = [3, 10, 15, 64, 100]


def reference_compact(values, probs, num_samples):
    """``compact`` of sorted ``values`` as ``np.linspace`` and ``np.digitize``
    bin them; for pdfs whose values repeat, which no op ever makes."""
    edges = np.linspace(values[0], values[-1], num_samples + 1)
    idx = np.clip(np.digitize(values, edges) - 1, 0, num_samples - 1)
    masses = np.zeros(num_samples)
    np.add.at(masses, idx, probs)
    sums = np.zeros(num_samples)
    np.add.at(sums, idx, probs * values)
    occupied = masses > 0
    return reference_canonical(sums[occupied] / masses[occupied], masses[occupied])


def _pairs(a_values, a_probs, b_values, b_probs, op):
    """The pair rows ``batched_combine`` canonicalizes and compacts."""
    num_rows = a_values.shape[0]
    pair = np.add if op == "add" else np.maximum
    values = pair(a_values[:, :, None], b_values[:, None, :]).reshape(num_rows, -1)
    return values, (a_probs[:, :, None] * b_probs[:, None, :]).reshape(num_rows, -1)


def _unique_counts(values):
    return 1 + (np.diff(np.sort(values, axis=1), axis=1) != 0).sum(axis=1)


def assert_rows_match_reference(a_values, a_probs, b_values, b_probs, op, num_samples):
    """``batched_combine`` equals ``reference_rows`` bitwise; returns the
    rows' unique pair counts."""
    got = batched_combine(a_values, a_probs, b_values, b_probs, op, num_samples)
    pairs, pair_probs = _pairs(a_values, a_probs, b_values, b_probs, op)
    for got_part, expected_part in zip(
        got, reference_rows(pairs, pair_probs, num_samples), strict=True
    ):
        assert got_part.dtype == expected_part.dtype
        assert np.array_equal(got_part, expected_part)
    return _unique_counts(pairs)


def assert_op_matches_reference(a, b, op, num_samples):
    got = a.add(b, num_samples) if op == "add" else a.maximum(b, num_samples)
    values, probs = reference_combine(a, b, op, num_samples)
    assert np.array_equal(got.values, values)
    assert np.array_equal(got.probabilities, probs)
    return got


class TestKernelEdgeCases:
    @pytest.mark.parametrize("num_samples", BUDGETS)
    @pytest.mark.parametrize("op", ["add", "max"])
    def test_scalar_ops_at_every_budget(self, op, num_samples):
        rng = np.random.default_rng(num_samples)
        pair = np.add if op == "add" else np.maximum
        width = max(DEFAULT_SAMPLES, num_samples)
        compacted = 0
        for _ in range(300):
            a, b = _random_pdf(rng, width), _random_pdf(rng, width)
            got = assert_op_matches_reference(a, b, op, num_samples)
            compacted += np.unique(pair.outer(a.values, b.values)).size > num_samples
        assert compacted

    @pytest.mark.parametrize("num_samples", BUDGETS)
    @pytest.mark.parametrize("op", ["add", "max"])
    def test_batched_rows_at_every_budget(self, op, num_samples):
        rng = np.random.default_rng(100 + num_samples)
        width = max(DEFAULT_SAMPLES, num_samples)
        over = under = 0
        for _ in range(20):
            num_rows = int(rng.integers(1, 20))
            a_values, a_probs = _random_rows(rng, num_rows, width)
            b_values, b_probs = _random_rows(rng, num_rows, width)
            unique = assert_rows_match_reference(
                a_values, a_probs, b_values, b_probs, op, num_samples
            )
            over += int((unique > num_samples).sum())
            under += int((unique <= num_samples).sum())
        assert over and under

    def test_a_step_that_underflows(self):
        # Scalar: only a pdf whose values repeat spans fewer subnormal steps
        # than it has samples, so linspace's step underflows to zero.
        values = np.repeat([0.0, 5e-324], [9, 8])
        probs = np.linspace(1.0, 2.0, values.size)
        pdf = DiscretePDF._from_canonical(values, probs)
        expected = reference_compact(values, probs, 13)
        assert (values[-1] - values[0]) / 13 == 0.0
        assert np.array_equal(pdf.compact(13).values, expected[0])
        assert np.array_equal(pdf.compact(13).probabilities, expected[1])
        # Batched: a row within budget whose step underflows, among rows over it.
        rng = np.random.default_rng(5)
        a_values, a_probs = _random_rows(rng, 6)
        b_values, b_probs = _random_rows(rng, 6)
        a_values[0], a_probs[0] = 0.0, 0.0
        a_values[0, 1:], a_probs[0, :2] = 5e-324, 0.5
        b_values[0], b_probs[0] = 0.0, 0.0
        b_probs[0, 0] = 1.0
        for op in ("add", "max"):
            unique = assert_rows_match_reference(a_values, a_probs, b_values, b_probs, op, 13)
            assert unique[0] == 2 and (unique[1:] > 13).any()

    @pytest.mark.parametrize("op", ["add", "max"])
    def test_zero_probability_top_samples(self, op):
        rng = np.random.default_rng(21)
        top_bin_empty = 0
        for _ in range(300):
            a, b = _random_pdf(rng), _random_pdf(rng)
            for pdf in (a, b):
                if pdf.num_samples > 1:
                    pdf.probabilities[-1] = 0.0
            assert_op_matches_reference(a, b, op, DEFAULT_SAMPLES)
        for _ in range(20):
            a_values, a_probs = _random_rows(rng, 40)
            b_values, b_probs = _random_rows(rng, 40)
            for values, probs in ((a_values, a_probs), (b_values, b_probs)):
                # Every row's largest value (its last sample and the pads)
                # gets probability 0, unless it is the row's only value.
                top = (values == values[:, -1:]) & (values[:, :1] < values[:, -1:])
                probs[top] = 0.0
                probs /= probs.sum(axis=1, keepdims=True)
            values, _, counts = batched_combine(a_values, a_probs, b_values, b_probs, op)
            assert_rows_match_reference(a_values, a_probs, b_values, b_probs, op, DEFAULT_SAMPLES)
            pairs, _ = _pairs(a_values, a_probs, b_values, b_probs, op)
            binned = (_unique_counts(pairs) > DEFAULT_SAMPLES) & (counts < DEFAULT_SAMPLES)
            top_bin_empty += int(binned.sum())
            # A pad repeats its row's last sample, whatever that is.
            last = values[np.arange(values.shape[0]), counts - 1]
            assert np.array_equal(values[:, -1], last)
        assert top_bin_empty

    @pytest.mark.parametrize("op", ["add", "max"])
    def test_batches_mix_rows_over_and_under_budget(self, op):
        rng = np.random.default_rng(31)
        mixed = all_over = 0
        for batch in range(60):
            num_rows = int(rng.integers(2, 40))
            if batch % 2:  # full-width normals on both sides: every row over budget
                a_values, a_probs, _ = batched_from_normal(
                    rng.normal(100.0, 5.0, num_rows), rng.uniform(5.0, 20.0, num_rows)
                )
                b_values, b_probs, _ = batched_from_normal(
                    rng.normal(100.0, 5.0, num_rows), rng.uniform(5.0, 20.0, num_rows)
                )
            else:  # point rows on one side: their pairs stay within budget
                a_values, a_probs = _random_rows(rng, num_rows)
                b_values, b_probs = _random_rows(rng, num_rows)
                narrow = rng.random(num_rows) < 0.3
                b_values[narrow], b_probs[narrow] = b_values[narrow, :1], 0.0
                b_probs[narrow, 0] = 1.0
            unique = assert_rows_match_reference(
                a_values, a_probs, b_values, b_probs, op, DEFAULT_SAMPLES
            )
            over = unique > DEFAULT_SAMPLES
            mixed += bool(over.any() and not over.all())
            all_over += bool(over.all())
        assert mixed and all_over

    def test_rebinned_centres_that_do_not_ascend(self):
        # Fourteen values on the thirteen unit bins over [0, 13]: the bins
        # holding only 5 - ulp and only 5.0 both centre on 5.0 after the
        # conditional mean rounds, so the scalar result merges them.
        values = [0.0, 1.0, 2.0, 3.0, np.nextafter(5.0, 0.0), *np.arange(5.0, 14.0)]
        pdf = DiscretePDF(values, [5, 5, 7, 9, 1, 2, 8, 9, 3, 3, 8, 4, 3, 8])
        for other, op in ((DiscretePDF.point(0.0), "add"), (DiscretePDF.point(-1.0), "max")):
            assert assert_op_matches_reference(pdf, other, op, 13).num_samples == 12
            # The batched kernel keeps both bins, as its oracle does.
            a_values, a_probs = _padded_rows([pdf], 14)
            b_values, b_probs = _padded_rows([other], 14)
            assert_rows_match_reference(a_values, a_probs, b_values, b_probs, op, 13)
            assert batched_combine(a_values, a_probs, b_values, b_probs, op)[2][0] == 13

    @pytest.mark.parametrize("op", ["add", "maximum"])
    def test_a_budget_below_one_raises_even_when_the_result_fits(self, op):
        a, b = DiscretePDF.point(1.0), DiscretePDF.point(2.0)
        with pytest.raises(ValueError):
            getattr(a, op)(b, 0)
        with pytest.raises(ValueError):
            a.compact(0)
