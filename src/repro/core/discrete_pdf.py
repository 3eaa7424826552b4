"""Discrete (sampled) probability distribution functions.

FULLSSTA — the paper's outer, accurate engine — follows Liou et al.
(DAC 2001): every arrival time is carried as a *discrete pdf*, i.e. a small
set of ``(value, probability)`` points (the paper uses 10-15 samples per
pdf "as a reasonable tradeoff between accuracy and speed").  Propagation
needs only two operations:

* ``sum`` — convolution of two discrete pdfs (all pairwise value sums,
  probabilities multiplied), followed by re-compaction to the sample budget;
* ``max`` — the discrete order statistic (all pairwise maxima, probabilities
  multiplied), likewise re-compacted.

:class:`DiscretePDF` implements both with numpy outer products, plus the
statistics (mean, variance, quantiles, cdf) the experiments report.

Both kinds of op, scalar and row-batched (:func:`batched_combine`), end
in the same two steps: canonicalize (sort, merge equal values, normalize)
and, over budget, compact (re-bin onto equispaced bins centred on their
conditional means).  Each kernel is a short run of whole-array numpy
calls, pinned bitwise to a plainer reference in
``tests/core/test_discrete_pdf.py``.  The scalar sort is numpy's default
kind, whose order among equal values, and so the last bits of a merged
probability, follows the SIMD sort numpy dispatches to on the host CPU;
the batched kernel sorts stably.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np
from scipy.special import erf as _erf

from repro.obs import METRICS

#: Default number of samples kept per pdf, the middle of the paper's 10-15 range.
DEFAULT_SAMPLES = 13

#: How many sigmas around the mean a normal is discretized over.
NORMAL_SPAN_SIGMAS = 3.5


class DiscretePDF:
    """A discrete probability distribution over delay values (picoseconds).

    Parameters
    ----------
    values:
        Sample locations.  Need not be sorted or unique; the constructor
        canonicalises them.
    probabilities:
        Non-negative weights of the same length; they are normalised to sum
        to one.
    """

    __slots__ = ("values", "probabilities")

    def __init__(self, values: Iterable[float], probabilities: Iterable[float]) -> None:
        vals = np.asarray(list(values), dtype=float)
        probs = np.asarray(list(probabilities), dtype=float)
        if vals.shape != probs.shape or vals.ndim != 1:
            raise ValueError("values and probabilities must be 1-D and the same length")
        if vals.size == 0:
            raise ValueError("a discrete pdf needs at least one sample")
        if np.any(probs < -1e-12):
            raise ValueError("probabilities must be non-negative")
        self.values, self.probabilities = _canonicalize(vals, np.clip(probs, 0.0, None))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: float) -> "DiscretePDF":
        """A deterministic value as a single-sample pdf."""
        return cls([value], [1.0])

    @classmethod
    def _from_canonical(cls, values: np.ndarray, probabilities: np.ndarray) -> "DiscretePDF":
        """Wrap arrays already in canonical form (sorted unique values,
        normalized probabilities) without re-canonicalising them.

        Used by the batched propagation path, whose rows are canonical by
        construction; going through ``__init__`` would re-normalize and
        perturb the stored probabilities at the last bit.
        """
        pdf = object.__new__(cls)
        pdf.values = values
        pdf.probabilities = probabilities
        return pdf

    @classmethod
    def from_normal(
        cls,
        mean: float,
        sigma: float,
        num_samples: int = DEFAULT_SAMPLES,
    ) -> "DiscretePDF":
        """Discretize ``Normal(mean, sigma)`` onto ``num_samples`` equispaced
        points over :data:`NORMAL_SPAN_SIGMAS` sigmas each side of the mean.

        Each point receives the probability mass of its surrounding interval
        (difference of the normal cdf at the bin edges) so the discrete mean
        and variance track the continuous ones closely even at 10-15 samples.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if sigma == 0 or num_samples == 1:
            return cls.point(mean)
        span = NORMAL_SPAN_SIGMAS * sigma
        edges = np.linspace(mean - span, mean + span, num_samples + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        z = (edges - mean) / sigma
        cdf = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
        masses = np.diff(cdf)
        # Fold the tails beyond the span into the extreme bins.
        masses[0] += cdf[0]
        masses[-1] += 1.0 - cdf[-1]
        return cls(centers, masses)

    @classmethod
    def from_samples(cls, samples: Sequence[float], num_bins: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Build a pdf from Monte-Carlo samples by histogramming."""
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("need at least one sample")
        if data.min() == data.max():
            return cls.point(float(data[0]))
        counts, edges = np.histogram(data, bins=num_bins)
        centers = 0.5 * (edges[:-1] + edges[1:])
        keep = counts > 0
        return cls(centers[keep], counts[keep].astype(float))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.values - mu) ** 2, self.probabilities))

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def cdf(self, x: float) -> float:
        """P(X <= x), normalized by the stored probabilities' total.

        The normalization mirrors :meth:`quantile`, keeping the pair
        self-consistent (``cdf(quantile(q)) >= q`` up to summation order)
        even when floating-point drift leaves the stored probabilities
        summing slightly off 1.0.
        """
        return float(
            self.probabilities[self.values <= x].sum() / self.probabilities.sum()
        )

    def quantile(self, q: float) -> float:
        """Generalized inverse CDF: smallest value ``v`` with ``cdf(v) >= q``.

        The cumulative probabilities are normalized by their final sum, so
        the inverse is well defined even when the stored probabilities do
        not sum to exactly 1.0 (floating-point drift after repeated
        ``compact``/truncation).  ``q = 1.0`` always returns the largest
        sample; a single-sample pdf returns its sole value for every ``q``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile level must be in (0, 1]")
        cum = np.cumsum(self.probabilities)
        cum /= cum[-1]
        idx = int(np.searchsorted(cum, q, side="left"))
        idx = min(idx, self.values.size - 1)
        return float(self.values[idx])

    def support(self) -> Tuple[float, float]:
        """(min, max) of the sample locations."""
        return float(self.values[0]), float(self.values[-1])

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, num_samples: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Re-discretize onto at most ``num_samples`` equispaced bins.

        Keeps the full probability mass; bins are centred between the current
        min and max values.  Pdfs already within budget are returned as-is.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.values.size <= num_samples:
            return self
        return _rebinned(self.values, self.probabilities, num_samples)

    # ------------------------------------------------------------------
    # Propagation operations
    # ------------------------------------------------------------------
    def add(self, other: "DiscretePDF", num_samples: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Sum of two independent random variables (discrete convolution)."""
        METRICS.counter("discrete_pdf.add")
        return _combined(np.add, self, other, num_samples)

    def shift(self, offset: float) -> "DiscretePDF":
        """Add a deterministic offset to every sample."""
        return DiscretePDF(self.values + offset, self.probabilities.copy())

    def maximum(self, other: "DiscretePDF", num_samples: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Max of two independent random variables (pairwise max reduction)."""
        METRICS.counter("discrete_pdf.maximum")
        return _combined(np.maximum, self, other, num_samples)

    @staticmethod
    def maximum_of(pdfs: Sequence["DiscretePDF"], num_samples: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Fold :meth:`maximum` over several pdfs (at least one required)."""
        if not pdfs:
            raise ValueError("maximum_of needs at least one pdf")
        result = pdfs[0]
        for pdf in pdfs[1:]:
            result = result.maximum(pdf, num_samples)
        return result

    # ------------------------------------------------------------------
    def as_tuples(self) -> Tuple[Tuple[float, float], ...]:
        """The pdf as ``((value, probability), ...)`` for reporting/serialisation."""
        return tuple(zip(self.values.tolist(), self.probabilities.tolist(), strict=True))

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"DiscretePDF(n={self.num_samples}, mean={self.mean():.3f}, "
            f"std={self.std():.3f})"
        )


def _canonicalize(values: np.ndarray, probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique values with normalized, merged non-negative probabilities.

    The canonical form every :class:`DiscretePDF` holds.  Equal neighbours
    after the sort are merged with a diff mask and their probabilities added
    in sorted order from 0.0 (``np.bincount``): the groups and the addition
    order of ``np.unique`` plus ``np.add.at``, so the result is bitwise
    theirs at a fraction of the cost.  The sort is numpy's default kind,
    whose order among equal values decides that addition order.
    """
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities must not all be zero")
    order = values.argsort()
    values = values[order]
    fresh = np.empty(values.size, dtype=bool)
    fresh[0] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    # Group g of the sorted values is bin g + 1; bin 0 stays empty.
    return values[fresh], np.bincount(fresh.cumsum(), weights=probs[order] / total)[1:]


def _combined(pair: np.ufunc, a: DiscretePDF, b: DiscretePDF, num_samples: int) -> DiscretePDF:
    """``pair`` over every pair of samples of ``a`` and ``b``, canonical and
    compacted to ``num_samples``.  The products of canonical probabilities
    are non-negative, so they need no clip.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    values, probs = _canonicalize(
        pair.outer(a.values, b.values).ravel(),
        np.multiply.outer(a.probabilities, b.probabilities).ravel(),
    )
    if values.size <= num_samples:
        return DiscretePDF._from_canonical(values, probs)
    return _rebinned(values, probs, num_samples)


def _rebinned(values: np.ndarray, probs: np.ndarray, num_samples: int) -> DiscretePDF:
    """Sorted ``values`` re-binned onto ``num_samples`` equispaced bins over
    their support: the occupied bins' conditional-mean centres and masses.

    Re-centring each occupied bin on its conditional mean rather than the
    geometric centre preserves the mean exactly.  The edges are
    ``np.linspace``'s own arithmetic and a value's bin is ``np.digitize``'s
    search clipped into range, so the bins are theirs bit for bit.  The
    centres of a sorted pdf ascend, unless a conditional mean rounds past
    a neighbour's; only then do they need the sort and merge.
    """
    lo, hi = float(values[0]), float(values[-1])
    if lo == hi:
        return DiscretePDF.point(lo)
    step = (hi - lo) / num_samples
    if step == 0:  # linspace's branch for a step that underflows
        edges = np.arange(num_samples + 1.0) / num_samples * (hi - lo) + lo
    else:
        edges = np.arange(num_samples + 1.0) * step + lo
    edges[-1] = hi
    # digitize(v, edges) - 1 is the count of edges[1:] at or below v.
    idx = np.minimum(edges[1:].searchsorted(values, side="right"), num_samples - 1)
    masses = np.bincount(idx, weights=probs)
    sums = np.bincount(idx, weights=probs * values)
    occupied = masses > 0
    masses = masses[occupied]
    centers = sums[occupied] / masses
    if (centers[1:] > centers[:-1]).all():
        return DiscretePDF._from_canonical(centers, masses / masses.sum())
    return DiscretePDF._from_canonical(*_canonicalize(centers, masses))


# ---------------------------------------------------------------------------
# Batched (vectorized) discrete-pdf machinery
# ---------------------------------------------------------------------------
# The levelized FULLSSTA path processes one circuit level at a time: all K
# arrival pdfs of a level live in padded ``(K, width)`` arrays.  Row ``k``
# keeps its ``counts[k]`` canonical samples (sorted unique values, normalized
# probabilities) in the leading columns; trailing columns repeat the row's
# largest value with probability 0.0, so every row stays sorted, its support
# maximum is always the last column, and padding contributes nothing to any
# mass, mean or bin sum.  Because a pad duplicates a real sample, pairwise
# products against pads also duplicate real (value, 0.0) pairs and vanish in
# the merge.  A batched row therefore has the sample count of the scalar
# ``add``/``maximum``/``compact`` result, with values and probabilities
# within a few ulps of it: summing padded rows and the stable sort order
# the floating-point additions differently.  (Where two conditional means
# round to the same centre, the scalar result merges them and the batched
# row keeps both.)


def batched_from_normal(
    means: np.ndarray,
    sigmas: np.ndarray,
    num_samples: int = DEFAULT_SAMPLES,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :meth:`DiscretePDF.from_normal` over ``(means, sigmas)`` arrays.

    Returns padded ``(values, probabilities, counts)`` arrays of width
    ``num_samples``.  Rows with ``sigma == 0`` become single-sample points,
    exactly as the scalar constructor does.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    num_rows = means.size
    if np.any(sigmas < 0):
        raise ValueError("sigma must be non-negative")
    if num_samples < 2:
        raise ValueError("batched_from_normal needs num_samples >= 2")

    safe_sigma = np.where(sigmas > 0, sigmas, 1.0)
    lo = means - NORMAL_SPAN_SIGMAS * safe_sigma
    step = (2.0 * NORMAL_SPAN_SIGMAS * safe_sigma) / num_samples
    edges = lo[:, None] + np.arange(num_samples + 1) * step[:, None]
    edges[:, -1] = means + NORMAL_SPAN_SIGMAS * safe_sigma
    centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
    z = (edges - means[:, None]) / safe_sigma[:, None]
    cdf = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
    masses = np.diff(cdf, axis=1)
    masses[:, 0] += cdf[:, 0]
    masses[:, -1] += 1.0 - cdf[:, -1]
    masses /= masses.sum(axis=1, keepdims=True)

    counts = np.full(num_rows, num_samples, dtype=np.intp)
    degenerate = sigmas == 0
    if np.any(degenerate):
        centers[degenerate] = means[degenerate, None]
        masses[degenerate] = 0.0
        masses[degenerate, 0] = 1.0
        counts[degenerate] = 1
    return centers, masses, counts


def batched_combine(
    a_values: np.ndarray,
    a_probs: np.ndarray,
    b_values: np.ndarray,
    b_probs: np.ndarray,
    op: str,
    num_samples: int = DEFAULT_SAMPLES,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``a.add(b)`` (``op="add"``) or ``a.maximum(b)`` (``op="max"``).

    Inputs are padded row batches; the result is a padded batch of width
    ``num_samples``.  Each row has the sample count of the scalar
    operation's result, and its values and probabilities agree with it to
    a few ulps (not bitwise; see the section comment above).  Rows are
    independent: a row's bits do not depend on the other rows of the call.
    """
    num_rows = a_values.shape[0]
    METRICS.counter(f"discrete_pdf.batched_{op}_rows", num_rows)
    if op == "add":
        pair_values = a_values[:, :, None] + b_values[:, None, :]
    elif op == "max":
        pair_values = np.maximum(a_values[:, :, None], b_values[:, None, :])
    else:
        raise ValueError(f"unknown op {op!r}; expected 'add' or 'max'")
    pair_probs = a_probs[:, :, None] * b_probs[:, None, :]
    return _canonicalize_and_compact_rows(
        pair_values.reshape(num_rows, -1),
        pair_probs.reshape(num_rows, -1),
        num_samples,
    )


def _canonicalize_and_compact_rows(
    values: np.ndarray, probs: np.ndarray, num_samples: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``DiscretePDF(values, probs).compact(num_samples)``.

    Mirrors the scalar pipeline: normalize, sort, merge duplicate values,
    and re-bin rows whose unique count exceeds the sample budget onto
    equispaced bins re-centred on their conditional means.  Gathers and
    scatters go through flat indices, into rows allocated at their final
    width with the pads already in place.
    """
    num_rows, width = values.shape
    probs = probs / probs.sum(axis=1, keepdims=True)
    row_ids = np.arange(num_rows)[:, None]
    order = (values.argsort(axis=1, kind="stable") + row_ids * width).ravel()
    values = values.reshape(-1)[order].reshape(num_rows, width)
    probs = probs.reshape(-1)[order]

    # Merge duplicate values (the constructor's unique/add.at step) by flat
    # group; a row's pads repeat its largest value.
    fresh = np.empty((num_rows, width), dtype=bool)
    fresh[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=fresh[:, 1:])
    group = fresh.cumsum(axis=1)
    counts = group[:, -1].copy()
    merged_width = max(int(counts.max()), num_samples)
    flat_group = (group + (row_ids * merged_width - 1)).ravel()
    merged_probs = np.bincount(
        flat_group, weights=probs, minlength=num_rows * merged_width
    ).reshape(num_rows, merged_width)
    merged_values = np.repeat(values[:, -1], merged_width)
    merged_values[flat_group] = values.ravel()
    merged_values = merged_values.reshape(num_rows, merged_width)
    del values, probs, order, fresh, group, flat_group  # free the sort phase's rows
    if merged_width == num_samples:
        return merged_values, merged_probs, counts

    # Re-bin rows over budget; computed for every row, selected per row.  A
    # row over budget spans more than num_samples distinct values, so its
    # step is at least the smallest subnormal; rows within budget may get
    # any positive step, as their bins are never read.
    lo = merged_values[:, :1]
    step = np.maximum((merged_values[:, -1:] - lo) / num_samples, 5e-324)
    edges = lo + np.arange(num_samples + 1) * step
    edges[:, -1] = np.inf
    # A value's bin counts the interior edges at or below it (np.digitize
    # clipped into range).  Its offset in the steps the edges are built from
    # is off by at most one, so one compare against each neighbouring edge
    # (the last one +inf) corrects it.  Bin k of row r is flat bin
    # r * (num_samples + 1) + k; the last one stays empty.
    estimate = ((merged_values - lo) / step).astype(np.intp)
    np.minimum(estimate, num_samples - 1, out=estimate)
    at = (estimate + row_ids * (num_samples + 1)).ravel()
    flat_values, flat_edges = merged_values.ravel(), edges.ravel()
    flat_bins = at - (flat_values < flat_edges[at]) + (flat_values >= flat_edges[at + 1])
    minlength = num_rows * (num_samples + 1)
    masses = np.bincount(flat_bins, weights=merged_probs.ravel(), minlength=minlength)
    sums = np.bincount(flat_bins, weights=merged_probs.ravel() * flat_values, minlength=minlength)
    occupied = masses > 0
    masses = masses[occupied]
    centers = sums[occupied] / masses

    # Left-compact the occupied bins by their running count, pad each row
    # with its last centre and renormalize (the constructor pass at the end
    # of the scalar compact()).
    running = occupied.reshape(num_rows, num_samples + 1).cumsum(axis=1)
    binned_counts = running[:, -1]
    slots = (running + (row_ids * num_samples - 1)).ravel()[occupied]
    binned_values = np.repeat(centers[binned_counts.cumsum() - 1], num_samples)
    binned_values[slots] = centers
    binned_probs = np.zeros(num_rows * num_samples)
    binned_probs[slots] = masses
    binned_values = binned_values.reshape(num_rows, num_samples)
    binned_probs = binned_probs.reshape(num_rows, num_samples)
    binned_probs /= binned_probs.sum(axis=1, keepdims=True)

    over_budget = counts > num_samples
    if over_budget.all():
        return binned_values, binned_probs, binned_counts
    out_values = np.where(over_budget[:, None], binned_values, merged_values[:, :num_samples])
    out_probs = np.where(over_budget[:, None], binned_probs, merged_probs[:, :num_samples])
    out_counts = np.where(over_budget, binned_counts, counts)
    return out_values, out_probs, out_counts
