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
        self.values, self.probabilities = _canonicalize(vals, probs)

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
        span_sigmas: float = NORMAL_SPAN_SIGMAS,
    ) -> "DiscretePDF":
        """Discretize ``Normal(mean, sigma)`` onto ``num_samples`` equispaced points.

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
        edges = np.linspace(
            mean - span_sigmas * sigma, mean + span_sigmas * sigma, num_samples + 1
        )
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
        lo, hi = self.support()
        if lo == hi:
            return DiscretePDF.point(lo)
        return DiscretePDF._from_canonical(
            *_canonicalize(*_rebin(self.values, self.probabilities, lo, hi, num_samples))
        )

    # ------------------------------------------------------------------
    # Propagation operations
    # ------------------------------------------------------------------
    def add(self, other: "DiscretePDF", num_samples: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Sum of two independent random variables (discrete convolution)."""
        METRICS.counter("discrete_pdf.add")
        values = np.add.outer(self.values, other.values).ravel()
        probs = np.multiply.outer(self.probabilities, other.probabilities).ravel()
        return DiscretePDF._from_canonical(*_canonicalize(values, probs)).compact(num_samples)

    def shift(self, offset: float) -> "DiscretePDF":
        """Add a deterministic offset to every sample."""
        return DiscretePDF(self.values + offset, self.probabilities.copy())

    def maximum(self, other: "DiscretePDF", num_samples: int = DEFAULT_SAMPLES) -> "DiscretePDF":
        """Max of two independent random variables (pairwise max reduction)."""
        METRICS.counter("discrete_pdf.maximum")
        values = np.maximum.outer(self.values, other.values).ravel()
        probs = np.multiply.outer(self.probabilities, other.probabilities).ravel()
        return DiscretePDF._from_canonical(*_canonicalize(values, probs)).compact(num_samples)

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
    """Sorted unique values with clipped, normalized, merged probabilities.

    The canonical form every :class:`DiscretePDF` holds.  Equal neighbours
    after the sort are merged with a diff mask and their probabilities added
    in sorted order from 0.0 (``np.bincount``): the groups and the addition
    order of ``np.unique`` plus ``np.add.at``, so the result is bitwise
    theirs at a fraction of the cost.
    """
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities must not all be zero")
    probs = probs / total
    order = np.argsort(values)
    values = values[order]
    fresh = np.empty(values.size, dtype=bool)
    fresh[0] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh], np.bincount(np.cumsum(fresh) - 1, weights=probs[order])


def _rebin(
    values: np.ndarray, probs: np.ndarray, lo: float, hi: float, num_samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``num_samples`` equispaced bins over ``[lo, hi]``: the occupied bins'
    conditional-mean centres and masses, in bin order.

    Re-centring each occupied bin on its conditional mean rather than the
    geometric centre preserves the mean exactly.
    """
    edges = np.linspace(lo, hi, num_samples + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(values, edges) - 1, 0, num_samples - 1)
    masses = np.bincount(idx, weights=probs, minlength=num_samples)
    sums = np.bincount(idx, weights=probs * values, minlength=num_samples)
    occupied = masses > 0
    centers[occupied] = sums[occupied] / masses[occupied]
    return centers[occupied], masses[occupied]


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
# the floating-point additions differently.


def _pad_rows(values: np.ndarray, probabilities: np.ndarray, counts: np.ndarray) -> None:
    """In place, overwrite each row's trailing columns with its last sample."""
    num_rows, width = values.shape
    hi = values.reshape(-1)[np.arange(num_rows) * width + counts - 1]
    pad = np.arange(width)[None, :] >= counts[:, None]
    np.copyto(values, hi[:, None], where=pad)
    probabilities[pad] = 0.0


def batched_from_normal(
    means: np.ndarray,
    sigmas: np.ndarray,
    num_samples: int = DEFAULT_SAMPLES,
    span_sigmas: float = NORMAL_SPAN_SIGMAS,
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
    lo = means - span_sigmas * safe_sigma
    step = (2.0 * span_sigmas * safe_sigma) / num_samples
    edges = lo[:, None] + np.arange(num_samples + 1) * step[:, None]
    edges[:, -1] = means + span_sigmas * safe_sigma
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
    scatters go through flat indices.
    """
    num_rows, width = values.shape
    probs = probs / probs.sum(axis=1, keepdims=True)
    row_ids = np.arange(num_rows)[:, None]
    order = (np.argsort(values, axis=1, kind="stable") + row_ids * width).ravel()
    values = values.reshape(-1)[order].reshape(num_rows, width)
    probs = probs.reshape(-1)[order]

    # Merge duplicate values (the constructor's unique/add.at step) by flat group.
    fresh = np.ones((num_rows, width), dtype=bool)
    fresh[:, 1:] = values[:, 1:] != values[:, :-1]
    group = np.cumsum(fresh, axis=1)
    counts = group[:, -1].copy()
    merged_width = int(counts.max())
    group += row_ids * merged_width - 1
    merged_probs = np.bincount(
        group.ravel(), weights=probs, minlength=num_rows * merged_width
    ).reshape(num_rows, merged_width)
    merged_values = np.zeros(num_rows * merged_width)
    merged_values[group.ravel()] = values.ravel()
    merged_values = merged_values.reshape(num_rows, merged_width)
    _pad_rows(merged_values, merged_probs, counts)
    del values, probs, order, fresh, group  # free the sort phase's rows

    if merged_width <= num_samples:
        if merged_width < num_samples:
            # Callers scatter fixed-width rows; grow to the full budget.
            pad_cols = num_samples - merged_width
            merged_values = np.concatenate(
                [merged_values, np.repeat(merged_values[:, -1:], pad_cols, axis=1)],
                axis=1,
            )
            merged_probs = np.concatenate(
                [merged_probs, np.zeros((num_rows, pad_cols))], axis=1
            )
        return merged_values, merged_probs, counts

    # Re-bin rows over budget; computed for every row, selected per row.
    lo = merged_values[:, :1]
    hi = merged_values[:, -1:]
    span = np.where(hi > lo, hi - lo, 1.0)
    edges = lo + np.arange(num_samples + 1) * (span / num_samples)
    edges[:, -1:] = hi
    # np.digitize(v, edges) - 1 clipped into range, row-wise.  Every value
    # lies at or above the first edge, and on a row over budget (hi > lo)
    # every interior edge lies at or below hi, so counting the interior
    # edges at or below a value is that clipped index.
    bin_idx = np.zeros((num_rows, merged_width), dtype=np.int16)
    for k in range(1, num_samples):
        bin_idx += merged_values >= edges[:, k: k + 1]
    flat_bins = (row_ids * num_samples + bin_idx).ravel()
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

    # Left-compact the occupied bins by their running count and renormalize
    # (the constructor pass at the end of the scalar compact()).
    slots = (np.cumsum(occupied, axis=1) - 1 + row_ids * num_samples)[occupied]
    binned_values = np.zeros(minlength)
    binned_values[slots] = centers[occupied]
    binned_probs = np.zeros(minlength)
    binned_probs[slots] = masses[occupied]
    binned_values = binned_values.reshape(num_rows, num_samples)
    binned_probs = binned_probs.reshape(num_rows, num_samples)
    binned_counts = occupied.sum(axis=1)
    binned_probs /= binned_probs.sum(axis=1, keepdims=True)
    _pad_rows(binned_values, binned_probs, binned_counts)

    over_budget = counts > num_samples
    out_values = np.where(over_budget[:, None], binned_values, merged_values[:, :num_samples])
    out_probs = np.where(over_budget[:, None], binned_probs, merged_probs[:, :num_samples])
    out_counts = np.where(over_budget, binned_counts, counts)
    return out_values, out_probs, out_counts
