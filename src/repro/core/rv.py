"""Normal random variables for arrival times and gate delays.

The paper represents every gate delay and arrival time as a normally
distributed random variable characterised by its mean and variance (§3).
:class:`NormalDelay` is the value type passed around by the fast engine
(FASSTA), the WNSS tracer and the cost functions.

Only the operations statistical STA needs are provided:

* ``+`` — sum of independent normals (means and variances add),
* :func:`NormalDelay.maximum` — statistical max via Clark's formulae
  (delegates to :mod:`repro.core.clark`),
* ordering helpers used to pick dominant inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from repro.core import clark


@dataclass(frozen=True)
class NormalDelay:
    """A normally distributed delay/arrival time ``Normal(mean, sigma)`` in ps."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not math.isfinite(self.mean) or not math.isfinite(self.sigma):
            raise ValueError("mean and sigma must be finite")

    # -- basic statistics ------------------------------------------------
    @property
    def variance(self) -> float:
        return self.sigma * self.sigma

    @property
    def cv(self) -> float:
        """Coefficient of variation sigma/mu (0 when the mean is 0)."""
        return self.sigma / self.mean if self.mean != 0 else 0.0

    def quantile(self, q: float) -> float:
        """Inverse CDF using the scipy-free Acklam/Beasley-Springer approach.

        Accurate to ~1e-9 over (0, 1); used for reporting percentile delays
        (e.g. the 99th-percentile delay that yield arguments are made with).
        """
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return self.mean + self.sigma * _standard_normal_quantile(q)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: Union["NormalDelay", float, int]) -> "NormalDelay":
        if isinstance(other, NormalDelay):
            return NormalDelay(
                self.mean + other.mean,
                math.sqrt(self.variance + other.variance),
            )
        return NormalDelay(self.mean + float(other), self.sigma)

    __radd__ = __add__

    def shift(self, offset: float) -> "NormalDelay":
        """Deterministic shift of the mean (used for required-time arithmetic)."""
        return NormalDelay(self.mean + offset, self.sigma)

    def scale(self, factor: float) -> "NormalDelay":
        """Scale both mean and sigma (e.g. unit conversions)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return NormalDelay(self.mean * factor, self.sigma * factor)

    # -- statistical max ---------------------------------------------------
    def maximum(self, other: "NormalDelay") -> "NormalDelay":
        """Statistical max of two independent normal arrival times.

        Uses the paper's fast Clark approximation
        (:func:`~repro.core.clark.clark_max_fast`).
        """
        mean, var = clark.clark_max_fast(self.mean, self.sigma, other.mean, other.sigma)
        return NormalDelay(mean, math.sqrt(max(var, 0.0)))

    @staticmethod
    def maximum_of(delays: Sequence["NormalDelay"]) -> "NormalDelay":
        """Statistical max of several arrival times, folded pairwise left-to-right."""
        if not delays:
            raise ValueError("maximum_of needs at least one delay")
        result = delays[0]
        for delay in delays[1:]:
            result = result.maximum(delay)
        return result

    # -- comparisons -------------------------------------------------------
    def dominates(self, other: "NormalDelay", threshold: float = 2.6) -> bool:
        """True when this arrival statistically dominates ``other``.

        Implements Eq. (5)/(6) of the paper: the normalized mean separation
        exceeds ``threshold`` (2.6 in the paper), so ``max(self, other)`` is
        simply ``self`` to the accuracy of the erf approximation.
        """
        return clark.dominance(self.mean, self.sigma, other.mean, other.sigma, threshold) == 1

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"NormalDelay(mean={self.mean:.3f}, sigma={self.sigma:.3f})"


ZERO_DELAY = NormalDelay(0.0, 0.0)


def _standard_normal_quantile(q: float) -> float:
    """Acklam's rational approximation of the standard normal inverse CDF."""
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
               ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    if q > 1.0 - p_low:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
               ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    u = q - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / \
           (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0)
