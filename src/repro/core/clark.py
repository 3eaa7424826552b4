"""Clark's moments of max(A, B) and the paper's fast approximations.

Given two independent normal random variables ``A ~ N(mu_a, sigma_a)`` and
``B ~ N(mu_b, sigma_b)``, Clark (1961) gives the first two moments of
``max(A, B)`` in closed form (paper Eqs. 1-3)::

    a^2   = sigma_a^2 + sigma_b^2
    alpha = (mu_a - mu_b) / a
    nu1   = mu_a * Phi(alpha) + mu_b * Phi(-alpha) + a * phi(alpha)
    nu2   = (mu_a^2 + sigma_a^2) * Phi(alpha)
          + (mu_b^2 + sigma_b^2) * Phi(-alpha)
          + (mu_a + mu_b) * a * phi(alpha)
    Var[max(A, B)] = nu2 - nu1^2

where ``phi``/``Phi`` are the standard normal pdf/cdf.  Evaluating the cdf
is the expensive part; the paper replaces it with the CRC quadratic
approximation (accurate to two decimal places) and observes that when the
normalized mean separation ``|alpha|`` exceeds 2.6 the max simply collapses
to the dominant operand (Eqs. 5-6), so no arithmetic is needed at all.

This module provides:

* :func:`clark_max_exact` — the exact moments (scipy normal cdf/pdf);
* :func:`clark_max_fast` — the paper's approximation with the dominance
  shortcut, using only multiply/add and one exponential;
* :func:`dominance` — the Eq. 5/6 test by itself (also used by the WNSS
  tracer);
* :func:`clark_max_fast_arrays` — the same fast max evaluated elementwise
  over NumPy arrays, the kernel of FASSTA's levelized propagation;
* :func:`variance_sensitivities` — forward finite-difference approximations
  of ``dVar(max)/dmu`` with the ``delta_sigma = c * delta_mu`` coupling of
  §4.4, used to rank inputs when neither dominates.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.stats import norm as _scipy_norm

#: Normalized mean separation beyond which one operand fully dominates the
#: max (paper Eqs. 5 and 6).
DOMINANCE_THRESHOLD = 2.6

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Standard-normal helpers
# ---------------------------------------------------------------------------
def phi(x: float) -> float:
    """Standard normal pdf ``(1/sqrt(2*pi)) * exp(-x^2/2)`` (paper's lowercase phi)."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def capital_phi(x: float) -> float:
    """Exact standard normal cdf (used by the exact Clark evaluation)."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def capital_phi_quadratic(x: float) -> float:
    """CRC quadratic approximation of the standard normal cdf (paper §4.3).

    For ``x >= 0``::

        Phi(x) ~= 0.5 + 0.1 * x * (4.4 - x)   0   <= x <= 2.2
                  0.99                         2.2 <  x <= 2.6
                  1.0                          x   >  2.6

    and ``Phi(-x) = 1 - Phi(x)`` (the approximation is odd about 0.5, which
    is the property the paper uses).  Accurate to about two decimal places.
    """
    negative = x < 0.0
    ax = -x if negative else x
    if ax <= 2.2:
        value = 0.5 + 0.1 * ax * (4.4 - ax)
    elif ax <= 2.6:
        value = 0.99
    else:
        value = 1.0
    return 1.0 - value if negative else value


def erf_quadratic(x: float) -> float:
    """Quadratic approximation of ``erf(x)`` consistent with :func:`capital_phi_quadratic`.

    Derived through ``erf(x) = 2 * Phi(x * sqrt(2)) - 1``; odd in ``x``.
    """
    return 2.0 * capital_phi_quadratic(x * _SQRT_2) - 1.0


# ---------------------------------------------------------------------------
# Dominance test (Eqs. 5 and 6)
# ---------------------------------------------------------------------------
def dominance(
    mu_a: float,
    sigma_a: float,
    mu_b: float,
    sigma_b: float,
    threshold: float = DOMINANCE_THRESHOLD,
) -> int:
    """Return +1 if A dominates the max, -1 if B dominates, 0 otherwise.

    A dominates when ``(mu_a - mu_b) / a >= threshold`` with
    ``a = sqrt(sigma_a^2 + sigma_b^2)`` (Eq. 5); B dominates for the mirror
    condition (Eq. 6).  When both sigmas are zero the comparison degenerates
    to the deterministic one.
    """
    a2 = sigma_a * sigma_a + sigma_b * sigma_b
    if a2 <= 0.0:
        if mu_a > mu_b:
            return 1
        if mu_b > mu_a:
            return -1
        return 1  # identical deterministic values: either operand is the max
    alpha = (mu_a - mu_b) / math.sqrt(a2)
    if alpha >= threshold:
        return 1
    if alpha <= -threshold:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Clark moments
# ---------------------------------------------------------------------------
def _clark_moments(
    mu_a: float,
    sigma_a: float,
    mu_b: float,
    sigma_b: float,
    cdf,
) -> Tuple[float, float]:
    """Clark's first two central moments of max(A, B) with a pluggable cdf."""
    a2 = sigma_a * sigma_a + sigma_b * sigma_b
    if a2 <= 0.0:
        # Both operands deterministic.
        return (max(mu_a, mu_b), 0.0)
    a = math.sqrt(a2)
    alpha = (mu_a - mu_b) / a
    cdf_pos = cdf(alpha)
    cdf_neg = 1.0 - cdf_pos
    pdf_alpha = phi(alpha)
    nu1 = mu_a * cdf_pos + mu_b * cdf_neg + a * pdf_alpha
    nu2 = (
        (mu_a * mu_a + sigma_a * sigma_a) * cdf_pos
        + (mu_b * mu_b + sigma_b * sigma_b) * cdf_neg
        + (mu_a + mu_b) * a * pdf_alpha
    )
    variance = nu2 - nu1 * nu1
    return nu1, max(variance, 0.0)


def clark_max_exact(
    mu_a: float, sigma_a: float, mu_b: float, sigma_b: float
) -> Tuple[float, float]:
    """Exact Clark mean and variance of ``max(A, B)`` (independent normals)."""
    return _clark_moments(mu_a, sigma_a, mu_b, sigma_b, capital_phi)


def clark_max_fast(
    mu_a: float,
    sigma_a: float,
    mu_b: float,
    sigma_b: float,
    threshold: float = DOMINANCE_THRESHOLD,
) -> Tuple[float, float]:
    """The paper's fast max: dominance shortcut plus quadratic-cdf Clark.

    Returns ``(mean, variance)``.  When Eq. (5) or (6) holds the dominant
    operand's moments are returned directly (no floating point beyond the
    test itself); otherwise Clark's formulae are evaluated with the CRC
    quadratic cdf approximation.
    """
    dom = dominance(mu_a, sigma_a, mu_b, sigma_b, threshold)
    if dom == 1:
        return mu_a, sigma_a * sigma_a
    if dom == -1:
        return mu_b, sigma_b * sigma_b
    return _clark_moments(mu_a, sigma_a, mu_b, sigma_b, capital_phi_quadratic)


def clark_max_fast_arrays(
    mu_a: np.ndarray,
    sigma_a: np.ndarray,
    mu_b: np.ndarray,
    sigma_b: np.ndarray,
    threshold: float = DOMINANCE_THRESHOLD,
) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`clark_max_fast` over NumPy arrays.

    Returns ``(mean, variance)`` arrays, bitwise equal to the scalar
    function element by element: the arithmetic mirrors it operation for
    operation (same dominance test, same quadratic cdf, same order of
    additions), and ``exp`` — where numpy's vectorized version may differ
    from libm in the last bit — is ``math.exp``, applied only to the
    elements that take the Clark branch.
    """
    mu_a = np.asarray(mu_a, dtype=float)
    sigma_a = np.asarray(sigma_a, dtype=float)
    mu_b = np.asarray(mu_b, dtype=float)
    sigma_b = np.asarray(sigma_b, dtype=float)

    var_a = sigma_a * sigma_a
    var_b = sigma_b * sigma_b
    a2 = var_a + var_b
    deterministic = a2 <= 0.0
    a = np.sqrt(np.where(deterministic, 1.0, a2))
    alpha = (mu_a - mu_b) / a
    dom_a = alpha >= threshold
    dom_b = alpha <= -threshold

    # CRC quadratic cdf approximation (capital_phi_quadratic), vectorized.
    ax = np.abs(alpha)
    value = np.where(
        ax <= 2.2,
        0.5 + 0.1 * ax * (4.4 - ax),
        np.where(ax <= 2.6, 0.99, 1.0),
    )
    cdf_pos = np.where(alpha < 0.0, 1.0 - value, value)
    cdf_neg = 1.0 - cdf_pos
    pdf_alpha = np.zeros(alpha.shape)
    clark = np.flatnonzero(~(deterministic | dom_a | dom_b))
    exponent = -0.5 * alpha.flat[clark] * alpha.flat[clark]
    pdf_alpha.flat[clark] = list(map(math.exp, exponent.tolist()))
    pdf_alpha /= _SQRT_2PI

    nu1 = mu_a * cdf_pos + mu_b * cdf_neg + a * pdf_alpha
    nu2 = (
        (mu_a * mu_a + var_a) * cdf_pos
        + (mu_b * mu_b + var_b) * cdf_neg
        + (mu_a + mu_b) * a * pdf_alpha
    )
    mean = nu1
    variance = np.maximum(nu2 - nu1 * nu1, 0.0)

    # Dominance shortcut (Eqs. 5/6): the dominant operand passes through.
    mean = np.where(dom_a, mu_a, np.where(dom_b, mu_b, mean))
    variance = np.where(dom_a, var_a, np.where(dom_b, var_b, variance))

    # Both operands deterministic: plain max, zero variance.
    mean = np.where(deterministic, np.maximum(mu_a, mu_b), mean)
    variance = np.where(deterministic, 0.0, variance)
    return mean, variance


def clark_max_scipy(
    mu_a: float, sigma_a: float, mu_b: float, sigma_b: float
) -> Tuple[float, float]:
    """Reference Clark moments using scipy's normal cdf (for cross-checks)."""
    return _clark_moments(
        mu_a, sigma_a, mu_b, sigma_b, lambda x: float(_scipy_norm.cdf(x))
    )


# ---------------------------------------------------------------------------
# Variance sensitivities for WNSS tracing (paper §4.4)
# ---------------------------------------------------------------------------
def variance_of_max_fast(
    mu_a: float, sigma_a: float, mu_b: float, sigma_b: float
) -> float:
    """Variance of max(A, B) via the fast approximation (helper for sensitivities)."""
    _, var = clark_max_fast(mu_a, sigma_a, mu_b, sigma_b)
    return var


def variance_sensitivities(
    mu_a: float,
    sigma_a: float,
    mu_b: float,
    sigma_b: float,
    coupling: float,
    rel_step: float = 0.01,
) -> Tuple[float, float]:
    """Finite-difference sensitivities of Var[max(A,B)] to the input means.

    Implements §4.4: the partial derivative with respect to ``mu_a`` is
    approximated by a forward difference with step ``h ~= rel_step * mu_a``,
    and — because mean and sigma along a path are correlated — the sigma is
    simultaneously perturbed by ``g = coupling * h`` (the paper's linear
    ``delta_sigma = c * delta_mu`` model).

    Returns ``(dVar/dmu_a, dVar/dmu_b)``.
    """
    if rel_step <= 0:
        raise ValueError("rel_step must be positive")
    base = variance_of_max_fast(mu_a, sigma_a, mu_b, sigma_b)

    h_a = max(abs(mu_a) * rel_step, 1e-6)
    g_a = coupling * h_a
    var_a = variance_of_max_fast(mu_a + h_a, sigma_a + g_a, mu_b, sigma_b)
    sens_a = (var_a - base) / h_a

    h_b = max(abs(mu_b) * rel_step, 1e-6)
    g_b = coupling * h_b
    var_b = variance_of_max_fast(mu_a, sigma_a, mu_b + h_b, sigma_b + g_b)
    sens_b = (var_b - base) / h_b

    return sens_a, sens_b
