"""Errors and numerical-health guards shared by the flow and the sweep runner.

:class:`DeterministicError` marks a failure the same inputs always
reproduce (pre-flight DRC raises it before any compute is spent), and
:class:`NumericalHealthError` is raised by the finite-moment guards below,
so NaN/inf moments or negative sigmas fail loudly instead of reaching an
artifact or a table.
"""

from __future__ import annotations

import math
from typing import Optional


class DeterministicError(RuntimeError):
    """A failure the same inputs will always reproduce.

    Raised when a defect is *provably* input-determined — most prominently
    by the pre-flight DRC hooks
    (:class:`repro.verify.preflight.PreflightError`), which fail a
    defective netlist before any cell is evaluated.
    """


class NumericalHealthError(ValueError):
    """An engine produced NaN/inf moments or a negative sigma.

    Raised by the finite-moment guards in :mod:`repro.flow` and
    :func:`repro.runner.sweep.evaluate_cell` so numerically-poisoned
    results fail loudly instead of propagating silently into artifacts.
    Deterministic by definition — the same inputs reproduce it.
    """


def ensure_finite_moments(
    mean: float, sigma: float, context: str, area: Optional[float] = None
) -> None:
    """Raise :class:`NumericalHealthError` unless the moments are healthy.

    Healthy means finite mean and sigma, ``sigma >= 0`` and (when given) a
    finite, non-negative area.
    """
    if not math.isfinite(mean) or not math.isfinite(sigma):
        raise NumericalHealthError(
            f"{context}: non-finite moments mean={mean!r} sigma={sigma!r}"
        )
    if sigma < 0:
        raise NumericalHealthError(f"{context}: negative sigma {sigma!r}")
    if area is not None and (not math.isfinite(area) or area < 0):
        raise NumericalHealthError(f"{context}: unhealthy area {area!r}")


def check_payload_health(payload: object, context: str) -> None:
    """Recursively reject NaN/inf numbers (and negative sigmas) in a payload.

    Used on every cell-result dict before it is persisted: a poisoned value
    anywhere in the artifact would silently corrupt downstream tables.
    Keys naming a sigma moment (``sigma`` / ``*_sigma``) must additionally
    be non-negative; percentage deltas like ``sigma_reduction_pct`` are
    legitimately negative and are not constrained.
    """
    _check_health(payload, context)


def _is_sigma_key(context: str) -> bool:
    leaf = context.rpartition(".")[2]
    return leaf == "sigma" or leaf.endswith("_sigma")


def _check_health(value: object, context: str) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise NumericalHealthError(f"{context}: non-finite value {value!r}")
        if value < 0 and _is_sigma_key(context):
            raise NumericalHealthError(f"{context}: negative sigma {value!r}")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _check_health(item, f"{context}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_health(item, f"{context}[{i}]")
