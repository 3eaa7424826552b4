"""Machine-speed probe that runs alongside the timed flow.

On a machine shared with other tenants the speed of one core drifts by
20-40 % from second to second with their load, and the same 10 s flow
timed on two occasions differs by as much (measured on a 2-vCPU Intel Xeon
guest: wall-clock IQR 19 % of the median over eight c7552 flows).
:class:`SpeedProbe` measures that drift while the flow runs.  A real-time
interval timer interrupts the process every ``INTERVAL_S`` seconds and
times one fixed calibration slice (interpreter work plus small numpy ops,
the flow's own mix).  The flow's wall-clock, minus the slices' own time, is
rescaled by the mean speed the slices saw, relative to a reference slice
duration.  On the same eight flows that cut the IQR to 3.3 % of the median.

The slices call no code of ``repro``.  They do run in whatever cache state
the flow leaves behind, so a change that grows or shrinks the flow's
working set can move the scale a little; the raw wall-clock is reported
next to the normalized time for that reason.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List, Sequence

import numpy as np

INTERVAL_S = 0.05
#: Duration of one calibration slice, run between stretches of the flow, on
#: a quiet core of the machine the benchmark was written on (Intel Xeon
#: vCPU, CPython 3.11, numpy 2.4): normalized seconds are seconds on that
#: core.
REFERENCE_SLICE_S = 0.34e-3

_VALUES = np.linspace(0.0, 1.0, 13)
_PROBS = np.full(13, 1.0 / 13.0)


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


_NODES = {i: _Node(float(i)) for i in range(97)}


def calibration_slice() -> float:
    acc = 0.0
    for i in range(800):
        node = _NODES[i % 97]
        node.value = node.value * 0.5 + 1.0
        acc += node.value
    for _ in range(8):
        values = np.add.outer(_VALUES, _VALUES).ravel()
        _, inverse = np.unique(values, return_inverse=True)
        acc += float(np.bincount(inverse, np.multiply.outer(_PROBS, _PROBS).ravel()).sum())
    return acc


def timed_slice() -> float:
    """Seconds one calibration slice takes now."""
    start = time.perf_counter()
    calibration_slice()
    return time.perf_counter() - start


def speed_factor(slices: Sequence[float]) -> float:
    """Reference speed over the mean speed of ``slices`` (durations).

    Slices taken at even time steps weight the speed by time, so the mean
    is over the per-slice speeds ``1 / duration``.
    """
    return REFERENCE_SLICE_S * sum(1.0 / d for d in slices) / len(slices)


class SpeedProbe:
    """Context manager timing calibration slices while its body runs."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        self.slices.append(timed_slice())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def overhead_s(self) -> float:
        """Time spent in the slices themselves."""
        return sum(self.slices)

    @property
    def factor(self) -> float:
        """Multiply a time measured inside the probe by it to normalize it."""
        return speed_factor(self.slices) if self.slices else 1.0

    def normalize(self, wall_s: float) -> float:
        """``wall_s`` (measured inside the probe) at the reference speed."""
        return (wall_s - self.overhead_s) * self.factor
