"""Deterministic static timing analysis substrate.

Provides the classic corner-based STA the paper's statistical machinery is
contrasted against: nominal arrival times, required times, slacks, and the
Worst Negative Slack (WNS) critical path.  The deterministic critical path
is also what the baseline mean-delay sizer optimizes.
"""

from repro.sta.dsta import DeterministicSTA, DeterministicTimingReport, NominalTimer

__all__ = ["DeterministicSTA", "DeterministicTimingReport", "NominalTimer"]
