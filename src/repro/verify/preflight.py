"""Pre-flight validation: lint circuits *before* compute is spent on them.

Without it, bad inputs surface only once compute is spent on them — a
multi-driver net as a mid-sweep exception, a combinational cycle deep in
levelization, an out-of-table load as a silently extrapolated delay.
:func:`preflight_circuit` runs the DRC catalogue up front and turns ERROR
diagnostics into :class:`~repro.runner.errors.DeterministicError` (a
failure the same inputs always reproduce), so a defective netlist fails in
the parent process before a single cell runs or a single level is timed.

Wired into :func:`repro.flow.run_sizing_flow` (``preflight=`` parameter) and
:func:`repro.runner.sweep.run_cells` (``preflight=`` parameter, CLI
``--no-preflight`` opt-out).  Warnings are reported through ``warn`` (a
callable, by default collected silently) and never block the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.netlist.circuit import Circuit
from repro.runner.errors import DeterministicError
from repro.verify.diagnostics import LintReport
from repro.verify.rules import lint_circuit

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.library.cell import Library


class PreflightError(DeterministicError):
    """A circuit failed pre-flight DRC; rerunning cannot help.

    Carries the full :class:`~repro.verify.diagnostics.LintReport` so
    callers (and tests) can inspect exactly which rules fired.
    """

    def __init__(self, report: LintReport) -> None:
        self.report = report
        first = report.errors[0]
        extra = len(report.errors) - 1
        message = f"pre-flight DRC failed for {report.circuit!r}: {first.format()}"
        if extra:
            message += f" (+{extra} more error(s))"
        super().__init__(message)


def preflight_circuit(
    circuit: Circuit,
    library: Optional[Library] = None,
    warn: Optional[Callable[[str], None]] = None,
) -> LintReport:
    """Lint ``circuit`` and raise :class:`PreflightError` on any ERROR.

    WARNING diagnostics are passed line-by-line to ``warn`` when given
    (e.g. ``print`` or a logger) and otherwise left in the returned report
    for the caller to surface.  Returns the report on success so callers
    can still inspect warnings.
    """
    report = lint_circuit(circuit, library=library)
    if not report.ok:
        raise PreflightError(report)
    if warn is not None:
        for diag in report.warnings:
            warn(f"preflight: {diag.format()}")
    return report
