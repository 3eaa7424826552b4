"""Table-1 style metrics.

The paper summarises every (circuit, lambda) experiment with five numbers:
the change in mean delay, the change in sigma, the resulting sigma/mu ratio,
the change in area, and the runtime.  :class:`Table1Row` holds one such row
plus the raw quantities it was derived from; :func:`summarize_rows` computes
the headline averages the abstract quotes (72 % sigma reduction for 20 %
area at lambda = 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.flow import FlowResult


@dataclass
class Table1Row:
    """One (circuit, lambda) entry of the paper's Table 1."""

    circuit: str
    lam: float
    gates: int
    original_cv: float
    mean_increase_pct: float
    sigma_change_pct: float  # negative = reduction, matching the paper's sign
    final_cv: float
    area_increase_pct: float
    runtime_seconds: float
    original_mean: float = 0.0
    original_sigma: float = 0.0
    final_mean: float = 0.0
    final_sigma: float = 0.0

    @classmethod
    def from_flow(cls, circuit_name: str, flow: FlowResult) -> "Table1Row":
        return cls(
            circuit=circuit_name,
            lam=flow.lam,
            gates=flow.circuit.num_gates(),
            original_cv=flow.original_cv,
            mean_increase_pct=flow.mean_increase_pct,
            sigma_change_pct=-flow.sigma_reduction_pct,
            final_cv=flow.final_cv,
            area_increase_pct=flow.area_increase_pct,
            runtime_seconds=flow.sizer_result.runtime_seconds,
            original_mean=flow.original_rv.mean,
            original_sigma=flow.original_rv.sigma,
            final_mean=flow.final_rv.mean,
            final_sigma=flow.final_rv.sigma,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "circuit": self.circuit,
            "lambda": self.lam,
            "gates": self.gates,
            "original_cv": self.original_cv,
            "mean_increase_pct": self.mean_increase_pct,
            "sigma_change_pct": self.sigma_change_pct,
            "final_cv": self.final_cv,
            "area_increase_pct": self.area_increase_pct,
            "runtime_seconds": self.runtime_seconds,
        }


def summarize_rows(rows: Iterable[Table1Row]) -> Dict[str, float]:
    """Averages over a set of Table-1 rows (the paper's headline numbers)."""
    rows = list(rows)
    if not rows:
        return {
            "num_circuits": 0,
            "avg_sigma_reduction_pct": 0.0,
            "avg_area_increase_pct": 0.0,
            "avg_mean_increase_pct": 0.0,
        }
    return {
        "num_circuits": len(rows),
        "avg_sigma_reduction_pct": -sum(r.sigma_change_pct for r in rows) / len(rows),
        "avg_area_increase_pct": sum(r.area_increase_pct for r in rows) / len(rows),
        "avg_mean_increase_pct": sum(r.mean_increase_pct for r in rows) / len(rows),
    }
