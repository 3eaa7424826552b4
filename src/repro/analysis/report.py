"""Plain-text table rendering for experiment results.

The benchmark harnesses and examples print their results through these
helpers so the regenerated Table 1 / Figure 4 data appears in the same
shape as the paper's tables, making paper-vs-measured comparison easy.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.analysis.experiments import Fig4Point
from repro.analysis.metrics import Table1Row, summarize_rows


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for cells in rendered:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))))
    return "\n".join(lines)


def format_table1(rows: Iterable[Table1Row], include_summary: bool = True) -> str:
    """Render Table-1 rows in the paper's column order, grouped by lambda."""
    rows = list(rows)
    headers = [
        "circuit",
        "gates",
        "lambda",
        "orig s/m",
        "dMean%",
        "dSigma%",
        "s/m",
        "dArea%",
        "runtime_s",
    ]
    body = [
        (
            r.circuit,
            r.gates,
            f"{r.lam:g}",
            f"{r.original_cv:.3f}",
            f"{r.mean_increase_pct:+.1f}",
            f"{r.sigma_change_pct:+.1f}",
            f"{r.final_cv:.3f}",
            f"{r.area_increase_pct:+.1f}",
            f"{r.runtime_seconds:.1f}",
        )
        for r in sorted(rows, key=lambda r: (r.lam, r.circuit))
    ]
    text = format_table(headers, body)
    if include_summary:
        for lam in sorted({r.lam for r in rows}):
            summary = summarize_rows([r for r in rows if r.lam == lam])
            text += (
                f"\naverage (lambda={lam:g}): "
                f"sigma reduction {summary['avg_sigma_reduction_pct']:.1f}%, "
                f"area increase {summary['avg_area_increase_pct']:.1f}%, "
                f"mean increase {summary['avg_mean_increase_pct']:.1f}%"
            )
    return text


def format_fig4(points: Iterable[Fig4Point]) -> str:
    """Render the Fig. 4 sweep as a normalized (mean, sigma) table."""
    headers = ["lambda", "mean_ps", "sigma_ps", "mean/mu0", "sigma/mu0", "area_um2"]
    body = [
        (
            f"{p.lam:g}",
            f"{p.mean:.1f}",
            f"{p.sigma:.2f}",
            f"{p.normalized_mean:.4f}",
            f"{p.normalized_sigma:.4f}",
            f"{p.area:.0f}",
        )
        for p in points
    ]
    return format_table(headers, body)


def format_pdf_curve(
    pdf_tuples: Sequence[Sequence[float]], width: int = 50, label: str = ""
) -> str:
    """Tiny ASCII rendering of a discrete pdf (used by the Fig. 1 example)."""
    if not pdf_tuples:
        return f"{label}: (empty)"
    max_p = max(p for _, p in pdf_tuples) or 1.0
    lines = [f"{label}"] if label else []
    for value, prob in pdf_tuples:
        bar = "#" * int(round(width * prob / max_p))
        lines.append(f"{value:10.1f} ps | {bar}")
    return "\n".join(lines)
