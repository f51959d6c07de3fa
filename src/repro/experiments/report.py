"""Small helpers for rendering experiment results as text tables."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from repro.utils.stats import CdfSeries


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render rows as a fixed-width text table.

    Numbers are formatted compactly (4 significant digits for floats); all
    other values use ``str``.  Used by every experiment's ``format_report``
    and by the benchmark harness so the regenerated tables read like the
    paper's.
    """

    def render(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000 or abs(cell) < 0.001:
                return f"{cell:.3e}"
            return f"{cell:.4g}"
        return str(cell)

    rendered_rows = [[render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_cdf_summary(name: str, points: CdfSeries,
                       fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)) -> str:
    """Summarise a CDF by reporting the value at a handful of fractions:
    the first point whose fraction reaches each (a CDF's fractions never
    decrease), else the last."""
    if not points:
        return f"{name}: (empty)"
    values = []
    for target in fractions:
        value = points.value[min(bisect_left(points.fraction, target), len(points) - 1)]
        values.append(f"p{int(target * 100)}={value:.4g}")
    return f"{name}: " + ", ".join(values)
