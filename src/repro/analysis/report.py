"""Plain-text table rendering.

The benchmark harness prints each reproduced table and figure as an
aligned text table (the closest stable equivalent of the paper's plots
for a terminal), always showing the paper's reference values alongside
the measured ones.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def format_count(value: Any) -> str:
    """Human-friendly numeric formatting for table cells."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 1:
            return f"{value:.3f}"
        if abs(value) < 100:
            return f"{value:.1f}"
        return f"{value:,.0f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned text table with a title rule."""
    text_rows: List[List[str]] = [
        [format_count(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    header_line = "  ".join(h.ljust(widths[i])
                            for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)

