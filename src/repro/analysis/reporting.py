"""Plain-text table rendering for benchmark output."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Render an aligned ASCII table.

    Every row must have the same number of cells as ``headers``.
    """
    if not headers:
        raise ValueError("headers must not be empty")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells; expected {len(headers)}"
            )
    columns = [[str(header)] + [str(row[i]) for row in rows] for i, header in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
