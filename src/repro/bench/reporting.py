"""Paper-style ASCII reporting: aligned tables.

Every row of the experiment table prints its result through
:class:`Table`, so each experiment's output reads like the series table
it reproduces.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigError


class Table:
    """Fixed-width ASCII table with a title and typed columns."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row; cells are str()-ed, floats get 1-3 decimals."""
        if len(cells) != len(self.columns):
            raise ConfigError(
                f"expected {len(self.columns)} cells, got {len(cells)}")
        self.rows.append([self._format(c) for c in cells])

    @staticmethod
    def _format(cell: Any) -> str:
        if isinstance(cell, float):
            if cell >= 100:
                return f"{cell:.1f}"
            if cell >= 1:
                return f"{cell:.2f}"
            return f"{cell:.3f}"
        return str(cell)

    def render(self) -> str:
        """The full table as a string."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w)
                            for c, w in zip(self.columns, widths))
        lines = [self.title, "=" * max(len(self.title), len(header)),
                 header, sep]
        for row in self.rows:
            lines.append(" | ".join(cell.rjust(w)
                                    for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        """Print with surrounding blank lines (readable under pytest -s)."""
        print("\n" + self.render() + "\n")

