"""Plain-text rendering of experiment results in the paper's table style."""

from __future__ import annotations

from typing import Mapping, Sequence

from .runner import AccuracyTable, CellResult

__all__ = ["format_accuracy_table", "format_timing_table", "format_series"]


def format_accuracy_table(table: AccuracyTable, title: str = "") -> str:
    """Render an :class:`AccuracyTable` like the paper's Tables IV–VI.

    The best defender per attacker row is wrapped in ``( )`` and the
    strongest attacker per defender column is marked with ``*``, mirroring
    the paper's parentheses/bold conventions.  Cells whose trials failed
    (``None``) render as ``n/a``; partial grids annotate the failure count
    below the table (full records go in the report's failure appendix).
    """
    defenders = list(next(iter(table.rows.values())).keys())
    strongest = {
        name: table.strongest_attacker(name)
        for name in defenders
        if any(a != "Clean" for a in table.rows)
    }
    header = ["Attacker"] + defenders
    lines = []
    if title:
        lines.append(title)
    widths = [max(12, len(h) + 2) for h in header]

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines.append(fmt_row(header))
    lines.append("-+-".join("-" * width for width in widths))
    for attacker, row in table.rows.items():
        best = table.best_defender(attacker)
        cells = [attacker]
        for name in defenders:
            cell = row[name]
            if cell is None:
                cells.append("n/a")
                continue
            text = str(cell)
            if name == best:
                text = f"({text})"
            if strongest.get(name) == attacker:
                text = f"*{text}"
            cells.append(text)
        lines.append(fmt_row(cells))
    failed = table.num_failed_cells
    if failed:
        lines.append(
            f"[{failed} cell{'s' if failed != 1 else ''} n/a — "
            f"{len(table.failures)} trial failure"
            f"{'s' if len(table.failures) != 1 else ''}; see failure appendix]"
        )
    return "\n".join(lines)


def format_timing_table(
    timings: Mapping[str, Mapping[str, CellResult]],
    title: str = "",
    unit: str = "s",
    statistic: str = "mean",
) -> str:
    """Render a Table VII/VIII-style timing grid (rows: methods, cols: datasets).

    Rows may be ragged (e.g. GCN-Jaccard has no Polblogs column); missing
    cells render as ``—``.  ``statistic="mean"`` renders ``mean±std``;
    ``"median"`` renders the median with the range of the values.  The
    fastest method of each column (by that statistic) is parenthesized.
    """
    if statistic not in ("mean", "median"):
        raise ValueError(f"statistic must be 'mean' or 'median', got {statistic!r}")

    def value(cell: CellResult) -> float:
        return cell.mean if statistic == "mean" else cell.median

    def render(cell: CellResult) -> str:
        if statistic == "mean":
            return f"{cell.mean:.2f}±{cell.std:.2f}{unit}"
        return f"{cell.median:.2f}{unit} [{min(cell.values):.2f}–{max(cell.values):.2f}]"

    datasets: list[str] = []
    for row in timings.values():
        for ds in row:
            if ds not in datasets:
                datasets.append(ds)
    header = ["Method"] + datasets
    best = {
        ds: min(
            (m for m in timings if ds in timings[m]),
            key=lambda m: value(timings[m][ds]),
        )
        for ds in datasets
    }
    rows = []
    for method, row in timings.items():
        cells = [method]
        for ds in datasets:
            if ds not in row:
                cells.append("—")
                continue
            text = render(row[ds])
            if best[ds] == method:
                text = f"({text})"
            cells.append(text)
        rows.append(cells)
    widths = [
        max(14, len(h) + 2, *(len(cells[i]) for cells in rows))
        for i, h in enumerate(header)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for cells in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    percent: bool = True,
) -> str:
    """Render figure data as a text table: one column per x, one row per line."""
    header = [x_label] + [str(x) for x in x_values]
    widths = [max(12, len(h) + 2) for h in header]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for name, values in series.items():
        cells = [name] + [
            (f"{100 * v:.2f}" if percent else f"{v:.4g}") for v in values
        ]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
