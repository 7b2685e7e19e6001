"""Measured-vs-paper reporting.

Builds a markdown comparison between a measured accuracy grid
(:class:`~repro.experiments.runner.AccuracyTable`) and the paper's reported
numbers (:mod:`repro.experiments.paper`), and evaluates the paper's
qualitative *shape claims* on the measured data — the same claims the
benches assert.

Partial grids are first-class: cells whose trials failed render as ``n/a``,
shape claims that touch a missing cell evaluate to ``False`` rather than
crashing, and :func:`render_failure_appendix` lists every
:class:`~repro.experiments.supervisor.TrialFailure` a fault-tolerant sweep
collected.

Used by ``python -m repro table --compare`` and available directly::

    runner = ExperimentRunner()
    table = runner.accuracy_table("cora")
    print(render_comparison(table))
"""

from __future__ import annotations

from typing import Optional, Sequence

from .paper import paper_accuracy_table
from .runner import AccuracyTable
from .supervisor import TrialFailure

__all__ = ["render_comparison", "evaluate_shape_claims", "render_failure_appendix"]


def _mean(table: AccuracyTable, attacker: str, defender: str) -> Optional[float]:
    cell = table.rows.get(attacker, {}).get(defender)
    return None if cell is None else cell.mean


def evaluate_shape_claims(table: AccuracyTable) -> list[tuple[str, bool]]:
    """The paper's qualitative claims, evaluated on *measured* numbers.

    Mirrors :func:`repro.experiments.paper.shape_claims` (which evaluates
    the same list on the paper's own numbers).  A claim involving a failed
    (``n/a``) cell counts as not holding.
    """
    gcn = {
        attacker: row["GCN"].mean
        for attacker, row in table.rows.items()
        if row.get("GCN") is not None
    }
    attacked = {k: v for k, v in gcn.items() if k != "Clean"}
    strongest = min(attacked, key=attacked.get) if attacked else None  # type: ignore[arg-type]
    peega_row = {
        name: cell for name, cell in table.rows.get("PEEGA", {}).items() if cell is not None
    }

    def _beats_gcn_under_strongest() -> bool:
        if strongest is None:
            return False
        gnat = _mean(table, strongest, "GNAT")
        raw = _mean(table, strongest, "GCN")
        return gnat is not None and raw is not None and gnat > raw

    claims = [
        (
            "PEEGA reduces GCN accuracy below clean",
            gcn.get("PEEGA", 1.0) < gcn.get("Clean", 0.0),
        ),
        (
            "PEEGA is stronger than the spectral black-box GF-Attack",
            gcn.get("PEEGA", 1.0) < gcn.get("GF-Attack", 0.0),
        ),
        (
            "the strongest attacker is Metattack or PEEGA",
            strongest in ("Metattack", "PEEGA"),
        ),
        (
            "GNAT beats raw GCN under the strongest attack",
            _beats_gcn_under_strongest(),
        ),
        (
            "GNAT is the best defender under PEEGA",
            bool(peega_row)
            and max(peega_row, key=lambda d: peega_row[d].mean) == "GNAT",
        ),
    ]
    return claims


def render_comparison(table: AccuracyTable) -> str:
    """Markdown block: measured vs paper per cell, plus the claim scorecard."""
    paper = paper_accuracy_table(table.dataset)
    defenders = list(next(iter(table.rows.values())).keys())
    lines = [
        f"### {table.dataset} @ rate {table.rate} — measured (paper)",
        "",
        "| attacker | " + " | ".join(defenders) + " |",
        "|" + "---|" * (len(defenders) + 1),
    ]
    for attacker, row in table.rows.items():
        cells = [attacker]
        for defender in defenders:
            cell = row[defender]
            reference = paper.get(attacker, {}).get(defender)
            if cell is None:
                cells.append("n/a" if reference is None else f"n/a ({reference:.1f})")
                continue
            measured = 100 * cell.mean
            if reference is None:
                cells.append(f"{measured:.1f} (—)")
            else:
                cells.append(f"{measured:.1f} ({reference:.1f})")
        lines.append("| " + " | ".join(cells) + " |")

    lines.append("")
    lines.append("**Shape claims (measured):**")
    for claim, holds in evaluate_shape_claims(table):
        lines.append(f"- {'✅' if holds else '❌'} {claim}")
    appendix = render_failure_appendix(table.failures)
    if appendix:
        lines.append("")
        lines.append(appendix)
    return "\n".join(lines)


def render_failure_appendix(failures: Sequence[TrialFailure]) -> str:
    """Markdown appendix listing every trial failure of a sweep.

    Empty string when the sweep was clean, so callers can append
    unconditionally.
    """
    if not failures:
        return ""
    lines = [f"**Failure appendix ({len(failures)} trial failure"
             f"{'s' if len(failures) != 1 else ''}):**"]
    for failure in failures:
        lines.append(f"- {failure.summary()}")
        last_frame = _last_traceback_line(failure.traceback)
        if last_frame:
            lines.append(f"  - {last_frame}")
    return "\n".join(lines)


def _last_traceback_line(tb: str) -> str:
    frames = [line.strip() for line in tb.splitlines() if line.strip().startswith("File ")]
    return frames[-1] if frames else ""
