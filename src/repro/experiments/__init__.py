"""Experiment harness regenerating every table and figure of the paper."""

from .config import (
    ATTACKER_NAMES,
    DEFENDER_NAMES,
    ExperimentScale,
    defender_names_for,
    make_attacker,
    make_defender,
)
from .parallel import (
    ParallelTrialExecutor,
    SweepPlan,
    TrialTask,
    assemble_table,
    make_executor,
)
from .report import evaluate_shape_claims, render_comparison, render_failure_appendix
from .runner import AccuracyTable, CellResult, ExperimentRunner
from .supervisor import (
    SweepCheckpoint,
    TrialFailure,
    TrialKey,
    TrialOutcome,
    TrialPolicy,
    TrialSupervisor,
)
from .tables import format_accuracy_table, format_series, format_timing_table
from .timing import SweepTimings, TrialTiming, attacker_timings, defender_timings

__all__ = [
    "ExperimentScale",
    "ATTACKER_NAMES",
    "DEFENDER_NAMES",
    "make_attacker",
    "make_defender",
    "defender_names_for",
    "ExperimentRunner",
    "AccuracyTable",
    "CellResult",
    "SweepCheckpoint",
    "TrialFailure",
    "TrialKey",
    "TrialOutcome",
    "TrialPolicy",
    "TrialSupervisor",
    "render_comparison",
    "render_failure_appendix",
    "evaluate_shape_claims",
    "format_accuracy_table",
    "format_timing_table",
    "format_series",
    "attacker_timings",
    "defender_timings",
    "SweepPlan",
    "TrialTask",
    "ParallelTrialExecutor",
    "make_executor",
    "assemble_table",
    "SweepTimings",
    "TrialTiming",
]
