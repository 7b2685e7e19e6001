"""Efficiency experiments and sweep instrumentation.

Covers the paper's runtime tables — attacker runtimes (Table VII) and
defender training times (Table VIII) — plus :class:`SweepTimings`, the
per-trial instrumentation the parallel scheduler fills in so a claimed
speedup is observable (per-trial wall time, queue latency, worker
utilization), not asserted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .config import (
    ATTACKER_NAMES,
    ExperimentScale,
    defender_names_for,
    make_attacker,
    make_defender,
)
from .runner import CellResult, ExperimentRunner

__all__ = ["attacker_timings", "defender_timings", "TrialTiming", "SweepTimings"]


@dataclass(frozen=True)
class TrialTiming:
    """Instrumentation for one executed trial.

    ``queue_seconds`` is the latency between the scheduler dispatching the
    trial and a worker starting it (0 for in-process execution).  A trial
    is dispatched only once a worker is free, so it holds no wait in the
    pool's own queue;
    ``wall_seconds`` is the trial's own execution time inside the worker.
    """

    label: str
    kind: str
    wall_seconds: float
    queue_seconds: float = 0.0


@dataclass
class SweepTimings:
    """Wall-clock accounting for one sweep execution.

    Populated by the trial executors (see :mod:`repro.experiments.parallel`)
    and exposed on ``executor.timings`` after a run.  ``utilization`` is the
    fraction of the ``jobs × makespan`` worker-second budget actually spent
    executing trials — the honest denominator for "did parallelism help".
    """

    jobs: int = 1
    trials: list[TrialTiming] = field(default_factory=list)
    _started: Optional[float] = field(default=None, repr=False)
    makespan_seconds: float = 0.0

    def start(self) -> None:
        self._started = time.monotonic()

    def finish(self) -> None:
        if self._started is not None:
            self.makespan_seconds = time.monotonic() - self._started

    def record(
        self, label: str, kind: str, wall_seconds: float, queue_seconds: float = 0.0
    ) -> None:
        self.trials.append(
            TrialTiming(
                label=label,
                kind=kind,
                wall_seconds=float(wall_seconds),
                queue_seconds=max(0.0, float(queue_seconds)),
            )
        )

    @property
    def busy_seconds(self) -> float:
        """Total worker-seconds spent executing trials."""
        return sum(t.wall_seconds for t in self.trials)

    @property
    def mean_queue_seconds(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.queue_seconds for t in self.trials) / len(self.trials)

    @property
    def utilization(self) -> float:
        """``busy / (jobs × makespan)`` — 1.0 means no worker ever idled."""
        budget = self.jobs * self.makespan_seconds
        if budget <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / budget)

    def summary(self) -> str:
        """One-line human summary (the CLI prints this for ``--jobs > 1``)."""
        return (
            f"{len(self.trials)} trials in {self.makespan_seconds:.2f}s "
            f"({self.jobs} jobs): busy {self.busy_seconds:.2f}s, "
            f"utilization {100 * self.utilization:.0f}%, "
            f"mean queue {self.mean_queue_seconds * 1000:.0f}ms"
        )


def attacker_timings(
    datasets: Sequence[str],
    attackers: Optional[Sequence[str]] = None,
    config: Optional[ExperimentScale] = None,
    repeats: int = 2,
) -> dict[str, dict[str, CellResult]]:
    """Wall-clock seconds to generate a poison graph (Table VII).

    Rows: attackers; columns: datasets.  Each cell averages ``repeats`` runs
    with distinct attacker seeds at the configured perturbation rate.
    """
    config = config or ExperimentScale.from_env()
    attackers = list(attackers or ATTACKER_NAMES)
    runner = ExperimentRunner(config)
    result: dict[str, dict[str, CellResult]] = {name: {} for name in attackers}
    for dataset in datasets:
        graph = runner.graph(dataset)
        for name in attackers:
            times = []
            for seed in range(repeats):
                attacker = make_attacker(name, dataset, seed=seed)
                attack_result = attacker.attack(graph, perturbation_rate=config.rate)
                times.append(attack_result.runtime_seconds)
            result[name][dataset] = CellResult.from_values(times)
    return result


def defender_timings(
    datasets: Sequence[str],
    defenders: Optional[Sequence[str]] = None,
    config: Optional[ExperimentScale] = None,
    repeats: int = 5,
) -> dict[str, dict[str, CellResult]]:
    """Wall-clock seconds to train each defender on the clean graphs
    (Table VIII; the paper reports clean-graph times as representative).

    Each cell holds ``repeats`` fits with defender seeds ``0..repeats-1``;
    Table VIII reports their median (``CellResult.median``), which one slow
    moment of the host cannot move the way it moves a mean of two.
    """
    config = config or ExperimentScale.from_env()
    runner = ExperimentRunner(config)
    all_defenders = defenders
    result: dict[str, dict[str, CellResult]] = {}
    for dataset in datasets:
        names = list(all_defenders or defender_names_for(dataset))
        graph = runner.graph(dataset)
        for name in names:
            times = []
            for seed in range(repeats):
                defense = make_defender(name, dataset, seed=seed).fit(graph)
                times.append(defense.runtime_seconds)
            result.setdefault(name, {})[dataset] = CellResult.from_values(times)
    return result
