"""Experiment runner: attack → defense grids with poison-graph caching.

Regenerates the accuracy tables (IV–VI) and all accuracy-vs-parameter
figures.  Poisoned graphs are cached per (dataset, attacker, rate,
dataset-seed, scale) so a table's eight defender columns reuse one attack
run, exactly as the paper's protocol (generate poison graphs once, evaluate
all defenders).

Grid sweeps are fault tolerant: every (dataset, attacker, rate, defender,
seed) trial runs under a :class:`~repro.experiments.supervisor.TrialSupervisor`
(bounded retries with per-attempt reseeding, optional wall-clock deadline),
so one diverging trainer yields a structured
:class:`~repro.experiments.supervisor.TrialFailure` and an ``n/a`` cell
instead of a crashed sweep.  With a
:class:`~repro.experiments.supervisor.SweepCheckpoint` attached, completed
cells and poison graphs are journalled after every cell and an interrupted
sweep resumes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..attacks.base import AttackResult
from ..datasets import load_dataset
from ..defenses.base import Defender
from ..graph import Graph
from ..utils.keystore import KeyedArtifactStore
from .config import ExperimentScale, defender_names_for, make_defender
from .supervisor import SweepCheckpoint, TrialFailure, TrialKey, TrialSupervisor

__all__ = ["CellResult", "AccuracyTable", "ExperimentRunner"]

CLEAN_ROW = "Clean"


@dataclass(frozen=True)
class CellResult:
    """Mean ± std over seeds for one (attacker, defender) cell."""

    mean: float
    std: float
    values: tuple[float, ...]

    @classmethod
    def from_values(cls, values: list[float]) -> "CellResult":
        array = np.asarray(values, dtype=np.float64)
        return cls(mean=float(array.mean()), std=float(array.std()), values=tuple(values))

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    def __str__(self) -> str:
        return f"{100 * self.mean:.2f}±{100 * self.std:.2f}"


@dataclass
class AccuracyTable:
    """One of the paper's accuracy grids (rows: attackers, cols: defenders).

    Cells are ``None`` when their trial failed or was quarantined; the
    corresponding :class:`TrialFailure` records live in :attr:`failures`.
    """

    dataset: str
    rate: float
    rows: dict[str, dict[str, Optional[CellResult]]] = field(default_factory=dict)
    failures: list[TrialFailure] = field(default_factory=list)

    @property
    def num_failed_cells(self) -> int:
        return sum(1 for row in self.rows.values() for cell in row.values() if cell is None)

    def best_defender(self, attacker: str) -> Optional[str]:
        """Column the paper would bracket: highest accuracy under ``attacker``.

        ``None`` when every cell of the row is missing.
        """
        row = {name: cell for name, cell in self.rows[attacker].items() if cell is not None}
        if not row:
            return None
        return max(row, key=lambda name: row[name].mean)

    def strongest_attacker(self, defender: str) -> Optional[str]:
        """Row the paper would bold: lowest accuracy for ``defender``.

        ``None`` when no attacked row has a value for ``defender``.
        """
        candidates = {
            attacker: row[defender].mean
            for attacker, row in self.rows.items()
            if attacker != CLEAN_ROW and row.get(defender) is not None
        }
        if not candidates:
            return None
        return min(candidates, key=candidates.get)  # type: ignore[arg-type]


class ExperimentRunner:
    """Builds datasets, runs attacks once, and evaluates defender grids."""

    def __init__(
        self,
        config: Optional[ExperimentScale] = None,
        dataset_seed: int = 0,
        supervisor: Optional[TrialSupervisor] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        executor=None,
        validate: str = "strict",
    ) -> None:
        self.config = config or ExperimentScale.from_env()
        self.dataset_seed = int(dataset_seed)
        self.supervisor = supervisor
        self.checkpoint = checkpoint
        # Trial executor for grid sweeps (see repro.experiments.parallel):
        # None means a fresh in-process executor per sweep (--jobs 1).
        self.executor = executor
        # Graph contract validation policy, threaded through dataset loads,
        # attack entry points, and defender fits (see repro.graph.validate).
        self.validate = validate
        self._graphs: dict[str, Graph] = {}
        # Poison cache: byte-accounted and evictable under the process
        # --cache-bytes budget, but an entry stays *pinned* until a
        # checkpoint archive holds a copy — eviction must never lose the
        # only copy of a poison (checkpoint.load_poison is the reload path).
        self._poisons = KeyedArtifactStore(f"poisons@{hex(id(self))}")

    # ------------------------------------------------------------------
    def graph(self, dataset: str) -> Graph:
        """The (cached) clean graph for ``dataset`` at the configured scale."""
        key = dataset.lower()
        if key not in self._graphs:
            self._graphs[key] = load_dataset(
                key,
                scale=self.config.scale,
                seed=self.dataset_seed,
                validate=self.validate,
            )
        return self._graphs[key]

    def _poison_key(
        self, dataset: str, attacker_name: str, rate: float
    ) -> tuple[str, str, float, int, float]:
        # dataset_seed and scale are part of the key: mutating runner config
        # mid-process must never serve a poison generated for another graph
        # instance.
        return (dataset.lower(), attacker_name, rate, self.dataset_seed, self.config.scale)

    def _poison_lookup(
        self, dataset: str, attacker_name: str, rate: float
    ) -> Optional[AttackResult]:
        """The row's poison from the cache, else from the checkpoint, else ``None``."""
        key = self._poison_key(dataset, attacker_name, rate)
        result = self._poisons.get(key)
        if result is None and self.checkpoint is not None:
            result = self.checkpoint.load_poison(*key)
            if result is not None:
                # The archive backs this entry, so it may be evicted and
                # transparently reloaded here on the next lookup.
                self._poisons.put(key, result)
        return result

    def _store_poison(
        self, dataset: str, attacker_name: str, rate: float, result: AttackResult
    ) -> Optional[Path]:
        """Cache a fresh poison and persist it; returns the archive path."""
        key = self._poison_key(dataset, attacker_name, rate)
        self._poisons.put(key, result, pinned=True)
        if self.checkpoint is None:
            return None
        path = self.checkpoint.save_poison(*key, result)
        self._poisons.unpin(key)
        return path

    def attack(
        self, dataset: str, attacker_name: str, rate: Optional[float] = None
    ) -> AttackResult:
        """Run (or fetch the cached) attack on a dataset.

        A cache miss runs attempt 0 of the sweep's attack trial body
        (:func:`~repro.experiments.parallel.trial_body`) on the clean graph.
        """
        from .parallel import trial_body

        rate = self.config.rate if rate is None else rate
        result = self._poison_lookup(dataset, attacker_name, rate)
        if result is None:
            key = TrialKey(dataset=dataset.lower(), attacker=attacker_name, rate=rate)
            result = trial_body("attack", key, self.graph(dataset), self.validate)(0)
            self._store_poison(dataset, attacker_name, rate, result)
        return result

    # ------------------------------------------------------------------
    def evaluate_defender(
        self,
        graph: Graph,
        dataset: str,
        defender_name: str,
        defender_factory: Optional[Callable[[int], Defender]] = None,
    ) -> CellResult:
        """Average a defender's test accuracy over the configured seeds."""
        factory = defender_factory or (
            lambda seed: make_defender(defender_name, dataset, seed=seed)
        )
        values = [
            factory(seed).fit(graph, validate=self.validate).test_accuracy
            for seed in range(self.config.seeds)
        ]
        return CellResult.from_values(values)

    # -- supervised sweep ----------------------------------------------
    def accuracy_table(
        self,
        dataset: str,
        attackers: Optional[list[str]] = None,
        defenders: Optional[list[str]] = None,
        rate: Optional[float] = None,
        include_clean: bool = True,
    ) -> AccuracyTable:
        """Regenerate a Table IV/V/VI-style grid for ``dataset``.

        The sweep is planned as a dependency DAG and handed to the runner's
        :class:`~repro.experiments.parallel.ParallelTrialExecutor`, which
        runs trials in this process by default or fans them out to worker
        processes with bit-identical results (see
        ``docs/parallel_sweeps.md``).  Every trial runs under the
        :class:`TrialSupervisor` retry/deadline policy and the scheduler's
        quarantine; failed
        cells come back as ``None`` with their :class:`TrialFailure`
        records on ``table.failures`` and journalled to the checkpoint.
        Interrupts (``KeyboardInterrupt`` or an injected kill) propagate —
        with a checkpoint attached, a rerun with ``resume=True`` picks up
        after the last completed cell.
        """
        from .config import ATTACKER_NAMES
        from .parallel import ParallelTrialExecutor, SweepPlan, assemble_table

        attackers = attackers if attackers is not None else list(ATTACKER_NAMES)
        defenders = defenders if defenders is not None else defender_names_for(dataset)
        rate = self.config.rate if rate is None else rate
        supervisor = self.supervisor or TrialSupervisor()

        rows: list[str] = ([CLEAN_ROW] if include_clean else []) + list(attackers)
        cached: dict[tuple[str, str], list[float]] = {}
        if self.checkpoint is not None:
            for row in rows:
                for name in defenders:
                    values = self.checkpoint.cell_values(dataset.lower(), row, rate, name)
                    if values is not None:
                        cached[(row, name)] = values

        plan = SweepPlan.build(
            dataset=dataset,
            rows=rows,
            defenders=list(defenders),
            rate=rate,
            seeds=self.config.seeds,
            completed=set(cached),
        )
        executor = self.executor or ParallelTrialExecutor(1)
        outcomes = executor.run(plan, self, supervisor)
        table = assemble_table(plan, outcomes, cached)
        # Failures are journalled at merge time, in canonical order, wherever
        # the trials ran; a kill loses at most failure records (cells are
        # journalled the moment they complete), and the lost trials simply
        # rerun on --resume.
        if self.checkpoint is not None:
            for failure in table.failures:
                self.checkpoint.record_failure(failure)
        return table
