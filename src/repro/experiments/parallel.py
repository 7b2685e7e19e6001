"""Sweep execution: one DAG scheduler, two places a trial can run, and a
deterministic merge.

The paper's accuracy grids are embarrassingly parallel — hundreds of
independent (attacker, defender, seed) trials.  This module turns a sweep
into an explicit dependency DAG and executes it without changing a single
reported number:

:class:`SweepPlan`
    Topologically ordered list of :class:`TrialTask` s in *canonical order*.
    Poison-graph generation (one ``attack`` task per attacked row) precedes
    the row's defense trials; everything else is independent and fans out.

:class:`ParallelTrialExecutor`
    The scheduler: one ready queue, popped in canonical order while fewer
    than ``jobs`` trials run.  It resolves cached poisons and quarantined
    methods at pop time without running them, and journals each cell the
    moment it completes.  With ``jobs == 1`` (``--jobs 1``, the default)
    every trial runs in the calling process, in canonical order; with
    ``jobs >= 2`` trials run on a ``ProcessPoolExecutor`` and workers
    return structured outcomes (never raise ``Exception``).  Both places
    run the same trial body, :func:`trial_body`.  Quarantine and journal
    writes stay in the scheduler, so checkpoint/resume is crash-consistent
    under any completion order.

:func:`assemble_table`
    Deterministic merge: outcomes are folded into an
    :class:`~repro.experiments.runner.AccuracyTable` in canonical order,
    so completion order can never change a cell, the failure appendix, or
    a mean/stddev.  Parallel output is bit-identical to in-process output.

Determinism rests on two facts the test suite pins down: every trial is
explicitly seeded (``make_defender(seed)``, per-attempt reseeds via
:data:`~repro.experiments.supervisor.RESEED_STRIDE`), and dataset
generation is a pure function of ``(name, scale, seed)`` — so a trial
computes the same float no matter which process runs it.

Fault injection crosses the process boundary explicitly: each task ships a
copy of the active injector's specs plus the trial's canonical per-site
ordinal, and the worker seeds a fresh injector with it
(:meth:`~repro.utils.faults.FaultInjector.seed_counters`), so ``at=N``
rules fire on the same trial as in an in-process run.  ``times=N`` rules
become per-trial budgets in workers (each worker's injector counts its
own firings); sweep-global ``times`` accounting cannot exist without
cross-process synchronization and is documented as per-trial in
``docs/parallel_sweeps.md``.  Injected kills (``BaseException``) pickle
back through the pool and abort the sweep, exactly like an operator
``KeyboardInterrupt``.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import shutil
import signal
import tempfile
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

import multiprocessing

from ..attacks.base import AttackResult
from ..errors import CapacityWarning, ConfigError, DegradedWarning
from ..graph import Graph
from ..io import spill_graph
from ..utils import cancellation, faults
from ..utils.keystore import cache_bytes, estimate_nbytes, set_cache_bytes
from ..utils.resources import cpu_count, enforced_budget, enforced_limit, install_budget
from ..utils.snapshots import TrialSnapshotter
from .config import make_attacker, make_defender
from .supervisor import (
    RESEED_STRIDE,
    SweepCheckpoint,
    TrialFailure,
    TrialKey,
    TrialOutcome,
    TrialPolicy,
    TrialSupervisor,
    write_poison,
)
from .timing import SweepTimings

if TYPE_CHECKING:
    from .runner import ExperimentRunner

__all__ = [
    "TrialTask",
    "SweepPlan",
    "ParallelTrialExecutor",
    "make_executor",
    "trial_body",
    "assemble_table",
]

CLEAN_ROW = "Clean"

# A trial whose pool worker dies more often than this becomes a structured
# failure instead of an endless kill loop.
_MAX_WORKER_DEATHS = 3

# How long a hung worker the heartbeat monitor SIGTERMs gets to snapshot
# and exit before it is SIGKILLed.
_KILL_GRACE_SECONDS = 2.0


# ---------------------------------------------------------------------------
# Planning


@dataclass(frozen=True)
class TrialTask:
    """One node of the sweep DAG.

    ``index`` is the task's position in canonical (in-process) order and is the
    key every executor reports outcomes under.  ``depends_on`` is the index
    of the attack task whose poison graph this defense trial trains on
    (``None`` for attack tasks and for the Clean row).  ``site_ordinal`` is
    the trial's canonical per-site fault-injection index (see
    :meth:`~repro.utils.faults.FaultInjector.seed_counters`).
    """

    index: int
    kind: str  # "attack" | "defense"
    key: TrialKey
    depends_on: Optional[int] = None
    site_ordinal: int = 0


@dataclass
class SweepPlan:
    """A sweep's trials in canonical order, with row/cell indexes.

    ``dataset`` keeps the caller's original casing (it labels the table);
    trial keys are lowercased like everywhere else in the harness.
    """

    dataset: str
    rate: float
    rows: list[str]
    defenders: list[str]
    seeds: int
    tasks: list[TrialTask] = field(default_factory=list)
    attack_tasks: dict[str, TrialTask] = field(default_factory=dict)
    cell_tasks: dict[tuple[str, str], list[TrialTask]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        dataset: str,
        rows: list[str],
        defenders: list[str],
        rate: float,
        seeds: int,
        completed: Optional[set[tuple[str, str]]] = None,
    ) -> "SweepPlan":
        """Plan a grid sweep.

        ``completed`` holds (row, defender) cells already present in a
        checkpoint: their defense tasks are omitted, and a row whose cells
        are *all* cached gets no attack task either (its poison graph is
        never needed — the poison cache fast-path covers partial rows).
        """
        completed = completed or set()
        plan = cls(
            dataset=dataset,
            rate=float(rate),
            rows=list(rows),
            defenders=list(defenders),
            seeds=int(seeds),
        )
        lower = dataset.lower()
        site_ordinals = {"attacker": 0, "defender": 0}

        def add(kind: str, key: TrialKey, depends_on: Optional[int]) -> TrialTask:
            site = "attacker" if kind == "attack" else "defender"
            task = TrialTask(
                index=len(plan.tasks),
                kind=kind,
                key=key,
                depends_on=depends_on,
                site_ordinal=site_ordinals[site],
            )
            site_ordinals[site] += 1
            plan.tasks.append(task)
            return task

        for row in plan.rows:
            pending = [name for name in plan.defenders if (row, name) not in completed]
            attack_index: Optional[int] = None
            if row != CLEAN_ROW and pending:
                attack = add(
                    "attack", TrialKey(dataset=lower, attacker=row, rate=plan.rate), None
                )
                plan.attack_tasks[row] = attack
                attack_index = attack.index
            for name in plan.defenders:
                if name not in pending:
                    continue
                plan.cell_tasks[(row, name)] = [
                    add(
                        "defense",
                        TrialKey(
                            dataset=lower,
                            attacker=row,
                            rate=plan.rate,
                            defender=name,
                            seed=seed,
                        ),
                        attack_index,
                    )
                    for seed in range(plan.seeds)
                ]
        return plan


class _CellTracker:
    """Journals each cell as soon as all of its seed trials have succeeded.

    Every task is offered at most once, so a cell with a failed seed never
    collects its full set of values.  Without a checkpoint nothing is
    journalled.
    """

    def __init__(self, plan: SweepPlan, checkpoint: Optional[SweepCheckpoint]):
        self._expected = {cell: len(tasks) for cell, tasks in plan.cell_tasks.items()}
        self._values: dict[tuple[str, str], dict[int, float]] = {}
        self._checkpoint = checkpoint

    def offer(self, task: TrialTask, value: float) -> None:
        """Record one succeeded seed trial of ``task``'s cell."""
        if self._checkpoint is None:
            return
        key = task.key
        values = self._values.setdefault((key.attacker, key.defender), {})
        values[key.seed] = value
        if len(values) == self._expected[(key.attacker, key.defender)]:
            self._checkpoint.record_cell(
                key.dataset,
                key.attacker,
                key.rate,
                key.defender,
                [values[seed] for seed in sorted(values)],
            )


def trial_body(
    kind: str, key: TrialKey, graph: Graph, validate: str
) -> Callable[[int], Any]:
    """The one trial body, ``fn(attempt)``, wherever the trial runs.

    An ``attack`` trial generates the row's poison from the clean
    ``graph``; a ``defense`` trial fits one defender seed on ``graph`` and
    returns its test accuracy.  Attempt ``a`` reseeds by
    ``a * RESEED_STRIDE``, so a retried trial reseeds identically in the
    calling process and in a pool worker.
    """
    if kind == "attack":

        def attack(attempt: int) -> AttackResult:
            faults.perturb(
                "attacker",
                dataset=key.dataset,
                attacker=key.attacker,
                rate=key.rate,
                attempt=attempt,
            )
            attacker = make_attacker(key.attacker, key.dataset, seed=attempt * RESEED_STRIDE)
            return attacker.attack(graph, perturbation_rate=key.rate, validate=validate)

        return attack

    def defend(attempt: int) -> float:
        faults.perturb(
            "defender",
            dataset=key.dataset,
            attacker=key.attacker,
            defender=key.defender,
            seed=key.seed,
            attempt=attempt,
        )
        defender = make_defender(
            key.defender, key.dataset, seed=key.seed + attempt * RESEED_STRIDE
        )
        return defender.fit(graph, validate=validate).test_accuracy

    return defend


# ---------------------------------------------------------------------------
# Worker side.  Everything below the fold runs inside pool processes; it is
# deliberately self-contained (module-level functions, picklable payloads).

# Clean graphs and poison graphs are cached per worker process, keyed by
# their value-determining reference, so a worker running many trials of the
# same row loads/derives the graph once.
_WORKER_GRAPHS: dict[tuple, Graph] = {}


def _worker_sigterm(signum, frame) -> None:
    """Worker SIGTERM: cooperative shutdown first, hard exit second.

    The first signal flips the process-global shutdown flag — the running
    trial observes it at its next poll site, writes a final snapshot, and
    unwinds (``_execute_trial`` then exits 143).  A second SIGTERM means
    the parent lost patience (or the trial never polls): exit immediately.
    """
    if not cancellation.request_shutdown("worker received SIGTERM"):
        os._exit(143)


def _worker_init(memory_limit: Optional[int], cache_limit: Optional[int]) -> None:
    """Pool initializer: adopt the parent's memory budget and cache ceiling.

    Both arrive as arguments, under ``fork`` and ``spawn`` alike, so each
    worker governs its own RSS and caches with the parent's limits.

    Also clears any shutdown flag inherited through ``fork`` (the parent
    may be mid-shutdown while draining) and installs the cooperative
    SIGTERM handler so a parent-initiated termination snapshots before it
    kills.
    """
    install_budget(enforced_budget(memory_limit))
    set_cache_bytes(cache_limit)
    cancellation.reset_shutdown()
    try:
        signal.signal(signal.SIGTERM, _worker_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread initializer
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def _terminate_pid(pid: int, grace: float) -> None:
    """SIGTERM ``pid``, give it ``grace`` seconds to unwind, then SIGKILL.

    The grace window is what lets a cooperative worker reach a poll site,
    persist its mid-trial snapshot, and exit on its own terms; only a
    worker that stays wedged past it is killed outright.
    """
    try:
        os.kill(pid, signal.SIGTERM)
    except OSError:
        return
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not _pid_alive(pid):
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _worker_graph(ref: tuple) -> Graph:
    """Resolve a graph reference shipped with a task payload.

    ``("dataset", name, scale, seed, validate)`` regenerates the clean
    graph (pure function of its key — the validation policy is part of the
    key because ``repair`` can change the graph), ``("npz", path)`` loads
    the poison from a checkpoint archive, ``("spill", path, name)`` from the
    sweep's private spill (:func:`~repro.io.spill_graph`).
    """
    kind = ref[0]
    if ref not in _WORKER_GRAPHS:
        if kind == "dataset":
            from ..datasets import load_dataset

            _, name, scale, seed, validate = ref
            _WORKER_GRAPHS[ref] = load_dataset(
                name, scale=scale, seed=seed, validate=validate
            )
        elif kind == "npz":
            from ..io import load_attack_result

            _WORKER_GRAPHS[ref] = load_attack_result(ref[1]).poisoned
        elif kind == "spill":
            from ..io import load_spilled_graph

            _WORKER_GRAPHS[ref] = load_spilled_graph(ref[1], ref[2])
        else:  # pragma: no cover - programming error
            raise ConfigError(f"unknown graph reference kind {kind!r}")
    return _WORKER_GRAPHS[ref]


@dataclass(frozen=True)
class _TaskPayload:
    """Everything a worker needs to run one trial, picklable.

    ``prior_kills`` counts the pool workers that died running this trial:
    the replacement worker pre-fires its worker-lethal fault specs by that
    amount so a bounded kill rule does not re-fire forever on the requeued
    trial.
    """

    kind: str
    key: TrialKey
    policy: TrialPolicy
    graph_ref: tuple
    fault_specs: tuple[faults.FaultSpec, ...]
    site_ordinal: int
    validate: str = "strict"
    prior_kills: int = 0
    # Preemption plumbing (see repro.utils.cancellation / .snapshots).
    # ``prior_kills`` doubles as the heartbeat incarnation: the parent only
    # trusts beacons stamped with the current dispatch's kill count, so a
    # stale file from a killed predecessor can never vouch for its
    # replacement.
    task_index: int = 0
    snapshot_path: Optional[str] = None
    beacon_path: Optional[str] = None
    heartbeat_interval: Optional[float] = None


@dataclass(frozen=True)
class _WorkerResult:
    """A trial outcome plus the instrumentation the parent merges."""

    outcome: TrialOutcome
    events: tuple[faults.FaultEvent, ...]
    started: float
    finished: float


def _execute_trial(payload: _TaskPayload) -> _WorkerResult:
    """Run one supervised trial inside a pool worker.

    Runs the same :func:`trial_body` under the same supervisor semantics
    as an in-process trial.  A fresh injector is installed per task — also
    overriding any ambient injector inherited through ``fork`` — seeded
    with the trial's canonical site ordinal so index-based fault rules fire
    on the same trial as in an in-process run.
    ``InjectedKill``/``KeyboardInterrupt`` propagate out of this function;
    the pool pickles them back to the parent, which aborts the sweep.
    """
    started = time.monotonic()
    key = payload.key
    specs = [
        dataclasses.replace(
            spec,
            # A kill erased the injector that fired it; seed the replacement
            # with the prior kill count so bounded worker-lethal rules
            # (oomkill, sigterm, and a hang long enough that the heartbeat
            # monitor killed the worker) stay spent.
            fired=(
                payload.prior_kills
                if spec.action in ("oomkill", "sigterm", "hang")
                else 0
            ),
            match=dict(spec.match),
        )
        for spec in payload.fault_specs
    ]
    injector = faults.FaultInjector(specs) if specs else None
    if injector is not None:
        site = "attacker" if payload.kind == "attack" else "defender"
        injector.seed_counters({site: payload.site_ordinal})
    supervisor = TrialSupervisor(payload.policy)
    trial = trial_body(
        payload.kind, key, _worker_graph(payload.graph_ref), payload.validate
    )

    beacon = None
    if payload.beacon_path is not None:
        beacon = cancellation.Beacon(
            payload.beacon_path,
            task_index=payload.task_index,
            incarnation=payload.prior_kills,
            interval=payload.heartbeat_interval,
        )
    sink = (
        TrialSnapshotter(payload.snapshot_path)
        if payload.snapshot_path is not None
        else None
    )
    try:
        with cancellation.trial_scope(beacon=beacon, sink=sink):
            if beacon is not None:
                beacon.beat("dispatch")
            with faults.active(injector):
                outcome = supervisor.run(key, trial)
    except cancellation.CancelledError as error:
        if error.cause == cancellation.CAUSE_SHUTDOWN:
            # Parent-initiated termination (SIGTERM handler above): the
            # final snapshot is on disk, exit with the conventional
            # 128+SIGTERM code.  The broken pool surfaces in the parent,
            # which requeues or resumes the trial.
            os._exit(143)
        raise
    return _WorkerResult(
        outcome=outcome,
        events=tuple(injector.events) if injector is not None else (),
        started=started,
        finished=time.monotonic(),
    )


# ---------------------------------------------------------------------------
# Scheduling


class ParallelTrialExecutor:
    """The sweep scheduler: one ready queue, at most ``jobs`` trials running.

    Scheduling: ready tasks wait on one heap keyed by canonical task index.
    Every task with no unmet dependency is ready up front; a row's defense
    tasks become ready when its attack lands (or is resolved from the
    shared poison cache without running anything).  The dispatch loop pops
    the smallest ready index while fewer than ``jobs`` trials are in
    flight, resolving quarantined methods and cached poisons at pop time.
    Quarantine lives here: the first failure for a quarantine key
    synthesizes failures for every not-yet-dispatched task sharing it, so a
    broken method fails once and is skipped thereafter.

    Where a trial runs depends on ``jobs``:

    * ``jobs == 1`` — in the calling process, through the runner's shared
      :class:`TrialSupervisor`, under the ambient fault injector and the
      task's snapshot sink, on the runner's in-memory graphs.  Each result
      is processed before the next pop, so the heap alone yields exactly
      ``plan.tasks`` order — the order ``at=N`` counters, sweep-global
      ``times=N`` budgets and the journal depend on.  No pool, beacon or
      worker graph cache is created.
    * ``jobs >= 2`` — on a process pool, with at most ``jobs`` futures in
      flight.  In-flight trials of a just-quarantined method are left to
      finish; the canonical merge (:func:`assemble_table`) normalizes any
      extra failures away, which is why completion order cannot leak into
      the output.

    ``BaseException`` from a trial (injected kill, operator interrupt)
    drains the pool, if any, and propagates.

    Worker *death* (kernel OOM kill, segfault, injected ``oomkill``, a
    heartbeat-stall termination) is not fatal: the scheduler salvages
    every future that finished before the pool broke, rebuilds the pool,
    and requeues the trials that were running, unchanged.  When several
    trials died together, each is re-run alone, so a death is only ever
    charged to the one trial in flight.  A trial charged more than three
    deaths becomes a structured :class:`TrialFailure` instead of an
    endless kill loop.
    """

    def __init__(self, jobs: int, heartbeat_interval: Optional[float] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ConfigError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.jobs = int(jobs)
        # Liveness monitoring (None = disabled): workers beat a per-task
        # beacon file at every poll site; a worker whose beacon stalls for
        # 2x the interval is terminated (SIGTERM, grace, SIGKILL) and its
        # trial requeued.  The contract is that trial code visits a poll
        # site at least once per interval during normal operation — choose
        # the interval accordingly.
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None else None
        )
        self.timings: Optional[SweepTimings] = None

    def _context(self):
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platform without fork (Windows, some macOS setups)
            return multiprocessing.get_context("spawn")

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=self._context(),
            initializer=_worker_init,
            initargs=(enforced_limit(), cache_bytes()),
        )

    def run(
        self, plan: SweepPlan, runner: "ExperimentRunner", supervisor: TrialSupervisor
    ) -> dict[int, TrialOutcome]:
        """Run ``plan`` on ``runner``'s graphs, poison cache and checkpoint;
        outcomes by task index.  In-process trials run through
        ``supervisor``; pool workers build their own from its policy."""
        timings = SweepTimings(jobs=self.jobs)
        timings.start()
        self.timings = timings
        outcomes: dict[int, TrialOutcome] = {}
        if not plan.tasks:  # fully checkpointed sweep: nothing to spin up
            timings.finish()
            return outcomes

        in_process = self.jobs == 1
        checkpoint = runner.checkpoint
        cells = _CellTracker(plan, checkpoint)
        quarantine: dict[tuple, TrialFailure] = {}
        graph_refs: dict[str, tuple] = {
            CLEAN_ROW: (
                "dataset",
                plan.dataset.lower(),
                runner.config.scale,
                runner.dataset_seed,
                runner.validate,
            )
        }
        ambient = faults.current()
        fault_specs = (
            tuple(
                dataclasses.replace(spec, fired=0, match=dict(spec.match))
                for spec in ambient.specs
            )
            if ambient is not None
            else ()
        )

        # The ready heap holds task indexes; plan order is index order, so
        # the dependency-free prefix below is already a valid heap.
        ready: list[int] = []
        waiting: dict[int, list[int]] = {}
        for task in plan.tasks:
            if task.depends_on is None:
                ready.append(task.index)
            else:
                waiting.setdefault(task.depends_on, []).append(task.index)

        dispatch_times: dict[int, float] = {}
        inflight: dict[Future, TrialTask] = {}
        # The trials of a pool break with several victims, re-run one at a
        # time with nothing else in flight until each has a result.
        suspects: list[TrialTask] = []
        # Per task index: pool workers that died running the trial, the
        # deaths charged to it (it was the only trial in flight), and how
        # long the beacon of a worker the heartbeat monitor killed had
        # stalled.
        deaths: dict[int, int] = {}
        kill_counts: dict[int, int] = {}
        stalls: dict[int, float] = {}
        # Heartbeat state: per-task beacon progress as observed by *this*
        # process's clock — (beat count, monotonic time it was first seen).
        # No cross-process clock comparison is ever made.
        beacon_dir: Optional[str] = None
        if self.heartbeat_interval is not None and not in_process:
            beacon_dir = tempfile.mkdtemp(prefix="repro-beacons-")
        progress: dict[int, tuple[int, float]] = {}
        # Poisons without a checkpoint archive, spilled once each for the
        # pool workers; removed when the sweep ends.
        spill_dir: Optional[str] = None

        def check_shutdown() -> None:
            if cancellation.shutdown_requested():
                raise cancellation.CancelledError(
                    cancellation.CAUSE_SHUTDOWN,
                    "sweep interrupted by shutdown request",
                )

        def poison_ready(task: TrialTask, result: AttackResult, path) -> None:
            """Point the row's defense trials at its poison and make them
            ready.  In-process trials train on the in-memory poison.  Pool
            workers load a file: the checkpoint's archive, or, without one,
            the poisoned graph spilled once here — so no payload carries a
            graph."""
            nonlocal spill_dir
            poisoned = result.poisoned
            if in_process:
                graph_refs[task.key.attacker] = ("inline", poisoned)
            elif path is not None and path.exists():
                graph_refs[task.key.attacker] = ("npz", str(path))
            else:
                if spill_dir is None:
                    spill_dir = tempfile.mkdtemp(prefix="repro-poisons-")
                spill = os.path.join(spill_dir, f"poison_{task.index}.npz")
                write_poison(
                    spill,
                    estimate_nbytes(poisoned),
                    lambda: spill_graph(poisoned, spill),
                    dataset=plan.dataset,
                    attacker=task.key.attacker,
                )
                graph_refs[task.key.attacker] = ("spill", spill, poisoned.name)
            for dependent in waiting.pop(task.index, ()):
                heapq.heappush(ready, dependent)

        def snapshot_path(key: TrialKey) -> Optional[str]:
            # One snapshot archive per trial key, next to the journal: an
            # interrupted trial resumes mid-flight on its next attempt (or
            # the next --resume) instead of restarting.
            return None if checkpoint is None else str(checkpoint.snapshot_path(key))

        def resolve(task: TrialTask) -> Optional[tuple]:
            """The graph reference ``task`` runs on, or ``None`` once
            quarantine or the poison cache has resolved it without running."""
            failure = quarantine.get(task.key.quarantine_key())
            if failure is not None:
                outcomes[task.index] = TrialOutcome(key=task.key, failure=failure)
                return None
            if task.kind == "defense":
                return graph_refs[task.key.attacker]
            attacker = task.key.attacker
            cached = runner._poison_lookup(plan.dataset, attacker, plan.rate)
            if cached is None:
                return graph_refs[CLEAN_ROW]
            # Shared poison cache hit: resolve without touching the pool and
            # without re-persisting (the archive's mtime is part of the
            # resume contract).
            path = (
                checkpoint.poison_path(
                    *runner._poison_key(plan.dataset, attacker, plan.rate)
                )
                if checkpoint is not None
                else None
            )
            outcomes[task.index] = TrialOutcome(key=task.key, value=cached, attempts=0)
            poison_ready(task, cached, path)
            return None

        def run_here(task: TrialTask, graph_ref: tuple) -> None:
            """Run one trial in this process, then process its result."""
            check_shutdown()
            graph = (
                runner.graph(plan.dataset) if graph_ref[0] == "dataset" else graph_ref[1]
            )
            path = snapshot_path(task.key)
            sink = TrialSnapshotter(path) if path is not None else None
            started = time.monotonic()
            with cancellation.trial_scope(sink=sink):
                outcome = supervisor.run(
                    task.key, trial_body(task.kind, task.key, graph, runner.validate)
                )
            process(task, _WorkerResult(outcome, (), started, time.monotonic()))

        def submit(
            pool: ProcessPoolExecutor, task: TrialTask, graph_ref: tuple
        ) -> None:
            payload = _TaskPayload(
                kind=task.kind,
                key=task.key,
                policy=supervisor.policy,
                graph_ref=graph_ref,
                fault_specs=fault_specs,
                site_ordinal=task.site_ordinal,
                validate=runner.validate,
                prior_kills=deaths.get(task.index, 0),
                task_index=task.index,
                snapshot_path=snapshot_path(task.key),
                beacon_path=(
                    os.path.join(beacon_dir, f"beacon_{task.index}.json")
                    if beacon_dir is not None
                    else None
                ),
                heartbeat_interval=self.heartbeat_interval,
            )
            dispatch_times[task.index] = time.monotonic()
            try:
                inflight[pool.submit(_execute_trial, payload)] = task
            except BrokenProcessPool:
                # The pool broke before this trial started: it is no
                # victim, so it waits for the rebuilt pool as it was.
                requeue(task)
                raise

        def requeue(task: TrialTask) -> None:
            # A suspect waits on ``suspects``, never on the heap.
            if task not in suspects:
                heapq.heappush(ready, task.index)

        def dispatch(pool: Optional[ProcessPoolExecutor]) -> None:
            """Pop ready tasks while fewer than the capacity are in flight:
            ``jobs`` on the pool, one (the first suspect) while break
            suspects remain.  In-process each trial is processed before the
            next pop, so nothing is ever in flight."""
            while True:
                while suspects and suspects[0].index in outcomes:
                    suspects.pop(0)
                if suspects:
                    if inflight:
                        return
                    task = suspects[0]
                elif ready and len(inflight) < self.jobs:
                    task = plan.tasks[heapq.heappop(ready)]
                else:
                    return
                graph_ref = resolve(task)
                if graph_ref is None:
                    continue
                if pool is None:
                    run_here(task, graph_ref)
                else:
                    submit(pool, task, graph_ref)

        def process(task: TrialTask, result: _WorkerResult) -> None:
            """Merge one trial result into the scheduler's bookkeeping."""
            outcome = result.outcome
            outcomes[task.index] = outcome
            timings.record(
                task.key.label(),
                task.kind,
                result.finished - result.started,
                result.started - dispatch_times.get(task.index, result.started),
            )
            if ambient is not None:
                ambient.events.extend(result.events)
            if not outcome.ok:
                # A failed attack releases nothing: its cells stay n/a.
                quarantine.setdefault(
                    outcome.failure.key.quarantine_key(), outcome.failure
                )
            elif task.kind == "attack":
                path = runner._store_poison(
                    plan.dataset, task.key.attacker, plan.rate, outcome.value
                )
                poison_ready(task, outcome.value, path)
            else:
                cells.offer(task, float(outcome.value))

        def recover(broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
            """Rebuild the pool after a worker death and requeue the trials
            that were running, as they were.

            Futures that finished before the pool broke are salvaged and
            merged normally — only trials with no result are requeued.  A
            break cannot tell which of several victims killed its worker,
            so several victims become ``suspects`` and re-run alone; a
            death is charged only to a trial that was alone.  Each requeue
            names its cause: a heartbeat stall for the workers
            :func:`scan_beacons` terminated, a death (kernel OOM kill,
            segfault, injected ``oomkill``, or a sibling's death breaking
            the pool) for the rest.  A trial charged more than
            ``_MAX_WORKER_DEATHS`` deaths becomes a structured
            infrastructure failure instead of an endless kill loop.
            """
            salvaged: list[tuple[TrialTask, _WorkerResult]] = []
            victims: list[TrialTask] = []
            for future, task in sorted(
                inflight.items(), key=lambda item: item[1].index
            ):
                if future.done() and future.exception() is None:
                    salvaged.append((task, future.result()))
                else:  # still running, or died with the pool
                    victims.append(task)
            inflight.clear()
            broken.shutdown(wait=False, cancel_futures=True)
            if len(victims) > 1:
                suspects[:] = victims
            for task, result in salvaged:
                process(task, result)
            for task in victims:
                progress.pop(task.index, None)
                stalled = stalls.pop(task.index, None)
                deaths[task.index] = deaths.get(task.index, 0) + 1
                if len(victims) == 1:
                    kill_counts[task.index] = kill_counts.get(task.index, 0) + 1
                charged = kill_counts.get(task.index, 0)
                if charged > _MAX_WORKER_DEATHS:
                    error = RuntimeError(
                        f"pool worker died {charged} times running {task.key.label()}"
                    )
                    process(task, _infrastructure_failure(task, error))
                    continue
                if stalled is None:
                    cause = "pool worker died"
                else:
                    cause = f"worker terminated after a heartbeat stall ({stalled:.1f}s)"
                warnings.warn(
                    f"{task.key.label()}: {cause}; requeued",
                    DegradedWarning,
                    stacklevel=3,
                )
                requeue(task)
            return self._make_pool()

        def scan_beacons() -> None:
            """Terminate workers whose beacons stalled past 2x the interval.

            A beacon only *arms* its task once a beat stamped with the
            current dispatch's incarnation appears — a file left behind by
            a killed predecessor can neither vouch for nor condemn the
            replacement.  Progress is judged purely by the beat counter
            against this process's monotonic clock.
            """
            assert self.heartbeat_interval is not None and beacon_dir is not None
            now = time.monotonic()
            for task in list(inflight.values()):
                record = cancellation.read_beacon(
                    os.path.join(beacon_dir, f"beacon_{task.index}.json")
                )
                if record is None or int(record.get("incarnation", -1)) != (
                    deaths.get(task.index, 0)
                ):
                    continue
                count = int(record.get("count", 0))
                seen = progress.get(task.index)
                if seen is None or seen[0] != count:
                    progress[task.index] = (count, now)
                    continue
                if now - seen[1] > 2.0 * self.heartbeat_interval:
                    stalls[task.index] = now - seen[1]
                    progress.pop(task.index, None)
                    _terminate_pid(int(record.get("pid", 0)), _KILL_GRACE_SECONDS)
                    # The dead worker breaks the pool; the scheduler loop's
                    # BrokenProcessPool handler requeues this trial through
                    # recover(), which names the stall.

        pool = None if in_process else self._make_pool()
        # A timed wait keeps the scheduler responsive to shutdown requests
        # (the SIGINT handler only flips a flag) and paces beacon scans at
        # half the heartbeat interval so a stall is caught within 2x.
        wait_timeout = (
            self.heartbeat_interval / 2.0
            if self.heartbeat_interval is not None
            else 0.5
        )
        try:
            while True:
                try:
                    check_shutdown()
                    dispatch(pool)
                    if not inflight:
                        break
                    done, _ = wait(
                        inflight, timeout=wait_timeout, return_when=FIRST_COMPLETED
                    )
                    if beacon_dir is not None:
                        scan_beacons()
                    # Canonical-index order within a completion batch keeps
                    # the parent's bookkeeping deterministic under ties.
                    for future in sorted(done, key=lambda f: inflight[f].index):
                        task = inflight[future]
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            # Leave the future in flight: recover() will
                            # classify it as a victim and requeue it.
                            raise
                        except Exception as error:  # infrastructure failure
                            result = _infrastructure_failure(task, error)
                        del inflight[future]
                        process(task, result)
                except BrokenProcessPool:
                    pool = recover(pool)
        except BaseException as error:
            # Graceful shutdown first SIGTERMs every live worker so
            # in-flight trials snapshot at their next poll site and exit 143
            # (an in-process trial already did).  Any interrupt then drains
            # the pool before propagating.  The journal holds every
            # completed cell and the snapshots every interrupted trial, so
            # --resume finishes the sweep bit-identically.
            if pool is not None:
                if isinstance(error, cancellation.CancelledError):
                    for proc in list(getattr(pool, "_processes", {}).values()):
                        if proc.is_alive():
                            proc.terminate()
                pool.shutdown(wait=True, cancel_futures=True)
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            for scratch in (beacon_dir, spill_dir):
                if scratch is not None:
                    shutil.rmtree(scratch, ignore_errors=True)
            timings.finish()
        return outcomes


def _infrastructure_failure(task: TrialTask, error: Exception) -> _WorkerResult:
    """Wrap a pool-level error (unpicklable result, worker crash) as a
    structured failure so one bad trial cannot take down the sweep."""
    now = time.monotonic()
    failure = TrialFailure(
        key=task.key,
        attempts=1,
        elapsed_seconds=0.0,
        error_type=type(error).__name__,
        message=str(error),
    )
    return _WorkerResult(
        outcome=TrialOutcome(key=task.key, failure=failure, attempts=1),
        events=(),
        started=now,
        finished=now,
    )


def make_executor(
    jobs: int = 1,
    total_cores: Optional[int] = None,
    heartbeat_interval: Optional[float] = None,
):
    """The executor for ``--jobs N``: trials run in this process for 1, on a
    process pool otherwise.

    ``jobs`` above the machine's usable core count (``total_cores``
    overrides detection) is clamped with a
    :class:`~repro.errors.CapacityWarning` — extra workers would only
    multiply peak RSS while time-slicing the same cores.  The clamp never
    drops below 2 once a pool was requested: process isolation (and the
    dead-worker recovery it enables) is a semantic choice, not just a
    speedup, so a 1-core machine still gets a pool, only a smaller one.
    """
    cores = cpu_count() if total_cores is None else int(total_cores)
    if cores < 1:
        raise ConfigError(f"total_cores must be >= 1, got {total_cores}")
    limit = max(cores, 2) if jobs >= 2 else cores
    if jobs > limit:
        warnings.warn(
            f"--jobs {jobs} exceeds the {cores} usable CPU core"
            f"{'s' if cores != 1 else ''}; clamping to {limit}",
            CapacityWarning,
            stacklevel=2,
        )
        jobs = limit
    return ParallelTrialExecutor(jobs, heartbeat_interval=heartbeat_interval)


# ---------------------------------------------------------------------------
# Deterministic merge


def assemble_table(
    plan: SweepPlan,
    outcomes: dict[int, TrialOutcome],
    cached: dict[tuple[str, str], list[float]],
):
    """Fold outcomes into an :class:`AccuracyTable` in canonical order.

    The iteration order here — rows, then defenders, then seeds, with a
    row's attack failure noted before its cells — IS the in-process
    execution order, so the table and the failure appendix are identical no
    matter when each trial actually finished.  Only the canonically-first
    failure per quarantine key is kept: an in-process sweep records exactly
    that one (later trials are skipped by quarantine), so normalizing to it
    makes parallel output bit-identical.
    """
    from .runner import AccuracyTable, CellResult

    table = AccuracyTable(dataset=plan.dataset, rate=plan.rate)
    noted: set[tuple] = set()

    def note(failure: TrialFailure) -> None:
        quarantine_key = failure.key.quarantine_key()
        if quarantine_key not in noted:
            noted.add(quarantine_key)
            table.failures.append(failure)

    for row in plan.rows:
        attack = plan.attack_tasks.get(row)
        row_ok = True
        if attack is not None:
            outcome = outcomes.get(attack.index)
            if outcome is not None and not outcome.ok:
                note(outcome.failure)
                row_ok = False
        row_cells: dict[str, Optional[CellResult]] = {}
        for name in plan.defenders:
            values = cached.get((row, name))
            if values is not None:
                row_cells[name] = CellResult.from_values(values)
                continue
            if not row_ok:
                row_cells[name] = None
                continue
            seeds: list[float] = []
            complete = True
            for task in plan.cell_tasks[(row, name)]:
                outcome = outcomes.get(task.index)
                if outcome is None:  # abandoned after an earlier seed failed
                    complete = False
                    break
                if not outcome.ok:
                    note(outcome.failure)
                    complete = False
                    break
                seeds.append(float(outcome.value))
            row_cells[name] = CellResult.from_values(seeds) if complete else None
        table.rows[row] = row_cells
    return table
