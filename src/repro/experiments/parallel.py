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
    The scheduler: it releases ready tasks, resolves cached poisons and
    quarantined methods without running them, and journals each cell the
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
import os
import shutil
import signal
import tempfile
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import multiprocessing

from ..attacks.base import AttackResult
from ..errors import CapacityWarning, ConfigError, DegradedWarning
from ..graph import Graph
from ..utils import cancellation, faults
from ..utils.snapshots import TrialSnapshotter
from ..utils.blas import cpu_count, limit_blas_threads, plan_worker_threads
from ..utils.resources import (
    MAX_DEGRADE_LEVEL,
    budget_from_env,
    degraded_footprint,
    install_budget,
)
from .config import make_attacker, make_defender
from .supervisor import (
    RESEED_STRIDE,
    TrialFailure,
    TrialKey,
    TrialOutcome,
    TrialPolicy,
    TrialSupervisor,
)
from .timing import SweepTimings

__all__ = [
    "TrialTask",
    "SweepPlan",
    "SweepRuntime",
    "ParallelTrialExecutor",
    "make_executor",
    "trial_body",
    "assemble_table",
]

CLEAN_ROW = "Clean"


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


@dataclass
class SweepRuntime:
    """What the scheduler needs from the :class:`ExperimentRunner`.

    ``supervisor`` is the runner's shared supervisor: in-process trials run
    through it and pool workers build their own from its policy.  The
    ``poison_*`` callbacks keep the runner's poison cache and the
    checkpoint authoritative, ``record_cell`` journals a completed cell the
    moment its last seed lands, and ``snapshot_path`` names a trial's
    mid-trial snapshot archive (``None`` without a checkpoint; see
    :mod:`repro.utils.snapshots`).
    """

    dataset: str
    rate: float
    scale: float
    dataset_seed: int
    supervisor: TrialSupervisor
    clean_graph: Callable[[], Graph]
    poison_lookup: Callable[[str], Optional[AttackResult]]
    poison_path: Callable[[str], Optional[str]]
    store_poison: Callable[[str, AttackResult], Optional[str]]
    record_cell: Callable[[str, str, list[float]], None]
    snapshot_path: Callable[[TrialKey], Optional[str]]
    validate: str = "strict"


class _CellTracker:
    """Journals each cell as soon as all of its seed trials have succeeded.

    Every task is offered at most once, so a cell with a failed seed never
    collects its full set of values.
    """

    def __init__(self, plan: SweepPlan, record_cell: Callable[[str, str, list[float]], None]):
        self._expected = {cell: len(tasks) for cell, tasks in plan.cell_tasks.items()}
        self._values: dict[tuple[str, str], dict[int, float]] = {}
        self._record = record_cell

    def offer(self, task: TrialTask, outcome: TrialOutcome) -> None:
        if not outcome.ok:
            return
        cell = (task.key.attacker, task.key.defender)
        values = self._values.setdefault(cell, {})
        values[task.key.seed] = float(outcome.value)
        if len(values) == self._expected[cell]:
            self._record(
                task.key.attacker,
                task.key.defender,
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


def _worker_init(blas_threads: Optional[int]) -> None:
    """Pool initializer: pin the worker's BLAS thread budget and adopt the
    parent's memory budget.

    Environment variables are authoritative for ``spawn`` workers and for
    lazily-initialized runtimes under ``fork`` (see :mod:`repro.utils.blas`
    for the honest caveats).  The memory budget arrives the same way — the
    CLI exports ``REPRO_MEMORY_BUDGET`` — so each worker governs its own
    RSS with the same ceiling the parent uses.

    Also clears any shutdown flag inherited through ``fork`` (the parent
    may be mid-shutdown while draining) and installs the cooperative
    SIGTERM handler so a parent-initiated termination snapshots before it
    kills.
    """
    if blas_threads is not None:
        limit_blas_threads(blas_threads)
    install_budget(budget_from_env())
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
    key because ``repair`` can change the graph), ``("npz", path)`` loads a
    persisted poison archive, ``("inline", graph)`` carries the graph in
    the payload (no checkpoint attached, so there is no file to point at).
    """
    kind = ref[0]
    if kind == "inline":
        return ref[1]
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
        else:  # pragma: no cover - programming error
            raise ConfigError(f"unknown graph reference kind {kind!r}")
    return _WORKER_GRAPHS[ref]


@dataclass(frozen=True)
class _TaskPayload:
    """Everything a worker needs to run one trial, picklable.

    ``degrade`` is the degradation-ladder rung the trial runs under (0 =
    full footprint; raised by the parent each time a pool worker running
    this trial died).  ``prior_kills`` counts those deaths: the replacement
    worker pre-fires its ``oomkill`` fault specs by that amount so a
    bounded kill rule does not re-fire forever on the requeued trial.
    """

    kind: str
    key: TrialKey
    policy: TrialPolicy
    graph_ref: tuple
    fault_specs: tuple[faults.FaultSpec, ...]
    site_ordinal: int
    validate: str = "strict"
    degrade: int = 0
    prior_kills: int = 0
    # Preemption plumbing (see repro.utils.cancellation / .snapshots).
    # ``prior_kills`` doubles as the heartbeat incarnation: the parent only
    # trusts beacons stamped with the current dispatch's kill count, so a
    # stale file from a killed predecessor can never vouch for its
    # replacement.
    task_index: int = 0
    snapshot_path: Optional[str] = None
    beacon_path: Optional[str] = None
    heartbeat_interval: float = 1.0


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
    token = cancellation.CancelToken(name=f"worker-{key.label()}")
    try:
        with cancellation.trial_scope(token=token, beacon=beacon, sink=sink):
            if beacon is not None:
                beacon.beat("dispatch")
            with degraded_footprint(payload.degrade), faults.active(injector):
                outcome = supervisor.run(key, trial)
    except cancellation.CancelledError as error:
        if error.cause in (cancellation.CAUSE_SHUTDOWN, cancellation.CAUSE_KILL):
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
    """The sweep scheduler: releases ready trials, merges deterministically.

    Scheduling: every task with no unmet dependency is ready up front; a
    row's defense tasks are released when its attack lands (or resolved
    from the shared poison cache without running anything).  Quarantine
    lives here: the first failure for a quarantine key synthesizes failures
    for every not-yet-dispatched task sharing it, so a broken method fails
    once and is skipped thereafter.

    Where a trial runs depends on ``jobs``:

    * ``jobs == 1`` — in the calling process, through the runner's shared
      :class:`TrialSupervisor`, under the ambient fault injector and the
      task's snapshot sink, on the runner's in-memory graphs.  Each result
      is processed before the next task is dispatched, so trials run in
      exactly ``plan.tasks`` order — the order ``at=N`` counters,
      sweep-global ``times=N`` budgets and the journal depend on.  No pool,
      beacon or worker graph cache is created.
    * ``jobs >= 2`` — on a process pool.  In-flight trials of a
      just-quarantined method are left to finish; the canonical merge
      (:func:`assemble_table`) normalizes any extra failures away, which is
      why completion order cannot leak into the output.

    ``BaseException`` from a trial (injected kill, operator interrupt)
    drains the pool, if any, and propagates.

    Worker *death* (kernel OOM kill, segfault, injected ``oomkill``) is
    not fatal: the scheduler salvages every future that finished before
    the pool broke, rebuilds the pool, and requeues the dead trials one
    rung down the degradation ladder (fewer BLAS threads, smaller
    candidate block, autodiff engine — see
    :data:`repro.utils.resources.DEGRADATION_LADDER`).  A trial whose
    workers die past the bottom of the ladder becomes a structured
    :class:`TrialFailure` instead of an endless kill loop.
    """

    def __init__(
        self,
        jobs: int,
        blas_threads: Optional[int] = None,
        start_method: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        kill_grace_seconds: float = 2.0,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ConfigError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if kill_grace_seconds < 0:
            raise ConfigError(
                f"kill_grace_seconds must be non-negative, got {kill_grace_seconds}"
            )
        self.jobs = int(jobs)
        self.blas_threads = (
            int(blas_threads) if blas_threads is not None else plan_worker_threads(jobs)
        )
        self.start_method = start_method
        # Liveness monitoring (None = disabled): workers beat a per-task
        # beacon file at every poll site; a worker whose beacon stalls for
        # 2x the interval is terminated (SIGTERM, grace, SIGKILL) and its
        # trial requeued through the degradation path.  The contract is
        # that trial code visits a poll site at least once per interval
        # during normal operation — choose the interval accordingly.
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None else None
        )
        self.kill_grace_seconds = float(kill_grace_seconds)
        self.timings: Optional[SweepTimings] = None

    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platform without fork (Windows, some macOS setups)
            return multiprocessing.get_context("spawn")

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=self._context(),
            initializer=_worker_init,
            initargs=(self.blas_threads,),
        )

    def run(self, plan: SweepPlan, runtime: SweepRuntime) -> dict[int, TrialOutcome]:
        timings = SweepTimings(jobs=self.jobs)
        timings.start()
        self.timings = timings
        outcomes: dict[int, TrialOutcome] = {}
        if not plan.tasks:  # fully checkpointed sweep: nothing to spin up
            timings.finish()
            return outcomes

        in_process = self.jobs == 1
        cells = _CellTracker(plan, runtime.record_cell)
        quarantine: dict[tuple, TrialFailure] = {}
        graph_refs: dict[str, tuple] = {
            CLEAN_ROW: (
                "dataset",
                runtime.dataset.lower(),
                runtime.scale,
                runtime.dataset_seed,
                runtime.validate,
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

        waiting: dict[int, list[TrialTask]] = {}
        for task in plan.tasks:
            if task.depends_on is not None:
                waiting.setdefault(task.depends_on, []).append(task)

        submit_times: dict[int, float] = {}
        inflight: dict[Future, TrialTask] = {}
        # Tasks waiting (or re-waiting, after a pool rebuild) for dispatch.
        pending: list[TrialTask] = []
        # Degradation state per task index: how many pool workers died while
        # running the trial, and which ladder rung its next dispatch uses.
        kill_counts: dict[int, int] = {}
        degrade_levels: dict[int, int] = {}
        # Heartbeat state: per-task beacon progress as observed by *this*
        # process's clock — (beat count, monotonic time it was first seen).
        # No cross-process clock comparison is ever made.
        beacon_dir: Optional[str] = None
        if self.heartbeat_interval is not None and not in_process:
            beacon_dir = tempfile.mkdtemp(prefix="repro-beacons-")
        progress: dict[int, tuple[int, float]] = {}

        def check_shutdown() -> None:
            if cancellation.shutdown_requested():
                raise cancellation.CancelledError(
                    cancellation.CAUSE_SHUTDOWN,
                    "sweep interrupted by shutdown request",
                )

        def set_poison(attacker: str, result: AttackResult, path) -> None:
            # Workers load the persisted archive; in-process trials (and
            # sweeps without a checkpoint) train on the in-memory poison.
            graph_refs[attacker] = (
                ("npz", str(path))
                if path is not None and not in_process
                else ("inline", result.poisoned)
            )

        def run_here(task: TrialTask, graph_ref: tuple) -> None:
            """Run one trial in this process, then process its result."""
            check_shutdown()
            graph = runtime.clean_graph() if graph_ref[0] == "dataset" else graph_ref[1]
            path = runtime.snapshot_path(task.key)
            sink = TrialSnapshotter(path) if path is not None else None
            started = time.monotonic()
            with cancellation.trial_scope(sink=sink):
                outcome = runtime.supervisor.run(
                    task.key, trial_body(task.kind, task.key, graph, runtime.validate)
                )
            process(None, task, _WorkerResult(outcome, (), started, time.monotonic()))

        def submit(pool: Optional[ProcessPoolExecutor], task: TrialTask) -> None:
            """Resolve a ready task from caches/quarantine, or run it: here
            when there is no pool, else on the pool."""
            failure = quarantine.get(task.key.quarantine_key())
            if failure is not None:
                outcome = TrialOutcome(key=task.key, failure=failure)
                outcomes[task.index] = outcome
                if task.kind == "defense":
                    cells.offer(task, outcome)
                return
            if task.kind == "attack":
                cached = runtime.poison_lookup(task.key.attacker)
                if cached is not None:
                    # Shared poison cache hit: resolve without touching the
                    # pool and without re-persisting (the archive's mtime is
                    # part of the resume contract).
                    set_poison(
                        task.key.attacker, cached, runtime.poison_path(task.key.attacker)
                    )
                    outcome = TrialOutcome(key=task.key, value=cached, attempts=0)
                    outcomes[task.index] = outcome
                    for dependent in waiting.pop(task.index, ()):
                        submit(pool, dependent)
                    return
                graph_ref = graph_refs[CLEAN_ROW]
            else:
                graph_ref = graph_refs[task.key.attacker]
            if pool is None:
                run_here(task, graph_ref)
                return
            payload = _TaskPayload(
                kind=task.kind,
                key=task.key,
                policy=runtime.supervisor.policy,
                graph_ref=graph_ref,
                fault_specs=fault_specs,
                site_ordinal=task.site_ordinal,
                validate=runtime.validate,
                degrade=degrade_levels.get(task.index, 0),
                prior_kills=kill_counts.get(task.index, 0),
                task_index=task.index,
                snapshot_path=runtime.snapshot_path(task.key),
                beacon_path=(
                    os.path.join(beacon_dir, f"beacon_{task.index}.json")
                    if beacon_dir is not None
                    else None
                ),
                heartbeat_interval=self.heartbeat_interval or 1.0,
            )
            submit_times[task.index] = time.monotonic()
            try:
                inflight[pool.submit(_execute_trial, payload)] = task
            except BrokenProcessPool:
                # The pool died under us mid-dispatch; park the task and let
                # the scheduler loop rebuild the pool and re-dispatch.
                pending.append(task)

        def attack_done(
            pool: Optional[ProcessPoolExecutor], task: TrialTask, outcome: TrialOutcome
        ) -> None:
            """Store the row's poison and release its waiting defense tasks."""
            if outcome.ok:
                path = runtime.store_poison(task.key.attacker, outcome.value)
                set_poison(task.key.attacker, outcome.value, path)
            for dependent in waiting.pop(task.index, ()):
                if outcome.ok:
                    submit(pool, dependent)
                # else: dependents stay without outcomes → n/a cells

        def process(
            pool: Optional[ProcessPoolExecutor], task: TrialTask, result: _WorkerResult
        ) -> None:
            """Merge one trial result into the scheduler's bookkeeping."""
            outcome = result.outcome
            outcomes[task.index] = outcome
            timings.record(
                task.key.label(),
                task.kind,
                result.finished - result.started,
                result.started - submit_times.get(task.index, result.started),
            )
            if ambient is not None:
                ambient.events.extend(result.events)
            if not outcome.ok:
                quarantine.setdefault(
                    outcome.failure.key.quarantine_key(), outcome.failure
                )
            if task.kind == "attack":
                attack_done(pool, task, outcome)
            else:
                cells.offer(task, outcome)

        def recover(broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
            """Rebuild the pool after a worker death (kernel OOM kill,
            segfault, injected ``oomkill``) and requeue the in-flight trials
            one rung down the degradation ladder.

            Futures that finished before the pool broke are salvaged and
            merged normally — only trials with no result are re-dispatched.
            A trial whose workers keep dying past the bottom of the ladder
            becomes a structured infrastructure failure instead of an
            endless kill loop.
            """
            salvaged: list[tuple[TrialTask, _WorkerResult]] = []
            victims: list[TrialTask] = []
            for future, task in sorted(
                inflight.items(), key=lambda item: item[1].index
            ):
                result = None
                if future.done():
                    try:
                        result = future.result()
                    except BaseException:  # noqa: BLE001 — died with the pool
                        result = None
                if result is not None:
                    salvaged.append((task, result))
                else:
                    victims.append(task)
            inflight.clear()
            broken.shutdown(wait=False, cancel_futures=True)
            pool = self._make_pool()
            for task, result in salvaged:
                process(pool, task, result)
            for task in victims:
                progress.pop(task.index, None)
                kill_counts[task.index] = kill_counts.get(task.index, 0) + 1
                degrade_levels[task.index] = min(
                    degrade_levels.get(task.index, 0) + 1, MAX_DEGRADE_LEVEL
                )
                if kill_counts[task.index] > MAX_DEGRADE_LEVEL:
                    process(
                        pool,
                        task,
                        _infrastructure_failure(
                            task,
                            RuntimeError(
                                f"pool worker died {kill_counts[task.index]} "
                                f"times running {task.key.label()}; "
                                "degradation ladder exhausted"
                            ),
                        ),
                    )
                    continue
                warnings.warn(
                    f"{task.key.label()}: pool worker died (OOM kill or "
                    f"crash); requeued at degradation level "
                    f"{degrade_levels[task.index]}",
                    DegradedWarning,
                    stacklevel=3,
                )
                submit(pool, task)
            return pool

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
            for future, task in list(inflight.items()):
                record = cancellation.read_beacon(
                    os.path.join(beacon_dir, f"beacon_{task.index}.json")
                )
                if record is None or int(record.get("incarnation", -1)) != (
                    kill_counts.get(task.index, 0)
                ):
                    continue
                count = int(record.get("count", 0))
                seen = progress.get(task.index)
                if seen is None or seen[0] != count:
                    progress[task.index] = (count, now)
                    continue
                if now - seen[1] > 2.0 * self.heartbeat_interval:
                    warnings.warn(
                        f"{task.key.label()}: worker heartbeat stalled for "
                        f"{now - seen[1]:.2f}s (> 2x {self.heartbeat_interval:g}s "
                        "interval); terminating the worker and requeuing",
                        DegradedWarning,
                        stacklevel=3,
                    )
                    progress.pop(task.index, None)
                    _terminate_pid(int(record.get("pid", 0)), self.kill_grace_seconds)
                    # The dead worker breaks the pool; the scheduler loop's
                    # BrokenProcessPool handler requeues this trial through
                    # recover()'s degradation path.

        def terminate_workers(pool: ProcessPoolExecutor) -> None:
            """SIGTERM every live pool worker (cooperative: they snapshot
            at their next poll site and exit 143)."""
            for proc in list(getattr(pool, "_processes", {}).values()):
                if proc.is_alive():
                    proc.terminate()

        pool = None if in_process else self._make_pool()
        pending.extend(task for task in plan.tasks if task.depends_on is None)
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
                    # Snapshot: submit() re-parks tasks on `pending` when the
                    # pool is broken, and those must not respin this pass.
                    batch, pending[:] = list(pending), []
                    held = {t.index for t in inflight.values()}
                    for task in batch:
                        if task.index not in outcomes and task.index not in held:
                            submit(pool, task)
                    if not inflight:
                        if pending:
                            # Every dispatch bounced: the pool is broken
                            # with nothing in flight.  Rebuild and retry.
                            pool = recover(pool)
                            continue
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
                        process(pool, task, result)
                except BrokenProcessPool:
                    pool = recover(pool)
        except BaseException as error:
            # Graceful shutdown first SIGTERMs the workers so in-flight
            # trials snapshot at their next poll site and exit (an
            # in-process trial already did).  Any interrupt then drops
            # queued work and drains the pool before propagating.  The
            # journal holds every completed cell and the snapshots every
            # interrupted trial, so --resume finishes the sweep
            # bit-identically.
            if pool is not None:
                if isinstance(error, cancellation.CancelledError):
                    terminate_workers(pool)
                pool.shutdown(wait=True, cancel_futures=True)
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            if beacon_dir is not None:
                shutil.rmtree(beacon_dir, ignore_errors=True)
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
    blas_threads: Optional[int] = None,
    start_method: Optional[str] = None,
    total_cores: Optional[int] = None,
    heartbeat_interval: Optional[float] = None,
    kill_grace_seconds: float = 2.0,
):
    """The executor for ``--jobs N``: trials run in this process for 1, on a
    process pool otherwise.

    ``jobs`` above the machine's usable core count (``total_cores``
    overrides detection, like :func:`~repro.utils.blas.plan_worker_threads`)
    is clamped with a :class:`~repro.errors.CapacityWarning` — extra
    workers would only multiply peak RSS while time-slicing the same
    cores.  The clamp never drops below 2 once a pool was requested:
    process isolation (and the dead-worker recovery it enables) is a
    semantic choice, not just a speedup, so a 1-core machine still gets a
    pool, only a smaller one.
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
    return ParallelTrialExecutor(
        jobs,
        blas_threads=blas_threads,
        start_method=start_method,
        heartbeat_interval=heartbeat_interval,
        kill_grace_seconds=kill_grace_seconds,
    )


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
