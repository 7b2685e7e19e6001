"""Parallel sweep execution: equivalence, resume, and fault accounting.

The determinism contract (docs/parallel_sweeps.md): a sweep run with
``--jobs N`` produces the *bit-identical* AccuracyTable, failure appendix,
and (order-normalized) checkpoint journal as ``--jobs 1`` — completion
order must never leak into the output.  These tests pin that contract
down, including under injected faults, an injected mid-sweep kill with
``--resume``, and fault-injection rules that must fire inside pool
workers with the same trial-index accounting as a serial run.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigError, DegradedWarning
from repro.experiments import (
    ExperimentRunner,
    ExperimentScale,
    ParallelTrialExecutor,
    SweepCheckpoint,
    SweepPlan,
    SweepTimings,
    TrialPolicy,
    TrialSupervisor,
    make_executor,
    parallel,
)
from repro.utils import cancellation, faults
from repro.utils.faults import FaultInjector, InjectedKill

CONFIG = ExperimentScale(scale=0.04, seeds=2, rate=0.1)
ATTACKERS = ["PEEGA"]
DEFENDERS = ["GCN", "GCN-SVD"]
JOBS = 2


def run_sweep(
    jobs=1,
    checkpoint=None,
    fault_spec=None,
    deadline=None,
    attackers=None,
    defenders=None,
    scale=None,
):
    executor = make_executor(jobs)
    runner = ExperimentRunner(
        scale or CONFIG,
        supervisor=TrialSupervisor(TrialPolicy(max_attempts=2, deadline_seconds=deadline)),
        checkpoint=checkpoint,
        executor=executor,
    )
    injector = FaultInjector(FaultInjector.parse(fault_spec)) if fault_spec else None
    with faults.active(injector):
        table = runner.accuracy_table(
            "cora",
            attackers=attackers or ATTACKERS,
            defenders=defenders or DEFENDERS,
        )
    return table, executor, injector


def cells_of(table):
    return {
        (row, name): (cell.values if cell is not None else None)
        for row, columns in table.rows.items()
        for name, cell in columns.items()
    }


def failures_of(table):
    """Failure appendix normalized to its deterministic fields."""
    return [
        (f.key.attacker, f.key.defender, f.key.seed, f.attempts, f.error_type)
        for f in table.failures
    ]


def journal_records(checkpoint_dir):
    """Journal contents normalized for order and volatile fields."""
    cells, failures = [], []
    path = checkpoint_dir / "journal.jsonl"
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "cell":
            cells.append(
                (record["attacker"], record["defender"], tuple(record["values"]))
            )
        else:
            failures.append(
                (
                    record["attacker"],
                    record.get("defender"),
                    record.get("seed"),
                    record["attempts"],
                    record["error_type"],
                )
            )
    return sorted(cells), sorted(failures)


# ---------------------------------------------------------------------------
# Bit-equivalence


class TestParallelSerialEquivalence:
    def test_clean_sweep_bit_identical(self, tmp_path):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial, in_process, _ = run_sweep(jobs=1, checkpoint=SweepCheckpoint(serial_dir))
        parallel, executor, _ = run_sweep(jobs=JOBS, checkpoint=SweepCheckpoint(parallel_dir))

        assert cells_of(serial) == cells_of(parallel)
        assert serial.failures == parallel.failures == []
        assert journal_records(serial_dir) == journal_records(parallel_dir)
        # The sweep really went through the pool, and the instrumentation saw it.
        assert executor.timings.jobs == JOBS
        assert len(executor.timings.trials) == 1 + 2 * len(DEFENDERS) * CONFIG.seeds
        assert executor.timings.makespan_seconds > 0
        # In-process, the same scheduler timed the same trials with no queue.
        assert in_process.timings.jobs == 1
        assert len(in_process.timings.trials) == len(executor.timings.trials)
        assert all(t.queue_seconds == 0 for t in in_process.timings.trials)

    def test_permanent_defender_failure_identical(self, tmp_path):
        spec = "defender:throw:defender=GCN-SVD"
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial, _, _ = run_sweep(
            jobs=1, checkpoint=SweepCheckpoint(serial_dir), fault_spec=spec
        )
        parallel, _, _ = run_sweep(
            jobs=JOBS, checkpoint=SweepCheckpoint(parallel_dir), fault_spec=spec
        )

        assert cells_of(serial) == cells_of(parallel)
        # One canonical-first failure despite both rows hitting the defender.
        assert len(parallel.failures) == 1
        assert failures_of(serial) == failures_of(parallel)
        assert parallel.num_failed_cells == serial.num_failed_cells == 2
        assert journal_records(serial_dir) == journal_records(parallel_dir)

    def test_attack_failure_identical(self):
        spec = "attacker:throw"
        serial, _, _ = run_sweep(jobs=1, fault_spec=spec)
        parallel, _, _ = run_sweep(jobs=JOBS, fault_spec=spec)

        assert cells_of(serial) == cells_of(parallel)
        assert failures_of(serial) == failures_of(parallel)
        # The whole PEEGA row is n/a; Clean is unaffected.
        assert all(cell is None for cell in parallel.rows["PEEGA"].values())
        assert all(cell is not None for cell in parallel.rows["Clean"].values())


# ---------------------------------------------------------------------------
# Dispatch: one ready queue, bounded by jobs


class TestDispatch:
    def test_in_process_trials_run_in_plan_order(self, tmp_path):
        """At --jobs 1 the ready queue yields exactly ``plan.tasks`` order:
        a row's released defense trials run before the next row's attack.
        PEEGA/GCN-SVD is checkpointed, and GCN-SVD is quarantined after its
        first trial fails, so neither shows up among the executed trials."""
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.record_cell("cora", "PEEGA", CONFIG.rate, "GCN-SVD", [0.5, 0.5])
        _, executor, _ = run_sweep(
            jobs=1,
            checkpoint=checkpoint,
            fault_spec="defender:throw:defender=GCN-SVD",
            attackers=["PEEGA", "Metattack"],
        )
        assert [t.label for t in executor.timings.trials] == [
            "cora/Clean/r=0.1/GCN/seed=0",
            "cora/Clean/r=0.1/GCN/seed=1",
            "cora/Clean/r=0.1/GCN-SVD/seed=0",
            "cora/PEEGA/r=0.1",
            "cora/PEEGA/r=0.1/GCN/seed=0",
            "cora/PEEGA/r=0.1/GCN/seed=1",
            "cora/Metattack/r=0.1",
            "cora/Metattack/r=0.1/GCN/seed=0",
            "cora/Metattack/r=0.1/GCN/seed=1",
        ]

    def test_at_most_jobs_trials_in_flight(self, monkeypatch):
        """A trial is submitted to the pool only once fewer than ``jobs``
        submitted trials are unfinished."""
        submitted, in_flight = [], []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                in_flight.append(1 + sum(not f.done() for f in submitted))
                future = super().submit(fn, *args, **kwargs)
                submitted.append(future)
                return future

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        _, executor, _ = run_sweep(jobs=JOBS)
        assert len(submitted) == len(executor.timings.trials)
        assert max(in_flight) <= JOBS

    def test_payloads_carry_no_graph_without_checkpoint(self, monkeypatch):
        """Without a checkpoint, an attacked row's poison is spilled once to
        a private archive that every defense payload names by path; the
        spill is gone when the sweep ends, and the table is the serial one."""
        refs = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                refs.append(args[0].graph_ref)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        table, _, _ = run_sweep(jobs=JOBS)
        assert {ref[0] for ref in refs} == {"dataset", "spill"}
        spills = {ref[1] for ref in refs if ref[0] == "spill"}
        assert len(spills) == 1
        assert not any(os.path.exists(path) for path in spills)
        assert not os.path.exists(os.path.dirname(spills.pop()))
        serial, _, _ = run_sweep(jobs=1)
        assert cells_of(table) == cells_of(serial)


# ---------------------------------------------------------------------------
# Kill → resume under parallel execution


class TestParallelResume:
    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        reference, _, _ = run_sweep(jobs=1)

        workdir = tmp_path / "ckpt"
        with pytest.raises(InjectedKill):
            run_sweep(
                jobs=JOBS,
                checkpoint=SweepCheckpoint(workdir),
                fault_spec="defender:kill:attacker=PEEGA:defender=GCN-SVD:seed=1",
            )

        # The attack completed before the kill, so its poison is on disk and
        # must be reused (not regenerated) on resume.
        poisons = list(workdir.glob("poison_*.npz"))
        assert len(poisons) == 1
        mtime = poisons[0].stat().st_mtime_ns

        resumed, _, _ = run_sweep(
            jobs=JOBS, checkpoint=SweepCheckpoint(workdir, resume=True)
        )
        assert cells_of(resumed) == cells_of(reference)
        assert resumed.failures == []
        assert poisons[0].stat().st_mtime_ns == mtime

    def test_resume_serial_after_parallel_kill(self, tmp_path):
        """Jobs is an execution knob, not part of the checkpoint format."""
        reference, _, _ = run_sweep(jobs=1)
        workdir = tmp_path / "ckpt"
        with pytest.raises(InjectedKill):
            run_sweep(
                jobs=JOBS,
                checkpoint=SweepCheckpoint(workdir),
                fault_spec="defender:kill:attacker=PEEGA:defender=GCN:seed=0",
            )
        resumed, _, _ = run_sweep(jobs=1, checkpoint=SweepCheckpoint(workdir, resume=True))
        assert cells_of(resumed) == cells_of(reference)


# ---------------------------------------------------------------------------
# Fault injection inside pool workers


class TestFaultsInWorkers:
    def test_transient_fault_absorbed_in_worker(self):
        """A times=1 throw retries inside the worker and the value survives.

        The retried attempt reseeds (seed + RESEED_STRIDE) identically in
        both modes, so the faulted sweep is still serial/parallel
        bit-identical — just not identical to an unfaulted sweep.
        """
        spec = "defender:throw:times=1:attacker=Clean:defender=GCN:seed=0"
        serial, _, _ = run_sweep(jobs=1, fault_spec=spec)
        parallel, _, injector = run_sweep(jobs=JOBS, fault_spec=spec)

        assert cells_of(parallel) == cells_of(serial)
        assert serial.failures == [] and parallel.failures == []
        # The worker's fault events were merged back into the parent injector.
        assert len(injector.events) == 1
        assert injector.events[0].site == "defender"
        assert dict(injector.events[0].context)["attempt"] == "0"

    def test_at_rule_fires_on_canonical_trial_index(self):
        """at=N accounting survives the process boundary.

        Canonical defender-site order for this grid: Clean/GCN seeds 0-1,
        Clean/GCN-SVD seeds 0-1, PEEGA/GCN seeds 0-1, ...; at=3 is
        Clean/GCN-SVD seed 1 in both execution modes.
        """
        spec = "defender:throw:at=3"
        serial, _, serial_injector = run_sweep(jobs=1, fault_spec=spec)
        parallel, _, parallel_injector = run_sweep(jobs=JOBS, fault_spec=spec)

        # The hit trial's retry advances past at=3 and succeeds (with the
        # reseeded attempt-1 value) — identically in both modes.
        assert serial.failures == [] and parallel.failures == []
        assert cells_of(serial) == cells_of(parallel)
        serial_events = [
            (e.site, e.index, dict(e.context)["defender"], dict(e.context)["seed"])
            for e in serial_injector.events
        ]
        parallel_events = [
            (e.site, e.index, dict(e.context)["defender"], dict(e.context)["seed"])
            for e in parallel_injector.events
        ]
        assert serial_events == parallel_events == [("defender", 3, "GCN-SVD", "1")]

    def test_hang_deadline_enforced_in_worker(self, monkeypatch):
        # Every token the supervisor builds reads a clock that advances one
        # unit per deadline check, so the deadline counts polls, not
        # seconds: a clean trial polls at most a few hundred times, while
        # the planted 15 s hang checks its token every millisecond.  The
        # pool forks after these patches, so its workers carry them.
        clock = itertools.count(1.0)

        class CountingToken(cancellation.CancelToken):
            def __init__(self, **kwargs):
                super().__init__(clock=lambda: next(clock), **kwargs)

        monkeypatch.setattr(cancellation, "CancelToken", CountingToken)
        monkeypatch.setattr(faults, "_HANG_POLL_SECONDS", 0.001)
        spec = "defender:hang:seconds=15:defender=GCN-SVD"
        parallel, _, _ = run_sweep(jobs=JOBS, fault_spec=spec, deadline=1000.0)
        assert len(parallel.failures) == 1
        assert parallel.failures[0].error_type == "DeadlineError"
        assert parallel.rows["Clean"]["GCN"] is not None
        assert parallel.rows["Clean"]["GCN-SVD"] is None

    def test_deadline_backstop_spares_healthy_workers(self):
        # PGD's ascent and Pro-GNN's fit poll only at their own loop sites;
        # under a pool deadline the scheduler must stop none of their
        # workers, so no trial is requeued and no DegradedWarning raised.
        sweep = dict(
            attackers=["PGD"],
            defenders=["Pro-GNN"],
            scale=ExperimentScale(scale=0.04, seeds=1, rate=0.1),
        )
        serial, _, _ = run_sweep(jobs=1, **sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedWarning)
            parallel, _, _ = run_sweep(jobs=JOBS, deadline=60.0, **sweep)
        assert parallel.failures == []
        assert cells_of(parallel) == cells_of(serial)


# ---------------------------------------------------------------------------
# Planning and scaffolding units


class TestSweepPlan:
    def test_canonical_order_and_dependencies(self):
        plan = SweepPlan.build(
            dataset="Cora",
            rows=["Clean", "PEEGA"],
            defenders=["GCN", "GCN-SVD"],
            rate=0.1,
            seeds=2,
        )
        labels = [(t.kind, t.key.attacker, t.key.defender, t.key.seed) for t in plan.tasks]
        assert labels == [
            ("defense", "Clean", "GCN", 0),
            ("defense", "Clean", "GCN", 1),
            ("defense", "Clean", "GCN-SVD", 0),
            ("defense", "Clean", "GCN-SVD", 1),
            ("attack", "PEEGA", None, None),
            ("defense", "PEEGA", "GCN", 0),
            ("defense", "PEEGA", "GCN", 1),
            ("defense", "PEEGA", "GCN-SVD", 0),
            ("defense", "PEEGA", "GCN-SVD", 1),
        ]
        attack = plan.attack_tasks["PEEGA"]
        assert all(
            t.depends_on == attack.index for t in plan.tasks if t.key.attacker == "PEEGA" and t.kind == "defense"
        )
        assert all(t.depends_on is None for t in plan.tasks if t.key.attacker == "Clean")
        # Fault-site ordinals are canonical per-site indices.
        assert [t.site_ordinal for t in plan.tasks if t.kind == "defense"] == list(range(8))
        assert attack.site_ordinal == 0
        assert plan.tasks[0].key.dataset == "cora"  # keys are lowercased

    def test_completed_cells_pruned(self):
        plan = SweepPlan.build(
            dataset="cora",
            rows=["Clean", "PEEGA"],
            defenders=["GCN", "GCN-SVD"],
            rate=0.1,
            seeds=2,
            completed={("PEEGA", "GCN"), ("PEEGA", "GCN-SVD")},
        )
        # Fully-cached row: no attack task, no defense tasks.
        assert "PEEGA" not in plan.attack_tasks
        assert all(t.key.attacker == "Clean" for t in plan.tasks)

    def test_partially_completed_row_keeps_attack(self):
        plan = SweepPlan.build(
            dataset="cora",
            rows=["PEEGA"],
            defenders=["GCN", "GCN-SVD"],
            rate=0.1,
            seeds=2,
            completed={("PEEGA", "GCN")},
        )
        assert "PEEGA" in plan.attack_tasks
        assert [t.key.defender for t in plan.tasks if t.kind == "defense"] == [
            "GCN-SVD",
            "GCN-SVD",
        ]


class TestExecutorFactory:
    def test_jobs_one_is_serial(self):
        # --jobs 1 is the same scheduler, running trials in this process.
        executor = make_executor(1)
        assert isinstance(executor, ParallelTrialExecutor)
        assert executor.jobs == 1

    def test_jobs_many_is_parallel(self):
        # total_cores pins capacity so the assertion holds on any machine.
        executor = make_executor(3, total_cores=4)
        assert isinstance(executor, ParallelTrialExecutor)
        assert executor.jobs == 3

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            make_executor(0)
        with pytest.raises(ConfigError):
            ParallelTrialExecutor(0)


class TestSweepTimings:
    def test_utilization_accounting(self):
        timings = SweepTimings(jobs=2)
        timings.start()
        timings.record("a", "defense", wall_seconds=1.0, queue_seconds=0.5)
        timings.record("b", "defense", wall_seconds=3.0)
        timings.finish()
        timings.makespan_seconds = 4.0
        assert timings.busy_seconds == 4.0
        assert timings.utilization == pytest.approx(0.5)
        assert timings.mean_queue_seconds == pytest.approx(0.25)
        summary = timings.summary()
        assert "2 jobs" in summary and "utilization" in summary

    def test_empty_sweep(self):
        timings = SweepTimings(jobs=4)
        assert timings.utilization == 0.0
        assert timings.mean_queue_seconds == 0.0
