"""Preemptible trials: deadline cancellation, mid-trial resume, backstop.

Integration layer for the cooperative-cancellation subsystem
(docs/fault_tolerance.md, "Cancellation, deadlines, and mid-trial
resume"):

* the supervisor's deadline is a cancel token observed in the caller's
  thread — no trial thread is started, and a deadline-tripped trial
  resumes from its snapshot with every work unit executed exactly once;
* the loops that once never polled (PGD, MinMax, Pro-GNN, DropEdge) poll
  once per iteration, so a deadline reaches them mid-fit;
* attacker and trainer epoch loops snapshot at their poll sites and
  resume **bit-identically** — flip sequences, objective traces, and
  weight trajectories match an uninterrupted run exactly;
* in parallel sweeps, a worker SIGTERM'd or OOM-killed mid-trial is
  requeued and the finished journal is bit-identical to a fault-free
  serial run; a worker wedged where it never polls is stopped by the
  scheduler once its trial overruns the deadline of every attempt, and
  its trial requeued;
* the ``table`` CLI exits with ``EXIT_INTERRUPTED`` on SIGTERM and
  ``--resume`` completes the sweep bit-identically.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import io
from repro.attacks import (
    AttackBudget,
    GFAttack,
    GRBCD,
    Metattack,
    MinMaxAttack,
    Nettack,
    PGDAttack,
    PRBCD,
)
from repro.cli import EXIT_INTERRUPTED
from repro.core import PEEGA
from repro.defenses import DropEdgeGCN, ProGNN
from repro.errors import DegradedWarning
from repro.experiments import (
    ExperimentRunner,
    ExperimentScale,
    SweepCheckpoint,
    TrialKey,
    TrialPolicy,
    TrialSupervisor,
    make_executor,
)
from repro.nn import GCN, TrainConfig, train_node_classifier
from repro.surrogate import PropagationCache
from repro.utils import cancellation, faults, snapshots
from repro.utils.cancellation import CancelledError, CancelToken, trial_scope
from repro.utils.faults import FaultInjector
from repro.utils.snapshots import TrialSnapshotter

CONFIG = ExperimentScale(scale=0.04, seeds=2, rate=0.1)
KEY = TrialKey("cora", "PEEGA", 0.1, "GCN", 0)


def counting_clock(step=1.0):
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def tick_deadlines(monkeypatch, step=1.0):
    """Give every :class:`CancelToken` the supervisor builds a counting
    clock: each deadline check advances it by ``step`` seconds, so a
    deadline trips at a fixed poll, with no wall-clock wait."""
    clock = counting_clock(step)

    class TickingToken(CancelToken):
        def __init__(self, **kwargs):
            super().__init__(clock=clock, **kwargs)

    monkeypatch.setattr(cancellation, "CancelToken", TickingToken)


def run_sweep(
    jobs=1,
    checkpoint=None,
    fault_spec=None,
    deadline=None,
    defenders=("GCN",),
):
    executor = make_executor(jobs)
    runner = ExperimentRunner(
        CONFIG,
        supervisor=TrialSupervisor(
            TrialPolicy(max_attempts=2, deadline_seconds=deadline)
        ),
        checkpoint=checkpoint,
        executor=executor,
    )
    injector = FaultInjector(FaultInjector.parse(fault_spec)) if fault_spec else None
    with faults.active(injector):
        return runner.accuracy_table(
            "cora", attackers=["PEEGA"], defenders=list(defenders)
        )


def cells_of(table):
    return {
        (row, name): (cell.values if cell is not None else None)
        for row, columns in table.rows.items()
        for name, cell in columns.items()
    }


def journal_records(checkpoint_dir):
    cells, failures = [], []
    for line in (checkpoint_dir / "journal.jsonl").read_text().splitlines():
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
# Supervisor: cooperative deadlines


class TestSupervisorDeadline:
    def test_deadline_trip_leaks_no_threads(self, monkeypatch):
        """A deadlined trial runs in the caller's thread and starts none:
        the deadline is a token its poll sites observe."""
        tick_deadlines(monkeypatch)
        caller = threading.current_thread()
        threads = threading.active_count()
        seen, polls = [], []

        def cooperative(attempt):
            seen.append((threading.current_thread(), threading.active_count()))
            while True:
                polls.append(attempt)
                cancellation.checkpoint("loop")

        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=1, deadline_seconds=2.5, backoff_seconds=0.0)
        )
        outcome = supervisor.run(KEY, cooperative)
        assert not outcome.ok
        assert outcome.failure.error_type == "DeadlineError"
        # The token reads 1 when built (deadline 3.5), then 2, 3 and 4.
        assert polls == [0, 0, 0]
        assert seen == [(caller, threads)]
        assert threading.active_count() == threads

    def test_deadline_resume_runs_each_unit_exactly_once(self, tmp_path, monkeypatch):
        """A deadline-tripped trial resumes from its snapshot: work units
        completed before the trip are never re-executed."""
        tick_deadlines(monkeypatch)
        executed = []

        def trial(attempt):
            unit = snapshots.begin_unit("steps")
            resumed = unit.resume_state()
            start = int(resumed[1]["step"]) if resumed is not None else 0
            for step in range(start, 6):
                executed.append(step)
                state = lambda s=step: ({}, {"step": s + 1})
                cancellation.checkpoint("steps", unit=unit, state=state)
            return "done"

        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=4, deadline_seconds=2.5, backoff_seconds=0.0)
        )
        sink = TrialSnapshotter(tmp_path / "snap.npz", interval=0)
        with trial_scope(sink=sink):
            outcome = supervisor.run(KEY, trial)
        assert outcome.ok and outcome.value == "done"
        # Each attempt's third poll trips its deadline: steps 0-2, then 3-5,
        # then a resumed attempt with nothing left to run.
        assert outcome.attempts == 3
        assert executed == list(range(6))  # exactly once each, in order
        assert not (tmp_path / "snap.npz").exists()  # discarded on success

    def test_failed_attempt_discards_snapshot(self, tmp_path):
        """A diverging (non-resumable) failure must not leak its snapshot
        into the reseeded retry — only deadline/OOM interruptions resume."""
        calls = []

        def trial(attempt):
            unit = snapshots.begin_unit("steps")
            calls.append(unit.resume_state())
            unit.offer(lambda: ({}, {"step": 3}), final=True)
            if len(calls) == 1:
                raise ValueError("diverged")
            return "ok"

        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=2, backoff_seconds=0.0)
        )
        sink = TrialSnapshotter(tmp_path / "snap.npz", interval=0)
        with trial_scope(sink=sink):
            outcome = supervisor.run(KEY, trial)
        assert outcome.ok
        assert calls == [None, None]  # retry started fresh, not from snapshot


class TestSnapshotTraffic:
    def test_uninterrupted_sweep_writes_no_snapshot(self, tmp_path, monkeypatch):
        """The write throttle is armed when an attempt starts, so trials
        that finish inside one snapshot interval write nothing — with the
        sink's clock frozen, no uninterrupted trial ever reaches it."""
        reference = run_sweep(jobs=1)

        monkeypatch.setattr(
            snapshots, "time", SimpleNamespace(monotonic=lambda: 0.0)
        )
        writes = []
        save_snapshot = io.save_snapshot

        def counting_save(path, *args, **kwargs):
            writes.append(path)
            save_snapshot(path, *args, **kwargs)

        monkeypatch.setattr(io, "save_snapshot", counting_save)
        checkpoint_dir = tmp_path / "ckpt"
        table = run_sweep(jobs=1, checkpoint=SweepCheckpoint(checkpoint_dir))

        assert writes == []
        assert list(checkpoint_dir.glob("snapshot_*.npz")) == []
        assert table.failures == []
        expected = sorted(
            (row, name, tuple(values))
            for (row, name), values in cells_of(reference).items()
            if values is not None
        )
        assert journal_records(checkpoint_dir) == (expected, [])


# ---------------------------------------------------------------------------
# Loops with a bare poll site: PGD and MinMax ascent, Pro-GNN, DropEdge

BARE_POLL_LOOPS = [
    (
        "pgd",
        lambda g: PGDAttack(steps=4, samples=2, seed=0).attack(g, AttackBudget(total=4.0)),
        4,
    ),
    (
        "minmax",
        lambda g: MinMaxAttack(steps=3, samples=2, inner_steps=1, seed=0).attack(
            g, AttackBudget(total=4.0)
        ),
        3,
    ),
    ("prognn", lambda g: ProGNN(outer_epochs=3, seed=0).fit(g), 3),
    (
        "dropedge",
        lambda g: DropEdgeGCN(
            train_config=TrainConfig(epochs=5, patience=100), seed=0
        ).fit(g),
        5,
    ),
]


def record_polls(monkeypatch):
    """Record the site of every poll; returns the (growing) list."""
    sites = []
    poll = cancellation.checkpoint

    def recording(where, *args, **kwargs):
        sites.append(where)
        return poll(where, *args, **kwargs)

    monkeypatch.setattr(cancellation, "checkpoint", recording)
    return sites


class TestBarePollSites:
    @pytest.mark.parametrize(
        "site,run,iterations", BARE_POLL_LOOPS, ids=[loop[0] for loop in BARE_POLL_LOOPS]
    )
    def test_polls_once_per_iteration(
        self, small_cora, monkeypatch, site, run, iterations
    ):
        sites = record_polls(monkeypatch)
        run(small_cora)
        assert sites.count(site) == iterations

    def test_prognn_deadline_trips_at_its_poll_site(self, small_cora, monkeypatch):
        """Pro-GNN's fit polls nowhere else, so before its poll site a
        deadline could not reach it mid-fit."""
        tick_deadlines(monkeypatch)
        # The token reads 1 when built (deadline 4.5): epochs poll at 2, 3,
        # 4 and trip at 5, the fourth epoch.
        token = cancellation.CancelToken(deadline_seconds=3.5)
        polls = record_polls(monkeypatch)
        with trial_scope(token=token), pytest.raises(CancelledError) as caught:
            ProGNN(outer_epochs=10, seed=0).fit(small_cora)
        assert caught.value.cause == cancellation.CAUSE_DEADLINE
        assert caught.value.site == "prognn"
        assert polls == ["prognn"] * 4


# ---------------------------------------------------------------------------
# Attack / fit loops: interrupt at a poll site, resume bit-identically


def flips_of(result):
    return [(f.u, f.v) for f in result.edge_flips]


class TestBitIdenticalResume:
    def _interrupt_and_resume(self, tmp_path, run, polls):
        """Run ``run()`` once clean, once interrupted after ``polls`` poll
        sites then resumed; return (reference, resumed) results."""
        reference = run()

        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        token = CancelToken(deadline_seconds=polls, clock=counting_clock())
        with trial_scope(token=token, sink=sink):
            with pytest.raises(CancelledError):
                run()

        resumed_sink = TrialSnapshotter(path, interval=0)
        assert resumed_sink.start_attempt(0) == 0
        assert resumed_sink.resuming()
        with trial_scope(token=CancelToken(), sink=resumed_sink):
            resumed = run()
        return reference, resumed

    def _assert_attacks_match(self, reference, resumed):
        assert flips_of(reference) == flips_of(resumed)
        np.testing.assert_array_equal(
            np.asarray(reference.objective_trace),
            np.asarray(resumed.objective_trace),
        )
        np.testing.assert_array_equal(
            reference.poisoned.adjacency.toarray(),
            resumed.poisoned.adjacency.toarray(),
        )

    def test_grbcd_sampled(self, tmp_path, small_cora):
        run = lambda: GRBCD(lam=0.0, p=2, block_size=350, seed=3).attack(
            small_cora, AttackBudget(total=10.0)
        )
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 4))

    def test_grbcd_exhaustive(self, tmp_path, tiny_graph):
        run = lambda: GRBCD(lam=0.0, p=2, block_size=10**6, seed=3).attack(
            tiny_graph, AttackBudget(total=4.0)
        )
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 2))

    def test_prbcd(self, tmp_path, small_cora):
        run = lambda: PRBCD(lam=0.0, p=2, block_size=60, epochs=6, seed=9).attack(
            small_cora, AttackBudget(total=8.0)
        )
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 3))

    def test_metattack(self, tmp_path, small_cora):
        run = lambda: Metattack(inner_steps=3, seed=0).attack(
            small_cora, perturbation_rate=0.05
        )
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 3))

    def test_metattack_features(self, tmp_path, small_cora):
        run = lambda: Metattack(
            inner_steps=3, attack_features=True, seed=0
        ).attack(small_cora, perturbation_rate=0.05)
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 3))

    def test_gf_attack(self, tmp_path, small_cora):
        run = lambda: GFAttack(candidate_pool=200, exact_candidates=2, seed=0).attack(
            small_cora, AttackBudget(total=5.0)
        )
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 3))

    def test_nettack(self, tmp_path, small_cora):
        target = int(np.argmax(small_cora.degrees()))
        run = lambda: Nettack(target=target, influencers=1, seed=0).attack(
            small_cora, AttackBudget(total=4.0)
        )
        reference, resumed = self._interrupt_and_resume(tmp_path, run, 3)
        self._assert_attacks_match(reference, resumed)
        assert reference.feature_flips == resumed.feature_flips

    def test_peega(self, tmp_path, small_cora):
        run = lambda: PEEGA(seed=0).attack(small_cora, perturbation_rate=0.08)
        self._assert_attacks_match(*self._interrupt_and_resume(tmp_path, run, 3))

    @pytest.mark.parametrize(
        "kwargs,budget",
        [
            ({}, {"total": 12.0}),
            ({"flips_per_step": 2}, {"total": 12.0, "feature_cost": 0.5}),
            ({"attack_topology": False}, {"total": 8.0}),
        ],
        ids=["default", "two-per-step-cheap-features", "features-only"],
    )
    def test_peega_replays_snapshot_in_one_batch(
        self, tmp_path, small_cora, monkeypatch, kwargs, budget
    ):
        """A PEEGA attack resumed from a mid-attack snapshot equals the
        uninterrupted run, feature flips included, and the first
        ``apply_batch`` of the resumed run holds every recorded flip."""
        runs = []  # per run: ("apply" | "apply_batch", flips) cache calls
        apply, apply_batch = PropagationCache.apply, PropagationCache.apply_batch

        def counting_apply(self, flip):
            runs[-1].append(("apply", [flip]))
            apply(self, flip)

        def counting_apply_batch(self, flips):
            flips = list(flips)
            runs[-1].append(("apply_batch", flips))
            apply_batch(self, flips)

        monkeypatch.setattr(PropagationCache, "apply", counting_apply)
        monkeypatch.setattr(PropagationCache, "apply_batch", counting_apply_batch)

        def run():
            runs.append([])
            return PEEGA(seed=0, **kwargs).attack(small_cora, AttackBudget(**budget))

        reference, resumed = self._interrupt_and_resume(tmp_path, run, 5)
        self._assert_attacks_match(reference, resumed)
        assert reference.feature_flips == resumed.feature_flips
        np.testing.assert_array_equal(
            reference.poisoned.features, resumed.poisoned.features
        )
        # The interrupted run snapshotted at its last poll, after its last
        # commit: the replay batch is every flip it had committed, in order.
        _, interrupted, resumed_calls = runs
        recorded = [flip for _, flips in interrupted for flip in flips]
        batches = [flips for name, flips in resumed_calls if name == "apply_batch"]
        assert recorded and batches[0] == recorded

    def test_trainer_weight_trajectory(self, tmp_path, small_cora):
        def run():
            model = GCN(small_cora.num_features, small_cora.num_classes, seed=0)
            result = train_node_classifier(
                model, small_cora, TrainConfig(epochs=40, patience=40)
            )
            return result

        reference, resumed = self._interrupt_and_resume(tmp_path, run, 12)
        assert reference.train_losses == resumed.train_losses
        assert reference.val_accuracies == resumed.val_accuracies
        assert reference.epochs_run == resumed.epochs_run
        assert reference.best_val_accuracy == resumed.best_val_accuracy
        assert reference.test_accuracy == resumed.test_accuracy
        for ours, theirs in zip(
            reference.model.parameters(), resumed.model.parameters()
        ):
            np.testing.assert_array_equal(ours.data, theirs.data)


# ---------------------------------------------------------------------------
# Parallel sweeps: worker preemption and hang detection


class TestParallelPreemption:
    def test_sigterm_mid_attack_resumes_bit_identical(self, tmp_path):
        """Satellite 3: SIGTERM a worker mid-attack; the trial snapshots at
        the signal, is requeued, resumes, and the merged journal is
        bit-identical to a fault-free serial run."""
        serial_dir = tmp_path / "serial"
        reference = run_sweep(jobs=1, checkpoint=SweepCheckpoint(serial_dir))

        parallel_dir = tmp_path / "parallel"
        with pytest.warns(DegradedWarning):
            table = run_sweep(
                jobs=2,
                checkpoint=SweepCheckpoint(parallel_dir),
                fault_spec="peega:sigterm:times=1:iteration=1",
            )
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)
        assert journal_records(serial_dir) == journal_records(parallel_dir)

    def test_sigterm_mid_fit_resumes_bit_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        reference = run_sweep(jobs=1, checkpoint=SweepCheckpoint(serial_dir))

        parallel_dir = tmp_path / "parallel"
        with pytest.warns(DegradedWarning):
            table = run_sweep(
                jobs=2,
                checkpoint=SweepCheckpoint(parallel_dir),
                # at=10 is epoch 5: the trainer site's invocation counter
                # advances twice per epoch (perturb + corrupt hooks).
                fault_spec="trainer:sigterm:times=1:at=10",
            )
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)
        assert journal_records(serial_dir) == journal_records(parallel_dir)

    def test_oomkill_mid_attack_resumes_bit_identical(self, tmp_path):
        """An OOM-killed worker dies with *no* final snapshot offer; resume
        starts from the last throttled snapshot (or scratch) and must still
        reproduce the serial run bit-for-bit."""
        serial_dir = tmp_path / "serial"
        reference = run_sweep(jobs=1, checkpoint=SweepCheckpoint(serial_dir))

        parallel_dir = tmp_path / "parallel"
        with pytest.warns(DegradedWarning):
            table = run_sweep(
                jobs=2,
                checkpoint=SweepCheckpoint(parallel_dir),
                fault_spec="peega:oomkill:times=1:iteration=1",
            )
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)
        assert journal_records(serial_dir) == journal_records(parallel_dir)

    def test_hung_worker_detected_and_requeued(self, tmp_path, monkeypatch):
        """A worker wedged where it never polls (a 60 s hang at an attack
        step that ignores the trial's deadline) is stopped by the scheduler
        once the trial overruns every attempt's deadline, and the trial is
        requeued; the finished sweep equals the serial one."""
        serial_dir = tmp_path / "serial"
        reference = run_sweep(jobs=1, checkpoint=SweepCheckpoint(serial_dir))

        def wedged(seconds):
            # Deaf to the trial's token: only the worker's shutdown cuts it.
            end = time.monotonic() + seconds
            while not cancellation.shutdown_requested() and time.monotonic() < end:
                time.sleep(0.01)

        # The pool forks after these patches, so its workers carry them.
        monkeypatch.setattr(faults, "_hang", wedged)
        # Counting-clock tokens: the 1 s deadline trips a clean trial only
        # after 1,000 polls, so the cooperative deadline never decides the
        # outcome; only the scheduler's backstop stops the wedged worker.
        tick_deadlines(monkeypatch, step=0.001)
        parallel_dir = tmp_path / "parallel"
        with pytest.warns(DegradedWarning) as caught:
            table = run_sweep(
                jobs=2,
                checkpoint=SweepCheckpoint(parallel_dir),
                fault_spec="peega:hang:seconds=60:times=1",
                deadline=1.0,
            )
        messages = [str(w.message) for w in caught]
        assert any("overran its 1s deadline" in m for m in messages), messages
        assert not [m for m in messages if "OOM" in m]
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)
        assert journal_records(serial_dir) == journal_records(parallel_dir)


# ---------------------------------------------------------------------------
# CLI: graceful shutdown and resume (satellite 2)


REPO_ROOT = Path(__file__).resolve().parents[1]
CLI_ARGS = [
    "table", "cora", "--scale", "0.04", "--seeds", "2",
    "--attackers", "PEEGA", "--defenders", "GCN",
]


def cli_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


class TestGracefulShutdownCLI:
    @pytest.mark.parametrize(
        "extra",
        [["--jobs", "1"], ["--jobs", "2"], ["--jobs", "1", "--deadline", "300"]],
        ids=["1", "2", "1-deadline"],
    )
    def test_sigterm_then_resume_bit_identical(self, tmp_path, extra):
        args = [*CLI_ARGS, *extra]
        reference_dir = tmp_path / "reference"
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args,
             "--checkpoint-dir", str(reference_dir)],
            cwd=REPO_ROOT, env=cli_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr

        interrupted_dir = tmp_path / "interrupted"
        # Stretch every trainer epoch so SIGTERM reliably lands mid-sweep.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args,
             "--checkpoint-dir", str(interrupted_dir)],
            cwd=REPO_ROOT,
            env=cli_env(REPRO_FAULTS="trainer:hang:seconds=0.2:times=10000"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            time.sleep(5.0)
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        except Exception:
            proc.kill()
            raise
        if proc.returncode == 0:
            pytest.skip("sweep finished before the signal landed")
        assert proc.returncode == EXIT_INTERRUPTED, err
        assert "interrupted" in err and "--resume" in err

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", *args,
             "--checkpoint-dir", str(interrupted_dir), "--resume"],
            cwd=REPO_ROOT, env=cli_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert journal_records(reference_dir) == journal_records(interrupted_dir)
