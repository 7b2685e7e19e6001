"""Chaos suite: trial supervision, fault injection, checkpoint/resume.

Exercises the fault-tolerant execution layer end to end with the
deterministic :mod:`repro.utils.faults` injector: transient faults are
retried, hangs are deadlined, permanent failures are quarantined into
``n/a`` cells, and an interrupted sweep resumed from its journal
reproduces the uninterrupted table bit for bit.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (
    AccuracyTable,
    CellResult,
    ExperimentRunner,
    ExperimentScale,
    SweepCheckpoint,
    TrialFailure,
    TrialKey,
    TrialPolicy,
    TrialSupervisor,
    evaluate_shape_claims,
    format_accuracy_table,
    make_executor,
    render_comparison,
    render_failure_appendix,
)
from repro.utils import faults
from repro.utils.faults import FaultInjector, FaultSpec, InjectedFault, InjectedKill


TINY = ExperimentScale(scale=0.04, seeds=2, rate=0.1)
ATTACKERS = ["PEEGA"]
DEFENDERS = ["GCN", "GCN-SVD"]


def tables_identical(a: AccuracyTable, b: AccuracyTable) -> bool:
    """Bit-exact cell equality (not approx): resume must be lossless."""
    if set(a.rows) != set(b.rows):
        return False
    for attacker in a.rows:
        if set(a.rows[attacker]) != set(b.rows[attacker]):
            return False
        for defender, cell in a.rows[attacker].items():
            other = b.rows[attacker][defender]
            if (cell is None) != (other is None):
                return False
            if cell is not None and cell.values != other.values:
                return False
    return True


# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_parse_grammar(self):
        specs = FaultInjector.parse(
            "attacker:throw:times=2;defender:hang:seconds=0.5:defender=GNAT;trainer:nan:at=3"
        )
        assert [s.site for s in specs] == ["attacker", "defender", "trainer"]
        assert specs[0].times == 2
        assert specs[1].seconds == 0.5
        assert specs[1].match == {"defender": "GNAT"}
        assert specs[2].at == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultInjector.parse("defender")
        with pytest.raises(ConfigError):
            FaultInjector.parse("defender:explode")
        with pytest.raises(ConfigError):
            FaultInjector.parse("defender:throw:times")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv(faults.ENV_VAR, "0")
        assert FaultInjector.from_env() is None
        monkeypatch.setenv(faults.ENV_VAR, "1")
        injector = FaultInjector.from_env()
        assert injector is not None and injector.specs == []
        monkeypatch.setenv(faults.ENV_VAR, "defender:throw:times=1")
        injector = FaultInjector.from_env()
        assert injector.specs[0].action == "throw"

    def test_times_disarms(self):
        injector = FaultInjector([FaultSpec(site="x", action="throw", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.perturb("x")
        injector.perturb("x")  # third call passes
        assert len(injector.events) == 2

    def test_at_matches_invocation_index(self):
        injector = FaultInjector([FaultSpec(site="x", action="throw", at=1)])
        injector.perturb("x")
        with pytest.raises(InjectedFault):
            injector.perturb("x")
        injector.perturb("x")

    def test_context_match_stringifies(self):
        injector = FaultInjector(
            [FaultSpec(site="x", action="throw", match={"seed": "1"})]
        )
        injector.perturb("x", seed=0)
        with pytest.raises(InjectedFault):
            injector.perturb("x", seed=1)

    def test_corrupt_returns_nan(self):
        injector = FaultInjector([FaultSpec(site="trainer", action="nan", at=1)])
        assert injector.corrupt("trainer", 0.5) == 0.5
        assert np.isnan(injector.corrupt("trainer", 0.5))

    def test_module_hooks_noop_when_uninstalled(self):
        assert faults.current() is None
        faults.perturb("anywhere")
        assert faults.corrupt("anywhere", 1.25) == 1.25

    def test_active_restores_previous(self):
        outer, inner = FaultInjector(), FaultInjector()
        with faults.active(outer):
            with faults.active(inner):
                assert faults.current() is inner
            assert faults.current() is outer
        assert faults.current() is None


# ---------------------------------------------------------------------------
class TestTrialSupervisor:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            TrialPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            TrialPolicy(deadline_seconds=0)
        with pytest.raises(ConfigError):
            TrialPolicy(backoff_seconds=-1)

    def test_retry_then_succeed_with_backoff_and_reseed(self):
        sleeps = []
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=3, backoff_seconds=0.1, backoff_factor=2.0),
            sleep=sleeps.append,
        )
        attempts_seen = []

        def flaky(attempt):
            attempts_seen.append(attempt)
            if attempt < 2:
                raise RuntimeError("transient")
            return "ok"

        outcome = supervisor.run(TrialKey("cora", "PEEGA", 0.1, "GCN", 0), flaky)
        assert outcome.ok and outcome.value == "ok"
        assert outcome.attempts == 3
        assert attempts_seen == [0, 1, 2]  # per-attempt reseeding hook
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]
        assert supervisor.failures == []

    def test_exhausted_retries_become_structured_failure(self):
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=2, backoff_seconds=0), sleep=lambda _: None
        )
        key = TrialKey("cora", "PEEGA", 0.1, "GCN", 1)

        def broken(attempt):
            raise ValueError("permanently broken")

        outcome = supervisor.run(key, broken)
        assert not outcome.ok
        failure = outcome.failure
        assert failure.key == key
        assert failure.attempts == 2
        assert failure.error_type == "ValueError"
        assert "permanently broken" in failure.message
        assert "ValueError" in failure.traceback
        assert failure.elapsed_seconds >= 0
        assert supervisor.failures == [failure]

    def test_deadline_kills_hang(self):
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=1, deadline_seconds=0.05), sleep=lambda _: None
        )
        injector = FaultInjector([FaultSpec(site="slow", action="hang", seconds=5.0)])

        def hangs(attempt):
            injector.perturb("slow")
            return "never"

        outcome = supervisor.run(TrialKey("cora", "PEEGA", 0.1, "GCN", 0), hangs)
        assert not outcome.ok
        assert outcome.failure.error_type == "DeadlineError"

    def test_deadline_passes_fast_trials_and_propagates_errors(self):
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=1, deadline_seconds=5.0), sleep=lambda _: None
        )
        ok = supervisor.run(TrialKey("cora", "PEEGA", 0.1, "GCN", 0), lambda a: 42)
        assert ok.ok and ok.value == 42
        bad = supervisor.run(
            TrialKey("cora", "PEEGA", 0.1, "GAT", 0),
            lambda a: (_ for _ in ()).throw(ValueError("inside thread")),
        )
        assert not bad.ok and bad.failure.error_type == "ValueError"

    def test_kill_propagates_uncaught(self):
        supervisor = TrialSupervisor(TrialPolicy(max_attempts=3), sleep=lambda _: None)

        def killed(attempt):
            raise InjectedKill("operator interrupt")

        with pytest.raises(InjectedKill):
            supervisor.run(TrialKey("cora", "PEEGA", 0.1), killed)
        assert supervisor.failures == []  # an abort is not a failure record


# ---------------------------------------------------------------------------
class TestTrainerDivergence:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_loss_raises(self, small_cora, bad):
        from repro.errors import DivergenceError
        from repro.nn import GCN, TrainConfig, train_node_classifier
        from repro.tensor import Tensor

        model = GCN(small_cora.num_features, small_cora.num_classes, seed=0)
        with pytest.raises(DivergenceError) as excinfo:
            train_node_classifier(
                model,
                small_cora,
                TrainConfig(epochs=5),
                loss_fn=lambda logits: Tensor(bad),
            )
        error = excinfo.value
        assert error.epoch == 0
        assert not np.isfinite(error.loss)
        assert not error.recovered  # diverged before any checkpoint existed

    def test_injected_nan_after_checkpoint_recovers_best_weights(self, small_cora):
        from repro.errors import DivergenceError
        from repro.nn import GCN, TrainConfig, train_node_classifier

        injector = FaultInjector(
            [FaultSpec(site="trainer", action="nan", match={"epoch": "3"})]
        )
        model = GCN(small_cora.num_features, small_cora.num_classes, seed=0)
        with faults.active(injector), pytest.raises(DivergenceError) as excinfo:
            train_node_classifier(model, small_cora, TrainConfig(epochs=10))
        error = excinfo.value
        assert error.epoch == 3
        assert error.recovered
        assert error.best_val_accuracy >= 0.0
        # The restored weights really are the best-validation checkpoint.
        from repro.graph import gcn_normalize
        from repro.nn import evaluate

        val_acc = evaluate(
            model,
            gcn_normalize(small_cora.adjacency),
            small_cora.features,
            small_cora.labels,
            small_cora.val_mask,
        )
        assert val_acc == pytest.approx(error.best_val_accuracy)


# ---------------------------------------------------------------------------
class TestChaosSweep:
    def test_transient_fault_is_retried_to_success(self):
        injector = FaultInjector(
            [FaultSpec(site="defender", action="throw", times=1, match={"defender": "GCN"})]
        )
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=2, backoff_seconds=0), sleep=lambda _: None
        )
        with faults.active(injector):
            runner = ExperimentRunner(TINY, supervisor=supervisor)
            table = runner.accuracy_table("cora", attackers=[], defenders=["GCN"])
        assert injector.events and injector.events[0].action == "throw"
        assert table.failures == []
        assert table.rows["Clean"]["GCN"] is not None

    def test_hang_is_deadlined_and_recorded(self):
        injector = FaultInjector(
            [
                FaultSpec(
                    site="defender", action="hang", seconds=30.0,
                    match={"defender": "GCN-SVD", "seed": "0"},
                )
            ]
        )
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=1, deadline_seconds=0.5), sleep=lambda _: None
        )
        with faults.active(injector):
            runner = ExperimentRunner(TINY, supervisor=supervisor)
            table = runner.accuracy_table("cora", attackers=[], defenders=DEFENDERS)
        assert table.rows["Clean"]["GCN"] is not None  # untouched cell completed
        assert table.rows["Clean"]["GCN-SVD"] is None
        assert len(table.failures) == 1
        assert table.failures[0].error_type == "DeadlineError"

    def test_permanently_failing_defender_quarantined_once(self):
        injector = FaultInjector(
            [FaultSpec(site="defender", action="throw", match={"defender": "GCN-SVD"})]
        )
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=2, backoff_seconds=0), sleep=lambda _: None
        )
        with faults.active(injector):
            runner = ExperimentRunner(TINY, supervisor=supervisor)
            table = runner.accuracy_table("cora", attackers=ATTACKERS, defenders=DEFENDERS)
        # Every non-quarantined cell completed; exactly one structured failure.
        assert len(table.failures) == 1
        assert table.failures[0].key.defender == "GCN-SVD"
        assert table.failures[0].attempts == 2
        for attacker in ("Clean", "PEEGA"):
            assert table.rows[attacker]["GCN"] is not None
            assert table.rows[attacker]["GCN-SVD"] is None
        assert table.num_failed_cells == 2
        # Only the first trial's two attempts fired: quarantined trials never ran.
        assert len(injector.events) == 2

    def test_failing_attacker_yields_na_row(self):
        injector = FaultInjector(
            [FaultSpec(site="attacker", action="throw", match={"attacker": "PEEGA"})]
        )
        supervisor = TrialSupervisor(
            TrialPolicy(max_attempts=2, backoff_seconds=0), sleep=lambda _: None
        )
        with faults.active(injector):
            runner = ExperimentRunner(TINY, supervisor=supervisor)
            table = runner.accuracy_table("cora", attackers=ATTACKERS, defenders=["GCN"])
        assert table.rows["Clean"]["GCN"] is not None
        assert table.rows["PEEGA"]["GCN"] is None
        assert len(table.failures) == 1
        assert table.failures[0].key.defender is None

    def test_resume_equivalence_after_mid_grid_kill(self, tmp_path):
        reference = ExperimentRunner(TINY).accuracy_table(
            "cora", attackers=ATTACKERS, defenders=DEFENDERS
        )
        # Kill at the 6th defender trial: after the attack ran, so the resumed
        # sweep must reuse the persisted poison graph, not regenerate it.
        injector = FaultInjector([FaultSpec(site="defender", action="kill", at=5)])
        with faults.active(injector), pytest.raises(InjectedKill):
            ExperimentRunner(TINY, checkpoint=SweepCheckpoint(tmp_path)).accuracy_table(
                "cora", attackers=ATTACKERS, defenders=DEFENDERS
            )
        poisons = list(tmp_path.glob("poison_*.npz"))
        assert len(poisons) == 1
        poison_mtime = poisons[0].stat().st_mtime_ns

        checkpoint = SweepCheckpoint(tmp_path, resume=True)
        runner = ExperimentRunner(TINY, checkpoint=checkpoint)
        resumed = runner.accuracy_table("cora", attackers=ATTACKERS, defenders=DEFENDERS)
        assert poisons[0].stat().st_mtime_ns == poison_mtime  # loaded, not rewritten
        assert tables_identical(reference, resumed)
        assert resumed.failures == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumed_sweep_skips_completed_attack(self, tmp_path, monkeypatch, jobs):
        reference = ExperimentRunner(
            TINY, checkpoint=SweepCheckpoint(tmp_path)
        ).accuracy_table("cora", attackers=ATTACKERS, defenders=DEFENDERS)
        # Drop one cell of the attacked row: the resume must run that cell's
        # trials on the persisted poison, so the plan keeps the row's attack.
        journal = tmp_path / "journal.jsonl"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        kept = [
            r for r in records
            if not (r["attacker"] == "PEEGA" and r.get("defender") == "GCN-SVD")
        ]
        assert len(kept) == len(records) - 1
        journal.write_text("".join(json.dumps(r) + "\n" for r in kept))
        [poison] = tmp_path.glob("poison_*.npz")
        poison_mtime = poison.stat().st_mtime_ns

        # The attack trial must be resolved from the archive, never run.
        from repro.experiments import parallel

        def exploding_attacker(*args, **kwargs):
            raise AssertionError("attack re-ran on resume")

        monkeypatch.setattr(parallel, "make_attacker", exploding_attacker)
        resumed = ExperimentRunner(
            TINY,
            checkpoint=SweepCheckpoint(tmp_path, resume=True),
            executor=make_executor(jobs),
        ).accuracy_table("cora", attackers=ATTACKERS, defenders=DEFENDERS)
        assert resumed.failures == []
        assert tables_identical(reference, resumed)
        assert poison.stat().st_mtime_ns == poison_mtime


# ---------------------------------------------------------------------------
class TestSweepCheckpoint:
    def test_cell_round_trip_is_exact(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        values = [0.1 + 0.2, 1 / 3, 0.8227848101265823]
        checkpoint.record_cell("cora", "PEEGA", 0.1, "GCN", values)
        reloaded = SweepCheckpoint(tmp_path, resume=True)
        assert reloaded.cell_values("cora", "PEEGA", 0.1, "GCN") == values

    def test_fresh_start_truncates_journal(self, tmp_path):
        SweepCheckpoint(tmp_path).record_cell("cora", "PEEGA", 0.1, "GCN", [0.5])
        fresh = SweepCheckpoint(tmp_path, resume=False)
        assert fresh.cell_values("cora", "PEEGA", 0.1, "GCN") is None

    def test_torn_trailing_line_ignored(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.record_cell("cora", "PEEGA", 0.1, "GCN", [0.5, 0.6])
        with open(checkpoint.journal_path, "a") as handle:
            handle.write('{"kind": "cell", "dataset": "co')  # hard kill mid-write
        reloaded = SweepCheckpoint(tmp_path, resume=True)
        assert reloaded.cell_values("cora", "PEEGA", 0.1, "GCN") == [0.5, 0.6]

    def test_failures_journalled_and_reloaded(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        failure = TrialFailure(
            key=TrialKey("cora", "PEEGA", 0.1, "GNAT", 2),
            attempts=3,
            elapsed_seconds=1.5,
            error_type="DivergenceError",
            message="non-finite loss",
            traceback="Traceback ...",
        )
        checkpoint.record_failure(failure)
        reloaded = SweepCheckpoint(tmp_path, resume=True)
        assert reloaded.failures == [failure]
        record = json.loads(checkpoint.journal_path.read_text().splitlines()[0])
        assert record["kind"] == "failure" and record["defender"] == "GNAT"


# ---------------------------------------------------------------------------
class TestPartialGrids:
    def make_partial_table(self):
        table = AccuracyTable(dataset="cora", rate=0.1)
        table.rows["Clean"] = {
            "GCN": CellResult.from_values([0.8, 0.82]),
            "GNAT": CellResult.from_values([0.81, 0.83]),
        }
        table.rows["PEEGA"] = {
            "GCN": CellResult.from_values([0.7, 0.72]),
            "GNAT": None,
        }
        table.failures = [
            TrialFailure(
                key=TrialKey("cora", "PEEGA", 0.1, "GNAT", 0),
                attempts=2,
                elapsed_seconds=0.4,
                error_type="DivergenceError",
                message="non-finite loss nan at epoch 7",
            )
        ]
        return table

    def test_cellresult_grid_with_na_cells(self):
        table = self.make_partial_table()
        assert table.num_failed_cells == 1
        assert table.best_defender("Clean") == "GNAT"
        assert table.best_defender("PEEGA") == "GCN"  # n/a cell skipped
        assert table.strongest_attacker("GCN") == "PEEGA"
        assert table.strongest_attacker("GNAT") is None  # only n/a attacked cells

    def test_all_na_row(self):
        table = self.make_partial_table()
        table.rows["PEEGA"] = {"GCN": None, "GNAT": None}
        assert table.best_defender("PEEGA") is None
        text = format_accuracy_table(table)
        assert text.count("n/a") >= 2

    def test_format_renders_na_and_failure_note(self):
        text = format_accuracy_table(self.make_partial_table(), title="partial")
        assert "n/a" in text
        assert "1 cell n/a" in text
        assert "failure appendix" in text

    def test_render_comparison_handles_na(self):
        text = render_comparison(self.make_partial_table())
        assert "n/a" in text
        assert "Failure appendix" in text
        assert "DivergenceError" in text

    def test_shape_claims_survive_na_cells(self):
        claims = dict(evaluate_shape_claims(self.make_partial_table()))
        assert claims["GNAT is the best defender under PEEGA"] is False

    def test_failure_appendix_empty_for_clean_sweep(self):
        assert render_failure_appendix([]) == ""


# ---------------------------------------------------------------------------
class TestCliResume:
    ARGS = [
        "table", "cora", "--scale", "0.04", "--seeds", "1",
        "--attackers", "PEEGA", "--defenders", "GCN",
    ]

    def test_resume_requires_checkpoint_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table", "cora", "--resume"])

    def test_failed_sweep_exits_nonzero_with_appendix(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(faults.ENV_VAR, "defender:throw:defender=GCN")
        code = main(self.ARGS + ["--checkpoint-dir", str(tmp_path), "--max-attempts", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "Failure appendix" in captured.err
        assert "InjectedFault" in captured.err
        assert "n/a" in captured.out

    def test_interrupted_then_resumed_sweep_succeeds(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(faults.ENV_VAR, "defender:kill:at=1")
        with pytest.raises(InjectedKill):
            main(self.ARGS + ["--checkpoint-dir", str(tmp_path)])
        monkeypatch.delenv(faults.ENV_VAR)
        code = main(self.ARGS + ["--checkpoint-dir", str(tmp_path), "--resume"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PEEGA" in captured.out
        assert captured.err == ""
