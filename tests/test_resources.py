"""Resource governance: budgets, the unified cache store, and recovery.

Covers the contracts in docs/resource_governance.md:

* :class:`MemoryBudget` watermarks fire on upward crossings and re-arm on
  the way down (scripted RSS readers — no real allocation games).
* :class:`KeyedArtifactStore` enforces per-store and *global* byte budgets
  LRU-first and never evicts pinned entries.
* ``require_free_disk`` / ``with_disk_retry`` turn ENOSPC into structured,
  retryable :class:`ResourceError` s — chaos-driven by ``disk_full`` rules.
* Memory exhaustion is recovered without shrinking anything: an
  OOM-killed ``--jobs N`` worker is detected, its trial requeued as it
  was, and the finished journal is bit-identical to a fault-free serial
  run; a trial that raises ``MemoryError`` is retried with the same
  environment and seeds; PRBCD/GRBCD halve their candidate block
  deterministically on an in-attack ``MemoryError``.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import GRBCD, PRBCD
from repro.attacks.base import AttackBudget
from repro.cli import main
from repro.datasets import load_dataset
from repro.errors import CapacityWarning, ConfigError, DegradedWarning, ResourceError
from repro.experiments import (
    ExperimentRunner,
    ExperimentScale,
    SweepCheckpoint,
    TrialPolicy,
    TrialSupervisor,
    make_executor,
)
from repro.experiments.parallel import trial_body
from repro.experiments.supervisor import TrialKey
from repro.utils import faults
from repro.utils.faults import FaultInjector
from repro.utils.keystore import (
    KeyedArtifactStore,
    cache_report,
    clear_all_stores,
    estimate_nbytes,
    evict_fraction,
    set_cache_bytes,
)
from repro.utils.resources import (
    MemoryBudget,
    active_budget,
    budget_check,
    enforced_budget,
    enforced_limit,
    format_bytes,
    free_disk_bytes,
    parse_bytes,
    require_free_disk,
    with_disk_retry,
)

CONFIG = ExperimentScale(scale=0.04, seeds=2, rate=0.1)
ATTACKERS = ["PEEGA"]
DEFENDERS = ["GCN"]
JOBS = 2


def run_sweep(
    jobs=1, checkpoint=None, fault_spec=None, max_attempts=2, defenders=DEFENDERS
):
    executor = make_executor(jobs)
    runner = ExperimentRunner(
        CONFIG,
        supervisor=TrialSupervisor(TrialPolicy(max_attempts=max_attempts)),
        checkpoint=checkpoint,
        executor=executor,
    )
    injector = FaultInjector(FaultInjector.parse(fault_spec)) if fault_spec else None
    with faults.active(injector):
        table = runner.accuracy_table("cora", attackers=ATTACKERS, defenders=defenders)
    return table, executor, injector


def cells_of(table):
    return {
        (row, name): (cell.values if cell is not None else None)
        for row, columns in table.rows.items()
        for name, cell in columns.items()
    }


def journal_records(checkpoint_dir):
    import json

    cells, failures = [], []
    for line in (checkpoint_dir / "journal.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "cell":
            cells.append(
                (record["attacker"], record["defender"], tuple(record["values"]))
            )
        else:
            failures.append(
                (record["attacker"], record.get("defender"), record["error_type"])
            )
    return sorted(cells), sorted(failures)


# ---------------------------------------------------------------------------
# Byte parsing


class TestByteParsing:
    def test_suffixes(self):
        assert parse_bytes("512") == 512
        assert parse_bytes("2k") == 2048
        assert parse_bytes("1.5M") == int(1.5 * 1024**2)
        assert parse_bytes("2GB") == 2 * 1024**3
        assert parse_bytes(4096) == 4096

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_bytes("lots")
        with pytest.raises(ConfigError):
            parse_bytes("-1M")

    def test_format_roundtrip_scale(self):
        assert format_bytes(512) == "512 B"
        assert "GiB" in format_bytes(3 * 1024**3)


# ---------------------------------------------------------------------------
# Memory budget


class TestMemoryBudget:
    def test_watermark_fires_and_rearms(self):
        readings = iter([10, 85, 90, 50, 85])
        budget = MemoryBudget(limit_bytes=100, reader=lambda: next(readings))
        fired = []
        budget.add_watermark(0.8, lambda rss, limit: fired.append((rss, limit)))
        for _ in range(5):
            budget.check()
        # Fires crossing 80 upward (85), stays silent at 90, re-arms at 50,
        # fires again at the second 85.
        assert fired == [(85, 100), (85, 100)]
        assert budget.peak_bytes == 90

    def test_enforce_raises_structured_error(self):
        budget = MemoryBudget(limit_bytes=100, enforce=True, reader=lambda: 150)
        with pytest.raises(ResourceError) as info:
            budget.check("scoring")
        assert info.value.resource == "memory"
        assert info.value.available_bytes == 100
        assert "scoring" in str(info.value)

    def test_enforce_spares_when_watermark_frees_memory(self):
        # The watermark (e.g. cache eviction) releases memory; the enforce
        # re-sample must observe that and not raise.
        state = {"rss": 150}
        budget = MemoryBudget(
            limit_bytes=100, enforce=True, reader=lambda: state["rss"]
        )
        budget.add_watermark(0.8, lambda rss, limit: state.update(rss=40))
        assert budget.check() == 40

    def test_ambient_budget_check(self):
        budget = MemoryBudget(limit_bytes=100, reader=lambda: 7)
        assert budget_check() is None  # ungoverned: no-op
        with active_budget(budget):
            assert budget_check("anywhere") == 7

    def test_enforced_budget(self):
        assert enforced_budget(None) is None
        assert enforced_budget(0) is None
        budget = enforced_budget(2 * 1024**3)
        assert budget.limit_bytes == 2 * 1024**3 and budget.enforce
        with active_budget(budget):
            assert enforced_limit() == 2 * 1024**3
        with active_budget(MemoryBudget(limit_bytes=100)):
            assert enforced_limit() is None  # a measuring budget sets no ceiling

    def test_env_budget_evicts_then_enforces(self):
        # The --memory-budget budget: crossing 80% evicts cached bytes,
        # crossing the ceiling raises the ladder's structured error.
        clear_all_stores()
        store = KeyedArtifactStore("t-env-budget")
        for i in range(4):
            store.put(i, _array(1))
        budget = enforced_budget(100)
        readings = iter([50, 85, 150, 150])
        budget.reader = lambda: next(readings)
        assert budget.check() == 50 and len(store) == 4
        assert budget.check() == 85 and len(store) < 4
        with pytest.raises(ResourceError) as caught:
            budget.check("attack")
        assert caught.value.resource == "memory"

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigError):
            MemoryBudget(limit_bytes=0)


class TestBudgetSampledWhereWorkStarts:
    """Every attack and every fit samples the ambient budget as it starts:
    the ``attack``/``defend`` CLI commands and a sweep's defense trials."""

    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "cora.npz"
        assert main(["dataset", "cora", "--scale", "0.05", "--out", str(path)]) == 0
        return path

    def test_cli_attack_over_budget_exits_2(self, graph_file, tmp_path, capsys):
        out = tmp_path / "poison.npz"
        argv = ["attack", "PEEGA", "--graph", str(graph_file), "--rate", "0.05",
                "--out", str(out), "--memory-budget", "1M"]
        assert main(argv) == 2
        assert "1.0 MiB memory budget during PEEGA attack on cora" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_defend_over_budget_exits_2(self, graph_file, capsys):
        argv = ["defend", "GCN", "--graph", str(graph_file), "--seeds", "1",
                "--memory-budget", "1M"]
        assert main(argv) == 2
        assert "1.0 MiB memory budget during GCN fit on cora" in capsys.readouterr().err
        argv[-1] = "8G"  # a budget the fit stays under changes nothing
        assert main(argv) == 0
        assert "GCN on cora" in capsys.readouterr().out

    def test_cli_sweep_budget_governs_the_workers(self, capsys):
        """``table --jobs 2 --memory-budget 1M``: every trial runs in a pool
        worker and fails on the memory budget the parent handed it, and
        the CLI leaves neither an environment variable nor a budget behind."""
        environ = dict(os.environ)
        argv = ["table", "cora", "--scale", "0.04", "--seeds", "1",
                "--attackers", "PEEGA", "--defenders", "GCN", "--jobs", "2",
                "--memory-budget", "1M"]
        assert main(argv) == 3
        appendix = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("- cora/")
        ]
        assert appendix
        assert all(
            "ResourceError" in line and "1.0 MiB memory budget during" in line
            for line in appendix
        )
        assert dict(os.environ) == environ
        assert enforced_limit() is None

    @pytest.mark.parametrize("kind", ["attack", "defense"])
    def test_sweep_trials_sampled(self, small_cora, kind):
        key = TrialKey("cora", "PEEGA", 0.05, *(("GCN", 0) if kind == "defense" else ()))
        body = trial_body(kind, key, small_cora, "strict")
        with active_budget(MemoryBudget(limit_bytes=100, enforce=True, reader=lambda: 150)):
            with pytest.raises(ResourceError, match="memory budget during") as caught:
                body(0)
        assert caught.value.resource == "memory"


# ---------------------------------------------------------------------------
# Unified artifact store


@pytest.fixture(autouse=True)
def _no_global_cache_budget():
    """Tests below set the global budget; always lift it afterwards."""
    yield
    set_cache_bytes(None)


def _array(kib: int) -> np.ndarray:
    return np.zeros(kib * 128, dtype=np.float64)  # kib KiB exactly


class TestKeyedArtifactStore:
    def test_byte_budget_evicts_lru_first(self):
        store = KeyedArtifactStore("t-bytes", capacity_bytes=3 * 1024)
        store.put("a", _array(1))
        store.put("b", _array(1))
        store.put("c", _array(1))
        store.get("a")  # refresh: b is now the LRU
        store.put("d", _array(1))
        assert store.keys() == ["c", "a", "d"]
        assert store.total_bytes == 3 * 1024
        assert store.stats()["evictions"] == 1

    def test_pinned_entries_survive_pressure_until_unpinned(self):
        store = KeyedArtifactStore("t-pins", capacity_bytes=1024)
        store.put("precious", _array(2), pinned=True)  # over budget but pinned
        store.put("bulk", _array(1))
        assert "precious" in store
        assert store.stats()["rejected_pins"] > 0
        store.unpin("precious")
        store.put("more", _array(1))
        assert "precious" not in store

    def test_global_budget_evicts_across_stores(self):
        # Stores from earlier tests (view cache, SGC memo, live runners'
        # poison stores) may still hold bytes — possibly pinned — that
        # count against the tiny budget below; start from a clean slate.
        clear_all_stores()
        first = KeyedArtifactStore("t-global-a")
        second = KeyedArtifactStore("t-global-b")
        first.put("old", _array(2))
        second.put("new", _array(2))
        set_cache_bytes(3 * 1024)
        # The globally oldest tick lives in `first` — it pays the eviction.
        assert "old" not in first
        assert "new" in second
        report = cache_report()
        assert report["budget_bytes"] == 3 * 1024
        assert report["total_bytes"] <= 3 * 1024

    def test_evict_fraction_is_the_watermark_callback(self):
        store = KeyedArtifactStore("t-watermark")
        for i in range(4):
            store.put(i, _array(1))
        budget = MemoryBudget(limit_bytes=100, reader=lambda: 90)
        budget.add_watermark(0.8, lambda rss, limit: evict_fraction(1.0))
        budget.check()
        assert len(store) == 0

    def test_estimate_understands_repro_payloads(self, tiny_graph):
        dense = np.zeros((4, 4))
        assert estimate_nbytes(dense) == dense.nbytes
        adjacency = tiny_graph.adjacency.tocsr()
        assert estimate_nbytes(adjacency) == (
            adjacency.data.nbytes
            + adjacency.indices.nbytes
            + adjacency.indptr.nbytes
        )
        assert estimate_nbytes(tiny_graph) > estimate_nbytes(adjacency)


# ---------------------------------------------------------------------------
# Disk preflight + retry


class TestDiskGovernance:
    def test_free_disk_probes_first_existing_ancestor(self, tmp_path):
        assert free_disk_bytes(tmp_path / "not" / "yet" / "made.npz") > 0

    def test_require_free_disk_names_path_and_bytes(self, tmp_path):
        target = tmp_path / "big.npz"
        with pytest.raises(ResourceError) as info:
            require_free_disk(target, 1 << 60)
        assert info.value.resource == "disk"
        assert info.value.path == str(target)
        assert info.value.needed_bytes == 1 << 60

    def test_injected_disk_full(self, tmp_path):
        injector = FaultInjector(FaultInjector.parse("mysite:disk_full"))
        with faults.active(injector):
            with pytest.raises(ResourceError):
                require_free_disk(tmp_path / "x", 1, site="mysite")
            require_free_disk(tmp_path / "x", 1, site="othersite")  # no match

    def test_with_disk_retry_absorbs_transients(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ResourceError("full", resource="disk")
            return "ok"

        naps = []
        assert with_disk_retry(flaky, attempts=3, sleep=naps.append) == "ok"
        assert len(naps) == 2  # exponential backoff, bounded

    def test_with_disk_retry_reraises_persistent(self):
        def always_full():
            raise ResourceError("full", resource="disk")

        with pytest.raises(ResourceError):
            with_disk_retry(always_full, attempts=2, sleep=lambda _: None)


# ---------------------------------------------------------------------------
# Jobs clamp


class TestJobsClamp:
    def test_oversubscription_clamped_with_warning(self):
        with pytest.warns(CapacityWarning):
            executor = make_executor(8, total_cores=4)
        assert executor.jobs == 4

    def test_never_clamped_below_a_real_pool(self):
        # Process isolation (and dead-worker recovery) is a semantic choice:
        # on a 1-core box jobs=2 stays a pool, jobs>2 clamps to 2.
        with warnings.catch_warnings():
            warnings.simplefilter("error", CapacityWarning)
            assert make_executor(2, total_cores=1).jobs == 2
        with pytest.warns(CapacityWarning):
            assert make_executor(5, total_cores=1).jobs == 2

    def test_within_capacity_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CapacityWarning)
            assert make_executor(3, total_cores=8).jobs == 3


# ---------------------------------------------------------------------------
# In-attack MemoryError: the candidate block shrinks deterministically


class TestBlockAttackDegradation:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("cora", scale=0.05)

    def _attack(self, cls, graph, spec=None, **kwargs):
        attacker = cls(block_size=64, seed=7, **kwargs)
        budget = AttackBudget(total=6)
        if spec is None:
            return attacker.attack(graph, budget)
        injector = FaultInjector(FaultInjector.parse(spec))
        with faults.active(injector), pytest.warns(DegradedWarning):
            return attacker.attack(graph, budget)

    @pytest.mark.parametrize("cls", [GRBCD, PRBCD], ids=["grbcd", "prbcd"])
    def test_oom_shrinks_block_and_finishes(self, cls, graph):
        clean = self._attack(cls, graph)
        degraded = self._attack(cls, graph, spec="rbcd:oom:at=2")
        assert len(degraded.edge_flips) == len(clean.edge_flips) == 6

    @pytest.mark.parametrize("cls", [GRBCD, PRBCD], ids=["grbcd", "prbcd"])
    def test_degraded_run_is_deterministic(self, cls, graph):
        first = self._attack(cls, graph, spec="rbcd:oom:at=2")
        second = self._attack(cls, graph, spec="rbcd:oom:at=2")
        assert [(f.u, f.v) for f in first.edge_flips] == [
            (f.u, f.v) for f in second.edge_flips
        ]

    def test_exhausted_ladder_propagates(self, graph):
        attacker = GRBCD(block_size=4, seed=7)
        injector = FaultInjector(FaultInjector.parse("rbcd:oom:times=99"))
        with faults.active(injector), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedWarning)
            with pytest.raises(MemoryError):
                attacker.attack(graph, AttackBudget(total=6))

    def test_block_size_restored_between_runs(self, graph):
        attacker = PRBCD(block_size=64, seed=7, epochs=2)
        injector = FaultInjector(FaultInjector.parse("rbcd:oom:at=1"))
        with faults.active(injector), pytest.warns(DegradedWarning):
            attacker.attack(graph, AttackBudget(total=4))
        clean_again = attacker.attack(graph, AttackBudget(total=4))
        reference = PRBCD(block_size=64, seed=7, epochs=2).attack(
            graph, AttackBudget(total=4)
        )
        # RNG state differs after the degraded run, but the *configured*
        # block is back: a fresh attacker with the same seed matches shape.
        assert attacker._active_block == 64
        assert len(clean_again.edge_flips) == len(reference.edge_flips)


# ---------------------------------------------------------------------------
# Sweep-level recovery: disk_full, OOM-killed workers, in-trial MemoryError


class TestSweepDiskFaults:
    def test_transient_journal_disk_full_absorbed(self, tmp_path):
        clean_dir, faulted_dir = tmp_path / "clean", tmp_path / "faulted"
        reference, _, _ = run_sweep(jobs=1, checkpoint=SweepCheckpoint(clean_dir))
        table, _, _ = run_sweep(
            jobs=1,
            checkpoint=SweepCheckpoint(faulted_dir),
            fault_spec="journal_disk:disk_full:times=1",
        )
        assert cells_of(table) == cells_of(reference)
        assert journal_records(clean_dir) == journal_records(faulted_dir)

    def test_transient_poison_disk_full_absorbed(self, tmp_path):
        clean_dir, faulted_dir = tmp_path / "clean", tmp_path / "faulted"
        reference, _, _ = run_sweep(jobs=1, checkpoint=SweepCheckpoint(clean_dir))
        table, _, _ = run_sweep(
            jobs=1,
            checkpoint=SweepCheckpoint(faulted_dir),
            fault_spec="poison_disk:disk_full:times=1",
        )
        assert cells_of(table) == cells_of(reference)
        assert journal_records(clean_dir) == journal_records(faulted_dir)
        # The poison archive still landed after the retry.
        assert list(faulted_dir.glob("poison_*.npz"))

    def test_persistent_disk_full_raises_structured(self, tmp_path):
        with pytest.raises(ResourceError) as info:
            run_sweep(
                jobs=1,
                checkpoint=SweepCheckpoint(tmp_path / "ckpt"),
                fault_spec="journal_disk:disk_full",
            )
        assert info.value.resource == "disk"
        assert "journal" in str(info.value.path)

    def test_transient_poison_spill_disk_full_absorbed(self):
        """Without a checkpoint, a pool sweep spills each poison for its
        workers behind the same preflight and retries as the archive."""
        reference, _, _ = run_sweep(jobs=1)
        table, _, injector = run_sweep(
            jobs=JOBS, fault_spec="poison_disk:disk_full:times=1"
        )
        assert injector.specs[0].fired == 1
        assert cells_of(table) == cells_of(reference)

    def test_persistent_poison_spill_disk_full_raises_structured(self):
        with pytest.raises(ResourceError) as info:
            run_sweep(jobs=JOBS, fault_spec="poison_disk:disk_full")
        assert info.value.resource == "disk"
        spill = Path(info.value.path)
        assert spill.parent.name.startswith("repro-poisons-")
        # The private spill directory is removed on the way out.
        assert not spill.parent.exists()


class TestWorkerDeathRecovery:
    def test_oomkilled_worker_requeued_bit_identical(self, tmp_path):
        """Kill a pool worker: its trial is requeued as it was, and the
        finished journal is bit-identical to a fault-free serial run."""
        serial_dir = tmp_path / "serial"
        reference, _, _ = run_sweep(jobs=1, checkpoint=SweepCheckpoint(serial_dir))

        parallel_dir = tmp_path / "parallel"
        with pytest.warns(DegradedWarning, match="pool worker died; requeued"):
            table, _, _ = run_sweep(
                jobs=JOBS,
                checkpoint=SweepCheckpoint(parallel_dir),
                fault_spec="defender:oomkill:attacker=Clean:defender=GCN:seed=0",
            )
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)
        assert journal_records(serial_dir) == journal_records(parallel_dir)

    def test_only_running_trials_are_requeued(self):
        """At most ``jobs`` trials run on the pool, so a worker death
        requeues at most ``jobs`` of them: queued trials never started and
        are no victims."""
        defenders = ["GCN", "GCN-SVD"]
        reference, _, _ = run_sweep(jobs=1, defenders=defenders)
        with pytest.warns(DegradedWarning) as caught:
            table, _, _ = run_sweep(
                jobs=JOBS,
                fault_spec="defender:oomkill:attacker=Clean:defender=GCN:seed=0",
                defenders=defenders,
            )
        requeued = [w for w in caught if "pool worker died; requeued" in str(w.message)]
        assert 1 <= len(requeued) <= JOBS
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)

    def test_repeatedly_killed_trial_becomes_structured_failure(self):
        # The trials a pool break takes down together re-run one at a time,
        # so only the trial that keeps killing its worker is charged: it
        # fails (quarantining GCN), and every other cell — the PEEGA row
        # included — is filled as in a fault-free sweep.
        reference, _, _ = run_sweep(jobs=1)
        spec = "defender:oomkill:times=99:attacker=Clean:defender=GCN:seed=0"
        with pytest.warns(DegradedWarning):
            table, _, _ = run_sweep(jobs=JOBS, fault_spec=spec)
        [failure] = table.failures
        assert (failure.key.attacker, failure.key.defender, failure.key.seed) == (
            "Clean", "GCN", 0
        )
        assert failure.message == (
            "pool worker died 4 times running cora/Clean/r=0.1/GCN/seed=0"
        )
        expected = cells_of(reference)
        for row in ("Clean", "PEEGA"):
            expected[(row, "GCN")] = None
        assert cells_of(table) == expected


class TestMemoryExhaustedRetry:
    @pytest.mark.parametrize(
        "error",
        [MemoryError("injected OOM"), ResourceError("over budget", resource="memory")],
        ids=["MemoryError", "ResourceError"],
    )
    def test_runs_as_configured(self, error):
        """The retry after a memory error sees the environment and the
        attempt number of the first try: nothing is shrunk or reseeded."""
        before = dict(os.environ)
        attempts = []

        def trial(attempt):
            attempts.append(attempt)
            if len(attempts) == 1:
                raise error
            return dict(os.environ)

        supervisor = TrialSupervisor(TrialPolicy(max_attempts=2), sleep=lambda _: None)
        outcome = supervisor.run(TrialKey("cora", "Clean", 0.1, "GCN", 0), trial)
        assert outcome.ok and outcome.attempts == 2
        assert outcome.value == before
        assert attempts == [0, 0]

    def test_sweep_keeps_the_fault_free_cells(self):
        # A MemoryError *inside* a trial (not a kill) is retried by the
        # supervisor under the same seeds, so the sweep reports exactly the
        # cells of a sweep that never ran out of memory.
        reference, _, _ = run_sweep(jobs=1)
        spec = "defender:oom:times=1:attacker=Clean:defender=GCN:seed=0"
        table, _, _ = run_sweep(jobs=1, fault_spec=spec, max_attempts=3)
        assert table.failures == []
        assert cells_of(table) == cells_of(reference)
