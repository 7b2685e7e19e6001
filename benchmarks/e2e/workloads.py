"""The four workloads: what one round sets up, runs and checks.

A round is one pass of a user's journey on fresh inputs: the harness calls
``setup`` (timed as set-up), then ``run`` (each program call timed as an
op through :class:`RoundLog`), and for the first round of a run also
``finish`` (quality numbers that need extra, untimed training).  Round
``r`` of a run with workload seed ``S`` uses dataset seed
:func:`dataset_seed` ``(S, r)``, so the workload seed shifts only the
dataset seeds and each round attacks or fits different graphs.

Program functions are looked up through their modules at call time
(``datasets.load_dataset``, not a ``from`` import), so the traced run's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback

from repro import datasets
from repro.attacks import rbcd
from repro.attacks.base import AttackBudget
from repro.errors import BudgetError
from repro.experiments import config, parallel, supervisor
from repro.experiments.runner import CLEAN_ROW, ExperimentRunner
from stats import timing_summary

#: Perturbation rate of the attacked graphs (the paper's headline tables).
RATE = 0.1


def dataset_seed(workload_seed: int, round_index: int) -> int:
    """Dataset seed of round ``round_index``; seed 0's first round uses 0."""
    return workload_seed * 1000 + round_index


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class RoundLog:
    """Timed ops, checks, output digest and numbers of one round.

    One op is one attack, one fit, one trial or one check; ``failed`` over
    ``attempted`` is the round's error rate.
    """

    def __init__(self) -> None:
        self.op_s = 0.0
        self.cpu_s = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self._digest = hashlib.sha256()

    def op(self, label: str, fn, *args, ops: int = 1, **kwargs):
        """Time one program call; returns its result, or None if it raised.

        ``ops`` is how many ops the call counts as (a sweep counts its
        trials separately, so it passes 0).
        """
        self.attempted += ops
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            return fn(*args, **kwargs)
        except Exception as error:  # a failed op is a result to report
            traceback.print_exc(file=sys.stderr)
            self.failed += max(ops, 1)
            self.errors.append(f"{label}: {type(error).__name__}: {error}")
            return None
        finally:
            self.op_s += time.perf_counter() - wall
            self.cpu_s += cpu_seconds() - cpu

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {label}" + (f" ({detail})" if detail else ""))
        return ok

    def record(self, *parts) -> None:
        """Fold an output into the round's digest."""
        self._digest.update(repr(parts).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _is_accuracy(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def _check_attack(log: RoundLog, label: str, result) -> None:
    try:
        result.verify_budget()
        within, detail = True, ""
    except BudgetError as error:
        within, detail = False, str(error)
    log.check(f"{label} within budget", within, detail)
    log.check(f"{label} flipped", result.num_perturbations > 0)
    trace = result.objective_trace
    log.check(
        f"{label} objective trace",
        bool(trace) and all(math.isfinite(value) for value in trace),
    )


def _flips(result) -> tuple:
    return tuple(result.edge_flips), tuple(result.feature_flips)


class Workload:
    """One workload, built with ``smoke=True`` at minimum sizes for the
    harness tests: ``setup`` builds a round's inputs from its dataset seed
    (``scratch`` is the round's own directory), ``run`` makes the round's
    program calls through ``log.op`` and returns their outputs, and
    ``finish`` adds untimed quality numbers on the first round."""

    name = ""
    unit = ""  # what ``RoundLog.units`` counts

    def setup(self, seed: int, scratch: str):
        raise NotImplementedError

    def run(self, inputs, log: RoundLog):
        raise NotImplementedError

    def finish(self, inputs, outputs, log: RoundLog) -> None:
        pass


class Peega(Workload):
    """PEEGA (per-dataset presets) on cora, citeseer and polblogs."""

    name = "peega"
    unit = "flips"
    names = ("cora", "citeseer", "polblogs")

    def __init__(self, smoke: bool) -> None:
        self.scale = 0.04 if smoke else 0.15

    def setup(self, seed: int, scratch: str):
        return {
            name: datasets.load_dataset(name, scale=self.scale, seed=seed)
            for name in self.names
        }

    def run(self, graphs, log: RoundLog):
        results = {}
        for name, graph in graphs.items():
            result = log.op(
                f"PEEGA on {name}",
                lambda: config.make_attacker("PEEGA", name, seed=0).attack(
                    graph, perturbation_rate=RATE
                ),
            )
            if result is None:
                continue
            results[name] = result
            log.units += result.num_perturbations
            _check_attack(log, f"PEEGA on {name}", result)
            log.record(name, _flips(result))
        return results

    def finish(self, graphs, results, log: RoundLog) -> None:
        drops = []
        for name, result in results.items():
            accuracies = [
                config.make_defender("GCN", name, seed=0).fit(graph).test_accuracy
                for graph in (graphs[name], result.poisoned)
            ]
            if log.check(f"GCN accuracies on {name}", all(map(_is_accuracy, accuracies))):
                drops.append(100.0 * (accuracies[0] - accuracies[1]))
        if drops:
            log.quality["acc_drop_pp"] = statistics.mean(drops)


class Defend(Workload):
    """The Table IV defenders on clean cora, then GNAT on a larger cora."""

    name = "defend"
    unit = "fits"

    def __init__(self, smoke: bool) -> None:
        self.scale = 0.04 if smoke else 0.15
        self.gnat_scale = 0.04 if smoke else 0.5
        self.gnat_seeds = 1 if smoke else 2

    def setup(self, seed: int, scratch: str):
        return {
            "table": datasets.load_dataset("cora", scale=self.scale, seed=seed),
            "gnat": datasets.load_dataset("cora", scale=self.gnat_scale, seed=seed),
        }

    def run(self, graphs, log: RoundLog):
        fits = [(name, graphs["table"], 0) for name in config.defender_names_for("cora")]
        fits += [("GNAT", graphs["gnat"], seed) for seed in range(self.gnat_seeds)]
        accuracies = []
        for name, graph, seed in fits:
            label = f"{name} fit (n={graph.num_nodes}, seed {seed})"
            result = log.op(
                label, lambda: config.make_defender(name, "cora", seed=seed).fit(graph)
            )
            if result is None:
                continue
            log.units += 1
            if log.check(
                f"{label} accuracies",
                _is_accuracy(result.test_accuracy) and _is_accuracy(result.val_accuracy),
            ):
                accuracies.append(result.test_accuracy)
            log.record(name, graph.num_nodes, seed, repr(result.test_accuracy))
        if accuracies:
            log.quality["defense_acc_pct"] = 100.0 * statistics.mean(accuracies)
        return accuracies


class Sweep(Workload):
    """A checkpointed Table IV sweep, then its resume.

    The trials run serially in this process: a pool of 2 busy workers on a
    shared 2-core host times the scheduler (its round time spread by a third
    between runs), not the program.
    """

    name = "sweep"
    unit = "trials"

    def __init__(self, smoke: bool) -> None:
        self.config = config.ExperimentScale(scale=0.04, seeds=1, rate=RATE)
        # Three attackers keep a serial round near 5 s; all seven take ~15 s.
        self.attackers = ["PEEGA", "GRBCD"] if smoke else ["PEEGA", "GRBCD", "PGD"]
        self.defenders = ["GCN", "GNAT"] if smoke else None

    def _runner(self, seed: int, scratch: str, resume: bool) -> ExperimentRunner:
        return ExperimentRunner(
            self.config,
            dataset_seed=seed,
            checkpoint=supervisor.SweepCheckpoint(scratch, resume=resume),
            executor=parallel.make_executor(1),
        )

    def setup(self, seed: int, scratch: str):
        runner = self._runner(seed, scratch, resume=False)
        runner.graph("cora")
        return {"runner": runner, "seed": seed, "scratch": scratch}

    def _sweep(self, runner: ExperimentRunner, log: RoundLog, label: str):
        return log.op(
            label,
            runner.accuracy_table,
            "cora",
            attackers=self.attackers,
            defenders=self.defenders,
            ops=0,
        )

    def run(self, inputs, log: RoundLog):
        runner = inputs["runner"]
        table = self._sweep(runner, log, "sweep")
        if table is None:
            return None
        timings = runner.executor.timings
        trials = len(timings.trials)
        log.units += trials
        log.attempted += trials
        log.failed += len(table.failures)
        log.check("sweep has no failures", table.failures == [], str(table.failures[:1]))
        cells = [
            (row, name, cell)
            for row, columns in table.rows.items()
            for name, cell in columns.items()
        ]
        log.check(
            "sweep cells",
            all(cell is not None and all(map(_is_accuracy, cell.values)) for _, _, cell in cells),
        )
        for row, name, cell in cells:
            log.record(row, name, repr(cell.values) if cell is not None else None)

        resumer = self._runner(inputs["seed"], inputs["scratch"], resume=True)
        started = time.perf_counter()
        resumed = self._sweep(resumer, log, "resume")
        resume_s = time.perf_counter() - started
        resume_trials = len(resumer.executor.timings.trials) if resumed is not None else -1
        log.check("resume ran no trials", resume_trials == 0, f"{resume_trials} trials")
        log.check("resume cells identical", resumed is not None and resumed.rows == table.rows)

        by_kind: dict[str, list] = {"attack": [], "defense": []}
        for trial in timings.trials:
            by_kind[trial.kind].append(trial.wall_seconds)
        busy = timings.busy_seconds
        log.layers.update(
            {
                "experiments.parallel.makespan_s": timings.makespan_seconds,
                "experiments.parallel.busy_s": busy,
                "experiments.parallel.utilization": timings.utilization,
                "experiments.parallel.idle_worker_s": max(
                    0.0, timings.jobs * timings.makespan_seconds - busy
                ),
                "experiments.resume.trials": resume_trials,
                "experiments.resume.s": resume_s,
            }
        )
        _summarize("experiments.parallel.queue", [t.queue_seconds for t in timings.trials], log)
        _summarize("experiments.trial.defense", by_kind["defense"], log)
        _summarize("experiments.trial.attack", by_kind["attack"], log)

        gcn = table.rows.get(CLEAN_ROW, {}).get("GCN")
        drops = [
            100.0 * (gcn.mean - columns["GCN"].mean)
            for row, columns in table.rows.items()
            if row != CLEAN_ROW and gcn is not None and columns.get("GCN") is not None
        ]
        if drops:
            log.quality["acc_drop_pp"] = statistics.mean(drops)
        return table


def _summarize(prefix: str, seconds: list, log: RoundLog) -> None:
    """``<prefix>.n`` and ``<prefix>.s.<percentile>`` of a timing, under the
    percentile rule in stats.py."""
    for key, value in timing_summary(seconds).items():
        log.layers[f"{prefix}.n" if key == "n" else f"{prefix}.s.{key}"] = value


class Scale(Workload):
    """GRBCD then PRBCD on a streamed 100k-node SBM."""

    name = "scale"
    unit = "flips"

    def __init__(self, smoke: bool) -> None:
        self.tier = "sbm-10k" if smoke else "sbm-100k"
        self.tier_scale = 0.1 if smoke else 1.0
        self.block = 5_000 if smoke else 100_000
        self.budget = 20.0 if smoke else 200.0
        self.flips_per_step = 10 if smoke else 100
        self.epochs = 2

    def setup(self, seed: int, scratch: str):
        return datasets.load_dataset(self.tier, scale=self.tier_scale, seed=seed)

    def run(self, graph, log: RoundLog):
        attackers = [
            rbcd.GRBCD(
                lam=0.0, p=2, block_size=self.block,
                flips_per_step=self.flips_per_step, seed=0,
            ),
            rbcd.PRBCD(lam=0.0, p=2, block_size=self.block, epochs=self.epochs, seed=0),
        ]
        objective = 0.0
        flips = 0
        for attacker in attackers:
            result = log.op(
                attacker.name, attacker.attack, graph, AttackBudget(total=self.budget)
            )
            if result is None:
                continue
            flips += len(result.edge_flips)
            log.units += len(result.edge_flips)
            _check_attack(log, attacker.name, result)
            trace = result.objective_trace
            # GRBCD's answer is its last step; PRBCD returns its best rounding.
            objective += (trace[-1] if attacker.name == "GRBCD" else max(trace)) if trace else 0.0
            log.record(attacker.name, _flips(result))
        log.check("attacks moved the objective", objective > 0.0, f"{objective!r}")
        log.quality["attack_objective"] = objective
        log.layers["attacks.rbcd.flips"] = flips


WORKLOADS = {workload.name: workload for workload in (Peega, Defend, Sweep, Scale)}
