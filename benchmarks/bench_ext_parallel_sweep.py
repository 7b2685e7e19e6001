"""Extension bench — parallel sweep scheduler vs the serial runner.

Two measurements, one determinism gate:

1. **Scheduler overlap** (always asserted): a sweep whose trials are
   latency-dominated — every defender trial carries an injected 1s hang —
   must overlap across pool workers.  Latency overlap needs no spare
   cores, so this part asserts a real speedup even on a single-core CI
   runner, while exercising exactly the scheduler/merge machinery a
   compute-bound sweep uses.
2. **Real grid** (speedup asserted on >= 4 cores): the table4-shaped
   PEEGA grid, serial vs ``--jobs 4``.  On machines with enough cores the
   4-job run must be >= 2.5x faster; on smaller machines the wall times
   are still recorded so the artifact shows what parallelism bought.

In both parts the parallel table must be *bit-identical* to the serial
one — that assertion never relaxes, because a scheduler that changes
numbers is wrong at any speed.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke mode) for shorter hangs, a smaller
grid, and a relaxed overlap floor.
"""

import os

from _util import emit, run_once

from repro.experiments import (
    ExperimentRunner,
    ExperimentScale,
    TrialPolicy,
    TrialSupervisor,
    format_series,
    make_executor,
)
from repro.utils import faults
from repro.utils.faults import FaultInjector
from repro.utils.resources import cpu_count

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
JOBS = 4
HANG_SECONDS = 0.5 if QUICK else 1.0
HANG_SEEDS = 2 if QUICK else 4
MIN_OVERLAP_SPEEDUP = 1.5 if QUICK else 2.5
MIN_GRID_SPEEDUP = 1.5 if QUICK else 2.5


def _cells(table):
    return {
        (row, name): (cell.values if cell is not None else None)
        for row, columns in table.rows.items()
        for name, cell in columns.items()
    }


def _sweep(jobs, config, injector=None, **table_kwargs):
    executor = make_executor(jobs)
    runner = ExperimentRunner(
        config, supervisor=TrialSupervisor(TrialPolicy()), executor=executor
    )
    with faults.active(injector):
        table = runner.accuracy_table("cora", **table_kwargs)
    return table, executor.timings.makespan_seconds


def test_ext_parallel_sweep(benchmark):
    def run():
        # Part 1: latency-dominated trials (injected hangs) — scheduler
        # overlap is assertable regardless of core count.
        hang_config = ExperimentScale(scale=0.04, seeds=HANG_SEEDS, rate=0.1)
        hang_grid = dict(attackers=[], defenders=["GCN", "GCN-SVD"])
        spec = f"defender:hang:seconds={HANG_SECONDS}"
        overlap = {}
        for jobs in (1, JOBS):
            table, seconds = _sweep(
                jobs,
                hang_config,
                injector=FaultInjector(FaultInjector.parse(spec)),
                **hang_grid,
            )
            overlap[jobs] = (table, seconds)

        # Part 2: the real compute-bound grid (table4-shaped).
        grid_config = ExperimentScale(scale=0.04, seeds=2, rate=0.1)
        grid = dict(attackers=["PEEGA"], defenders=["GCN", "GCN-SVD"])
        real = {}
        for jobs in (1, JOBS):
            table, seconds = _sweep(jobs, grid_config, **grid)
            real[jobs] = (table, seconds)
        return overlap, real

    overlap, real = run_once(benchmark, run)

    overlap_speedup = overlap[1][1] / overlap[JOBS][1]
    grid_speedup = real[1][1] / real[JOBS][1]
    cores = cpu_count()
    text = format_series(
        "jobs",
        [1, JOBS],
        {
            f"hang-sweep seconds ({HANG_SEEDS * 2} trials x {HANG_SECONDS}s hang)": [
                overlap[1][1],
                overlap[JOBS][1],
            ],
            "real-grid seconds (PEEGA x 2 defenders x 2 seeds)": [
                real[1][1],
                real[JOBS][1],
            ],
        },
        title=(
            f"Extension — parallel sweep scheduler ({cores} cores): "
            f"overlap {overlap_speedup:.2f}x, real grid {grid_speedup:.2f}x"
        ),
        percent=False,
    )
    emit("ext_parallel_sweep", text)

    # Determinism gate: identical numbers at any job count, both sweeps.
    assert _cells(overlap[1][0]) == _cells(overlap[JOBS][0])
    assert _cells(real[1][0]) == _cells(real[JOBS][0])
    assert overlap[1][0].failures == overlap[JOBS][0].failures == []
    assert real[1][0].failures == real[JOBS][0].failures == []

    # Latency overlap must pay off even on one core.
    assert overlap_speedup >= MIN_OVERLAP_SPEEDUP, (
        f"scheduler overlap only {overlap_speedup:.2f}x "
        f"({overlap[1][1]:.2f}s serial vs {overlap[JOBS][1]:.2f}s at {JOBS} jobs)"
    )
    # Compute-bound speedup needs actual cores to run on.
    if cores >= JOBS:
        assert grid_speedup >= MIN_GRID_SPEEDUP, (
            f"real grid only {grid_speedup:.2f}x on {cores} cores "
            f"({real[1][1]:.2f}s serial vs {real[JOBS][1]:.2f}s at {JOBS} jobs)"
        )
