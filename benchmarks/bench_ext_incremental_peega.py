"""Extension bench — incremental sparse PEEGA engine vs the dense oracle.

The dense reference path re-differentiates a dense ``(n, n)`` autodiff graph
(including a from-scratch GCN normalization) for every greedy flip.  The
incremental engine (:class:`repro.core.difference.IncrementalScorer` on top
of :class:`repro.surrogate.PropagationCache`) normalizes once, applies each
flip as a sparse delta, and re-materializes only the propagation/score rows
the flip touched.  Both engines pick the *same flip sequence* (the
equivalence suite pins this down), so the poisoned graphs — and the
post-attack GCN accuracy — must match; only the wall-clock may differ.

This bench runs both engines at attack budget 100 on synthetic Cora and
asserts the incremental engine is at least 3x faster while landing within
0.5 accuracy points of the dense oracle's poisoned-graph GCN accuracy.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke mode) for a reduced budget and a
relaxed 1.5x speedup floor — tiny budgets amortize the one-off cache build
over fewer iterations.

``BENCH_incremental_peega.json`` records the timings and each incremental
attack's tracemalloc peak (MiB): the bench's cora attack, and, outside
quick mode, the seeded citeseer@0.15 preset attack whose (n, d) state
dominates the ``peega`` end-to-end workload's peak RSS.  The peaks are
measured in separate, untimed runs.
"""

import os
import tracemalloc

from _util import emit, emit_json, run_once

from repro import datasets
from repro.attacks.base import AttackBudget
from repro.core import PEEGA
from repro.experiments import ExperimentRunner, config, format_series

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BUDGET = 25 if QUICK else 100
MIN_SPEEDUP = 1.5 if QUICK else 3.0


def traced_peak_mib(attack) -> float:
    """tracemalloc peak (MiB) of one call of ``attack``."""
    tracemalloc.start()
    try:
        attack()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_ext_incremental_peega(benchmark):
    runner = ExperimentRunner()

    def run():
        graph = runner.graph("cora")
        results, seconds, accuracy = {}, [], []
        # Warm both engines (BLAS threads, page cache, JIT-able ufunc loops)
        # so the timed runs below measure steady-state per-flip cost.
        for use_cache in (False, True):
            PEEGA(use_cache=use_cache, seed=0).attack(graph, AttackBudget(total=2))
        for use_cache in (False, True):
            attacker = PEEGA(use_cache=use_cache, seed=0)
            result = attacker.attack(graph, AttackBudget(total=BUDGET))
            results[use_cache] = result
            seconds.append(result.runtime_seconds)
            accuracy.append(
                runner.evaluate_defender(result.poisoned, "cora", "GCN").mean
            )
        return results, seconds, accuracy

    results, seconds, accuracy = run_once(benchmark, run)
    speedup = seconds[0] / seconds[1]
    text = format_series(
        "engine",
        ["dense", "incremental"],
        {"GCN accuracy": accuracy},
        title=(
            f"Extension — incremental PEEGA engine (budget {BUDGET}, "
            f"synthetic Cora): {speedup:.2f}x speedup"
        ),
    )
    timing = format_series(
        "engine",
        ["dense", "incremental"],
        {"attack seconds": seconds},
        percent=False,
    )
    graph = runner.graph("cora")
    peaks = {
        "cora": traced_peak_mib(
            lambda: PEEGA(seed=0).attack(graph, AttackBudget(total=BUDGET))
        ),
    }
    if not QUICK:
        # tests/test_peega_memory.py bounds this peak in every test run;
        # smoke mode skips the extra traced attack.
        citeseer = datasets.load_dataset("citeseer", scale=0.15, seed=0)
        peaks["citeseer@0.15"] = traced_peak_mib(
            lambda: config.make_attacker("PEEGA", "citeseer", seed=0).attack(
                citeseer, perturbation_rate=0.1
            )
        )
    peak_text = "\n".join(
        f"incremental attack traced peak, {name}: {mib:.1f} MiB"
        for name, mib in peaks.items()
    )
    emit("ext_incremental_peega", text + "\n" + timing + "\n" + peak_text)
    emit_json(
        "BENCH_incremental_peega.json",
        {
            "budget": BUDGET,
            "quick": QUICK,
            "seconds": {"dense": seconds[0], "incremental": seconds[1]},
            "speedup": speedup,
            "traced_peak_mib": peaks,
        },
    )

    # Same greedy trajectory: flip-for-flip identical perturbations.
    dense, cached = results[False], results[True]
    assert [(f.u, f.v) for f in dense.edge_flips] == [
        (f.u, f.v) for f in cached.edge_flips
    ]
    assert [(f.node, f.dim) for f in dense.feature_flips] == [
        (f.node, f.dim) for f in cached.feature_flips
    ]
    # Post-attack GCN accuracy within 0.5 points of the dense oracle.
    assert abs(accuracy[0] - accuracy[1]) <= 0.005, accuracy
    # The engine exists to be fast: demand a real speedup, not noise.
    assert speedup >= MIN_SPEEDUP, (
        f"incremental engine only {speedup:.2f}x faster "
        f"({seconds[0]:.2f}s dense vs {seconds[1]:.2f}s incremental)"
    )
