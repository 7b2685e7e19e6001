"""Extension bench — fused closed-form training engine vs the autodiff oracle.

The autodiff path traces a fresh ``Tensor`` graph per epoch, rebuilds
per-forward state (GAT's dense support mask, attention intermediates), and
pays a second full forward per epoch for validation.  The fused engine
(:mod:`repro.nn.fastpath`) computes loss and parameter gradients in closed
form over epoch-reused buffers and — where training and eval forwards
coincide — reuses the training logits for validation (RGCN's mean path even
falls out of the training forward for free).

The contract is *bit-identity*: both engines walk the same weight
trajectory, so losses, accuracies and stopping epochs must be EXACTLY
equal; only the cost may differ.  This bench fits every fused-covered
model — GCN over the sparse operator and over GCN-SVD's dense low-rank
one, the multi-view GNAT, and the three expensive defenders (GAT, RGCN,
SimPGCN) that dominate full-sweep wall time — with both engines, asserts
outcome equality, demands a per-model speedup floor (``FLOORS``), and
records per-fit times in
``benchmarks/results/BENCH_training.json`` under the ``repro.bench/1``
schema.  That committed file doubles as the CI perf gate's baseline:
``perf_gate.py`` diffs a fresh quick-mode run against it and fails the job
on normalized regression.

Measurement notes: single-core CI containers are noisy neighbors, so the
bench times process CPU (contention-insensitive) and runs the engines in
back-to-back pairs, autodiff then fused.  A pair shares whatever the host
was doing at that moment, so the speedup is the median over pairs of the
per-pair autodiff ÷ fused ratio (the recorded per-engine times are
medians too); it re-measures a bounded number of times, adding pairs,
before declaring a miss — the claim under test is "the engine delivers the
floored speedup, bit-identically", not a statistical distribution.
``REPRO_BENCH_QUICK=1`` (CI smoke mode) shrinks repeats and relaxes the
floors; the job still fails if fused is slower than autodiff.
"""

import os
import statistics
import time

from _util import emit, emit_json, run_once

from repro.core import GNAT
from repro.datasets import load_dataset
from repro.defenses import RGCN, SimPGCN
from repro.defenses.raw import RawGAT
from repro.defenses.svd import _normalize_weighted, low_rank_adjacency
from repro.experiments import format_series
from repro.graph.viewcache import clear_view_cache
from repro.nn import GCN, TrainConfig, train_node_classifier

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 2 if QUICK else 5
ATTEMPTS = 2 if QUICK else 3
SCALE = 0.04  # the sweep-cell grain (tests/CI sweeps run here)
SEEDS = (11, 12, 13, 14, 15)  # one batch = a sweep column's trials
GNAT_SCALE = 0.15 if QUICK else 0.3
CONFIG = TrainConfig(epochs=200, patience=30)

# Per-model speedup floors (quick, full), set under the lowest full-mode
# speedups (median of per-pair ratios) measured over three runs on a
# 2-vCPU host: GCN 1.81x, GCN-SVD 1.49x, GNAT 1.41x, GAT 1.63x, RGCN
# 1.67x, SimPGCN 1.54x.  The autodiff oracle skips the partials of
# constant operands (features, operators, masks) and shares GNAT's
# ``X @ W⁰`` across views, so neither engine pays for a dead gradient or
# a repeated product; the kernels win on tracing overhead, buffer reuse,
# deferred validation and GAT's support-only attention.
FLOORS = {
    "GCN": (1.2, 1.5),
    "GCN-SVD": (1.1, 1.3),
    "GNAT": (1.15, 1.25),
    "GAT": (1.05, 1.1),
    "RGCN": (1.2, 1.5),
    "SimPGCN": (1.05, 1.2),
}


def _outcome(result):
    return (
        result.test_accuracy,
        result.val_accuracy,
        result.details.get("epochs"),
    )


def _fit_gcn_batch(graph, engine, adjacency=None):
    """Plain GCN fits over ``adjacency`` (default: the normalized graph)."""
    outcomes = []
    for seed in SEEDS:
        model = GCN(graph.num_features, graph.num_classes, dropout=0.5, seed=seed)
        result = train_node_classifier(
            model, graph, CONFIG, adjacency=adjacency, engine=engine
        )
        outcomes.append(
            (result.train_losses, result.val_accuracies, result.test_accuracy,
             result.epochs_run)
        )
    return outcomes


def _fit_gnat(graph, engine):
    # The view cache would hide the view-build cost from whichever engine
    # runs second; clear it so both fits pay identical build work.
    clear_view_cache()
    result = GNAT(train_config=CONFIG, engine=engine, seed=5).fit(graph)
    return result.test_accuracy, result.val_accuracy


def _fit_gat_batch(graph, engine):
    return [
        _outcome(RawGAT(train_config=CONFIG, engine=engine, seed=seed).fit(graph))
        for seed in SEEDS
    ]


def _fit_rgcn_batch(graph, engine):
    return [
        _outcome(RGCN(train_config=CONFIG, engine=engine, seed=seed).fit(graph))
        for seed in SEEDS
    ]


def _fit_simpgcn_batch(graph, engine):
    return [
        _outcome(
            SimPGCN(train_config=CONFIG, engine=engine, seed=seed, knn_k=5).fit(graph)
        )
        for seed in SEEDS
    ]


def _measure(fn, pairs):
    """Append REPEATS ``(autodiff, fused)`` process-CPU pairs of ``fn`` to
    ``pairs``; return each engine's last outcome."""
    outcome = {}
    for _ in range(REPEATS):
        pair = []
        for engine in ("autodiff", "fused"):
            start = time.process_time()
            outcome[engine] = fn(engine)
            pair.append(time.process_time() - start)
        pairs.append(tuple(pair))
    return outcome


def _speedup(pairs):
    """Median over pairs of the per-pair autodiff ÷ fused ratio."""
    return statistics.median(autodiff / fused for autodiff, fused in pairs)


def _measure_until(fn, floor):
    """Measure up to ATTEMPTS rounds of pairs until the speedup clears
    ``floor``; return the per-engine median times, the speedup and the
    outcomes."""
    pairs = []
    outcome = _measure(fn, pairs)
    for _ in range(ATTEMPTS - 1):
        if _speedup(pairs) >= floor:
            break
        outcome = _measure(fn, pairs)
    times = {
        engine: statistics.median(pair[k] for pair in pairs)
        for k, engine in enumerate(("autodiff", "fused"))
    }
    return times, _speedup(pairs), outcome


def test_ext_fused_training(benchmark):
    cell_graph = load_dataset("cora", scale=SCALE)
    gnat_graph = load_dataset("cora", scale=GNAT_SCALE)
    svd_operator = _normalize_weighted(low_rank_adjacency(cell_graph.adjacency, 15))

    cases = {
        "GCN": (lambda engine: _fit_gcn_batch(cell_graph, engine), len(SEEDS)),
        "GCN-SVD": (
            lambda engine: _fit_gcn_batch(cell_graph, engine, svd_operator),
            len(SEEDS),
        ),
        "GNAT": (lambda engine: _fit_gnat(gnat_graph, engine), 1),
        "GAT": (lambda engine: _fit_gat_batch(cell_graph, engine), len(SEEDS)),
        "RGCN": (lambda engine: _fit_rgcn_batch(cell_graph, engine), len(SEEDS)),
        "SimPGCN": (lambda engine: _fit_simpgcn_batch(cell_graph, engine), len(SEEDS)),
    }

    def run():
        measured = {}
        for name, (fn, _) in cases.items():
            measured[name] = _measure_until(fn, FLOORS[name][0 if QUICK else 1])
        return measured

    measured = run_once(benchmark, run)

    models = {}
    for name, (times, speedup, _) in measured.items():
        fits = cases[name][1]
        floor = FLOORS[name][0 if QUICK else 1]
        models[name] = {
            "fits": fits,
            "autodiff_cpu_seconds": times["autodiff"],
            "fused_cpu_seconds": times["fused"],
            "per_fit_autodiff": times["autodiff"] / fits,
            "per_fit_fused": times["fused"] / fits,
            "speedup": speedup,
            "min_speedup": floor,
        }

    labels = [
        f"{name}/{engine}" for name in models for engine in ("autodiff", "fused")
    ]
    values = [
        models[name][f"per_fit_{engine}"]
        for name in models
        for engine in ("autodiff", "fused")
    ]
    headline = ", ".join(
        f"{name} {models[name]['speedup']:.2f}x" for name in models
    )
    text = format_series(
        "per-fit",
        labels,
        {"cpu seconds": values},
        percent=False,
        title=(
            f"Extension — fused training engine (cora scale {SCALE}, "
            f"GNAT scale {GNAT_SCALE}): {headline}"
        ),
    )
    emit("ext_fused_training", text)

    emit_json(
        "BENCH_training.json",
        {
            "dataset": "cora",
            "scale": SCALE,
            "gnat_scale": GNAT_SCALE,
            "seeds": list(SEEDS),
            "quick": QUICK,
            "models": models,
        },
    )

    # Bit-identity, not mere statistical closeness: the fused engine walks
    # the exact weight trajectory of autodiff, so every loss, accuracy and
    # stopping epoch must be equal to the last bit.
    for name, (_, _, outcome) in measured.items():
        assert outcome["autodiff"] == outcome["fused"], (
            f"{name}: fused outcome diverged from autodiff"
        )

    # The engine exists to be fast: demand a real speedup, not noise.
    for name, record in models.items():
        assert record["speedup"] >= record["min_speedup"], (
            f"fused {name} only {record['speedup']:.2f}x faster; per-fit CPU "
            f"seconds: {record['per_fit_autodiff']:.4f} autodiff vs "
            f"{record['per_fit_fused']:.4f} fused"
        )
