"""Table VII — running time of each attacker at perturbation rate 0.1.

Paper shape: PEEGA is the fastest effective attacker on the citation graphs
(single-level objective, one gradient per flip); GF-Attack is the slowest
(spectral decomposition per candidate evaluation); Metattack pays for
inner-training unrolls; PGD/MinMax are cheap but weak.

One caveat at reduced scale (documented in EXPERIMENTS.md): the headline
rows use the strength-calibrated presets, whose Metattack unrolls only 10
inner steps (the original trains ~100 epochs per flip); the extra
``Metattack-100`` row restores the faithful training length and with it the
paper's Metattack ≫ PEEGA ordering.  (PEEGA once lost to GF-Attack on the
scaled-down Citeseer; the incremental engine and its argmax selector remove
that inversion, and the bench now asserts PEEGA beats GF-Attack there too.)
"""

from _util import emit, emit_json, run_once, table_stats

from repro.attacks import Metattack
from repro.datasets import dataset_names
from repro.experiments import (
    ExperimentRunner,
    ExperimentScale,
    attacker_timings,
    format_timing_table,
)
from repro.experiments.runner import CellResult


def test_table7_attacker_time(benchmark):
    # The paper's three graphs.  The streamed SBM scale tiers are for the
    # block attackers only: the dense attackers cannot hold them in memory.
    datasets = [name for name in dataset_names() if not name.startswith("sbm-")]
    config = ExperimentScale.from_env()

    def run():
        timings = attacker_timings(datasets, config=config, repeats=2)
        # Faithful-length Metattack reference row (the original's ~100
        # inner epochs), on the citation graphs.
        runner = ExperimentRunner(config)
        faithful = {}
        for dataset in ("cora", "citeseer"):
            graph = runner.graph(dataset)
            times = []
            for seed in range(2):
                attacker = Metattack(inner_steps=100, seed=seed)
                result = attacker.attack(graph, perturbation_rate=config.rate)
                times.append(result.runtime_seconds)
            faithful[dataset] = CellResult.from_values(times)
        timings["Metattack-100"] = faithful
        return timings

    timings = run_once(benchmark, run)
    emit(
        "table7_attack_time",
        format_timing_table(
            timings, title="Table VII — attack generation time (seconds)"
        ),
    )
    emit_json(
        "BENCH_table7_attack_time.json",
        {"unit": "seconds", "rows": table_stats(timings)},
    )
    peega = timings["PEEGA"]["cora"].mean
    # GF-Attack's per-candidate spectral cost dominates PEEGA on Cora.
    assert peega < timings["GF-Attack"]["cora"].mean, timings
    # At the faithful inner-training length, Metattack is slower than PEEGA.
    assert peega < timings["Metattack-100"]["cora"].mean, timings
    # Citeseer (d = 3703): PEEGA also beats GF-Attack and Metattack-100.
    assert (
        timings["PEEGA"]["citeseer"].mean < timings["GF-Attack"]["citeseer"].mean
    ), timings
    assert (
        timings["PEEGA"]["citeseer"].mean
        < timings["Metattack-100"]["citeseer"].mean
    ), timings
