"""Table VIII — training time of each defender on the clean graphs.

Paper shape: raw GCN is fastest; GNAT costs only slightly more (three
augmented views through one GCN); attention/similarity methods (GAT, RGCN,
SimPGCN) and the SVD preprocessing cost more; Pro-GNN is orders of magnitude
slower (a per-epoch decomposition of the learned adjacency + joint
structure learning).
"""

from _util import emit, emit_json, run_once, table_stats

from repro.datasets import dataset_names
from repro.experiments import defender_timings, format_timing_table


def test_table8_defender_time(benchmark):
    # The paper's three graphs.  The streamed SBM scale tiers are for the
    # block attackers only: the dense defenders cannot hold them in memory.
    datasets = [name for name in dataset_names() if not name.startswith("sbm-")]
    timings = run_once(benchmark, lambda: defender_timings(datasets, repeats=2))
    emit(
        "table8_defense_time",
        format_timing_table(
            timings, title="Table VIII — defender training time (seconds)"
        ),
    )
    emit_json(
        "BENCH_table8_defense_time.json",
        {"unit": "seconds", "rows": table_stats(timings)},
    )
    for dataset in datasets:
        gcn = timings["GCN"][dataset].mean
        assert timings["Pro-GNN"][dataset].mean > gcn, timings
        # GNAT stays within a small factor of raw GCN (paper: ~2x).
        assert timings["GNAT"][dataset].mean < 12 * gcn + 1.0, timings
