"""Table VIII — training time of each defender on the clean graphs.

Paper shape: raw GCN is fastest; GNAT costs only slightly more (three
augmented views through one GCN); attention/similarity methods (GAT, RGCN,
SimPGCN) and the SVD preprocessing cost more; Pro-GNN is orders of magnitude
slower (a per-epoch decomposition of the learned adjacency + joint
structure learning).

Each cell is the median of 5 fits (defender seeds 0–4): the host's drift
between back-to-back fits moved a mean of 2 enough to reorder close cells.
"""

from _util import emit, emit_json, run_once

from repro.datasets import dataset_names
from repro.experiments import defender_timings, format_timing_table

REPEATS = 5


def test_table8_defender_time(benchmark):
    # The paper's three graphs.  The streamed SBM scale tiers are for the
    # block attackers only: the dense defenders cannot hold them in memory.
    datasets = [name for name in dataset_names() if not name.startswith("sbm-")]
    timings = run_once(benchmark, lambda: defender_timings(datasets, repeats=REPEATS))
    emit(
        "table8_defense_time",
        format_timing_table(
            timings,
            title=(
                f"Table VIII — defender training time (seconds; median "
                f"[min–max] of {REPEATS} fits)"
            ),
            statistic="median",
        ),
    )
    emit_json(
        "BENCH_table8_defense_time.json",
        {
            "unit": "seconds",
            "statistic": "median",
            "fits_per_cell": REPEATS,
            "rows": {
                name: {
                    dataset: {"median": cell.median, "values": list(cell.values)}
                    for dataset, cell in row.items()
                }
                for name, row in timings.items()
            },
        },
    )
    for dataset in datasets:
        gcn = timings["GCN"][dataset].median
        assert timings["Pro-GNN"][dataset].median > gcn, timings
        # GNAT stays within a small factor of raw GCN (paper: ~2x).
        assert timings["GNAT"][dataset].median < 12 * gcn + 1.0, timings
