"""What the end-to-end benchmark measures: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is the projection of this
catalogue that the benchmark driver reads; ``test_harness.py`` keeps the two
equal.  The "should move" notes per layer metric live in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The command ``BENCHMARK.json`` names, run from the repository root.
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: Seconds one run measures (``--seconds`` default and ``run_seconds``).
RUN_SECONDS = 28

#: Workload name -> why it was chosen (one line each).
WORKLOADS = {
    "peega": (
        "the paper's attacker (Table VII): PEEGA on cora, citeseer and polblogs; "
        "gradient scoring, candidate ranking and flip application dominate"
    ),
    "defend": (
        "Table VIII: the 8 Table IV defenders on clean cora plus GNAT on a 1242-node "
        "cora; training kernels and defender preprocessing dominate"
    ),
    "sweep": (
        "the Table IV journey: a 35-trial cora sweep (3 attackers x 8 defenders), "
        "journalled, then resumed; supervisor, journal and poison I/O are a visible share"
    ),
    "scale": (
        "a 100k-node SBM attacked by GRBCD and PRBCD: the O(block) pair kernel, "
        "batched flips and streamed generation instead of dense scoring"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end metrics only

    def entry(self) -> dict:
        """This metric as a ``BENCHMARK.json`` entry."""
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


#: Reported by every workload from the untraced run.  A round is one pass
#: of the workload's user journey on fresh inputs (see README.md).
#: Bounds: timings on this class of shared 2-vCPU host drift by a fifth
#: between runs minutes apart (README.md, "Spread"), so they get nearly the
#: largest bound allowed; set-up time gets the largest.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("round_s", "s", "lower", 0.24),
    Metric("cpu_s", "s", "lower", 0.24),
    Metric("peak_rss_mb", "MiB", "lower", 0.2),
    Metric("ops_per_s", "ops/s", "higher", 0.24),
]


def _timed(prefix: str, calls: bool = True) -> list[Metric]:
    metrics = [Metric(f"{prefix}.calls", "count", "lower")] if calls else []
    return metrics + [Metric(f"{prefix}.s", "s", "lower")]


def _self_timed(prefix: str, total: str = "s") -> list[Metric]:
    return [
        Metric(f"{prefix}.{total}", "s", "lower"),
        Metric(f"{prefix}.self_s", "s", "lower"),
    ]


#: Defender names as ``Defender.name`` spells them (Table IV columns).
DEFENDERS = [
    "GCN", "GAT", "GCN-Jaccard", "GCN-SVD", "RGCN", "Pro-GNN", "SimPGCN", "GNAT",
]

#: Fused-kernel phases the defenders reach, by ``_Fused<Model>`` class name.
#: SimPGCN validates on its training logits, so it never runs an eval forward.
KERNEL_SPANS = [
    f"nn.fastpath.{model}.{phase}"
    for model in ("GCN", "GAT", "RGCN", "SimPGCN", "MultiView")
    for phase in ("train_forward", "backward", "eval_forward")
    if (model, phase) != ("SimPGCN", "eval_forward")
]

#: Reported by every workload from the traced run (0 where a workload does
#: not reach the layer).
PER_LAYER = (
    _timed("datasets.load_dataset")
    + _timed("core.difference.gradients")
    + _timed("core.difference.pair_gradients")
    + [Metric("core.difference.pair_gradients.pairs", "count", "lower")]
    + _self_timed("core.peega.attack")
    + _timed("surrogate.init", calls=False)
    + _timed("surrogate.apply")
    + _timed("surrogate.apply_batch")
    + [Metric("surrogate.apply_batch.flips", "count", "lower")]
    + _timed("attacks.rbcd.sample_candidate_pairs")
    + _timed("attacks.rbcd.project_onto_budget")
    + _self_timed("attacks.rbcd.GRBCD.attack")
    + _self_timed("attacks.rbcd.PRBCD.attack")
    + [Metric("attacks.rbcd.flips_per_mpair", "flips/Mpair", "higher")]
    + _timed("graph.apply_perturbations", calls=False)
    + [
        Metric("graph.viewcache.hits", "count", "higher"),
        Metric("graph.viewcache.misses", "count", "lower"),
    ]
    + [m for name in DEFENDERS for m in _self_timed(f"defenses.{name}", total="fit_s")]
    + _timed("core.gnat.build_views", calls=False)
    + _timed("nn.trainer.train_node_classifier")
    + [
        Metric("nn.trainer.train_node_classifier.epochs", "count", "lower"),
        Metric("nn.trainer.fused_fraction", "fraction", "higher"),
    ]
    + _timed("nn.fastpath.make_fused_kernel", calls=False)
    + [Metric(f"{span}.s", "s", "lower") for span in KERNEL_SPANS]
    + [
        Metric("experiments.parallel.makespan_s", "s", "lower"),
        Metric("experiments.parallel.busy_s", "s", "lower"),
        Metric("experiments.parallel.utilization", "fraction", "higher"),
        Metric("experiments.parallel.idle_worker_s", "s", "lower"),
        Metric("experiments.parallel.queue.s.p50", "s", "lower"),
        Metric("experiments.parallel.queue.n", "count", "lower"),
        Metric("experiments.trial.defense.s.p50", "s", "lower"),
        Metric("experiments.trial.defense.n", "count", "lower"),
        Metric("experiments.trial.attack.s.p50", "s", "lower"),
        Metric("experiments.trial.attack.n", "count", "lower"),
    ]
    + _timed("experiments.supervisor.record_cell")
    + _timed("experiments.supervisor.save_poison")
    + _timed("experiments.supervisor.load_poison")
    + [
        Metric("experiments.supervisor.attempts_per_trial", "attempts/trial", "lower"),
        Metric("experiments.resume.trials", "count", "lower"),
        Metric("experiments.resume.s", "s", "lower"),
        Metric("utils.keystore.hits", "count", "higher"),
        Metric("utils.keystore.misses", "count", "lower"),
        Metric("utils.keystore.evictions", "count", "lower"),
    ]
    + _timed("utils.cancellation.checkpoint")
    + [Metric("trace_overhead_s", "s", "lower")]
)

#: Spans each workload must record in its traced round: a wrapper that never
#: fires (say, a consumer's own binding was missed) fails the traced run.
EXPECTED_SPANS = {
    "peega": [
        "datasets.load_dataset",
        "core.peega.attack",
        "core.difference.gradients",
        "surrogate.init",
        "surrogate.apply",
        "graph.apply_perturbations",
        "utils.cancellation.checkpoint",
    ],
    "defend": (
        ["datasets.load_dataset"]
        + [f"defenses.{name}.fit" for name in DEFENDERS]
        + [
            "core.gnat.build_views",
            "nn.trainer.train_node_classifier",
            "nn.fastpath.make_fused_kernel",
            "utils.cancellation.checkpoint",
        ]
        + KERNEL_SPANS
    ),
    "sweep": [
        "datasets.load_dataset",
        "core.peega.attack",
        "attacks.rbcd.GRBCD.attack",
        "defenses.GNAT.fit",
        "nn.trainer.train_node_classifier",
        "experiments.parallel.assemble_table",
        "experiments.supervisor.record_cell",
        "experiments.supervisor.save_poison",
        "experiments.supervisor.load_poison",
    ],
    "scale": [
        "datasets.load_dataset",
        "attacks.rbcd.GRBCD.attack",
        "attacks.rbcd.PRBCD.attack",
        "core.difference.pair_gradients",
        "surrogate.init",
        "surrogate.apply_batch",
        "attacks.rbcd.sample_candidate_pairs",
        "attacks.rbcd.project_onto_budget",
        "graph.apply_perturbations",
        "utils.cancellation.checkpoint",
    ],
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [metric.entry() for metric in END_TO_END],
        "per_layer": [metric.entry() for metric in PER_LAYER],
    }
