"""Command-line interface.

Drives the typical pipeline without writing Python::

    python -m repro dataset cora --scale 0.15 --out cora.npz
    python -m repro attack PEEGA --graph cora.npz --rate 0.1 --out poison.npz
    python -m repro analyze --attack poison.npz
    python -m repro defend GNAT --attack poison.npz --seeds 3
    python -m repro table cora --rate 0.1
    python -m repro table cora --checkpoint-dir ckpt/ --resume
    python -m repro info --graph cora.npz

Attackers/defenders are instantiated through the per-dataset presets in
:mod:`repro.experiments.config`, i.e. the same configurations the paper's
tables use.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import edge_difference, edge_homophily
from .datasets import dataset_names, load_dataset
from .errors import ReproError
from .utils import cancellation
from .experiments import (
    ATTACKER_NAMES,
    DEFENDER_NAMES,
    ExperimentRunner,
    ExperimentScale,
    format_accuracy_table,
    make_attacker,
    make_defender,
)
from .graph import VALIDATION_POLICIES
from .io import load_attack_result, load_graph, save_attack_result, save_graph
from .utils.keystore import cache_bytes, set_cache_bytes
from .utils.resources import active_budget, enforced_budget, parse_bytes

__all__ = ["main", "build_parser", "EXIT_INTERRUPTED"]

# Exit code for a sweep stopped by SIGINT/SIGTERM after a graceful
# shutdown (journal flushed, in-flight trials snapshotted): distinct from
# 2 (structured error) and 3 (completed with trial failures).
EXIT_INTERRUPTED = 4


@contextlib.contextmanager
def _graceful_shutdown_signals():
    """Route SIGINT/SIGTERM through cooperative cancellation for a sweep.

    The first signal flips the process-global shutdown flag: poll sites
    raise, in-flight trials snapshot, the executor terminates its workers,
    and the journal is left crash-consistent for ``--resume``.  A repeated
    signal force-exits immediately (the operator really means it).
    """
    previous = {}

    def handler(signum, frame):
        name = signal.Signals(signum).name
        if not cancellation.request_shutdown(f"received {name}"):
            os._exit(130 if signum == signal.SIGINT else 143)
        print(
            f"{name}: shutting down gracefully — snapshotting in-flight "
            "trials (repeat the signal to force-quit)",
            file=sys.stderr,
        )

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except ValueError:  # not the main thread (embedded use)
            pass
    try:
        yield
    finally:
        for signum, prev in previous.items():
            signal.signal(signum, prev)
        cancellation.reset_shutdown()


def _add_validate_flag(parser: argparse.ArgumentParser, default: str = "strict") -> None:
    parser.add_argument(
        "--validate",
        choices=VALIDATION_POLICIES,
        default=default,
        help="graph contract validation policy: strict rejects degenerate "
        "graphs, repair fixes what it can (symmetrize, binarize, drop "
        f"self-loops...) with a warning per fix, off trusts the input "
        f"(default {default})",
    )


def _add_resource_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="soft RSS ceiling per process, e.g. 8G or 500M (default: "
        "unlimited); crossing it raises a structured ResourceError: a sweep "
        "retries the trial as configured, attack and defend exit 2",
    )
    parser.add_argument(
        "--cache-bytes",
        default=None,
        metavar="BYTES",
        help="global byte budget shared by all in-memory artifact caches "
        "(view operators, SGC propagations, poison store), e.g. 2G "
        "(default: unlimited); oldest entries evict first",
    )


@contextlib.contextmanager
def _resource_limits(args: argparse.Namespace):
    """Install --memory-budget and --cache-bytes in this process for the
    command's run; a --jobs pool hands both to each worker it starts."""
    memory = getattr(args, "memory_budget", None)
    cache = getattr(args, "cache_bytes", None)
    budget = enforced_budget(parse_bytes(memory)) if memory else None
    previous_cache = cache_bytes()
    if cache:
        set_cache_bytes(parse_bytes(cache))
    try:
        with active_budget(budget) if budget else contextlib.nullcontext():
            yield
    finally:
        set_cache_bytes(previous_cache)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Black-box GNN attack (PEEGA) and defense (GNAT) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="generate a synthetic dataset")
    p_dataset.add_argument("name", choices=dataset_names())
    p_dataset.add_argument("--scale", type=float, default=0.15)
    p_dataset.add_argument("--seed", type=int, default=0)
    p_dataset.add_argument("--out", required=True, help="output .npz path")
    _add_validate_flag(p_dataset)

    p_attack = sub.add_parser("attack", help="poison a graph")
    p_attack.add_argument("attacker", choices=ATTACKER_NAMES)
    p_attack.add_argument("--graph", help=".npz graph from `repro dataset`")
    p_attack.add_argument("--dataset", choices=dataset_names(), help="generate instead")
    p_attack.add_argument("--scale", type=float, default=0.15)
    p_attack.add_argument("--rate", type=float, default=0.1)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--out", required=True, help="output .npz attack archive")
    _add_validate_flag(p_attack)
    _add_resource_flags(p_attack)

    p_defend = sub.add_parser("defend", help="train a defender and report accuracy")
    p_defend.add_argument("defender", choices=DEFENDER_NAMES)
    p_defend.add_argument("--graph", help=".npz graph to train on")
    p_defend.add_argument("--attack", help=".npz attack archive (trains on its poison)")
    p_defend.add_argument("--dataset", default="cora", choices=dataset_names(),
                          help="dataset name for the preset hyper-parameters")
    p_defend.add_argument("--seeds", type=int, default=3)
    _add_validate_flag(p_defend, default="repair")
    _add_resource_flags(p_defend)

    p_table = sub.add_parser("table", help="regenerate a Table IV/V/VI-style grid")
    p_table.add_argument("dataset", choices=dataset_names())
    p_table.add_argument("--scale", type=float, default=0.15)
    p_table.add_argument("--seeds", type=int, default=3)
    p_table.add_argument("--rate", type=float, default=0.1)
    p_table.add_argument("--attackers", nargs="*", choices=ATTACKER_NAMES)
    p_table.add_argument("--defenders", nargs="*")
    p_table.add_argument(
        "--compare",
        action="store_true",
        help="render measured-vs-paper markdown with the shape-claim scorecard",
    )
    p_table.add_argument(
        "--checkpoint-dir",
        help="journal completed cells and poison graphs here (written after "
        "every cell, so an interrupted sweep loses at most one cell)",
    )
    p_table.add_argument(
        "--resume",
        action="store_true",
        help="resume from an existing --checkpoint-dir journal instead of "
        "starting fresh",
    )
    p_table.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1 = in-process); "
        "parallel output is bit-identical to serial",
    )
    p_table.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="retries per trial before it is recorded as a failure (default 2)",
    )
    p_table.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-trial wall-clock deadline in seconds (default: none); "
        "deadline-cancelled trials snapshot and resume mid-flight on retry",
    )
    p_table.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="with --jobs >= 2: workers beat a liveness beacon at every "
        "poll site; a worker silent for 2x this interval is terminated and "
        "its trial requeued (default: no liveness monitoring)",
    )
    _add_validate_flag(p_table)
    _add_resource_flags(p_table)

    p_analyze = sub.add_parser("analyze", help="attack-pattern analysis (Fig 1/2)")
    p_analyze.add_argument("--attack", required=True, help=".npz attack archive")

    p_info = sub.add_parser("info", help="print graph statistics")
    p_info.add_argument("--graph", required=True)
    _add_validate_flag(p_info)

    return parser


def _load_input_graph(args: argparse.Namespace):
    validate = getattr(args, "validate", "strict")
    if args.graph and args.dataset and args.command == "attack":
        raise SystemExit("give either --graph or --dataset, not both")
    if args.graph:
        return load_graph(args.graph, validate=validate)
    if getattr(args, "dataset", None):
        return load_dataset(
            args.dataset, scale=args.scale, seed=args.seed, validate=validate
        )
    raise SystemExit("one of --graph / --dataset is required")


def _cmd_dataset(args: argparse.Namespace) -> int:
    graph = load_dataset(
        args.name, scale=args.scale, seed=args.seed, validate=args.validate
    )
    save_graph(graph, args.out)
    print(graph.summary())
    print(f"saved to {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    graph = _load_input_graph(args)
    attacker = make_attacker(args.attacker, graph.name, seed=args.seed)
    result = attacker.attack(
        graph, perturbation_rate=args.rate, validate=args.validate
    )
    save_attack_result(result, args.out)
    print(
        f"{attacker.name}: {len(result.edge_flips)} edge flips, "
        f"{len(result.feature_flips)} feature flips in "
        f"{result.runtime_seconds:.1f}s"
    )
    print(f"saved to {args.out}")
    return 0


def _cmd_defend(args: argparse.Namespace) -> int:
    if bool(args.graph) == bool(args.attack):
        raise SystemExit("give exactly one of --graph / --attack")
    if args.graph:
        graph = load_graph(args.graph, validate=args.validate)
    else:
        graph = load_attack_result(args.attack).poisoned
    dataset = graph.name if graph.name in dataset_names() else args.dataset
    accuracies = [
        make_defender(args.defender, dataset, seed=seed)
        .fit(graph, validate=args.validate)
        .test_accuracy
        for seed in range(args.seeds)
    ]
    print(
        f"{args.defender} on {graph.name}: "
        f"{100 * np.mean(accuracies):.2f}±{100 * np.std(accuracies):.2f} "
        f"({args.seeds} seeds)"
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import (
        SweepCheckpoint,
        TrialPolicy,
        TrialSupervisor,
        make_executor,
    )
    from .utils import faults

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    config = ExperimentScale(scale=args.scale, seeds=args.seeds, rate=args.rate)
    supervisor = TrialSupervisor(
        TrialPolicy(max_attempts=args.max_attempts, deadline_seconds=args.deadline)
    )
    checkpoint = (
        SweepCheckpoint(args.checkpoint_dir, resume=args.resume)
        if args.checkpoint_dir
        else None
    )
    executor = make_executor(args.jobs, heartbeat_interval=args.heartbeat_interval)
    runner = ExperimentRunner(
        config,
        supervisor=supervisor,
        checkpoint=checkpoint,
        executor=executor,
        validate=args.validate,
    )
    try:
        # REPRO_FAULTS lets operators chaos-test a real sweep end to end.
        with _graceful_shutdown_signals(), faults.active(
            faults.FaultInjector.from_env()
        ):
            table = runner.accuracy_table(
                args.dataset,
                attackers=args.attackers or None,
                defenders=args.defenders or None,
            )
    except cancellation.CancelledError as error:
        hint = (
            "re-run with --resume to finish the sweep"
            if args.checkpoint_dir
            else "use --checkpoint-dir to make interrupted sweeps resumable"
        )
        print(f"sweep interrupted ({error}); {hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    if args.jobs > 1 and executor.timings is not None:
        print(executor.timings.summary(), file=sys.stderr)
    if args.compare:
        from .experiments import render_comparison

        print(render_comparison(table))
    else:
        print(
            format_accuracy_table(
                table,
                title=f"{args.dataset} @ rate {args.rate} (scale {args.scale}, "
                f"{args.seeds} seeds)",
            )
        )
    if table.failures:
        from .experiments import render_failure_appendix

        print(render_failure_appendix(table.failures), file=sys.stderr)
        return 3
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    result = load_attack_result(args.attack)
    diff = edge_difference(result.original, result.poisoned)
    print(f"graph: {result.original.summary()}")
    print(f"homophily: clean={edge_homophily(result.original):.4f} "
          f"poisoned={edge_homophily(result.poisoned):.4f}")
    print(f"edge modifications: {diff}")
    proportions = diff.proportions()
    for kind, value in proportions.items():
        print(f"  {kind}: {value:.1%}")
    print(f"feature flips: {len(result.feature_flips)}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, validate=args.validate)
    print(graph.summary())
    if graph.labels is not None:
        print(f"homophily: {edge_homophily(graph):.4f}")
        counts = np.bincount(graph.labels)
        print(f"class sizes: {list(counts)}")
    degrees = graph.degrees()
    print(
        f"degrees: min={degrees.min():.0f} median={np.median(degrees):.0f} "
        f"max={degrees.max():.0f} mean={degrees.mean():.2f}"
    )
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "attack": _cmd_attack,
    "defend": _cmd_defend,
    "table": _cmd_table,
    "analyze": _cmd_analyze,
    "info": _cmd_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _resource_limits(args):
            return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
