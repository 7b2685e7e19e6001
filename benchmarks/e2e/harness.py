"""Child process of ``run.py``: plays one workload's rounds and writes the
result as JSON.

``run.py`` starts this script with BLAS pinned to one thread (the variables
must be set before NumPy loads) and a temporary directory inside the
checkout; run the benchmark through ``run.py``, not this file.

Every run except a smoke run first plays one untimed warm-up round at
minimum size.  Untraced runs then play rounds until ``--seconds`` have
passed and report the end-to-end metrics as medians over rounds; set-up
time is the median time to import the program (this process and four
fresh interpreters) plus the median time a round takes to build its
inputs.  Traced runs play pairs of rounds on the same inputs,
one untraced and one traced (alternating which goes first), until
``--seconds`` have passed; the per-layer metrics come from the first
traced round, and the tracing overhead is the median paired difference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"

#: Fresh interpreters that time the program's import, besides this one
#: (an import varies by a fifth from one interpreter to the next here).
IMPORT_SAMPLES = 4


@dataclass
class Round:
    index: int
    dataset_seed: int
    traced: bool
    setup_s: float
    op_s: float
    cpu_s: float
    units: int
    attempted: int
    failed: int
    digest: str
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def fingerprint() -> dict:
    """What the output digests depend on besides the code and the seed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = flags = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = value.strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "cpu_flags_sha256": hashlib.sha256(flags.encode()).hexdigest()[:16],
        "machine": platform.machine(),
    }


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    code = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB."""
    peaks = [
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    return max(peaks) / 1024.0  # Linux reports KiB


def cache_stats() -> dict:
    from repro.graph import viewcache
    from repro.utils import keystore

    views = viewcache.view_cache_stats()
    stores = keystore.cache_report()["stores"].values()
    return {
        "graph.viewcache.hits": views["hits"],
        "graph.viewcache.misses": views["misses"],
        "utils.keystore.hits": sum(store["hits"] for store in stores),
        "utils.keystore.misses": sum(store["misses"] for store in stores),
        "utils.keystore.evictions": sum(store["evictions"] for store in stores),
    }


def play(
    workload, index: int, seed: int, scratch: str, tracer=None, finish: bool = True
) -> Round:
    """One round: fresh caches, timed set-up, timed ops, checks.

    The first untraced round also runs ``workload.finish`` unless
    ``finish`` is false.
    """
    import spans
    from repro.utils import keystore
    from workloads import RoundLog, dataset_seed

    keystore.clear_all_stores()
    gc.collect()  # every round starts from a collected heap
    round_dir = tempfile.mkdtemp(prefix=f"round{index}-", dir=scratch)
    log = RoundLog()
    patches = spans.install(tracer) if tracer is not None else None
    try:
        if tracer is not None:
            root = tracer.begin("e2e.setup")
        started = time.perf_counter()
        inputs = workload.setup(dataset_seed(seed, index), round_dir)
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.end(root)
            root = tracer.begin("e2e.round")
        outputs = workload.run(inputs, log)
        if tracer is not None:
            tracer.end(root)
        log.layers.update(cache_stats())
    finally:
        if patches is not None:
            patches.remove()
    if finish and index == 0 and tracer is None:
        workload.finish(inputs, outputs, log)
    return Round(
        index=index,
        dataset_seed=dataset_seed(seed, index),
        traced=tracer is not None,
        setup_s=setup_s,
        op_s=log.op_s,
        cpu_s=log.cpu_s,
        units=log.units,
        attempted=log.attempted,
        failed=log.failed,
        digest=log.digest,
        errors=log.errors,
        quality=log.quality,
        layers=log.layers,
    )


def report_round(name: str, round_: Round, unit: str) -> None:
    tag = " traced" if round_.traced else ""
    print(
        f"[{name}] round {round_.index}{tag} (dataset seed {round_.dataset_seed}): "
        f"setup {round_.setup_s:.3f}s, ops {round_.op_s:.3f}s, "
        f"{round_.units} {unit}, {round_.failed}/{round_.attempted} ops failed",
        flush=True,
    )
    for error in round_.errors:
        print(f"[{name}]   {error}", flush=True)


def check_reference(name: str, rounds: list[Round], env: dict, checks) -> str:
    """Compare seed-0 round digests with ``reference.json``."""
    if not REFERENCE.is_file():
        return "skipped (no reference.json)"
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    differing = sorted(
        key
        for key in set(env) | set(reference["fingerprint"])
        if env.get(key) != reference["fingerprint"].get(key)
    )
    if differing:
        return f"skipped (environment differs: {', '.join(differing)})"
    expected = reference["digests"].get(name, [])
    compared = 0
    for round_ in rounds:
        if round_.index < len(expected):
            compared += 1
            checks.check(
                f"round {round_.index} output digest matches reference.json",
                round_.digest == expected[round_.index],
            )
    return f"{compared} round digests compared"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import_started = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    import catalogue
    import spans
    from workloads import WORKLOADS, RoundLog

    import_s = statistics.median(
        [time.perf_counter() - import_started]
        + [time_import() for _ in range(IMPORT_SAMPLES)]
    )
    name = args.workload
    workload = WORKLOADS[name](args.smoke)
    env = fingerprint()
    checks = RoundLog()
    rounds: list[Round] = []
    tracers = []
    scratch = tempfile.mkdtemp(prefix=f"{name}-")
    if not args.smoke:
        # Warm-up: one untimed round at minimum size, so the first timed
        # round does not pay for first calls (lazy imports, allocator growth).
        warmup = play(WORKLOADS[name](True), 0, args.seed, scratch, finish=False)
        checks.attempted += warmup.attempted
        checks.failed += warmup.failed
        checks.errors += [f"warm-up: {error}" for error in warmup.errors]
    # Start another round (or traced pair) only while it is expected to end
    # within --seconds, judging by the median length of those played so far.
    started = time.perf_counter()
    lengths: list[float] = []
    while not lengths or (
        time.perf_counter() - started + statistics.median(lengths) <= args.seconds
    ):
        iteration_started = time.perf_counter()
        index = len(tracers) if args.trace else len(rounds)
        if not args.trace:
            rounds.append(play(workload, index, args.seed, scratch))
            report_round(name, rounds[-1], workload.unit)
            lengths.append(time.perf_counter() - iteration_started)
            continue
        tracer = spans.Tracer(uuid.uuid4().hex[:12], name)
        played = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            played[traced] = play(
                workload, index, args.seed, scratch, tracer if traced else None
            )
            report_round(name, played[traced], workload.unit)
        checks.check(
            f"round {index} traced digest equals untraced digest",
            played[True].digest == played[False].digest,
        )
        rounds += [played[False], played[True]]
        tracers.append(tracer)
        lengths.append(time.perf_counter() - iteration_started)

    reference = "skipped (smoke run)" if args.smoke else "skipped (seed is not 0)"
    if args.seed == 0 and not args.smoke:
        reference = check_reference(name, rounds, env, checks)
    print(f"[{name}] reference digests: {reference}", flush=True)

    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "env": env,
        "unit": workload.unit,
        "import_s": import_s,
        "reference": reference,
        "quality": rounds[0].quality,
        "rounds": [asdict(round_) for round_ in rounds],
    }
    if args.trace:
        first = spans.summarize(tracers[0].spans)
        for span_name in catalogue.EXPECTED_SPANS[name]:
            checks.check(f"wrapper {span_name} fired", span_name in first)
        values = spans.layer_metrics(
            tracers[0], next(r for r in rounds if r.traced).layers
        )
        pairs = zip(rounds[0::2], rounds[1::2])
        values["trace_overhead_s"] = statistics.median(
            traced.op_s - untraced.op_s for untraced, traced in pairs
        )
        result["metrics"] = {
            metric.name: {"value": float(values.get(metric.name, 0.0)), "unit": metric.unit}
            for metric in catalogue.PER_LAYER
        }
        result["top_self"] = spans.top_self(tracers[0].spans)
        if args.spans:
            spans.write_jsonl(
                args.spans,
                [
                    {**record, "round": index}
                    for index, tracer in enumerate(tracers)
                    for record in tracer.records()
                ],
            )
    else:
        values = {
            "setup_s": import_s + statistics.median(r.setup_s for r in rounds),
            "round_s": statistics.median(round_.op_s for round_ in rounds),
            "cpu_s": statistics.median(round_.cpu_s for round_ in rounds),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": statistics.median(
                r.units / r.op_s if r.op_s > 0 else 0.0 for r in rounds
            ),
        }
        result["metrics"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in catalogue.END_TO_END
        }
    for error in checks.errors:
        print(f"[{name}] {error}", flush=True)
    result["attempted"] = sum(r.attempted for r in rounds) + checks.attempted
    result["failed"] = sum(r.failed for r in rounds) + checks.failed
    result["errors"] = [e for r in rounds for e in r.errors] + checks.errors
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the launcher reports a crashed child as a failed run
        traceback.print_exc()
        sys.exit(1)
