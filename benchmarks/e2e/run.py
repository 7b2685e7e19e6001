"""End-to-end benchmark: four user workloads, an outside-in layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload peega --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 0 --out e2e.json
    python3 benchmarks/e2e/run.py --workload sweep --seed 0 --trace 1 --spans sweep.jsonl

Each workload runs in a fresh child process (``harness.py``) whose BLAS is
pinned to one thread before Python starts, with its temporary files kept
inside the checkout.  The run prints every metric by name with its unit,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
with ``--trace 1``).  ``--out`` also writes a ``repro.bench/1`` report with
the per-round numbers and an environment fingerprint.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import catalogue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Pinned before the child's interpreter starts: NumPy's BLAS reads these
#: once, and fork-started pool workers inherit whatever the parent loaded.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A single-workload run must end within 180 s; the child gets the rest.
CHILD_TIMEOUT_S = 170.0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def stop_session(pgid: int, patience_s: float = 5.0) -> None:
    """Kill whatever the child left in its session (pool workers of a
    crashed sweep) and wait until the group is gone."""
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, args, tmp: Path) -> dict | None:
    """Play ``workload`` in a pinned child process; None if it crashed."""
    result_path = tmp / f"{workload}.result.json"
    command = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.spans:
        command += ["--spans", str(Path(args.spans).with_suffix(f".{workload}.jsonl"))
                    if args.workload == "all" else args.spans]
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED_ENV, TMPDIR=str(tmp))
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[{workload}] timed out after {CHILD_TIMEOUT_S:.0f}s", file=sys.stderr)
        code = None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        stop_session(child.pid)
    if code != 0 or not result_path.is_file():
        print(f"[{workload}] child exited with {code}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def print_report(result: dict) -> None:
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] error_rate {failed / attempted:.6f} ({failed}/{attempted} ops)")
    for key, value in sorted(result["quality"].items()):
        print(f"[{name}] quality {key} {value:.4f}")
    for metric, entry in result["metrics"].items():
        print(f"[{name}] {metric} {entry['value']!r} {entry['unit']}")
    if result.get("top_self"):
        print(f"[{name}] top 5 by self time:")
        for span_name, seconds in result["top_self"]:
            print(f"[{name}]   {span_name} {seconds:.4f} s")


def update_reference(results: dict) -> None:
    """Record the seed-0 round digests of this environment."""
    path = HERE / "reference.json"
    reference = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.is_file()
        else {"digests": {}}
    )
    env = next(iter(results.values()))["env"]
    if reference.get("fingerprint") != env:
        reference = {"digests": {}}
    reference["fingerprint"] = env
    reference["seed"] = 0
    for name, result in results.items():
        reference["digests"][name] = [r["digest"] for r in result["rounds"]]
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=[*catalogue.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (1 is the holdout)")
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--spans", help="with --trace 1, write the spans here as JSONL")
    parser.add_argument("--out", help="write a repro.bench/1 report here")
    parser.add_argument("--smoke", action="store_true", help="minimum sizes (harness tests)")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's seed-0 output digests in reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.update_reference and (args.seed != 0 or args.smoke or args.trace):
        parser.error("--update-reference needs --seed 0, --trace 0 and no --smoke")

    signal.signal(signal.SIGTERM, _terminate)
    workloads = list(catalogue.WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    results = {}
    try:
        for name in workloads:
            started = time.perf_counter()
            result = run_child(name, args, tmp)
            if result is None:
                return 1
            result["elapsed_s"] = time.perf_counter() - started
            results[name] = result
            print_report(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if args.update_reference:
        update_reference(results)
    if args.out:
        report = {
            "schema": "repro.bench/1",
            "bench": "e2e",
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "pinned_env": PINNED_ENV,
            "env": next(iter(results.values()))["env"],
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    correct = failed == 0
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
