"""CI perf regression gate over ``repro.bench/1`` reports.

Diffs a freshly generated ``BENCH_*.json`` against the committed baseline
of the same bench and fails (exit 1) when a *normalized* wall-time metric
regresses beyond the threshold.  Raw seconds are useless across runners,
so every check is a ratio measured inside one run, which cancels machine
speed out:

- ``training``: fused ÷ autodiff per model, as ``1 / speedup`` — the
  median over back-to-back pairs of the per-pair ratio that the bench
  itself asserts its floor on.  Both engines of a pair run in the same
  process moments apart, so a drift in this ratio means the fused kernel
  itself got slower relative to the oracle.
- ``attack_scale``: attack wall seconds / SBM generation seconds per tier —
  generation is pure single-threaded numpy streaming measured in the same
  run.

The gate also diffs the recursive key sets of the two reports: schema
drift (a renamed or dropped field) fails loudly instead of silently
gating nothing.  A machine-readable diff report is written for the CI
artifact upload.

Usage::

    python benchmarks/perf_gate.py BASELINE FRESH [--report PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "repro.bench/1"

#: Multiplicative tolerance on the normalized ratio plus additive slack
#: (absorbs near-zero baselines) per bench kind.
THRESHOLDS = {
    "training": (1.5, 0.05),
    "attack_scale": (1.5, 2.0),
}


def keyset(node, prefix: str = "") -> set:
    """Recursive set of dotted key paths (dict containers only)."""
    out = set()
    if isinstance(node, dict):
        for key, value in node.items():
            out.add(prefix + key)
            out |= keyset(value, prefix + key + ".")
    return out


def _training_ratios(report: dict) -> dict[str, float]:
    # Not fused_cpu_seconds / autodiff_cpu_seconds: those are medians of
    # each engine's times, taken at different moments.
    return {name: 1.0 / record["speedup"] for name, record in report["models"].items()}


def _attack_scale_ratios(report: dict) -> dict[str, float]:
    ratios = {}
    for tier, record in report["tiers"].items():
        for name, attack in record["attacks"].items():
            ratios[f"{tier}/{name}"] = (
                attack["wall_seconds"] / record["generate_seconds"]
            )
    return ratios


_RATIO_EXTRACTORS = {
    "training": _training_ratios,
    "attack_scale": _attack_scale_ratios,
}


def gate(baseline: dict, fresh: dict) -> dict:
    """Compare ``fresh`` against ``baseline``; return the diff report.

    The report's ``failures`` list is empty iff the gate passes.
    """
    failures = []
    for label, report in (("baseline", baseline), ("fresh", fresh)):
        if report.get("schema") != SCHEMA:
            failures.append(
                f"{label} report schema is {report.get('schema')!r}, "
                f"expected {SCHEMA!r}"
            )
    bench = fresh.get("bench")
    if not failures and bench != baseline.get("bench"):
        failures.append(
            f"bench mismatch: baseline {baseline.get('bench')!r} "
            f"vs fresh {bench!r}"
        )

    checks = []
    if not failures:
        # Volatile leaves (timings) share names across reports, so a pure
        # key-path diff catches renamed/dropped fields without pinning
        # values.  "quick" mode changes no keys, only numbers.
        missing = keyset(baseline) - keyset(fresh)
        extra = keyset(fresh) - keyset(baseline)
        if missing or extra:
            failures.append(
                f"schema drift: missing={sorted(missing)} extra={sorted(extra)}"
            )

    if not failures:
        extractor = _RATIO_EXTRACTORS.get(bench)
        if extractor is None:
            failures.append(f"no gate rule for bench kind {bench!r}")
        else:
            tolerance, slack = THRESHOLDS[bench]
            base_ratios = extractor(baseline)
            fresh_ratios = extractor(fresh)
            for name, base_ratio in sorted(base_ratios.items()):
                fresh_ratio = fresh_ratios[name]
                limit = base_ratio * tolerance + slack
                ok = fresh_ratio <= limit
                checks.append(
                    {
                        "name": name,
                        "baseline_ratio": base_ratio,
                        "fresh_ratio": fresh_ratio,
                        "limit": limit,
                        "ok": ok,
                    }
                )
                if not ok:
                    failures.append(
                        f"{name}: normalized wall-time {fresh_ratio:.3f} "
                        f"exceeds limit {limit:.3f} "
                        f"(baseline {base_ratio:.3f})"
                    )

    return {
        "schema": SCHEMA,
        "bench": "perf_gate",
        "gated_bench": bench,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("fresh", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--report", default=None, help="write the diff report JSON here"
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    report = gate(baseline, fresh)

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        print(
            f"{check['name']}: {check['fresh_ratio']:.3f} "
            f"<= {check['limit']:.3f} (baseline "
            f"{check['baseline_ratio']:.3f}) {status}"
        )
    for failure in report["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    if report["passed"]:
        print(f"perf gate passed ({len(report['checks'])} checks)")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
