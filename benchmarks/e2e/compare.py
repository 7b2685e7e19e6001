"""Compare the end-to-end metrics of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``repro.bench/1`` reports ``run.py --out`` wrote,
one per run.  The i-th report of each side in file-name order forms pair
i, so run the two sides alternately (parent first in even pairs, change
first in odd ones).  For every (workload, end-to-end metric) the table
gives each side's median and quartiles, the share of pairs the change won
(ties count for neither) and a verdict:

``improved``
    at least 10 pairs, the change won at least 9 of every 10, the medians
    differ by more than the parent's interquartile distance, and the
    change failed no larger share of ops than the parent;
``unresolved``
    either side's spread (interquartile distance over median) is wider
    than the metric's bound;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``no worse``
    otherwise.

Bounds are the ones ``BENCHMARK.json`` fixes.  Each workload's share of
failed ops is printed for both sides.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import catalogue
from stats import quartiles, spread

#: Pairs needed before a gain can be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Row:
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def judge(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    change_fails_more: bool = False,
) -> Row:
    """The verdict on one metric from paired samples (pair i = index i)."""
    pairs = min(len(parent), len(change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_q = quartiles(parent)
    change_q = quartiles(change)
    gain = sign * (change_q[1] - parent_q[1])
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and gain > parent_q[2] - parent_q[0]
        and not change_fails_more
    ):
        verdict = "improved"
    elif max(spread(parent), spread(change)) > bound:
        verdict = "unresolved"
    elif -gain > bound * abs(parent_q[1]):
        verdict = "regressed"
    else:
        verdict = "no worse"
    return Row(parent_q, change_q, wins, pairs, verdict)


def load_side(directory: str):
    """``(samples[workload][metric] -> values, failures[workload] -> (failed, attempted))``
    from the untraced reports in ``directory``, in file-name order."""
    samples: dict = defaultdict(lambda: defaultdict(list))
    failures: dict = defaultdict(lambda: [0, 0])
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"{directory}: no result JSONs")
    for path in paths:
        report = json.loads(path.read_text(encoding="utf-8"))
        if report.get("schema") != "repro.bench/1" or report.get("bench") != "e2e":
            raise SystemExit(f"{path}: not an e2e repro.bench/1 report")
        if report["trace"]:
            continue
        for name, result in report["workloads"].items():
            for metric, entry in result["metrics"].items():
                samples[name][metric].append(entry["value"])
            failures[name][0] += result["failed"]
            failures[name][1] += result["attempted"]
    return samples, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent commit's reports")
    parser.add_argument("change", help="directory of the change's reports")
    args = parser.parse_args(argv)

    parent, parent_failures = load_side(args.parent)
    change, change_failures = load_side(args.change)
    regressed = False
    print(
        f"{'workload':8} {'metric':12} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'wins':>7}  verdict"
    )
    for name in catalogue.WORKLOADS:
        if name not in parent or name not in change:
            continue
        p_failed, p_attempted = parent_failures[name]
        c_failed, c_attempted = change_failures[name]
        p_share = p_failed / p_attempted if p_attempted else 0.0
        c_share = c_failed / c_attempted if c_attempted else 0.0
        for metric in catalogue.END_TO_END:
            row = judge(
                parent[name][metric.name],
                change[name][metric.name],
                metric.better,
                metric.bound,
                change_fails_more=c_share > p_share,
            )
            regressed |= row.verdict == "regressed"
            print(
                f"{name:8} {metric.name:12} "
                f"{_quartiles(row.parent):>34} {_quartiles(row.change):>34} "
                f"{row.wins:>3}/{row.pairs:<3}  {row.verdict}"
            )
        print(
            f"{name:8} failed ops: parent {p_failed}/{p_attempted} ({100 * p_share:.2f}%), "
            f"change {c_failed}/{c_attempted} ({100 * c_share:.2f}%)"
        )
    pairs = min(len(next(iter(side.values()))[catalogue.END_TO_END[0].name])
                for side in (parent, change))
    if pairs < MIN_PAIRS:
        print(f"only {pairs} pairs: no gain can be claimed below {MIN_PAIRS}")
    return 1 if regressed else 0


def _quartiles(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
