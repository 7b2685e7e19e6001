"""Tests of the end-to-end benchmark harness itself.

Tier-1 does not collect this directory; run ``pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import catalogue
import compare
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_is_the_catalogue():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == catalogue.benchmark_json()


def test_metric_names_units_and_bounds():
    document = catalogue.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 2 <= len(document["workloads"]) <= 8
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    bounds = {entry["name"]: entry["bound"] for entry in document["end_to_end"]}
    assert all(set(e) == {"name", "unit", "better", "bound"} for e in document["end_to_end"])
    assert all(set(e) == {"name", "unit", "better"} for e in document["per_layer"])
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= document["run_seconds"] <= 60
    assert all(path.startswith("benchmarks/e2e") for path in document["paths"])


def test_expected_spans_have_metrics():
    """Every span a workload must fire feeds a per-layer metric."""
    layer_names = {metric.name for metric in catalogue.PER_LAYER}
    # The outcomes assemble_table receives give the attempts per trial.
    assert "experiments.supervisor.attempts_per_trial" in layer_names
    for span_names in catalogue.EXPECTED_SPANS.values():
        for name in span_names:
            if name == "experiments.parallel.assemble_table":
                continue
            stem = name[: -len(".fit")] if name.startswith("defenses.") else name
            assert any(m.startswith(stem + ".") for m in layer_names), name


# ---------------------------------------------------------------------------
# Span arithmetic and percentiles


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span(1, None, "root", 0.0, 10.0),
        spans.Span(2, 1, "a", 1.0, 4.0),
        spans.Span(3, 1, "b", 3.0, 6.0),  # overlaps a: counted once
        spans.Span(4, 2, "a.child", 2.0, 3.0),
        spans.Span(5, 1, "late", 9.0, 12.0),  # clipped at the parent's end
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    summary = spans.summarize(tree + [spans.Span(6, None, "a", 20.0, 21.0)])
    assert summary["a"] == {"calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(3.0)}
    assert spans.top_self(tree, 2) == [("root", pytest.approx(4.0)), ("b", pytest.approx(3.0))]


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.timing_summary([]) == {"n": 0}
    assert set(stats.timing_summary(range(99))) == {"n", "p50"}
    assert stats.timing_summary(range(1, 101))["p90"] == 90
    assert set(stats.timing_summary(range(1000))) == {"n", "p50", "p99"}
    assert set(stats.timing_summary(range(10000))) == {"n", "p50", "p999"}
    assert stats.timing_summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}


def test_quartiles_and_spread():
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Wrapper transparency


@pytest.fixture
def probe_package(monkeypatch):
    """A two-module package whose consumer imported a function by name."""
    package = types.ModuleType("e2e_probe")
    consumer = types.ModuleType("e2e_probe.consumer")

    def make(value):
        if value is None:
            raise ValueError("no value")
        return value

    class Thing:
        def same(self):
            return self

    package.make = make
    package.Thing = Thing
    consumer.build = make  # ``from e2e_probe import make as build``
    monkeypatch.setitem(sys.modules, "e2e_probe", package)
    monkeypatch.setitem(sys.modules, "e2e_probe.consumer", consumer)
    return package, consumer


def test_wrappers_are_transparent(probe_package):
    package, consumer = probe_package
    original, original_method = package.make, package.Thing.__dict__["same"]
    tracer = spans.Tracer("run", "probe")
    patches = spans.Patches("e2e_probe")
    patches.function("e2e_probe", "make", tracer.wrap("probe.make"))
    patches.method("e2e_probe", "Thing", "same", tracer.wrap("probe.same"))

    assert consumer.build is package.make and consumer.build.__wrapped__ is original
    payload = object()
    assert consumer.build(payload) is payload
    with pytest.raises(ValueError, match="no value"):
        package.make(None)
    thing = package.Thing()
    assert thing.same() is thing
    assert [span.name for span in tracer.spans] == ["probe.make", "probe.make", "probe.same"]
    assert all(span.end >= span.start for span in tracer.spans)

    patches.remove()
    assert package.make is original and consumer.build is original
    assert package.Thing.__dict__["same"] is original_method


def test_install_patches_every_consumer_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.attacks.pgd
    import repro.core.gnat
    import repro.defenses.raw
    import repro.nn.trainer
    import repro.utils.cancellation

    original = repro.nn.trainer.train_node_classifier
    checkpoint = repro.utils.cancellation.checkpoint
    patches = spans.install(spans.Tracer("run", "probe"))
    try:
        for module in (repro.core.gnat, repro.defenses.raw, repro.attacks.pgd, repro.nn):
            assert module.train_node_classifier.__wrapped__ is original
        assert repro.utils.cancellation.checkpoint.__wrapped__ is checkpoint
    finally:
        patches.remove()
    for module in (repro.core.gnat, repro.defenses.raw, repro.attacks.pgd, repro.nn):
        assert module.train_node_classifier is original
    assert repro.utils.cancellation.checkpoint is checkpoint


# ---------------------------------------------------------------------------
# compare.py


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [value * 0.8 for value in base]
    assert compare.judge(base, faster, "lower", 0.1).verdict == "improved"
    assert compare.judge(base, faster[:5], "lower", 0.1).verdict == "no worse"  # too few pairs
    assert (
        compare.judge(base, faster, "lower", 0.1, change_fails_more=True).verdict
        == "no worse"
    )
    slower = [value * 1.2 for value in base]
    assert compare.judge(base, slower, "lower", 0.1).verdict == "regressed"
    assert compare.judge(base, slower, "higher", 0.1).verdict == "improved"
    assert compare.judge(base, [v * 1.02 for v in base], "lower", 0.1).verdict == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.judge(base, noisy, "lower", 0.1).verdict == "unresolved"
    row = compare.judge(base, faster, "lower", 0.1)
    assert (row.wins, row.pairs) == (10, 10)


def _report(values: dict, failed: int = 0) -> dict:
    return {
        "schema": "repro.bench/1",
        "bench": "e2e",
        "trace": False,
        "workloads": {
            "peega": {
                "attempted": 10,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": "s"} for name, value in values.items()
                },
            }
        },
    }


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    names = [metric.name for metric in catalogue.END_TO_END]
    for side, factor in (("parent", 1.0), ("change", 1.5)):
        directory = tmp_path / side
        directory.mkdir()
        for index in range(5):
            values = {
                name: (100.0 if name == "ops_per_s" else 1.0 + 0.001 * index) * factor
                for name in names
            }
            (directory / f"run-{index}.json").write_text(json.dumps(_report(values)))
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "peega    round_s" in out and "regressed" in out and "only 5 pairs" in out
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "parent")]) == 0


# ---------------------------------------------------------------------------
# The benchmark itself, at minimum size


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_of_all_workloads(tmp_path):
    started = time.perf_counter()
    plain = _run("--workload", "all", "--smoke", "--seconds", "0", "--trace", "0")
    traced = [
        _run("--workload", "all", "--smoke", "--seconds", "0", "--trace", "1",
             "--spans", str(tmp_path / "spans.jsonl"))
        for _ in range(2)
    ]
    elapsed = time.perf_counter() - started
    for completed in [plain, *traced]:
        assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]

    result = json.loads(plain.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in catalogue.WORKLOADS:
        for metric in catalogue.END_TO_END:
            entry = result["metrics"][f"{workload}.{metric.name}"]
            assert entry["unit"] == metric.unit and entry["value"] > 0

    first, second = (json.loads(c.stdout.strip().splitlines()[-1]) for c in traced)
    assert first["correct"] and second["correct"]
    layer_units = {metric.name: metric.unit for metric in catalogue.PER_LAYER}
    for workload in catalogue.WORKLOADS:
        for name, unit in layer_units.items():
            key = f"{workload}.{name}"
            assert first["metrics"][key]["unit"] == unit
            if unit == "count":  # counts repeat exactly from run to run
                assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    records = [
        json.loads(line)
        for line in (tmp_path / "spans.peega.jsonl").read_text().splitlines()
    ]
    assert {"run", "workload", "id", "parent", "name", "start", "end"} <= set(records[0])
    assert elapsed < 60, f"smoke runs took {elapsed:.1f}s"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    completed = _run("--workload", "peega", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
