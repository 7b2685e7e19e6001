"""CI perf-gate contract: the baseline diff must catch real regressions.

The gate's whole value is failing CI when the fused engine (or the
sampled-block attackers) get slower relative to their in-run oracle.
These tests prove the failure path actually fires — a doctored baseline
with better ratios than the fresh run must fail the gate — and that
schema drift cannot silently disable gating.
"""

import copy
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from perf_gate import SCHEMA, gate, keyset, main  # noqa: E402


def training_report(fused=1.0, autodiff=2.0):
    return {
        "schema": SCHEMA,
        "bench": "training",
        "quick": True,
        "models": {
            name: {
                "fits": 5,
                "autodiff_cpu_seconds": autodiff,
                "fused_cpu_seconds": fused,
                "per_fit_autodiff": autodiff / 5,
                "per_fit_fused": fused / 5,
                "speedup": autodiff / fused,
                "min_speedup": 1.5,
            }
            for name in ("GCN", "GAT", "RGCN", "SimPGCN")
        },
    }


def attack_scale_report(wall=10.0, generate=1.0):
    return {
        "schema": SCHEMA,
        "bench": "attack_scale",
        "quick": True,
        "tiers": {
            "sbm-10k": {
                "nodes": 10000,
                "generate_seconds": generate,
                "attacks": {
                    "PRBCD": {"wall_seconds": wall, "flips": 100},
                    "GRBCD": {"wall_seconds": wall / 2, "flips": 100},
                },
            }
        },
    }


class TestGate:
    def test_identical_reports_pass(self):
        report = gate(training_report(), training_report())
        assert report["passed"], report["failures"]
        assert len(report["checks"]) == 4

    def test_committed_baseline_conforms_to_schema(self):
        # The committed report IS the CI baseline; gating it against
        # itself must pass, proving it carries the unified schema.
        path = BENCHMARKS / "results" / "BENCH_training.json"
        committed = json.loads(path.read_text())
        report = gate(committed, committed)
        assert report["passed"], report["failures"]

    def test_injected_regression_fails(self):
        # Doctor the baseline to claim the fused engine used to run the
        # fit in a tenth of the autodiff time; the fresh run's parity
        # ratio is then a >1.5x normalized regression and must fail.
        baseline = training_report(fused=0.2, autodiff=2.0)
        fresh = training_report(fused=2.0, autodiff=2.0)
        report = gate(baseline, fresh)
        assert not report["passed"]
        assert any("exceeds limit" in f for f in report["failures"])
        # every model regressed, so every model is named
        assert len(report["failures"]) == 4

    def test_training_gate_reads_the_paired_speedup(self):
        # Per-engine medians that look unchanged cannot hide a paired
        # speedup that collapsed: the gate judges the bench's own number.
        baseline = training_report(fused=1.0, autodiff=2.0)
        fresh = training_report(fused=1.0, autodiff=2.0)
        for record in fresh["models"].values():
            record["speedup"] = 0.5
        report = gate(baseline, fresh)
        assert not report["passed"]
        assert all(check["fresh_ratio"] == 2.0 for check in report["checks"])
        # ...and per-engine medians that look regressed do not fail a run
        # whose paired speedup held.
        fresh = training_report(fused=3.0, autodiff=2.0)
        for record in fresh["models"].values():
            record["speedup"] = 2.0
        assert gate(baseline, fresh)["passed"]

    def test_within_tolerance_passes(self):
        baseline = training_report(fused=1.0, autodiff=2.0)
        fresh = training_report(fused=1.2, autodiff=2.0)  # 0.6 <= 0.5*1.5+0.05
        assert gate(baseline, fresh)["passed"]

    def test_attack_scale_regression_fails(self):
        baseline = attack_scale_report(wall=10.0, generate=1.0)
        fresh = attack_scale_report(wall=40.0, generate=1.0)
        report = gate(baseline, fresh)
        assert not report["passed"]
        assert any("sbm-10k/PRBCD" in f for f in report["failures"])

    def test_attack_scale_normalization_cancels_runner_speed(self):
        # A uniformly 3x slower runner scales wall and generate alike;
        # the normalized ratio is unchanged and the gate must pass.
        baseline = attack_scale_report(wall=10.0, generate=1.0)
        fresh = attack_scale_report(wall=30.0, generate=3.0)
        assert gate(baseline, fresh)["passed"]

    def test_schema_drift_fails(self):
        baseline = training_report()
        fresh = training_report()
        del fresh["models"]["GAT"]
        report = gate(baseline, fresh)
        assert not report["passed"]
        assert any("schema drift" in f for f in report["failures"])
        fresh = training_report()
        fresh["models"]["GCN"]["new_field"] = 1
        assert not gate(baseline, fresh)["passed"]

    def test_wrong_schema_tag_fails(self):
        bad = training_report()
        bad["schema"] = "repro.bench/0"
        report = gate(bad, training_report())
        assert not report["passed"]
        assert any("repro.bench/0" in f for f in report["failures"])

    def test_unknown_bench_kind_fails(self):
        baseline = copy.deepcopy(training_report())
        baseline["bench"] = "mystery"
        fresh = copy.deepcopy(baseline)
        report = gate(baseline, fresh)
        assert not report["passed"]
        assert any("no gate rule" in f for f in report["failures"])

    def test_keyset_is_recursive(self):
        keys = keyset({"a": {"b": 1}, "c": 2})
        assert keys == {"a", "a.b", "c"}


class TestCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_and_report_on_pass(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", training_report())
        fresh = self._write(tmp_path, "fresh.json", training_report())
        report_path = tmp_path / "report.json"
        assert main([base, fresh, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] and report["gated_bench"] == "training"
        assert "perf gate passed" in capsys.readouterr().out

    def test_exit_one_and_report_on_regression(self, tmp_path, capsys):
        base = self._write(
            tmp_path, "base.json", training_report(fused=0.2, autodiff=2.0)
        )
        fresh = self._write(
            tmp_path, "fresh.json", training_report(fused=2.0, autodiff=2.0)
        )
        report_path = tmp_path / "report.json"
        assert main([base, fresh, "--report", str(report_path)]) == 1
        report = json.loads(report_path.read_text())
        assert not report["passed"]
        assert report["failures"]
        assert "exceeds limit" in capsys.readouterr().err


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
