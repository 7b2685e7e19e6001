"""Experiment harness: presets, runner caching, tables, timing."""

import pytest

from repro.attacks.base import Attacker
from repro.core import GNAT, PEEGA
from repro.defenses.base import Defender
from repro.errors import ConfigError
from repro.experiments import (
    ATTACKER_NAMES,
    DEFENDER_NAMES,
    CellResult,
    ExperimentRunner,
    ExperimentScale,
    defender_names_for,
    format_accuracy_table,
    format_series,
    format_timing_table,
    make_attacker,
    make_defender,
)


TINY = ExperimentScale(scale=0.04, seeds=2, rate=0.1)


class TestConfig:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.3")
        monkeypatch.setenv("REPRO_SEEDS", "7")
        monkeypatch.setenv("REPRO_RATE", "0.2")
        config = ExperimentScale.from_env()
        assert config.scale == 0.3
        assert config.seeds == 7
        assert config.rate == 0.2

    @pytest.mark.parametrize("name", ATTACKER_NAMES)
    def test_attacker_presets_instantiate(self, name):
        assert isinstance(make_attacker(name, "cora"), Attacker)

    @pytest.mark.parametrize("name", DEFENDER_NAMES)
    def test_defender_presets_instantiate(self, name):
        if name == "GCN-Jaccard":
            with pytest.raises(ConfigError):
                make_defender(name, "polblogs")
        assert isinstance(make_defender(name, "cora"), Defender)

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            make_attacker("Nettack", "cora")
        with pytest.raises(ConfigError):
            make_defender("GNNGuard", "cora")

    def test_peega_preset_polblogs_is_topology_only(self):
        attacker = make_attacker("PEEGA", "polblogs")
        assert isinstance(attacker, PEEGA)
        assert not attacker.attack_features

    def test_gnat_preset_polblogs_drops_feature_view(self):
        defender = make_defender("GNAT", "polblogs")
        assert isinstance(defender, GNAT)
        assert "f" not in defender.views

    def test_defender_names_for(self):
        assert "GCN-Jaccard" in defender_names_for("cora")
        assert "GCN-Jaccard" not in defender_names_for("polblogs")


class TestRunner:
    def test_graph_cached(self):
        runner = ExperimentRunner(TINY)
        assert runner.graph("cora") is runner.graph("cora")

    def test_attack_cached_by_key(self):
        runner = ExperimentRunner(TINY)
        first = runner.attack("cora", "PEEGA")
        assert runner.attack("cora", "PEEGA") is first
        other_rate = runner.attack("cora", "PEEGA", rate=0.05)
        assert other_rate is not first

    def test_evaluate_defender_averages_seeds(self):
        runner = ExperimentRunner(TINY)
        cell = runner.evaluate_defender(runner.graph("cora"), "cora", "GCN")
        assert len(cell.values) == TINY.seeds
        assert 0.0 <= cell.mean <= 1.0

    def test_accuracy_table_structure(self):
        runner = ExperimentRunner(TINY)
        table = runner.accuracy_table(
            "cora", attackers=["PEEGA"], defenders=["GCN", "GNAT"]
        )
        assert set(table.rows) == {"Clean", "PEEGA"}
        assert set(table.rows["Clean"]) == {"GCN", "GNAT"}
        assert table.best_defender("Clean") in {"GCN", "GNAT"}
        assert table.strongest_attacker("GCN") == "PEEGA"


class TestCellResult:
    def test_from_values(self):
        cell = CellResult.from_values([0.5, 0.7])
        assert cell.mean == pytest.approx(0.6)
        assert cell.std == pytest.approx(0.1)
        assert "60.00" in str(cell)


class TestFormatting:
    def test_accuracy_table_rendering(self):
        runner = ExperimentRunner(TINY)
        table = runner.accuracy_table(
            "cora", attackers=["PEEGA"], defenders=["GCN", "GNAT"]
        )
        text = format_accuracy_table(table, title="demo")
        assert "demo" in text
        assert "PEEGA" in text and "GNAT" in text
        assert "(" in text  # a best defender is bracketed

    def test_timing_table_rendering(self):
        timings = {
            "fast": {"cora": CellResult.from_values([0.1, 0.2])},
            "slow": {"cora": CellResult.from_values([2.0, 3.0])},
        }
        text = format_timing_table(timings, title="times")
        assert "(0.15" in text  # fastest bracketed
        assert "slow" in text

    def test_series_rendering(self):
        text = format_series("x", [1, 2], {"line": [0.5, 0.75]}, title="fig")
        assert "50.00" in text and "75.00" in text
        raw = format_series("x", [1], {"n": [12.0]}, percent=False)
        assert "12" in raw
