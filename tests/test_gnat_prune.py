"""GNAT's edge-pruning extension (the paper's Sec. VI future work)."""

import pytest

from repro.core import GNAT, PEEGA
from repro.errors import ConfigError
from repro.graph import EdgeFlip, apply_perturbations
from repro.nn import TrainConfig


FAST = TrainConfig(epochs=40, patience=40)


class TestPruneGraph:
    def test_none_threshold_is_identity(self, small_cora):
        defender = GNAT(prune_threshold=None)
        assert defender.prune_graph(small_cora) is small_cora

    def test_removes_dissimilar_edges(self, tiny_graph):
        # Bridge (2, 3) connects nodes with orthogonal features.
        poisoned = apply_perturbations(tiny_graph, [EdgeFlip(0, 4)])
        defender = GNAT(prune_threshold=0.1)
        pruned = defender.prune_graph(poisoned)
        assert not pruned.has_edge(2, 3)
        assert not pruned.has_edge(0, 4)
        assert pruned.has_edge(0, 1)  # identical features survive

    def test_zero_threshold_keeps_everything(self, small_cora):
        defender = GNAT(prune_threshold=0.0)
        pruned = defender.prune_graph(small_cora)
        assert pruned.num_edges == small_cora.num_edges

    def test_identity_features_rejected(self, small_polblogs):
        with pytest.raises(ConfigError, match="identity"):
            GNAT(views="te", prune_threshold=0.1).prune_graph(small_polblogs)

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            GNAT(prune_threshold=1.5)
        with pytest.raises(ConfigError):
            GNAT(prune_threshold=-0.1)


class TestPrunedDefense:
    def test_fit_reports_pruned_edges(self, small_cora):
        poisoned = PEEGA(seed=0).attack(small_cora, perturbation_rate=0.1).poisoned
        result = GNAT(prune_threshold=0.02, train_config=FAST, seed=0).fit(poisoned)
        assert result.details["pruned_edges"] > 0
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_published_config_reports_zero_pruned(self, small_cora):
        result = GNAT(train_config=FAST, seed=0).fit(small_cora)
        assert result.details["pruned_edges"] == 0

    def test_pruning_targets_adversarial_additions(self, small_cora):
        # PEEGA adds dissimilar-pair edges; count how many of the pruned
        # edges are attack edges vs original edges.
        attack = PEEGA(seed=0).attack(small_cora, perturbation_rate=0.15)
        poisoned = attack.poisoned
        defender = GNAT(prune_threshold=0.02)
        pruned = defender.prune_graph(poisoned)
        added = {
            (min(f.u, f.v), max(f.u, f.v))
            for f in attack.edge_flips
            if not small_cora.has_edge(f.u, f.v)
        }
        removed = set(map(tuple, poisoned.edge_list())) - set(
            map(tuple, pruned.edge_list())
        )
        if removed:
            hit_rate = len(removed & added) / len(removed)
            base_rate = len(added) / poisoned.num_edges
            assert hit_rate >= base_rate  # pruning is enriched in attack edges
