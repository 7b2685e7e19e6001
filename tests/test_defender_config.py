"""Configuration plumbing of the defender wrappers."""

import pytest

from repro.core import GNAT
from repro.defenses import GCNSVD, RawGAT, RawGCN, RGCN
from repro.nn import TrainConfig


class TestRawWrappers:
    def test_train_config_respected(self, small_cora):
        config = TrainConfig(epochs=3, patience=3)
        result = RawGCN(train_config=config, seed=0).fit(small_cora)
        assert result.details["epochs"] <= 3

    def test_gat_details(self, small_cora):
        config = TrainConfig(epochs=3, patience=3)
        result = RawGAT(train_config=config, seed=0).fit(small_cora)
        assert result.details["epochs"] <= 3

    def test_distinct_seeds_distinct_results(self, small_cora):
        a = RawGCN(seed=1).fit(small_cora)
        b = RawGCN(seed=2).fit(small_cora)
        # Different init/dropout streams — identical accuracy is possible
        # but identical *validation trajectories* are not guaranteed; assert
        # the cheap thing: results are valid and reproducible per seed.
        a2 = RawGCN(seed=1).fit(small_cora)
        assert a.test_accuracy == a2.test_accuracy
        assert 0.0 <= b.test_accuracy <= 1.0


class TestDefenseResultFields:
    def test_result_fields(self, small_cora):
        result = RawGCN(train_config=TrainConfig(epochs=5), seed=0).fit(small_cora)
        assert result.defender_name == "GCN"
        assert result.runtime_seconds > 0
        assert isinstance(result.details, dict)

    def test_svd_rank_detail(self, small_cora):
        result = GCNSVD(
            rank=7, train_config=TrainConfig(epochs=5), seed=0
        ).fit(small_cora)
        assert result.details["rank"] == 7

    def test_gnat_details(self, small_cora):
        result = GNAT(
            views="te", train_config=TrainConfig(epochs=5), seed=0
        ).fit(small_cora)
        assert result.details == {"views": "te", "merged": False, "pruned_edges": 0}


class TestHiddenDimensions:
    @pytest.mark.parametrize("hidden", [8, 32])
    def test_rgcn_hidden_dim(self, small_cora, hidden):
        result = RGCN(
            hidden_dim=hidden, train_config=TrainConfig(epochs=5), seed=0
        ).fit(small_cora)
        assert 0.0 <= result.test_accuracy <= 1.0
