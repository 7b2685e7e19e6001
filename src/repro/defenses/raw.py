"""Raw (undefended) GNNs wrapped in the defender interface.

GCN and GAT are the "Raw GNNs" columns of Tables IV–VI: they apply no
purification and serve as the floor every defender must beat.
"""

from __future__ import annotations

from typing import Optional

from ..graph import Graph
from ..nn import GAT, GCN, TrainConfig, train_node_classifier
from ..utils.rng import SeedLike
from .base import Defender

__all__ = ["RawGCN", "RawGAT"]


class RawGCN(Defender):
    """Vanilla two-layer GCN, no defense."""

    name = "GCN"

    def __init__(
        self,
        hidden_dim: int = 16,
        dropout: float = 0.5,
        train_config: Optional[TrainConfig] = None,
        engine: str = "auto",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self.hidden_dim = int(hidden_dim)
        self.dropout = float(dropout)
        self.train_config = train_config or TrainConfig()
        self.engine = engine

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        model = GCN(
            graph.num_features,
            graph.num_classes,
            hidden_dim=self.hidden_dim,
            dropout=self.dropout,
            seed=self._model_seed(),
        )
        result = train_node_classifier(
            model, graph, self.train_config, engine=self.engine
        )
        return result.test_accuracy, result.best_val_accuracy, {"epochs": result.epochs_run}


class RawGAT(Defender):
    """Vanilla two-layer GAT; its attention gives mild implicit robustness."""

    name = "GAT"

    def __init__(
        self,
        hidden_dim: int = 8,
        num_heads: int = 4,
        dropout: float = 0.5,
        train_config: Optional[TrainConfig] = None,
        engine: str = "auto",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self.hidden_dim = int(hidden_dim)
        self.num_heads = int(num_heads)
        self.dropout = float(dropout)
        self.train_config = train_config or TrainConfig()
        self.engine = engine

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        model = GAT(
            graph.num_features,
            graph.num_classes,
            hidden_dim=self.hidden_dim,
            num_heads=self.num_heads,
            dropout=self.dropout,
            seed=self._model_seed(),
        )
        result = train_node_classifier(
            model, graph, self.train_config, engine=self.engine
        )
        return result.test_accuracy, result.best_val_accuracy, {"epochs": result.epochs_run}
