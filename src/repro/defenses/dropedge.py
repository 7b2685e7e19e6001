"""DropEdge training (Rong et al., 2020) — stochastic-topology defense.

Cited by the paper ([67]) in the over-smoothing discussion; in the
robustness literature it doubles as a simple defense: each training epoch
samples a random edge subset, so no single (possibly adversarial) edge can
dominate what the model learns — topology-level dropout.  Evaluation uses
the full graph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError
from ..graph import Graph, gcn_normalize
from ..nn import GCN, TrainConfig, accuracy
from ..tensor import Adam, Tensor, functional as F, no_grad
from ..utils import cancellation
from ..utils.rng import SeedLike, ensure_rng
from .base import Defender

__all__ = ["DropEdgeGCN", "sample_edge_subgraph"]


def sample_edge_subgraph(
    adjacency: sp.csr_matrix, keep_prob: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """Keep each undirected edge independently with ``keep_prob``."""
    if not 0.0 < keep_prob <= 1.0:
        raise ConfigError(f"keep_prob must lie in (0, 1], got {keep_prob}")
    upper = sp.triu(adjacency, k=1).tocoo()
    keep = rng.random(upper.nnz) < keep_prob
    kept = sp.coo_matrix(
        (upper.data[keep], (upper.row[keep], upper.col[keep])), shape=adjacency.shape
    )
    sampled = kept + kept.T
    return sampled.tocsr()


class DropEdgeGCN(Defender):
    """GCN trained with per-epoch random edge dropping.

    Parameters
    ----------
    keep_prob:
        Probability each edge survives in a given epoch's subgraph.
    """

    name = "DropEdge"

    def __init__(
        self,
        keep_prob: float = 0.7,
        hidden_dim: int = 16,
        train_config: Optional[TrainConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if not 0.0 < keep_prob <= 1.0:
            raise ConfigError(f"keep_prob must lie in (0, 1], got {keep_prob}")
        self.keep_prob = float(keep_prob)
        self.hidden_dim = int(hidden_dim)
        self.train_config = train_config or TrainConfig()

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        # The per-epoch operator changes, so the loop is written out rather
        # than delegated to train_node_classifier.
        config = self.train_config
        rng = ensure_rng(self._model_seed())
        model = GCN(
            graph.num_features,
            graph.num_classes,
            hidden_dim=self.hidden_dim,
            seed=int(rng.integers(0, 2**31)),
        )
        optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
        features = Tensor(graph.features)
        full_operator = gcn_normalize(graph.adjacency)

        best_val, best_state, stall = -1.0, model.state_dict(), 0
        for _ in range(config.epochs):
            cancellation.checkpoint("dropedge")
            model.train()
            optimizer.zero_grad()
            sampled = sample_edge_subgraph(graph.adjacency, self.keep_prob, rng)
            logits = model.forward(gcn_normalize(sampled), features)
            loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
            loss.backward()
            optimizer.step()

            model.eval()
            with no_grad():
                val_logits = model.forward(full_operator, features)
            val_acc = accuracy(val_logits, graph.labels, graph.val_mask)
            if val_acc > best_val:
                best_val, best_state, stall = val_acc, model.state_dict(), 0
            else:
                stall += 1
                if stall >= config.patience:
                    break

        model.load_state_dict(best_state)
        model.eval()
        test_mask = graph.test_mask if graph.test_mask is not None else ~(
            graph.train_mask | graph.val_mask
        )
        with no_grad():
            test_logits = model.forward(full_operator, features)
        return (
            accuracy(test_logits, graph.labels, test_mask),
            best_val,
            {"keep_prob": self.keep_prob},
        )
