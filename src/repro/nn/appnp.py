"""APPNP (Klicpera et al., 2019) — predict-then-propagate.

Personalized-PageRank propagation decouples feature transformation from
neighborhood aggregation:

    H⁰ = MLP(X);    Hᵏ⁺¹ = (1 − α)·A_n Hᵏ + α·H⁰;    Z = H^K

Relevant to the paper's over-smoothing discussion ([67]–[69], Sec. V-E3):
the teleport term α keeps deep propagation anchored to each node's own
features, which also makes APPNP structurally similar to GNAT's ego view.
Included as an additional victim architecture.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, functional as F, glorot_uniform, zeros
from ..utils.rng import SeedLike, ensure_rng
from .gcn import AdjacencyLike, _propagate
from .module import Module

__all__ = ["APPNP"]


class APPNP(Module):
    """MLP + K-step personalized-PageRank propagation.

    The adjacency passed to :meth:`forward` must be GCN-normalized.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden_dim: int = 16,
        k_steps: int = 10,
        alpha: float = 0.1,
        dropout: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if k_steps < 1:
            raise ValueError(f"k_steps must be >= 1, got {k_steps}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        rng = ensure_rng(seed)
        self.w1 = glorot_uniform(in_dim, hidden_dim, rng)
        self.b1 = zeros(hidden_dim)
        self.w2 = glorot_uniform(hidden_dim, out_dim, rng)
        self.b2 = zeros(out_dim)
        self.k_steps = int(k_steps)
        self.alpha = float(alpha)
        self.dropout = float(dropout)
        self._dropout_rng = ensure_rng(rng.integers(0, 2**63 - 1))

    def forward(self, adjacency: AdjacencyLike, features: Tensor) -> Tensor:
        """Return raw logits ``(n, out_dim)``."""
        h = features if isinstance(features, Tensor) else Tensor(features)
        h = F.dropout(h, self.dropout, self._dropout_rng, training=self.training)
        h = F.relu(h.matmul(self.w1) + self.b1)
        h = F.dropout(h, self.dropout, self._dropout_rng, training=self.training)
        local = h.matmul(self.w2) + self.b2
        propagated = local
        for _ in range(self.k_steps):
            propagated = _propagate(adjacency, propagated) * (1.0 - self.alpha) + (
                local * self.alpha
            )
        return propagated

    def predict(self, adjacency: AdjacencyLike, features: Tensor) -> np.ndarray:
        """Hard label predictions in eval mode."""
        was_training = self.training
        self.eval()
        logits = self.forward(adjacency, features)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=1)
