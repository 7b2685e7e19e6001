"""Graph Attention Network (Veličković et al., 2018).

Dense masked-attention implementation: attention logits are computed for
every node pair, entries outside the (self-looped) adjacency support are
masked to −∞ before the row softmax.  Dense attention is exact and fast at
the scales this reproduction runs at, and it accepts either sparse or dense
adjacencies (only the support pattern is read).

Constant features may come as a :class:`~repro.tensor.CSRConstant` (the
trainer's form): the input dropout then still draws the full (n, d)
uniform array from ``_dropout_rng``, so the hidden dropout's draws are the
dense form's, but keeps and scales only the stored entries, and each
head's ``X @ W`` runs over the CSR.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from ..tensor import Tensor, functional as F, glorot_uniform, no_grad
from ..utils.rng import SeedLike, ensure_rng
from .gcn import FeaturesLike, as_input
from .module import Module

__all__ = ["GraphAttentionLayer", "GAT"]

AdjacencyLike = Union[sp.spmatrix, Tensor, np.ndarray]

_NEG_INF = -1e9


def _support_mask(adjacency: AdjacencyLike) -> np.ndarray:
    """Boolean (n, n) mask of *allowed* attention pairs: edges + self-loops."""
    if sp.issparse(adjacency):
        dense = adjacency.toarray()
    elif isinstance(adjacency, Tensor):
        dense = adjacency.data
    else:
        dense = np.asarray(adjacency)
    mask = dense > 0
    np.fill_diagonal(mask, True)
    return mask


class GraphAttentionLayer(Module):
    """Single-head graph attention: ``h'_i = Σ_j α_ij W h_j``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, slope: float = 0.2) -> None:
        super().__init__()
        self.weight = glorot_uniform(in_dim, out_dim, rng)
        self.attn_src = glorot_uniform(out_dim, 1, rng)
        self.attn_dst = glorot_uniform(out_dim, 1, rng)
        self.slope = float(slope)

    def forward(self, mask: np.ndarray, x: FeaturesLike) -> Tensor:
        h = x.matmul(self.weight)  # (n, out_dim)
        src_scores = h.matmul(self.attn_src)  # (n, 1)
        dst_scores = h.matmul(self.attn_dst)  # (n, 1)
        logits = F.leaky_relu(src_scores + dst_scores.T, self.slope)  # (n, n)
        logits = F.masked_fill(logits, ~mask, _NEG_INF)
        attention = F.softmax(logits, axis=1)
        return attention.matmul(h)


class GAT(Module):
    """Two-layer multi-head GAT for node classification.

    First layer concatenates ``num_heads`` heads with ELU; output layer is a
    single head producing class logits — the architecture of the original
    paper and the configuration used as a "raw GNN" baseline in Tables IV–VI.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden_dim: int = 8,
        num_heads: int = 4,
        dropout: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = ensure_rng(seed)
        self.heads = [GraphAttentionLayer(in_dim, hidden_dim, rng) for _ in range(num_heads)]
        self.out_layer = GraphAttentionLayer(hidden_dim * num_heads, out_dim, rng)
        self.dropout = float(dropout)
        self._dropout_rng = ensure_rng(rng.integers(0, 2**63 - 1))

    def forward(self, adjacency: AdjacencyLike, features: FeaturesLike) -> Tensor:
        """Return raw logits ``(n, out_dim)``."""
        mask = _support_mask(adjacency)
        h = F.dropout(
            as_input(features), self.dropout, self._dropout_rng, training=self.training
        )
        outputs = [head.forward(mask, h) for head in self.heads]
        merged = outputs[0]
        for other in outputs[1:]:
            merged = F.concat_rows(merged, other)
        merged = F.elu(merged)
        merged = F.dropout(merged, self.dropout, self._dropout_rng, training=self.training)
        return self.out_layer.forward(mask, merged)

    def predict(self, adjacency: AdjacencyLike, features: FeaturesLike) -> np.ndarray:
        """Hard label predictions in eval mode (no autodiff graph)."""
        was_training = self.training
        self.eval()
        with no_grad():
            logits = self.forward(adjacency, features)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=1)
