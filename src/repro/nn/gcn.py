"""Graph Convolutional Network (Kipf & Welling, 2017) — the paper's Eq. 1.

Forward: ``Z = softmax(A_n · σ(A_n X W⁰) · W¹)`` where ``A_n`` is the
symmetric-normalized adjacency with self-loops.  The adjacency may be

* a SciPy sparse matrix (constant, fast training path), or
* a dense :class:`~repro.tensor.Tensor` (differentiable path, used by
  gradient-based attackers that backpropagate into the topology).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..tensor import Tensor, functional as F, glorot_uniform, zeros
from ..utils.rng import SeedLike, ensure_rng
from .module import Module

AdjacencyLike = Union[sp.spmatrix, Tensor, np.ndarray]

__all__ = ["GraphConvolution", "GCN"]


def _propagate(adjacency: AdjacencyLike, x: Tensor) -> Tensor:
    """``adjacency @ x`` for sparse-constant or dense-tensor adjacency."""
    if sp.issparse(adjacency):
        return F.sparse_matmul(adjacency, x)
    if isinstance(adjacency, np.ndarray):
        adjacency = Tensor(adjacency)
    return adjacency.matmul(x)


class GraphConvolution(Module):
    """One GCN layer: ``A_n (X W) + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.weight = glorot_uniform(in_dim, out_dim, rng)
        self.bias = zeros(out_dim) if bias else None

    def forward(self, adjacency: AdjacencyLike, x: Tensor) -> Tensor:
        return self.propagate(adjacency, x.matmul(self.weight))

    def propagate(self, adjacency: AdjacencyLike, support: Tensor) -> Tensor:
        """The layer after its ``X W`` product: ``A_n · support + b``."""
        out = _propagate(adjacency, support)
        if self.bias is not None:
            out = out + self.bias
        return out


class GCN(Module):
    """Two-layer (or deeper) GCN for node classification.

    Parameters
    ----------
    in_dim / hidden_dim / out_dim:
        Feature, hidden, and class dimensionalities.
    num_layers:
        Total layer count ``L`` (Fig 7b evaluates L ∈ {1..4}).
    dropout:
        Dropout rate applied to inputs of every layer but the first.
    seed:
        Weight-initialization seed.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden_dim: int = 16,
        num_layers: int = 2,
        dropout: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        rng = ensure_rng(seed)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.layers = [
            GraphConvolution(dims[i], dims[i + 1], rng) for i in range(num_layers)
        ]
        self.dropout = float(dropout)
        self._dropout_rng = ensure_rng(rng.integers(0, 2**63 - 1))

    def forward(self, adjacency: AdjacencyLike, features: Tensor) -> Tensor:
        """Return raw logits ``(n, out_dim)``."""
        h = features if isinstance(features, Tensor) else Tensor(features)
        return self.forward_from_support(adjacency, h.matmul(self.layers[0].weight))

    def forward_from_support(self, adjacency: AdjacencyLike, support: Tensor) -> Tensor:
        """Logits from layer 0's support ``X @ W⁰``, which several
        propagation operators may share (GNAT's views)."""
        h = self.layers[0].propagate(adjacency, support)
        for layer in self.layers[1:]:
            h = F.relu(h)
            h = F.dropout(h, self.dropout, self._dropout_rng, training=self.training)
            h = layer.forward(adjacency, h)
        return h

    def predict(self, adjacency: AdjacencyLike, features: Tensor) -> np.ndarray:
        """Hard label predictions (argmax over logits) in eval mode."""
        was_training = self.training
        self.eval()
        logits = self.forward(adjacency, features)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=1)
