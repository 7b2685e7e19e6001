"""SimPGCN (Jin et al., 2021) — node-similarity-preserving defense.

Two ideas from the original method:

1. **Adaptive propagation**: every layer mixes the (poisoned) topology
   propagation with a kNN *feature-similarity* graph propagation and a
   per-node self term.  A learnable, feature-conditioned gate
   ``s_v = sigmoid(x_v w + b)`` balances topology vs. feature graph per
   node, and a learnable diagonal coefficient scales the self loop.
2. **Self-supervised similarity regression**: hidden embeddings of sampled
   node pairs must predict the pairwise cosine feature similarity, keeping
   the representation faithful to node similarity even when the topology is
   poisoned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graph import Graph, gcn_normalize
from ..graph.viewcache import array_fingerprint, cached_operator
from ..nn import Module, TrainConfig, train_node_classifier
from ..tensor import Tensor, functional as F, glorot_uniform, zeros
from ..utils.rng import SeedLike, ensure_rng
from .base import Defender

__all__ = ["SimPGCN", "SSLLoss", "knn_graph", "KNN_CHUNK_ROWS"]

# Row-chunk size for the blocked top-k similarity scan.  Chosen above every
# graph this repo trains on (full-scale synthetic Cora is 2708 nodes), so
# the default path computes the similarity in ONE block — literally the
# legacy ``unit @ unit.T`` GEMM, byte-identical by construction.  Blocking
# only kicks in beyond this scale, capping peak memory at O(chunk·n); note
# that BLAS results are shape-dependent at the ULP level, so on tie-heavy
# (e.g. binary bag-of-words) features the blocked top-k can legitimately
# pick a different equal-similarity neighbor than the dense scan would.
KNN_CHUNK_ROWS = 4096


def cosine_similarity_matrix(features: np.ndarray) -> np.ndarray:
    """Dense cosine similarity with zero rows handled."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = features / norms
    return unit @ unit.T


def _knn_graph_blocked(features: np.ndarray, k: int, chunk: int) -> sp.csr_matrix:
    n = features.shape[0]
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = features / norms
    rows = np.repeat(np.arange(n), k)
    cols = np.empty(n * k, dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        similarity = unit[start:stop] @ unit.T
        # Mask self-similarity, exactly like np.fill_diagonal on the full
        # matrix restricted to this row block.
        similarity[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        cols[start * k : stop * k] = np.argpartition(-similarity, k, axis=1)[
            :, :k
        ].ravel()
    data = np.ones(len(rows))
    adjacency = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adjacency = adjacency + adjacency.T
    adjacency.data = np.ones_like(adjacency.data)
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency.tocsr()


def knn_graph(
    features: np.ndarray, k: int, chunk_rows: Optional[int] = None
) -> sp.csr_matrix:
    """Symmetric kNN graph over cosine feature similarity (no self-loops).

    The similarity scan runs top-k per row chunk (``chunk_rows``, default
    :data:`KNN_CHUNK_ROWS`), so peak memory is O(chunk·n) instead of O(n²).
    Results are memoized process-wide by feature-content fingerprint (see
    :mod:`repro.graph.viewcache`): structure-only attacks never touch the
    features, so every cell of a sweep row reuses one build.
    """
    n = features.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    chunk = int(chunk_rows) if chunk_rows is not None else KNN_CHUNK_ROWS
    if chunk < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk}")
    # Any chunk >= n is the same single-block computation: normalize the
    # cache key so they share an entry.
    return cached_operator(
        "knn",
        array_fingerprint(features) + (int(k), min(chunk, n)),
        lambda: _knn_graph_blocked(features, k, chunk),
    )


class _SimPLayer(Module):
    """One adaptive propagation layer of SimPGCN."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = glorot_uniform(in_dim, out_dim, rng)
        self.gate_w = glorot_uniform(in_dim, 1, rng)
        self.gate_b = zeros(1)
        self.self_coeff = glorot_uniform(in_dim, 1, rng)

    def forward(
        self, adj_topo: sp.csr_matrix, adj_feat: sp.csr_matrix, h: Tensor
    ) -> Tensor:
        support = h.matmul(self.weight)
        gate = F.sigmoid(h.matmul(self.gate_w) + self.gate_b)  # (n, 1)
        topo_prop = F.sparse_matmul(adj_topo, support)
        feat_prop = F.sparse_matmul(adj_feat, support)
        self_scale = h.matmul(self.self_coeff)  # (n, 1) learnable self weight
        return gate * topo_prop + (1.0 - gate) * feat_prop + self_scale * support


class SimPGCNModel(Module):
    """Two adaptive layers + similarity-regression head."""

    def __init__(
        self, in_dim: int, hidden_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.layer1 = _SimPLayer(in_dim, hidden_dim, rng)
        self.layer2 = _SimPLayer(hidden_dim, out_dim, rng)
        self.ssl_head = glorot_uniform(hidden_dim, 1, rng)
        # Dict-held hidden cache: keeps the grad-requiring activations out
        # of parameter scanning (which traverses Tensors/lists/tuples, not
        # dicts), so state_dict stays in sync regardless of whether the
        # last forward ran in train or eval mode.
        self._forward_cache: dict = {}
        self._hidden = None

    @property
    def _hidden(self) -> Optional[Tensor]:
        return self._forward_cache.get("hidden")

    @_hidden.setter
    def _hidden(self, value: Optional[Tensor]) -> None:
        self._forward_cache["hidden"] = value

    def forward(self, adjacency: tuple[sp.csr_matrix, sp.csr_matrix], x: Tensor) -> Tensor:
        adj_topo, adj_feat = adjacency
        h = F.relu(self.layer1.forward(adj_topo, adj_feat, x))
        self._hidden = h
        return self.layer2.forward(adj_topo, adj_feat, h)

    def ssl_loss(self, pairs: np.ndarray, targets: np.ndarray) -> Tensor:
        """Regression of pairwise cosine similarity from hidden embeddings."""
        assert self._hidden is not None, "call forward first"
        left = self._hidden[pairs[:, 0]]
        right = self._hidden[pairs[:, 1]]
        predicted = (left - right).matmul(self.ssl_head)  # (m, 1)
        residual = predicted.reshape(-1) - Tensor(targets)
        return (residual * residual).mean()


class SSLLoss:
    """SimPGCN's self-supervised similarity-regression term as a loss class.

    Each call draws a fresh batch of node pairs from the defender's RNG and
    regresses their hidden-embedding difference onto the pairwise cosine
    feature similarity.  As a class (rather than the former inline closure)
    the trainer can recognize it and dispatch the fit to the fused kernel,
    which replays :meth:`draw_pairs` against the same RNG stream; calling it
    runs the identical autodiff composition.
    """

    def __init__(
        self,
        model: SimPGCNModel,
        similarity: np.ndarray,
        weight: float,
        num_pairs: int,
        num_nodes: int,
        rng: np.random.Generator,
    ) -> None:
        self.model = model
        self.similarity = similarity
        self.weight = float(weight)
        self.num_pairs = int(num_pairs)
        self.num_nodes = int(num_nodes)
        self.rng = rng

    def draw_pairs(self) -> np.ndarray:
        """One epoch's pair batch; advances the shared RNG stream."""
        return self.rng.integers(0, self.num_nodes, size=(self.num_pairs, 2))

    def pair_targets(self, pairs: np.ndarray) -> np.ndarray:
        return self.similarity[pairs[:, 0], pairs[:, 1]]

    def __call__(self, _logits: Tensor) -> Tensor:
        pairs = self.draw_pairs()
        return self.weight * self.model.ssl_loss(pairs, self.pair_targets(pairs))


class SimPGCN(Defender):
    """Similarity-preserving GCN defense.

    Parameters
    ----------
    knn_k:
        Neighbors of the feature-similarity graph.
    ssl_weight:
        Weight of the self-supervised similarity-regression loss.
    ssl_pairs:
        Sampled node pairs per epoch for the SSL term.
    """

    name = "SimPGCN"

    def __init__(
        self,
        knn_k: int = 20,
        ssl_weight: float = 0.1,
        ssl_pairs: int = 400,
        hidden_dim: int = 16,
        train_config: Optional[TrainConfig] = None,
        engine: str = "auto",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self.knn_k = int(knn_k)
        self.ssl_weight = float(ssl_weight)
        self.ssl_pairs = int(ssl_pairs)
        self.hidden_dim = int(hidden_dim)
        self.train_config = train_config or TrainConfig()
        self.engine = engine

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        rng = ensure_rng(self._model_seed())
        k = min(self.knn_k, graph.num_nodes - 1)
        adj_feat = gcn_normalize(knn_graph(graph.features, k))
        adj_topo = gcn_normalize(graph.adjacency)
        similarity = cosine_similarity_matrix(graph.features)

        model = SimPGCNModel(graph.num_features, self.hidden_dim, graph.num_classes, rng)
        ssl_term = SSLLoss(
            model, similarity, self.ssl_weight, self.ssl_pairs, graph.num_nodes, rng
        )

        result = train_node_classifier(
            model,
            graph,
            self.train_config,
            adjacency=(adj_topo, adj_feat),  # type: ignore[arg-type]
            loss_fn=ssl_term,
            engine=self.engine,
        )
        return result.test_accuracy, result.best_val_accuracy, {"knn_k": k}
