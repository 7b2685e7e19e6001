"""GNAT: the paper's GNN defender based on graph augmeNtATions (Sec. IV-B).

Insight (Sec. IV-A): effective attackers mostly *add edges between nodes
with different labels*, blurring each node's context.  GNAT counteracts by
training one shared GCN over three augmented views whose extra edges mostly
connect nodes of the *same* label (Theorem 1), making contexts
distinguishable again:

* **topology graph** ``Â^t``: connect every node to its ``k_t``-hop
  neighborhood (``Â^{k_t}[v][u] ≠ 0``) — same-label nodes share neighbors;
* **feature graph** ``Â^f``: connect every node to its top-``k_f``
  cosine-most-similar nodes — features are rarely attacked (Fig 5a), so
  they remain trustworthy;
* **ego graph** ``Â^e = Â + k_e·I``: emphasize each node's own features.

The three views are fed through the *same* GCN and the logits are averaged:
``Z = (Z^t + Z^f + Z^e)/3`` (training on merged-edge unions instead is the
Table IX "merged" ablation, reproducibly worse).

GNAT is black-box compatible: it needs no attack knowledge, no extra labels,
and no victim parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..defenses.base import Defender, validate_pruned_graph
from ..defenses.simpgcn import knn_graph
from ..errors import ConfigError
from ..graph import Graph, add_self_loops
from ..graph.viewcache import cached_operator, csr_fingerprint
from ..nn import GCN, MultiViewForward, TrainConfig, train_node_classifier
from ..utils.rng import SeedLike

__all__ = ["GNAT", "topology_graph", "feature_graph", "ego_graph"]


def _topology_reach(base: sp.csr_matrix, k_hops: int) -> sp.csr_matrix:
    reach = base.copy()
    power = base.copy()
    for _ in range(k_hops - 1):
        power = (power @ base).tocsr()
        reach = reach + power
    reach = reach.tocsr()
    reach.data = np.ones_like(reach.data)
    reach.setdiag(0.0)
    reach.eliminate_zeros()
    return reach


def topology_graph(adjacency: sp.spmatrix, k_hops: int) -> sp.csr_matrix:
    """``Â^t``: binary reachability within ``k_hops`` (no self-loops).

    ``k_hops <= 1`` returns the original adjacency unchanged.  The k-hop
    reachability is memoized process-wide by adjacency content fingerprint
    (see :mod:`repro.graph.viewcache`): sweep cells sharing a poisoned
    graph build the view once.
    """
    base = adjacency.tocsr().astype(np.float64)
    if k_hops <= 1:
        return base
    return cached_operator(
        "topology",
        csr_fingerprint(base) + (int(k_hops),),
        lambda: _topology_reach(base, k_hops),
    )


def feature_graph(features: np.ndarray, k_similar: int) -> sp.csr_matrix:
    """``Â^f``: symmetric top-``k_similar`` cosine-similarity graph."""
    if k_similar < 1:
        raise ConfigError(f"k_similar must be >= 1, got {k_similar}")
    return knn_graph(features, k_similar)


def ego_graph(adjacency: sp.spmatrix, k_ego: float) -> sp.csr_matrix:
    """``Â^e = Â + k_e·I``: self-loop-weighted adjacency."""
    if k_ego < 0:
        raise ConfigError(f"k_ego must be non-negative, got {k_ego}")
    return add_self_loops(adjacency.tocsr().astype(np.float64), weight=float(k_ego))


def _normalize_weighted(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """GCN normalization that tolerates weighted entries (ego graph)."""
    matrix = add_self_loops(adjacency.tocsr())
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    scaling = sp.diags(inv_sqrt)
    return (scaling @ matrix @ scaling).tocsr()


def _features_degenerate(features: np.ndarray) -> bool:
    n, d = features.shape
    return n == d and np.allclose(features.sum(axis=1), 1.0) and np.allclose(
        features.sum(axis=0), 1.0
    )


class GNAT(Defender):
    """Graph-augmentation defender (the paper's contribution #2).

    Parameters
    ----------
    views:
        Which augmented graphs to use, as a string over {'t', 'f', 'e'}
        (default "tfe" = all three).  Single letters give the Table IX
        single-view variants.
    merge_views:
        If True, union the selected views' edges into ONE graph and train on
        it (Table IX's "merged" variants, e.g. GNAT-tfe) instead of
        averaging per-view logits (the multi-view default, e.g. GNAT-t+f+e).
    k_t / k_f / k_e:
        Augmentation strengths (Fig 9 sweeps; paper default {2, 15, 10}).
    prune_threshold:
        Optional *edge-removal* step (the paper's stated future work:
        "leveraging the knowledge of adding and removing").  Before
        building the views, edges whose endpoints' cosine feature
        similarity falls below this threshold are removed from the base
        adjacency — attacks overwhelmingly add *dissimilar* pairs (Fig 2),
        so removal targets exactly the adversarial additions the
        augmentations otherwise only have to out-vote.  ``None`` (default)
        reproduces the published GNAT.  Not applicable to identity
        features.
    engine:
        Training engine passed through to
        :func:`~repro.nn.train_node_classifier` (``"auto"`` by default;
        see ``docs/fast_training.md``).
    """

    name = "GNAT"

    def __init__(
        self,
        views: str = "tfe",
        merge_views: bool = False,
        k_t: int = 2,
        k_f: int = 15,
        k_e: float = 10.0,
        prune_threshold: Optional[float] = None,
        hidden_dim: int = 16,
        dropout: float = 0.5,
        train_config: Optional[TrainConfig] = None,
        engine: str = "auto",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        views = views.lower()
        if not views or any(v not in "tfe" for v in views) or len(set(views)) != len(views):
            raise ConfigError(f"views must be a subset of 'tfe', got {views!r}")
        if prune_threshold is not None and not 0.0 <= prune_threshold <= 1.0:
            raise ConfigError(
                f"prune_threshold must lie in [0, 1], got {prune_threshold}"
            )
        self.views = views
        self.merge_views = bool(merge_views)
        self.k_t = int(k_t)
        self.k_f = int(k_f)
        self.k_e = float(k_e)
        self.prune_threshold = prune_threshold
        self.hidden_dim = int(hidden_dim)
        self.dropout = float(dropout)
        self.train_config = train_config or TrainConfig()
        self.engine = engine

    # ------------------------------------------------------------------
    def prune_graph(self, graph: Graph) -> Graph:
        """Remove low-feature-similarity edges (the future-work extension)."""
        if self.prune_threshold is None:
            return graph
        if _features_degenerate(graph.features):
            raise ConfigError(
                "edge pruning needs informative features; identity features "
                "carry no similarity signal"
            )
        # One sparse pass over the undirected edge list: endpoint dot
        # products via CSR row gathers — bag-of-words features are ~1%
        # dense, so this touches kilobytes where a dense gather would
        # stream the whole feature matrix per edge set — normalized per
        # edge with the per-edge loop's exact formula, then a sparse
        # mask-out of both directions of every dropped edge (no per-edge
        # Python loop).
        features = graph.features
        mask = features != 0
        counts = mask.sum(axis=1)
        indptr = np.zeros(features.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        sparse_feats = sp.csr_matrix(
            (features[mask], np.nonzero(mask)[1], indptr), shape=features.shape
        )
        squares = np.asarray(
            sparse_feats.multiply(sparse_feats).sum(axis=1)
        ).ravel()
        norms = np.sqrt(squares)
        norms[norms == 0] = 1.0
        edges = graph.edge_list()
        heads, tails = edges[:, 0], edges[:, 1]
        products = np.asarray(
            sparse_feats[heads].multiply(sparse_feats[tails]).sum(axis=1)
        ).ravel()
        cosines = products / (norms[heads] * norms[tails])
        drop = cosines < self.prune_threshold
        removed = int(np.count_nonzero(drop))
        adjacency = graph.adjacency.tocsr()
        if removed:
            drop_heads, drop_tails = heads[drop], tails[drop]
            drop_mask = sp.coo_matrix(
                (
                    np.ones(2 * removed),
                    (
                        np.concatenate([drop_heads, drop_tails]),
                        np.concatenate([drop_tails, drop_heads]),
                    ),
                ),
                shape=adjacency.shape,
            ).tocsr()
            adjacency = (adjacency - adjacency.multiply(drop_mask)).tocsr()
            adjacency.eliminate_zeros()
        else:
            adjacency = adjacency.copy()
        pruned = graph.with_adjacency(adjacency)
        pruned = validate_pruned_graph(pruned, self.name)
        self._last_pruned_edges = removed
        return pruned

    # ------------------------------------------------------------------
    def build_views(self, graph: Graph) -> list[sp.csr_matrix]:
        """Raw (unnormalized) augmented adjacencies for the selected views."""
        built: list[sp.csr_matrix] = []
        for view in self.views:
            if view == "t":
                built.append(topology_graph(graph.adjacency, self.k_t))
            elif view == "f":
                if _features_degenerate(graph.features):
                    raise ConfigError(
                        "the feature view is not applicable to identity features "
                        "(Polblogs); use views without 'f' (Table VI footnote)"
                    )
                k = min(self.k_f, graph.num_nodes - 1)
                built.append(feature_graph(graph.features, max(1, k)))
            else:
                built.append(ego_graph(graph.adjacency, self.k_e))
        return built

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        self._last_pruned_edges = 0
        graph = self.prune_graph(graph)
        views = self.build_views(graph)
        if self.merge_views:
            merged = views[0].copy()
            for other in views[1:]:
                merged = merged + other
            merged = merged.tocsr()
            # Union semantics for t/f edges; ego self-loop weights survive on
            # the diagonal (capped so a double-counted loop is harmless).
            diagonal = merged.diagonal()
            merged.data = np.ones_like(merged.data)
            merged = merged.tolil()
            merged.setdiag(np.minimum(diagonal, max(self.k_e, 1.0)))
            operators = [_normalize_weighted(merged.tocsr())]
        else:
            operators = [_normalize_weighted(view) for view in views]

        model = GCN(
            graph.num_features,
            graph.num_classes,
            hidden_dim=self.hidden_dim,
            dropout=self.dropout,
            seed=self._model_seed(),
        )

        # MultiViewForward averages the per-view label probabilities
        # Z = (Z^t + Z^f + Z^e)/3 (Sec. IV-B) and, being a recognizable
        # callable rather than a closure, lets the trainer dispatch to the
        # fused multi-view kernel (engine="auto") with a bit-identical
        # weight trajectory.
        result = train_node_classifier(
            model,
            graph,
            self.train_config,
            adjacency=operators[0],
            forward=MultiViewForward(model, operators),
            engine=self.engine,
        )
        return (
            result.test_accuracy,
            result.best_val_accuracy,
            {
                "views": self.views,
                "merged": self.merge_views,
                "pruned_edges": self._last_pruned_edges,
            },
        )

    @property
    def variant_name(self) -> str:
        """Table IX naming: GNAT-t+f+e (multi-view) or GNAT-tfe (merged)."""
        joined = self.views if self.merge_views else "+".join(self.views)
        return f"GNAT-{joined}"
