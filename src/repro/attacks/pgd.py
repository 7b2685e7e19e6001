"""PGD topology attack (Xu et al., 2019) — white-box baseline.

Trains the target GCN, freezes its parameters, then runs projected gradient
ascent on a continuous edge-perturbation variable ``S ∈ [0,1]^{n×n}``:

    Â(S) = A + (1 − 2A) ⊙ S,

maximizing the cross-entropy of the frozen model on the labelled nodes.
After the ascent, the continuous solution is discretized by random sampling
(keep the best Bernoulli(S) draw within budget), as in the original paper.

White-box access: graph, labels, and trained GNN parameters (Table I row 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..graph import EdgeFlip, Graph, apply_perturbations, gcn_normalize_dense
from ..nn import GCN, TrainConfig, train_node_classifier
from ..tensor import Tensor, functional as F
from ..utils import cancellation
from ..utils.rng import SeedLike
from .base import AttackBudget, Attacker, AttackResult

__all__ = ["PGDAttack", "project_budget_box"]


def project_budget_box(values: np.ndarray, budget: float) -> np.ndarray:
    """Project onto ``{s : 0 <= s <= 1, sum(s) <= budget}`` (bisection on μ)."""
    clipped = np.clip(values, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    low, high = values.min() - 1.0, values.max()
    for _ in range(60):
        mu = 0.5 * (low + high)
        total = np.clip(values - mu, 0.0, 1.0).sum()
        if total > budget:
            low = mu
        else:
            high = mu
    return np.clip(values - high, 0.0, 1.0)


class PGDAttack(Attacker):
    """Projected-gradient-descent topology attack with a frozen victim GCN."""

    name = "PGD"
    requires_labels = True
    requires_model = True

    def __init__(
        self,
        steps: int = 80,
        lr: float = 0.5,
        samples: int = 20,
        hidden_dim: int = 16,
        train_config: Optional[TrainConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if steps < 1 or samples < 1:
            raise ConfigError("steps and samples must be >= 1")
        self.steps = int(steps)
        self.lr = float(lr)
        self.samples = int(samples)
        self.hidden_dim = int(hidden_dim)
        self.train_config = train_config or TrainConfig(epochs=150)

    # ------------------------------------------------------------------
    def _train_victim(self, graph: Graph) -> GCN:
        model = GCN(
            graph.num_features,
            graph.num_classes,
            hidden_dim=self.hidden_dim,
            dropout=0.0,
            seed=self._rng.integers(0, 2**31),
        )
        train_node_classifier(model, graph, self.train_config)
        model.eval()
        return model

    def _attack_labels(self, model: GCN, graph: Graph) -> np.ndarray:
        """Labels the ascent maximizes CE against.

        Following the untargeted PGD formulation, the attack uses the frozen
        model's *own predictions* as labels over all nodes (known labels on
        the training set), so no test labels are consulted.
        """
        from ..graph import gcn_normalize

        predicted = model.predict(gcn_normalize(graph.adjacency), Tensor(graph.features))
        labels = predicted.copy()
        if graph.labels is not None and graph.train_mask is not None:
            labels[graph.train_mask] = graph.labels[graph.train_mask]
        return labels

    def _attack_loss(
        self, model: GCN, s_matrix: Tensor, graph: Graph, labels: np.ndarray
    ) -> Tensor:
        adj = Tensor(graph.dense_adjacency())
        direction = Tensor(1.0 - 2.0 * graph.dense_adjacency())
        perturbed = adj + direction * s_matrix
        normalized = gcn_normalize_dense(perturbed)
        logits = model.forward(normalized, Tensor(graph.features))
        return F.cross_entropy(logits, labels)

    def _ascend(
        self, model: GCN, graph: Graph, budget: AttackBudget, labels: np.ndarray
    ) -> np.ndarray:
        """Run the projected gradient ascent, returning the continuous S."""
        n = graph.num_nodes
        triu = np.triu(np.ones((n, n), dtype=bool), k=1)
        s = np.zeros((n, n))
        for step in range(self.steps):
            cancellation.checkpoint("pgd")
            s_tensor = Tensor(s, requires_grad=True)
            loss = self._attack_loss(model, s_tensor, graph, labels)
            loss.backward()
            grad = s_tensor.grad if s_tensor.grad is not None else np.zeros_like(s)
            grad = grad + grad.T  # keep S symmetric
            step_size = self.lr / np.sqrt(step + 1.0)
            s_vec = s[triu] + step_size * grad[triu]
            # Budget counts undirected edges, so project the triu vector.
            s_vec = project_budget_box(s_vec, budget.total)
            s = np.zeros((n, n))
            s[triu] = s_vec
            s = s + s.T
        return s

    def _discretize(
        self,
        model: GCN,
        graph: Graph,
        s: np.ndarray,
        budget: AttackBudget,
        labels: np.ndarray,
    ) -> list[EdgeFlip]:
        """Best Bernoulli(S) sample within budget, by frozen-model loss."""
        n = graph.num_nodes
        triu_idx = np.triu_indices(n, k=1)
        probabilities = s[triu_idx]
        best_flips: list[EdgeFlip] = []
        best_loss = -np.inf
        for _ in range(self.samples):
            draw = self._rng.random(len(probabilities)) < probabilities
            if draw.sum() > budget.total:
                chosen = np.flatnonzero(draw)
                keep = self._rng.choice(chosen, size=int(budget.total), replace=False)
                draw = np.zeros_like(draw)
                draw[keep] = True
            flips = [
                EdgeFlip(int(u), int(v))
                for u, v in zip(triu_idx[0][draw], triu_idx[1][draw])
            ]
            if not flips:
                continue
            candidate = apply_perturbations(graph, flips)
            from ..graph import gcn_normalize

            logits = model.forward(gcn_normalize(candidate.adjacency), Tensor(candidate.features))
            loss = float(F.cross_entropy(logits, labels).item())
            if loss > best_loss:
                best_loss, best_flips = loss, flips
        if not best_flips:
            # Deterministic fallback: top-δ entries of S.
            order = np.argsort(-probabilities)[: int(budget.total)]
            best_flips = [
                EdgeFlip(int(triu_idx[0][i]), int(triu_idx[1][i]))
                for i in order
                if probabilities[i] > 0
            ]
        return best_flips

    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        if graph.labels is None or graph.train_mask is None:
            raise ConfigError("PGD is white-box: it requires labels and a train mask")
        model = self._train_victim(graph)
        labels = self._attack_labels(model, graph)
        s = self._ascend(model, graph, budget, labels)
        flips = self._discretize(model, graph, s, budget, labels)
        result = AttackResult(original=graph, poisoned=graph, budget=budget)
        result.edge_flips = flips
        result.poisoned = apply_perturbations(graph, flips)
        return result
