"""MinMax topology attack (Xu et al., 2019) — white-box baseline.

The min-max variant of the PGD attack: instead of freezing the victim's
parameters, it alternates

* one projected-gradient *ascent* step on the edge-perturbation variable S
  (maximizing the training loss), and
* several Adam *descent* steps on the GNN parameters θ (minimizing it),

so the attack anticipates retraining.  Discretization is the same random
sampling as PGD.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..graph import Graph, apply_perturbations, gcn_normalize_dense
from ..tensor import Adam, Tensor, functional as F
from ..utils import cancellation
from ..utils.rng import SeedLike
from .base import AttackBudget, AttackResult
from .pgd import PGDAttack, project_budget_box

__all__ = ["MinMaxAttack"]


class MinMaxAttack(PGDAttack):
    """Alternating min-max version of the PGD topology attack."""

    name = "MinMax"

    def __init__(
        self,
        steps: int = 80,
        lr: float = 0.5,
        samples: int = 20,
        inner_steps: int = 3,
        inner_lr: float = 0.01,
        hidden_dim: int = 16,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(steps=steps, lr=lr, samples=samples, hidden_dim=hidden_dim, seed=seed)
        if inner_steps < 1:
            raise ConfigError(f"inner_steps must be >= 1, got {inner_steps}")
        self.inner_steps = int(inner_steps)
        self.inner_lr = float(inner_lr)

    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        if graph.labels is None or graph.train_mask is None:
            raise ConfigError("MinMax is white-box: it requires labels and a train mask")
        model = self._train_victim(graph)
        optimizer = Adam(model.parameters(), lr=self.inner_lr)

        n = graph.num_nodes
        triu = np.triu(np.ones((n, n), dtype=bool), k=1)
        adj = Tensor(graph.dense_adjacency())
        direction = Tensor(1.0 - 2.0 * graph.dense_adjacency())
        features = Tensor(graph.features)
        s = np.zeros((n, n))

        for step in range(self.steps):
            cancellation.checkpoint("minmax")
            # Max step on S (model frozen).
            model.eval()
            s_tensor = Tensor(s, requires_grad=True)
            perturbed = adj + direction * s_tensor
            logits = model.forward(gcn_normalize_dense(perturbed), features)
            loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
            loss.backward()
            grad = s_tensor.grad if s_tensor.grad is not None else np.zeros_like(s)
            grad = grad + grad.T
            step_size = self.lr / np.sqrt(step + 1.0)
            s_vec = project_budget_box(s[triu] + step_size * grad[triu], budget.total)
            s = np.zeros((n, n))
            s[triu] = s_vec
            s = s + s.T

            # Min steps on θ (S frozen) — the model adapts to the attack.
            model.train()
            frozen = Tensor(s)
            for _ in range(self.inner_steps):
                optimizer.zero_grad()
                perturbed = adj + direction * frozen
                logits = model.forward(gcn_normalize_dense(perturbed), features)
                inner_loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
                inner_loss.backward()
                optimizer.step()

        model.eval()
        labels = self._attack_labels(model, graph)
        flips = self._discretize(model, graph, s, budget, labels)
        result = AttackResult(original=graph, poisoned=graph, budget=budget)
        result.edge_flips = flips
        result.poisoned = apply_perturbations(graph, flips)
        return result
