"""Metattack (Zügner & Günnemann, 2019) — gray-box meta-gradient attacker.

Reimplements the Meta-Self variant the paper uses as its strongest baseline:

1. train a surrogate once on the clean graph and *self-label* the unlabelled
   nodes with its predictions;
2. for each perturbation step, differentiate the attacker loss (cross-entropy
   on the self-labelled nodes) **through the inner training run** of a
   linearized two-layer GCN surrogate ``Z = A_n² X W``, whose gradient-descent
   updates are expressed in closed form as tensor operations — this is what
   makes the unrolled chain differentiable w.r.t. the adjacency and yields
   true meta-gradients;
3. greedily flip the entry with the largest meta-gradient score
   ``∇_Â L_atk ⊙ (−2Â + 1)``.

Gray-box access: graph + labels, no victim parameters (Table I row 4).  The
per-flip inner unrolling is what makes Metattack an order of magnitude
slower than PEEGA in Table VII.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..graph import Graph, gcn_normalize_dense
from ..surrogate import linear_propagation
from ..tensor import Tensor, functional as F
from ..utils.rng import SeedLike
from .base import AttackBudget, Attacker, AttackResult
from .greedy import GreedyRun

__all__ = ["Metattack"]


class Metattack(Attacker):
    """Meta-gradient topology (and optionally feature) attacker.

    Parameters
    ----------
    inner_steps:
        Unrolled gradient-descent steps of the inner surrogate training.
        The default (10) is calibrated so Metattack's relative strength on
        the synthetic datasets matches its strength on the real ones
        (Tables IV–VI); the original uses ~100 epochs, which on the more
        fragile synthetic graphs is disproportionately destructive.
    inner_lr / momentum:
        Inner optimizer settings (vanilla GD with momentum, as in the
        original implementation).
    self_training:
        Use the Meta-Self attacker loss (cross-entropy on self-labelled
        unlabelled nodes); otherwise Meta-Train (labelled nodes only).
    attack_features:
        Also score feature-bit flips with meta-gradients (the original work
        and this paper's experiments use topology only; kept as an option).
    """

    name = "Metattack"
    requires_labels = True

    def __init__(
        self,
        inner_steps: int = 10,
        inner_lr: float = 0.1,
        momentum: float = 0.9,
        self_training: bool = True,
        attack_features: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if inner_steps < 1:
            raise ConfigError(f"inner_steps must be >= 1, got {inner_steps}")
        self.inner_steps = int(inner_steps)
        self.inner_lr = float(inner_lr)
        self.momentum = float(momentum)
        self.self_training = bool(self_training)
        self.attack_features = bool(attack_features)

    # ------------------------------------------------------------------
    def _pseudo_labels(self, graph: Graph) -> np.ndarray:
        """Self-training labels: surrogate predictions on unlabelled nodes."""
        assert graph.labels is not None and graph.train_mask is not None
        propagated = linear_propagation(graph.adjacency, graph.features, layers=2)
        weights = _train_linear_classifier(
            np.asarray(propagated), graph.labels, graph.train_mask,
            steps=200, lr=0.1, rng=self._rng,
        )
        predictions = np.argmax(np.asarray(propagated) @ weights, axis=1)
        labels = graph.labels.copy()
        labels[~graph.train_mask] = predictions[~graph.train_mask]
        return labels

    def _meta_gradient(
        self,
        adj_hat: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        attack_mask: np.ndarray,
        w_init: np.ndarray,
    ) -> tuple[np.ndarray, Optional[np.ndarray], float]:
        """∇_Â (and optionally ∇_X̂) of the attack loss after inner training."""
        adj_t = Tensor(adj_hat, requires_grad=True)
        feat_t = Tensor(features, requires_grad=self.attack_features)
        normalized = gcn_normalize_dense(adj_t)
        propagated = normalized.matmul(normalized.matmul(feat_t))  # A_n² X

        n_classes = int(labels.max()) + 1
        onehot = np.eye(n_classes)[labels]
        train_rows = np.flatnonzero(train_mask)
        y_train = Tensor(onehot[train_rows])
        scale = 1.0 / float(len(train_rows))

        # Unrolled inner training of Z = (A_n² X) W, vanilla GD + momentum.
        weights = Tensor(w_init)
        velocity: Optional[Tensor] = None
        m_train = propagated[train_rows]
        for _ in range(self.inner_steps):
            logits = m_train.matmul(weights)
            probs = F.softmax(logits, axis=1)
            grad_w = m_train.T.matmul(probs - y_train) * scale
            velocity = grad_w if velocity is None else velocity * self.momentum + grad_w
            weights = weights - self.inner_lr * velocity

        # Attacker loss on the meta-trained weights.
        logits_all = propagated.matmul(weights)
        attack_loss = F.cross_entropy(logits_all, labels, attack_mask)
        attack_loss.backward()

        adj_grad = adj_t.grad if adj_t.grad is not None else np.zeros_like(adj_hat)
        feat_grad = feat_t.grad if self.attack_features else None
        return adj_grad, feat_grad, float(attack_loss.item())

    # ------------------------------------------------------------------
    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        if graph.labels is None or graph.train_mask is None:
            raise ConfigError("Metattack is gray-box: it requires labels and a train mask")

        n, d = graph.num_nodes, graph.num_features
        run = GreedyRun(
            self,
            graph,
            budget,
            "metattack",
            min_cost=1.0 if not self.attack_features else min(1.0, budget.feature_cost),
            x=graph.features.copy(),
            dense=True,
        )
        # Drawn from the seed before the loop, so a resumed run redraws the
        # same pseudo-labels and inner initialization.
        labels = self._pseudo_labels(graph) if self.self_training else graph.labels
        n_classes = int(labels.max()) + 1
        limit = np.sqrt(6.0 / (d + n_classes))
        w_init = self._rng.uniform(-limit, limit, size=(d, n_classes))
        attack_mask = ~graph.train_mask if self.self_training else graph.train_mask
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)

        def step(run: GreedyRun):
            adj_grad, feat_grad, loss_value = self._meta_gradient(
                run.adj, run.x, labels, graph.train_mask, attack_mask, w_init
            )
            grad_sym = adj_grad + adj_grad.T
            score_t = grad_sym * (-2.0 * run.adj + 1.0)
            score_t = np.where(upper, score_t, -np.inf)
            score_t[run.flipped("edge")] = -np.inf
            best_edge = np.unravel_index(int(np.argmax(score_t)), score_t.shape)
            best_edge_score = score_t[best_edge]

            if feat_grad is not None:
                score_f = feat_grad * (-2.0 * run.x + 1.0) / budget.feature_cost
                score_f[run.flipped("feature")] = -np.inf
                best_feat = np.unravel_index(int(np.argmax(score_f)), score_f.shape)
                if score_f[best_feat] > best_edge_score and run.fits(
                    budget.feature_cost
                ):
                    return [("feature", *best_feat, budget.feature_cost)], loss_value
            if not np.isfinite(best_edge_score):
                return [], loss_value
            return [("edge", *best_edge, 1.0)], loss_value

        return run.run(step)


def _train_linear_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    steps: int,
    lr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Plain NumPy softmax regression on masked rows (surrogate pretraining)."""
    n_classes = int(labels.max()) + 1
    d = features.shape[1]
    limit = np.sqrt(6.0 / (d + n_classes))
    weights = rng.uniform(-limit, limit, size=(d, n_classes))
    rows = np.flatnonzero(mask)
    x, y = features[rows], np.eye(n_classes)[labels[rows]]
    velocity = np.zeros_like(weights)
    for _ in range(steps):
        logits = x @ weights
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = x.T @ (probs - y) / len(rows)
        velocity = 0.9 * velocity + grad
        weights -= lr * velocity
    return weights
