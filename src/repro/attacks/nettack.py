"""Nettack (Zügner et al., KDD 2018) — targeted gray-box attacker.

The remaining row of the paper's Table I: a *targeted* attack that poisons
the neighborhood (and features) of one victim node so a GCN trained on the
poisoned graph misclassifies it.  The paper excludes Nettack from its
untargeted comparison ("designed specifically for targeted attacks",
Sec. V-A2); it is implemented here so the full Table I landscape is
runnable, and exercised by the targeted-attack extension bench.

Mechanism (faithful to the original at this scale):

1. train the linearized surrogate ``Z = A_n² X W`` on the labelled nodes;
2. score every candidate perturbation — edge flips incident to the victim
   (direct attack) or to a set of influencer nodes, and feature flips on
   those nodes — by the victim's resulting *surrogate margin*
   ``Z[v][y_v] − max_{c≠y_v} Z[v][c]`` (recomputed exactly per candidate);
3. apply the margin-minimizing perturbation greedily until the budget is
   spent.

Singleton protection (never strip a node's last feature bit or last edge)
follows the original implementation's unnoticeability constraints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..graph import (
    EdgeFlip,
    FeatureFlip,
    Graph,
    apply_perturbations,
    gcn_normalize,
)
from ..utils.rng import SeedLike
from .base import AttackBudget, Attacker, AttackResult
from .greedy import GreedyRun
from .metattack import _train_linear_classifier

__all__ = ["Nettack"]


class Nettack(Attacker):
    """Targeted surrogate-margin attacker for a single victim node.

    Parameters
    ----------
    target:
        The victim node index (required before calling :meth:`attack`).
    influencers:
        Number of additional attacker nodes beside the victim whose
        incident edges/features may be perturbed (0 = direct attack only).
    attack_features:
        Also consider feature flips on the attacker nodes.
    """

    name = "Nettack"
    requires_labels = True

    def __init__(
        self,
        target: Optional[int] = None,
        influencers: int = 0,
        attack_features: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if influencers < 0:
            raise ConfigError(f"influencers must be >= 0, got {influencers}")
        self.target = target
        self.influencers = int(influencers)
        self.attack_features = bool(attack_features)

    # ------------------------------------------------------------------
    def surrogate_margin(self, graph: Graph, weights: np.ndarray, node: int) -> float:
        """Victim's classification margin under the linear surrogate."""
        normalized = gcn_normalize(graph.adjacency)
        row = normalized[node] @ normalized  # (1, n) second-hop row of v
        logits = (row @ graph.features) @ weights
        logits = np.asarray(logits).ravel()
        true_class = int(graph.labels[node])
        others = np.delete(logits, true_class)
        return float(logits[true_class] - others.max())

    def _attacker_nodes(self, graph: Graph, target: int) -> list[int]:
        nodes = [target]
        if self.influencers > 0:
            neighbors = list(graph.neighbors(target))
            self._rng.shuffle(neighbors)
            nodes.extend(int(u) for u in neighbors[: self.influencers])
        return nodes

    def _candidates(
        self, graph: Graph, nodes: list[int], banned: set
    ) -> list[EdgeFlip | FeatureFlip]:
        n = graph.num_nodes
        degrees = graph.degrees()
        feature_rows = graph.features.sum(axis=1)
        out: list[EdgeFlip | FeatureFlip] = []
        for u in nodes:
            for v in range(n):
                if v == u:
                    continue
                key = ("e", min(u, v), max(u, v))
                if key in banned:
                    continue
                # Unnoticeability: never disconnect a node entirely.
                if graph.has_edge(u, v) and (degrees[u] <= 1 or degrees[v] <= 1):
                    continue
                out.append(EdgeFlip(int(min(u, v)), int(max(u, v))))
            if self.attack_features:
                for dim in range(graph.num_features):
                    key = ("f", u, dim)
                    if key in banned:
                        continue
                    deleting = graph.features[u, dim] == 1.0
                    if deleting and feature_rows[u] <= 1:
                        continue
                    out.append(FeatureFlip(int(u), int(dim)))
        return out

    # ------------------------------------------------------------------
    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        if self.target is None:
            raise ConfigError("Nettack needs a target node (set `target`)")
        if graph.labels is None or graph.train_mask is None:
            raise ConfigError("Nettack is gray-box: it requires labels and a train mask")
        if not 0 <= self.target < graph.num_nodes:
            raise ConfigError(f"target {self.target} out of range")

        run = GreedyRun(self, graph, budget, "nettack")
        # Surrogate training (gray-box: labels of the train split only),
        # redone from the seed when the run resumes from a snapshot.
        normalized = gcn_normalize(graph.adjacency)
        propagated = normalized @ (normalized @ graph.features)
        weights = _train_linear_classifier(
            propagated, graph.labels, graph.train_mask, steps=200, lr=0.1, rng=self._rng
        )

        nodes = self._attacker_nodes(graph, self.target)
        true_class = int(graph.labels[self.target])

        def margin_of(logits: np.ndarray) -> float:
            others = np.delete(logits, true_class)
            return float(logits[true_class] - others.max())

        def step(run: GreedyRun):
            current = run.poisoned()
            banned = {("e", f.u, f.v) for f in run.result.edge_flips}
            banned.update(("f", f.node, f.dim) for f in run.result.feature_flips)
            candidates = self._candidates(current, nodes, banned)
            if not candidates:
                return None
            best_margin = np.inf
            best: Optional[EdgeFlip | FeatureFlip] = None

            # Feature flips leave the adjacency untouched, so their margins
            # follow in closed form from the victim's (fixed) 2-hop row:
            # Δlogits = ±row[u] · W[dim].  Edge flips change the
            # normalization and are re-evaluated exactly.
            normalized_now = gcn_normalize(current.adjacency)
            row = np.asarray(
                (normalized_now[self.target] @ normalized_now).todense()
            ).ravel()
            base_logits = (row @ current.features) @ weights
            for candidate in candidates:
                if isinstance(candidate, FeatureFlip):
                    direction = 1.0 - 2.0 * current.features[candidate.node, candidate.dim]
                    delta = direction * row[candidate.node] * weights[candidate.dim]
                    margin = margin_of(base_logits + delta)
                else:
                    trial = apply_perturbations(current, [candidate])
                    margin = self.surrogate_margin(trial, weights, self.target)
                if margin < best_margin:
                    best_margin = margin
                    best = candidate
            assert best is not None
            cost = budget.cost_of(best)
            if not run.fits(cost):
                return None
            if isinstance(best, EdgeFlip):
                chosen = ("edge", best.u, best.v, cost)
            else:
                chosen = ("feature", best.node, best.dim, cost)
            return [chosen], -best_margin  # higher = worse margin

        return run.run(step)
