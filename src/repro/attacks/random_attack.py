"""Random perturbation baseline.

Not part of the paper's headline tables but the standard sanity baseline in
the attack literature: flips uniformly random node pairs (and optionally
feature bits).  Any attacker worth reporting must beat it.
"""

from __future__ import annotations

from ..graph import EdgeFlip, FeatureFlip, Graph, apply_perturbations
from ..utils.rng import SeedLike
from .base import AttackBudget, Attacker, AttackResult

__all__ = ["RandomAttack"]


class RandomAttack(Attacker):
    """Flip uniformly random edges (and features when ``feature_prob > 0``)."""

    name = "Random"

    def __init__(self, feature_prob: float = 0.0, seed: SeedLike = None) -> None:
        super().__init__(seed)
        if not 0.0 <= feature_prob <= 1.0:
            raise ValueError(f"feature_prob must lie in [0, 1], got {feature_prob}")
        self.feature_prob = float(feature_prob)

    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        n, d = graph.num_nodes, graph.num_features
        result = AttackResult(original=graph, poisoned=graph, budget=budget)
        spent = 0.0
        seen_edges: set[tuple[int, int]] = set()
        seen_feats: set[tuple[int, int]] = set()
        min_cost = min(1.0, budget.feature_cost) if self.feature_prob > 0 else 1.0
        # Attempt cap: a budget larger than the untouched pair/bit space
        # must terminate rather than spin on already-seen candidates.
        max_pairs = n * (n - 1) // 2 + (n * d if self.feature_prob > 0 else 0)
        attempts = 0
        max_attempts = 100 * int(budget.total + 1) + 20 * max_pairs

        while spent + min_cost <= budget.total + 1e-12:
            attempts += 1
            if attempts > max_attempts:
                break
            if len(seen_edges) >= n * (n - 1) // 2 and (
                self.feature_prob == 0 or len(seen_feats) >= n * d
            ):
                break
            if self.feature_prob > 0 and self._rng.random() < self.feature_prob:
                if spent + budget.feature_cost > budget.total + 1e-12:
                    break
                node = int(self._rng.integers(0, n))
                dim = int(self._rng.integers(0, d))
                if (node, dim) in seen_feats:
                    continue
                seen_feats.add((node, dim))
                result.feature_flips.append(FeatureFlip(node, dim))
                spent += budget.feature_cost
            else:
                u, v = self._rng.integers(0, n, size=2)
                if u == v:
                    continue
                key = (int(min(u, v)), int(max(u, v)))
                if key in seen_edges:
                    continue
                seen_edges.add(key)
                result.edge_flips.append(EdgeFlip(*key))
                spent += 1.0

        result.poisoned = apply_perturbations(
            graph, result.edge_flips + result.feature_flips
        )
        return result
