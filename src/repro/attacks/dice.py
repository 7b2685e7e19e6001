"""DICE baseline: "Delete Internally, Connect Externally" (Waniek et al. 2018).

A label-aware heuristic attacker — it removes same-label edges and adds
different-label edges.  Included because the paper's Sec. IV-A insight
(attackers blur node context by connecting different labels) makes DICE the
*explicit* version of the pattern PEEGA/Metattack discover implicitly, which
makes it a useful reference point in the Fig 2 edge-difference analysis.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..graph import EdgeFlip, Graph, apply_perturbations
from ..utils.rng import SeedLike
from .base import AttackBudget, Attacker, AttackResult

__all__ = ["DICE"]


class DICE(Attacker):
    """Delete intra-class edges, add inter-class edges, at random.

    Parameters
    ----------
    add_ratio:
        Fraction of the budget spent on additions (the rest on deletions).
    """

    name = "DICE"
    requires_labels = True

    def __init__(self, add_ratio: float = 0.5, seed: SeedLike = None) -> None:
        super().__init__(seed)
        if not 0.0 <= add_ratio <= 1.0:
            raise ConfigError(f"add_ratio must lie in [0, 1], got {add_ratio}")
        self.add_ratio = float(add_ratio)

    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        if graph.labels is None:
            raise ConfigError("DICE requires node labels")
        labels = graph.labels
        result = AttackResult(original=graph, poisoned=graph, budget=budget)
        total = int(budget.total)
        n_add = int(round(total * self.add_ratio))
        n_del = total - n_add

        # Deletions: sample same-label edges.
        edges = graph.edge_list()
        same = edges[labels[edges[:, 0]] == labels[edges[:, 1]]]
        if len(same) and n_del:
            take = self._rng.choice(len(same), size=min(n_del, len(same)), replace=False)
            for u, v in same[take]:
                result.edge_flips.append(EdgeFlip(int(u), int(v)))

        # Additions: sample different-label non-edges.
        n = graph.num_nodes
        seen = {(min(u, v), max(u, v)) for u, v in edges}
        attempts = 0
        while len(result.edge_flips) < n_del + n_add and attempts < 100 * total + 100:
            attempts += 1
            u, v = self._rng.integers(0, n, size=2)
            if u == v or labels[u] == labels[v]:
                continue
            key = (int(min(u, v)), int(max(u, v)))
            if key in seen:
                continue
            seen.add(key)
            result.edge_flips.append(EdgeFlip(*key))

        result.poisoned = apply_perturbations(graph, result.edge_flips)
        return result
