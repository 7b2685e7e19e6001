"""Attacker-node constraints (paper Sec. V-E2, Fig 7a).

Some attack scenarios restrict which nodes the adversary controls ("attacker
nodes" in Table I).  :class:`AttackerNodes` produces candidate masks that
greedy attackers intersect with their score matrices:

* an edge ``(u, v)`` is attackable when at least one endpoint (mode
  ``"any"``) or both endpoints (mode ``"both"``) are accessible;
* feature bits are attackable only on accessible nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..graph import Graph
from ..utils.rng import SeedLike, ensure_rng

__all__ = ["AttackerNodes", "sample_attacker_nodes"]


@dataclass(frozen=True)
class AttackerNodes:
    """Set of nodes the adversary can touch."""

    nodes: np.ndarray  # sorted unique node indices
    mode: str = "any"  # "any": one accessible endpoint suffices; "both": both

    def __post_init__(self) -> None:
        nodes = np.unique(np.asarray(self.nodes, dtype=np.int64))
        object.__setattr__(self, "nodes", nodes)
        if self.mode not in ("any", "both"):
            raise ConfigError(f"mode must be 'any' or 'both', got {self.mode!r}")
        if len(nodes) == 0:
            raise ConfigError("attacker node set must not be empty")

    def node_mask(self, num_nodes: int) -> np.ndarray:
        """Boolean (n,) mask of accessible nodes."""
        mask = np.zeros(num_nodes, dtype=bool)
        mask[self.nodes] = True
        return mask

    def edge_mask(self, num_nodes: int) -> np.ndarray:
        """Boolean (n, n) mask of attackable node pairs (diagonal excluded)."""
        accessible = self.node_mask(num_nodes)
        if self.mode == "any":
            mask = accessible[:, None] | accessible[None, :]
        else:
            mask = accessible[:, None] & accessible[None, :]
        np.fill_diagonal(mask, False)
        return mask

    def feature_mask(self, num_nodes: int, num_features: int) -> np.ndarray:
        """Boolean (n, d) mask of attackable feature bits."""
        accessible = self.node_mask(num_nodes)
        return np.repeat(accessible[:, None], num_features, axis=1)


def sample_attacker_nodes(
    graph: Graph, rate: float, seed: SeedLike = None, mode: str = "any"
) -> AttackerNodes:
    """Sample ``rate`` fraction of nodes uniformly as the accessible set."""
    if not 0.0 < rate <= 1.0:
        raise ConfigError(f"attacker-node rate must lie in (0, 1], got {rate}")
    rng = ensure_rng(seed)
    count = max(1, int(round(rate * graph.num_nodes)))
    nodes = rng.choice(graph.num_nodes, size=count, replace=False)
    return AttackerNodes(nodes=nodes, mode=mode)
