"""Edge-difference analysis between a clean and a poisoned graph (Fig 2).

Classifies every topology modification into the paper's four types —
Add/Del × Same/Diff label — revealing the attack pattern GNAT exploits:
effective attackers overwhelmingly *add edges between nodes with different
labels*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GraphError
from ..graph import Graph

__all__ = ["EdgeDiff", "edge_difference"]


@dataclass(frozen=True)
class EdgeDiff:
    """Counts of the four modification types (paper Fig 2)."""

    add_same: int
    add_diff: int
    del_same: int
    del_diff: int

    @property
    def total(self) -> int:
        return self.add_same + self.add_diff + self.del_same + self.del_diff

    @property
    def additions(self) -> int:
        return self.add_same + self.add_diff

    @property
    def deletions(self) -> int:
        return self.del_same + self.del_diff

    def proportions(self) -> dict[str, float]:
        """Fractions of each type among all modifications."""
        if self.total == 0:
            return {"add_same": 0.0, "add_diff": 0.0, "del_same": 0.0, "del_diff": 0.0}
        return {
            "add_same": self.add_same / self.total,
            "add_diff": self.add_diff / self.total,
            "del_same": self.del_same / self.total,
            "del_diff": self.del_diff / self.total,
        }

    def __str__(self) -> str:
        return (
            f"Add+Same={self.add_same} Add+Diff={self.add_diff} "
            f"Del+Same={self.del_same} Del+Diff={self.del_diff}"
        )


def edge_difference(clean: Graph, poisoned: Graph) -> EdgeDiff:
    """Classify the edge modifications between two graphs.

    Both graphs must share the node set; labels are read from ``clean``
    (ground truth — this is an *analysis* tool, not part of any attacker).
    """
    if clean.labels is None:
        raise GraphError("edge_difference requires labels on the clean graph")
    if clean.num_nodes != poisoned.num_nodes:
        raise GraphError(
            f"node counts differ: {clean.num_nodes} vs {poisoned.num_nodes}"
        )
    delta = (poisoned.adjacency - clean.adjacency).tocoo()
    labels = clean.labels
    add_same = add_diff = del_same = del_diff = 0
    for u, v, value in zip(delta.row, delta.col, delta.data):
        if u >= v or abs(value) < 1e-9:
            continue  # count each undirected change once
        same = labels[u] == labels[v]
        if value > 0:
            add_same += int(same)
            add_diff += int(not same)
        else:
            del_same += int(same)
            del_diff += int(not same)
    return EdgeDiff(add_same=add_same, add_diff=add_diff, del_same=del_same, del_diff=del_diff)
