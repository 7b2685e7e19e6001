"""Defender framework.

A defender takes a (possibly poisoned) graph with labels/masks, trains a
robust model, and reports test accuracy (Def. 2's outer objective).  Timing
is recorded for the efficiency comparison (Table VIII).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..graph import Graph, validate_graph
from ..utils.resources import budget_check
from ..utils.rng import SeedLike, ensure_rng

__all__ = ["Defender", "DefenseResult", "validate_pruned_graph"]


def validate_pruned_graph(graph: Graph, defender_name: str, policy: str = "repair") -> Graph:
    """Contract-check a graph a pruning defense produced.

    Pruning defenses (Jaccard, GNAT) rebuild the adjacency; a bug there —
    an asymmetric prune, a surviving self-loop — would silently skew every
    accuracy they report.  The default ``repair`` policy fixes and warns
    instead of aborting a sweep over an internal artifact.
    """
    return validate_graph(
        graph, policy=policy, context=f"{defender_name} pruned graph"
    )


@dataclass
class DefenseResult:
    """Outcome of a defender's fit on one graph."""

    defender_name: str
    test_accuracy: float
    val_accuracy: float
    runtime_seconds: float = 0.0
    details: dict = field(default_factory=dict)


class Defender(abc.ABC):
    """Interface all defenders implement.

    Subclasses implement :meth:`_fit` returning ``(test_acc, val_acc,
    details)``; :meth:`fit` adds validation and timing.
    """

    name: str = "defender"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_rng(seed)

    def _model_seed(self) -> int:
        return int(self._rng.integers(0, 2**31))

    @abc.abstractmethod
    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        """Train on ``graph``; return (test_accuracy, val_accuracy, details)."""

    def fit(self, graph: Graph, validate: str = "strict") -> DefenseResult:
        """Train the defense on ``graph`` and evaluate on its test mask.

        The input passes contract validation under ``validate``
        (``strict``/``repair``/``off``) before training.  An installed
        memory budget (``--memory-budget``) is sampled first.
        """
        budget_check(f"{self.name} fit on {graph.name}")
        if graph.labels is None or graph.train_mask is None or graph.val_mask is None:
            raise ConfigError("defenders require labels and train/val masks")
        graph = validate_graph(
            graph, policy=validate, context=f"{self.name} defense input"
        )
        start = time.perf_counter()
        test_acc, val_acc, details = self._fit(graph)
        elapsed = time.perf_counter() - start
        return DefenseResult(
            defender_name=self.name,
            test_accuracy=test_acc,
            val_accuracy=val_acc,
            runtime_seconds=elapsed,
            details=details,
        )
