"""Applying and measuring graph perturbations.

Implements the paper's modification model (Sec. II-B): topology modifications
flip entries of the symmetric adjacency matrix, feature perturbations flip
binary feature bits, and cost is measured in L0 units — one unit per
*undirected* edge change (the paper's ``||Â − A||_0`` with ``||A||_0`` equal to
the number of edges) and one unit per feature bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from .graph import Graph

__all__ = [
    "EdgeFlip",
    "FeatureFlip",
    "Perturbation",
    "PerturbationLog",
    "apply_perturbations",
    "flip_edges",
    "flip_features",
    "net_edge_keys",
    "structural_distance",
    "feature_distance",
]


@dataclass(frozen=True)
class EdgeFlip:
    """Toggle the undirected edge ``(u, v)``."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise GraphError(f"edge flips must not create self-loops (node {self.u})")

    @property
    def cost(self) -> float:
        return 1.0


@dataclass(frozen=True)
class FeatureFlip:
    """Toggle feature bit ``dim`` of ``node``."""

    node: int
    dim: int

    @property
    def cost(self) -> float:
        return 1.0


Perturbation = EdgeFlip | FeatureFlip


@dataclass
class PerturbationLog:
    """Ordered record of applied perturbations with total cost.

    The log doubles as a memoization key: :attr:`key` is a hashable tuple
    identifying the exact perturbed state reached from a clean graph, which
    :class:`repro.surrogate.PropagationCache` uses to tag the normalized
    adjacency and its cached powers.
    """

    items: list[Perturbation] = field(default_factory=list)

    @property
    def edge_flips(self) -> list[EdgeFlip]:
        return [p for p in self.items if isinstance(p, EdgeFlip)]

    @property
    def feature_flips(self) -> list[FeatureFlip]:
        return [p for p in self.items if isinstance(p, FeatureFlip)]

    @property
    def key(self) -> tuple[tuple[str, int, int], ...]:
        """Hashable identity of the perturbation sequence."""
        return tuple(
            ("edge", p.u, p.v) if isinstance(p, EdgeFlip) else ("feature", p.node, p.dim)
            for p in self.items
        )

    def total_cost(self, feature_cost: float = 1.0) -> float:
        """Budget units consumed by the logged perturbations."""
        return sum(
            feature_cost if isinstance(p, FeatureFlip) else p.cost for p in self.items
        )

    def record(self, perturbation: Perturbation) -> None:
        """Append one applied perturbation."""
        self.items.append(perturbation)

    def __len__(self) -> int:
        return len(self.items)


def net_edge_keys(endpoints: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys ``min·n + max`` of the undirected pairs in ``endpoints``
    (a ``(b, 2)`` array, either orientation) flipped an odd number of times.

    Flips are involutions, so a pair flipped an even number of times cancels.
    """
    keys, counts = np.unique(
        endpoints.min(axis=1) * n + endpoints.max(axis=1), return_counts=True
    )
    return keys[counts % 2 == 1]


def flip_edges(adjacency: sp.spmatrix, flips: Iterable[EdgeFlip]) -> sp.csr_matrix:
    """Return a copy of the binary symmetric ``adjacency`` with each undirected
    edge toggled.

    The pairs toggled an odd number of times (:func:`net_edge_keys`) form one
    symmetric 0/1 delta ``F``, and the result is the elementwise XOR
    ``|A − F|`` — one O(nnz + b log b) pass.  For a canonical ``adjacency``
    (the :class:`Graph` contract) the result is canonical too: sorted
    indices, no explicit zeros.
    """
    matrix = sp.csr_matrix(adjacency)
    n = matrix.shape[0]
    endpoints = np.asarray([(flip.u, flip.v) for flip in flips], dtype=np.int64)
    uu, vv = np.divmod(net_edge_keys(endpoints.reshape(-1, 2), n), n)
    delta = sp.csr_matrix(
        (np.ones(2 * len(uu)), (np.concatenate([uu, vv]), np.concatenate([vv, uu]))),
        shape=matrix.shape,
    )
    return abs(matrix - delta)


def flip_features(features: np.ndarray, flips: Iterable[FeatureFlip]) -> np.ndarray:
    """Return a copy of binary ``features`` with the given bits toggled."""
    result = np.asarray(features, dtype=np.float64).copy()
    for flip in flips:
        result[flip.node, flip.dim] = 1.0 - result[flip.node, flip.dim]
    return result


def apply_perturbations(graph: Graph, perturbations: Sequence[Perturbation]) -> Graph:
    """Apply a mixed sequence of edge and feature flips to ``graph``."""
    edge_flips = [p for p in perturbations if isinstance(p, EdgeFlip)]
    feature_flips = [p for p in perturbations if isinstance(p, FeatureFlip)]
    adjacency = flip_edges(graph.adjacency, edge_flips) if edge_flips else graph.adjacency
    features = flip_features(graph.features, feature_flips) if feature_flips else graph.features
    # One construction, so the graph contract is validated once, not twice.
    return replace(graph, adjacency=adjacency, features=features, validate=True)


def structural_distance(original: sp.spmatrix, modified: sp.spmatrix) -> int:
    """``||Â − A||_0`` in undirected-edge units (number of toggled edges)."""
    diff = (modified - original).tocoo()
    changed = np.abs(diff.data) > 1e-9
    return int(changed.sum()) // 2


def feature_distance(original: np.ndarray, modified: np.ndarray) -> int:
    """``||X̂ − X||_0``: number of changed feature entries."""
    return int(np.count_nonzero(~np.isclose(original, modified)))
