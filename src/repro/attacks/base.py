"""Attacker framework: budgets, results, and the :class:`Attacker` interface.

Budget semantics follow the paper (Def. 1/3): a perturbation rate ``r``
yields a budget ``δ = round(r · ||A||_0)`` where ``||A||_0`` is the number of
*undirected* edges; each edge toggle costs 1 unit and each feature-bit toggle
costs ``β`` units (β=1 unless the Fig 5b cost study overrides it).
"""

from __future__ import annotations

import abc
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import BudgetError, BudgetWarning
from ..graph import (
    EdgeFlip,
    FeatureFlip,
    Graph,
    feature_distance,
    structural_distance,
    validate_graph,
)
from ..utils.resources import budget_check
from ..utils.rng import SeedLike, ensure_rng

__all__ = [
    "AttackBudget",
    "AttackResult",
    "Attacker",
    "resolve_budget",
    "feasible_budget_ceiling",
]


def feasible_budget_ceiling(graph: Graph, feature_cost: float = 1.0) -> float:
    """The most budget an attack on ``graph`` could conceivably spend.

    Every undirected edge slot can be toggled at most once
    (``n(n-1)/2`` units) and every feature bit at most once
    (``feature_cost · n · d`` units).  Budgets above this ceiling cannot be
    spent and usually signal a mis-set perturbation rate.
    """
    n = graph.num_nodes
    d = graph.features.shape[1] if graph.features.ndim == 2 else 0
    return n * (n - 1) / 2.0 + float(feature_cost) * n * d


@dataclass(frozen=True)
class AttackBudget:
    """Modification budget ``δ`` with the feature-cost weight ``β``."""

    total: float
    feature_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.total < 0:
            raise BudgetError(f"budget must be non-negative, got {self.total}")
        if self.feature_cost <= 0:
            raise BudgetError(f"feature cost must be positive, got {self.feature_cost}")

    def cost_of(self, perturbation: EdgeFlip | FeatureFlip) -> float:
        """Cost in budget units of one perturbation."""
        return self.feature_cost if isinstance(perturbation, FeatureFlip) else 1.0


def resolve_budget(
    graph: Graph,
    budget: Optional[AttackBudget] = None,
    perturbation_rate: Optional[float] = None,
    feature_cost: float = 1.0,
) -> AttackBudget:
    """Build an :class:`AttackBudget` from either an explicit budget or a rate."""
    if budget is not None and perturbation_rate is not None:
        raise BudgetError("give either a budget or a perturbation_rate, not both")
    if budget is not None:
        return budget
    if perturbation_rate is None:
        raise BudgetError("an attack needs a budget or a perturbation_rate")
    if perturbation_rate < 0:
        raise BudgetError(f"perturbation rate must be non-negative, got {perturbation_rate}")
    return AttackBudget(
        total=float(round(perturbation_rate * graph.num_edges)),
        feature_cost=feature_cost,
    )


@dataclass
class AttackResult:
    """Everything an attack run produced.

    Attributes
    ----------
    original / poisoned:
        Clean and poisoned graphs (labels/masks carried over unchanged —
        attackers never see them, they are kept for downstream evaluation).
    edge_flips / feature_flips:
        The applied perturbations in selection order.
    budget:
        The budget the attack ran under.
    objective_trace:
        Attack-objective value after each greedy step (when applicable).
    runtime_seconds:
        Wall-clock time of the attack.
    """

    original: Graph
    poisoned: Graph
    budget: AttackBudget
    edge_flips: list[EdgeFlip] = field(default_factory=list)
    feature_flips: list[FeatureFlip] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def num_perturbations(self) -> int:
        return len(self.edge_flips) + len(self.feature_flips)

    @property
    def spent(self) -> float:
        """Budget units consumed."""
        return len(self.edge_flips) + self.budget.feature_cost * len(self.feature_flips)

    def verify_budget(self) -> None:
        """Assert the poisoned graph respects the L0 budget (Def. 3's constraint)."""
        structural = structural_distance(self.original.adjacency, self.poisoned.adjacency)
        features = feature_distance(self.original.features, self.poisoned.features)
        spent = structural + self.budget.feature_cost * features
        if spent > self.budget.total + 1e-9:
            raise BudgetError(
                f"attack exceeded budget: spent {spent}, allowed {self.budget.total}"
            )


class Attacker(abc.ABC):
    """Interface all attackers implement.

    Subclasses state their access level via the ``requires_*`` class flags,
    mirroring the paper's Table I columns; the experiment runner uses these
    to document what each attacker consumed.
    """

    name: str = "attacker"
    requires_labels: bool = False
    requires_model: bool = False
    requires_predictions: bool = False

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_rng(seed)

    @abc.abstractmethod
    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        """Produce the attack; implemented by subclasses."""

    def attack(
        self,
        graph: Graph,
        budget: Optional[AttackBudget] = None,
        perturbation_rate: Optional[float] = None,
        validate: str = "strict",
    ) -> AttackResult:
        """Attack ``graph`` under a budget, timing the run and verifying cost.

        The input graph passes contract validation under ``validate``
        (``strict``/``repair``/``off``) before the attack sees it, and a
        budget exceeding the graph's feasible flip ceiling is clamped with
        a :class:`~repro.errors.BudgetWarning` rather than sending the
        attacker chasing spend it can never realize.  An installed memory
        budget (``--memory-budget``) is sampled first.
        """
        budget_check(f"{self.name} attack on {graph.name}")
        graph = validate_graph(
            graph, policy=validate, context=f"{self.name} attack input"
        )
        resolved = resolve_budget(graph, budget, perturbation_rate)
        ceiling = feasible_budget_ceiling(graph, resolved.feature_cost)
        if resolved.total > ceiling:
            warnings.warn(
                f"{self.name}: budget {resolved.total:g} exceeds the feasible "
                f"flip ceiling {ceiling:g} for this graph "
                f"({graph.num_nodes} nodes); clamping",
                BudgetWarning,
                stacklevel=2,
            )
            resolved = AttackBudget(total=ceiling, feature_cost=resolved.feature_cost)
        start = time.perf_counter()
        result = self._run(graph, resolved)
        result.runtime_seconds = time.perf_counter() - start
        result.verify_budget()
        return result
