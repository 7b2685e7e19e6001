"""Attack framework plumbing: budgets, results, verification."""

import pytest

from repro.attacks import AttackBudget, RandomAttack, resolve_budget
from repro.attacks.base import AttackResult
from repro.errors import BudgetError
from repro.graph import EdgeFlip, FeatureFlip, apply_perturbations


class TestAttackBudget:
    def test_cost_of(self):
        budget = AttackBudget(total=10, feature_cost=0.5)
        assert budget.cost_of(EdgeFlip(0, 1)) == 1.0
        assert budget.cost_of(FeatureFlip(0, 0)) == 0.5

    def test_validation(self):
        with pytest.raises(BudgetError):
            AttackBudget(total=-1)
        with pytest.raises(BudgetError):
            AttackBudget(total=5, feature_cost=0.0)


class TestResolveBudget:
    def test_from_rate(self, tiny_graph):
        budget = resolve_budget(tiny_graph, perturbation_rate=0.5)
        assert budget.total == round(0.5 * tiny_graph.num_edges)

    def test_explicit_passthrough(self, tiny_graph):
        explicit = AttackBudget(total=3)
        assert resolve_budget(tiny_graph, budget=explicit) is explicit

    def test_error_paths(self, tiny_graph):
        with pytest.raises(BudgetError):
            resolve_budget(tiny_graph)
        with pytest.raises(BudgetError):
            resolve_budget(tiny_graph, perturbation_rate=-0.1)
        with pytest.raises(BudgetError):
            resolve_budget(
                tiny_graph, budget=AttackBudget(total=1), perturbation_rate=0.1
            )


class TestAttackResult:
    def test_spent_accounting(self, tiny_graph):
        result = AttackResult(
            original=tiny_graph,
            poisoned=tiny_graph,
            budget=AttackBudget(total=10, feature_cost=0.5),
            edge_flips=[EdgeFlip(0, 5)],
            feature_flips=[FeatureFlip(0, 0), FeatureFlip(1, 1)],
        )
        assert result.spent == 1.0 + 2 * 0.5
        assert result.num_perturbations == 3

    def test_verify_budget_catches_violation(self, tiny_graph):
        overspent = apply_perturbations(
            tiny_graph, [EdgeFlip(0, 4), EdgeFlip(0, 5), EdgeFlip(1, 5)]
        )
        result = AttackResult(
            original=tiny_graph, poisoned=overspent, budget=AttackBudget(total=1)
        )
        with pytest.raises(BudgetError, match="exceeded"):
            result.verify_budget()

    def test_verify_budget_counts_feature_cost(self, tiny_graph):
        poisoned = apply_perturbations(tiny_graph, [FeatureFlip(0, 0)])
        result = AttackResult(
            original=tiny_graph,
            poisoned=poisoned,
            budget=AttackBudget(total=1.0, feature_cost=2.0),
        )
        with pytest.raises(BudgetError):
            result.verify_budget()

    def test_runtime_populated_by_attack(self, tiny_graph):
        result = RandomAttack(seed=0).attack(tiny_graph, perturbation_rate=0.3)
        assert result.runtime_seconds >= 0.0

    def test_graph_metadata(self, tiny_graph):
        renamed = tiny_graph.with_name("other")
        assert renamed.name == "other"
        assert renamed.num_edges == tiny_graph.num_edges
