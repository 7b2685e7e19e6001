"""PGD/MinMax internals: attack labels, ascent state, discretization."""

import numpy as np

from repro.attacks import MinMaxAttack, PGDAttack
from repro.attacks.base import resolve_budget


class TestAttackLabels:
    def test_train_labels_preserved(self, small_cora):
        attacker = PGDAttack(steps=3, samples=2, seed=0)
        model = attacker._train_victim(small_cora)
        labels = attacker._attack_labels(model, small_cora)
        train = small_cora.train_mask
        np.testing.assert_array_equal(labels[train], small_cora.labels[train])

    def test_unlabeled_use_predictions_not_truth(self, small_cora):
        # The evasion loss must not leak test labels: on nodes where the
        # victim predicts wrongly, the attack labels equal the prediction.
        attacker = PGDAttack(steps=3, samples=2, seed=0)
        model = attacker._train_victim(small_cora)
        labels = attacker._attack_labels(model, small_cora)
        from repro.graph import gcn_normalize
        from repro.tensor import Tensor

        predictions = model.predict(
            gcn_normalize(small_cora.adjacency), Tensor(small_cora.features)
        )
        off_train = ~small_cora.train_mask
        np.testing.assert_array_equal(labels[off_train], predictions[off_train])


class TestAscent:
    def test_continuous_solution_respects_budget_and_box(self, small_cora):
        attacker = PGDAttack(steps=5, samples=2, seed=0)
        model = attacker._train_victim(small_cora)
        labels = attacker._attack_labels(model, small_cora)
        budget = resolve_budget(small_cora, perturbation_rate=0.05)
        s = attacker._ascend(model, small_cora, budget, labels)
        assert (s >= -1e-9).all() and (s <= 1.0 + 1e-9).all()
        np.testing.assert_allclose(s, s.T, atol=1e-12)
        triu = np.triu(np.ones_like(s, dtype=bool), k=1)
        assert s[triu].sum() <= budget.total + 1e-6
        assert np.diag(s).sum() == 0.0

    def test_ascent_moves_probability_mass(self, small_cora):
        attacker = PGDAttack(steps=5, samples=2, seed=0)
        model = attacker._train_victim(small_cora)
        labels = attacker._attack_labels(model, small_cora)
        budget = resolve_budget(small_cora, perturbation_rate=0.05)
        s = attacker._ascend(model, small_cora, budget, labels)
        assert s.sum() > 0.0


class TestMinMaxDiffersFromPGD:
    def test_adaptive_model_changes_selection(self, small_cora):
        pgd = PGDAttack(steps=8, samples=3, seed=0).attack(
            small_cora, perturbation_rate=0.05
        )
        minmax = MinMaxAttack(steps=8, samples=3, inner_steps=2, seed=0).attack(
            small_cora, perturbation_rate=0.05
        )
        # Same seed, same budget — the inner θ adaptation must change the
        # chosen flips (identical selections would mean the min player is a
        # no-op).
        assert set(pgd.edge_flips) != set(minmax.edge_flips)
