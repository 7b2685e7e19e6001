"""White-box tests of defender internals: RGCN operators, Pro-GNN loss
pieces, Metattack's self-training, SimPGCN's SSL head."""

import numpy as np
import pytest

from repro.attacks.metattack import Metattack, _train_linear_classifier
from repro.defenses.rgcn import GaussianGCNModel, _power_normalize
from repro.defenses.simpgcn import SimPGCNModel, cosine_similarity_matrix
from repro.graph import gcn_normalize
from repro.surrogate import linear_propagation
from repro.tensor import Tensor
from repro.utils.rng import ensure_rng


class TestPowerNormalize:
    def test_half_power_matches_gcn_normalize(self, tiny_graph):
        ours = _power_normalize(tiny_graph.adjacency, 0.5).toarray()
        reference = gcn_normalize(tiny_graph.adjacency).toarray()
        np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_full_power_rows_sum_appropriately(self, tiny_graph):
        operator = _power_normalize(tiny_graph.adjacency, 1.0)
        # D^-1 (A+I) D^-1 row sums are <= 1 (equality only for isolated
        # self-loop rows).
        sums = np.asarray(operator.sum(axis=1)).ravel()
        assert (sums <= 1.0 + 1e-9).all()


class TestGaussianModel:
    def test_sampling_only_in_training_mode(self, tiny_graph):
        rng = ensure_rng(0)
        model = GaussianGCNModel(4, 2, hidden_dim=8, gamma=1.0, rng=rng)
        operators = (
            _power_normalize(tiny_graph.adjacency, 0.5),
            _power_normalize(tiny_graph.adjacency, 1.0),
        )
        features = Tensor(tiny_graph.features)
        model.eval()
        a = model.forward(operators, features).data
        b = model.forward(operators, features).data
        np.testing.assert_allclose(a, b)  # eval is deterministic
        model.train()
        c = model.forward(operators, features).data
        d = model.forward(operators, features).data
        assert not np.allclose(c, d)  # training samples noise

    def test_kl_cache_positive(self, tiny_graph):
        rng = ensure_rng(0)
        model = GaussianGCNModel(4, 2, hidden_dim=8, gamma=1.0, rng=rng)
        operators = (
            _power_normalize(tiny_graph.adjacency, 0.5),
            _power_normalize(tiny_graph.adjacency, 1.0),
        )
        model.forward(operators, Tensor(tiny_graph.features))
        assert model._kl_cache is not None
        assert model._kl_cache.item() >= 0.0  # KL divergence is non-negative


class TestMetattackInternals:
    def test_linear_classifier_fits_separable_data(self):
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(0, 0.2, (20, 4)) + [2, 0, 0, 0],
                              rng.normal(0, 0.2, (20, 4)) + [0, 2, 0, 0]])
        labels = np.repeat([0, 1], 20)
        mask = np.ones(40, dtype=bool)
        weights = _train_linear_classifier(features, labels, mask, 200, 0.5, rng)
        predictions = (features @ weights).argmax(axis=1)
        assert (predictions == labels).mean() >= 0.95

    def test_pseudo_labels_keep_train_labels(self, small_cora):
        attacker = Metattack(seed=0)
        pseudo = attacker._pseudo_labels(small_cora)
        train = small_cora.train_mask
        np.testing.assert_array_equal(pseudo[train], small_cora.labels[train])
        # Pseudo labels on unlabeled nodes are valid class ids.
        assert pseudo.min() >= 0 and pseudo.max() < small_cora.num_classes

    def test_pseudo_labels_better_than_chance(self, small_cora):
        attacker = Metattack(seed=0)
        pseudo = attacker._pseudo_labels(small_cora)
        test = small_cora.test_mask
        accuracy = (pseudo[test] == small_cora.labels[test]).mean()
        assert accuracy > 1.5 / small_cora.num_classes


class TestSimPGCNInternals:
    def test_cosine_matrix_diagonal_ones(self, small_cora):
        matrix = cosine_similarity_matrix(small_cora.features)
        np.testing.assert_allclose(np.diag(matrix), np.ones(small_cora.num_nodes))
        assert (matrix <= 1.0 + 1e-9).all()

    def test_ssl_loss_requires_forward(self, small_cora):
        rng = ensure_rng(0)
        model = SimPGCNModel(small_cora.num_features, 8, small_cora.num_classes, rng)
        pairs = np.array([[0, 1]])
        with pytest.raises(AssertionError, match="forward"):
            model.ssl_loss(pairs, np.array([0.5]))

    def test_ssl_loss_zero_for_perfect_prediction(self, small_cora):
        rng = ensure_rng(0)
        model = SimPGCNModel(small_cora.num_features, 8, small_cora.num_classes, rng)
        adj = gcn_normalize(small_cora.adjacency)
        model.forward((adj, adj), Tensor(small_cora.features))
        pairs = np.array([[0, 0]])  # identical nodes → difference head gives 0
        loss = model.ssl_loss(pairs, np.array([0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)


class TestSurrogateFidelity:
    def test_metattack_surrogate_matches_propagation(self, small_cora):
        # The meta-gradient surrogate and repro.surrogate must agree.
        normalized = gcn_normalize(small_cora.adjacency)
        manual = normalized @ (normalized @ small_cora.features)
        library = linear_propagation(small_cora.adjacency, small_cora.features, 2)
        np.testing.assert_allclose(manual, library, atol=1e-10)
