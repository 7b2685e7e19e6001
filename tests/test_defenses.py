"""Baseline defenders: Jaccard, SVD, RGCN, Pro-GNN, SimPGCN, raw GNNs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.defenses import (
    GCNJaccard,
    GCNSVD,
    ProGNN,
    RawGAT,
    RawGCN,
    RGCN,
    SimPGCN,
    drop_dissimilar_edges,
    jaccard_similarity,
    knn_graph,
    low_rank_adjacency,
)
from repro.errors import ConfigError
from repro.nn import TrainConfig


FAST = TrainConfig(epochs=40, patience=40)


class TestDefenderInterface:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RawGCN(train_config=FAST, seed=0),
            lambda: RawGAT(train_config=FAST, seed=0),
            lambda: GCNJaccard(train_config=FAST, seed=0),
            lambda: GCNSVD(rank=8, train_config=FAST, seed=0),
            lambda: RGCN(train_config=FAST, seed=0),
            lambda: SimPGCN(knn_k=8, train_config=FAST, seed=0),
            lambda: ProGNN(outer_epochs=8, seed=0),
        ],
    )
    def test_fit_returns_sane_result(self, small_cora, factory):
        result = factory().fit(small_cora)
        assert 0.0 <= result.test_accuracy <= 1.0
        assert 0.0 <= result.val_accuracy <= 1.0
        assert result.runtime_seconds > 0

    def test_fit_requires_labels_and_masks(self, small_cora):
        from dataclasses import replace

        with pytest.raises(ConfigError):
            RawGCN(seed=0).fit(replace(small_cora, labels=None))
        with pytest.raises(ConfigError):
            RawGCN(seed=0).fit(replace(small_cora, val_mask=None))

    def test_raw_gcn_beats_chance(self, small_cora):
        result = RawGCN(seed=0).fit(small_cora)
        assert result.test_accuracy > 1.5 / small_cora.num_classes


class TestJaccard:
    def test_similarity_values(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 1.0])
        assert jaccard_similarity(a, b) == pytest.approx(1 / 3)
        assert jaccard_similarity(a, a) == 1.0
        assert jaccard_similarity(a, np.zeros(3)) == 0.0

    def test_drop_dissimilar_edges(self, tiny_graph):
        # The bridge (2, 3) connects nodes with disjoint features.
        cleaned, removed = drop_dissimilar_edges(tiny_graph, threshold=0.05)
        assert removed == 1
        assert not cleaned.has_edge(2, 3)
        assert cleaned.has_edge(0, 1)

    def test_zero_threshold_removes_nothing(self, tiny_graph):
        cleaned, removed = drop_dissimilar_edges(tiny_graph, threshold=0.0)
        assert removed == 0
        assert cleaned.num_edges == tiny_graph.num_edges

    def test_rejects_identity_features(self, small_polblogs):
        with pytest.raises(ConfigError, match="identity"):
            GCNJaccard(seed=0).fit(small_polblogs)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            GCNJaccard(threshold=-1.0)


class TestSVD:
    def test_low_rank_reconstruction_properties(self, small_cora):
        recon = low_rank_adjacency(small_cora.adjacency, rank=5)
        assert recon.shape == (small_cora.num_nodes, small_cora.num_nodes)
        assert (recon >= 0).all()
        np.testing.assert_allclose(recon, recon.T, atol=1e-9)
        # A higher rank approximates the adjacency strictly better.
        dense = small_cora.adjacency.toarray()
        err5 = np.linalg.norm(dense - recon)
        err40 = np.linalg.norm(dense - low_rank_adjacency(small_cora.adjacency, rank=40))
        assert err40 < err5 < np.linalg.norm(dense)

    def test_full_rank_request_returns_clipped_dense(self, tiny_graph):
        recon = low_rank_adjacency(tiny_graph.adjacency, rank=6)
        np.testing.assert_allclose(recon, tiny_graph.dense_adjacency())

    def test_rank_validation(self, tiny_graph):
        with pytest.raises(ConfigError):
            low_rank_adjacency(tiny_graph.adjacency, rank=0)

    def test_low_rank_denoises_random_edges(self, small_polblogs):
        # A rank-2 approximation of a 2-community graph keeps block structure.
        recon = low_rank_adjacency(small_polblogs.adjacency, rank=2)
        labels = small_polblogs.labels
        same = recon[np.ix_(labels == 0, labels == 0)].mean()
        cross = recon[np.ix_(labels == 0, labels == 1)].mean()
        assert same > cross


class TestRGCN:
    def test_kl_cache_populated(self, small_cora):
        defender = RGCN(train_config=TrainConfig(epochs=5, patience=5), seed=0)
        defender.fit(small_cora)  # must not raise; KL term used every epoch

    def test_works_on_identity_features(self, small_polblogs):
        result = RGCN(train_config=FAST, seed=0).fit(small_polblogs)
        assert result.test_accuracy > 0.5


def _svd_proximal(s, beta_nuclear, gamma_l1):
    """The prox through a full SVD: the oracle for the eigenvalue prox."""
    u, sigma, vt = np.linalg.svd(s, full_matrices=False)
    s = (u * np.maximum(sigma - beta_nuclear, 0.0)) @ vt
    s = np.sign(s) * np.maximum(np.abs(s) - gamma_l1, 0.0)
    s = np.clip(0.5 * (s + s.T), 0.0, 1.0)
    np.fill_diagonal(s, 0.0)
    return s


def _autodiff_prognn(defender, graph, pairwise_sq=None):
    """Pro-GNN's alternation with the θ-steps, validation and test forwards
    on autodiff, and the S-step forming every parameter gradient too: the
    oracle for the fused fit.  Returns (model, best S, val acc, test acc,
    the restored model's eval logits).  ``pairwise_sq`` defaults to the
    dense-GEMM form of the squared feature distances."""
    from repro.graph import gcn_normalize_dense
    from repro.nn import GCN, accuracy
    from repro.tensor import Adam, CSRConstant, Tensor, functional as F

    observed = graph.dense_adjacency()
    # Constant features enter every forward as the trainer's CSR operand.
    features = CSRConstant(graph.features)
    labels = graph.labels
    if pairwise_sq is None:
        sq_norms = (graph.features**2).sum(axis=1)
        pairwise_sq = (
            sq_norms[:, None] + sq_norms[None, :] - 2.0 * graph.features @ graph.features.T
        )
    pairwise_sq = Tensor(pairwise_sq)
    model = GCN(
        graph.num_features, graph.num_classes, hidden_dim=defender.hidden_dim,
        dropout=0.5, seed=defender._model_seed(),
    )
    optimizer = Adam(model.parameters(), lr=defender.lr, weight_decay=defender.weight_decay)
    s = observed.copy()
    best_val, best_state, best_s = -1.0, model.state_dict(), s.copy()
    for _ in range(defender.outer_epochs):
        normalized = gcn_normalize_dense(s).detach()
        model.train()
        for _ in range(defender.inner_theta_steps):
            optimizer.zero_grad()
            logits = model.forward(normalized, features)
            F.cross_entropy(logits, labels, graph.train_mask).backward()
            optimizer.step()
        model.eval()
        s_tensor = Tensor(s, requires_grad=True)
        fidelity = ((s_tensor - Tensor(observed)) ** 2).sum() * defender.alpha_fidelity
        smooth = (s_tensor * pairwise_sq).sum() * (0.5 * defender.lambda_smooth)
        logits = model.forward(gcn_normalize_dense(s_tensor), features)
        gnn_term = F.cross_entropy(logits, labels, graph.train_mask) * defender.tau_gnn
        (fidelity + smooth + gnn_term).backward()
        grad = s_tensor.grad
        s = ProGNN._proximal(
            s - defender.structure_lr * (grad + grad.T) * 0.5,
            defender.beta_nuclear, defender.gamma_l1,
        )
        logits = model.forward(gcn_normalize_dense(s).detach(), features)
        val_acc = accuracy(logits, labels, graph.val_mask)
        if val_acc > best_val:
            best_val, best_state, best_s = val_acc, model.state_dict(), s.copy()
    model.load_state_dict(best_state)
    logits = model.forward(gcn_normalize_dense(best_s).detach(), features).data
    return model, best_s, best_val, accuracy(logits, labels, graph.test_mask), logits


class TestProGNN:
    def test_eigenvalue_prox_matches_svd_prox(self):
        rng = np.random.default_rng(3)
        beta = 0.3
        for n in (5, 12, 40):
            # Eigenvalues on both sides of zero, some inside (-β, β).
            eigenvalues = rng.uniform(-2.0, 2.0, size=n)
            eigenvalues[: n // 3] = rng.uniform(-0.9 * beta, 0.9 * beta, size=n // 3)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            s = (q * eigenvalues) @ q.T
            s = 0.5 * (s + s.T)
            assert (eigenvalues < 0).any() and (np.abs(eigenvalues) < beta).any()
            for gamma in (0.0, 0.01):
                np.testing.assert_allclose(
                    ProGNN._proximal(s, beta, gamma), _svd_proximal(s, beta, gamma),
                    rtol=0.0, atol=1e-12,
                )

    def test_fused_fit_matches_autodiff_oracle(self, small_cora):
        oracle_model, oracle_s, oracle_val, oracle_test, oracle_logits = (
            _autodiff_prognn(ProGNN(outer_epochs=5, seed=0), small_cora)
        )
        model, best_s, best_val, logits = ProGNN(outer_epochs=5, seed=0)._learn(
            small_cora
        )
        for left, right in zip(model.state_dict(), oracle_model.state_dict()):
            assert np.array_equal(left, right)
        assert np.array_equal(best_s, oracle_s)
        assert np.array_equal(logits, oracle_logits)
        assert best_val == oracle_val
        result = ProGNN(outer_epochs=5, seed=0).fit(small_cora)
        assert (result.test_accuracy, result.val_accuracy) == (oracle_test, oracle_val)

    def test_closed_form_s_step_matches_autodiff_with_weighted_terms(self, small_cora):
        """The S-step's closed form scales the GCN term where the tape seeds
        it, so non-unit τ, α and λ_s stay bitwise on the oracle."""
        config = dict(
            outer_epochs=3, tau_gnn=0.7, alpha_fidelity=1.3, lambda_smooth=0.01, seed=0
        )
        _, oracle_s, oracle_val, _, oracle_logits = _autodiff_prognn(
            ProGNN(**config), small_cora
        )
        _, best_s, best_val, logits = ProGNN(**config)._learn(small_cora)
        assert np.array_equal(best_s, oracle_s)
        assert np.array_equal(logits, oracle_logits)
        assert best_val == oracle_val

    def test_proximal_operator_properties(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(8, 8))
        out = ProGNN._proximal(s, beta_nuclear=0.1, gamma_l1=0.05)
        np.testing.assert_allclose(out, out.T, atol=1e-12)
        assert (out >= 0).all() and (out <= 1).all()
        assert np.diag(out).sum() == 0.0

    def test_nuclear_shrinkage_reduces_rank(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(10, 10))
        s = np.abs(0.5 * (s + s.T))
        heavy = ProGNN._proximal(s, beta_nuclear=2.0, gamma_l1=0.0)
        light = ProGNN._proximal(s, beta_nuclear=0.0, gamma_l1=0.0)
        assert np.linalg.matrix_rank(heavy, tol=1e-8) <= np.linalg.matrix_rank(
            light, tol=1e-8
        )

    def test_learned_structure_reported(self, small_cora):
        result = ProGNN(outer_epochs=5, seed=0).fit(small_cora)
        assert "learned_edges" in result.details


class TestSimPGCN:
    def test_knn_graph_properties(self, small_cora):
        graph = knn_graph(small_cora.features, k=4)
        assert graph.diagonal().sum() == 0
        assert ((graph - graph.T) != 0).nnz == 0
        degrees = np.asarray(graph.sum(axis=1)).ravel()
        assert degrees.min() >= 4  # each node proposed k neighbors

    def test_knn_k_validation(self, small_cora):
        with pytest.raises(ValueError):
            knn_graph(small_cora.features, k=0)
        with pytest.raises(ValueError):
            knn_graph(small_cora.features, k=small_cora.num_nodes)

    def test_knn_graph_prefers_same_class(self, small_cora):
        graph = knn_graph(small_cora.features, k=5)
        coo = sp.triu(graph, k=1).tocoo()
        labels = small_cora.labels
        same = (labels[coo.row] == labels[coo.col]).mean()
        assert same > 1.0 / small_cora.num_classes
