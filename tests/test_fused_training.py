"""Fused training engine: bit-identity, dispatch, gradients, and caching.

The fused kernels (:mod:`repro.nn.fastpath`) promise *bit-identical* weight
trajectories to the autodiff engine — not approximately equal, equal to the
last ULP.  These tests pin that promise across the whole fusible family
(GCN depths 1-4 with and without dropout, GCN over GCN-SVD's dense
operator, SGC, every GNAT view subset in both merged and multi-view form,
GAT's masked attention — including differential cases for its support
indexing and for the multi-view layer-0 fold — and the RGCN/SimPGCN defense
fits via their recognized loss terms), verify the
closed-form backwards against finite differences, check that ineligible
setups fall back (or refuse, naming the specific blocker) exactly as
documented, and exercise the sweep-wide view-operator cache's
content-addressed invalidation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GNAT
from repro.defenses.rgcn import RGCN, GaussianGCNModel, KLLoss, _power_normalize
from repro.defenses.svd import GCNSVD, _normalize_weighted, low_rank_adjacency
from repro.defenses.simpgcn import (
    SSLLoss,
    SimPGCN,
    SimPGCNModel,
    cosine_similarity_matrix,
    knn_graph,
)
from repro.errors import ConfigError
from repro.graph import gcn_normalize
from repro.graph.viewcache import (
    array_fingerprint,
    cached_operator,
    clear_view_cache,
    csr_fingerprint,
    view_cache_stats,
)
from repro.nn import (
    GAT,
    GCN,
    SGC,
    MultiViewForward,
    TrainConfig,
    train_node_classifier,
)
from repro.nn.fastpath import (
    ENGINES,
    make_fused_kernel,
    resolve_engine,
    training_matches_eval,
)
from repro.nn.gat import _support_mask
from repro.tensor import Tensor
from repro.utils.rng import ensure_rng

CONFIG = TrainConfig(epochs=30, patience=10)


def rgcn_setup(graph, seed=11, hidden=8):
    """Model + operators + loss term exactly as ``RGCN._fit`` builds them."""
    rng = ensure_rng(seed)
    model = GaussianGCNModel(graph.num_features, graph.num_classes, hidden, 1.0, rng)
    operators = (
        _power_normalize(graph.adjacency, 0.5),
        _power_normalize(graph.adjacency, 1.0),
    )
    return model, operators, KLLoss(model, 5e-4)


def simpgcn_setup(graph, seed=13, hidden=8, knn_k=5):
    """Model + operators + loss term exactly as ``SimPGCN._fit`` builds them."""
    rng = ensure_rng(seed)
    adj_feat = gcn_normalize(knn_graph(graph.features, knn_k))
    adj_topo = gcn_normalize(graph.adjacency)
    model = SimPGCNModel(graph.num_features, hidden, graph.num_classes, rng)
    ssl = SSLLoss(
        model, cosine_similarity_matrix(graph.features), 0.1, 400,
        graph.num_nodes, rng,
    )
    return model, (adj_topo, adj_feat), ssl


def outcome(result):
    return (
        result.train_losses,
        result.val_accuracies,
        result.best_val_accuracy,
        result.test_accuracy,
        result.epochs_run,
    )


def assert_same_weights(model_a, model_b):
    for left, right in zip(model_a.state_dict(), model_b.state_dict()):
        assert np.array_equal(left, right)


# ---------------------------------------------------------------------------
# Bit-identity: fused vs autodiff walk the same trajectory


class TestGCNBitIdentity:
    @pytest.mark.parametrize("num_layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_trajectory_identical(self, small_cora, num_layers, dropout):
        results = {}
        for engine in ("autodiff", "fused"):
            model = GCN(
                small_cora.num_features,
                small_cora.num_classes,
                hidden_dim=8,
                num_layers=num_layers,
                dropout=dropout,
                seed=42,
            )
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, engine=engine
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert_same_weights(results["autodiff"].model, results["fused"].model)

    def test_auto_equals_fused(self, small_cora):
        results = {}
        for engine in ("auto", "fused"):
            model = GCN(
                small_cora.num_features, small_cora.num_classes, seed=3
            )
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, engine=engine
            )
        assert outcome(results["auto"]) == outcome(results["fused"])


class TestDenseOperatorBitIdentity:
    """GCN over GCN-SVD's dense low-rank operator: fused ≡ autodiff."""

    def test_svd_operator_trajectory_identical(self, small_cora):
        dense = _normalize_weighted(low_rank_adjacency(small_cora.adjacency, 15))
        results = {}
        for engine in ("autodiff", "fused"):
            model = GCN(
                small_cora.num_features, small_cora.num_classes, hidden_dim=8,
                dropout=0.5, seed=21,
            )
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, adjacency=dense, engine=engine
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert len(results["fused"].train_losses) > 1
        model = results["fused"].model
        assert_same_weights(results["autodiff"].model, model)
        # Eval logits of the restored weights, fused vs the autodiff forward.
        model.eval()
        kernel = make_fused_kernel(
            model, small_cora, dense, model.forward, None, strict=True
        )
        autodiff_logits = model.forward(dense, Tensor(small_cora.features)).data
        assert np.array_equal(kernel.eval_forward(), autodiff_logits)

    def test_defender_fit_identical(self, small_cora, monkeypatch):
        fits = {}
        for engine in ("autodiff", "fused"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            result = GCNSVD(rank=10, train_config=CONFIG, seed=4).fit(small_cora)
            fits[engine] = (result.test_accuracy, result.val_accuracy)
        assert fits["autodiff"] == fits["fused"]


class TestSGCBitIdentity:
    def test_trajectory_identical(self, small_cora):
        results = {}
        for engine in ("autodiff", "fused"):
            model = SGC(small_cora.num_features, small_cora.num_classes, seed=9)
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, engine=engine
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert_same_weights(results["autodiff"].model, results["fused"].model)


class TestGNATBitIdentity:
    @pytest.mark.parametrize("views", ["tfe", "t", "f", "e", "tf"])
    @pytest.mark.parametrize("merged", [False, True])
    def test_fit_identical(self, small_cora, views, merged):
        accuracies = {}
        for engine in ("autodiff", "fused"):
            clear_view_cache()
            defender = GNAT(
                views=views,
                merge_views=merged,
                train_config=CONFIG,
                engine=engine,
                seed=5,
            )
            result = defender.fit(small_cora)
            accuracies[engine] = (result.test_accuracy, result.val_accuracy)
        assert accuracies["autodiff"] == accuracies["fused"]

    def test_multi_view_weights_identical(self, small_cora):
        """Direct trainer-level check with weight access (3-view GNAT math)."""
        operators = [
            gcn_normalize(small_cora.adjacency),
            gcn_normalize(sp.eye(small_cora.num_nodes, format="csr")),
        ]
        results = {}
        for engine in ("autodiff", "fused"):
            model = GCN(
                small_cora.num_features, small_cora.num_classes, seed=17
            )
            results[engine] = train_node_classifier(
                model,
                small_cora,
                CONFIG,
                adjacency=operators[0],
                forward=MultiViewForward(model, operators),
                engine=engine,
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert_same_weights(results["autodiff"].model, results["fused"].model)


class TestGATBitIdentity:
    @pytest.mark.parametrize("num_heads", [1, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_trajectory_identical(self, small_cora, num_heads, dropout):
        results = {}
        for engine in ("autodiff", "fused"):
            model = GAT(
                small_cora.num_features,
                small_cora.num_classes,
                hidden_dim=4,
                num_heads=num_heads,
                dropout=dropout,
                seed=42,
            )
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, engine=engine
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert_same_weights(results["autodiff"].model, results["fused"].model)


class TestSupportKernelsDifferential:
    """Fused ≡ autodiff, weights and final logits, where the GAT kernel's
    support indexing and the multi-view kernel's one-GEMM fold could slip.

    The GAT graph has a hub row that attends to every node (its row max
    takes no ``-1e9`` clamp, and its row sum runs over a full row) and
    self-loop-only rows, as a sparse or a dense ``ndarray`` adjacency.
    """

    @staticmethod
    def _gat_adjacency(graph, kind):
        dense = graph.adjacency.toarray()
        dense[1:5] = 0.0  # rows 1-4 attend to themselves only
        dense[0] = 1.0  # row 0 attends to every node
        return dense if kind == "dense" else sp.csr_matrix(dense)

    @staticmethod
    def _fit_both(build, graph, adjacency):
        """Fit ``build()``'s ``(model, forward)`` with each engine; return
        the fused fit's model and forward once the weights agree."""
        fits = {}
        for engine in ("autodiff", "fused"):
            model, forward = build()
            result = train_node_classifier(
                model, graph, CONFIG, adjacency=adjacency, forward=forward,
                engine=engine,
            )
            assert len(result.train_losses) > 1
            fits[engine] = (model, forward)
        assert_same_weights(fits["autodiff"][0], fits["fused"][0])
        return fits["fused"]

    @staticmethod
    def _assert_logits_equal(model, forward, graph, adjacency):
        model.eval()
        kernel = make_fused_kernel(model, graph, adjacency, forward, None, strict=True)
        expected = forward(adjacency, Tensor(graph.features)).data
        assert np.array_equal(kernel.eval_forward(), expected)

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("num_heads", [1, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_gat(self, small_cora, kind, num_heads, dropout):
        adjacency = self._gat_adjacency(small_cora, kind)

        def build():
            model = GAT(
                small_cora.num_features, small_cora.num_classes, hidden_dim=4,
                num_heads=num_heads, dropout=dropout, seed=8,
            )
            return model, model.forward

        model, forward = self._fit_both(build, small_cora, adjacency)
        self._assert_logits_equal(model, forward, small_cora, adjacency)

    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_multi_view(self, small_cora, views, num_layers):
        adjacency = small_cora.adjacency
        two_hop = sp.csr_matrix(((adjacency @ adjacency) > 0).astype(np.float64))
        operators = [
            gcn_normalize(adjacency),
            gcn_normalize(two_hop),
            gcn_normalize(sp.eye(small_cora.num_nodes, format="csr")),
        ][:views]

        def build():
            model = GCN(
                small_cora.num_features, small_cora.num_classes, hidden_dim=8,
                num_layers=num_layers, dropout=0.5, seed=23,
            )
            return model, MultiViewForward(model, operators)

        model, forward = self._fit_both(build, small_cora, operators[0])
        self._assert_logits_equal(model, forward, small_cora, operators[0])

    def test_gat_scores_below_the_fill_take_the_dense_masked_max(self, small_cora):
        """Where every support score of a row sits below the ``-1e9`` fill,
        the dense masked row max reads the fill, so the kernel clamps to it
        — but not on the hub row, which has no masked entry.

        Neither engine's softmax means much there (autodiff's mass moves
        to the masked entries), so this pins the kernel against the dense
        masked formula it replaces rather than against autodiff.
        """
        n = small_cora.num_nodes
        features = np.hstack([np.ones((n, 1)), small_cora.features])
        features[0, 0] += 2e-8  # the hub's scores sit ~20 below the fill
        graph = dataclasses.replace(small_cora, features=features)
        adjacency = self._gat_adjacency(graph, "sparse")
        model = GAT(features.shape[1], graph.num_classes, hidden_dim=4,
                    num_heads=1, dropout=0.0, seed=2)
        head = model.heads[0]
        head.weight.data[:, 0] = 0.0
        head.weight.data[0, 0] = 1.0  # h¹[:, 0] is feature column 0
        head.attn_src.data[:] = 0.0
        head.attn_src.data[0] = -5e9  # src scores of about -5e9
        head.attn_dst.data[0] = 0.0  # dst scores stay O(1)
        kernel = make_fused_kernel(model, graph, adjacency, model.forward, None, strict=True)
        kernel.eval_forward()
        h1 = features @ head.weight.data
        pre = h1 @ head.attn_src.data + (h1 @ head.attn_dst.data).T
        scores = np.where(pre > 0, pre, head.slope * pre)
        mask = _support_mask(adjacency)
        scores[~mask] = -1e9
        below = (np.where(mask, scores, -np.inf).max(axis=1) < -1e9) & (
            mask.sum(axis=1) > 1
        )
        assert below[0] and mask[0].all() and below.sum() >= 3
        expected = np.zeros((n, n))
        np.exp(scores - scores.max(axis=1, keepdims=True), out=expected, where=mask)
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.isfinite(expected).all()
        assert np.array_equal(kernel._att[0], expected)


class TestRGCNBitIdentity:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_trajectory_identical(self, small_cora, seed):
        results = {}
        for engine in ("autodiff", "fused"):
            model, operators, loss = rgcn_setup(small_cora, seed=seed)
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, adjacency=operators,
                loss_fn=loss, engine=engine,
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert_same_weights(results["autodiff"].model, results["fused"].model)

    def test_defender_fit_identical(self, small_cora):
        accuracies = {}
        for engine in ("autodiff", "auto"):
            defender = RGCN(train_config=CONFIG, engine=engine, seed=7)
            result = defender.fit(small_cora)
            accuracies[engine] = (result.test_accuracy, result.val_accuracy)
        assert accuracies["autodiff"] == accuracies["auto"]


class TestSimPGCNBitIdentity:
    @pytest.mark.parametrize("seed", [0, 13])
    def test_trajectory_identical(self, small_cora, seed):
        results = {}
        for engine in ("autodiff", "fused"):
            model, operators, ssl = simpgcn_setup(small_cora, seed=seed)
            results[engine] = train_node_classifier(
                model, small_cora, CONFIG, adjacency=operators,
                loss_fn=ssl, engine=engine,
            )
        assert outcome(results["autodiff"]) == outcome(results["fused"])
        assert_same_weights(results["autodiff"].model, results["fused"].model)

    def test_defender_fit_identical(self, small_cora):
        accuracies = {}
        for engine in ("autodiff", "auto"):
            defender = SimPGCN(
                knn_k=5, train_config=CONFIG, engine=engine, seed=7
            )
            result = defender.fit(small_cora)
            accuracies[engine] = (result.test_accuracy, result.val_accuracy)
        assert accuracies["autodiff"] == accuracies["auto"]


# ---------------------------------------------------------------------------
# Gradcheck: the closed-form backward against finite differences


def _numeric_check(kernel, params, atol=1e-5, rtol=1e-4, eps=1e-6):
    """Central-difference check of every parameter grad of a fused kernel."""
    kernel.train_forward()
    kernel.backward()
    analytic = [np.array(p.grad, copy=True) for p in params]
    for param, grad in zip(params, analytic):
        flat = param.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus, _ = kernel.train_forward()
            flat[i] = original - eps
            minus, _ = kernel.train_forward()
            flat[i] = original
            numeric[i] = (plus - minus) / (2.0 * eps)
        assert np.allclose(grad.reshape(-1), numeric, atol=atol, rtol=rtol), (
            f"max abs diff {np.max(np.abs(grad.reshape(-1) - numeric)):.3e}"
        )


class TestGradcheck:
    def test_fused_gcn_backward(self, tiny_graph):
        model = GCN(
            tiny_graph.num_features,
            tiny_graph.num_classes,
            hidden_dim=5,
            num_layers=3,
            dropout=0.0,  # deterministic forward, required for differencing
            seed=1,
        )
        adjacency = gcn_normalize(tiny_graph.adjacency)
        kernel = make_fused_kernel(
            model, tiny_graph, adjacency, model.forward, None
        )
        assert kernel is not None
        _numeric_check(kernel, list(model.parameters()))

    def test_fused_multiview_backward(self, tiny_graph):
        model = GCN(
            tiny_graph.num_features,
            tiny_graph.num_classes,
            hidden_dim=5,
            dropout=0.0,
            seed=2,
        )
        operators = [
            gcn_normalize(tiny_graph.adjacency),
            gcn_normalize(sp.eye(tiny_graph.num_nodes, format="csr")),
        ]
        forward = MultiViewForward(model, operators)
        kernel = make_fused_kernel(model, tiny_graph, operators[0], forward, None)
        assert kernel is not None
        _numeric_check(kernel, list(model.parameters()))

    def test_fused_gat_backward(self, tiny_graph):
        model = GAT(
            tiny_graph.num_features,
            tiny_graph.num_classes,
            hidden_dim=3,
            num_heads=2,
            dropout=0.0,  # deterministic forward, required for differencing
            seed=3,
        )
        adjacency = gcn_normalize(tiny_graph.adjacency)
        kernel = make_fused_kernel(model, tiny_graph, adjacency, model.forward, None)
        assert kernel is not None
        _numeric_check(kernel, list(model.parameters()))

    def test_fused_rgcn_backward(self, tiny_graph):
        model, operators, loss = rgcn_setup(tiny_graph, seed=5, hidden=4)
        # Replaying the same ε draw makes the sampled forward a fixed
        # deterministic function of the weights, as differencing needs.
        model._sample_rng = _ReplayRng(model._sample_rng)
        kernel = make_fused_kernel(
            model, tiny_graph, operators, model.forward, loss
        )
        assert kernel is not None
        _numeric_check(kernel, list(model.parameters()))

    def test_fused_simpgcn_backward(self, tiny_graph):
        model, operators, ssl = simpgcn_setup(tiny_graph, seed=5, hidden=4, knn_k=2)
        ssl.rng = _ReplayRng(ssl.rng)  # fixed pair batch across calls
        kernel = make_fused_kernel(
            model, tiny_graph, operators, model.forward, ssl
        )
        assert kernel is not None
        _numeric_check(kernel, list(model.parameters()))


class _ReplayRng:
    """Replays the first draw forever — freezes a stochastic forward."""

    def __init__(self, rng):
        self._rng = rng
        self._draws = {}

    def normal(self, size=None):
        key = ("normal", tuple(np.atleast_1d(size)))
        if key not in self._draws:
            self._draws[key] = self._rng.normal(size=size)
        return self._draws[key]

    def integers(self, low, high=None, size=None):
        key = ("integers", low, high, tuple(np.atleast_1d(size)))
        if key not in self._draws:
            self._draws[key] = self._rng.integers(low, high, size=size)
        return self._draws[key]


# ---------------------------------------------------------------------------
# Dispatch: what fuses, what falls back, what refuses


class TestDispatch:
    def test_gat_now_fusible(self, tiny_graph):
        """GAT joined the fused family in the expensive-defender PR."""
        model = GAT(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        adjacency = gcn_normalize(tiny_graph.adjacency)
        kernel = make_fused_kernel(model, tiny_graph, adjacency, model.forward, None)
        assert kernel is not None
        result = train_node_classifier(model, tiny_graph, CONFIG, engine="fused")
        assert result.epochs_run > 0

    def test_rgcn_and_simpgcn_fusible_via_loss_terms(self, tiny_graph):
        model, operators, loss = rgcn_setup(tiny_graph, seed=0, hidden=4)
        assert (
            make_fused_kernel(model, tiny_graph, operators, model.forward, loss)
            is not None
        )
        model, operators, ssl = simpgcn_setup(tiny_graph, seed=0, hidden=4, knn_k=2)
        assert (
            make_fused_kernel(model, tiny_graph, operators, model.forward, ssl)
            is not None
        )

    def test_extra_loss_fn_not_fusible(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        adjacency = gcn_normalize(tiny_graph.adjacency)
        loss_fn = lambda logits: (logits * 0.0).sum()  # noqa: E731
        assert (
            make_fused_kernel(model, tiny_graph, adjacency, model.forward, loss_fn)
            is None
        )
        with pytest.raises(ConfigError, match="custom loss_fn"):
            make_fused_kernel(
                model, tiny_graph, adjacency, model.forward, loss_fn, strict=True
            )

    def test_dense_adjacency_fusible_for_plain_gcn(self, tiny_graph):
        """Plain GCN fuses over a dense ndarray operator (GCN-SVD's, and
        Pro-GNN's normalized S); SGC still needs a sparse one."""
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        dense = gcn_normalize(tiny_graph.adjacency).toarray()
        kernel = make_fused_kernel(
            model, tiny_graph, dense, model.forward, None, strict=True
        )
        assert type(kernel).__name__ == "_FusedGCN"
        sgc = SGC(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        assert make_fused_kernel(sgc, tiny_graph, dense, sgc.forward, None) is None
        with pytest.raises(ConfigError, match="ndarray, not scipy.sparse"):
            make_fused_kernel(sgc, tiny_graph, dense, sgc.forward, None, strict=True)

    def test_subclass_not_fusible(self, tiny_graph):
        class TweakedGCN(GCN):
            pass

        model = TweakedGCN(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        adjacency = gcn_normalize(tiny_graph.adjacency)
        assert make_fused_kernel(model, tiny_graph, adjacency, model.forward, None) is None
        with pytest.raises(ConfigError, match="model class TweakedGCN"):
            make_fused_kernel(
                model, tiny_graph, adjacency, model.forward, None, strict=True
            )

    def test_wrapped_forward_not_fusible(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        adjacency = gcn_normalize(tiny_graph.adjacency)
        wrapped = lambda adj, x: model.forward(adj, x)  # noqa: E731
        assert make_fused_kernel(model, tiny_graph, adjacency, wrapped, None) is None
        with pytest.raises(ConfigError, match="wrapped or overridden"):
            make_fused_kernel(
                model, tiny_graph, adjacency, wrapped, None, strict=True
            )

    def test_strict_errors_name_the_specific_component(self, tiny_graph):
        """The engine='fused' refusal must say WHAT is ineligible (bugfix)."""
        # A KLLoss bound to the wrong model class.
        gcn = GCN(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        rmodel, operators, kl = rgcn_setup(tiny_graph, seed=0, hidden=4)
        adjacency = gcn_normalize(tiny_graph.adjacency)
        with pytest.raises(ConfigError, match="KLLoss pairs with GaussianGCNModel"):
            make_fused_kernel(gcn, tiny_graph, adjacency, gcn.forward, kl, strict=True)
        # A KLLoss bound to a different instance of the right class.
        other, _, _ = rgcn_setup(tiny_graph, seed=1, hidden=4)
        with pytest.raises(ConfigError, match="different model instance"):
            make_fused_kernel(
                rmodel, tiny_graph, operators, rmodel.forward,
                KLLoss(other, 5e-4), strict=True,
            )
        # A dense operator inside the (mean, variance) pair.
        dense_pair = (operators[0].toarray(), operators[1])
        with pytest.raises(ConfigError, match="mean operator is a dense ndarray"):
            make_fused_kernel(
                rmodel, tiny_graph, dense_pair, rmodel.forward, kl, strict=True
            )
        # An SSLLoss paired with the wrong model class.
        smodel, s_ops, ssl = simpgcn_setup(tiny_graph, seed=0, hidden=4, knn_k=2)
        with pytest.raises(ConfigError, match="SSLLoss pairs with SimPGCNModel"):
            make_fused_kernel(gcn, tiny_graph, s_ops, gcn.forward, ssl, strict=True)
        # The engine='fused' prefix survives through the trainer.
        with pytest.raises(ConfigError, match="engine='fused'.*custom loss_fn"):
            train_node_classifier(
                gcn, tiny_graph, CONFIG, adjacency=adjacency,
                loss_fn=lambda logits: logits.sum(), engine="fused",
            )

    def test_training_matches_eval_rules(self, tiny_graph):
        deterministic = GCN(tiny_graph.num_features, tiny_graph.num_classes, dropout=0.0)
        stochastic = GCN(tiny_graph.num_features, tiny_graph.num_classes, dropout=0.5)
        single = GCN(
            tiny_graph.num_features, tiny_graph.num_classes, num_layers=1, dropout=0.5
        )
        sgc = SGC(tiny_graph.num_features, tiny_graph.num_classes)
        assert training_matches_eval(deterministic, deterministic.forward, None)
        assert not training_matches_eval(stochastic, stochastic.forward, None)
        # Dropout only applies to inputs of layers > 0: L=1 is deterministic.
        assert training_matches_eval(single, single.forward, None)
        assert training_matches_eval(sgc, sgc.forward, None)
        assert not training_matches_eval(
            deterministic, deterministic.forward, lambda logits: logits.sum()
        )
        # GAT: deterministic exactly when dropout is off.
        gat_det = GAT(tiny_graph.num_features, tiny_graph.num_classes, dropout=0.0)
        gat_sto = GAT(tiny_graph.num_features, tiny_graph.num_classes, dropout=0.5)
        assert training_matches_eval(gat_det, gat_det.forward, None)
        assert not training_matches_eval(gat_sto, gat_sto.forward, None)
        # SimPGCN's SSL term randomizes the loss, never the logits.
        smodel, _, ssl = simpgcn_setup(tiny_graph, seed=0, hidden=4, knn_k=2)
        assert training_matches_eval(smodel, smodel.forward, ssl)
        # RGCN's training logits are sampled: never reusable for validation.
        rmodel, _, kl = rgcn_setup(tiny_graph, seed=0, hidden=4)
        assert not training_matches_eval(rmodel, rmodel.forward, kl)


class TestResolveEngine:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "auto"

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "autodiff")
        assert resolve_engine(None) == "autodiff"
        # An explicit argument wins over the environment.
        assert resolve_engine("fused") == "fused"

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError, match="engine"):
            resolve_engine("turbo")

    def test_engine_list(self):
        assert set(ENGINES) == {"auto", "fused", "autodiff"}


# ---------------------------------------------------------------------------
# View-operator cache: content-addressed hits, misses, and invalidation


class TestViewCache:
    def setup_method(self):
        clear_view_cache()

    def teardown_method(self):
        clear_view_cache()

    def test_hit_and_miss_counting(self):
        features = np.arange(12.0).reshape(4, 3)
        calls = []

        def build():
            calls.append(1)
            return sp.eye(4, format="csr")

        key = array_fingerprint(features)
        cached_operator("test", key, build)
        cached_operator("test", key, build)
        assert len(calls) == 1
        stats = view_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_mutation_invalidates_by_changing_key(self):
        features = np.arange(12.0).reshape(4, 3)
        before = array_fingerprint(features)
        features[0, 0] = -1.0  # in-place mutation, same object
        after = array_fingerprint(features)
        assert before != after
        adjacency = sp.eye(4, format="csr")
        sparse_before = csr_fingerprint(adjacency)
        adjacency.data[0] = 2.0
        assert csr_fingerprint(adjacency) != sparse_before

    def test_entries_are_copies(self):
        key = ("isolated",)
        first = cached_operator("test", key, lambda: sp.eye(3, format="csr"))
        first.data[:] = 99.0
        second = cached_operator("test", key, lambda: sp.eye(3, format="csr"))
        assert second.data[0] == 1.0  # the cache entry was not poisoned

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VIEW_CACHE", "0")
        calls = []

        def build():
            calls.append(1)
            return sp.eye(2, format="csr")

        cached_operator("test", ("off",), build)
        cached_operator("test", ("off",), build)
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# CLI: --engine is parsed, exported, and engine-independent in output


class TestCliEngineFlag:
    def test_parser_accepts_engine(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["defend", "GCN", "--engine", "fused"])
        assert args.engine == "fused"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["defend", "GCN", "--engine", "turbo"])

    def test_defend_output_engine_independent(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        graph_path = tmp_path / "g.npz"
        assert (
            main(
                ["dataset", "cora", "--scale", "0.05", "--seed", "1", "--out", str(graph_path)]
            )
            == 0
        )
        capsys.readouterr()  # drain the dataset command's output
        outputs = {}
        for engine in ("autodiff", "fused"):
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
            assert (
                main(
                    [
                        "defend", "GCN", "--graph", str(graph_path),
                        "--seeds", "1", "--engine", engine,
                    ]
                )
                == 0
            )
            # The flag is exported so pool workers inherit it.
            import os

            assert os.environ["REPRO_ENGINE"] == engine
            outputs[engine] = capsys.readouterr().out
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert outputs["autodiff"] == outputs["fused"]


# ---------------------------------------------------------------------------
# Sweep integration: journals are engine- and jobs-independent


class TestSweepEquivalence:
    def test_journals_identical_across_engines_and_jobs(self, tmp_path, monkeypatch):
        from tests.test_parallel_sweep import cells_of, journal_records, run_sweep
        from repro.experiments import SweepCheckpoint

        # engine="auto" (not "fused"): auto is the mode a sweep runs in, and
        # it must route every trainer — GCN-SVD's dense low-rank operator
        # included — to the same path with identical journals.
        runs = {}
        for label, engine, jobs in (
            ("autodiff-serial", "autodiff", 1),
            ("auto-serial", "auto", 1),
            ("auto-parallel", "auto", 2),
        ):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            clear_view_cache()
            workdir = tmp_path / label
            table, _, _ = run_sweep(jobs=jobs, checkpoint=SweepCheckpoint(workdir))
            runs[label] = (cells_of(table), journal_records(workdir))

        assert runs["autodiff-serial"] == runs["auto-serial"]
        assert runs["auto-serial"] == runs["auto-parallel"]

    def test_expensive_defenders_fuse_identically_in_sweeps(
        self, tmp_path, monkeypatch
    ):
        """GAT/RGCN/SimPGCN cells: fused sweeps match the autodiff oracle
        cell-for-cell and journal-for-journal, serial and parallel."""
        from tests.test_parallel_sweep import cells_of, journal_records, run_sweep
        from repro.experiments import ExperimentScale, SweepCheckpoint

        scale = ExperimentScale(scale=0.04, seeds=1, rate=0.1)
        runs = {}
        for label, engine, jobs in (
            ("autodiff-serial", "autodiff", 1),
            ("auto-serial", "auto", 1),
            ("auto-parallel", "auto", 2),
        ):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            clear_view_cache()
            workdir = tmp_path / label
            table, _, _ = run_sweep(
                jobs=jobs,
                checkpoint=SweepCheckpoint(workdir),
                defenders=["GAT", "RGCN", "SimPGCN"],
                scale=scale,
            )
            runs[label] = (cells_of(table), journal_records(workdir))

        assert runs["autodiff-serial"] == runs["auto-serial"]
        assert runs["auto-serial"] == runs["auto-parallel"]


# ---------------------------------------------------------------------------
# Deferred validation: the shortcut equals a full eval forward


def _deferred_kernels(graph):
    """(label, kernel, generators) for every kernel with a deferred eval.

    Each model is first trained for a few epochs so the weights are not at
    their initialization; dropout 0.5 makes the training forward stochastic,
    which is exactly when the trainer defers validation.
    """
    adjacency = gcn_normalize(graph.adjacency)
    setups = []
    for layers in (2, 3):
        model = GCN(
            graph.num_features, graph.num_classes, hidden_dim=8,
            num_layers=layers, dropout=0.5, seed=layers,
        )
        setups.append((f"gcn-{layers}", model, adjacency, model.forward, None))
    model = GCN(graph.num_features, graph.num_classes, hidden_dim=8, dropout=0.5, seed=4)
    operators = [adjacency, gcn_normalize(sp.eye(graph.num_nodes, format="csr"))]
    setups.append(
        ("multiview", model, operators[0], MultiViewForward(model, operators), None)
    )
    model, operators, loss = rgcn_setup(graph, seed=5)
    setups.append(("rgcn", model, operators, model.forward, loss))
    short = TrainConfig(epochs=5, patience=10)
    kernels = []
    for label, model, adj, forward, loss_fn in setups:
        train_node_classifier(
            model, graph, short, adjacency=adj, forward=forward, loss_fn=loss_fn,
            engine="fused",
        )
        model.train()
        kernel = make_fused_kernel(model, graph, adj, forward, loss_fn, strict=True)
        generators = [
            getattr(model, name)
            for name in ("_dropout_rng", "_sample_rng")
            if hasattr(model, name)
        ]
        kernels.append((label, model, kernel, generators))
    return kernels


class TestDeferredEval:
    def test_deferred_equals_fresh_eval_forward(self, small_cora):
        for label, _, kernel, _ in _deferred_kernels(small_cora):
            for _ in range(2):  # a second draw of the dropout/sampling streams
                kernel.train_forward()
                deferred = kernel.deferred_eval_forward()
                fresh = kernel.eval_forward()
                assert np.array_equal(deferred, fresh), label

    def test_deferred_leaves_backward_untouched(self, small_cora):
        for label, model, kernel, generators in _deferred_kernels(small_cora):
            states = [gen.bit_generator.state for gen in generators]
            kernel.train_forward()
            kernel.backward()
            expected = [param.grad.copy() for param in model.parameters()]
            for gen, state in zip(generators, states):
                gen.bit_generator.state = state
            kernel.train_forward()
            kernel.deferred_eval_forward()
            kernel.backward()
            for param, grad in zip(model.parameters(), expected):
                assert np.array_equal(param.grad, grad), label


class TestKernelNames:
    """``benchmarks/e2e/spans.py`` derives its ``nn.fastpath.<Model>.<phase>``
    metric names from the kernel class and method names pinned here."""

    def test_every_kernel_class_and_phase(self, tiny_graph):
        adjacency = gcn_normalize(tiny_graph.adjacency)
        gcn = GCN(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        sgc = SGC(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        gat = GAT(tiny_graph.num_features, tiny_graph.num_classes, seed=0)
        views = MultiViewForward(gcn, [adjacency, adjacency])
        rgcn, rgcn_ops, kl = rgcn_setup(tiny_graph, seed=0, hidden=4)
        simp, simp_ops, ssl = simpgcn_setup(tiny_graph, seed=0, hidden=4, knn_k=2)
        setups = {
            "_FusedGCN": (gcn, adjacency, gcn.forward, None),
            "_FusedSGC": (sgc, adjacency, sgc.forward, None),
            "_FusedMultiView": (gcn, adjacency, views, None),
            "_FusedGAT": (gat, adjacency, gat.forward, None),
            "_FusedRGCN": (rgcn, rgcn_ops, rgcn.forward, kl),
            "_FusedSimPGCN": (simp, simp_ops, simp.forward, ssl),
        }
        for name, (model, adj, forward, loss_fn) in setups.items():
            kernel = make_fused_kernel(model, tiny_graph, adj, forward, loss_fn)
            assert type(kernel).__name__ == name
            for method in ("train_forward", "backward", "eval_forward"):
                assert callable(getattr(kernel, method, None)), (name, method)
