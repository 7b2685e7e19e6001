"""The linearized propagation surrogate A_n^l X (paper Eq. 7)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import gcn_normalize
from repro.surrogate import linear_propagation, propagation_matrix
from repro.tensor import Tensor


class TestPropagationMatrix:
    def test_sparse_power(self, tiny_graph):
        normalized = gcn_normalize(tiny_graph.adjacency)
        squared = propagation_matrix(tiny_graph.adjacency, layers=2)
        np.testing.assert_allclose(
            squared.toarray(), (normalized @ normalized).toarray(), atol=1e-12
        )

    def test_dense_matches_sparse(self, tiny_graph):
        sparse_m = propagation_matrix(tiny_graph.adjacency, layers=3).toarray()
        dense_m = propagation_matrix(tiny_graph.dense_adjacency(), layers=3).data
        np.testing.assert_allclose(sparse_m, dense_m, atol=1e-9)

    def test_invalid_layers(self, tiny_graph):
        with pytest.raises(ConfigError):
            propagation_matrix(tiny_graph.adjacency, layers=0)


class TestLinearPropagation:
    def test_constant_path_returns_array(self, tiny_graph):
        out = linear_propagation(tiny_graph.adjacency, tiny_graph.features, layers=2)
        assert isinstance(out, np.ndarray)
        assert out.shape == tiny_graph.features.shape

    def test_all_paths_agree(self, tiny_graph):
        constant = linear_propagation(tiny_graph.adjacency, tiny_graph.features, 2)
        sparse_tensor = linear_propagation(
            tiny_graph.adjacency, Tensor(tiny_graph.features), 2
        )
        dense_tensor = linear_propagation(
            Tensor(tiny_graph.dense_adjacency()), Tensor(tiny_graph.features), 2
        )
        np.testing.assert_allclose(constant, sparse_tensor.data, atol=1e-10)
        np.testing.assert_allclose(constant, dense_tensor.data, atol=1e-10)

    def test_matches_explicit_matrix_power(self, tiny_graph):
        direct = linear_propagation(tiny_graph.adjacency, tiny_graph.features, 3)
        power = propagation_matrix(tiny_graph.adjacency, 3) @ tiny_graph.features
        np.testing.assert_allclose(direct, power, atol=1e-10)

    def test_gradients_flow_to_adjacency_and_features(self, tiny_graph):
        adj = Tensor(tiny_graph.dense_adjacency(), requires_grad=True)
        feats = Tensor(tiny_graph.features, requires_grad=True)
        linear_propagation(adj, feats, 2).sum().backward()
        assert adj.grad is not None and np.isfinite(adj.grad).all()
        assert feats.grad is not None and np.isfinite(feats.grad).all()

    def test_one_layer_is_single_aggregation(self, tiny_graph):
        normalized = gcn_normalize(tiny_graph.adjacency)
        out = linear_propagation(tiny_graph.adjacency, tiny_graph.features, 1)
        np.testing.assert_allclose(out, normalized @ tiny_graph.features, atol=1e-12)

    def test_invalid_layers(self, tiny_graph):
        with pytest.raises(ConfigError):
            linear_propagation(tiny_graph.adjacency, tiny_graph.features, 0)
