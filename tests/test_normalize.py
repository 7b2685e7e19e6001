"""GCN normalization: sparse/dense equivalence and structural properties
(hypothesis generates random symmetric graphs)."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    add_self_loops,
    gcn_normalize,
    gcn_normalize_dense,
    gcn_normalize_dense_backward,
)
from repro.tensor import Tensor


def random_adjacency(n: int, density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = (rng.random((n, n)) < density).astype(float)
    adj = np.triu(upper, k=1)
    return adj + adj.T


adjacency_strategy = st.tuples(
    st.integers(3, 12), st.floats(0.1, 0.8), st.integers(0, 2**31 - 1)
).map(lambda args: random_adjacency(*args))


class TestSparseNormalize:
    @given(adjacency_strategy)
    @settings(max_examples=25, deadline=None)
    def test_symmetric_output(self, adj):
        normalized = gcn_normalize(sp.csr_matrix(adj)).toarray()
        np.testing.assert_allclose(normalized, normalized.T, atol=1e-12)

    @given(adjacency_strategy)
    @settings(max_examples=25, deadline=None)
    def test_spectral_radius_at_most_one(self, adj):
        normalized = gcn_normalize(sp.csr_matrix(adj)).toarray()
        eigenvalues = np.linalg.eigvalsh(normalized)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_known_value_single_edge(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        normalized = gcn_normalize(adj).toarray()
        # With self-loops both degrees are 2 → every entry is 1/2.
        np.testing.assert_allclose(normalized, np.full((2, 2), 0.5))

    def test_isolated_node_row_is_self_loop_only(self):
        adj = sp.csr_matrix((3, 3))
        normalized = gcn_normalize(adj).toarray()
        np.testing.assert_allclose(normalized, np.eye(3))

    def test_no_self_loops_mode(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        normalized = gcn_normalize(adj, add_loops=False).toarray()
        np.testing.assert_allclose(normalized, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_degree_without_loops_yields_zero_row(self):
        adj = sp.csr_matrix((2, 2))
        normalized = gcn_normalize(adj, add_loops=False).toarray()
        np.testing.assert_allclose(normalized, np.zeros((2, 2)))


class TestDenseMatchesSparse:
    @given(adjacency_strategy)
    @settings(max_examples=25, deadline=None)
    def test_equivalence(self, adj):
        sparse_result = gcn_normalize(sp.csr_matrix(adj)).toarray()
        dense_result = gcn_normalize_dense(adj).data
        np.testing.assert_allclose(sparse_result, dense_result, atol=1e-6)

    def test_gradient_flows_through_degrees(self):
        adj = random_adjacency(5, 0.5, seed=0)
        tensor = Tensor(adj, requires_grad=True)
        gcn_normalize_dense(tensor).sum().backward()
        assert tensor.grad is not None
        assert np.isfinite(tensor.grad).all()
        # Gradient must be non-trivial (normalization depends on every entry).
        assert np.abs(tensor.grad).max() > 0

    @given(adjacency_strategy, st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_numpy_backward_is_the_tapes(self, adj, seed):
        # Weighted entries in (0, 1], as Pro-GNN's learned S: the NumPy
        # backward is bitwise the tape's.
        rng = np.random.default_rng(seed)
        adj = adj * rng.uniform(0.2, 1.0, size=adj.shape)
        adj = 0.5 * (adj + adj.T)
        upstream = rng.normal(size=adj.shape)
        tensor = Tensor(adj, requires_grad=True)
        (gcn_normalize_dense(tensor) * Tensor(upstream)).sum().backward()
        np.testing.assert_array_equal(
            gcn_normalize_dense_backward(adj, upstream), tensor.grad
        )


class TestSelfLoops:
    def test_add_self_loops_weight(self):
        adj = sp.csr_matrix((3, 3))
        out = add_self_loops(adj, weight=4.0).toarray()
        np.testing.assert_allclose(out, 4.0 * np.eye(3))

    def test_add_self_loops_preserves_edges(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = add_self_loops(adj).toarray()
        np.testing.assert_allclose(out, np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestIsolatedNodeConvention:
    """Sparse, dense, and cached normalization agree bit-for-bit on a graph
    with an isolated node (the zero-row convention — no eps^{-1/2} blow-up)."""

    def _graph_with_isolate(self):
        # Node 3 is isolated; {0,1,2} form a triangle.
        adj = np.zeros((4, 4))
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            adj[u, v] = adj[v, u] = 1.0
        return adj

    def test_sparse_zero_row_without_loops(self):
        adj = self._graph_with_isolate()
        normalized = gcn_normalize(sp.csr_matrix(adj), add_loops=False).toarray()
        assert np.isfinite(normalized).all()
        np.testing.assert_array_equal(normalized[3], np.zeros(4))
        np.testing.assert_array_equal(normalized[:, 3], np.zeros(4))

    def test_dense_zero_row_without_loops(self):
        adj = self._graph_with_isolate()
        normalized = gcn_normalize_dense(adj, add_loops=False).data
        assert np.isfinite(normalized).all()
        np.testing.assert_array_equal(normalized[3], np.zeros(4))

    def test_sparse_dense_bit_identical(self):
        adj = self._graph_with_isolate()
        for add_loops in (False, True):
            sparse_result = gcn_normalize(sp.csr_matrix(adj), add_loops=add_loops).toarray()
            dense_result = gcn_normalize_dense(adj, add_loops=add_loops).data
            np.testing.assert_array_equal(sparse_result, dense_result)

    def test_cache_matches_sparse_bit_identical(self):
        from repro.graph import Graph
        from repro.surrogate import PropagationCache

        adj = self._graph_with_isolate()
        graph = Graph(
            adjacency=sp.csr_matrix(adj),
            features=np.eye(4),
            name="isolate",
        )
        cached = PropagationCache(graph).normalized.toarray()
        sparse_result = gcn_normalize(graph.adjacency, add_loops=True).toarray()
        dense_result = gcn_normalize_dense(adj, add_loops=True).data
        np.testing.assert_array_equal(cached, sparse_result)
        np.testing.assert_array_equal(cached, dense_result)

    def test_dense_gradient_finite_with_isolate(self):
        adj = self._graph_with_isolate()
        tensor = Tensor(adj, requires_grad=True)
        gcn_normalize_dense(tensor, add_loops=False).sum().backward()
        assert np.isfinite(tensor.grad).all()
