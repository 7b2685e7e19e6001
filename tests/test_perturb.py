"""Perturbation application and L0 distance accounting."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    EdgeFlip,
    FeatureFlip,
    apply_perturbations,
    feature_distance,
    flip_edges,
    flip_features,
    structural_distance,
)


def _lil_flip_edges(adjacency, flips):
    """Reference ``flip_edges``: toggle each flip in a LIL copy, one at a time."""
    matrix = adjacency.tolil(copy=True)
    for flip in flips:
        new_value = 0.0 if matrix[flip.u, flip.v] else 1.0
        matrix[flip.u, flip.v] = new_value
        matrix[flip.v, flip.u] = new_value
    result = matrix.tocsr()
    result.eliminate_zeros()
    return result


_PAIRS = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1])


class TestEdgeFlip:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            EdgeFlip(2, 2)

    def test_add_then_remove_roundtrip(self, tiny_graph):
        once = apply_perturbations(tiny_graph, [EdgeFlip(0, 5)])
        assert once.has_edge(0, 5)
        twice = apply_perturbations(once, [EdgeFlip(0, 5)])
        assert not twice.has_edge(0, 5)
        assert structural_distance(tiny_graph.adjacency, twice.adjacency) == 0

    def test_deletion(self, tiny_graph):
        out = apply_perturbations(tiny_graph, [EdgeFlip(2, 3)])
        assert not out.has_edge(2, 3)
        assert out.num_edges == tiny_graph.num_edges - 1

    def test_symmetry_preserved(self, tiny_graph):
        out = apply_perturbations(tiny_graph, [EdgeFlip(1, 4)])
        diff = out.adjacency - out.adjacency.T
        assert diff.nnz == 0

    def test_original_untouched(self, tiny_graph):
        before = tiny_graph.adjacency.copy()
        apply_perturbations(tiny_graph, [EdgeFlip(0, 5)])
        assert (tiny_graph.adjacency != before).nnz == 0

    @given(edges=st.lists(_PAIRS, max_size=20), pairs=st.lists(_PAIRS, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_lil_reference(self, edges, pairs):
        # 40 flips over 28 possible pairs: duplicates (some cancelling) and
        # both orientations of a pair are the common case, not the corner.
        n = 8
        base = sp.lil_matrix((n, n))
        for u, v in edges:
            base[u, v] = base[v, u] = 1.0
        base = base.tocsr()
        flips = [EdgeFlip(u, v) for u, v in pairs]
        got = flip_edges(base, flips)
        want = _lil_flip_edges(base, flips)
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(got, name), getattr(want, name)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()
        for row in range(n):
            assert np.all(np.diff(got.indices[got.indptr[row] : got.indptr[row + 1]]) > 0)


class TestFeatureFlip:
    def test_toggles_bit(self, tiny_graph):
        out = apply_perturbations(tiny_graph, [FeatureFlip(0, 0)])
        assert out.features[0, 0] == 0.0
        out2 = apply_perturbations(out, [FeatureFlip(0, 0)])
        assert out2.features[0, 0] == 1.0

    def test_cost_is_one(self):
        assert FeatureFlip(0, 0).cost == 1.0
        assert EdgeFlip(0, 1).cost == 1.0


class TestDistances:
    def test_structural_counts_undirected(self, tiny_graph):
        poisoned = apply_perturbations(
            tiny_graph, [EdgeFlip(0, 5), EdgeFlip(2, 3), EdgeFlip(1, 4)]
        )
        assert structural_distance(tiny_graph.adjacency, poisoned.adjacency) == 3

    def test_feature_distance(self, tiny_graph):
        poisoned = apply_perturbations(
            tiny_graph, [FeatureFlip(0, 0), FeatureFlip(3, 1)]
        )
        assert feature_distance(tiny_graph.features, poisoned.features) == 2

    def test_identity_distances_zero(self, tiny_graph):
        assert structural_distance(tiny_graph.adjacency, tiny_graph.adjacency) == 0
        assert feature_distance(tiny_graph.features, tiny_graph.features) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=0,
            max_size=10,
            unique_by=lambda p: (min(p), max(p)),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_distance_equals_flip_count(self, pairs):
        n = 6
        base = sp.csr_matrix((n, n))
        flips = [EdgeFlip(min(u, v), max(u, v)) for u, v in pairs]
        flipped = flip_edges(base, flips)
        assert structural_distance(base, flipped) == len(flips)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 3)),
            min_size=0,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_feature_distance_equals_flip_count(self, locations):
        base = np.zeros((5, 4))
        flips = [FeatureFlip(node, dim) for node, dim in locations]
        flipped = flip_features(base, flips)
        assert feature_distance(base, flipped) == len(flips)
