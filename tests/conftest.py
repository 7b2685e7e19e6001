"""Shared fixtures: small deterministic graphs used across the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import stratified_split
from repro.datasets.synthetic import SyntheticSpec, generate_graph
from repro.graph import Graph


@pytest.fixture
def tiny_graph() -> Graph:
    """A hand-built 6-node, 2-class graph with binary features and splits.

    Topology: two triangles {0,1,2} and {3,4,5} joined by the edge (2,3).
    Classes: 0 for the first triangle, 1 for the second.
    """
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    n = 6
    adjacency = sp.lil_matrix((n, n))
    for u, v in edges:
        adjacency[u, v] = 1.0
        adjacency[v, u] = 1.0
    features = np.zeros((n, 4))
    features[:3, 0] = 1.0
    features[:3, 1] = 1.0
    features[3:, 2] = 1.0
    features[3:, 3] = 1.0
    labels = np.array([0, 0, 0, 1, 1, 1])
    train = np.array([True, False, False, True, False, False])
    val = np.array([False, True, False, False, True, False])
    test = ~(train | val)
    return Graph(
        adjacency=adjacency.tocsr(),
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        name="tiny",
    )


@pytest.fixture(scope="session")
def small_cora() -> Graph:
    """A small (~110-node) Cora-like graph for integration tests."""
    spec = SyntheticSpec(
        num_nodes=110,
        num_edges=230,
        num_classes=4,
        feature_dim=200,
        homophily=0.8,
        feature_signal=0.75,
        hard_fraction=0.35,
        hard_mix=0.85,
    )
    graph = generate_graph(spec, seed=7, name="small-cora")
    return stratified_split(graph, seed=7)


@pytest.fixture(scope="session")
def small_polblogs() -> Graph:
    """A small identity-feature graph (Polblogs regime)."""
    spec = SyntheticSpec(
        num_nodes=90,
        num_edges=420,
        num_classes=2,
        feature_dim=0,
        homophily=0.9,
        degree_exponent=1.3,
    )
    graph = generate_graph(spec, seed=3, name="small-polblogs")
    return stratified_split(graph, seed=3)


@pytest.fixture
def autodiff():
    """``with autodiff():`` runs every fit inside on the autodiff path.

    ``make_fused_kernel`` declines each fit, the fallback ``engine="auto"``
    already takes for an ineligible one; a ``--jobs`` pool forked inside
    inherits the patch.
    """

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.nn.trainer.make_fused_kernel", lambda *args, **kwargs: None
            )
            yield

    return forced
