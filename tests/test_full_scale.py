"""Full-scale (scale=1.0) dataset generation — Table III statistics.

Generation only (no training): verifies the paper-facing statistics are hit
exactly at the scale users would run real experiments at.
"""

import pytest

from repro.datasets import load_dataset
from repro.graph.properties import edge_homophily


@pytest.mark.parametrize(
    "name,nodes,classes,features,homophily",
    [
        ("cora", 2485, 7, 1433, 0.81),
        ("polblogs", 1222, 2, 1222, 0.91),
    ],
)
def test_full_scale_statistics(name, nodes, classes, features, homophily):
    graph = load_dataset(name, scale=1.0, seed=0)
    assert graph.num_nodes == nodes
    assert graph.num_classes == classes
    assert graph.num_features == features
    assert abs(edge_homophily(graph) - homophily) < 0.05
    # Splits follow the paper's 10/10/80 protocol.
    assert abs(graph.train_mask.sum() - round(0.1 * nodes)) <= 2
    assert abs(graph.val_mask.sum() - round(0.1 * nodes)) <= 2
    # Structural invariants at full size.
    assert graph.adjacency.diagonal().sum() == 0.0
    assert (graph.adjacency != graph.adjacency.T).nnz == 0


def test_full_scale_cora_edge_count():
    graph = load_dataset("cora", scale=1.0, seed=0)
    assert abs(graph.num_edges - 5069) < 5069 * 0.05
