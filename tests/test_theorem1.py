"""Empirical verification of the paper's Theorem 1 (Sec. IV-B).

Setting (verbatim from the theorem): a poison graph where every training
node is connected to exactly ``d`` nodes of *every* class (including a
self-loop), and each node's feature vector is its one-hot label.  Claim:
adding ``α > 0`` extra edges from a training node to same-label nodes
strictly decreases the GNN training loss.

The proof lives in the authors' online report; here the inequality is
checked computationally over many random configurations with a linear GCN
(logits = A_n X W, W = I — the aggregation-dominant regime the theorem
reasons about), which is exactly the mechanism GNAT's augmentations rely
on: same-label edges sharpen a node's label evidence.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import gcn_normalize


def theorem_graph(num_classes: int, nodes_per_class: int, d: int, rng):
    """Adjacency where node 0 (class 0) has d neighbors in every class."""
    n = num_classes * nodes_per_class
    labels = np.repeat(np.arange(num_classes), nodes_per_class)
    adjacency = sp.lil_matrix((n, n))
    target = 0  # the training node under study
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        members = members[members != target]
        chosen = rng.choice(members, size=min(d, len(members)), replace=False)
        for v in chosen:
            adjacency[target, v] = 1.0
            adjacency[v, target] = 1.0
    return adjacency.tocsr(), labels, target


def training_loss(adjacency, labels, node) -> float:
    """Cross-entropy of ``node`` under logits = A_n X with X = one-hot(Y)."""
    features = np.eye(labels.max() + 1)[labels]
    logits = gcn_normalize(adjacency) @ features
    row = logits[node]
    row = row - row.max()
    log_probs = row - np.log(np.exp(row).sum())
    return float(-log_probs[labels[node]])


class TestTheorem1:
    @given(
        st.integers(2, 5),    # number of classes
        st.integers(2, 4),    # d neighbors per class
        st.integers(1, 3),    # α extra same-label edges
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_label_augmentation_decreases_loss(
        self, num_classes, d, alpha, seed
    ):
        rng = np.random.default_rng(seed)
        nodes_per_class = d + alpha + 2
        adjacency, labels, target = theorem_graph(num_classes, nodes_per_class, d, rng)
        before = training_loss(adjacency, labels, target)

        # Add α fresh same-label edges to the target node.
        members = np.flatnonzero(labels == labels[target])
        fresh = [
            v for v in members if v != target and adjacency[target, v] == 0.0
        ]
        augmented = adjacency.tolil(copy=True)
        for v in fresh[:alpha]:
            augmented[target, v] = 1.0
            augmented[v, target] = 1.0
        after = training_loss(augmented.tocsr(), labels, target)

        assert after < before, (num_classes, d, alpha, before, after)

    @given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_different_label_augmentation_increases_loss(
        self, num_classes, d, seed
    ):
        # The contrapositive mechanism (what attackers exploit, Fig 2):
        # adding a different-label edge increases the node's loss.
        rng = np.random.default_rng(seed)
        adjacency, labels, target = theorem_graph(num_classes, d + 3, d, rng)
        before = training_loss(adjacency, labels, target)

        other = np.flatnonzero(labels != labels[target])
        fresh = [v for v in other if adjacency[target, v] == 0.0]
        augmented = adjacency.tolil(copy=True)
        augmented[target, fresh[0]] = 1.0
        augmented[fresh[0], target] = 1.0
        after = training_loss(augmented.tocsr(), labels, target)

        assert after > before, (num_classes, d, before, after)
