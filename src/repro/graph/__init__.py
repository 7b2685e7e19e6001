"""Graph substrate: container, normalization, perturbation, properties."""

from .graph import Graph
from .normalize import (
    NORMALIZE_EPS,
    add_self_loops,
    gcn_normalize,
    gcn_normalize_dense,
    gcn_normalize_dense_backward,
    inv_sqrt_degrees,
)
from .perturb import (
    EdgeFlip,
    FeatureFlip,
    Perturbation,
    PerturbationLog,
    apply_perturbations,
    feature_distance,
    flip_edges,
    flip_features,
    structural_distance,
)
from .properties import (
    degree_histogram,
    edge_homophily,
    isolated_nodes,
    largest_connected_component,
)
from .validate import (
    VALIDATION_POLICIES,
    ContractViolation,
    check_graph,
    repair_graph,
    validate_graph,
)

__all__ = [
    "Graph",
    "gcn_normalize",
    "gcn_normalize_dense",
    "gcn_normalize_dense_backward",
    "add_self_loops",
    "inv_sqrt_degrees",
    "NORMALIZE_EPS",
    "EdgeFlip",
    "FeatureFlip",
    "Perturbation",
    "PerturbationLog",
    "apply_perturbations",
    "flip_edges",
    "flip_features",
    "structural_distance",
    "feature_distance",
    "edge_homophily",
    "degree_histogram",
    "largest_connected_component",
    "isolated_nodes",
    "VALIDATION_POLICIES",
    "ContractViolation",
    "check_graph",
    "repair_graph",
    "validate_graph",
]
