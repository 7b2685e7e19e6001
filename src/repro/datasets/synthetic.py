"""Synthetic attributed-graph generators.

The paper evaluates on Cora, Citeseer, and Polblogs as shipped by DeepRobust.
Those archives are network downloads and unavailable offline, so this module
builds statistically equivalent graphs from first principles:

* topology: a degree-corrected planted-partition model (Chung–Lu weights
  inside/between blocks) that matches each dataset's node count, edge count,
  class count, and edge homophily (Fig 1 reports >70% same-label edges on all
  of them — the property PEEGA's global view and GNAT's augmentations rely
  on);
* features: sparse binary bags-of-words whose active bits are drawn mostly
  from per-class prototype dimensions, reproducing the feature-similarity
  signal GCN-Jaccard and GNAT's feature graph exploit;
* Polblogs: an identity feature matrix (as in the paper), two dense
  communities, high homophily — reproducing the edge case where
  feature-based defenses are inapplicable (Table VI's footnote).

All generators are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import DatasetError
from ..graph import Graph
from ..utils.rng import SeedLike, ensure_rng

__all__ = [
    "SyntheticSpec",
    "generate_graph",
    "attach_identity_features",
    "StreamedSBMSpec",
    "generate_streamed_sbm",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the degree-corrected planted-partition generator.

    Attributes
    ----------
    num_nodes / num_edges / num_classes:
        Target sizes; the realized edge count may differ by a few edges after
        de-duplication.
    feature_dim:
        Number of binary feature dimensions; 0 requests identity features
        (the Polblogs convention).
    homophily:
        Target fraction of intra-class edges.
    degree_exponent:
        Pareto tail exponent for the Chung–Lu degree weights; smaller means
        heavier-tailed degree distributions.
    feature_bits:
        Expected number of active bits per node.
    feature_signal:
        Fraction of a node's active bits drawn from its class prototype
        dimensions (the rest are noise).
    hard_fraction:
        Fraction of nodes that are "hard" — genuinely ambiguous between
        their label and a per-node confounder class, like interdisciplinary
        papers in a citation graph.  A hard node draws ``hard_mix`` of its
        feature-signal bits from the confounder's prototype and hosts the
        graph's inter-class edges (also toward its confounder).  This
        correlated two-view ambiguity is what calibrates clean GCN accuracy
        to the paper's 0.72–0.84 range while leaving feature similarity
        class-informative on the easy majority — the property
        Jaccard/cosine-based defenses rely on, as on the real datasets.
    hard_mix:
        Confounder share of a hard node's signal bits (0.5 = maximally
        ambiguous).
    view_correlation:
        Probability that a topology-hard node is *also* feature-hard.  Below
        1.0, some nodes have poisoned neighborhoods but clean features —
        exactly the nodes feature-similarity defenses (GCN-Jaccard, SimPGCN,
        GNAT's feature/ego views) can rescue, as on the real datasets where
        citation noise and word noise are only partially correlated.
    prototype_fraction:
        Fraction of feature dimensions assigned to each class prototype.
    class_skew:
        Dirichlet concentration controlling class-size imbalance
        (large = balanced).
    """

    num_nodes: int
    num_edges: int
    num_classes: int
    feature_dim: int
    homophily: float = 0.81
    degree_exponent: float = 2.0
    feature_bits: float = 14.0
    feature_signal: float = 0.75
    hard_fraction: float = 0.4
    hard_mix: float = 0.6
    view_correlation: float = 0.7
    prototype_fraction: float = 0.05
    class_skew: float = 24.0

    def __post_init__(self) -> None:
        if self.num_nodes < self.num_classes or self.num_classes < 2:
            raise DatasetError(
                f"need at least {self.num_classes} nodes and 2 classes, got "
                f"nodes={self.num_nodes}, classes={self.num_classes}"
            )
        if self.num_edges < self.num_nodes // 2:
            raise DatasetError("edge target too small to keep the graph connected")
        if not 0.0 < self.homophily < 1.0:
            raise DatasetError(f"homophily must lie in (0, 1), got {self.homophily}")


def _sample_labels(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    proportions = rng.dirichlet(np.full(spec.num_classes, spec.class_skew))
    labels = rng.choice(spec.num_classes, size=spec.num_nodes, p=proportions)
    # Guarantee every class is populated enough to stratify splits later.
    minimum = max(3, spec.num_nodes // (spec.num_classes * 20))
    for cls in range(spec.num_classes):
        shortfall = minimum - int((labels == cls).sum())
        if shortfall > 0:
            donors = np.flatnonzero(labels != cls)
            labels[rng.choice(donors, size=shortfall, replace=False)] = cls
    return labels


def _sample_confounders(
    spec: SyntheticSpec, labels: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node confounder class and the topology/feature hardness masks.

    The confounder drives both a hard node's inter-class edges and (when the
    node is also feature-hard, probability ``view_correlation``) its mixed
    feature-signal bits.  Correlated-but-not-identical ambiguity across the
    two views is the property real citation graphs have: an
    interdisciplinary paper usually cites and resembles the same neighboring
    field, but not always both.  It is the reason GCN accuracy saturates
    well below the homophily level *and* the reason feature-based defenses
    can recover part of the gap.
    """
    confounders = np.array(
        [
            rng.choice([c for c in range(spec.num_classes) if c != label])
            for label in labels
        ],
        dtype=np.int64,
    )
    hard_topo = rng.random(spec.num_nodes) < spec.hard_fraction
    hard_feat = hard_topo & (rng.random(spec.num_nodes) < spec.view_correlation)
    return confounders, hard_topo, hard_feat


def _sample_edges(
    spec: SyntheticSpec,
    labels: np.ndarray,
    confounders: np.ndarray,
    hard: np.ndarray,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """Chung–Lu edge sampling with a planted-partition block structure."""
    n = spec.num_nodes
    weights = rng.pareto(spec.degree_exponent, size=n) + 1.0
    class_members = [np.flatnonzero(labels == cls) for cls in range(spec.num_classes)]
    # Hard nodes participate less in same-class edges: their degree budget is
    # mostly consumed by confounder links, so their edge mix is genuinely
    # ambiguous while easy nodes keep clean neighborhoods.
    intra_weights = np.where(hard, 0.25 * weights, weights)
    class_probs = []
    for members in class_members:
        w = intra_weights[members]
        class_probs.append(w / w.sum())
    class_mass = np.array([intra_weights[m].sum() for m in class_members])
    class_pick = class_mass / class_mass.sum()
    # Inter edges land preferentially on hard members of the target class.
    inter_target_weights = np.where(hard, 4.0 * weights, weights)
    inter_target_probs = []
    for members in class_members:
        w = inter_target_weights[members]
        inter_target_probs.append(w / w.sum())

    target_intra = int(round(spec.num_edges * spec.homophily))
    target_inter = spec.num_edges - target_intra
    edges: set[tuple[int, int]] = set()

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in edges:
            return False
        edges.add(key)
        return True

    # Intra-class edges.
    attempts = 0
    max_attempts = 50 * target_intra + 1000
    intra_added = 0
    while intra_added < target_intra and attempts < max_attempts:
        attempts += 1
        cls = rng.choice(spec.num_classes, p=class_pick)
        members = class_members[cls]
        if len(members) < 2:
            continue
        u, v = rng.choice(members, size=2, p=class_probs[cls])
        if add_edge(int(u), int(v)):
            intra_added += 1

    # Inter-class edges: a *hard* node links into its confounder class, so
    # topology ambiguity and feature ambiguity coincide per node.
    attempts = 0
    max_attempts = 50 * target_inter + 1000
    inter_added = 0
    hard_nodes = np.flatnonzero(hard)
    if len(hard_nodes) == 0:
        hard_nodes = np.arange(n)
    hard_probs = weights[hard_nodes] / weights[hard_nodes].sum()
    while inter_added < target_inter and attempts < max_attempts:
        attempts += 1
        u = int(rng.choice(hard_nodes, p=hard_probs))
        target_class = confounders[u]
        members = class_members[target_class]
        if len(members) == 0:
            continue
        v = int(rng.choice(members, p=inter_target_probs[target_class]))
        if add_edge(u, v):
            inter_added += 1

    rows, cols = (
        np.array([e[0] for e in edges], dtype=np.int64),
        np.array([e[1] for e in edges], dtype=np.int64),
    )
    data = np.ones(len(edges))
    adjacency = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    adjacency = adjacency + adjacency.T
    adjacency = adjacency.tocsr()
    adjacency.data = np.ones_like(adjacency.data)

    # Reconnect isolated nodes to a random same-class partner so the LCC
    # retains (almost) all nodes, as DeepRobust's preprocessed datasets do.
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    lonely = np.flatnonzero(degrees == 0)
    if len(lonely):
        adjacency = adjacency.tolil()
        for node in lonely:
            candidates = class_members[labels[node]]
            candidates = candidates[candidates != node]
            if len(candidates) == 0:
                candidates = np.setdiff1d(np.arange(n), [node])
            partner = int(rng.choice(candidates))
            adjacency[node, partner] = 1.0
            adjacency[partner, node] = 1.0
        adjacency = adjacency.tocsr()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


def _sample_features(
    spec: SyntheticSpec,
    labels: np.ndarray,
    confounders: np.ndarray,
    hard: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binary bag-of-words features with per-class prototype dimensions.

    Easy nodes draw their signal bits purely from their class prototype;
    hard nodes split signal bits between their class and their confounder
    class (``hard_mix`` share).  The remaining bits are uniform background.
    """
    n, d = spec.num_nodes, spec.feature_dim
    prototype_size = max(4, int(round(d * spec.prototype_fraction)))
    prototypes = [
        rng.choice(d, size=min(prototype_size, d), replace=False)
        for _ in range(spec.num_classes)
    ]
    # Zipfian within-prototype word frequencies: a few core topic words are
    # shared by most members of a class (real bag-of-words behaviour), which
    # gives same-class pairs the non-trivial Jaccard overlap that
    # preprocessing defenses rely on.
    zipf = 1.0 / np.arange(1, prototype_size + 1)
    zipf /= zipf.sum()
    features = np.zeros((n, d), dtype=np.float64)
    for node in range(n):
        active = max(1, int(rng.poisson(spec.feature_bits)))
        n_signal = int(round(active * spec.feature_signal))
        if hard[node] and spec.num_classes > 1:
            # Feature-hard nodes are feature-*agnostic*: most of their signal
            # budget is replaced by diffuse foreign-field vocabulary (one
            # random other class per bit), the way real bag-of-words noise
            # spreads.  Their features neither identify the right class nor
            # confidently point at a wrong one — unlike their citations,
            # which concentrate on the confounder class.
            n_confusion = int(round(n_signal * spec.hard_mix))
            n_own = n_signal - n_confusion
            other_classes = [c for c in range(spec.num_classes) if c != labels[node]]
            for _ in range(n_confusion):
                foreign = prototypes[int(rng.choice(other_classes))]
                features[node, int(rng.choice(foreign, p=zipf[: len(foreign)]))] = 1.0
        else:
            n_own = n_signal
        prototype = prototypes[labels[node]]
        signal = rng.choice(
            prototype, size=min(n_own, len(prototype)), replace=False, p=zipf[: len(prototype)]
        )
        n_background = max(0, active - n_signal)
        background = rng.choice(d, size=n_background, replace=True)
        features[node, signal] = 1.0
        features[node, background] = 1.0
    # No node may have an all-zero feature row (breaks cosine similarity).
    empty = np.flatnonzero(features.sum(axis=1) == 0)
    for node in empty:
        features[node, rng.integers(0, d)] = 1.0
    return features


def attach_identity_features(adjacency: sp.spmatrix) -> np.ndarray:
    """Identity feature matrix — the paper's Polblogs convention."""
    return np.eye(adjacency.shape[0], dtype=np.float64)


def generate_graph(spec: SyntheticSpec, seed: SeedLike = None, name: str = "synthetic") -> Graph:
    """Generate an attributed graph from ``spec``.

    Returns a :class:`~repro.graph.Graph` with labels but no splits (use
    :func:`repro.datasets.splits.stratified_split` to add masks).
    """
    rng = ensure_rng(seed)
    labels = _sample_labels(spec, rng)
    confounders, hard_topo, hard_feat = _sample_confounders(spec, labels, rng)
    adjacency = _sample_edges(spec, labels, confounders, hard_topo, rng)
    if spec.feature_dim > 0:
        features = _sample_features(spec, labels, confounders, hard_feat, rng)
    else:
        features = attach_identity_features(adjacency)
    return Graph(adjacency=adjacency, features=features, labels=labels, name=name)


# ---------------------------------------------------------------------------
# Streamed degree-corrected SBM: the 100k–1M-node scale tiers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamedSBMSpec:
    """Parameters of the streamed degree-corrected SBM generator.

    :class:`SyntheticSpec`'s generator is faithful but per-node Python
    (rejection-sampled edge sets, row loops for features) — fine at 3k
    nodes, hopeless at 1M.  This spec drives :func:`generate_streamed_sbm`,
    which produces the same family of graphs (Chung–Lu degrees inside a
    planted partition, binary prototype features) with fully vectorized
    draws and a direct CSR build: nothing of size O(n²) — or even
    O(n·avg_degree) Python objects — is ever materialized.

    Attributes
    ----------
    num_nodes / avg_degree / num_classes:
        Target sizes; the realized edge count lands within a few percent of
        ``num_nodes · avg_degree / 2`` after de-duplication.
    feature_dim:
        Binary feature dimensions.  Must be ≥ 1: identity features are an
        n×n matrix, which is exactly what this generator exists to avoid.
    homophily:
        Target fraction of intra-class edges.
    degree_exponent:
        Pareto tail exponent for the Chung–Lu weights.
    feature_bits / feature_signal:
        Expected active bits per node and the fraction drawn from the
        class prototype dimensions.
    class_skew:
        Dirichlet concentration controlling class-size imbalance.
    max_rounds:
        Oversample-and-dedup rounds before accepting an edge shortfall
        (heavy-tailed weights make a few percent of draws collide).
    """

    num_nodes: int
    avg_degree: float = 8.0
    num_classes: int = 10
    feature_dim: int = 32
    homophily: float = 0.8
    degree_exponent: float = 2.0
    feature_bits: float = 6.0
    feature_signal: float = 0.75
    class_skew: float = 24.0
    max_rounds: int = 12

    def __post_init__(self) -> None:
        if self.num_nodes < 2 * self.num_classes or self.num_classes < 2:
            raise DatasetError(
                f"need at least {2 * self.num_classes} nodes and 2 classes, got "
                f"nodes={self.num_nodes}, classes={self.num_classes}"
            )
        if self.feature_dim < 1:
            raise DatasetError(
                "streamed SBM requires feature_dim >= 1 (identity features "
                "would densify to n×n)"
            )
        if self.avg_degree < 1.0:
            raise DatasetError(f"avg_degree must be >= 1, got {self.avg_degree}")
        if not 0.0 < self.homophily < 1.0:
            raise DatasetError(f"homophily must lie in (0, 1), got {self.homophily}")

    def scaled(self, scale: float) -> "StreamedSBMSpec":
        """Shrink the node count by ``scale`` (density/degree preserved)."""
        from dataclasses import replace as dc_replace

        if not 0.0 < scale <= 1.0:
            raise DatasetError(f"scale must lie in (0, 1], got {scale}")
        nodes = max(2 * self.num_classes, int(round(self.num_nodes * scale)))
        return dc_replace(self, num_nodes=nodes)


def _streamed_labels(spec: StreamedSBMSpec, rng: np.random.Generator) -> np.ndarray:
    proportions = rng.dirichlet(np.full(spec.num_classes, spec.class_skew))
    labels = rng.choice(spec.num_classes, size=spec.num_nodes, p=proportions)
    # Every class needs enough members to stratify splits later; fix any
    # shortfall by relabeling donors from the largest class.
    minimum = max(3, spec.num_nodes // (spec.num_classes * 50))
    counts = np.bincount(labels, minlength=spec.num_classes)
    for cls in np.flatnonzero(counts < minimum):
        shortfall = minimum - counts[cls]
        donor_cls = int(np.argmax(counts))
        donors = np.flatnonzero(labels == donor_cls)[:shortfall]
        labels[donors] = cls
        counts = np.bincount(labels, minlength=spec.num_classes)
    return labels


def _sample_endpoint_pairs(
    rng: np.random.Generator,
    cdf_u: np.ndarray,
    members_u: np.ndarray,
    cdf_v: np.ndarray,
    members_v: np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` weighted endpoint pairs via inverse-CDF searchsorted."""
    uu = members_u[np.searchsorted(cdf_u, rng.random(count), side="right")]
    vv = members_v[np.searchsorted(cdf_v, rng.random(count), side="right")]
    return uu, vv


def generate_streamed_sbm(
    spec: StreamedSBMSpec, seed: SeedLike = None, name: str = "streamed-sbm"
) -> Graph:
    """Generate a degree-corrected SBM graph without ever densifying.

    The pipeline is a fixed number of vectorized passes:

    1. labels from a Dirichlet-multinomial, Chung–Lu Pareto weights;
    2. the edge budget is split intra/inter by ``homophily`` and allocated
       across class pairs with one multinomial draw (intra mass ∝ squared
       class weight-mass, inter mass ∝ the pair's mass product);
    3. per class pair, endpoints are drawn weight-proportionally by
       inverse-CDF ``searchsorted``; self-pairs are dropped, duplicates are
       removed via canonical ``min·n + max`` keys, and the shortfall is
       redrawn for up to ``max_rounds`` oversampled rounds;
    4. the CSR is assembled directly — ``lexsort`` over the mirrored
       endpoint arrays, ``bincount``/``cumsum`` for ``indptr`` — bypassing
       COO conversion and its duplicate-summing machinery;
    5. features are one Bernoulli matrix draw against a per-class
       probability row (prototype dimensions boosted, background uniform).

    Peak memory is O(E + n·feature_dim); ``tests/test_streamed_sbm.py``
    holds a tracemalloc guard at the 100k tier to keep it that way.
    """
    rng = ensure_rng(seed)
    n = spec.num_nodes
    c = spec.num_classes
    labels = _streamed_labels(spec, rng)
    weights = rng.pareto(spec.degree_exponent, size=n) + 1.0

    class_members: list[np.ndarray] = []
    class_cdfs: list[np.ndarray] = []
    class_mass = np.zeros(c, dtype=np.float64)
    for cls in range(c):
        members = np.flatnonzero(labels == cls)
        w = weights[members]
        total = float(w.sum())
        class_members.append(members)
        class_cdfs.append(np.cumsum(w) / total)
        class_mass[cls] = total

    target_edges = int(round(n * spec.avg_degree / 2.0))
    target_intra = int(round(target_edges * spec.homophily))
    target_inter = target_edges - target_intra

    # Allocate the intra budget across classes and the inter budget across
    # unordered class pairs with single multinomial draws.
    intra_probs = class_mass**2 / float((class_mass**2).sum())
    intra_counts = rng.multinomial(target_intra, intra_probs)
    pair_a, pair_b = np.triu_indices(c, k=1)
    pair_mass = class_mass[pair_a] * class_mass[pair_b]
    inter_probs = pair_mass / float(pair_mass.sum())
    inter_counts = rng.multinomial(target_inter, inter_probs)

    def fill_pool(
        cls_u: int, cls_v: int, quota: int
    ) -> np.ndarray:
        """Collect ``quota`` unique canonical pair keys for one class pair."""
        pool = np.empty(0, dtype=np.int64)
        for _ in range(spec.max_rounds):
            deficit = quota - len(pool)
            if deficit <= 0:
                break
            draw = int(deficit * 1.25) + 16
            uu, vv = _sample_endpoint_pairs(
                rng,
                class_cdfs[cls_u],
                class_members[cls_u],
                class_cdfs[cls_v],
                class_members[cls_v],
                draw,
            )
            keep = uu != vv
            lo = np.minimum(uu[keep], vv[keep]).astype(np.int64)
            hi = np.maximum(uu[keep], vv[keep]).astype(np.int64)
            pool = np.unique(np.concatenate([pool, lo * n + hi]))
        if len(pool) > quota:
            pool = np.sort(rng.choice(pool, size=quota, replace=False))
        return pool

    pools = [fill_pool(cls, cls, int(q)) for cls, q in enumerate(intra_counts)]
    pools += [
        fill_pool(int(a), int(b), int(q))
        for a, b, q in zip(pair_a, pair_b, inter_counts)
    ]
    # Intra pools (same-label pairs) and inter pools (different-label pairs)
    # are disjoint key sets, and distinct class pairs cannot collide either —
    # one concatenate gives the global unique edge list.
    keys = np.concatenate([p for p in pools if len(p)])
    uu, vv = keys // n, keys % n

    # Reconnect isolated nodes to a weight-proportional same-class partner.
    degree = np.bincount(uu, minlength=n) + np.bincount(vv, minlength=n)
    lonely = np.flatnonzero(degree == 0)
    if len(lonely):
        extra = np.empty(len(lonely), dtype=np.int64)
        for i, node in enumerate(lonely):
            cls = int(labels[node])
            members = class_members[cls]
            partner = int(
                members[np.searchsorted(class_cdfs[cls], rng.random(), side="right")]
            )
            attempts = 0
            while partner == node and attempts < 20:
                partner = int(
                    members[
                        np.searchsorted(class_cdfs[cls], rng.random(), side="right")
                    ]
                )
                attempts += 1
            if partner == node:
                partner = (node + 1) % n
            lo, hi = (node, partner) if node < partner else (partner, node)
            extra[i] = lo * n + hi
        keys = np.unique(np.concatenate([keys, extra]))
        uu, vv = keys // n, keys % n

    # Direct CSR build from the mirrored endpoint arrays.
    rows = np.concatenate([uu, vv])
    cols = np.concatenate([vv, uu])
    order = np.lexsort((cols, rows))
    indices = cols[order].astype(np.int32 if n < 2**31 else np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.ones(len(rows), dtype=np.float64)
    adjacency = sp.csr_matrix((data, indices, indptr), shape=(n, n))

    # Features: one Bernoulli draw per node row against its class profile.
    d = spec.feature_dim
    background = spec.feature_bits * (1.0 - spec.feature_signal) / d
    proto_size = max(1, d // c)
    prob = np.full((c, d), background, dtype=np.float64)
    for cls in range(c):
        start = (cls * proto_size) % d
        dims = (start + np.arange(proto_size)) % d
        prob[cls, dims] += spec.feature_bits * spec.feature_signal / proto_size
    np.clip(prob, 0.0, 0.9, out=prob)
    features = (rng.random((n, d)) < prob[labels]).astype(np.float64)
    empty = np.flatnonzero(features.sum(axis=1) == 0)
    if len(empty):
        features[empty, rng.integers(0, d, size=len(empty))] = 1.0

    return Graph(adjacency=adjacency, features=features, labels=labels, name=name)
