"""Property tests for the propagation cache's delta updates.

Invariants locked down here:

* a flip followed by its inverse restores every cached array **bit-exactly**;
* incremental state always equals a from-scratch rebuild of the perturbed
  topology;
* a batch of flips leaves the same arrays, log and dirty rows as applying
  the flips one at a time;
* attacks never overspend the budget, under either scoring engine and any
  feature-cost weighting;
* a graph mutated behind the cache's back raises :class:`CacheError`
  instead of serving stale propagation state.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.attacks.base import AttackBudget
from repro.core.difference import DifferenceObjective
from repro.core.peega import PEEGA
from repro.errors import CacheError
from repro.graph import (
    EdgeFlip,
    FeatureFlip,
    Graph,
    PerturbationLog,
    apply_perturbations,
    flip_edges,
)
from repro.surrogate import PropagationCache


def _random_graph(seed: int, n: int = 40, density: float = 0.12, d: int = 8) -> Graph:
    rng = np.random.default_rng(seed)
    upper = np.triu((rng.random((n, n)) < density).astype(np.float64), 1)
    adjacency = upper + upper.T
    features = (rng.random((n, d)) < 0.4).astype(np.float64)
    return Graph(
        adjacency=sp.csr_matrix(adjacency), features=features, name=f"rand-{seed}"
    )


def _snapshot(cache: PropagationCache) -> tuple:
    """Bit-exact image of every cached array."""
    an = cache.normalized
    return (
        an.data.tobytes(),
        an.indices.tobytes(),
        an.indptr.tobytes(),
        cache.scaling.tobytes(),
        cache.loop_degrees.tobytes(),
    )


def _some_edge(graph: Graph) -> tuple[int, int]:
    coo = graph.adjacency.tocoo()
    for u, v in zip(coo.row, coo.col):
        if u < v:
            return int(u), int(v)
    raise AssertionError("graph has no edges")


def _some_non_edge(graph: Graph) -> tuple[int, int]:
    dense = graph.dense_adjacency()
    n = graph.num_nodes
    for u in range(n):
        for v in range(u + 1, n):
            if dense[u, v] == 0.0:
                return u, v
    raise AssertionError("graph is complete")


# ---------------------------------------------------------------------------
# Bit-exact restore
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flip_and_inverse_restore_bit_exact(seed):
    graph = _random_graph(seed)
    cache = PropagationCache(graph)
    clean = _snapshot(cache)

    for u, v in (_some_edge(graph), _some_non_edge(graph)):
        flip = EdgeFlip(u, v)
        cache.apply(flip)
        assert _snapshot(cache) != clean  # the flip visibly changed state
        cache.apply(flip)  # toggling again is the inverse
        assert _snapshot(cache) == clean


def test_flip_sequence_unwinds_bit_exact():
    graph = _random_graph(7)
    cache = PropagationCache(graph)
    clean = _snapshot(cache)
    e1 = EdgeFlip(*_some_edge(graph))
    e2 = EdgeFlip(*_some_non_edge(graph))
    e3 = EdgeFlip(0, graph.num_nodes - 1)
    for flip in (e1, e2, e3):
        cache.apply(flip)
    assert cache.version == 3
    for flip in (e3, e2, e1):  # unwind in reverse order
        cache.apply(flip)
    assert _snapshot(cache) == clean
    assert cache.version == 6  # the log keeps full history


def test_incremental_state_matches_rebuild():
    """After arbitrary flips the cached A_n equals a from-scratch cache of
    the equivalently-perturbed graph — bit for bit."""
    graph = _random_graph(11)
    flips = [
        EdgeFlip(*_some_edge(graph)),
        EdgeFlip(*_some_non_edge(graph)),
        EdgeFlip(2, 31),
        EdgeFlip(5, 17),
    ]
    cache = PropagationCache(graph)
    for flip in flips:
        cache.apply(flip)

    perturbed = apply_perturbations(graph, flips)
    rebuilt = PropagationCache(perturbed)
    assert _snapshot(cache) == _snapshot(rebuilt)
    # Derived powers agree as well (these go through separate sparse GEMMs,
    # so allow roundoff).
    np.testing.assert_allclose(
        cache.power(2).toarray(), rebuilt.power(2).toarray(), atol=1e-14
    )


def _random_flips(graph: Graph, seed: int, count: int) -> list:
    """Seeded mixed flips: removals of existing edges, fresh pairs, repeats
    of earlier pairs (which cancel), both orientations, feature flips."""
    rng = np.random.default_rng(seed)
    n, d = graph.num_nodes, graph.num_features
    coo = graph.adjacency.tocoo()
    existing = [(int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v]
    flips: list = []
    edges: list[tuple[int, int]] = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            flips.append(FeatureFlip(int(rng.integers(n)), int(rng.integers(d))))
            continue
        if kind < 0.4:
            u, v = existing[int(rng.integers(len(existing)))]
        elif kind < 0.6 and edges:
            u, v = edges[int(rng.integers(len(edges)))]
        else:
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v))
        flips.append(EdgeFlip(u, v))
    return flips


def _dirty_rows_reference(graph: Graph, flips: list) -> tuple[list, list]:
    """Dirty rows from independent rebuilds: after each edge flip, its two
    endpoints and their neighbours; one row per feature flip."""
    an_rows: set[int] = set()
    feature_rows: set[int] = set()
    edge_flips: list[EdgeFlip] = []
    for flip in flips:
        if isinstance(flip, FeatureFlip):
            feature_rows.add(flip.node)
            continue
        edge_flips.append(flip)
        adjacency = flip_edges(graph.adjacency, edge_flips)
        for node in (flip.u, flip.v):
            an_rows.add(node)
            an_rows.update(adjacency[node].indices.tolist())
    return sorted(an_rows), sorted(feature_rows)


@pytest.mark.parametrize("seed", range(8))
def test_batch_matches_sequential_and_rebuild(seed):
    graph = _random_graph(seed)
    flips = _random_flips(graph, seed, count=3 + 9 * seed)
    rng = np.random.default_rng(seed)
    # Split into batches at random cuts (empty batches included).
    cuts = np.sort(rng.integers(0, len(flips) + 1, size=3))
    batches = np.split(np.arange(len(flips)), cuts)

    batched = PropagationCache(graph)
    for batch in batches:
        batched.apply_batch(flips[i] for i in batch)
    sequential = PropagationCache(graph)
    for flip in flips:
        sequential.apply(flip)
    rebuilt = PropagationCache(apply_perturbations(graph, flips))

    assert _snapshot(batched) == _snapshot(sequential) == _snapshot(rebuilt)
    assert batched.log.key == sequential.log.key == PerturbationLog(list(flips)).key
    assert batched.version == sequential.version == len(flips)
    an_rows, feature_rows = batched.drain_dirty_rows()
    seq_an_rows, seq_feature_rows = sequential.drain_dirty_rows()
    ref_an_rows, ref_feature_rows = _dirty_rows_reference(graph, flips)
    assert an_rows.tolist() == seq_an_rows.tolist() == ref_an_rows
    assert feature_rows.tolist() == seq_feature_rows.tolist() == ref_feature_rows
    assert an_rows.dtype == feature_rows.dtype == np.int64
    assert len(batched.drain_dirty_rows()[0]) == 0  # drained once


def test_cancelling_batch_restores_state_but_dirties_rows():
    graph = _random_graph(6)
    cache = PropagationCache(graph)
    clean = _snapshot(cache)
    u, v = _some_edge(graph)
    cache.apply_batch([EdgeFlip(u, v), FeatureFlip(u, 0), EdgeFlip(v, u)])
    assert _snapshot(cache) == clean
    assert cache.version == 3
    an_rows, feature_rows = cache.drain_dirty_rows()
    neighbours = set(graph.adjacency[u].indices) | set(graph.adjacency[v].indices)
    assert an_rows.tolist() == sorted({u, v} | {int(j) for j in neighbours})
    assert feature_rows.tolist() == [u]


def test_empty_batch_is_a_no_op():
    graph = _random_graph(8)
    cache = PropagationCache(graph)
    clean = _snapshot(cache)
    first = cache.power(2)
    cache.apply_batch([])
    cache.apply_batch(iter(()))
    assert _snapshot(cache) == clean
    assert cache.version == 0 and cache.key == ()
    assert cache.power(2) is first
    an_rows, feature_rows = cache.drain_dirty_rows()
    assert len(an_rows) == len(feature_rows) == 0


def test_feature_flips_touch_log_but_not_topology():
    graph = _random_graph(3)
    cache = PropagationCache(graph)
    clean = _snapshot(cache)
    cache.apply(FeatureFlip(4, 2))
    assert cache.version == 1
    assert cache.key == (("feature", 4, 2),)
    assert _snapshot(cache) == clean


def test_powers_memoized_until_invalidated():
    graph = _random_graph(5)
    cache = PropagationCache(graph)
    first = cache.power(2)
    assert cache.power(2) is first  # memoized
    cache.apply(EdgeFlip(*_some_non_edge(graph)))
    assert cache.power(2) is not first  # flip invalidated derived powers
    assert cache.normalization_count == 1  # ...without renormalizing


# ---------------------------------------------------------------------------
# Budget accounting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("use_cache", [False, True])
@pytest.mark.parametrize("total,feature_cost", [(1, 1.0), (7, 1.0), (5, 2.5), (20, 0.5)])
def test_budget_never_exceeded(small_cora, use_cache, total, feature_cost):
    budget = AttackBudget(total=total, feature_cost=feature_cost)
    attacker = PEEGA(use_cache=use_cache, seed=0)
    result = attacker.attack(small_cora, budget)
    result.verify_budget()  # raises BudgetError on overspend
    assert result.spent <= budget.total + 1e-9
    assert result.num_perturbations > 0


def test_log_total_cost_weighting():
    log = PerturbationLog()
    log.record(EdgeFlip(0, 1))
    log.record(FeatureFlip(2, 3))
    log.record(FeatureFlip(2, 4))
    assert log.total_cost() == pytest.approx(3.0)
    assert log.total_cost(feature_cost=2.5) == pytest.approx(6.0)
    assert log.key == (("edge", 0, 1), ("feature", 2, 3), ("feature", 2, 4))


# ---------------------------------------------------------------------------
# Staleness detection
# ---------------------------------------------------------------------------
def test_out_of_band_mutation_raises():
    graph = _random_graph(9)
    cache = PropagationCache(graph)
    graph.adjacency.data[0] += 1.0  # mutate behind the cache's back
    with pytest.raises(CacheError):
        cache.normalized
    with pytest.raises(CacheError):
        cache.apply(EdgeFlip(0, 1))
    with pytest.raises(CacheError):
        cache.power(2)
    with pytest.raises(CacheError):
        cache.propagate(graph.features, 2)


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_out_of_band_structure_change_raises():
    graph = _random_graph(9)
    cache = PropagationCache(graph)
    u, v = _some_non_edge(graph)
    graph.adjacency[u, v] = 1.0  # structural change, not just a value edit
    with pytest.raises(CacheError):
        cache.normalized


def test_objective_rejects_foreign_or_dirty_cache():
    graph_a = _random_graph(1)
    graph_b = _random_graph(2)
    cache_b = PropagationCache(graph_b)
    with pytest.raises(CacheError):
        DifferenceObjective(graph_a, cache=cache_b)

    dirty = PropagationCache(graph_a)
    dirty.apply(EdgeFlip(*_some_non_edge(graph_a)))
    with pytest.raises(CacheError):
        DifferenceObjective(graph_a, cache=dirty)


def test_has_edge_tracks_flips():
    graph = _random_graph(4)
    cache = PropagationCache(graph)
    u, v = _some_non_edge(graph)
    assert not cache.has_edge(u, v)
    cache.apply(EdgeFlip(u, v))
    assert cache.has_edge(u, v) and cache.has_edge(v, u)
    cache.apply(EdgeFlip(u, v))
    assert not cache.has_edge(u, v)
