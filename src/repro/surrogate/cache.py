"""Incremental propagation cache for greedy structure attacks.

PEEGA's greedy loop (Alg. 1) evaluates the surrogate ``M = A_n^l X`` once per
flip.  The reference dense path rebuilds ``A_n = D^{-1/2}(A+I)D^{-1/2}`` from
scratch inside the autodiff graph for every evaluation — an O(n²) rebuild plus
an O(n²)-tensor tape, per flip.  :class:`PropagationCache` removes that cost:

* the normalized adjacency is built **once** (one normalization per attack
  run) and kept as a sparse CSR matrix;
* a batch of ``b`` flips costs one O(nnz + b log b) pass: pairs flipped an
  even number of times cancel, the net flips are merged into the sorted CSR
  keys, only the touched degrees and scaling coefficients are recomputed,
  and the values are rewritten once;
* matrix powers ``A_n^k`` are memoized and derived from the stored ``A_n``
  (``A_n²`` is one sparse product away, never a renormalization), keyed on the
  perturbation log so a flip invalidates exactly the derived state;
* the cache fingerprints the adjacency of the graph it is bound to and
  raises :class:`~repro.errors.CacheError` instead of serving stale
  ``A_n^l X`` if the graph is mutated out of band.

Numerical contract: the scaling vector uses the *same* guarded formula as the
dense differentiable path (:func:`repro.graph.inv_sqrt_degrees`), so cached
values match the dense reference bit-for-bit at the clean state, and a flip
followed by its inverse restores every cached array bit-exactly (scaling
coefficients are recomputed from integral degrees, never rescaled in place).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

import numpy as np
import scipy.sparse as sp

from ..errors import CacheError, ConfigError
from ..graph import EdgeFlip, FeatureFlip, Graph, PerturbationLog, inv_sqrt_degrees
from ..graph.perturb import net_edge_keys

__all__ = ["PropagationCache"]


def _adjacency_fingerprint(adjacency: sp.csr_matrix) -> tuple:
    """Cheap content hash of a CSR matrix (structure and values)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    digest.update(adjacency.data.tobytes())
    return (adjacency.shape, adjacency.nnz, digest.digest())


class PropagationCache:
    """Memoized ``A_n`` (and powers) under an evolving perturbation log.

    Parameters
    ----------
    graph:
        The clean graph the cache is bound to.  The cache never mutates it;
        flips are applied to the cache's own sparse state and recorded in
        :attr:`log`.

    Notes
    -----
    The cached matrix always carries the *current* perturbed topology, i.e.
    the clean adjacency with every logged edge flip applied.  Feature flips
    are recorded in the log (they are part of the perturbation identity) but
    do not touch the propagation matrix — ``X̂`` is an argument of
    :meth:`propagation_stack`, not cached state.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._fingerprint = _adjacency_fingerprint(graph.adjacency)
        self.log = PerturbationLog()
        self.normalization_count = 0
        self._powers: dict[int, sp.csr_matrix] = {}
        self._dirty_an_rows = np.zeros(graph.num_nodes, dtype=bool)
        self._dirty_feature_rows = np.zeros(graph.num_nodes, dtype=bool)
        self._normalize()

    # ------------------------------------------------------------------
    # Construction / invalidation
    # ------------------------------------------------------------------
    def _normalize(self) -> None:
        """Build ``A_n`` from scratch — called exactly once, at bind time."""
        n = self._graph.num_nodes
        structure = (self._graph.adjacency + sp.eye(n, format="csr")).tocsr()
        structure.sort_indices()
        self._loop_degrees = np.asarray(structure.sum(axis=1)).ravel()
        self._scaling = inv_sqrt_degrees(self._loop_degrees)
        row_index = np.repeat(np.arange(n), np.diff(structure.indptr))
        data = self._scaling[row_index] * self._scaling[structure.indices]
        self._an = sp.csr_matrix(
            (data, structure.indices.copy(), structure.indptr.copy()), shape=(n, n)
        )
        self.normalization_count += 1

    def check_binding(self) -> None:
        """Raise :class:`CacheError` if the bound graph changed out of band."""
        if _adjacency_fingerprint(self._graph.adjacency) != self._fingerprint:
            raise CacheError(
                "the graph bound to this PropagationCache was mutated out of "
                "band; rebuild the cache instead of serving stale A_n^l X"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The clean graph this cache is bound to."""
        return self._graph

    @property
    def version(self) -> int:
        """Number of logged perturbations (0 = clean state)."""
        return len(self.log)

    @property
    def key(self) -> tuple:
        """Hashable identity of the cached perturbed state."""
        return self.log.key

    @property
    def normalized(self) -> sp.csr_matrix:
        """``A_n`` for the current perturbed topology (verified fresh)."""
        self.check_binding()
        return self._an

    @property
    def scaling(self) -> np.ndarray:
        """The scaling vector ``s = (d + 1 + eps)^{-1/2}`` (view, do not mutate)."""
        return self._scaling

    @property
    def loop_degrees(self) -> np.ndarray:
        """Self-loop-augmented degrees ``rowsum(Â + I)`` (view, do not mutate)."""
        return self._loop_degrees

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the *current perturbed* topology contains edge ``(u, v)``."""
        indptr, indices = self._an.indptr, self._an.indices
        row = indices[indptr[u] : indptr[u + 1]]
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def has_edges(self, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` over endpoint index arrays.

        ``A_n`` stores an explicit (positive) entry for every current edge
        plus the self-loops, so for ``u != v`` membership of ``(u, v)`` in
        its sparsity pattern is exactly edge existence.  This is the
        block-sampled attackers' candidate-direction lookup — O(|pairs| ·
        log deg), never materializing anything dense.
        """
        uu = np.asarray(uu, dtype=np.int64)
        vv = np.asarray(vv, dtype=np.int64)
        if len(uu) == 0:
            return np.zeros(0, dtype=bool)
        # scipy's compiled per-pair sampling; every stored value is a
        # positive product of scaling coefficients, so != 0 is membership.
        sampled = np.asarray(self._an[uu, vv]).ravel()
        return sampled != 0.0

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def power(self, layers: int) -> sp.csr_matrix:
        """``A_n^layers``, memoized; higher powers derive from stored ``A_n``."""
        if layers < 1:
            raise ConfigError(f"layers must be >= 1, got {layers}")
        self.check_binding()
        if 1 not in self._powers:
            self._powers[1] = self._an
        highest = max(self._powers)
        while highest < layers:
            nxt = (self._powers[highest] @ self._an).tocsr()
            nxt.sort_indices()
            highest += 1
            self._powers[highest] = nxt
        return self._powers[layers]

    def propagation_stack(
        self, features: np.ndarray, layers: int
    ) -> list[np.ndarray]:
        """All intermediate products ``[X̂, A_nX̂, …, A_n^lX̂]`` (length l+1)."""
        if layers < 1:
            raise ConfigError(f"layers must be >= 1, got {layers}")
        self.check_binding()
        out = [np.asarray(features, dtype=np.float64)]
        for _ in range(layers):
            out.append(self._an @ out[-1])
        return out

    def propagate(self, features: np.ndarray, layers: int) -> np.ndarray:
        """The surrogate representations ``A_n^layers X̂``."""
        return self.propagation_stack(features, layers)[-1]

    # ------------------------------------------------------------------
    # Delta updates
    # ------------------------------------------------------------------
    def apply(self, flip: Union[EdgeFlip, FeatureFlip]) -> None:
        """Apply one perturbation to the cached state and log it.

        Applying the same flip twice restores the cached state bit-exactly.
        """
        self.check_binding()
        self._apply_flips((flip,))

    def apply_batch(self, flips: Iterable[Union[EdgeFlip, FeatureFlip]]) -> None:
        """Apply a sequence of perturbations in one pass.

        Bit-identical to calling :meth:`apply` per flip — same ``A_n``,
        degrees, scaling, log and dirty rows — but the binding check (a
        full-adjacency hash) and the CSR rebuild run once per batch instead
        of once per flip.  The block-sampled attackers re-round δ edges per
        epoch; per-flip rebuilds would make that O(δ · nnz).
        """
        self.check_binding()
        self._apply_flips(flips)

    def _apply_flips(self, flips: Iterable[Union[EdgeFlip, FeatureFlip]]) -> None:
        """Log ``flips`` and apply their net topology change: O(nnz + b log b).

        Only the pairs flipped an odd number of times change the structure
        (:func:`~repro.graph.perturb.net_edge_keys`).  Their directed keys
        ``row·n + col`` are dropped from (or merged into) the sorted key
        array of the stored entries, degrees move by the net ±1 counts, the
        scaling of the touched nodes is recomputed from the integral
        degrees, and every value is rewritten as ``s[row]·s[col]`` — the
        formula :meth:`_normalize` uses — so the result equals per-flip
        application and a from-scratch rebuild bit for bit.
        """
        n = self._graph.num_nodes
        pairs = []
        for flip in flips:
            if isinstance(flip, FeatureFlip):
                self._dirty_feature_rows[flip.node] = True
            else:
                pairs.append((flip.u, flip.v))
            self.log.record(flip)
        if not pairs:
            return
        endpoints = np.asarray(pairs, dtype=np.int64)
        pair_keys = net_edge_keys(endpoints, n)
        flipped = np.sort(
            np.concatenate([pair_keys, (pair_keys % n) * n + pair_keys // n])
        )
        an = self._an
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(an.indptr))
        keys = keys * n + an.indices
        pos = np.searchsorted(keys, flipped)
        removing = keys[np.minimum(pos, len(keys) - 1)] == flipped
        keys = np.delete(keys, pos[removing])
        added = flipped[~removing]
        keys = np.insert(keys, np.searchsorted(keys, added), added)
        rows, cols = np.divmod(keys, n)

        touched = flipped // n
        np.add.at(self._loop_degrees, touched, np.where(removing, -1.0, 1.0))
        self._scaling[touched] = inv_sqrt_degrees(self._loop_degrees[touched])
        self._an = sp.csr_matrix(
            (
                self._scaling[rows] * self._scaling[cols],
                cols,
                np.searchsorted(rows, np.arange(n + 1)),
            ),
            shape=(n, n),
        )
        # Rows whose A_n values may have changed: every endpoint plus its
        # final neighbours.  A neighbour that was dropped or added inside
        # the batch is itself an endpoint, so this is exactly the union of
        # the per-flip dirty sets.
        is_endpoint = np.zeros(n, dtype=bool)
        is_endpoint[endpoints.ravel()] = True
        self._dirty_an_rows |= is_endpoint
        self._dirty_an_rows[cols[is_endpoint[rows]]] = True
        self._powers.clear()

    def drain_dirty_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``A_n`` / rows of ``X̂`` changed since the last drain.

        Returns sorted index arrays ``(an_rows, feature_rows)`` and clears
        the accumulators.  This powers incremental consumers (the
        :class:`~repro.core.difference.IncrementalScorer`): only these rows
        — and their propagation fan-out — need re-materializing.  There
        must be a single draining consumer per cache.
        """
        an_rows = np.flatnonzero(self._dirty_an_rows)
        feature_rows = np.flatnonzero(self._dirty_feature_rows)
        self._dirty_an_rows[:] = False
        self._dirty_feature_rows[:] = False
        return an_rows, feature_rows
