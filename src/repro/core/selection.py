"""Exact greedy flip selection, shared by PEEGA and the exhaustive block attacks.

Alg. 1 commits the highest-scoring flip per gradient evaluation.  Ranking
the whole ``n² + n·d`` candidate space with ``argpartition`` every step
allocates a masked copy, its negation and an index array of that size —
more work than the flip itself needs.  :class:`FlipSelector` instead takes
the top-1 as a masked maximum:

* topology scores are reduced with a row-wise ``max(where=allowed)`` (the
  degree-chain term moves about half the nodes per flip, so every row of
  the score matrix changes and there is nothing to cache);
* feature scores are kept as per-row maxima in :class:`FeatureScores` and
  refreshed only on the rows whose ``∇_X̂ L`` changed or that were flipped;
* blocked candidates (flipped pairs and bits) are held as sparse sets and
  written into the score buffers as ``-inf`` — no dense allowed-mask copies.

The result is exactly the candidate the ``argpartition`` ranking returns
when the maximum is unique.  When it is not, the choice among the tied
entries is whatever ``argpartition`` leaves first, and that depends on the
CPU's SIMD sort path — not on a rule this module could reproduce.  So
exact ties, ``k > 1`` and the row-sliced frontier all go through the
original ranking (:meth:`FlipSelector._ranked`), unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .difference import _row_chunks

__all__ = ["FeatureScores", "FlipSelector"]

#: One ranked candidate: ``(kind, u, v, cost)`` with kind "edge" or "feature".
Candidate = tuple[str, int, int, float]


class FeatureScores:
    """Feature-flip scores ``S_f = ∇_X̂ L ⊙ (1 − 2X̂)`` as per-row maxima.

    Owns the poisoned features ``X̂`` (:attr:`values`) and applies the
    feature-side candidate mask:

    * bits already flipped are blocked (a sparse list, not a dense mask);
    * rows outside ``accessible`` are blocked (attacker-node constraint);
    * singleton protection (the Nettack convention): a row holding at most
      one set bit may not lose it — on identity-feature graphs (Polblogs)
      an unconstrained greedy would otherwise zero the whole matrix.

    A row's mask changes only when one of its bits flips, so a row's
    maximum is stale only where ``∇_X̂ L`` changed or the row was flipped.
    The flip directions ``1 − 2X̂`` (Def. 4) are exactly ±1 on binary
    features, so they are recomputed for the rows being scored rather than
    kept as a second (n, d) image of ``X̂``.
    """

    def __init__(
        self, features: np.ndarray, accessible: Optional[np.ndarray] = None
    ) -> None:
        self.values = np.array(features, dtype=np.float64, copy=True)
        n = len(self.values)
        self._row_sums = self.values.sum(axis=1)
        self._blocked_rows = None if accessible is None else ~np.asarray(accessible)
        self._flip_rows: list[int] = []
        self._flip_dims: list[int] = []
        self._grad: Optional[np.ndarray] = None
        self._row_max = np.full(n, -np.inf)
        self._stale = np.ones(n, dtype=bool)

    def flip(self, node: int, dim: int) -> None:
        """Flip bit ``(node, dim)`` of ``X̂`` and block it from now on."""
        bit = 1.0 - self.values[node, dim]
        self.values[node, dim] = bit
        self._row_sums[node] += 1.0 if bit else -1.0
        self._flip_rows.append(node)
        self._flip_dims.append(dim)
        self._stale[node] = True

    def update(self, grad: np.ndarray, rows: Optional[np.ndarray] = None) -> None:
        """Bind this step's ``∇_X̂ L``; ``rows`` changed since the last one."""
        self._grad = grad
        if rows is None:
            self._stale[:] = True
        else:
            self._stale[rows] = True

    def masked(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores of ``rows`` (all when ``None``), blocked bits at ``-inf``."""
        if rows is None:
            rows = np.arange(len(self.values))
            # One (n, d) buffer: the direction 1 - 2X̂ scaled in place.
            out = self.values * -2.0
            out += 1.0
            out *= self._grad
        else:
            out = self._grad[rows]
            out *= -2.0 * self.values[rows] + 1.0
        if self._blocked_rows is not None:
            out[self._blocked_rows[rows]] = -np.inf
        if self._flip_rows:
            where = np.full(len(self.values), -1)
            where[rows] = np.arange(len(rows))
            local = where[self._flip_rows]
            hit = local >= 0
            out[local[hit], np.asarray(self._flip_dims)[hit]] = -np.inf
        risky = self._row_sums[rows] <= 1.0
        if risky.any():
            block = out[risky]
            block[self.values[rows[risky]] == 1.0] = -np.inf
            out[risky] = block
        return out

    def top(self) -> tuple[float, int, int, bool]:
        """``(score, node, dim, unique)`` of the best unblocked bit."""
        stale = np.flatnonzero(self._stale)
        # Row chunks bound the scored slab; each row's maximum is its own.
        for rows in _row_chunks(stale, self.values.shape[1]):
            self._row_max[rows] = self.masked(rows).max(axis=1)
        self._stale[:] = False
        node = int(np.argmax(self._row_max))
        best = self._row_max[node]
        row = self.masked(np.array([node]))[0]
        dim = int(np.argmax(row))
        unique = (
            np.count_nonzero(self._row_max == best) == 1
            and np.count_nonzero(row == best) == 1
        )
        return float(best), node, dim, unique


class FlipSelector:
    """Best-first flip candidates over topology and feature scores.

    Parameters
    ----------
    num_nodes:
        ``n``; topology candidates are the pairs ``u < v``.
    edge_mask:
        Optional static ``(n, n)`` mask of attackable pairs (Fig 7a).
    frontier:
        Rows the topology scores are sliced to (the incremental engine's
        accessible nodes).  Scores are symmetric, so each undirected
        candidate is read from whichever accessible endpoint hosts its row.
    features:
        The feature-side candidates, or ``None`` for a topology-only attack.
    feature_cost:
        ``β``: feature scores are ranked as ``S_f / β`` (Sec. V-D1).
    """

    def __init__(
        self,
        num_nodes: int,
        edge_mask: Optional[np.ndarray] = None,
        frontier: Optional[np.ndarray] = None,
        features: Optional[FeatureScores] = None,
        feature_cost: float = 1.0,
    ) -> None:
        allowed = np.triu(np.ones((num_nodes, num_nodes), dtype=bool), k=1)
        if edge_mask is not None:
            allowed &= edge_mask
        self._frontier = frontier
        if frontier is not None:
            allowed = allowed[frontier] | allowed.T[frontier]
            self._row_of = np.full(num_nodes, -1)
            self._row_of[frontier] = np.arange(len(frontier))
        self._allowed = allowed
        self._blocked_u: list[int] = []
        self._blocked_v: list[int] = []
        self.features = features
        self.feature_cost = float(feature_cost)

    def block_edge(self, u: int, v: int) -> None:
        """Remove the (flipped) pair ``u < v`` from the candidates."""
        self._blocked_u.append(u)
        self._blocked_v.append(v)

    def select(self, score_t: Optional[np.ndarray], k: int) -> list[Candidate]:
        """Candidates best first; the first ``k`` are the ones to apply.

        ``score_t`` (full ``(n, n)`` or frontier rows) is overwritten: its
        blocked entries are set to ``-inf``.
        """
        if score_t is not None and self._blocked_u:
            uu, vv = np.asarray(self._blocked_u), np.asarray(self._blocked_v)
            if self._frontier is None:
                score_t[uu, vv] = -np.inf
            else:
                for rows, cols in ((uu, vv), (vv, uu)):
                    local = self._row_of[rows]
                    hit = local >= 0
                    score_t[local[hit], cols[hit]] = -np.inf
        if k == 1 and self._frontier is None:
            top = self._top1(score_t)
            if top is not None:
                return top
        return self._ranked(score_t, k)

    def _top1(self, score_t: Optional[np.ndarray]) -> Optional[list[Candidate]]:
        """The single best candidate, or ``None`` when its maximum is tied.

        Edges win cross-kind ties, as in the ranked list (edges come first
        and the sort is stable).
        """
        best_t = best_f = -np.inf
        if score_t is not None:
            row_max = score_t.max(axis=1, where=self._allowed, initial=-np.inf)
            u = int(np.argmax(row_max))
            best_t = row_max[u]
        if self.features is not None:
            raw, node, dim, unique_f = self.features.top()
            best_f = raw / self.feature_cost if self.feature_cost != 1.0 else raw
        if best_t == -np.inf and best_f == -np.inf:
            return []
        if best_t >= best_f:
            row = np.where(self._allowed[u], score_t[u], -np.inf)
            if (
                np.count_nonzero(row_max == best_t) == 1
                and np.count_nonzero(row == best_t) == 1
            ):
                return [("edge", u, int(np.argmax(row)), 1.0)]
            return None
        return [("feature", node, dim, self.feature_cost)] if unique_f else None

    def _ranked(self, score_t: Optional[np.ndarray], k: int) -> list[Candidate]:
        """Top candidates across both kinds via ``argpartition``, best first.

        Feature scores are normalized by their cost (``S_f / β``) so the
        comparison in Alg. 1 line 9 is cost-aware.
        """
        entries: list[tuple[float, str, int, int, float]] = []
        if score_t is not None and self._frontier is not None:
            # Row-sliced frontier: candidate (u, v) appears at (row u, col v)
            # and, when both endpoints are accessible, at (row v, col u) with
            # an identical score — deduplicate on the canonical pair.
            masked = np.where(self._allowed, score_t, -np.inf)
            take = min(2 * k + 2, masked.size - 1)
            flat = np.argpartition(-masked.ravel(), take)[: take + 1]
            flat = flat[np.argsort(-masked.ravel()[flat], kind="stable")]
            seen: set[tuple[int, int]] = set()
            for idx in flat:
                local, col = divmod(int(idx), masked.shape[1])
                if not np.isfinite(masked[local, col]):
                    continue
                u, v = int(self._frontier[local]), int(col)
                pair = (min(u, v), max(u, v))
                if pair in seen:
                    continue
                seen.add(pair)
                entries.append((float(masked[local, col]), "edge", *pair, 1.0))
                if len(seen) > k:
                    break
        elif score_t is not None:
            # Negate in place and select the *smallest* entries: equivalent to
            # argpartition(-masked) without a second (n, n) temporary.
            masked = np.where(self._allowed, score_t, -np.inf)
            np.negative(masked, out=masked)
            flat = np.argpartition(masked.ravel(), min(k, masked.size - 1))[: k + 1]
            for idx in flat:
                u, v = divmod(int(idx), masked.shape[1])
                if np.isfinite(masked[u, v]):
                    entries.append((float(-masked[u, v]), "edge", u, v, 1.0))

        if self.features is not None:
            masked = self.features.masked()
            np.negative(masked, out=masked)
            flat = np.argpartition(masked.ravel(), min(k, masked.size - 1))[: k + 1]
            # The cost-aware score S_f / beta (Sec. V-D1) is applied to the
            # selected handful only — division by a positive constant never
            # reorders the per-type top-k selection.
            cost = self.feature_cost
            for idx in flat:
                u, dim = divmod(int(idx), masked.shape[1])
                if np.isfinite(masked[u, dim]):
                    score = float(-masked[u, dim])
                    if cost != 1.0:
                        score /= cost
                    entries.append((score, "feature", u, dim, cost))

        entries.sort(key=lambda e: e[0], reverse=True)
        return [(kind, u, v, cost) for _, kind, u, v, cost in entries]
