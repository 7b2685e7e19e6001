"""Shared flip selector vs the ``argpartition`` rankings it replaced.

:class:`~repro.core.selection.FlipSelector` serves PEEGA's two engines and
exhaustive GRBCD/PRBCD.  It takes the top-1 as a masked maximum with a
uniqueness check and keeps ``argpartition`` for exact ties, ``k > 1`` and
the row-sliced frontier.  The two oracles below are the rankings PEEGA and
GRBCD ran before, kept here as test references only.

``argpartition`` leaves exact ties in an order set by the CPU's SIMD sort
path, and on SIMD hosts that is usually *not* the lowest index.  The draws
therefore force ties at the top: a selector that resolved them by lowest
index (``np.argmax``) fails this suite.  CI also runs it with NumPy's SIMD
dispatch disabled, where ``argpartition`` takes its scalar path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import selection
from repro.core.selection import FeatureScores, FlipSelector


# ---------------------------------------------------------------------------
# Oracles: the rankings the shared selector replaced.


def peega_oracle(score_t, score_f, edge_allowed, feat_allowed, k, cost, row_index):
    """PEEGA's former ``_rank_candidates`` (dense masks, argpartition)."""
    entries = []
    if score_t is not None and row_index is not None:
        allowed = edge_allowed[row_index] | edge_allowed.T[row_index]
        masked = np.where(allowed, score_t, -np.inf)
        take = min(2 * k + 2, masked.size - 1)
        flat = np.argpartition(-masked.ravel(), take)[: take + 1]
        flat = flat[np.argsort(-masked.ravel()[flat], kind="stable")]
        seen = set()
        for idx in flat:
            local, col = divmod(int(idx), masked.shape[1])
            if not np.isfinite(masked[local, col]):
                continue
            u, v = int(row_index[local]), int(col)
            pair = (min(u, v), max(u, v))
            if pair in seen:
                continue
            seen.add(pair)
            entries.append((float(masked[local, col]), "edge", *pair, 1.0))
            if len(seen) > k:
                break
    elif score_t is not None:
        masked = np.where(edge_allowed, score_t, -np.inf)
        np.negative(masked, out=masked)
        flat = np.argpartition(masked.ravel(), min(k, masked.size - 1))[: k + 1]
        for idx in flat:
            u, v = divmod(int(idx), masked.shape[1])
            if np.isfinite(masked[u, v]):
                entries.append((float(-masked[u, v]), "edge", u, v, 1.0))
    if score_f is not None:
        masked = np.where(feat_allowed, score_f, -np.inf)
        np.negative(masked, out=masked)
        flat = np.argpartition(masked.ravel(), min(k, masked.size - 1))[: k + 1]
        for idx in flat:
            u, dim = divmod(int(idx), masked.shape[1])
            if np.isfinite(masked[u, dim]):
                score = float(-masked[u, dim])
                if cost != 1.0:
                    score /= cost
                entries.append((score, "feature", u, dim, cost))
    entries.sort(key=lambda e: e[0], reverse=True)
    return [(kind, u, v, c) for _, kind, u, v, c in entries]


def grbcd_oracle(scores, uu, vv, edge_allowed, k):
    """GRBCD's former ``_rank_like_peega`` (scatter back, argpartition)."""
    n = edge_allowed.shape[0]
    score_matrix = np.zeros((n, n), dtype=np.float64)
    score_matrix[uu, vv] = scores
    masked = np.where(edge_allowed, score_matrix, -np.inf)
    np.negative(masked, out=masked)
    flat = np.argpartition(masked.ravel(), min(k, masked.size - 1))[: k + 1]
    entries = []
    for idx in flat:
        u, v = divmod(int(idx), n)
        if np.isfinite(masked[u, v]):
            entries.append((float(-masked[u, v]), u, v))
    entries.sort(key=lambda e: e[0], reverse=True)
    return [(u, v) for _, u, v in entries[:k]]


# ---------------------------------------------------------------------------
# Seeded draws.


class Draw:
    """One candidate space in both representations: the selector's sparse
    blocked sets and the oracle's dense masks, kept in step."""

    def __init__(self, rng, n, d, *, cost=1.0, accessible=None, mode="any",
                 frontier=False, topology=True, features=True):
        self.rng, self.n, self.d, self.cost = rng, n, d, cost
        x = (rng.random((n, d)) < 0.1).astype(np.float64)
        # Rows with at most one bit exercise singleton protection.
        lonely = rng.choice(n, n // 4, replace=False)
        x[lonely] = 0.0
        x[lonely[::2], rng.integers(0, d, len(lonely[::2]))] = 1.0
        self.edge_allowed = np.triu(np.ones((n, n), dtype=bool), k=1)
        self.feat_allowed = np.ones((n, d), dtype=bool)
        edge_mask = None
        self.frontier = None
        if accessible is not None:
            edge_mask = (
                accessible[:, None] | accessible[None, :]
                if mode == "any"
                else accessible[:, None] & accessible[None, :]
            )
            self.edge_allowed &= edge_mask
            self.feat_allowed[~accessible] = False
            if frontier:
                self.frontier = np.flatnonzero(accessible)
        self.features = FeatureScores(x, accessible) if features else None
        self.values = x if self.features is None else self.features.values
        self.topology = topology
        self.selector = FlipSelector(
            n, edge_mask=edge_mask, frontier=self.frontier,
            features=self.features, feature_cost=cost,
        )

    def block_edges(self, count):
        uu, vv = np.nonzero(self.edge_allowed)
        for i in self.rng.choice(len(uu), min(count, len(uu)), replace=False):
            self.block_edge(int(uu[i]), int(vv[i]))

    def block_edge(self, u, v):
        self.selector.block_edge(u, v)
        self.edge_allowed[u, v] = False

    def flip_bits(self, count):
        rows, dims = np.nonzero(self.feat_allowed)
        for i in self.rng.choice(len(rows), min(count, len(rows)), replace=False):
            self.flip_bit(int(rows[i]), int(dims[i]))

    def flip_bit(self, u, dim):
        self.features.flip(u, dim)
        self.feat_allowed[u, dim] = False

    def feature_mask(self):
        mask = self.feat_allowed.copy()
        risky = np.flatnonzero(self.values.sum(axis=1) <= 1.0)
        mask[risky] &= self.values[risky] != 1.0
        return mask

    def scores(self, tie, lead=None):
        """Symmetric topology scores and feature gradients on a coarse grid
        (ties everywhere).  ``tie`` forces or removes ties at the top of
        each kind; ``lead`` picks the kind with the higher top ("equal":
        the same cost-scaled score)."""
        rng, n = self.rng, self.n
        lead = lead or ("edge", "feature", "equal")[int(rng.integers(3))]
        s = rng.integers(-8, 9, (n, n)) * 0.125
        s = np.triu(s, 1) + np.triu(s, 1).T
        g = rng.integers(-8, 9, (n, self.d)) * 0.125
        if tie != "natural":
            top = 2.0
            uu, vv = np.nonzero(self.edge_allowed)
            if len(uu):
                count = 1 if tie == "unique" else int(rng.integers(2, 6))
                for i in rng.choice(len(uu), min(count, len(uu)), replace=False):
                    s[uu[i], vv[i]] = s[vv[i], uu[i]] = top
            rows, dims = np.nonzero(self.feature_mask())
            if len(rows):
                count = 1 if tie == "unique" else int(rng.integers(2, 6))
                for i in rng.choice(len(rows), min(count, len(rows)), replace=False):
                    r, c = rows[i], dims[i]
                    f_top = top + {"edge": -0.5, "feature": 0.5, "equal": 0.0}[lead]
                    g[r, c] = f_top * self.cost * (1.0 - 2.0 * self.values[r, c])
        return s, g

    def compare(self, s, g, k, rows=None):
        score_t = None if not self.topology else (
            s if self.frontier is None else s[self.frontier]
        )
        score_f = None
        if self.features is not None:
            self.features.update(g, rows)
            score_f = g * (-2.0 * self.values + 1.0)
        want = peega_oracle(
            score_t, score_f, self.edge_allowed, self.feature_mask(), k,
            self.cost, self.frontier,
        )
        got = self.selector.select(None if score_t is None else score_t.copy(), k)
        assert got[:k] == want[:k]
        return got[:k]


@pytest.fixture
def ranked_calls(monkeypatch):
    """Count the selections that fell back to the argpartition ranking."""
    calls = {"ranked": 0, "fast": 0}
    ranked = FlipSelector._ranked
    top1 = FlipSelector._top1

    def counting_ranked(self, score_t, k):
        calls["ranked"] += 1
        return ranked(self, score_t, k)

    def counting_top1(self, score_t):
        result = top1(self, score_t)
        calls["fast"] += result is not None
        return result

    monkeypatch.setattr(selection.FlipSelector, "_ranked", counting_ranked)
    monkeypatch.setattr(selection.FlipSelector, "_top1", counting_top1)
    return calls


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("cost", [1.0, 0.5, 2.5])
def test_matches_peega_oracle(k, cost, ranked_calls):
    rng = np.random.default_rng([k, int(cost * 10)])
    for draw_index in range(60):
        n, d = int(rng.integers(24, 48)), int(rng.integers(12, 40))
        draw = Draw(rng, n, d, cost=cost)
        draw.block_edges(int(rng.integers(0, 3 * n)))
        draw.flip_bits(int(rng.integers(0, 2 * n)))
        tie = ("forced", "unique", "natural")[draw_index % 3]
        draw.compare(*draw.scores(tie), k)
    if k == 1:
        # Both the masked-argmax path and the tie fallback were exercised.
        assert ranked_calls["fast"] >= 10 and ranked_calls["ranked"] >= 10


@pytest.mark.parametrize("k", [1, 2, 4])
def test_equal_topology_and_feature_tops(k):
    """A cross-kind tie at the top goes to the edge, as the stable sort
    of the ranked list does."""
    rng = np.random.default_rng(100 + k)
    for _ in range(40):
        draw = Draw(rng, int(rng.integers(24, 40)), int(rng.integers(12, 30)))
        s, g = draw.scores(("unique", "forced")[k % 2], lead="equal")
        got = draw.compare(s, g, k)
        assert got[0][0] == "edge"


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("case", ["edges", "features", "both"])
def test_all_blocked(k, case):
    rng = np.random.default_rng([200, k, len(case)])
    n, d = 14, 9
    draw = Draw(rng, n, d)
    if case != "features":
        draw.block_edges(n * n)
    if case != "edges":
        draw.flip_bits(n * d)
    got = draw.compare(*draw.scores("forced"), k)
    kinds = {kind for kind, _, _, _ in got}
    assert kinds == {"edges": {"feature"}, "features": {"edge"}, "both": set()}[case]


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("mode", ["any", "both"])
@pytest.mark.parametrize("frontier", [False, True])
def test_attacker_nodes_and_frontier(k, mode, frontier):
    rng = np.random.default_rng([300, k, frontier, mode == "any"])
    for draw_index in range(30):
        n, d = int(rng.integers(24, 48)), int(rng.integers(12, 30))
        accessible = rng.random(n) < 0.4
        accessible[0] = True
        draw = Draw(rng, n, d, accessible=accessible, mode=mode, frontier=frontier)
        draw.block_edges(int(rng.integers(0, n)))
        draw.flip_bits(int(rng.integers(0, n)))
        draw.compare(*draw.scores(("forced", "unique", "natural")[draw_index % 3]), k)


@pytest.mark.parametrize("topology,features", [(True, False), (False, True)])
def test_single_kind(topology, features):
    rng = np.random.default_rng(400 + topology)
    for draw_index in range(40):
        draw = Draw(rng, 30, 20, topology=topology, features=features)
        draw.compare(*draw.scores(("forced", "unique")[draw_index % 2]), 1)


@pytest.mark.parametrize("cost", [1.0, 2.5])
def test_greedy_loop_refreshes_feature_row_maxima(cost):
    """Across greedy steps only some gradient rows change (``rows``) and
    flipped rows go stale; the per-row maxima must track the oracle's
    from-scratch ranking at every step."""
    rng = np.random.default_rng(int(cost * 10))
    for _ in range(6):
        draw = Draw(rng, 40, 30, cost=cost)
        s, g = draw.scores("natural")
        rows = None
        for _ in range(25):
            (kind, u, v, _), = draw.compare(s, g, 1, rows)
            if kind == "edge":
                draw.block_edge(u, v)
            else:
                draw.flip_bit(u, v)
            tie = ("forced", "unique", "natural")[int(rng.integers(3))]
            s, fresh = draw.scores(tie)
            rows = np.sort(rng.choice(40, int(rng.integers(0, 12)), replace=False))
            g = g.copy()
            g[rows] = fresh[rows]


@pytest.mark.parametrize("k", [1, 2, 4])
def test_matches_grbcd_oracle(k):
    rng = np.random.default_rng(500 + k)
    for draw_index in range(60):
        n = int(rng.integers(24, 60))
        draw = Draw(rng, n, 4, features=False)
        draw.block_edges(int(rng.integers(0, 2 * n)))
        s, _ = draw.scores(("forced", "unique", "natural")[draw_index % 3])
        uu, vv = np.nonzero(draw.edge_allowed)
        want = grbcd_oracle(s[uu, vv], uu, vv, draw.edge_allowed, k)
        got = [(u, v) for _, u, v, _ in draw.selector.select(s.copy(), k)[:k]]
        assert got == want
