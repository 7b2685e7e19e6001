"""Sampled-block structure attacks: PRBCD and GRBCD.

Every other attacker in the repo scores an O(n²) candidate space per step
(PEEGA's dense candidate directions, Metattack's unrolled dense surrogate),
which caps the threat model at toy graphs.  *Robustness of Graph Neural
Networks at Scale* (Geisler et al., NeurIPS 2021 — see PAPERS.md) shows that
randomized block coordinate descent makes structure attacks tractable at
millions of nodes: per iteration, sample a block of candidate edge
perturbations with replacement, score only that block, and either commit the
best flips greedily (GRBCD) or ascend a relaxed edge-weight vector, project
it onto the budget, resample the zero-mass remainder, and commit the
top-mass flips at the end (PRBCD).

Both attackers here drive the paper's black-box representation-difference
objective (``Dif1 + λ·Dif2`` over the linear surrogate ``A_n^l X``) instead
of a label-based loss — they are PEEGA's objective carried to scale, not a
new threat model.  Scoring goes through
:meth:`~repro.core.difference.IncrementalScorer.pair_gradients`: closed-form
sparse gradients restricted to the sampled pairs, with the cache's dirty-row
patching amortizing everything a committed flip touches.  Per-iteration cost
is O(block · layers · d), never O(n²).  GRBCD is a step function in the
greedy loop it shares with PEEGA (:mod:`repro.attacks.greedy`), which owns
its flip log, cache commits, ``rbcd`` poll site and snapshots; PRBCD keeps
its own epoch loop.

Exhaustive reduction: when ``block_size`` covers the whole candidate space
``n(n-1)/2`` the samplers disappear and scoring routes through the
full-matrix engine — GRBCD's step becomes exactly PEEGA's topology-only step
(bit-identical flip sequences, including argpartition tie order) and PRBCD's
top-mass commit reduces to exhaustive top-δ selection.  The equivalence tier
in ``tests/test_rbcd_equivalence.py`` locks both down against the dense
oracle.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

import numpy as np

from ..core.difference import DifferenceObjective, IncrementalScorer
from ..core.selection import FlipSelector
from ..errors import ConfigError, DegradedWarning
from ..graph import EdgeFlip, Graph, apply_perturbations
from ..surrogate import PropagationCache
from ..utils import cancellation, faults, snapshots
from ..utils.rng import SeedLike
from .base import AttackBudget, Attacker, AttackResult
from .greedy import GreedyRun

__all__ = [
    "PRBCD",
    "GRBCD",
    "sample_candidate_pairs",
    "encode_pair_keys",
    "decode_pair_keys",
    "project_onto_budget",
]


def encode_pair_keys(uu: np.ndarray, vv: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonical int64 key ``min·n + max`` for undirected pairs."""
    lo = np.minimum(uu, vv).astype(np.int64)
    hi = np.maximum(uu, vv).astype(np.int64)
    return lo * num_nodes + hi


def decode_pair_keys(keys: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_pair_keys` — returns ``(uu, vv)`` with u < v."""
    return keys // num_nodes, keys % num_nodes


def sample_candidate_pairs(
    rng: np.random.Generator,
    num_nodes: int,
    count: int,
    exclude_keys: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample ``count`` undirected candidate pairs with replacement.

    Returns the *deduplicated* canonical keys, sorted ascending (so the
    realized block is typically a little smaller than ``count``).
    Self-pairs are rejected and ``exclude_keys`` (sorted unique keys — e.g.
    already-flipped pairs or the kept block remainder) never reappear.
    """
    uu = rng.integers(0, num_nodes, size=count, dtype=np.int64)
    vv = rng.integers(0, num_nodes, size=count, dtype=np.int64)
    keep = uu != vv
    keys = np.unique(encode_pair_keys(uu[keep], vv[keep], num_nodes))
    if exclude_keys is not None and len(exclude_keys):
        keys = keys[~np.isin(keys, exclude_keys, assume_unique=True)]
    return keys


def project_onto_budget(
    weights: np.ndarray, budget: float, iterations: int = 64
) -> np.ndarray:
    """Euclidean projection onto ``{w : 0 ≤ w ≤ 1, Σw ≤ budget}``.

    Bisection on the simplex shift θ with a fixed iteration count —
    deterministic, and *monotone* in the input: ``w_i > w_j`` never reverses
    under the projection.  With static scores this makes the committed mass
    order equal the score order, which is what reduces full-block PRBCD to
    exhaustive top-δ selection (the equivalence tier).
    """
    clipped = np.clip(weights, 0.0, 1.0)
    if float(clipped.sum()) <= budget:
        return clipped
    lo = float(weights.min()) - 1.0
    hi = float(weights.max())
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if float(np.clip(weights - mid, 0.0, 1.0).sum()) > budget:
            lo = mid
        else:
            hi = mid
    return np.clip(weights - hi, 0.0, 1.0)


class _BlockCoordinateAttacker(Attacker):
    """Shared setup/scoring for the sampled-block structure attackers.

    Topology-only by construction (feature flips have an O(n·d) candidate
    space and need no block sampling — combine with PEEGA's FP attack if
    both are wanted).  Parameters mirror PEEGA's objective knobs; ``lam``
    defaults to 0 because the global view keeps O(E·d) per-edge gradient
    state, which is the one buffer worth skipping at the 1M tier.
    """

    requires_labels = False
    requires_model = False
    requires_predictions = False

    def __init__(
        self,
        lam: float = 0.0,
        p: Union[int, float] = 2,
        layers: int = 2,
        block_size: int = 100_000,
        focus_training_nodes: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {block_size}")
        if layers < 1:
            raise ConfigError(f"layers must be >= 1, got {layers}")
        self.lam = float(lam)
        self.p = p
        self.layers = int(layers)
        self.block_size = int(block_size)
        self.focus_training_nodes = bool(focus_training_nodes)
        # Working block size for the current run.  Starts at ``block_size``
        # every run and halves each time a block allocation raises
        # ``MemoryError`` (see ``_shrink_block``) — never mutates the
        # configured ``block_size``, so attacker instances stay reusable.
        self._active_block = self.block_size

    # ------------------------------------------------------------------
    def _make_scorer(self, graph: Graph) -> tuple[PropagationCache, IncrementalScorer]:
        node_mask = (
            graph.train_mask
            if self.focus_training_nodes and graph.train_mask is not None
            else None
        )
        cache = PropagationCache(graph)
        objective = DifferenceObjective(
            graph,
            layers=self.layers,
            p=self.p,
            lam=self.lam,
            node_mask=node_mask,
            cache=cache,
        )
        return cache, IncrementalScorer(objective, cache)

    def _is_exhaustive(self, num_nodes: int) -> bool:
        return self._active_block >= num_nodes * (num_nodes - 1) // 2

    def _shrink_block(self, error: BaseException) -> bool:
        """Halve the working block after a ``MemoryError``; False when spent.

        The shrink is deterministic given the failure point (no clocks, no
        sampling), so an injected ``rbcd:oom`` fault reproduces the exact
        degraded flip sequence.  Returns False once the block cannot shrink
        below a single pair, at which point the error propagates to the
        trial supervisor, which retries the trial as configured.
        """
        if self._active_block <= 1:
            return False
        self._active_block = max(1, self._active_block // 2)
        warnings.warn(
            f"{self.name}: candidate block exhausted memory ({error!r}); "
            f"retrying with block_size={self._active_block}",
            DegradedWarning,
            stacklevel=3,
        )
        return True

    def _block_scores(
        self,
        scorer: IncrementalScorer,
        cache: PropagationCache,
        features: np.ndarray,
        uu: np.ndarray,
        vv: np.ndarray,
        exhaustive: bool,
    ) -> tuple[np.ndarray, float]:
        """Flip scores ``S = (∇_Â L + ∇_Â Lᵀ) ⊙ (1 − 2Â)`` at the pairs.

        Sampled blocks use the O(block) pair kernel.  Exhaustive blocks (the
        PRBCD epochs; exhaustive GRBCD scores the whole matrix itself)
        gather from the full-matrix engine instead: its entries are the ones
        locked bitwise to the dense oracle, so "block ≥ candidate space"
        degenerates to exactly the scoring PEEGA performs — including the
        last-ulp bit patterns that decide p=1 tie order.  (The pair kernel
        agrees with those entries only to ~1e-12 relative: BLAS uses
        different tile paths for block-diagonal GEMMs, see
        ``pairwise_gemm_dots``.)
        """
        direction = 1.0 - 2.0 * cache.has_edges(uu, vv).astype(np.float64)
        if exhaustive:
            grads = scorer.gradients(features, need_features=False)
            return grads.grad_topology[uu, vv] * direction, grads.loss
        pair = scorer.pair_gradients(features, uu, vv)
        return pair.grad_pairs * direction, pair.loss


class GRBCD(_BlockCoordinateAttacker):
    """Greedy Randomized Block Coordinate Descent structure attack.

    Per step: sample a fresh block of candidate pairs (excluding pairs
    already flipped), score it with the closed-form pair kernel, commit the
    ``flips_per_step`` highest-scoring flips through the incremental cache,
    repeat until the budget is spent.

    With ``block_size ≥ n(n-1)/2`` the block is the whole candidate space:
    GRBCD then scores the full matrix and selects through PEEGA's own
    :class:`~repro.core.selection.FlipSelector` — the attack *is*
    topology-only PEEGA, bit for bit.
    """

    name = "GRBCD"

    def __init__(
        self,
        lam: float = 0.0,
        p: Union[int, float] = 2,
        layers: int = 2,
        block_size: int = 100_000,
        flips_per_step: int = 1,
        focus_training_nodes: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            lam=lam,
            p=p,
            layers=layers,
            block_size=block_size,
            focus_training_nodes=focus_training_nodes,
            seed=seed,
        )
        if flips_per_step < 1:
            raise ConfigError(f"flips_per_step must be >= 1, got {flips_per_step}")
        self.flips_per_step = int(flips_per_step)

    # ------------------------------------------------------------------
    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        n = graph.num_nodes
        self._active_block = self.block_size
        cache, scorer = self._make_scorer(graph)
        features = np.asarray(graph.features, dtype=np.float64)
        exhaustive = self._is_exhaustive(n)
        # Sampled mode's exclusion list: the sorted keys of flipped pairs,
        # merged with the flips committed since the previous step.
        flipped_keys = np.empty(0, dtype=np.int64)
        seen = 0

        def restore(meta: dict) -> None:
            self._active_block = int(meta["active_block"])

        # Exhaustive mode scores the full matrix through PEEGA's selector,
        # with PEEGA's ±1 flip directions.  The block only ever shrinks, so
        # once a MemoryError drops it below the candidate space the run
        # stays on sampled blocks.
        run = GreedyRun(
            self,
            graph,
            budget,
            "rbcd",
            flips_per_step=self.flips_per_step,
            cache=cache,
            selector=FlipSelector(n) if exhaustive else None,
            directions=exhaustive,
            meta=lambda: {
                "active_block": self._active_block,
                "exhaustive": self._is_exhaustive(n),
            },
            restore=restore,
        )

        def step(run: GreedyRun):
            nonlocal flipped_keys, seen
            k = self.flips_per_step
            if self._is_exhaustive(n):
                grads = scorer.gradients(features, need_features=False)
                scores = np.multiply(
                    grads.grad_topology, run.direction, out=grads.grad_topology
                )
                candidates = run.selector.select(scores, k)
                return (candidates, grads.loss) if candidates else None
            new = run.result.edge_flips[seen:]
            if new:
                flipped_keys = np.union1d(
                    flipped_keys,
                    np.asarray([flip.u * n + flip.v for flip in new], dtype=np.int64),
                )
                seen += len(new)
            keys = sample_candidate_pairs(
                self._rng, n, self._active_block, exclude_keys=flipped_keys
            )
            uu, vv = decode_pair_keys(keys, n)
            if len(uu) == 0:
                return None
            scores, loss = self._block_scores(scorer, cache, features, uu, vv, False)
            order = np.argsort(-scores, kind="stable")[:k]
            return [("edge", int(uu[i]), int(vv[i]), 1.0) for i in order], loss

        return run.run(step, self._shrink_block)


class PRBCD(_BlockCoordinateAttacker):
    """Projected Randomized Block Coordinate Descent structure attack.

    Keeps a relaxed weight ``w ∈ [0, 1]`` per candidate pair in the current
    block.  Each epoch: score the block at the clean state, ascend ``w``
    along the scores, project onto ``{0 ≤ w ≤ 1, Σw ≤ δ}``, and resample
    the part of the block the projection zeroed out (``w ≤ mass_floor``).
    The final answer is the last epoch's rounding: the top-δ mass entries.

    Two deviations from the label-loss original, both forced by the paper's
    clean-anchored objective (``L(A) = 0`` is the *global minimum* with an
    identically-zero gradient — a trained GNN's loss has neither property):

    * **Rounded-state scoring.**  Gradients are evaluated at the current
      integral rounding of ``w`` (its top-δ mass entries), not at the clean
      graph.  The rounding is kept live in the incremental cache — edge
      flips are involutions, so moving between consecutive roundings costs
      one dirty-row patch per changed pair, and every epoch stays O(block).
    * **Degenerate-state kick.**  At the clean state every score is zero
      and ascent cannot start, exactly as PEEGA's first greedy step is
      decided purely by tie order.  When that happens the first epoch
      seeds unit mass on the top-δ candidates of the *same* ranking PEEGA
      uses (bit-for-bit in exhaustive mode), so the two methods break the
      degeneracy identically.  This makes ``epochs=1`` exhaustive PRBCD
      reduce to one-shot PEEGA with ``flips_per_step=δ`` — flip sequence
      and all — while additional epochs let the mass migrate from the
      arbitrary kick onto genuinely high-gradient flips.

    Parameters
    ----------
    epochs / lr:
        Ascent schedule.  The step is scale-normalized
        (``lr · δ · S / max|S|``), so ``lr`` is a fraction of the budget
        moved along the best direction per epoch.
    mass_floor:
        Resampling threshold: block entries whose projected mass is at or
        below it are replaced with fresh samples between epochs (the
        projection clips most of the block to exactly 0, so the default 0.0
        already recycles aggressively).
    """

    name = "PRBCD"

    def __init__(
        self,
        lam: float = 0.0,
        p: Union[int, float] = 2,
        layers: int = 2,
        block_size: int = 100_000,
        epochs: int = 25,
        lr: float = 0.1,
        mass_floor: float = 0.0,
        focus_training_nodes: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            lam=lam,
            p=p,
            layers=layers,
            block_size=block_size,
            focus_training_nodes=focus_training_nodes,
            seed=seed,
        )
        if epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {epochs}")
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.mass_floor = float(mass_floor)

    # ------------------------------------------------------------------
    @staticmethod
    def _commit_order(
        keys: np.ndarray,
        weights: np.ndarray,
        scores: np.ndarray,
        kick_rank: np.ndarray,
    ) -> np.ndarray:
        """Deterministic rounding order: mass desc, kick rank asc, score
        desc, canonical key asc.  The kick rank slot is what keeps the
        all-ties first epoch on PEEGA's exact tie order."""
        return np.lexsort((keys, -scores, kick_rank, -weights))

    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        n = graph.num_nodes
        self._active_block = self.block_size
        result = AttackResult(original=graph, poisoned=graph, budget=budget)
        delta = int(np.floor(budget.total + 1e-12))
        if delta < 1:
            return result
        cache, scorer = self._make_scorer(graph)
        features = np.asarray(graph.features, dtype=np.float64)
        exhaustive = self._is_exhaustive(n)
        if exhaustive:
            iu, iv = np.triu_indices(n, k=1)
            keys = encode_pair_keys(iu, iv, n)
        else:
            keys = sample_candidate_pairs(self._rng, n, self._active_block)
        unranked = np.iinfo(np.int64).max
        weights = np.zeros(len(keys), dtype=np.float64)
        scores = np.zeros(len(keys), dtype=np.float64)
        kick_rank = np.full(len(keys), unranked, dtype=np.int64)
        committed = np.empty(0, dtype=np.int64)
        # ``pending`` is the rounding currently applied in the cache (in
        # commit order); its objective is only known at the next scoring.
        # The answer is the best rounding *measured*, not the last one —
        # first-order re-rounding can flap between near-ties.
        pending = np.empty(0, dtype=np.int64)
        best_loss = -np.inf
        best_commit = pending
        start_epoch = 0

        # Preemption: the relaxed iterate (weights over the current block),
        # the rounding applied in the cache (``committed``) and the sampler
        # position capture the whole epoch loop.  The cache is rebuilt on
        # resume by applying ``committed`` as one batch — A_n is a pure
        # function of topology, so this matches the interrupted state
        # bit-exactly.
        unit = snapshots.begin_unit(f"attack:{self.name}")
        resumed = unit.resume_state()
        if resumed is not None:
            arrays, meta = resumed
            keys = arrays["keys"]
            weights = arrays["weights"]
            scores = arrays["scores"]
            kick_rank = arrays["kick_rank"]
            committed = arrays["committed"]
            pending = arrays["pending"]
            best_commit = arrays["best_commit"]
            result.objective_trace = [float(x) for x in arrays["objective_trace"]]
            best_loss = float(meta["best_loss"])
            start_epoch = int(meta["epoch"])
            self._active_block = int(meta["active_block"])
            exhaustive = bool(meta["exhaustive"])
            cache.apply_batch(
                EdgeFlip(*divmod(int(key), n)) for key in committed
            )
            snapshots.restore_generator(self._rng, meta["rng"])

        def attack_state() -> tuple[dict, dict]:
            return (
                {
                    "keys": keys,
                    "weights": weights,
                    "scores": scores,
                    "kick_rank": kick_rank,
                    "committed": committed,
                    "pending": pending,
                    "best_commit": best_commit,
                    "objective_trace": np.asarray(
                        result.objective_trace, dtype=np.float64
                    ),
                },
                {
                    "step": len(result.objective_trace),
                    "epoch": epoch,
                    "best_loss": best_loss,
                    "active_block": self._active_block,
                    "exhaustive": exhaustive,
                    "rng": snapshots.generator_state(self._rng),
                },
            )

        for epoch in range(start_epoch, self.epochs):
            while True:
                try:
                    faults.perturb(
                        "rbcd", attacker=self.name, epoch=epoch, block=len(keys)
                    )
                    cancellation.checkpoint(
                        "rbcd",
                        unit=unit,
                        state=attack_state,
                        attacker=self.name,
                        epoch=epoch,
                    )
                    uu, vv = decode_pair_keys(keys, n)
                    scores, loss = self._block_scores(
                        scorer, cache, features, uu, vv, exhaustive
                    )
                    break
                except MemoryError as error:
                    if not self._shrink_block(error):
                        raise
                    exhaustive = exhaustive and self._is_exhaustive(n)
                    # Shed block mass deterministically: keep the
                    # highest-mass entries (kick rank, then canonical key,
                    # break ties), never fewer than δ so the rounding can
                    # still spend the whole budget.  Entries already applied
                    # in the cache but dropped here get un-flipped by the
                    # next re-rounding's symmetric difference.
                    keep_count = min(len(keys), max(self._active_block, delta))
                    if keep_count < len(keys):
                        sel = np.sort(
                            np.lexsort((keys, kick_rank, -weights))[:keep_count]
                        )
                        keys = keys[sel]
                        weights = weights[sel]
                        scores = scores[sel]
                        kick_rank = kick_rank[sel]
            # Objective at the current integral iterate (the rounding the
            # scores were just evaluated at) — epoch 0 is the clean graph.
            result.objective_trace.append(loss)
            if loss >= best_loss:
                best_loss = loss
                best_commit = pending

            max_abs = float(np.max(np.abs(scores))) if len(scores) else 0.0
            if max_abs > 0.0:
                weights = weights + (self.lr * delta / max_abs) * scores
                weights = project_onto_budget(weights, float(delta))
            elif len(weights) and float(weights.max()) <= 0.0:
                # Degenerate state: the clean-anchored objective has a
                # zero gradient here, so ascent cannot start.  Seed unit
                # mass on the top-δ candidates of PEEGA's own tie ranking
                # (Σw = δ, so the projection is a no-op).
                seed_count = min(delta, len(keys))
                if exhaustive:
                    kick = FlipSelector(n)
                    for key in committed:
                        kick.block_edge(*divmod(int(key), n))
                    score_matrix = np.zeros((n, n))
                    score_matrix[uu, vv] = scores
                    selection = kick.select(score_matrix, seed_count)[:seed_count]
                    idxs = np.searchsorted(
                        keys,
                        np.asarray(
                            [u * n + v for _, u, v, _ in selection], dtype=np.int64
                        ),
                    )
                else:
                    idxs = np.arange(seed_count)
                weights[idxs] = 1.0
                kick_rank[idxs] = np.arange(len(idxs), dtype=np.int64)

            # Re-round: apply the symmetric difference between the cache's
            # committed state and the new top-δ mass through the
            # incremental engine (flips are involutions, so leaving the
            # rounding is the same dirty-row patch as entering it).
            order = self._commit_order(keys, weights, scores, kick_rank)
            sel = order[weights[order] > 0.0][:delta]
            pending = keys[sel]
            target = np.sort(pending)
            cache.apply_batch(
                EdgeFlip(*divmod(int(key), n))
                for key in np.setxor1d(committed, target, assume_unique=True)
            )
            committed = target

            if not exhaustive and epoch < self.epochs - 1:
                keep = weights > self.mass_floor
                if not keep.all():
                    kept_keys = keys[keep]
                    fresh = sample_candidate_pairs(
                        self._rng, n, self._active_block, exclude_keys=kept_keys
                    )
                    need = max(0, self._active_block - len(kept_keys))
                    if len(fresh) > need:
                        fresh = self._rng.choice(fresh, size=need, replace=False)
                        fresh.sort()
                    merged = np.concatenate([kept_keys, fresh])
                    order = np.argsort(merged, kind="stable")
                    keys = merged[order]
                    weights = np.concatenate(
                        [weights[keep], np.zeros(len(fresh))]
                    )[order]
                    scores = np.concatenate(
                        [scores[keep], np.zeros(len(fresh))]
                    )[order]
                    kick_rank = np.concatenate(
                        [
                            kick_rank[keep],
                            np.full(len(fresh), unranked, dtype=np.int64),
                        ]
                    )[order]

        # Measure the last rounding (the loss any pair set returns is the
        # objective at the cache's current state — pairs themselves are
        # irrelevant here, so score an empty block).
        empty = np.empty(0, dtype=np.int64)
        _, loss = self._block_scores(scorer, cache, features, empty, empty, False)
        result.objective_trace.append(loss)
        if loss >= best_loss:
            best_commit = pending

        for key in best_commit:
            u, v = divmod(int(key), n)
            result.edge_flips.append(EdgeFlip(u, v))
        result.poisoned = apply_perturbations(graph, result.edge_flips)
        return result
