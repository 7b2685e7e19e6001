"""PEEGA: the paper's Practical, Effective, and Efficient GNN Attacker.

A *pure black-box* untargeted attacker (Sec. III): it reads only the graph
topology ``A`` and node features ``X`` — no labels, no GNN parameters, no
model predictions — and greedily flips the adjacency entry or feature bit
whose gradient score most increases the representation-difference objective
(Alg. 1):

1. candidate directions ``A_t = −2Â + 1`` and ``X_f = −2X̂ + 1`` (Def. 4);
2. scores ``S_t = ∇_Â L ⊙ A_t`` and ``S_f = ∇_X̂ L ⊙ X_f`` (Eq. 9);
3. apply the single highest-scoring flip; repeat until the budget ``δ`` is
   spent.

The discrete gradients use the standard continuous relaxation (as in
Metattack): ``Â``/``X̂`` are treated as dense real tensors and the objective
is differentiated through the GCN normalization.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..attacks.base import AttackBudget, Attacker, AttackResult
from ..attacks.constraints import AttackerNodes
from ..errors import ConfigError
from ..graph import EdgeFlip, FeatureFlip, Graph, apply_perturbations
from ..surrogate import PropagationCache
from ..tensor import Tensor
from ..utils import cancellation, faults, snapshots
from ..utils.rng import SeedLike
from .difference import DifferenceObjective, IncrementalScorer
from .selection import FeatureScores, FlipSelector

__all__ = ["PEEGA"]


class PEEGA(Attacker):
    """Black-box greedy attacker over topology and features.

    Parameters
    ----------
    lam:
        Trade-off ``λ`` between the self view and the global view (Fig 8a;
        paper tunes over {0, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03}).
    p:
        Row-distance norm (Fig 8b; {1, 2, 3}; 2 is best on citation graphs,
        1 on Polblogs).
    layers:
        Surrogate depth ``l`` of ``A_n^l X`` (Fig 7b; 2 is the paper's
        default and best).
    attack_topology / attack_features:
        Enable the TM / FP attack types (Fig 5a ablates TM, FP, TM+FP).
    attacker_nodes:
        Optional accessibility constraint (Fig 7a).
    focus_training_nodes:
        Compute the objective over the graph's training nodes when a train
        mask is present ("Following [24]" in Sec. V-A3).  Requires no label
        access — only knowledge of which nodes are labelled.
    flips_per_step:
        Number of flips applied per gradient evaluation.  1 reproduces
        Alg. 1 exactly; larger values trade a little fidelity for a
        proportional speedup (a documented extension, see DESIGN.md §5).
    use_cache:
        Select the incremental sparse scoring engine (default).  A
        :class:`~repro.surrogate.PropagationCache` keeps ``A_n`` sparse,
        applies each flip as a delta update, and the attack gradients are
        assembled in closed form (see
        :func:`repro.core.difference.sparse_attack_gradients`) instead of
        re-differentiating a dense ``(n, n)`` autodiff graph per flip.  The
        two paths pick the same flips up to floating-point ties;
        ``use_cache=False`` keeps the dense reference path as the oracle.
    seed:
        Random tie-breaking seed.
    """

    name = "PEEGA"
    requires_labels = False
    requires_model = False
    requires_predictions = False

    def __init__(
        self,
        lam: float = 0.01,
        p: Union[int, float] = 1,
        layers: int = 2,
        attack_topology: bool = True,
        attack_features: bool = True,
        attacker_nodes: Optional[AttackerNodes] = None,
        focus_training_nodes: bool = True,
        flips_per_step: int = 1,
        use_cache: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if not attack_topology and not attack_features:
            raise ConfigError("enable at least one of attack_topology/attack_features")
        if flips_per_step < 1:
            raise ConfigError(f"flips_per_step must be >= 1, got {flips_per_step}")
        self.lam = float(lam)
        self.p = p
        self.layers = int(layers)
        self.attack_topology = attack_topology
        self.attack_features = attack_features
        self.attacker_nodes = attacker_nodes
        self.focus_training_nodes = bool(focus_training_nodes)
        self.flips_per_step = int(flips_per_step)
        self.use_cache = bool(use_cache)

    # ------------------------------------------------------------------
    def _run(self, graph: Graph, budget: AttackBudget) -> AttackResult:
        node_mask = (
            graph.train_mask
            if self.focus_training_nodes and graph.train_mask is not None
            else None
        )
        cache = PropagationCache(graph) if self.use_cache else None
        objective = DifferenceObjective(
            graph,
            layers=self.layers,
            p=self.p,
            lam=self.lam,
            node_mask=node_mask,
            cache=cache,
            # The dense oracle scores topology flips through the dense
            # normalization chain; matching M to that chain keeps the p-norm
            # kink at an exact zero (as the cached path has by construction).
            dense_reference=cache is None and self.attack_topology,
        )
        n = graph.num_nodes
        adj_hat = graph.dense_adjacency()

        # Candidate frontier for the sparse engine: every allowed edge has an
        # accessible endpoint, and attack scores are symmetric, so only the
        # accessible *rows* of the topology gradient are ever inspected —
        # the incremental path materializes just those (Fig 7a settings).
        accessible = frontier = None
        if self.attacker_nodes is not None:
            accessible = self.attacker_nodes.node_mask(n)
            if cache is not None and self.attack_topology and not accessible.all():
                frontier = np.flatnonzero(accessible)
        features = (
            FeatureScores(graph.features, accessible) if self.attack_features else None
        )
        feat_hat = graph.features.copy() if features is None else features.values
        selector = FlipSelector(
            n,
            edge_mask=(
                None
                if self.attacker_nodes is None
                else self.attacker_nodes.edge_mask(n)
            ),
            frontier=frontier,
            features=features,
            feature_cost=budget.feature_cost,
        )

        scorer = IncrementalScorer(objective, cache) if cache is not None else None
        # Candidate directions (Def. 4) are ±1-valued; the incremental path
        # keeps them as a persistent array and negates the flipped entry in
        # place — exact, and avoids an O(n²) rebuild per iteration.
        direction_t = None
        if scorer is not None and self.attack_topology:
            direction_t = -2.0 * adj_hat + 1.0

        result = AttackResult(original=graph, poisoned=graph, budget=budget)
        spent = 0.0
        min_cost = min(
            [1.0] * self.attack_topology + [budget.feature_cost] * self.attack_features
        )

        # Flip application is shared by the live greedy loop and the
        # snapshot-resume replay below: replaying the recorded flips through
        # the exact same updates (cache deltas included — A_n values are
        # pure functions of the integral degrees, so replay is bit-exact)
        # reconstructs every derived array mid-attack.
        flip_log: list[tuple[int, int, int]] = []

        def apply_edge_flip(u: int, v: int) -> EdgeFlip:
            new_value = 0.0 if adj_hat[u, v] else 1.0
            adj_hat[u, v] = new_value
            adj_hat[v, u] = new_value
            if direction_t is not None:
                direction_t[u, v] = -direction_t[u, v]
                direction_t[v, u] = -direction_t[v, u]
            selector.block_edge(u, v)
            flip = EdgeFlip(int(u), int(v))
            result.edge_flips.append(flip)
            flip_log.append((0, int(u), int(v)))
            return flip

        def apply_feature_flip(u: int, dim: int) -> FeatureFlip:
            features.flip(u, dim)
            flip = FeatureFlip(int(u), int(dim))
            result.feature_flips.append(flip)
            flip_log.append((1, int(u), int(dim)))
            return flip

        unit = snapshots.begin_unit(f"attack:{self.name}")
        resumed = unit.resume_state()
        if resumed is not None:
            arrays, meta = resumed
            replayed = [
                apply_edge_flip(int(u), int(v))
                if int(kind) == 0
                else apply_feature_flip(int(u), int(v))
                for kind, (u, v) in zip(arrays["flip_kinds"], arrays["flip_uv"])
            ]
            if cache is not None:
                cache.apply_batch(replayed)
            result.objective_trace = [float(x) for x in arrays["objective_trace"]]
            spent = float(meta["spent"])
            snapshots.restore_generator(self._rng, meta["rng"])

        def attack_state() -> tuple[dict, dict]:
            return (
                {
                    "flip_kinds": np.asarray(
                        [kind for kind, _, _ in flip_log], dtype=np.int8
                    ),
                    "flip_uv": np.asarray(
                        [(u, v) for _, u, v in flip_log], dtype=np.int64
                    ).reshape(-1, 2),
                    "objective_trace": np.asarray(
                        result.objective_trace, dtype=np.float64
                    ),
                },
                {
                    "step": len(result.objective_trace),
                    "spent": spent,
                    "rng": snapshots.generator_state(self._rng),
                },
            )

        while spent + min_cost <= budget.total + 1e-12:
            iteration = len(result.objective_trace)
            faults.perturb("peega", attacker=self.name, iteration=iteration)
            cancellation.checkpoint(
                "peega", unit=unit, state=attack_state, iteration=iteration
            )
            if scorer is not None:
                # Closed-form gradients off the sparse cache: the scorer
                # re-materializes only the rows the applied flips touched.
                grads = scorer.gradients(
                    feat_hat,
                    rows=frontier,
                    need_topology=self.attack_topology,
                    need_features=self.attack_features,
                )
                score_t = None
                if self.attack_topology:
                    # grad_topology is the scorer's per-call scratch; scoring
                    # in place avoids another (n, n) allocation per flip.
                    direction = (
                        direction_t if frontier is None else direction_t[frontier]
                    )
                    score_t = np.multiply(
                        grads.grad_topology, direction, out=grads.grad_topology
                    )
                if features is not None:
                    features.update(grads.grad_features, grads.feature_rows)
                loss_value = grads.loss
            else:
                score_t, grad_f, loss_value = self._scores(objective, adj_hat, feat_hat)
                if features is not None:
                    features.update(grad_f)
            result.objective_trace.append(loss_value)

            candidates = selector.select(score_t, self.flips_per_step)
            if not candidates:
                break

            applied_any = False
            for kind, u, v, cost in candidates[: self.flips_per_step]:
                if spent + cost > budget.total + 1e-12:
                    continue
                if kind == "edge":
                    flip = apply_edge_flip(u, v)
                else:
                    flip = apply_feature_flip(u, v)
                if cache is not None:
                    cache.apply(flip)
                spent += cost
                applied_any = True
            if not applied_any:
                break

        poisoned = apply_perturbations(graph, result.edge_flips + result.feature_flips)
        result.poisoned = poisoned
        return result

    # ------------------------------------------------------------------
    def _scores(
        self,
        objective: DifferenceObjective,
        adj_hat: np.ndarray,
        feat_hat: np.ndarray,
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray], float]:
        """Dense-oracle ``S_t``, ``∇_X̂ L`` and the objective at this state."""
        adj_t = Tensor(adj_hat, requires_grad=self.attack_topology)
        feat_t = Tensor(feat_hat, requires_grad=self.attack_features)
        if self.attack_topology:
            loss = objective(adj_t, feat_t)
        else:
            # Feature-only attack: keep the adjacency on the sparse fast path.
            import scipy.sparse as sp

            loss = objective(sp.csr_matrix(adj_hat), feat_t)
        loss.backward()

        score_t = None
        if self.attack_topology and adj_t.grad is not None:
            direction_t = -2.0 * adj_hat + 1.0
            grad_sym = adj_t.grad + adj_t.grad.T  # undirected flip hits both entries
            score_t = grad_sym * direction_t
        return score_t, feat_t.grad, float(loss.item())
