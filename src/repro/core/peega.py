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
is differentiated through the GCN normalization.  This module holds the
setup and the scoring step; the loop of step 3 — committing flips, the
``peega`` poll site, snapshots and resume — is the one
:mod:`repro.attacks.greedy` runs for every greedy attacker.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..attacks.base import AttackBudget, Attacker, AttackResult
from ..attacks.constraints import AttackerNodes
from ..attacks.greedy import GreedyRun
from ..errors import ConfigError
from ..graph import Graph
from ..surrogate import PropagationCache
from ..tensor import Tensor
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
        run = GreedyRun(
            self,
            graph,
            budget,
            "peega",
            flips_per_step=self.flips_per_step,
            min_cost=min(
                [1.0] * self.attack_topology
                + [budget.feature_cost] * self.attack_features
            ),
            cache=cache,
            selector=selector,
            features=features,
            x=None if features is not None else graph.features.copy(),
            # The dense oracle differentiates through Â itself; the
            # incremental engine only needs the ±1 directions (Def. 4),
            # negated in place per flip instead of rebuilt per step.
            dense=cache is None,
            directions=cache is not None and self.attack_topology,
        )

        def step(run: GreedyRun):
            if scorer is None:
                score_t, grad_f, loss = self._scores(objective, run.adj, run.x)
                if features is not None:
                    features.update(grad_f)
                return selector.select(score_t, self.flips_per_step), loss
            # Closed-form gradients off the sparse cache: the scorer
            # re-materializes only the rows the applied flips touched.
            grads = scorer.gradients(
                run.x,
                rows=frontier,
                need_topology=self.attack_topology,
                need_features=self.attack_features,
            )
            score_t = None
            if self.attack_topology:
                # grad_topology is the scorer's per-call scratch; scoring in
                # place avoids another (n, n) allocation per flip.
                direction = run.direction
                if frontier is not None:
                    direction = direction[frontier]
                score_t = np.multiply(
                    grads.grad_topology, direction, out=grads.grad_topology
                )
            if features is not None:
                features.update(grads.grad_features, grads.feature_rows)
            return selector.select(score_t, self.flips_per_step), grads.loss

        return run.run(step)

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
