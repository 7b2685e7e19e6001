"""Pro-GNN (Jin et al., 2020) — joint graph structure learning defense.

Alternating optimization of a dense learned adjacency ``S`` and GCN
parameters ``θ`` (Def. 2 instantiated):

* θ-step: Adam on the GCN cross-entropy over the *normalized current S*,
  run by the fused GCN kernel (:mod:`repro.nn.fastpath`) over that dense
  operator — bit-identical to the autodiff loop;
* S-step: gradient descent on
  ``α‖S − Â‖_F² + τ·CE(GCN_θ(S), Y) + λ_s·tr(Xᵀ L_S X)`` (feature
  smoothness on the learned graph), followed by the two proximal operators
  of the original method — nuclear-norm shrinkage (low rank) and L1
  soft-thresholding (sparsity) — then projection to [0,1] and
  symmetrization.  ``∂/∂S`` is formed in closed form with θ held
  constant: the θ kernel, built over the epoch's normalized S, gives the
  GCN term's gradient with respect to that operator, and
  :func:`~repro.graph.gcn_normalize_dense_backward` carries it back to S.
  Each epoch normalizes S once and builds no autodiff graph.

S and its gradient are symmetric, so the nuclear prox shrinks eigenvalues
through one symmetric eigendecomposition per epoch instead of a full SVD.
That eigendecomposition is still the largest cost of a fit, and it keeps
Pro-GNN the slowest structure-learning step among the defenders
(Table VIII).
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, gcn_normalize_dense, gcn_normalize_dense_backward
from ..nn import GCN, accuracy
from ..nn.fastpath import _FusedGCN
from ..tensor import Adam, CSRConstant
from ..utils import cancellation
from ..utils.rng import SeedLike
from .base import Defender

__all__ = ["ProGNN", "pairwise_sq_distances"]


def pairwise_sq_distances(features: CSRConstant) -> np.ndarray:
    """Dense ``‖x_u − x_v‖²`` for every node pair, ``|x_u|² + |x_v|² −
    2 x_u·x_v``, with the Gram matrix ``X Xᵀ`` and the squared row norms
    (its diagonal) from the feature CSR.  For binary features every term
    is an integer count, exact in any summation order, so the result is
    bitwise the dense-GEMM form's.
    """
    gram = (features.matrix @ features.matrix_t).toarray()
    sq_norms = np.diagonal(gram)
    return sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram


class ProGNN(Defender):
    """Graph-structure-learning defense (alternating θ / S optimization).

    Parameters
    ----------
    outer_epochs:
        Alternation rounds.
    structure_lr:
        Learning rate of the S gradient step.
    alpha_fidelity:
        Weight of ``‖S − Â‖_F²`` (stay close to the observed graph).
    lambda_smooth:
        Feature smoothness weight ``tr(Xᵀ L_S X)``.
    tau_gnn:
        Weight of the GCN loss inside the S objective.
    beta_nuclear / gamma_l1:
        Shrinkage amounts of the nuclear-norm / L1 proximal steps.
    inner_theta_steps:
        GCN Adam steps per alternation round.
    """

    name = "Pro-GNN"

    def __init__(
        self,
        outer_epochs: int = 60,
        structure_lr: float = 0.01,
        alpha_fidelity: float = 1.0,
        lambda_smooth: float = 1e-3,
        tau_gnn: float = 1.0,
        beta_nuclear: float = 1.5e-3,
        gamma_l1: float = 1e-4,
        inner_theta_steps: int = 2,
        hidden_dim: int = 16,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self.outer_epochs = int(outer_epochs)
        self.structure_lr = float(structure_lr)
        self.alpha_fidelity = float(alpha_fidelity)
        self.lambda_smooth = float(lambda_smooth)
        self.tau_gnn = float(tau_gnn)
        self.beta_nuclear = float(beta_nuclear)
        self.gamma_l1 = float(gamma_l1)
        self.inner_theta_steps = int(inner_theta_steps)
        self.hidden_dim = int(hidden_dim)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)

    # ------------------------------------------------------------------
    def _structure_grad(
        self, s: np.ndarray, observed: np.ndarray, pairwise_sq: np.ndarray,
        theta: _FusedGCN,
    ) -> np.ndarray:
        """``∂/∂S`` of the S objective at ``s``, with θ held constant.

        ``theta`` is the kernel over ``gcn_normalize_dense(s)``.  The three
        terms are summed in the order the autodiff tape of the whole
        objective accumulates them (GCN term, smoothness, fidelity), each
        formed by the tape's operations, so the result is bitwise that
        tape's ``S.grad``.
        """
        grad = gcn_normalize_dense_backward(s, theta.operator_grad(self.tau_gnn))
        # Feature smoothness tr(X^T L X) = 0.5 Σ_uv S_uv ||x_u − x_v||².
        grad = grad + pairwise_sq * (0.5 * self.lambda_smooth)
        # Fidelity α‖S − Â‖_F².
        return grad + (self.alpha_fidelity * 2.0) * (s - observed)

    @staticmethod
    def _proximal(s: np.ndarray, beta_nuclear: float, gamma_l1: float) -> np.ndarray:
        """Nuclear-norm shrinkage + L1 soft-threshold + box/symmetry projection.

        The nuclear prox soft-thresholds singular values.  Once ``s`` is
        symmetrized (bitwise a no-op on the fit's symmetric iterate), those
        are the moduli of its eigenvalues, so shrinking each eigenvalue
        toward zero by ``beta_nuclear`` is the same operator, computed by
        one symmetric eigendecomposition.  The n×n steps run in two
        buffers, op for op as their allocating forms; the result is fresh.
        """
        a = np.add(s, s.T)
        np.multiply(a, 0.5, out=a)
        eigenvalues, eigenvectors = np.linalg.eigh(a)
        shrunk = np.sign(eigenvalues) * np.maximum(np.abs(eigenvalues) - beta_nuclear, 0.0)
        s = np.matmul(np.multiply(eigenvectors, shrunk, out=a), eigenvectors.T)
        # L1 soft-threshold: sign(s) * max(|s| - γ, 0).
        np.maximum(np.subtract(np.abs(s, out=a), gamma_l1, out=a), 0.0, out=a)
        np.multiply(np.sign(s, out=s), a, out=s)
        # Box + symmetry + no self-loops.
        np.multiply(np.add(s, s.T, out=a), 0.5, out=a)
        np.clip(a, 0.0, 1.0, out=a)
        np.fill_diagonal(a, 0.0)
        return a

    def _learn(self, graph: Graph) -> tuple[GCN, np.ndarray, float, np.ndarray]:
        """Run the alternation; return the best-validation model (weights
        restored), its structure ``S``, validation accuracy and eval logits."""
        observed = graph.dense_adjacency()
        # One feature CSR for the fit: every θ-step and S-step kernel
        # multiplies W⁰ through it.
        features = CSRConstant(graph.features)
        pairwise_sq = pairwise_sq_distances(features)

        model = GCN(
            graph.num_features,
            graph.num_classes,
            hidden_dim=self.hidden_dim,
            dropout=0.5,
            seed=self._model_seed(),
        )
        optimizer = Adam(model.parameters(), lr=self.lr, weight_decay=self.weight_decay)
        # The fused training forward applies dropout whatever the mode flag;
        # the fitted model is handed back in eval mode.
        model.eval()
        s = observed.copy()
        # One normalization of S per epoch: the kernel over it runs that
        # epoch's validation forward, and the next epoch's θ-steps and
        # S-step.
        theta = _FusedGCN(model, [gcn_normalize_dense(s).data], graph, features)

        best_val, best_state, best_s, best_logits = -1.0, model.state_dict(), s, None
        for _ in range(self.outer_epochs):
            cancellation.checkpoint("prognn")
            for _ in range(self.inner_theta_steps):
                theta.train_forward()
                theta.backward()
                optimizer.step()

            # S-step: one gradient step + proximal operators.
            grad = self._structure_grad(s, observed, pairwise_sq, theta)
            s = self._proximal(
                s - self.structure_lr * (grad + grad.T) * 0.5,
                self.beta_nuclear,
                self.gamma_l1,
            )
            theta = _FusedGCN(model, [gcn_normalize_dense(s).data], graph, features)

            # Track the best validation structure/parameters.
            logits = theta.eval_forward()
            val_acc = accuracy(logits, graph.labels, graph.val_mask)
            if val_acc > best_val:
                best_val, best_state, best_s, best_logits = (
                    val_acc, model.state_dict(), s, logits,
                )

        model.load_state_dict(best_state)
        if best_logits is None:  # no alternation ran
            best_logits = theta.eval_forward()
        return model, best_s, best_val, best_logits

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        _, best_s, best_val, best_logits = self._learn(graph)
        test_mask = graph.test_mask if graph.test_mask is not None else ~(
            graph.train_mask | graph.val_mask
        )
        # An eval forward is a pure function of (weights, S): the best
        # epoch's validation logits are the restored model's test logits.
        test_acc = accuracy(best_logits, graph.labels, test_mask)
        return test_acc, best_val, {"learned_edges": float((best_s > 0.5).sum() / 2)}
