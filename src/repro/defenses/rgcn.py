"""RGCN (Zhu et al., 2019) — Gaussian-representation defense.

Nodes are represented as Gaussians ``N(μ_v, diag(σ_v))``; an attention
weight ``α_v = exp(−γ σ_v)`` down-weights high-variance (likely attacked)
neighbors during propagation.  Means propagate through ``D^{-1/2}AD^{-1/2}``
and variances through ``D^{-1}AD^{-1}`` with squared attention, exactly as
in the original Gaussian graph convolution layer.  Training samples
``z = μ + ε√σ`` and adds a KL(N(μ,σ) ‖ N(0,1)) regularizer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graph import Graph, add_self_loops
from ..nn import Module, TrainConfig
from ..tensor import Tensor, functional as F, glorot_uniform
from ..utils.rng import SeedLike, ensure_rng
from .base import Defender

__all__ = ["RGCN", "GaussianGCNModel", "KLLoss"]


def _power_normalize(adjacency: sp.spmatrix, exponent: float) -> sp.csr_matrix:
    """``D^{-exponent} (A+I) D^{-exponent}`` as CSR."""
    matrix = add_self_loops(adjacency.tocsr())
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.where(degrees > 0, degrees ** (-exponent), 0.0)
    scaling = sp.diags(inv)
    return (scaling @ matrix @ scaling).tocsr()


class GaussianGCNModel(Module):
    """Two-layer Gaussian graph convolution network."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden_dim: int,
        gamma: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.w_mean_1 = glorot_uniform(in_dim, hidden_dim, rng)
        self.w_var_1 = glorot_uniform(in_dim, hidden_dim, rng)
        self.w_mean_2 = glorot_uniform(hidden_dim, out_dim, rng)
        self.w_var_2 = glorot_uniform(hidden_dim, out_dim, rng)
        self.gamma = float(gamma)
        self._sample_rng = ensure_rng(rng.integers(0, 2**63 - 1))
        # Holds the forward's KL tensor.  Kept inside a dict so parameter
        # scanning (which traverses Tensor attributes, lists and tuples,
        # but not dicts) never mistakes a grad-requiring cache for a
        # trainable parameter — that would desync state_dict snapshots
        # taken after training forwards from ones taken after eval
        # forwards.
        self._forward_cache: dict = {}
        self._kl_cache = None

    @property
    def _kl_cache(self) -> Optional[Tensor]:
        return self._forward_cache.get("kl")

    @_kl_cache.setter
    def _kl_cache(self, value: Optional[Tensor]) -> None:
        self._forward_cache["kl"] = value

    def forward(
        self,
        adjacency: tuple[sp.csr_matrix, sp.csr_matrix],
        features: Tensor,
    ) -> Tensor:
        """Return sampled logits; ``adjacency`` is the (mean-op, var-op) pair."""
        adj_mean, adj_var = adjacency
        mean = F.elu(F.sparse_matmul(adj_mean, features.matmul(self.w_mean_1)))
        var = F.relu(F.sparse_matmul(adj_var, features.matmul(self.w_var_1))) + 1e-6

        attention = (var * (-self.gamma)).exp()
        mean = F.sparse_matmul(adj_mean, (mean * attention).matmul(self.w_mean_2))
        var = (
            F.relu(
                F.sparse_matmul(adj_var, (var * attention * attention).matmul(self.w_var_2))
            )
            + 1e-6
        )

        # KL(N(μ, σ) || N(0, 1)) regularizer, cached for the training loss.
        kl = 0.5 * (mean * mean + var - var.log() - 1.0).sum(axis=1).mean()
        self._kl_cache = kl

        if self.training:
            noise = Tensor(self._sample_rng.normal(size=var.shape))
            return mean + noise * var.sqrt()
        return mean


class KLLoss:
    """RGCN's KL regularizer ``β · KL(N(μ,σ) ‖ N(0,1))`` as a loss term.

    As a class (rather than the former inline lambda) the trainer can
    recognize it and dispatch the whole Gaussian-GCN fit to the fused
    closed-form kernel; calling it runs the identical autodiff expression
    against the KL value the model's forward cached.
    """

    def __init__(self, model: GaussianGCNModel, beta_kl: float) -> None:
        self.model = model
        self.beta_kl = float(beta_kl)

    def __call__(self, _logits: Tensor) -> Tensor:
        return self.beta_kl * self.model._kl_cache


class RGCN(Defender):
    """Robust GCN with Gaussian node representations.

    Parameters
    ----------
    hidden_dim:
        Gaussian hidden width (paper tunes over {16, 32, 64, 128}).
    gamma:
        Attention sharpness on the variance.
    beta_kl:
        Weight of the KL regularizer.
    """

    name = "RGCN"

    def __init__(
        self,
        hidden_dim: int = 32,
        gamma: float = 1.0,
        beta_kl: float = 5e-4,
        train_config: Optional[TrainConfig] = None,
        engine: str = "auto",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self.hidden_dim = int(hidden_dim)
        self.gamma = float(gamma)
        self.beta_kl = float(beta_kl)
        self.train_config = train_config or TrainConfig()
        self.engine = engine

    def _fit(self, graph: Graph) -> tuple[float, float, dict]:
        from ..nn.trainer import train_node_classifier

        rng = ensure_rng(self._model_seed())
        model = GaussianGCNModel(
            graph.num_features, graph.num_classes, self.hidden_dim, self.gamma, rng
        )
        operators = (
            _power_normalize(graph.adjacency, 0.5),
            _power_normalize(graph.adjacency, 1.0),
        )
        result = train_node_classifier(
            model,
            graph,
            self.train_config,
            adjacency=operators,  # type: ignore[arg-type]
            loss_fn=KLLoss(model, self.beta_kl),
            engine=self.engine,
        )
        return result.test_accuracy, result.best_val_accuracy, {}
