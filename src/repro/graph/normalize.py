"""GCN adjacency normalization.

Two code paths implement the same operator
``A_n = D^{-1/2} (A + I) D^{-1/2}`` (Kipf & Welling, 2017):

* :func:`gcn_normalize` — sparse, fast, used during GNN training where the
  adjacency is a constant;
* :func:`gcn_normalize_dense` — dense and differentiable through the autodiff
  engine, used by attackers (PEEGA, Metattack, PGD) that need
  ``∇_A L(A_n, ...)``.

:func:`gcn_normalize_dense_backward` is that path's backward in plain NumPy,
for callers that already hold ``A_n`` and its upstream gradient (Pro-GNN's
structure step).
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from ..tensor import Tensor, as_tensor

__all__ = [
    "gcn_normalize",
    "gcn_normalize_dense",
    "gcn_normalize_dense_backward",
    "add_self_loops",
    "inv_sqrt_degrees",
    "NORMALIZE_EPS",
]

# Guard added to the (self-loop-augmented) degrees before the inverse square
# root.  Shared by the dense differentiable path and the incremental
# :class:`repro.surrogate.PropagationCache` so both produce bit-identical
# scaling vectors — the cached attack path must reproduce the dense reference
# gradients exactly.
NORMALIZE_EPS = 1e-12


def inv_sqrt_degrees(degrees: np.ndarray) -> np.ndarray:
    """``(degrees + eps)^{-1/2}`` — the scaling vector of ``D^{-1/2}(A+I)D^{-1/2}``.

    ``degrees`` must already include the self-loop contribution.  Non-positive
    degrees map to a scaling of exactly 0 (the zero-row convention for
    isolated nodes), never to the ``eps^{-1/2} ≈ 1e6`` blow-up the bare guard
    would produce — pruning defenses that isolate nodes must degrade
    gracefully, not inject huge scalings into downstream propagation.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    out = np.zeros_like(degrees)
    positive = degrees > 0
    out[positive] = (degrees[positive] + NORMALIZE_EPS) ** -0.5
    return out


def add_self_loops(adjacency: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` as CSR."""
    n = adjacency.shape[0]
    return (adjacency + weight * sp.eye(n, format="csr")).tocsr()


def gcn_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalization of a sparse adjacency matrix.

    Isolated nodes (zero degree even after self-loops are disabled) receive a
    zero row rather than NaNs.  The scaling vector uses the same
    eps-guarded :func:`inv_sqrt_degrees` as the dense differentiable path
    and :class:`repro.surrogate.PropagationCache`, so all three produce
    bit-identical normalized matrices on binary adjacencies.
    """
    matrix = adjacency.tocsr().astype(np.float64)
    if add_loops:
        matrix = add_self_loops(matrix)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    scaling = sp.diags(inv_sqrt_degrees(degrees))
    return (scaling @ matrix @ scaling).tocsr()


def gcn_normalize_dense(adjacency: Union[Tensor, np.ndarray], add_loops: bool = True) -> Tensor:
    """Differentiable symmetric GCN normalization of a dense adjacency tensor.

    The gradient flows through the degree terms as well, so attack scores
    account for how adding/removing an edge rescales every incident entry of
    ``A_n`` — the same behaviour as normalizing inside a PyTorch graph.
    """
    adj = as_tensor(adjacency)
    n = adj.shape[0]
    if add_loops:
        adj = adj + Tensor(np.eye(n))
    degrees = adj.sum(axis=1)
    inv_sqrt = (degrees + NORMALIZE_EPS) ** -0.5
    # Zero-row convention for isolated nodes (matching inv_sqrt_degrees):
    # the mask is a constant gate, so no gradient flows through a row the
    # sparse path would zero out entirely.
    zero_mask = np.asarray(degrees.data) > 0
    if not zero_mask.all():
        inv_sqrt = inv_sqrt * Tensor(zero_mask.astype(np.float64))
    # Row scaling then column scaling via broadcasting.
    row = inv_sqrt.reshape(n, 1)
    col = inv_sqrt.reshape(1, n)
    return adj * row * col


def gcn_normalize_dense_backward(adjacency: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``∂L/∂A`` from ``∂L/∂A_n`` for ``A_n = gcn_normalize_dense(A)``.

    The autodiff backward of :func:`gcn_normalize_dense` (self-loops added)
    in NumPy: the same elementwise products and reductions, accumulated in
    the order the tape visits them (column scaling before row scaling, the
    scaled product before the degree term), so the result is bitwise the
    tape's ``A.grad``.  The forward intermediates it needs (``A + I``, the
    scaling vector and the row-scaled operand) are recomputed from
    ``adjacency``, whose entries must be non-negative (Pro-GNN's S lies in
    ``[0, 1]``): with the self-loop every degree is then at least 1, so the
    forward's isolated-row gate never applies.
    """
    adj = np.asarray(adjacency, dtype=np.float64)
    n = adj.shape[0]
    adj = adj + np.eye(n)
    shifted = adj.sum(axis=1) + NORMALIZE_EPS
    inv_sqrt = np.power(shifted, -0.5)
    row = inv_sqrt.reshape(n, 1)
    col = inv_sqrt.reshape(1, n)
    # A_n = (adj * row) * col.
    grad_scaled = grad * col
    grad_inv = (grad * (adj * row)).sum(axis=0)
    grad_adj = grad_scaled * row
    grad_inv = grad_inv + (grad_scaled * adj).sum(axis=1)
    grad_degrees = grad_inv * -0.5 * np.power(shifted, -1.5)
    return grad_adj + grad_degrees[:, None]
