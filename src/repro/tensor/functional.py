"""Differentiable functions built on :class:`repro.tensor.Tensor`.

These cover everything the GNN models, attackers, and defenders need:
activations, row-wise softmax / log-softmax, cross entropy, dropout,
sparse-constant matrix products, and the Lp row-distance used by PEEGA's
representation-difference objective (Eq. 5/6 of the paper).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..errors import ShapeError
from .sparse import CSRConstant, spmm
from .tensor import Tensor, as_tensor, _needs_grad

__all__ = [
    "relu",
    "leaky_relu",
    "elu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "dropout",
    "sparse_matmul",
    "sparse_matmul_grad_matrix",
    "row_pnorm",
    "masked_fill",
    "concat_rows",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU used by GAT attention scores."""
    x = as_tensor(x)
    slope = float(negative_slope)

    def forward(a: np.ndarray) -> np.ndarray:
        return np.where(a > 0, a, slope * a)

    def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        return g * np.where(a > 0, 1.0, slope)

    from .tensor import _unary

    return _unary(x, forward, backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit (GAT's output nonlinearity)."""
    x = as_tensor(x)

    def forward(a: np.ndarray) -> np.ndarray:
        return np.where(a > 0, a, alpha * (np.exp(np.minimum(a, 0.0)) - 1.0))

    def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        return g * np.where(a > 0, 1.0, out + alpha)

    from .tensor import _unary

    return _unary(x, forward, backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    x = as_tensor(x)

    def forward(a: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-a))

    def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        return g * out * (1.0 - out)

    from .tensor import _unary

    return _unary(x, forward, backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    x = as_tensor(x)
    from .tensor import _unary

    return _unary(x, np.tanh, lambda g, a, out: g * (1.0 - out * out))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable row-wise log-softmax."""
    x = as_tensor(x)

    def forward(a: np.ndarray) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        softmax_vals = np.exp(out)
        return g - softmax_vals * g.sum(axis=axis, keepdims=True)

    from .tensor import _unary

    return _unary(x, forward, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-wise softmax."""
    x = as_tensor(x)

    def forward(a: np.ndarray) -> np.ndarray:
        shifted = np.exp(a - a.max(axis=axis, keepdims=True))
        return shifted / shifted.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    from .tensor import _unary

    return _unary(x, forward, backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``.

    Parameters
    ----------
    log_probs:
        ``(n, c)`` tensor of log-probabilities (output of :func:`log_softmax`).
    targets:
        ``(n,)`` integer class labels.
    mask:
        Optional ``(n,)`` boolean array selecting the rows that contribute
        (e.g. labelled training nodes).  The loss is averaged over selected
        rows, matching Eq. 2 of the paper up to the 1/n factor.
    """
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    if log_probs.ndim != 2 or targets.ndim != 1 or len(targets) != log_probs.shape[0]:
        raise ShapeError(
            f"nll_loss expects (n, c) log-probs and (n,) targets, got "
            f"{log_probs.shape} and {targets.shape}"
        )
    if mask is None:
        rows = np.arange(len(targets))
    else:
        rows = np.flatnonzero(np.asarray(mask))
    if len(rows) == 0:
        raise ShapeError("nll_loss mask selects no rows")
    picked = log_probs[rows, targets[rows]]
    return -picked.sum() * (1.0 / float(len(rows)))


def cross_entropy(
    logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Cross-entropy loss from raw logits (log-softmax + NLL)."""
    return nll_loss(log_softmax(logits, axis=-1), targets, mask)


def dropout(
    x: Union[Tensor, CSRConstant],
    rate: float,
    rng: np.random.Generator,
    training: bool = True,
) -> Union[Tensor, CSRConstant]:
    """Inverted dropout.  Identity when ``training`` is False or ``rate`` is 0.

    A :class:`CSRConstant` input draws the same full-shape uniform array
    from ``rng`` (later draws depend on the stream position), but keeps and
    scales only its stored entries: the result has ``x``'s structure and
    the values the dense form takes there.
    """
    if not isinstance(x, CSRConstant):
        x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    draws = rng.random(x.shape)
    if isinstance(x, CSRConstant):
        keep = (draws.ravel()[x.flat_index] >= rate).astype(np.float64) / (1.0 - rate)
        return x.with_data(x.matrix.data * keep)
    keep = (draws >= rate).astype(np.float64) / (1.0 - rate)
    return x * Tensor(keep)


def sparse_matmul(matrix: Union[sp.spmatrix, CSRConstant], x: Tensor) -> Tensor:
    """Multiply a *constant* SciPy sparse matrix with a dense tensor.

    The sparse operand is treated as data (no gradient flows into it); the
    gradient w.r.t. ``x`` is ``matrix.T @ upstream``.  This is the fast path
    used during GNN training where the (normalized) adjacency is fixed, and
    for the first-layer product of the features as a :class:`CSRConstant`,
    whose transpose is built once.  Both products run
    :func:`~repro.tensor.sparse.spmm`, the fused engine's kernel.
    """
    x = as_tensor(x)
    if isinstance(matrix, CSRConstant):
        matrix, matrix_t = matrix.matrix, matrix.matrix_t
    else:
        matrix, matrix_t = matrix.tocsr(), None
    out = Tensor(spmm(matrix, x.data), requires_grad=_needs_grad(x), _parents=(x,))
    if out.requires_grad:
        if matrix_t is None:
            matrix_t = matrix.T.tocsr()
        out._backward = lambda g: (spmm(matrix_t, g),)
    return out


def sparse_matmul_grad_matrix(
    upstream: np.ndarray, x: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Backward kernel for the *matrix* operand of ``matrix @ x``.

    For an (n, n) propagation matrix applied to dense (n, d) activations, the
    gradient w.r.t. the matrix is the dense outer product
    ``upstream @ x.T`` — the one unavoidably quadratic step of attack-score
    computation.  :func:`sparse_matmul` keeps its matrix constant, so greedy
    structure attackers (the incremental PEEGA engine) call this kernel
    directly instead of routing an (n, n) tensor through the autodiff graph.

    ``rows`` restricts the output to the given row subset — when attacker-node
    constraints shrink the candidate frontier, only the touched rows of the
    gradient are ever materialized (cost ``|rows|·n·d`` instead of ``n²·d``).

    ``upstream`` may stack the per-layer adjoints column-wise (n, l·d) with
    ``x`` stacking the matching forward activations, turning the layer sum
    ``Σ_k U_k Z_{k-1}ᵀ`` into a single GEMM.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if upstream.ndim != 2 or x.ndim != 2 or upstream.shape[1] != x.shape[1]:
        raise ShapeError(
            f"sparse_matmul_grad_matrix expects matching (n, d) operands, got "
            f"{upstream.shape} and {x.shape}"
        )
    if rows is None:
        return upstream @ x.T
    return upstream[np.asarray(rows, dtype=np.int64)] @ x.T


def row_pnorm(x: Tensor, p: Union[int, float], eps: float = 1e-12) -> Tensor:
    """Row-wise Lp norm ``||x_i||_p`` returning a vector of length n.

    This implements the distance used throughout PEEGA's objective.  ``p=1``
    uses a subgradient-smooth absolute value; ``p>=2`` uses the standard
    smooth formulation with an ``eps`` guard against a zero-norm gradient
    singularity.
    """
    x = as_tensor(x)
    p = float(p)
    if p < 1:
        raise ValueError(f"row_pnorm requires p >= 1, got {p}")
    if p == 1.0:
        return x.abs().sum(axis=1)
    powered = (x.abs() + eps) ** p
    return powered.sum(axis=1) ** (1.0 / p)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is True by ``value`` (no grad there)."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)

    def forward(a: np.ndarray) -> np.ndarray:
        out = a.copy()
        out[mask] = value
        return out

    def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        grad = g.copy()
        grad[mask] = 0.0
        return grad

    from .tensor import _unary

    return _unary(x, forward, backward)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two 2-D tensors along columns (axis=1), differentiably."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_rows expects matching row counts, got {a.shape}, {b.shape}")
    out_data = np.concatenate([a.data, b.data], axis=1)
    needs = _needs_grad(a) or _needs_grad(b)
    out = Tensor(out_data, requires_grad=needs, _parents=(a, b))
    if out.requires_grad:
        split = a.shape[1]
        out._backward = lambda g: (g[:, :split], g[:, split:])
    return out
