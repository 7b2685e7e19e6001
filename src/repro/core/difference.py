"""Representation-difference measurement (paper Sec. III-A, Eqs. 5–8).

PEEGA scores an attack by how far it moves the surrogate node
representations ``M = A_n^l X``:

* **Self view** (Eq. 5): ``Dif1 = Σ_v ||M̂[v] − M[v]||_p`` — a node whose
  representation moves far from its original one tends to be misclassified.
* **Global view** (Eq. 6): ``Dif2 = Σ_v Σ_{u∈N_v} ||M̂[v] − M[u]||_p`` —
  neighbors mostly share labels (homophily, Fig 1), so pushing a node away
  from its *original* neighbors' representations pushes it away from its
  class without needing labels.

The combined objective (Eq. 8) is ``Dif1 + λ·Dif2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..errors import CacheError, ConfigError
from ..graph import NORMALIZE_EPS, Graph
from ..surrogate import PropagationCache, linear_propagation
from ..tensor import Tensor, as_tensor
from ..tensor.functional import row_pnorm, sparse_matmul_grad_matrix

try:  # SciPy's CSR kernel on raw arrays (the ``fastpath._spmm`` pattern).
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except Exception:  # pragma: no cover - depends on scipy internals
    _csr_matvecs = None

__all__ = [
    "DifferenceObjective",
    "IncrementalScorer",
    "SparseAttackGradients",
    "PairAttackGradients",
    "self_view_difference",
    "global_view_difference",
    "sparse_attack_gradients",
    "pairwise_gemm_dots",
]


def self_view_difference(
    m_hat: Tensor, m_orig: np.ndarray, p: Union[int, float] = 2
) -> Tensor:
    """Eq. 5: total row-wise Lp distance between perturbed and original reps."""
    return row_pnorm(as_tensor(m_hat) - Tensor(m_orig), p).sum()


def global_view_difference(
    m_hat: Tensor,
    m_orig: np.ndarray,
    edge_index: np.ndarray,
    p: Union[int, float] = 2,
) -> Tensor:
    """Eq. 6: distance between each node's perturbed rep and its original
    neighbors' original reps.

    ``edge_index`` is a ``(2, e)`` array of *directed* pairs ``(v, u)`` with
    ``u ∈ N_v`` taken from the original topology.
    """
    if edge_index.shape[0] != 2:
        raise ConfigError(f"edge_index must be (2, e), got {edge_index.shape}")
    src, dst = edge_index
    diffs = as_tensor(m_hat)[src] - Tensor(m_orig[dst])
    return row_pnorm(diffs, p).sum()


@dataclass
class DifferenceObjective:
    """Callable objective ``L(Â, X̂) = Dif1 + λ·Dif2`` bound to a clean graph.

    Precomputes the original representations ``M`` and the directed neighbor
    pairs once; each call evaluates the objective for candidate ``(Â, X̂)``
    tensors, differentiably.

    Parameters
    ----------
    graph:
        The clean graph ``G(V, A, X)`` (labels unused — black-box setting).
    layers:
        Surrogate depth ``l`` in ``A_n^l X`` (paper default 2; Fig 7b sweeps
        1–4).
    p:
        Norm order of the row distance (Fig 8b sweeps {1, 2, 3}).
    lam:
        Trade-off ``λ`` between self and global views (Fig 8a).
    node_mask:
        Optional boolean mask restricting both sums to a node subset.  The
        paper computes the objective on the training nodes ("Following [24]",
        Sec. V-A3); the mask contains no label information, only *which*
        nodes the attack focuses on.
    cache:
        Optional :class:`~repro.surrogate.PropagationCache` bound to the same
        clean graph.  When given, the original representations ``M`` are
        served from the cache's stored ``A_n`` instead of renormalizing the
        adjacency — together with the sparse score path this keeps a whole
        attack run at one normalization.  The cache must still be at the
        clean state (version 0).
    dense_reference:
        Compute ``M`` through the *dense* normalization/matmul chain — the
        exact floating-point operations the differentiable dense path applies
        to ``M̂``.  At the clean state ``M̂ − M`` is then exactly zero, so the
        ``p``-norm subgradient at the kink is zero rather than the sign of
        ~1e-16 matmul noise.  The incremental cache path gets this for free
        (``M`` and ``M̂`` come from the same sparse matvecs); set this flag
        when scoring topology flips through the dense reference path so both
        engines resolve the kink identically.  Ignored when ``cache`` is set.
    """

    graph: Graph
    layers: int = 2
    p: Union[int, float] = 2
    lam: float = 0.01
    node_mask: Union[np.ndarray, None] = None
    cache: Optional[PropagationCache] = None
    dense_reference: bool = False

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ConfigError(f"lambda must be non-negative, got {self.lam}")
        if self.cache is not None:
            if self.cache.graph is not self.graph:
                raise CacheError(
                    "the propagation cache is bound to a different graph"
                )
            if self.cache.version != 0:
                raise CacheError(
                    "the propagation cache already carries perturbations; the "
                    "objective needs the clean representations M"
                )
            m = self.cache.propagate(self.graph.features, self.layers)
        elif self.dense_reference:
            m = linear_propagation(
                Tensor(self.graph.dense_adjacency()),
                Tensor(np.asarray(self.graph.features, dtype=np.float64)),
                self.layers,
            ).data
        else:
            m = linear_propagation(
                self.graph.adjacency, self.graph.features, self.layers
            )
        self._m_orig: np.ndarray = np.asarray(m)
        n = self.graph.num_nodes
        coo = self.graph.adjacency.tocoo()
        edge_index = np.vstack([coo.row, coo.col]).astype(np.int64)
        if self.node_mask is not None:
            mask = np.asarray(self.node_mask, dtype=bool)
            if mask.shape != (n,):
                raise ConfigError(f"node_mask must be ({n},), got {mask.shape}")
            if not mask.any():
                raise ConfigError("node_mask selects no nodes")
            self._mask: Optional[np.ndarray] = mask
            self._rows: Optional[np.ndarray] = np.flatnonzero(mask)
            edge_index = edge_index[:, mask[edge_index[0]]]
        else:
            self._mask = self._rows = None
        self._edge_index: np.ndarray = edge_index
        # The COO of a CSR lists edges row-major, so the edges sourced at
        # node v are the contiguous range ``edge_ptr[v]:edge_ptr[v+1]`` — the
        # row pointer of the scatter that maps per-edge gradient rows back
        # onto their source nodes.  ``M[dst]`` is gathered per node range,
        # for the edges in use only; no (E, d) operand is kept.
        self._edge_ptr: Optional[np.ndarray] = None
        if self.lam > 0 and edge_index.shape[1] > 0:
            self._edge_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(edge_index[0], minlength=n), out=self._edge_ptr[1:]
            )

    @property
    def original_representations(self) -> np.ndarray:
        """The clean surrogate representations ``M = A_n^l X``."""
        return self._m_orig

    def __call__(
        self,
        adjacency: Union[Tensor, np.ndarray, sp.spmatrix],
        features: Union[Tensor, np.ndarray],
    ) -> Tensor:
        """Evaluate ``Dif1 + λ·Dif2`` for a candidate perturbed graph."""
        m_hat = linear_propagation(adjacency, as_tensor(features), self.layers)
        return self._loss_from(m_hat)

    def _loss_from(self, m_hat: Union[Tensor, np.ndarray]) -> Tensor:
        """The objective given already-propagated representations ``M̂``.

        Shared by the dense reference path (``M̂`` mid-graph, gradients flow
        back into ``Â``/``X̂``) and the incremental sparse path (``M̂`` a leaf
        tensor whose gradient seeds the closed-form backward) — one
        implementation, so both paths score flips with identical loss math.
        """
        if self._rows is None:
            loss = self_view_difference(m_hat, self._m_orig, self.p)
        else:
            loss = row_pnorm(
                as_tensor(m_hat)[self._rows] - Tensor(self._m_orig[self._rows]), self.p
            ).sum()
        if self.lam > 0 and self._edge_index.shape[1] > 0:
            loss = loss + self.lam * global_view_difference(
                m_hat, self._m_orig, self._edge_index, self.p
            )
        return loss

    def loss_and_representation_grad(
        self, m_hat: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Objective value and ``∂L/∂M̂`` for concrete representations.

        Closed form — no autodiff tape.  The gradient formulas mirror
        :func:`~repro.tensor.functional.row_pnorm`'s backward exactly
        (including the ``sign(0) = 0`` subgradient at the kink and the
        ``eps`` guard for ``p >= 2``), so this agrees with the tape to
        floating-point roundoff while skipping its per-op array copies —
        the dominant cost of the incremental score path.
        """
        row_values, edge_values, grad = self._loss_state(
            np.asarray(m_hat, dtype=np.float64)
        )
        return self._value(row_values, edge_values), grad

    def _value(self, row_values: np.ndarray, edge_values: Optional[np.ndarray]) -> float:
        """``Dif1 + λ·Dif2`` from the per-row and per-edge norms."""
        value = float(row_values.sum())
        if edge_values is not None:
            value = value + self.lam * float(edge_values.sum())
        return value

    def _loss_state(
        self, m_hat: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """``(row_values, edge_values, ∂L/∂M̂)`` over every node."""
        n = len(m_hat)
        row_values = np.empty(n if self._rows is None else len(self._rows))
        edge_values = (
            None if self._edge_ptr is None else np.empty(self._edge_index.shape[1])
        )
        grad = np.empty_like(m_hat)
        self._loss_rows(m_hat, np.arange(n), row_values, edge_values, grad)
        return row_values, edge_values, grad

    def _loss_rows(
        self,
        m_hat: np.ndarray,
        nodes: np.ndarray,
        row_values: np.ndarray,
        edge_values: Optional[np.ndarray],
        grad_m: np.ndarray,
        compare: bool = False,
    ) -> np.ndarray:
        """Rewrite the loss state of the sorted ``nodes``; return changed rows.

        Per node ``v``: its self-view norm (when ``v`` is in the node set),
        the global-view norms of the edges sourced at ``v``, and its row of
        ``∂L/∂M̂`` — the self-view gradient plus the sum of its edges'
        gradients (λ folded), added in edge order as the scatter operator
        ``scatter @ g_glob`` adds them.  Nodes go in ranges of about
        :data:`_SLAB_BYTES` of residual rows, so no temporary grows with
        ``E·d``.  With ``compare``, only the rows of ``grad_m`` that differ
        from the stored ones are written, and their nodes are returned;
        otherwise every row is written and ``nodes`` is returned.
        """
        d = m_hat.shape[1]
        ptr = self._edge_ptr
        src, dst = self._edge_index
        weights = np.ones(len(nodes), dtype=np.int64)
        if ptr is not None:
            weights += ptr[nodes + 1] - ptr[nodes]
        changed = []
        for lo, hi in _ranges(weights, _slab_rows(d)):
            chunk = nodes[lo:hi]
            if self._rows is None:
                keep, selected, positions = slice(None), chunk, chunk
                grad = None
            else:
                keep = self._mask[chunk]
                selected = chunk[keep]
                positions = np.searchsorted(self._rows, selected)
                grad = np.zeros((len(chunk), d))
            if len(selected):
                values, g_self = _pnorm_rows_and_grad(
                    m_hat[selected] - self._m_orig[selected], self.p
                )
                row_values[positions] = values
                if grad is None:
                    grad = g_self
                else:
                    grad[keep] = g_self
            if ptr is not None:
                # λ is folded into the per-edge gradient *before* the sum —
                # the tape seeds the global-view branch with g = λ, so λ
                # multiplies each edge row first.  ``λ·Σ g`` instead of
                # ``Σ λ·g`` differs in the last bit and breaks exact score
                # ties against the dense oracle (p = 1 scores are tie-dense).
                indptr, edges = _csr_rows(ptr, chunk)
                v_glob, g_edges = _pnorm_rows_and_grad(
                    m_hat[src[edges]] - self._m_orig[dst[edges]],
                    self.p,
                    prefactor=self.lam,
                )
                edge_values[edges] = v_glob
                grad += _csr_product(
                    indptr,
                    np.arange(len(edges), dtype=indptr.dtype),
                    np.ones(len(edges)),
                    len(edges),
                    g_edges,
                )
            if compare:
                moved = (grad != grad_m[chunk]).any(axis=1)
                chunk, grad = chunk[moved], grad[moved]
                changed.append(chunk)
            grad_m[chunk] = grad
        if not compare:
            return nodes
        return np.concatenate(changed) if changed else nodes[:0]


#: Target size of one row-chunk temporary (residuals, gathered operand rows,
#: score rows).  Chunked work is row-independent, so every chunk size gives
#: bitwise the same result; this only caps the transient memory of a step.
_SLAB_BYTES = 2 << 20


def _slab_rows(width: int) -> int:
    """Rows of ``width`` float64 columns that fit one :data:`_SLAB_BYTES` slab."""
    return max(1, _SLAB_BYTES // (8 * max(1, width)))


def _row_chunks(rows: np.ndarray, width: int):
    """``rows`` in consecutive pieces of at most one slab of ``width`` columns."""
    step = _slab_rows(width)
    return (rows[lo : lo + step] for lo in range(0, len(rows), step))


def _ranges(weights: np.ndarray, cap: int):
    """Consecutive ``(lo, hi)`` ranges whose weights sum to at most ``cap``.

    An item heavier than ``cap`` gets a range of its own.
    """
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(weights):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield lo, hi
        lo = hi


def _pnorm_rows_and_grad(
    residual: np.ndarray,
    p: Union[int, float],
    prefactor: float = 1.0,
    eps: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Row norms ``||r_i||_p`` and the gradient of ``prefactor·Σ_i ||r_i||_p``.

    Matches ``row_pnorm``'s backward op-for-op (``sign(0) = 0`` subgradient
    at the ``p = 1`` kink, ``eps``-guarded form for ``p >= 2``), with
    ``prefactor`` entering exactly where the tape's upstream gradient would —
    so the result is bitwise identical to dense autodiff.  The gradient's
    factors are multiplied in place (each product has the same operands, so
    the in-place form is bit-identical).
    """
    p = float(p)
    if p == 1.0:
        values = np.abs(residual).sum(axis=1)
        grad = np.sign(residual)
        if prefactor != 1.0:
            grad *= prefactor
        return values, grad
    guarded = np.abs(residual) + eps
    rowsums = (guarded**p).sum(axis=1)
    values = rowsums ** (1.0 / p)
    outer = (prefactor * (1.0 / p)) * rowsums ** (1.0 / p - 1.0)
    grad = guarded ** (p - 1.0)
    grad *= outer[:, None] * p
    grad *= np.sign(residual)
    return values, grad


@dataclass(frozen=True)
class SparseAttackGradients:
    """Closed-form attack gradients from the incremental sparse path.

    ``grad_topology`` is the *symmetrized* adjacency gradient
    ``∇_Â L + (∇_Â L)ᵀ`` — the quantity PEEGA multiplies by the flip
    direction — either full ``(n, n)`` or sliced to ``rows``.
    ``grad_features`` is ``∇_X̂ L`` (always full: it costs only sparse
    products).  Either entry is ``None`` when not requested.
    ``feature_rows`` lists the rows of ``grad_features`` that may differ
    from the previous call's (``None``: all of them).
    """

    loss: float
    grad_topology: Optional[np.ndarray]
    grad_features: Optional[np.ndarray]
    rows: Optional[np.ndarray]
    feature_rows: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PairAttackGradients:
    """Closed-form gradients restricted to explicit candidate pairs.

    ``grad_pairs[i]`` is the symmetrized adjacency gradient
    ``∇_Â[u_i, v_i] + ∇_Â[v_i, u_i]`` for candidate pair ``(u_i, v_i)`` —
    the same entry of the full :class:`SparseAttackGradients` topology
    matrix to ~1e-12 relative (see :func:`pairwise_gemm_dots` for why not
    bitwise), without materializing anything of size O(n²).
    """

    loss: float
    grad_pairs: np.ndarray
    grad_features: Optional[np.ndarray]


def pairwise_gemm_dots(a: np.ndarray, b: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Row-wise dots ``out[i] = ⟨a[i], b[i]⟩`` via chunked-GEMM diagonals.

    A plain ``einsum`` would compute the same values through a very
    different accumulation order than the BLAS GEMM behind
    :func:`~repro.tensor.functional.sparse_matmul_grad_matrix`; routing the
    dots through small GEMM diagonals keeps them on a BLAS reduction and in
    practice agrees with the full-matrix entries to ~1e-12 relative.  It is
    *not* bitwise: BLAS picks different micro-kernel tile paths for a
    ``chunk``-sized GEMM than for the (n, n) product, so a few entries per
    block differ in the last ulp.  Callers that need exact tie order
    against the dense oracle (the exhaustive-block attack modes) must score
    through the full-matrix path instead.  The wasted off-diagonal work is
    bounded by ``chunk``×.
    """
    count = a.shape[0]
    out = np.empty(count, dtype=np.float64)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[lo:hi] = np.diagonal(a[lo:hi] @ b[lo:hi].T)
    return out


def sparse_attack_gradients(
    objective: DifferenceObjective,
    cache: PropagationCache,
    features: np.ndarray,
    rows: Optional[np.ndarray] = None,
    need_topology: bool = True,
    need_features: bool = True,
) -> SparseAttackGradients:
    """Gradients of the objective w.r.t. dense ``Â`` and ``X̂``, via sparse ``A_n``.

    Replicates the dense reference path in closed form.  With ``M̂ = A_n^l X̂``
    and ``G = ∂L/∂M̂`` obtained by seeding the loss at a leaf tensor, the
    adjoints are ``U_l = G``, ``U_{k-1} = A_nᵀ U_k`` and the forward stack is
    ``Z_0 = X̂``, ``Z_k = A_n Z_{k-1}`` — all sparse-times-dense products.
    Then

    * ``∇_X̂ = U_0``;
    * ``∇_{A_n} = Σ_k U_k Z_{k-1}ᵀ`` (the dense outer-product kernel,
      row-sliced to the candidate frontier when ``rows`` is given);
    * differentiating through ``A_n = D^{-1/2}(Â+I)D^{-1/2}`` adds the
      normalization chain: ``∇_Â[i,j] = s_i H_{ij} s_j + c_i`` where
      ``c = (∂L/∂s) ⊙ ∂s/∂d`` and ``∂L/∂s_i = (Σ_j H_{ij}A_{n,ij} +
      Σ_j H_{ji}A_{n,ji}) / s_i`` collapses to row-wise dot products
      ``Σ_k ⟨U_k, Z_k⟩ + ⟨U_{k-1}, Z_{k-1}⟩`` — no dense matrix needed.

    The symmetrized topology gradient is assembled as
    ``C + Cᵀ + c 1ᵀ + 1 cᵀ`` with ``C = diag(s) H diag(s)`` computed by one
    GEMM over the column-stacked per-layer factors.
    """
    an = cache.normalized  # also verifies the cache binding
    layers = objective.layers
    zs = [np.asarray(features, dtype=np.float64)]
    for _ in range(layers):
        zs.append(an @ zs[-1])
    loss, grad_m = objective.loss_and_representation_grad(zs[-1])
    return _assemble_attack_gradients(
        cache, layers, zs, loss, grad_m, rows, need_topology, need_features
    )


def _assemble_attack_gradients(
    cache: PropagationCache,
    layers: int,
    zs: list[np.ndarray],
    loss: float,
    grad_m: np.ndarray,
    rows: Optional[np.ndarray],
    need_topology: bool,
    need_features: bool,
) -> SparseAttackGradients:
    """Adjoint chain + normalization-chain assembly shared by both engines.

    The stateless one-shot path and the :class:`IncrementalScorer` feed this
    with their (identical) ``Z``-stack and ``∂L/∂M̂`` — one implementation,
    so their gradients stay bitwise equal.
    """
    an = cache.normalized
    s = cache.scaling

    us: list[np.ndarray] = [grad_m]
    for _ in range(layers):
        # A_n is symmetric in structure and values, so A_nᵀ U ≡ A_n U.
        us.append(an @ us[-1])
    us.reverse()  # us[k] = adjoint of Z_k

    grad_features = us[0] if need_features else None
    if not need_topology:
        return SparseAttackGradients(loss, None, grad_features, rows)

    scaled_u, scaled_z = _scaled_factor_buffers(s, us, zs, layers)
    c_rows = sparse_matmul_grad_matrix(scaled_u, scaled_z, rows)
    if rows is None:
        # Full-matrix case: C is assembled once and its transpose reused.
        c_cols = c_rows.T
    else:
        c_cols = sparse_matmul_grad_matrix(scaled_z, scaled_u, rows)

    degree_grad = _degree_chain_gradient(cache, _level_dots(us, zs), layers)
    left = degree_grad if rows is None else degree_grad[rows]
    grad_topology = c_rows + c_cols + left[:, None] + degree_grad[None, :]
    return SparseAttackGradients(loss, grad_topology, grad_features, rows)


def _scaled_factor_buffers(
    s: np.ndarray, us: list[np.ndarray], zs: list[np.ndarray], layers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Column-stack the per-layer GEMM factors ``s ⊙ U_k`` / ``s ⊙ Z_{k-1}``.

    NOTE: every per-pair score term must go through the same dense dot
    products as the oracle path.  Exploiting the sparsity of ``Z_0 = X̂``
    here (a sparse product for the k = 1 term) is tempting but re-associates
    the sums — and with ``p = 1`` the score distribution is full of exact
    ties, which the two engines would then break differently.
    """
    n, d = zs[0].shape
    scale_col = s[:, None]
    scaled_u = np.empty((n, layers * d))
    scaled_z = np.empty((n, layers * d))
    for k in range(1, layers + 1):
        np.multiply(us[k], scale_col, out=scaled_u[:, (k - 1) * d : k * d])
        np.multiply(zs[k - 1], scale_col, out=scaled_z[:, (k - 1) * d : k * d])
    return scaled_u, scaled_z


def _level_dots(us: list[np.ndarray], zs: list[np.ndarray]) -> list[np.ndarray]:
    """Per-level row dots ``⟨U_k, Z_k⟩``, ``k = 0..l``."""
    return [np.einsum("ij,ij->i", u, z) for u, z in zip(us, zs)]


def _degree_chain_gradient(
    cache: PropagationCache, dots: list[np.ndarray], layers: int
) -> np.ndarray:
    """``∂L/∂Â`` contribution through the degree/scaling chain, per node.

    ``∂L/∂s_i`` collapses to the per-level row dots of the adjoint and
    forward stacks (``dots[k] = ⟨U_k, Z_k⟩``); the chain through
    ``s = (d + eps)^{-1/2}`` then yields a per-node vector that enters the
    topology gradient as ``c 1ᵀ + 1 cᵀ``.
    """
    row_dots = sum(dots[k] for k in range(1, layers + 1))
    col_dots = sum(dots[k - 1] for k in range(1, layers + 1))
    grad_scaling = (row_dots + col_dots) / cache.scaling
    return grad_scaling * (-0.5) * (cache.loop_degrees + NORMALIZE_EPS) ** -1.5


def _node_union(n: int, *parts: np.ndarray) -> np.ndarray:
    """Sorted union of node-id arrays over ``range(n)``, via one boolean mask.

    Equal to chained ``np.union1d``/``np.unique`` calls, in O(n + Σ|part|)
    with no sort.
    """
    mask = np.zeros(n, dtype=bool)
    for part in parts:
        mask[part] = True
    return np.flatnonzero(mask)


def _csr_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, positions)`` of the sub-matrix ``matrix[rows]``.

    ``indptr`` is the row pointer of ``matrix``.  ``positions`` indexes the
    stored entries of ``rows`` in row order, so ``matrix.indices[positions]``
    / ``matrix.data[positions]`` are exactly the arrays scipy's fancy row
    indexing builds — without its dispatch.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    sub_indptr = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=sub_indptr[1:])
    positions = np.arange(sub_indptr[-1]) + np.repeat(
        starts - sub_indptr[:-1], lengths
    )
    return sub_indptr, positions


def _csr_product(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    num_cols: int,
    dense: np.ndarray,
) -> np.ndarray:
    """CSR-arrays ``@ dense``: scipy's ``csr_matvecs`` into a zeroed result.

    The same kernel and accumulation order as ``csr_matrix @ dense`` (see
    ``fastpath._spmm``), so every output row is bitwise what the scipy
    product — and hence a full rebuild — computes.
    """
    dense = np.ascontiguousarray(dense)
    rows = len(indptr) - 1
    if _csr_matvecs is None:  # pragma: no cover - depends on scipy internals
        return sp.csr_matrix((data, indices, indptr), shape=(rows, num_cols)) @ dense
    out = np.zeros((rows, dense.shape[1]))
    _csr_matvecs(
        rows, num_cols, dense.shape[1], indptr, indices, data,
        dense.ravel(), out.ravel(),
    )
    return out


class IncrementalScorer:
    """Stateful engine: re-scores only what the last flips touched.

    The one-shot :func:`sparse_attack_gradients` re-materializes the full
    propagation stack ``Z_k = A_n^k X̂`` and the full residual/loss state on
    every call.  A greedy attack changes a handful of rows per step, so the
    scorer keeps both as persistent state and, on each call,

    1. drains the cache's dirty-row log (endpoint rows + mirrored neighbor
       rows per edge flip, one feature row per feature flip);
    2. propagates the dirty set through the stack — ``D_1`` is the dirty
       ``A_n`` rows plus neighbors of dirty feature rows, ``D_{k+1}`` adds
       neighbors of ``D_k`` (self-loops make ``D_k ⊆ N(D_k)``) — and
       recomputes just those rows with row-sliced sparse matvecs;
    3. patches the per-row self-view norms, the per-edge global-view norms
       and the rows of ``∂L/∂M̂`` for the touched rows and edges only.

    CSR matvec rows are computed independently, so a row-sliced recompute is
    bitwise identical to the same row of a full rebuild — the scorer's flip
    choices match the one-shot path (and hence the dense oracle) exactly,
    which ``tests/test_peega_incremental.py`` locks down.

    The ``features`` passed to each call is used as ``Z_0`` itself, not
    copied: it must already hold every feature flip logged in the cache.
    """

    def __init__(self, objective: DifferenceObjective, cache: PropagationCache) -> None:
        if objective.cache is not cache:
            raise CacheError(
                "IncrementalScorer needs the objective bound to the same cache"
            )
        self.objective = objective
        self.cache = cache
        # Forward stack ``Z_k = A_n^k X̂``; ``_zs[0]`` is the caller's own
        # ``X̂`` buffer, never copied.
        self._zs: Optional[list[np.ndarray]] = None
        # Loss state: per-row self-view norms, per-edge global-view norms
        # (``None`` without a global view) and the one (n, d) gradient image
        # ``∂L/∂M̂``.  Neither view's gradient is kept on its own: a dirty
        # node's row is recomputed from both and compared against
        # ``_grad_m``.
        self._row_values: Optional[np.ndarray] = None
        self._edge_values: Optional[np.ndarray] = None
        self._grad_m: Optional[np.ndarray] = None
        # Adjoint stack: ``_us[k]`` is the adjoint of ``Z_k`` (``_us[layers]``
        # aliases ``_grad_m``).
        self._us: Optional[list[np.ndarray]] = None
        # Topology state: the stacked GEMM factors and their product
        # ``C = (s ⊙ U) (s ⊙ Z)ᵀ`` — the quadratic piece of the score — kept
        # across calls and patched row/column-wise per flip.
        self._su: Optional[np.ndarray] = None
        self._sz: Optional[np.ndarray] = None
        self._c: Optional[np.ndarray] = None
        # Per-level row dots ``⟨U_k, Z_k⟩`` feeding the degree chain; each
        # level is refreshed only where ``U_k`` or ``Z_k`` changed.  Both
        # the full-matrix and the pair path read them; ``None`` until one
        # of them first needs the degree chain.
        self._dots: Optional[list[np.ndarray]] = None
        # Scratch for the assembled topology gradient — reused across calls
        # so the hot loop does not allocate a fresh (n, n) buffer per flip.
        self._topo_out: Optional[np.ndarray] = None

    def _refresh_state(
        self, features: np.ndarray
    ) -> tuple[bool, np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Drain the cache's dirty log and patch forward/adjoint/loss state.

        Shared preamble of :meth:`gradients` and :meth:`pair_gradients` —
        one implementation, so the full-matrix and block-sampled paths score
        from byte-identical state.  Returns ``(first, an_dirty, d_levels,
        e_levels)``: ``d_levels[k]`` / ``e_levels[k]`` are the rows of
        ``Z_k`` / ``U_k`` this call rewrote (empty lists on the first call,
        which builds everything).
        """
        cache = self.cache
        an = cache.normalized  # also verifies the cache binding
        objective = self.objective
        layers = objective.layers
        n = an.shape[0]
        an_dirty, feat_dirty = cache.drain_dirty_rows()
        features = np.asarray(features, dtype=np.float64)

        if self._zs is None:
            self._zs = [features]
            for _ in range(layers):
                self._zs.append(an @ self._zs[-1])
            self._row_values, self._edge_values, self._grad_m = (
                objective._loss_state(self._zs[-1])
            )
            self._us = [None] * (layers + 1)
            self._us[layers] = self._grad_m
            for k in range(layers - 1, -1, -1):
                # A_n is symmetric in structure and values: A_nᵀ U ≡ A_n U.
                self._us[k] = an @ self._us[k + 1]
            return True, an_dirty, [], []

        def fan_out(stack: list[np.ndarray], seed: np.ndarray, k: int, src: int):
            # Rows of stack[k] = A_n stack[src] that change: dirty A_n rows
            # plus the neighbors of the changed rows of stack[src].
            if len(seed):
                _, positions = _csr_rows(an.indptr, seed)
                rows = _node_union(n, an_dirty, an.indices[positions])
            else:
                rows = an_dirty
            for part in _row_chunks(rows, stack[src].shape[1]):
                indptr, positions = _csr_rows(an.indptr, part)
                stack[k][part] = _csr_product(
                    indptr, an.indices[positions], an.data[positions], n, stack[src]
                )
            return rows

        zs, us = self._zs, self._us
        # The caller's buffer already holds the logged feature flips.
        zs[0] = features
        d_levels = [feat_dirty]
        for k in range(1, layers + 1):
            d_levels.append(fan_out(zs, d_levels[-1], k, k - 1))
        # Adjoint fan-out: E_l = rows where ∂L/∂M̂ actually changed (for
        # p = 1 the gradient is a sign pattern, so most dirty residual rows
        # keep a bitwise-identical gradient and prune the frontier), then
        # E_{k-1} = dirty(A_n) ∪ N(E_k).
        e_levels = [
            objective._loss_rows(
                zs[-1],
                d_levels[layers],
                self._row_values,
                self._edge_values,
                self._grad_m,
                compare=True,
            )
        ]
        for k in range(layers - 1, -1, -1):
            e_levels.insert(0, fan_out(us, e_levels[0], k, k + 1))
        if self._dots is not None:
            for k in range(layers + 1):
                rows = _node_union(n, d_levels[k], e_levels[k])
                for part in _row_chunks(rows, zs[k].shape[1]):
                    self._dots[k][part] = np.einsum(
                        "ij,ij->i", us[k][part], zs[k][part]
                    )
        return False, an_dirty, d_levels, e_levels

    def _degree_gradient(self) -> np.ndarray:
        """The per-node degree-chain term, off the per-level dot state."""
        if self._dots is None:
            self._dots = _level_dots(self._us, self._zs)
        return _degree_chain_gradient(self.cache, self._dots, self.objective.layers)

    def _objective_value(self) -> float:
        """The objective at the current state, off the persistent loss state."""
        return self.objective._value(self._row_values, self._edge_values)

    def gradients(
        self,
        features: np.ndarray,
        rows: Optional[np.ndarray] = None,
        need_topology: bool = True,
        need_features: bool = True,
    ) -> SparseAttackGradients:
        """Same contract as :func:`sparse_attack_gradients`, amortized."""
        first, an_dirty, d_levels, e_levels = self._refresh_state(features)
        value = self._objective_value()
        dirty = not first and bool(len(an_dirty) or len(d_levels[0]))
        feature_rows = None if first else e_levels[0]
        grad_features = self._us[0] if need_features else None
        if not need_topology:
            if dirty:
                # Flips arrived while the topology state sat unused; a later
                # topology request must rebuild rather than patch from stale C.
                self._c = None
            return SparseAttackGradients(
                value, None, grad_features, rows, feature_rows
            )

        s = self.cache.scaling
        if self._c is None or first:
            self._su, self._sz = _scaled_factor_buffers(
                s, self._us, self._zs, self.objective.layers
            )
            self._c = sparse_matmul_grad_matrix(self._su, self._sz)
        elif dirty:
            self._patch_topology_state(s, an_dirty, d_levels, e_levels)

        degree_grad = self._degree_gradient()
        if rows is None:
            c_rows: np.ndarray = self._c
            c_cols: np.ndarray = self._c.T
            left = degree_grad
        else:
            c_rows = self._c[rows]
            c_cols = self._c[:, rows].T
            left = degree_grad[rows]
        # Same association as ``c_rows + c_cols + left + degree_grad`` (bit
        # parity with the one-shot path), assembled into persistent scratch.
        # The returned array is only valid until the next `gradients` call.
        if self._topo_out is None or self._topo_out.shape != c_rows.shape:
            self._topo_out = np.empty(c_rows.shape, dtype=np.float64)
        grad_topology = self._topo_out
        np.add(c_rows, c_cols, out=grad_topology)
        grad_topology += left[:, None]
        grad_topology += degree_grad[None, :]
        return SparseAttackGradients(
            value, grad_topology, grad_features, rows, feature_rows
        )

    def _patch_topology_state(
        self,
        s: np.ndarray,
        an_dirty: np.ndarray,
        d_levels: list[np.ndarray],
        e_levels: list[np.ndarray],
    ) -> None:
        """Refresh the rows/columns of ``su``/``sz``/``C`` flips touched.

        ``s ⊙ U`` is dirty on ``E_1 ∪ dirty(A_n)`` (``E_1`` contains every
        deeper adjoint level via the self-loop neighborhoods), ``s ⊙ Z`` on
        ``D_{l-1} ∪ dirty(A_n)``.  Row- and column-sliced GEMM patches then
        restore ``C`` to exactly what a full rebuild would produce (BLAS
        accumulates each output dot over the inner dimension identically
        regardless of row slicing — the equivalence suite locks this down
        against the dense oracle).
        """
        layers = self.objective.layers
        zs, us = self._zs, self._us
        n, d = zs[0].shape
        su_dirty = _node_union(n, e_levels[1], an_dirty)
        sz_dirty = _node_union(n, d_levels[layers - 1], an_dirty)
        if len(su_dirty):
            for part in _row_chunks(su_dirty, d):
                scale = s[part][:, None]
                for k in range(1, layers + 1):
                    self._su[part, (k - 1) * d : k * d] = us[k][part] * scale
            self._c[su_dirty, :] = sparse_matmul_grad_matrix(
                self._su, self._sz, su_dirty
            )
        if len(sz_dirty):
            for part in _row_chunks(sz_dirty, d):
                scale = s[part][:, None]
                for k in range(1, layers + 1):
                    self._sz[part, (k - 1) * d : k * d] = zs[k - 1][part] * scale
            self._c[:, sz_dirty] = sparse_matmul_grad_matrix(
                self._sz, self._su, sz_dirty
            ).T

    def pair_gradients(
        self,
        features: np.ndarray,
        pairs_u: np.ndarray,
        pairs_v: np.ndarray,
        need_features: bool = False,
    ) -> PairAttackGradients:
        """Symmetrized topology gradients at explicit candidate pairs.

        The block-coordinate attackers (PRBCD/GRBCD) score only a sampled
        set of pairs per iteration; materializing the full ``(n, n)``
        gradient — or even its GEMM product ``C`` — would defeat the point.
        This path reuses the scorer's incremental forward/adjoint state and
        computes, per pair,

            ``∇_Â[u,v] + ∇_Â[v,u] = (C[u,v] + C[v,u]) + dg[u] + dg[v]``

        without forming ``C``: the two entries are row-wise dots of
        gathered-and-scaled factor rows (:func:`pairwise_gemm_dots`), and
        the degree-chain term ``dg`` comes from the persistent per-level dot
        state, patched under the same dirty rules as the full path.  Term
        order and every elementwise op match the full-matrix assembly; the
        result agrees with the same entry of :meth:`gradients` to ~1e-12
        relative (not bitwise — see :func:`pairwise_gemm_dots` — which is
        why the exhaustive attack modes score via :meth:`gradients`
        instead; ``tests/test_rbcd_equivalence.py`` locks the tolerance
        down).

        Cost per call is O(|pairs| · layers · d) plus the incremental
        refresh — nothing scales with n² — and peak memory is bounded by a
        fixed pair-slab size.
        """
        layers = self.objective.layers
        first, an_dirty, d_levels, _ = self._refresh_state(features)
        value = self._objective_value()
        if not first and (len(an_dirty) or len(d_levels[0])):
            # The (n, n) product C (if a full-matrix call ever built it) did
            # not see these flips; force a rebuild on the next full call.
            self._c = None

        s = self.cache.scaling
        zs, us = self._zs, self._us
        degree_grad = self._degree_gradient()

        uu = np.asarray(pairs_u, dtype=np.int64)
        vv = np.asarray(pairs_v, dtype=np.int64)
        count = len(uu)
        d = zs[0].shape[1]
        grad_pairs = np.empty(count, dtype=np.float64)
        # Fixed-size slabs bound peak memory at O(slab · layers · d)
        # regardless of the block size the attacker asked for.
        slab = 16384
        for lo in range(0, count, slab):
            hi = min(lo + slab, count)
            su_u = np.empty((hi - lo, layers * d))
            sz_v = np.empty((hi - lo, layers * d))
            su_v = np.empty((hi - lo, layers * d))
            sz_u = np.empty((hi - lo, layers * d))
            scale_u = s[uu[lo:hi]][:, None]
            scale_v = s[vv[lo:hi]][:, None]
            for k in range(1, layers + 1):
                block = slice((k - 1) * d, k * d)
                # Elementwise scaling of gathered rows — bitwise the same
                # values _scaled_factor_buffers writes into su/sz.
                np.multiply(us[k][uu[lo:hi]], scale_u, out=su_u[:, block])
                np.multiply(zs[k - 1][vv[lo:hi]], scale_v, out=sz_v[:, block])
                np.multiply(us[k][vv[lo:hi]], scale_v, out=su_v[:, block])
                np.multiply(zs[k - 1][uu[lo:hi]], scale_u, out=sz_u[:, block])
            c_uv = pairwise_gemm_dots(su_u, sz_v)
            c_vu = pairwise_gemm_dots(su_v, sz_u)
            # Same association order as the full assembly:
            # (C[u,v] + C[v,u]) + dg[u] + dg[v].
            out = np.add(c_uv, c_vu)
            out += degree_grad[uu[lo:hi]]
            out += degree_grad[vv[lo:hi]]
            grad_pairs[lo:hi] = out

        grad_features = self._us[0] if need_features else None
        return PairAttackGradients(value, grad_pairs, grad_features)
