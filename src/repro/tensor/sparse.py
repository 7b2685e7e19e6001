"""Constant sparse operands shared by the autodiff and fused training engines.

Bag-of-words node features are 0.4–1% non-zero on the paper's graphs, so
every first-layer product ``X @ W`` and its weight gradient ``Xᵀ G`` runs
over the CSR of ``X`` instead of a dense GEMM.  Both engines call the one
kernel here, :func:`spmm`, on the same :class:`CSRConstant`, so their
products are the same accumulation over the same arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["CSRConstant", "spmm"]

try:  # SciPy's CSR kernel, reachable with a caller-owned output buffer.
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except Exception:  # pragma: no cover - depends on scipy internals
    _csr_matvecs = None


def spmm(matrix, dense: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``matrix @ dense`` into ``out``, or into a fresh array when ``out=None``.

    A dense ``matrix`` is one ``np.matmul``.  For float64 CSR, SciPy's
    ``_mul_multivector`` allocates a zeroed result and accumulates with
    ``csr_matvecs``; doing the same directly is bit-identical while skipping
    the scipy dispatch (and, into ``out``, the allocation).  One-column
    operands go through ``csr_matvecs`` too, where ``csr @ dense`` would
    take ``csr_matvec``: the per-row accumulation order is the same.
    """
    if isinstance(matrix, np.ndarray):
        return np.matmul(matrix, dense, out=out)
    if (
        _csr_matvecs is None
        or not dense.flags.c_contiguous
        or (out is not None and not out.flags.c_contiguous)
        or matrix.data.dtype != np.float64
        or dense.dtype != np.float64
    ):
        result = matrix @ dense
        if out is None:
            return result
        out[...] = result
        return out
    if out is None:
        out = np.zeros((matrix.shape[0], dense.shape[1]))
    else:
        out[...] = 0.0
    _csr_matvecs(
        matrix.shape[0],
        matrix.shape[1],
        dense.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        dense.ravel(),
        out.ravel(),
    )
    return out


class CSRConstant:
    """A constant (no-gradient) matrix as CSR, with its transpose built once.

    Models multiply it by a weight through :meth:`matmul`, which is
    :func:`repro.tensor.functional.sparse_matmul`: forward ``X @ W``,
    backward ``Xᵀ G`` over :attr:`matrix_t`.  :meth:`with_data` gives a
    matrix with the same stored entries and new values (input dropout),
    whose transpose is a gather, not a rebuild.

    Stored zeros are dropped from a dense input; explicit zeros of a sparse
    input are kept.
    """

    def __init__(self, matrix, _transpose: Optional[sp.csr_matrix] = None) -> None:
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
        else:
            matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        self.matrix: sp.csr_matrix = matrix
        self.matrix_t: sp.csr_matrix = (
            matrix.T.tocsr() if _transpose is None else _transpose
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @cached_property
    def flat_index(self) -> np.ndarray:
        """Row-major flat position ``r·d + c`` of every stored entry."""
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.matrix.indptr)
        )
        return rows * self.shape[1] + self.matrix.indices

    @cached_property
    def transpose_order(self) -> np.ndarray:
        """``matrix_t.data == matrix.data[transpose_order]``."""
        positions = sp.csr_matrix(
            (np.arange(self.matrix.nnz, dtype=np.int64),) + self._structure,
            shape=self.shape,
        )
        return positions.T.tocsr().data

    @property
    def _structure(self) -> tuple[np.ndarray, np.ndarray]:
        return self.matrix.indices, self.matrix.indptr

    def with_data(self, data: np.ndarray) -> "CSRConstant":
        """The same stored entries holding ``data`` (index arrays shared)."""
        matrix = sp.csr_matrix((data,) + self._structure, shape=self.shape)
        transpose = sp.csr_matrix(
            (data[self.transpose_order], self.matrix_t.indices, self.matrix_t.indptr),
            shape=self.matrix_t.shape,
        )
        return CSRConstant(matrix, _transpose=transpose)

    def matmul(self, other):
        """``self @ other`` as a :class:`~repro.tensor.Tensor`, differentiable
        in ``other`` only."""
        from .functional import sparse_matmul

        return sparse_matmul(self, other)
