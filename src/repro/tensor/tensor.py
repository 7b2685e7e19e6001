"""A small reverse-mode automatic differentiation engine over NumPy.

This module is the computational substrate of the whole library.  The paper's
experiments were run on PyTorch; offline reproduction requires an equivalent
engine, so :class:`Tensor` provides exactly the subset of autodiff needed by

* GNN training (GCN / GAT / defender models), and
* attack-gradient computation w.r.t. a *dense* adjacency matrix and a dense
  feature matrix (PEEGA's scores ``S_t``/``S_f``, Metattack's meta-gradients,
  PGD's relaxed perturbation gradients).

Design notes
------------
* Tensors wrap ``numpy.ndarray`` values (``float64`` by default).  A tensor
  participates in the autodiff graph when ``requires_grad=True`` or when any
  of its parents does.
* Each operation records a backward closure on the output tensor.  Calling
  :meth:`Tensor.backward` runs a topological sweep and accumulates ``.grad``
  on every reachable leaf.
* Broadcasting is fully supported; gradients are summed back to the operand
  shape via :func:`_unbroadcast`.
* A binary op's backward computes only the partials of operands that need
  a gradient: ``X @ W`` with constant features ``X`` never forms
  ``g @ Wᵀ``.  Every partial that is computed is unchanged bit for bit.
* Sparse matrices participate only as *constants* (see
  :func:`repro.tensor.functional.sparse_matmul`), which is all GNN training
  needs: the adjacency is fixed during training, and when the adjacency itself
  must be differentiated (attacks), a dense tensor path is used instead.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import ShapeError

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]


# Process-wide switch for gradient tracking, flipped by :class:`no_grad`.
# A plain flag suffices: the library starts no threads, and the supervisor
# runs every trial in the thread that calls it.
_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction inside its block.

    Example
    -------
    >>> x = Tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2
    >>> y.requires_grad
    False
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations are currently being traced."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_not_scalar(self)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar outputs; required
            for non-scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"upstream gradient shape {grad.shape} does not match tensor "
                f"shape {self.data.shape}"
            )

        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
            if node._backward is not None:
                node._push_parent_grads(node_grad, grads)

    def _push_parent_grads(
        self, upstream: np.ndarray, grads: dict[int, np.ndarray]
    ) -> None:
        assert self._backward is not None
        parent_grads = self._backward(upstream)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not _needs_grad(parent):
                continue
            pgrad = _unbroadcast(np.asarray(pgrad, dtype=np.float64), parent.shape)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pgrad
            else:
                grads[id(parent)] = pgrad

    # ------------------------------------------------------------------
    # Operator overloads (implemented in terms of functional primitives)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _binary(self, other, np.add, lambda g, a, b, da, db: (g, g))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + self

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return _binary(
            self, other, np.subtract, lambda g, a, b, da, db: (g, -g if db else None)
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _binary(
            self,
            other,
            np.multiply,
            lambda g, a, b, da, db: (g * b if da else None, g * a if db else None),
        )

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) * self

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _binary(
            self,
            other,
            np.divide,
            lambda g, a, b, da, db: (
                g / b if da else None,
                -g * a / (b * b) if db else None,
            ),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __neg__(self) -> "Tensor":
        return _unary(self, np.negative, lambda g, a, out: -g)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        return _unary(
            self,
            lambda a: np.power(a, exponent),
            lambda g, a, out: g * exponent * np.power(a, exponent - 1.0),
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def __getitem__(self, index: object) -> "Tensor":
        out = Tensor(
            self.data[index],
            requires_grad=_needs_grad(self),
            _parents=(self,),
        )
        if out.requires_grad:
            row_index = _as_row_index(index)
            if row_index is not None and self.data.ndim == 2:
                # Fast path for 2-D row gathers (the hot loop of PEEGA's
                # global view): scatter-add via a sparse selection matrix is
                # an order of magnitude faster than np.add.at.
                import scipy.sparse as sp

                n_rows = self.data.shape[0]
                scatter = sp.csr_matrix(
                    (
                        np.ones(len(row_index)),
                        (row_index, np.arange(len(row_index))),
                    ),
                    shape=(n_rows, len(row_index)),
                )

                def backward_rows(g: np.ndarray) -> tuple[np.ndarray]:
                    return (scatter @ g,)

                out._backward = backward_rows
            else:

                def backward(g: np.ndarray) -> tuple[np.ndarray]:
                    full = np.zeros_like(self.data)
                    np.add.at(full, index, g)
                    return (full,)

                out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Core math ops
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        if self.ndim != 2 or other_t.ndim != 2:
            raise ShapeError(
                f"matmul supports 2-D tensors only, got {self.shape} @ {other_t.shape}"
            )
        return _binary(
            self,
            other_t,
            np.matmul,
            lambda g, a, b, da, db: (g @ b.T if da else None, a.T @ g if db else None),
        )

    def transpose(self) -> "Tensor":
        return _unary(self, np.transpose, lambda g, a, out: g.T)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return _unary(
            self,
            lambda a: a.reshape(shape),
            lambda g, a, out: g.reshape(original),
        )

    def sum(
        self, axis: Optional[Union[int, tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        def forward(a: np.ndarray) -> np.ndarray:
            return a.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, a.shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, a.shape).copy()

        return _unary(self, forward, backward)

    def mean(
        self, axis: Optional[Union[int, tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        total = self.sum(axis=axis, keepdims=keepdims)
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in np.atleast_1d(axis)]
        )
        return total * (1.0 / float(count))

    def abs(self) -> "Tensor":
        return _unary(self, np.abs, lambda g, a, out: g * np.sign(a))

    def exp(self) -> "Tensor":
        return _unary(self, np.exp, lambda g, a, out: g * out)

    def log(self) -> "Tensor":
        return _unary(self, np.log, lambda g, a, out: g / a)

    def sqrt(self) -> "Tensor":
        return _unary(self, np.sqrt, lambda g, a, out: g * 0.5 / out)

    def maximum(self, other: ArrayLike) -> "Tensor":
        return _binary(
            self,
            other,
            np.maximum,
            lambda g, a, b, da, db: (
                g * (a >= b) if da else None,
                g * (b > a) if db else None,
            ),
        )

    def clip(self, low: float, high: float) -> "Tensor":
        return _unary(
            self,
            lambda a: np.clip(a, low, high),
            lambda g, a, out: g * ((a >= low) & (a <= high)),
        )

    def relu(self) -> "Tensor":
        return _unary(self, lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0))


def _as_row_index(index: object) -> Optional[np.ndarray]:
    """Return the index as a 1-D integer row array if it selects whole rows."""
    if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
        return index
    return None


def _raise_not_scalar(tensor: Tensor) -> float:
    raise ShapeError(f"item() requires a single-element tensor, got {tensor.shape}")


def _needs_grad(tensor: Tensor) -> bool:
    return tensor.requires_grad or tensor._backward is not None


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _unary(
    x: Tensor,
    forward: Callable[[np.ndarray], np.ndarray],
    backward: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> Tensor:
    out_data = forward(x.data)
    out = Tensor(out_data, requires_grad=_needs_grad(x), _parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: (backward(g, x.data, out_data),)
    return out


def _binary(
    a: ArrayLike,
    b: ArrayLike,
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
    backward: Callable[
        [np.ndarray, np.ndarray, np.ndarray, bool, bool],
        tuple[Optional[np.ndarray], Optional[np.ndarray]],
    ],
) -> Tensor:
    """Trace ``forward(a, b)``.  ``backward(g, a, b, da, db)`` returns both
    partials, or None for an operand whose flag (``da``/``db``) is False:
    a constant operand's partial would only be discarded, so it is never
    computed.  The flags are fixed here, at forward time."""
    a_t, b_t = as_tensor(a), as_tensor(b)
    out_data = forward(a_t.data, b_t.data)
    need_a, need_b = _needs_grad(a_t), _needs_grad(b_t)
    out = Tensor(out_data, requires_grad=need_a or need_b, _parents=(a_t, b_t))
    if out.requires_grad:  # False inside no_grad() even when an operand needs grad
        out._backward = lambda g: backward(g, a_t.data, b_t.data, need_a, need_b)
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiably."""
    items = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in items], axis=axis)
    needs = any(_needs_grad(t) for t in items)
    out = Tensor(out_data, requires_grad=needs, _parents=tuple(items))
    if out.requires_grad:

        def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
            slices = np.split(g, len(items), axis=axis)
            return tuple(np.squeeze(s, axis=axis) for s in slices)

        out._backward = backward
    return out
