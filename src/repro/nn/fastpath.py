"""Fused closed-form training kernels for the GCN family.

:func:`repro.nn.train_node_classifier` normally traces a per-op autodiff
graph through :class:`repro.tensor.Tensor` every epoch.  That generality is
only needed by genuinely dynamic setups (custom loss closures, wrapped
forwards, differentiable operators); every model the sweeps actually
fit — plain GCN over a sparse or dense constant operator (GCN-SVD's
low-rank one, Pro-GNN's learned structure), SGC, GNAT's shared multi-view
GCN, GAT's dense masked attention, RGCN's Gaussian layers + KL term, and
SimPGCN's adaptive propagation + SSL head — is a composition of a fixed
handful of kernels whose gradients are known in closed form.  This module
computes them directly:

* one NumPy pass for the forward (loss included), one for every parameter
  gradient, with no ``Tensor`` graph construction, no gather/scatter loss
  backward, and preallocated buffers reused across epochs;
* the never-consumed feature gradient of layer 0 (``g @ W⁰ᵀ``) is never
  formed — features carry no grad, and autodiff skips that partial too;
* every product that reads the features — ``X @ W`` and its weight
  gradient ``Xᵀ g`` in every first layer, and GAT's input dropout — runs
  over the feature CSR (:class:`~repro.tensor.CSRConstant`, built once per
  fit), which the autodiff models multiply through too;
* GNAT's t/f/e views differ only in their propagation operator, so the
  first-layer product ``X @ W⁰`` is computed **once** per epoch, and its
  weight gradient is one ``Xᵀ g`` over the views' folded gradients;
* GAT's attention runs its elementwise steps on the support entries only.

The kernels compose a few forward/backward primitives, each owning its
epoch-reused buffers: propagation over a CSR or dense operator, linear
(over a dense input or the feature CSR), dropout (dense or over the
feature CSR's stored entries), ReLU, ELU, and the L-layer GCN stack that
plain GCN and every GNAT view share.  Each kernel adds only its
model-specific code.

The contract is *bit-identity*, in the tradition of PR 1's incremental
PEEGA scorer and PR 3's SGC memo: every float operation of the autodiff
path is replicated with the same NumPy kernels in the same order (IEEE-754
addition is not associative, so even the order in which per-view gradients
fold into a shared parameter matters — autodiff processes views in reverse
construction order, and so does :class:`_FusedMultiView`).  Dropout draws
come from the model's own ``_dropout_rng`` stream in the same order and
with the same expression as :func:`repro.tensor.functional.dropout`, so
the weight trajectory of a fused run is indistinguishable from an autodiff
run — journals, checkpoints and resume all compose.

Engine selection (``train_node_classifier(..., engine=...)``):

* ``"auto"`` (default) — fuse when eligible, else autodiff;
* ``"fused"`` — fuse or raise :class:`~repro.errors.ConfigError`;
* ``"autodiff"`` — always trace (the oracle path).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError, ShapeError
from ..tensor import CSRConstant, Tensor, functional as F
from ..tensor.sparse import spmm as _spmm
from .gat import GAT, _NEG_INF, _support_mask
from .gcn import GCN, as_input
from .sgc import SGC

__all__ = [
    "ENGINES",
    "MultiViewForward",
    "resolve_engine",
    "make_fused_kernel",
    "takes_csr_features",
    "training_matches_eval",
]

ENGINES = ("auto", "fused", "autodiff")


def resolve_engine(engine: str = "auto") -> str:
    """Normalize an engine request (case-insensitive, one of :data:`ENGINES`)."""
    engine = str(engine).lower()
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


class MultiViewForward:
    """GNAT's averaged multi-view forward as a dispatchable callable.

    The paper averages the per-view label *probabilities*
    ``Z = (Z^t + Z^f + Z^e)/3`` — robust to one confidently-wrong view.
    Returning ``log(Z̄)`` keeps the standard cross-entropy loss exact
    (log-softmax of a log-probability vector is itself).

    The views differ only in the propagation operator, so ``X @ W⁰`` is one
    node they all read: autodiff folds the views' propagated layer-0
    gradients before a single ``Xᵀ`` GEMM.  As a class (rather than GNAT's
    former inline closure) the trainer can recognize it and dispatch to
    :class:`_FusedMultiView`; calling it runs the identical autodiff
    composition.
    """

    def __init__(self, model: GCN, operators: Sequence[sp.spmatrix]) -> None:
        if not operators:
            raise ConfigError("MultiViewForward needs at least one operator")
        self.model = model
        self.operators = list(operators)

    def __call__(self, _adjacency: object, features) -> Tensor:
        model = self.model
        support = as_input(features).matmul(model.layers[0].weight)
        probs = None
        for operator in self.operators:
            p = F.softmax(model.forward_from_support(operator, support), axis=1)
            probs = p if probs is None else probs + p
        return (probs * (1.0 / float(len(self.operators))) + 1e-12).log()


# ----------------------------------------------------------------------
# Closed-form loss: masked cross-entropy from raw logits
# ----------------------------------------------------------------------
class _MaskedCrossEntropy:
    """Bit-exact replica of ``F.cross_entropy(logits, labels, train_mask)``
    over a graph's (n, classes) logits.

    Forward stores the log-softmax (reused by backward); backward returns
    d(loss)/d(logits).  The gradient buffer is epoch-reused.
    """

    def __init__(self, graph, classes: int) -> None:
        targets = np.asarray(graph.labels, dtype=np.int64)
        shape = (len(targets), classes)
        if graph.train_mask is None:
            rows = np.arange(len(targets))
        else:
            rows = np.flatnonzero(np.asarray(graph.train_mask))
        if len(rows) == 0:
            raise ShapeError("nll_loss mask selects no rows")
        self.rows = rows
        self.targets = targets[rows]
        self.inv = 1.0 / float(len(rows))
        self._logp = np.empty(shape)
        self._grad = np.empty(shape)
        self._scratch = np.empty(shape)
        self._row = np.empty((shape[0], 1))

    def forward(self, logits: np.ndarray) -> float:
        shifted = np.subtract(
            logits, np.max(logits, axis=-1, keepdims=True, out=self._row),
            out=self._scratch,
        )
        np.exp(shifted, out=self._logp)
        np.sum(self._logp, axis=-1, keepdims=True, out=self._row)
        np.subtract(shifted, np.log(self._row, out=self._row), out=self._logp)
        picked = self._logp[self.rows, self.targets]
        return float(-picked.sum() * self.inv)

    def backward(self, scale: float = 1.0) -> np.ndarray:
        """d(scale · loss)/d(logits); ``scale`` enters where the tape's
        upstream gradient would."""
        # NLL backward is a scatter of -scale/k into the picked entries; the
        # log-softmax backward is g - softmax * rowsum(g).
        grad = self._grad
        grad[...] = 0.0
        grad[self.rows, self.targets] = -(scale * self.inv)
        softmax = np.exp(self._logp, out=self._scratch)
        np.sum(grad, axis=-1, keepdims=True, out=self._row)
        np.multiply(softmax, self._row, out=softmax)
        return np.subtract(grad, softmax, out=grad)


# ----------------------------------------------------------------------
# Layer primitives: each owns its epoch-reused buffers
# ----------------------------------------------------------------------
def _operator_pair(operator) -> tuple:
    """``(A, Aᵀ)``, shared by every propagation over ``A``: CSR, or a dense
    float64 array and its transposed view (autodiff's ``a.T``)."""
    if isinstance(operator, np.ndarray):
        matrix = np.asarray(operator, dtype=np.float64)
        return matrix, matrix.T
    matrix = operator.tocsr()
    return matrix, matrix.T.tocsr()


def _feature_csr(graph, features: Optional[CSRConstant]) -> CSRConstant:
    """The fit's feature CSR: the caller's (built once per fit), else the
    graph's features converted here."""
    return features if features is not None else CSRConstant(graph.features)


class _Propagate:
    """Propagation ``A @ x`` over a sparse or dense ``A``; its backward is
    ``Aᵀ @ g``.  With ``fresh=True`` the forward allocates its output
    (final logits)."""

    def __init__(self, pair, shape: tuple[int, int], fresh: bool = False) -> None:
        self.matrix, self.matrix_t = pair
        self._out = None if fresh else np.empty(shape)
        self._grad = np.empty(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _spmm(self.matrix, x, self._out)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return _spmm(self.matrix_t, g, self._grad)


class _Linear:
    """``x @ W``; backward returns ``(dW, dx)``, with ``dx = None`` (the
    GEMM skipped) when built with ``input_grad=False``, as for features.

    Features come as a :class:`~repro.tensor.CSRConstant`: the forward is
    then the CSR kernel's ``X @ W`` and ``dW`` is ``Xᵀ g`` over the stored
    transpose, :func:`~repro.tensor.functional.sparse_matmul`'s products.
    """

    def __init__(self, weight, rows: int, input_grad: bool = True) -> None:
        self.weight = weight
        self.x = None
        self.out = np.empty((rows, weight.shape[1]))
        self._gw = np.empty(weight.shape)
        self._gx = np.empty((rows, weight.shape[0])) if input_grad else None

    def forward(self, x) -> np.ndarray:
        self.x = x
        if isinstance(x, CSRConstant):
            return _spmm(x.matrix, self.weight.data, self.out)
        return np.matmul(x, self.weight.data, out=self.out)

    def backward(self, g: np.ndarray):
        if isinstance(self.x, CSRConstant):
            return _spmm(self.x.matrix_t, g, self._gw), None
        gw = np.matmul(self.x.T, g, out=self._gw)
        if self._gx is None:
            return gw, None
        return gw, np.matmul(g, self.weight.data.T, out=self._gx)


class _Dropout:
    """Inverted dropout: the draws and expression of ``F.dropout`` from the
    model's own ``_dropout_rng``, into reused buffers (bool -> float division
    is the exact astype-then-divide arithmetic).  Identity at rate 0.

    Built over a :class:`~repro.tensor.CSRConstant` (``like``), it still
    draws the full (n, d) array but keeps and scales only the stored
    entries, into one output matrix of the same structure whose values (and
    transpose's values) it rewrites each epoch.
    """

    def __init__(self, shape: tuple[int, int], like: Optional[CSRConstant] = None) -> None:
        self._rand = np.empty(shape)
        self.keep: Optional[np.ndarray] = None
        if like is None:
            entries = shape
            self._out = np.empty(shape)
        else:
            entries = like.matrix.nnz
            self._out = like.with_data(like.matrix.data.copy())
            self._at = np.empty(entries)
        self._keepb = np.empty(entries, dtype=bool)
        self._keep = np.empty(entries)

    def forward(self, x, model):
        rate = model.dropout
        self.keep = None
        if not rate > 0.0:
            return x
        model._dropout_rng.random(out=self._rand)
        if isinstance(x, CSRConstant):
            out = self._out
            draws = np.take(self._rand.reshape(-1), x.flat_index, out=self._at)
            np.greater_equal(draws, rate, out=self._keepb)
            np.divide(self._keepb, 1.0 - rate, out=self._keep)
            np.multiply(x.matrix.data, self._keep, out=out.matrix.data)
            np.take(out.matrix.data, x.transpose_order, out=out.matrix_t.data)
            return out
        np.greater_equal(self._rand, rate, out=self._keepb)
        self.keep = np.divide(self._keepb, 1.0 - rate, out=self._keep)
        return np.multiply(x, self.keep, out=self._out)

    def backward(self, g: np.ndarray) -> np.ndarray:
        """The mask multiply, in place on ``g``."""
        if self.keep is not None:
            np.multiply(g, self.keep, out=g)
        return g


class _ReLU:
    """``max(x, 0)``; backward masks by ``x > 0`` in place."""

    def __init__(self, shape: tuple[int, int]) -> None:
        self.out = np.empty(shape)
        self._mask = np.empty(shape, dtype=bool)
        self.x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.x = x
        return np.maximum(x, 0.0, out=self.out)

    def backward(self, g: np.ndarray) -> np.ndarray:
        np.greater(self.x, 0, out=self._mask)
        return np.multiply(g, self._mask, out=g)


class _ELU:
    """ELU at alpha=1 — ``np.where(x > 0, x, exp(min(x, 0)) - 1)`` — via
    masked copies; backward is ``g * where(x > 0, 1, elu + 1)`` in place."""

    def __init__(self, shape: tuple[int, int]) -> None:
        self.out = np.empty(shape)
        self._pos = np.empty(shape, dtype=bool)
        self._neg = np.empty(shape, dtype=bool)
        self._tmp = np.empty(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        np.greater(x, 0, out=self._pos)
        np.minimum(x, 0.0, out=self._tmp)
        np.exp(self._tmp, out=self._tmp)
        np.subtract(self._tmp, 1.0, out=self._tmp)
        np.copyto(self.out, x)
        np.logical_not(self._pos, out=self._neg)
        np.copyto(self.out, self._tmp, where=self._neg)
        return self.out

    def backward(self, g: np.ndarray) -> np.ndarray:
        np.add(self.out, 1.0, out=self._tmp)
        np.multiply(g, self._tmp, out=self._tmp)
        np.copyto(g, self._tmp, where=self._neg)
        return g


class _GCNStack:
    """The L-layer GCN ``hⁱ = A·(dropout(relu(hⁱ⁻¹))·Wⁱ) + bⁱ`` over one operator.

    Layer 0 (no activation, no dropout) starts from its support ``X·W⁰``
    and its backward stops at that support's gradient, so GNAT's views can
    share the product and its one ``Xᵀ`` GEMM.
    """

    def __init__(self, model: GCN, operator, n: int) -> None:
        self.model = model
        pair = _operator_pair(operator)
        layers = model.layers
        last = len(layers) - 1
        self.linears = [None] + [_Linear(l.weight, n) for l in layers[1:]]
        self.props = [
            _Propagate(pair, (n, l.weight.shape[1]), fresh=i == last)
            for i, l in enumerate(layers)
        ]
        inputs = [(n, l.weight.shape[0]) for l in layers[1:]]
        self.relus = [None] + [_ReLU(shape) for shape in inputs]
        self.dropouts = [None] + [_Dropout(shape) for shape in inputs]
        self._gb = [np.empty(l.bias.shape) for l in layers]
        self.hidden0: Optional[np.ndarray] = None

    def _propagate(self, i: int, support: np.ndarray) -> np.ndarray:
        h = self.props[i].forward(support)
        return np.add(h, self.model.layers[i].bias.data, out=h)

    def train_logits(self, support: np.ndarray) -> np.ndarray:
        """Training forward from layer 0's support."""
        h = self.hidden0 = self._propagate(0, support)
        for i in range(1, len(self.model.layers)):
            x = self.dropouts[i].forward(self.relus[i].forward(h), self.model)
            h = self._propagate(i, self.linears[i].forward(x))
        return h

    def eval_logits(self, support: Optional[np.ndarray] = None) -> np.ndarray:
        """Eval-mode logits from layer 0's support, or — deferred, with
        ``support=None`` — for the weights the LAST :meth:`train_logits` used.

        Dropout never reaches layer 0, so the training forward's layer-0
        output is already the eval-mode one.  The tail writes fresh arrays
        only, so it may run between a training forward and its backward.
        """
        h = self.hidden0 if support is None else self._propagate(0, support)
        for layer in self.model.layers[1:]:
            h = _spmm(self.props[0].matrix, np.maximum(h, 0.0) @ layer.weight.data)
            np.add(h, layer.bias.data, out=h)
        return h

    def backward(self, g: np.ndarray) -> list:
        """Per-layer ``(dW, db)`` from the gradient of the logits, except that
        layer 0 gives the gradient of its support ``X·W⁰`` in place of
        ``dW⁰``: the caller folds the views' before one ``Xᵀ`` GEMM."""
        grads = []
        for i in range(len(self.model.layers) - 1, 0, -1):
            gb = np.sum(g, axis=0, out=self._gb[i])
            gw, g = self.linears[i].backward(self.props[i].backward(g))
            g = self.relus[i].backward(self.dropouts[i].backward(g))
            grads.append((gw, gb))
        gb = np.sum(g, axis=0, out=self._gb[0])
        grads.append((self.props[0].backward(g), gb))
        return grads[::-1]


# ----------------------------------------------------------------------
# Fused kernels
# ----------------------------------------------------------------------
class _FusedGCN:
    """Closed-form trainer kernel for a plain L-layer GCN over a sparse or
    dense operator: one :class:`_GCNStack` per operator (one here; one per
    view in the :class:`_FusedMultiView` subclass) over a shared ``X @ W⁰``."""

    def __init__(
        self, model: GCN, operators: Sequence, graph,
        features: Optional[CSRConstant] = None,
    ) -> None:
        self.model = model
        self.features = _feature_csr(graph, features)
        n = self.features.shape[0]
        self.support = _Linear(model.layers[0].weight, n, input_grad=False)
        self.stacks = [_GCNStack(model, op, n) for op in operators]
        self.loss = _MaskedCrossEntropy(graph, model.layers[-1].weight.shape[1])

    def _output(self, logits: list[np.ndarray], training: bool) -> np.ndarray:
        return logits[0]

    def _stack_grads(self, g: np.ndarray) -> list[np.ndarray]:
        return [g]

    def train_forward(self) -> tuple[float, np.ndarray]:
        support = self.support.forward(self.features)
        logits = [stack.train_logits(support) for stack in self.stacks]
        out = self._output(logits, training=True)
        return self.loss.forward(out), out

    def backward(self) -> None:
        grads = self._stack_grads(self.loss.backward())
        views = [stack.backward(g) for stack, g in zip(self.stacks, grads)]
        # Reverse-view left fold = autodiff's accumulation order; layer 0
        # folds the support gradients, then runs its one Xᵀ GEMM.
        for i, layer in enumerate(self.model.layers):
            w_acc, b_acc = views[-1][i]
            for view in views[-2::-1]:
                w_acc = w_acc + view[i][0]
                b_acc = b_acc + view[i][1]
            if i == 0:
                w_acc, _ = self.support.backward(w_acc)
            layer.weight.grad, layer.bias.grad = w_acc, b_acc

    def eval_forward(self) -> np.ndarray:
        support = self.support.forward(self.features)
        logits = [stack.eval_logits(support) for stack in self.stacks]
        return self._output(logits, training=False)

    def deferred_eval_forward(self) -> np.ndarray:
        """Eval logits for the weights the LAST ``train_forward`` used: only
        the hidden-dim tails, skipping ``X @ W⁰`` and the first propagation."""
        logits = [stack.eval_logits() for stack in self.stacks]
        return self._output(logits, training=False)

    def operator_grad(self, scale: float = 1.0) -> np.ndarray:
        """``∂(scale · loss)/∂A`` for the one dense operator ``A``, in eval
        mode at the current weights, with the weights held constant.

        Autodiff's operations in its order: each layer's propagation adds
        ``g @ supportᵀ``, the last layer's first, and the gradient reaches
        the layer below through ``Aᵀ``, ``Wᵀ`` and the ReLU mask.  So the
        result is bitwise the tape's ``A.grad``.
        """
        (stack,) = self.stacks
        matrix, matrix_t = stack.props[0].matrix, stack.props[0].matrix_t
        layers = self.model.layers
        supports = [self.support.forward(self.features)]
        hidden = [np.matmul(matrix, supports[0]) + layers[0].bias.data]
        for layer in layers[1:]:
            supports.append(np.maximum(hidden[-1], 0.0) @ layer.weight.data)
            hidden.append(np.matmul(matrix, supports[-1]) + layer.bias.data)
        self.loss.forward(hidden[-1])
        g = self.loss.backward(scale)
        grad = None
        for i in range(len(layers) - 1, -1, -1):
            part = g @ supports[i].T
            grad = part if grad is None else grad + part
            if i:
                g = (matrix_t @ g) @ layers[i].weight.data.T
                g = g * (hidden[i - 1] > 0)
        return grad


class _FusedSGC:
    """Closed-form kernel for SGC: ``softmax(A_n^K X W + b)`` training.

    Propagation goes through the model's own ``_propagated`` memo so the
    ``propagation_count`` bookkeeping (and cross-engine memo sharing) is
    identical to the autodiff path.
    """

    def __init__(self, model: SGC, adjacency: sp.spmatrix, graph) -> None:
        self.model = model
        self.adjacency = adjacency
        self.features = Tensor(graph.features)
        self.loss = _MaskedCrossEntropy(graph, model.weight.shape[1])
        self._linear = _Linear(model.weight, self.features.shape[0], input_grad=False)
        self._grad_b = np.empty(model.bias.shape)

    def train_forward(self) -> tuple[float, np.ndarray]:
        logits = self.eval_forward()
        return self.loss.forward(logits), logits

    def backward(self) -> None:
        g = self.loss.backward()
        self.model.bias.grad = np.sum(g, axis=0, out=self._grad_b)
        self.model.weight.grad, _ = self._linear.backward(g)

    def eval_forward(self) -> np.ndarray:
        prop = self.model._propagated(self.adjacency, self.features).data
        return self._linear.forward(prop) + self.model.bias.data


class _FusedMultiView(_FusedGCN):
    """Closed-form kernel for GNAT's shared-weight multi-view GCN.

    Replicates :class:`MultiViewForward` bit for bit with one stack per
    view over one shared ``X @ W⁰``.  The views' softmaxes are averaged;
    backward runs each view's chain, then folds the per-view gradients
    (layer 0's of its support) in reverse view order — the order autodiff's
    topological sweep accumulates them in, which matters because float
    addition is not associative.
    """

    def _output(self, logits: list[np.ndarray], training: bool) -> np.ndarray:
        probs = []
        for z in logits:
            shifted = np.exp(z - z.max(axis=1, keepdims=True))
            probs.append(shifted / shifted.sum(axis=1, keepdims=True))
        total = probs[0]
        for p in probs[1:]:
            total = total + p
        t2 = total * (1.0 / float(len(probs))) + 1e-12
        if training:
            self._probs, self._t2 = probs, t2
        return np.log(t2)

    def _stack_grads(self, g: np.ndarray) -> list[np.ndarray]:
        dprobs = (g / self._t2) * (1.0 / float(len(self._probs)))
        return [p * (dprobs - (dprobs * p).sum(axis=1, keepdims=True)) for p in self._probs]


class _FusedGAT:
    """Closed-form kernel for the two-layer multi-head GAT.

    Replicates :meth:`repro.nn.gat.GAT.forward` + masked cross-entropy op
    for op, both dropout draws from the model's own RNG stream included.
    The support (edges plus self-loops) is found once per fit as E
    row-major entries, and every elementwise step of the attention runs on
    those only; the values land in dense (n, n) buffers whose off-support
    entries stay ``+0.0``.  What depends on summation order stays dense, as
    in autodiff: the three GEMMs, the softmax row sums and the
    score-gradient sums.  Backward folds the three gradients of each head's
    ``h¹`` (attention product, dst scores, src scores) in autodiff's
    reverse post-order and skips the never-consumed feature gradient.
    """

    def __init__(self, model: GAT, adjacency, graph, features=None) -> None:
        self.model = model
        mask = _support_mask(adjacency)
        n = mask.shape[0]
        self._rows, self._cols = np.nonzero(mask)
        self._flat = self._rows * n + self._cols
        counts = np.count_nonzero(mask, axis=1)
        self._starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # The dense masked row max reads -1e9 wherever a row has masked entries.
        self._partial = counts < n
        self.features = _feature_csr(graph, features)
        d = model.heads[0].weight.shape[1]
        width = d * len(model.heads)
        self._heads = [slice(k * d, (k + 1) * d) for k in range(len(model.heads))]
        self.loss = _MaskedCrossEntropy(graph, model.out_layer.weight.shape[1])
        # Attention layers: the heads, then the output layer (the only one
        # whose input carries a gradient).
        self.layers = list(model.heads) + [model.out_layer]
        self._linears = [
            _Linear(layer.weight, n, input_grad=layer is model.out_layer)
            for layer in self.layers
        ]
        # Per layer: the dense attention, and its support values with the
        # signs of the scores they came from.
        self._att = [np.zeros((n, n)) for _ in self.layers]
        self._saved: list = [None] * len(self.layers)
        self._gh1 = [np.empty(linear.out.shape) for linear in self._linears]
        self._drop_in = _Dropout(self.features.shape, like=self.features)
        self._merged = np.empty((n, width))
        self._elu = _ELU((n, width))
        self._drop_hidden = _Dropout((n, width))
        # (n, n) backward scratch of every layer: g @ h¹ᵀ, and +0.0 off the support.
        self._datt = np.empty((n, n))
        self._Z = np.zeros((n, n))

    def _attention(self, k: int, x: np.ndarray) -> np.ndarray:
        """Attention layer ``k``'s forward into its buffers; returns ``h¹``."""
        layer, att, rows, flat = self.layers[k], self._att[k], self._rows, self._flat
        h1 = self._linears[k].forward(x)
        e = np.take(h1 @ layer.attn_src.data, rows) + np.take(h1 @ layer.attn_dst.data, self._cols)
        # leaky_relu's np.where(pre > 0, pre, slope * pre).
        pos = e > 0
        e = np.where(pos, e, e * layer.slope)
        # softmax: exp(a - rowmax) / rowsum.  Off the support, exp(-1e9 -
        # rowmax) underflows to +0.0, which the dense buffer holds there.  The
        # max is exact in any order; the row sum stays dense.
        peak = np.maximum.reduceat(e, self._starts)
        np.maximum(peak, _NEG_INF, out=peak, where=self._partial)
        e -= peak[rows]
        np.exp(e, out=e)
        np.put(att, flat, e)
        e /= np.sum(att, axis=1)[rows]
        np.put(att, flat, e)
        self._saved[k] = e, pos
        return h1

    def _attention_backward(self, k: int, gout: np.ndarray) -> Optional[np.ndarray]:
        """Backward of attention layer ``k`` from the gradient of its output
        ``att @ h¹``: sets the layer's grads, returns its input gradient
        (None for the heads, whose input is the features)."""
        layer, att, (a, pos) = self.layers[k], self._att[k], self._saved[k]
        flat, Z = self._flat, self._Z
        h1 = self._linears[k].out
        # h¹'s first gradient contribution: the attention product.
        gh1 = np.matmul(att.T, gout, out=self._gh1[k])
        datt = np.take(np.matmul(gout, h1.T, out=self._datt), flat)
        # softmax backward: out * (g - (g*out).sum(axis=1)), the row sum dense.
        np.put(Z, flat, datt * a)
        g = a * (datt - np.sum(Z, axis=1)[self._rows])
        # masked_fill's backward zeroes the off-support; leaky_relu's: g * where(pre>0, 1, slope).
        np.put(Z, flat, np.where(pos, g, g * layer.slope))
        # src + dst.T backward: unbroadcast to the (n, 1) score columns;
        # autodiff's reverse post-order folds dst's contribution before src's.
        dsrc = Z.sum(axis=1, keepdims=True)
        ddst = Z.sum(axis=0, keepdims=True).T
        np.add(gh1, ddst @ layer.attn_dst.data.T, out=gh1)
        layer.attn_dst.grad = h1.T @ ddst
        np.add(gh1, dsrc @ layer.attn_src.data.T, out=gh1)
        layer.attn_src.grad = h1.T @ dsrc
        layer.weight.grad, gx = self._linears[k].backward(gh1)
        return gx

    def _logits(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Heads -> concat -> ELU (+ training dropout) -> output layer."""
        for k, cols in enumerate(self._heads):
            h1 = self._attention(k, x)
            np.matmul(self._att[k], h1, out=self._merged[:, cols])
        e = self._elu.forward(self._merged)
        if training:
            e = self._drop_hidden.forward(e, self.model)
        H = self._attention(len(self.layers) - 1, e)
        return self._att[-1] @ H  # fresh: the trainer keeps logits alive

    def train_forward(self) -> tuple[float, np.ndarray]:
        x = self._drop_in.forward(self.features, self.model)
        logits = self._logits(x, training=True)
        return self.loss.forward(logits), logits

    def backward(self) -> None:
        ge = self._attention_backward(len(self.layers) - 1, self.loss.backward())
        self._elu.backward(self._drop_hidden.backward(ge))
        # concat backward: slice per head, reverse construction order.
        for k in reversed(range(len(self._heads))):
            self._attention_backward(k, ge[:, self._heads[k]])

    def eval_forward(self) -> np.ndarray:
        return self._logits(self.features, training=False)


class _FusedRGCN:
    """Closed-form kernel for RGCN's Gaussian GCN + KL regularizer.

    Replicates :meth:`repro.defenses.rgcn.GaussianGCNModel.forward` plus
    ``ce + β·KL``: two sparse-operator passes (means through the mean
    operator, variances through the variance operator) with the elementwise
    attention/KL couplings, sampling ``μ + ε√σ`` from the model's own RNG.
    Backward replays autodiff's reverse post-order — the KL chain folds its
    contributions into ``μ₂``/``σ₂`` *before* the cross-entropy chain does —
    and skips both feature gradients.  Validation is free: the training
    forward already computes the eval-mode logits (``μ₂``, sampled only
    afterwards), so :meth:`deferred_eval_forward` just returns them.
    """

    def __init__(self, model, operators, graph, loss, features=None) -> None:
        self.model = model
        mean_op, var_op = (_operator_pair(op) for op in operators)
        self.features = _feature_csr(graph, features)
        self.beta_kl = float(loss.beta_kl)
        n = self.features.shape[0]
        d = model.w_mean_1.shape[1]
        c = model.w_mean_2.shape[1]
        self.loss = _MaskedCrossEntropy(graph, c)
        # Layer 1: μ₁ = elu(A_m X W_m1) and σ₁ = relu(A_v X W_v1) + 1e-6.
        self._lin_m1 = _Linear(model.w_mean_1, n, input_grad=False)
        self._prop_m1 = _Propagate(mean_op, (n, d))
        self._elu = _ELU((n, d))
        self._lin_v1 = _Linear(model.w_var_1, n, input_grad=False)
        self._prop_v1 = _Propagate(var_op, (n, d))
        self._relu_v1 = _ReLU((n, d))
        # Layer 2 over the attention-weighted moments.  μ₂ is deliberately
        # fresh every epoch (the trainer keeps it alive as deferred
        # validation logits).
        self._lin_m2 = _Linear(model.w_mean_2, n)
        self._prop_m2 = _Propagate(mean_op, (n, c), fresh=True)
        self._lin_v2 = _Linear(model.w_var_2, n)
        self._prop_v2 = _Propagate(var_op, (n, c))
        self._relu_v2 = _ReLU((n, c))
        # Elementwise couplings, their gradients, and scratch.
        self._var1 = np.empty((n, d))
        self._att = np.empty((n, d))
        self._ma = np.empty((n, d))
        self._p1 = np.empty((n, d))
        self._p2 = np.empty((n, d))
        self._td = np.empty((n, d))
        self._gp1 = np.empty((n, d))
        self._gatt = np.empty((n, d))
        self._gvar1 = np.empty((n, d))
        self._gmean1 = np.empty((n, d))
        self._var2 = np.empty((n, c))
        self._sqrt = np.empty((n, c))
        self._mm = np.empty((n, c))
        self._tc = np.empty((n, c))
        self._gv2 = np.empty((n, c))
        self._gm2 = np.empty((n, c))
        self._mean2: Optional[np.ndarray] = None
        self._noise: Optional[np.ndarray] = None

    def _mean_path(self) -> np.ndarray:
        """First layer (both chains) + second mean layer; returns fresh μ₂."""
        x = self.features
        mean1 = self._elu.forward(self._prop_m1.forward(self._lin_m1.forward(x)))
        rv1 = self._relu_v1.forward(self._prop_v1.forward(self._lin_v1.forward(x)))
        var1 = np.add(rv1, 1e-6, out=self._var1)
        np.multiply(var1, -self.model.gamma, out=self._att)
        np.exp(self._att, out=self._att)
        np.multiply(mean1, self._att, out=self._ma)
        return self._prop_m2.forward(self._lin_m2.forward(self._ma))

    def train_forward(self) -> tuple[float, np.ndarray]:
        model = self.model
        n = self.features.shape[0]
        mean2 = self._mean_path()
        self._mean2 = mean2
        p1 = np.multiply(self._var1, self._att, out=self._p1)
        p2 = np.multiply(p1, self._att, out=self._p2)
        rv2 = self._relu_v2.forward(self._prop_v2.forward(self._lin_v2.forward(p2)))
        var2 = np.add(rv2, 1e-6, out=self._var2)
        # KL(N(μ,σ) ‖ N(0,1)) = 0.5 · mean_v Σ_c (μ² + σ − log σ − 1).
        t = np.multiply(mean2, mean2, out=self._mm)
        t = np.add(t, var2, out=self._tc)
        np.subtract(t, np.log(var2, out=self._mm), out=t)
        np.subtract(t, 1.0, out=t)
        kl = 0.5 * (t.sum(axis=1).sum() * (1.0 / float(n)))
        # Training sample z = μ + ε√σ from the model's own sampling stream.
        noise = model._sample_rng.normal(size=var2.shape)
        self._noise = noise
        sqrt = np.sqrt(var2, out=self._sqrt)
        logits = mean2 + np.multiply(noise, sqrt, out=self._tc)
        ce = self.loss.forward(logits)
        return ce + self.beta_kl * kl, logits

    def backward(self) -> None:
        model = self.model
        n = self.features.shape[0]
        # The KL chain runs first in autodiff's reverse post-order.  Its
        # upstream is the constant (β·0.5)/n broadcast over (n, c).
        v = (self.beta_kl * 0.5) * (1.0 / float(n))
        gv2 = np.divide(-v, self._var2, out=self._gv2)
        np.add(gv2, v, out=gv2)
        gm2 = np.multiply(self._mean2, v, out=self._gm2)
        np.add(gm2, gm2, out=gm2)
        # Then the cross-entropy chain folds in through the sampled logits.
        g = self.loss.backward()
        np.add(gm2, g, out=gm2)
        t = np.multiply(g, self._noise, out=self._tc)
        np.multiply(t, 0.5, out=t)
        np.divide(t, self._sqrt, out=t)
        np.add(gv2, t, out=gv2)
        # Variance chain (processed before the mean chain): σ₂ -> W_v2, p2.
        gxv2 = self._prop_v2.backward(self._relu_v2.backward(gv2))
        model.w_var_2.grad, gp2 = self._lin_v2.backward(gxv2)
        gp1 = np.multiply(gp2, self._att, out=self._gp1)
        gatt = np.multiply(gp2, self._p1, out=self._gatt)
        gvar1 = np.multiply(gp1, self._att, out=self._gvar1)
        np.add(gatt, np.multiply(gp1, self._var1, out=self._td), out=gatt)
        # Mean chain: μ₂ -> W_m2, (μ₁·α).
        model.w_mean_2.grad, gma = self._lin_m2.backward(self._prop_m2.backward(gm2))
        gmean1 = np.multiply(gma, self._att, out=self._gmean1)
        np.add(gatt, np.multiply(gma, self._elu.out, out=self._td), out=gatt)
        # Attention α = exp(−γ·σ₁): chain into σ₁ after p1's contribution.
        np.multiply(gatt, self._att, out=gatt)
        np.multiply(gatt, -model.gamma, out=self._td)
        np.add(gvar1, self._td, out=gvar1)
        gxv1 = self._prop_v1.backward(self._relu_v1.backward(gvar1))
        model.w_var_1.grad, _ = self._lin_v1.backward(gxv1)
        gxm1 = self._prop_m1.backward(self._elu.backward(gmean1))
        model.w_mean_1.grad, _ = self._lin_m1.backward(gxm1)

    def eval_forward(self) -> np.ndarray:
        # Eval-mode logits are the propagated means; the σ₂/KL/sampling tail
        # is never consumed, so the fused path skips it outright.
        return self._mean_path()

    def deferred_eval_forward(self) -> np.ndarray:
        """Eval logits for the weights the LAST ``train_forward`` used.

        The training forward computes μ₂ *before* sampling — exactly the
        eval-mode logits — so deferred validation costs nothing at all.
        """
        return self._mean2


class _GatedLayer:
    """One SimPGCN layer: ``g·(A_t s) + (1−g)·(A_f s) + (x k)·s`` with
    support ``s = x W``, gate ``g = σ(x w_g + b_g)`` and self term ``k``."""

    def __init__(self, layer, topo, feat, rows: int, input_grad: bool) -> None:
        self.layer = layer
        width = layer.weight.shape[1]
        self._support = _Linear(layer.weight, rows, input_grad)
        self._gate = _Linear(layer.gate_w, rows, input_grad)
        self._self = _Linear(layer.self_coeff, rows, input_grad)
        self._topo = _Propagate(topo, (rows, width))
        self._feat = _Propagate(feat, (rows, width))
        self._gs = np.empty((rows, width))
        self._t = np.empty((rows, width))
        self._saved: tuple = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self._support.forward(x)
        gpre = self._gate.forward(x) + self.layer.gate_b.data
        gate = 1.0 / (1.0 + np.exp(-gpre))
        tp = self._topo.forward(s)
        fp = self._feat.forward(s)
        sc = self._self.forward(x)
        om = 1.0 - gate
        self._saved = (s, tp, fp, gate, om, sc)
        z = np.multiply(gate, tp)
        np.add(z, np.multiply(om, fp), out=z)
        np.add(z, np.multiply(sc, s), out=z)
        return z

    def backward(self, g: np.ndarray, gx: Optional[np.ndarray] = None):
        """Set the layer's grads from the output gradient ``g``; fold its
        input-gradient terms onto ``gx`` (holding the SSL chain's) in
        autodiff's order: self term, support, gate."""
        layer, t = self.layer, self._t
        s, tp, fp, gate, om, sc = self._saved
        # self term (last constructed, first in reverse post-order).
        np.multiply(g, s, out=t)
        gsc = t.sum(axis=1, keepdims=True)
        gs = np.multiply(g, sc, out=self._gs)
        layer.self_coeff.grad, gx_self = self._self.backward(gsc)
        # feature-graph term, then topology term.
        np.multiply(g, fp, out=t)
        gom = t.sum(axis=1, keepdims=True)
        np.add(gs, self._feat.backward(np.multiply(g, om, out=t)), out=gs)
        ggate = -gom
        np.multiply(g, tp, out=t)
        ggate = ggate + t.sum(axis=1, keepdims=True)
        np.add(gs, self._topo.backward(np.multiply(g, gate, out=t)), out=gs)
        layer.weight.grad, gx_support = self._support.backward(gs)
        # sigmoid gate backward: g * gate * (1 - gate).
        ggpre = ggate * gate * om
        layer.gate_b.grad = ggpre.sum(axis=0)
        layer.gate_w.grad, gx_gate = self._gate.backward(ggpre)
        if gx is not None:
            for part in (gx_self, gx_support, gx_gate):
                np.add(gx, part, out=gx)
        return gx


class _FusedSimPGCN:
    """Closed-form kernel for SimPGCN's adaptive propagation + SSL head.

    Replicates :meth:`repro.defenses.simpgcn.SimPGCNModel.forward` plus
    ``ce + w·SSL``: per layer a topology propagation, a kNN-feature-graph
    propagation, a sigmoid gate mixing them, and a learnable self term; the
    SSL head regresses sampled pair-embedding differences onto cosine
    similarity, drawing each epoch's pairs from the same
    :class:`~repro.defenses.simpgcn.SSLLoss` RNG stream as the autodiff
    path.  Backward replays autodiff's reverse post-order: the SSL scatter
    gradients fold into the hidden layer before the classification chain,
    and both feature gradients are skipped.  The forward is deterministic,
    so the trainer reuses training logits for validation outright.
    """

    def __init__(self, model, operators, graph, ssl, features=None) -> None:
        self.model = model
        topo, feat = (_operator_pair(op) for op in operators)
        self.features = _feature_csr(graph, features)
        self.ssl = ssl
        n = self.features.shape[0]
        self.loss = _MaskedCrossEntropy(graph, model.layer2.weight.shape[1])
        self._layer1 = _GatedLayer(model.layer1, topo, feat, n, input_grad=False)
        self._relu = _ReLU((n, model.layer1.weight.shape[1]))
        self._layer2 = _GatedLayer(model.layer2, topo, feat, n, input_grad=True)

    def _forward(self) -> np.ndarray:
        h = self._relu.forward(self._layer1.forward(self.features))
        return self._layer2.forward(h)  # fresh: the trainer reuses it

    def train_forward(self) -> tuple[float, np.ndarray]:
        logits = self._forward()
        ce = self.loss.forward(logits)
        # SSL term, drawn from the same stream the autodiff closure uses.
        pairs = self.ssl.draw_pairs()
        targets = self.ssl.pair_targets(pairs)
        h = self._relu.out
        diff = h[pairs[:, 0]] - h[pairs[:, 1]]
        pred = diff @ self.model.ssl_head.data
        resid = pred.reshape(-1) - targets
        sq = resid * resid
        sslval = sq.sum() * (1.0 / float(sq.size))
        self._pairs, self._diff, self._resid = pairs, diff, resid
        return ce + self.ssl.weight * sslval, logits

    def backward(self) -> None:
        model = self.model
        pairs, diff, resid = self._pairs, self._diff, self._resid
        m = len(resid)
        n = self.features.shape[0]
        # SSL chain first (reverse post-order): resid² mean -> scatter into h.
        s = self.ssl.weight * (1.0 / float(m))
        t = s * resid
        gresid = t + t
        gpred = gresid.reshape(m, 1)
        model.ssl_head.grad = diff.T @ gpred
        gdiff = gpred @ model.ssl_head.data.T
        scatter_l, scatter_r = (
            sp.csr_matrix((np.ones(m), (pairs[:, k], np.arange(m))), shape=(n, m))
            for k in (0, 1)
        )
        gh = scatter_r @ (-gdiff)
        gh = gh + scatter_l @ gdiff
        # Classification chain: layer 2 folds its four h-contributions on top.
        gh = self._layer2.backward(self.loss.backward(), gh)
        self._layer1.backward(self._relu.backward(gh))

    def eval_forward(self) -> np.ndarray:
        return self._forward()


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _is_plain_bound_forward(forward: Callable, model) -> bool:
    """Is ``forward`` exactly the model's own (un-overridden) forward?"""
    return (
        getattr(forward, "__self__", None) is model
        and getattr(forward, "__func__", None) is type(model).forward
    )


def _loss_classes():
    """The recognized loss-term classes, imported lazily.

    ``repro.defenses`` imports ``repro.nn``; importing the other way at
    module scope would be circular, so the defense loss classes resolve on
    first dispatch.
    """
    from ..defenses.rgcn import GaussianGCNModel, KLLoss
    from ..defenses.simpgcn import SimPGCNModel, SSLLoss

    return GaussianGCNModel, KLLoss, SimPGCNModel, SSLLoss


def _ineligible(strict: bool, reason: str):
    """Reject a fused dispatch: raise with the *specific* blocker in strict
    mode, else fall back to autodiff by returning None."""
    if strict:
        raise ConfigError(
            f"engine='fused' requires a fusible training setup, but {reason}; "
            "use engine='auto' to fall back to autodiff"
        )
    return None


def _operator_pair_reason(adjacency, names: tuple[str, str]) -> Optional[str]:
    """Why ``adjacency`` is not the expected (sparse, sparse) operator pair."""
    if not isinstance(adjacency, tuple) or len(adjacency) != 2:
        return f"adjacency is {type(adjacency).__name__}, not a ({names[0]}, {names[1]}) operator pair"
    for name, op in zip(names, adjacency):
        if not sp.issparse(op):
            return f"the {name} operator is a dense {type(op).__name__}, not scipy.sparse"
    return None


def make_fused_kernel(
    model,
    graph,
    adjacency,
    forward: Callable,
    loss_fn: Optional[Callable],
    strict: bool = False,
    features: Optional[CSRConstant] = None,
):
    """Return a fused kernel for this training setup, or None if ineligible.

    ``features`` is the fit's feature CSR (see :func:`takes_csr_features`);
    the kernels that read the features convert ``graph.features`` without it.

    Eligibility is deliberately exact-type and exact-forward: subclasses or
    wrapped forwards may compute anything, so they keep the autodiff path.
    With ``strict=True`` (the trainer's ``engine="fused"``), every rejection
    raises :class:`~repro.errors.ConfigError` naming the specific
    ineligible component — the model class, the operator kind, or the
    custom loss — instead of returning None.
    """
    GaussianGCNModel, KLLoss, SimPGCNModel, SSLLoss = _loss_classes()
    if loss_fn is not None:
        # Only the two recognized defense loss terms fuse; anything else is
        # an arbitrary closure the kernels cannot replicate.
        for loss_cls, model_cls, operator_names, kernel_cls in (
            (KLLoss, GaussianGCNModel, ("mean", "variance"), _FusedRGCN),
            (SSLLoss, SimPGCNModel, ("topology", "feature-graph"), _FusedSimPGCN),
        ):
            if not isinstance(loss_fn, loss_cls):
                continue
            term, owner = loss_cls.__name__, model_cls.__name__
            if type(model) is not model_cls:
                reason = f"{term} pairs with {owner}, not {type(model).__name__}"
            elif loss_fn.model is not model:
                reason = f"the {term} is bound to a different model instance"
            elif not _is_plain_bound_forward(forward, model):
                reason = f"the forward is wrapped or overridden, not {owner}.forward"
            else:
                reason = _operator_pair_reason(adjacency, operator_names)
            if reason is not None:
                return _ineligible(strict, reason)
            return kernel_cls(model, adjacency, graph, loss_fn, features)
        name = getattr(type(loss_fn), "__qualname__", type(loss_fn).__name__)
        if name in ("function", "lambda"):
            name = getattr(loss_fn, "__qualname__", repr(loss_fn))
        return _ineligible(strict, f"custom loss_fn {name!r} is not a recognized loss term")
    multi_view = isinstance(forward, MultiViewForward)
    if multi_view:
        if forward.model is not model:
            return _ineligible(
                strict, "the MultiViewForward wraps a different model instance"
            )
        if type(model) is not GCN:
            return _ineligible(
                strict,
                f"multi-view fusion covers plain GCN, not {type(model).__name__}",
            )
        for i, op in enumerate(forward.operators):
            if not sp.issparse(op):
                return _ineligible(
                    strict,
                    f"view operator {i} is a dense {type(op).__name__}, not scipy.sparse",
                )
    elif not _is_plain_bound_forward(forward, model):
        return _ineligible(
            strict,
            f"the forward is wrapped or overridden, not {type(model).__name__}.forward",
        )
    elif type(model) is GAT:
        # GAT's kernel only reads the adjacency's support pattern, so dense
        # adjacencies are as fusible as sparse ones.
        if not 0.0 <= model.dropout < 1.0:
            return _ineligible(strict, f"GAT dropout {model.dropout} is outside [0, 1)")
        return _FusedGAT(model, adjacency, graph, features)
    elif not (
        sp.issparse(adjacency)
        or (type(model) is GCN and isinstance(adjacency, np.ndarray))
    ):
        return _ineligible(
            strict,
            f"the adjacency operator is a {type(adjacency).__name__}, not "
            "scipy.sparse (or, for plain GCN, a dense ndarray)",
        )
    if type(model) is GCN:
        if not (
            0.0 <= model.dropout < 1.0
            and all(layer.bias is not None for layer in model.layers)
        ):
            return _ineligible(
                strict, "the GCN has dropout >= 1 or bias-free layers"
            )
        if multi_view:
            return _FusedMultiView(model, forward.operators, graph, features)
        return _FusedGCN(model, [adjacency], graph, features)
    if type(model) is SGC:
        return _FusedSGC(model, adjacency, graph)
    return _ineligible(
        strict, f"no fused kernel covers model class {type(model).__name__}"
    )


def takes_csr_features(model, forward: Callable) -> bool:
    """Does this fit's forward take its constant features as a
    :class:`~repro.tensor.CSRConstant`?

    True for the forwards whose first layer multiplies the features through
    ``matmul`` (the fused kernels' models, SGC aside, whose product reads
    ``A^K X``): exactly GCN, GAT, RGCN's and SimPGCN's models under their
    own forward, and GNAT's :class:`MultiViewForward`.  Every other forward
    (subclasses, wrapped forwards) keeps the dense :class:`Tensor`.
    """
    if isinstance(forward, MultiViewForward):
        return forward.model is model and type(model) is GCN
    if not _is_plain_bound_forward(forward, model):
        return False
    GaussianGCNModel, _, SimPGCNModel, _ = _loss_classes()
    return type(model) in (GCN, GAT, GaussianGCNModel, SimPGCNModel)


def training_matches_eval(model, forward: Callable, loss_fn: Optional[Callable]) -> bool:
    """True when a train-mode forward is bit-identical to an eval-mode one.

    Holds for models without stochastic forward ops under their plain
    forward (SGC always; GCN at dropout 0, or with a single layer —
    dropout only applies to inputs of layers > 0; GAT at dropout 0;
    SimPGCN always, including under its recognized ``SSLLoss`` — the SSL
    term randomizes the *loss*, never the logits) — the trainer then
    reuses training logits for validation instead of paying a second full
    forward per epoch.  RGCN never qualifies: its training logits are
    sampled.
    """
    if loss_fn is not None:
        _, _, SimPGCNModel, SSLLoss = _loss_classes()
        return (
            isinstance(loss_fn, SSLLoss)
            and type(model) is SimPGCNModel
            and loss_fn.model is model
            and _is_plain_bound_forward(forward, model)
        )
    if isinstance(forward, MultiViewForward):
        if forward.model is not model:
            return False
    elif not _is_plain_bound_forward(forward, model):
        return False
    if type(model) is SGC:
        return True
    if type(model) is GAT:
        return model.dropout <= 0.0
    return type(model) is GCN and (model.dropout <= 0.0 or len(model.layers) == 1)
