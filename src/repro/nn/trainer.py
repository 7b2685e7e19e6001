"""Training loop for node-classification models.

Implements the standard transductive protocol from the paper's baselines:
full-batch Adam on the cross-entropy of labelled training nodes (Eq. 2),
early stopping on validation accuracy with best-weights restoration.

Two engines drive the per-epoch math (see :mod:`repro.nn.fastpath` and
``docs/fast_training.md``): the general autodiff path, and a fused
closed-form path — covering plain GCN/SGC/multi-view-GCN forwards, GAT's
dense masked attention, and the RGCN/SimPGCN defense fits via their
recognized loss terms — that produces a bit-identical weight trajectory
several times faster.  ``engine="auto"`` (the default) picks the fused
path whenever it applies.

A non-finite training loss (NaN/±inf) raises
:class:`~repro.errors.DivergenceError` before the optimizer steps, restoring
the best-validation checkpoint when early stopping has one — the trial
supervisor retries such runs with a fresh seed instead of averaging garbage
into a table cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError, DivergenceError
from ..graph import Graph, gcn_normalize
from ..tensor import Adam, CSRConstant, Tensor, functional as F, no_grad
from ..utils import cancellation, faults, snapshots
from .fastpath import (
    make_fused_kernel,
    resolve_engine,
    takes_csr_features,
    training_matches_eval,
)
from .metrics import accuracy
from .module import Module

__all__ = ["TrainConfig", "TrainResult", "train_node_classifier", "evaluate"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the training loop (paper defaults)."""

    epochs: int = 200
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 30
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    model: Module
    best_val_accuracy: float
    test_accuracy: float
    train_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    epochs_run: int = 0


AdjacencyLike = Union[sp.spmatrix, Tensor, np.ndarray]
ForwardFn = Callable[[AdjacencyLike, Tensor], Tensor]


def _collect_generators(*roots) -> list[tuple[str, np.random.Generator]]:
    """Discover every ``np.random.Generator`` reachable from ``roots``.

    Walks module attribute dicts (sorted names), lists/tuples, and — one
    level deep — plain objects like loss terms, in a deterministic order,
    so the same model structure always yields the same ``(path, gen)``
    sequence.  This is what lets a mid-fit snapshot capture and restore
    the exact dropout/sampling stream positions without each model class
    having to declare its RNGs.
    """
    found: list[tuple[str, np.random.Generator]] = []
    seen: set[int] = set()

    def visit(obj, path: str, depth: int) -> None:
        if obj is None or id(obj) in seen:
            return
        if isinstance(obj, np.random.Generator):
            seen.add(id(obj))
            found.append((path, obj))
            return
        if depth >= 5:
            return
        if callable(obj) and hasattr(obj, "__self__"):
            visit(obj.__self__, f"{path}.__self__", depth + 1)
            return
        if isinstance(obj, Module):
            seen.add(id(obj))
            attrs = vars(obj)
            for name in sorted(attrs):
                visit(attrs[name], f"{path}.{name}", depth + 1)
        elif isinstance(obj, (list, tuple)):
            seen.add(id(obj))
            for index, item in enumerate(obj):
                visit(item, f"{path}[{index}]", depth + 1)
        elif depth == 0 and not isinstance(obj, (np.ndarray, Tensor)):
            try:
                attrs = vars(obj)
            except TypeError:
                return
            seen.add(id(obj))
            for name in sorted(attrs):
                visit(attrs[name], f"{path}.{name}", depth + 1)

    for index, root in enumerate(roots):
        visit(root, f"r{index}", 0)
    return found


def _fit_snapshot(
    model: Module,
    optimizer: Adam,
    result: "TrainResult",
    best_state: list[np.ndarray],
    best_logits: Optional[np.ndarray],
    stall: int,
    pending_epoch: Optional[int],
    epoch: int,
    rng_slots: list[tuple[str, np.random.Generator]],
) -> tuple[dict, dict]:
    """Build the ``(arrays, meta)`` snapshot of a fit at the top of ``epoch``."""
    arrays: dict[str, np.ndarray] = {}
    snapshots.pack_list(arrays, "param_", [p.data for p in model.parameters()])
    opt_state = optimizer.state_dict()
    snapshots.pack_list(arrays, "adam_m_", opt_state["m"])
    snapshots.pack_list(arrays, "adam_v_", opt_state["v"])
    snapshots.pack_list(arrays, "best_state_", best_state)
    arrays["train_losses"] = np.asarray(result.train_losses, dtype=np.float64)
    arrays["val_accuracies"] = np.asarray(result.val_accuracies, dtype=np.float64)
    if best_logits is not None:
        arrays["best_logits"] = best_logits
    meta = {
        "step": int(epoch),
        "epoch": int(epoch),
        "step_count": int(opt_state["step_count"]),
        "stall": int(stall),
        "pending_epoch": pending_epoch,
        "best_val_accuracy": float(result.best_val_accuracy),
        "epochs_run": int(result.epochs_run),
        "rngs": [
            [path, snapshots.generator_state(gen)] for path, gen in rng_slots
        ],
    }
    return arrays, meta


def evaluate(
    model: Module,
    adjacency: AdjacencyLike,
    features: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    forward: Optional[ForwardFn] = None,
) -> float:
    """Accuracy of ``model`` on masked nodes, in eval mode."""
    forward = forward or model.forward  # type: ignore[attr-defined]
    was_training = model.training
    model.eval()
    with no_grad():
        logits = forward(adjacency, Tensor(features))
    if was_training:
        model.train()
    return accuracy(logits, labels, mask)


def train_node_classifier(
    model: Module,
    graph: Graph,
    config: Optional[TrainConfig] = None,
    adjacency: Optional[AdjacencyLike] = None,
    forward: Optional[ForwardFn] = None,
    loss_fn: Optional[Callable[[Tensor], Tensor]] = None,
    engine: str = "auto",
) -> TrainResult:
    """Train ``model`` transductively on ``graph``.

    Parameters
    ----------
    model:
        Any :class:`Module` with ``forward(adjacency, features) -> logits``.
    graph:
        Must carry labels and train/val/test masks.
    adjacency:
        Pre-normalized adjacency override; defaults to the GCN normalization
        of ``graph.adjacency``.  Defenders pass their purified/augmented
        operators here.
    forward:
        Forward-function override (used by multi-view defenders like GNAT,
        via :class:`~repro.nn.MultiViewForward`).
    loss_fn:
        Optional extra penalty added to the cross-entropy, taking the logits
        tensor (used by RGCN's KL term and SimPGCN's SSL term).
    engine:
        ``"auto"`` fuses eligible forwards (plain GCN over a sparse or
        dense ndarray operator, SGC over a sparse one, multi-view GCN,
        GAT's masked attention, and RGCN / SimPGCN under their recognized
        ``KLLoss`` / ``SSLLoss`` terms) into
        closed-form kernels with bit-identical trajectories; ``"fused"``
        requires fusion (raises :class:`~repro.errors.ConfigError` naming
        the ineligible component); ``"autodiff"`` forces the traced path.

    Returns
    -------
    TrainResult with the best-validation weights restored into ``model``.
    """
    config = config or TrainConfig()
    if graph.labels is None or graph.train_mask is None or graph.val_mask is None:
        raise ConfigError("training requires labels and train/val masks")
    test_mask = graph.test_mask if graph.test_mask is not None else ~(
        graph.train_mask | graph.val_mask
    )

    if adjacency is None:
        adjacency = gcn_normalize(graph.adjacency)
    forward = forward or model.forward  # type: ignore[attr-defined]
    # Bag-of-words features are ~1% non-zero: every first-layer product of
    # the models that take them reads one CSR, built here once per fit and
    # shared by both engines.
    features = (
        CSRConstant(graph.features)
        if takes_csr_features(model, forward)
        else Tensor(graph.features)
    )
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)

    engine_name = resolve_engine(engine)
    kernel = None
    if engine_name != "autodiff":
        # strict=True makes an ineligible setup raise ConfigError naming
        # the specific blocker (model class, operator kind, custom loss).
        kernel = make_fused_kernel(
            model, graph, adjacency, forward, loss_fn,
            strict=engine_name == "fused",
            features=features if isinstance(features, CSRConstant) else None,
        )
    # Deterministic-forward models (no dropout, no stochastic loss term):
    # a train-mode forward is bit-identical to an eval-mode one, so epoch
    # t's validation logits equal epoch t+1's training logits — reuse them
    # instead of paying a separate validation forward per epoch.
    reuse_train_logits = training_matches_eval(model, forward, loss_fn)
    # Stochastic fused kernels can't reuse training logits, but they CAN
    # defer: dropout never touches layer 0, so epoch t's validation logits
    # are a cheap eval-mode tail on top of epoch t+1's training forward
    # (same post-step weights the separate validation forward used).
    deferred_eval = (
        None
        if kernel is None or reuse_train_logits
        else getattr(kernel, "deferred_eval_forward", None)
    )

    result = TrainResult(model=model, best_val_accuracy=-1.0, test_accuracy=0.0)
    best_state = model.state_dict()
    best_logits: Optional[np.ndarray] = None
    stall = 0

    def record_validation(epoch: int, val_logits: np.ndarray) -> bool:
        """Book-keep one epoch's validation; True means early-stop now."""
        nonlocal best_state, best_logits, stall
        val_acc = accuracy(val_logits, graph.labels, graph.val_mask)
        result.val_accuracies.append(val_acc)
        result.epochs_run = epoch + 1
        if val_acc > result.best_val_accuracy:
            result.best_val_accuracy = val_acc
            best_state = model.state_dict()
            best_logits = val_logits
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                return True
        if config.verbose and epoch % 20 == 0:
            print(
                f"epoch {epoch}: loss={result.train_losses[epoch]:.4f} "
                f"val_acc={val_acc:.4f}"
            )
        return False

    def validation_logits() -> np.ndarray:
        model.eval()
        if kernel is not None:
            return kernel.eval_forward()
        with no_grad():
            return forward(adjacency, features).data

    # With logits reuse, validation of epoch t settles at epoch t+1 (whose
    # training forward runs on the post-step weights of epoch t — exactly
    # what the separate validation forward used to compute).
    pending_epoch: Optional[int] = None

    # Preemption support: this fit is one resumable unit of the ambient
    # trial.  The epoch loop polls cancellation.checkpoint once per epoch,
    # offering its complete state (weights, Adam moments, RNG stream
    # positions, early-stopping bookkeeping) to the ambient snapshot sink;
    # an interrupted fit restores all of it here and continues with a
    # bit-identical weight trajectory.
    unit = snapshots.begin_unit("fit")
    rng_slots = _collect_generators(model, loss_fn, forward)
    start_epoch = 0
    resumed = unit.resume_state()
    if resumed is not None:
        arrays, meta = resumed
        for param, saved in zip(
            model.parameters(), snapshots.unpack_list(arrays, "param_")
        ):
            param.data[...] = saved
        optimizer.load_state_dict(
            {
                "step_count": meta["step_count"],
                "m": snapshots.unpack_list(arrays, "adam_m_"),
                "v": snapshots.unpack_list(arrays, "adam_v_"),
            }
        )
        best_state = [array.copy() for array in snapshots.unpack_list(arrays, "best_state_")]
        if "best_logits" in arrays:
            best_logits = arrays["best_logits"]
        result.train_losses = [float(x) for x in arrays["train_losses"]]
        result.val_accuracies = [float(x) for x in arrays["val_accuracies"]]
        result.best_val_accuracy = float(meta["best_val_accuracy"])
        result.epochs_run = int(meta["epochs_run"])
        stall = int(meta["stall"])
        pending = meta["pending_epoch"]
        pending_epoch = int(pending) if pending is not None else None
        saved_rngs = dict((path, state) for path, state in meta["rngs"])
        for path, gen in rng_slots:
            if path in saved_rngs:
                snapshots.restore_generator(gen, saved_rngs[path])
        start_epoch = int(meta["epoch"])

    for epoch in range(start_epoch, config.epochs):
        model.train()
        optimizer.zero_grad()
        faults.perturb("trainer", epoch=epoch)
        cancellation.checkpoint(
            "trainer",
            unit=unit,
            state=lambda: _fit_snapshot(
                model,
                optimizer,
                result,
                best_state,
                best_logits,
                stall,
                pending_epoch,
                epoch,
                rng_slots,
            ),
            epoch=epoch,
        )
        if kernel is not None:
            loss_raw, logits_data = kernel.train_forward()
            loss = None
        else:
            logits = forward(adjacency, features)
            loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
            if loss_fn is not None:
                loss = loss + loss_fn(logits)
            loss_raw = float(loss.item())
            logits_data = logits.data
        if pending_epoch is not None:
            stop = record_validation(
                pending_epoch,
                logits_data if reuse_train_logits else deferred_eval(),
            )
            pending_epoch = None
            if stop:
                break
        loss_value = faults.corrupt("trainer", loss_raw, epoch=epoch)
        if not np.isfinite(loss_value):
            # Divergence is unrecoverable for this run: raise instead of
            # silently training on garbage, but restore the best-validation
            # checkpoint first so callers that catch still hold usable
            # weights.
            recovered = result.best_val_accuracy >= 0.0
            if recovered:
                model.load_state_dict(best_state)
            raise DivergenceError(
                f"non-finite training loss {loss_value} at epoch {epoch}"
                + (
                    f" (restored best checkpoint, val_acc="
                    f"{result.best_val_accuracy:.4f})"
                    if recovered
                    else " (no checkpoint to restore)"
                ),
                epoch=epoch,
                loss=loss_value,
                recovered=recovered,
                best_val_accuracy=result.best_val_accuracy,
            )
        if kernel is not None:
            kernel.backward()
        else:
            loss.backward()
        optimizer.step()
        result.train_losses.append(loss_value)

        if reuse_train_logits or deferred_eval is not None:
            pending_epoch = epoch
            continue
        if record_validation(epoch, validation_logits()):
            break

    if pending_epoch is not None:
        # The final epoch's validation never got a follow-up training
        # forward; pay the one eval forward it needs.
        record_validation(pending_epoch, validation_logits())

    model.eval()
    model.load_state_dict(best_state)
    if best_logits is None:  # unreachable with epochs >= 1; kept for safety
        best_logits = validation_logits()
    # Eval-mode forwards are pure functions of (weights, adjacency,
    # features), so the best epoch's validation logits ARE the logits the
    # restored model would produce — reuse them instead of paying one more
    # full forward pass per fit.
    result.test_accuracy = accuracy(best_logits, graph.labels, test_mask)
    return result
