"""Exception hierarchy for the repro library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ReproWarning(UserWarning):
    """Base class for all warnings emitted by the repro library."""


class IntegrityWarning(ReproWarning):
    """Data-integrity event: legacy unverified archive, quarantined artifact,
    or corrupt journal record skipped during resume."""


class ContractWarning(ReproWarning):
    """A graph contract violation was repaired under the ``repair`` policy."""


class BudgetWarning(ReproWarning):
    """An attack budget was clamped to the number of feasible flips."""


class CapacityWarning(ReproWarning):
    """A resource request was clamped to the machine's actual capacity
    (e.g. ``--jobs`` above the available core count)."""


class DegradedWarning(ReproWarning):
    """Work survived a resource failure: a block attacker halved its
    candidate block after a ``MemoryError``, or a sweep requeued a trial
    whose pool worker died or stalled."""


class ShapeError(ReproError, ValueError):
    """An array or tensor had an incompatible shape."""


class GraphError(ReproError, ValueError):
    """A graph object violated a structural invariant."""


class GraphContractError(GraphError):
    """A graph violated one of the paper's data contracts under ``strict``
    validation (see :mod:`repro.graph.validate`).

    Carries the individual
    :class:`~repro.graph.validate.ContractViolation` records in
    ``violations``.
    """

    def __init__(self, message: str, *, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class BudgetError(ReproError, ValueError):
    """An attack budget was invalid or exhausted incorrectly."""


class ConfigError(ReproError, ValueError):
    """An experiment or model configuration was invalid."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure failed to converge."""


class DatasetError(ReproError, ValueError):
    """A dataset name or specification was invalid."""


class CacheError(ReproError, RuntimeError):
    """A memoized computation was asked to serve stale or foreign state."""


class DivergenceError(ReproError, RuntimeError):
    """Training produced a non-finite loss (NaN or ±inf).

    Attributes
    ----------
    epoch:
        Zero-based epoch at which the non-finite loss appeared.
    loss:
        The offending loss value.
    recovered:
        True when early stopping had a best-validation checkpoint and the
        model's weights were restored to it before raising.
    best_val_accuracy:
        Validation accuracy of the restored checkpoint (-1.0 when none).
    """

    def __init__(
        self,
        message: str,
        *,
        epoch: int = -1,
        loss: float = float("nan"),
        recovered: bool = False,
        best_val_accuracy: float = -1.0,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.loss = loss
        self.recovered = recovered
        self.best_val_accuracy = best_val_accuracy


class ResourceError(ReproError, RuntimeError):
    """A resource budget (memory or disk) cannot accommodate an operation.

    Raised by the preflight checks in :mod:`repro.utils.resources` instead
    of letting an allocation fail halfway through (torn writes, OOM kills).

    Attributes
    ----------
    resource:
        ``"memory"`` or ``"disk"``.
    path:
        Filesystem path involved (disk preflights; ``None`` for memory).
    needed_bytes / available_bytes:
        The request and what the environment could actually supply.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: str = "memory",
        path: object = None,
        needed_bytes: int = 0,
        available_bytes: int = 0,
    ) -> None:
        super().__init__(message)
        self.resource = resource
        self.path = path
        self.needed_bytes = int(needed_bytes)
        self.available_bytes = int(available_bytes)


class TrialError(ReproError, RuntimeError):
    """A supervised experiment trial failed after exhausting its retries.

    Attributes
    ----------
    key:
        The :class:`~repro.experiments.supervisor.TrialKey` of the trial
        (``None`` when raised outside the supervisor).
    attempts:
        Number of attempts made before giving up.
    elapsed_seconds:
        Total wall-clock time spent across all attempts.
    """

    def __init__(
        self,
        message: str,
        *,
        key: object = None,
        attempts: int = 0,
        elapsed_seconds: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.key = key
        self.attempts = attempts
        self.elapsed_seconds = elapsed_seconds


class DeadlineError(TrialError):
    """A trial attempt exceeded its wall-clock deadline and was abandoned.

    Carries the deadline that was missed in ``deadline_seconds``.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_seconds: float = 0.0,
        key: object = None,
        attempts: int = 0,
        elapsed_seconds: float = 0.0,
    ) -> None:
        super().__init__(
            message, key=key, attempts=attempts, elapsed_seconds=elapsed_seconds
        )
        self.deadline_seconds = deadline_seconds
