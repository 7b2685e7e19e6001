"""Cooperative cancellation and the trial-scope context.

Every long-running loop in the system (training epochs, greedy attack
iterations, block-sampled attack epochs) calls :func:`checkpoint` once per
iteration.  That single poll site does double duty:

* **snapshots** — if the caller passes a snapshot unit and a state builder,
  the poll offers the current loop state to the ambient snapshot sink
  (throttled by the sink; see :mod:`repro.utils.snapshots`);
* **cancellation** — if the ambient :class:`CancelToken` (or the
  process-wide shutdown token) has been cancelled, or its deadline has
  expired, the poll writes a *final* snapshot and raises
  :class:`CancelledError` carrying the structured cause.

The contract for new attackers/defenders is exactly one line per loop
iteration::

    cancellation.checkpoint("my-site", unit=unit, state=build_state, epoch=epoch)

where ``unit`` comes from :func:`repro.utils.snapshots.begin_unit` and
``build_state`` is a zero-argument callable returning ``(arrays, meta)``.
Code that never snapshots may call ``checkpoint("my-site")`` bare; the
uninstalled path is a couple of attribute reads.  A loop with no poll site
cannot be cancelled: in-process its trial runs to the end, and in a pool
only the scheduler's deadline backstop (:mod:`repro.experiments.parallel`)
stops it, by stopping its worker.

:class:`CancelledError` derives from ``BaseException`` (like
``KeyboardInterrupt`` and the fault injector's ``InjectedKill``) so a
trial's ordinary ``except Exception`` recovery blocks can never absorb a
cancellation.  The supervisor converts ``cause="deadline"`` into its
retriable :class:`~repro.errors.DeadlineError` flow; ``"shutdown"``
propagates and aborts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = [
    "CAUSE_DEADLINE",
    "CAUSE_SHUTDOWN",
    "CancelledError",
    "CancelToken",
    "trial_scope",
    "current_token",
    "current_sink",
    "checkpoint",
    "request_shutdown",
    "shutdown_requested",
    "reset_shutdown",
]

#: Structured cancellation causes carried by :class:`CancelledError`.
CAUSE_DEADLINE = "deadline"
CAUSE_SHUTDOWN = "shutdown"

_CAUSES = (CAUSE_DEADLINE, CAUSE_SHUTDOWN)


class CancelledError(BaseException):
    """A trial observed a cancelled token at a poll site.

    ``cause`` is :data:`CAUSE_DEADLINE` (the token's deadline expired) or
    :data:`CAUSE_SHUTDOWN` (SIGINT/SIGTERM-driven process shutdown).
    ``site`` names the poll site that observed it.
    """

    def __init__(self, cause: str, message: str = "", site: Optional[str] = None):
        self.cause = cause
        self.site = site
        where = f" at {site}" if site else ""
        super().__init__(message or f"trial cancelled ({cause}){where}")


class CancelToken:
    """A cancellation flag with an optional deadline.

    Cancelling is one-way and idempotent: the first cause wins.  A token
    is *observed* cancelled when it was cancelled directly or when its
    deadline (measured on the monotonic clock) has expired.  Every poll
    site also observes the process-wide shutdown token directly.

    Tokens take no lock: the library starts no threads, and a signal
    handler that cancels a token mid-poll must never wait on the poll it
    interrupted.
    """

    def __init__(
        self,
        *,
        deadline_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._cause: Optional[str] = None
        self._message = ""
        self._deadline: Optional[float] = None
        if deadline_seconds is not None:
            self._deadline = clock() + float(deadline_seconds)

    def cancel(self, cause: str, message: str = "") -> bool:
        """Cancel the token; returns True only for the winning (first) call."""
        if cause not in _CAUSES:
            raise ValueError(f"unknown cancel cause {cause!r}; choose from {_CAUSES}")
        if self._cause is not None:
            return False
        self._cause = cause
        self._message = message
        return True

    @property
    def cause(self) -> Optional[str]:
        """The cause the token was cancelled with, or ``None``."""
        if self._cause is None and self._deadline is not None:
            # cancel() re-checks the cause: a signal handler that cancelled
            # the token during the clock read keeps its (first) cause.
            if self._clock() >= self._deadline:
                self.cancel(CAUSE_DEADLINE)
        return self._cause

    @property
    def cancelled(self) -> bool:
        return self.cause is not None

    def raise_if_cancelled(self, site: Optional[str] = None) -> None:
        cause = self.cause
        if cause is not None:
            raise CancelledError(cause, message=self._message, site=site)


# ---------------------------------------------------------------------------
# Process-wide shutdown token.  Signal handlers cancel this one token; every
# trial token is (directly or via checkpoint()) observed against it.

_SHUTDOWN = CancelToken()


def request_shutdown(message: str = "", cause: str = CAUSE_SHUTDOWN) -> bool:
    """Cancel the process-wide shutdown token (signal-handler safe).

    Returns ``True`` on the first request, ``False`` if shutdown was
    already requested — callers use the second request as the cue to stop
    being graceful (``os._exit``).
    """
    already = _SHUTDOWN.cancelled
    _SHUTDOWN.cancel(cause, message)
    return not already


def shutdown_requested() -> Optional[str]:
    """The shutdown cause if a process-wide shutdown is pending, else ``None``."""
    return _SHUTDOWN.cause


def reset_shutdown() -> None:
    """Replace the process shutdown token (tests and pool-worker re-use)."""
    global _SHUTDOWN
    _SHUTDOWN = CancelToken()


# ---------------------------------------------------------------------------
# Ambient trial scope: token + snapshot sink.


class _Scope:
    __slots__ = ("token", "sink")

    def __init__(self, token=None, sink=None):
        self.token = token
        self.sink = sink


_SCOPE: Optional[_Scope] = None


def current_token() -> Optional[CancelToken]:
    return _SCOPE.token if _SCOPE is not None else None


def current_sink():
    """The ambient snapshot sink (duck-typed; see ``utils.snapshots``)."""
    return _SCOPE.sink if _SCOPE is not None else None


@contextmanager
def trial_scope(
    token: Optional[CancelToken] = None,
    sink=None,
) -> Iterator[_Scope]:
    """Install an ambient trial scope for the duration of the block.

    Unspecified fields are inherited from the innermost enclosing scope, so
    the supervisor's deadline token keeps the sweep's snapshot sink.
    The scope is process-wide: trials run one at a time, in the thread
    that calls them.
    """
    global _SCOPE
    base = _SCOPE
    scope = _Scope(
        token=token if token is not None else (base.token if base else None),
        sink=sink if sink is not None else (base.sink if base else None),
    )
    _SCOPE = scope
    try:
        yield scope
    finally:
        _SCOPE = base


def checkpoint(
    site: str,
    unit=None,
    state: Optional[Callable[[], tuple]] = None,
    **context,
) -> None:
    """Poll site: snapshot offer, then cancellation check.

    ``unit`` is a snapshot unit handle (``utils.snapshots.begin_unit``)
    and ``state`` a zero-argument callable returning ``(arrays, meta)``;
    both may be omitted for loops that do not checkpoint state.  On an
    observed cancellation the state builder is invoked one final time so
    the trial resumes from the exact iteration it was cancelled at.
    """
    scope = _SCOPE
    if unit is not None and state is not None:
        unit.offer(state)
    cause = _SHUTDOWN.cause
    token = scope.token if scope is not None else None
    if cause is None and token is not None:
        cause = token.cause
    if cause is None:
        return
    if unit is not None and state is not None:
        unit.offer(state, final=True)
    raise CancelledError(cause, site=site)
