"""Deterministic fault injection for chaos-testing the experiment harness.

The supervisor/retry/checkpoint machinery in :mod:`repro.experiments` only
earns trust if its failure paths are exercised deterministically.  This
module provides that: a :class:`FaultInjector` holds a list of
:class:`FaultSpec` rules and is installed process-wide (via :func:`active`).
Instrumented sites — the experiment runner around each attacker/defender
trial and the training loop around each epoch's loss — call the
module-level :func:`perturb` / :func:`corrupt` hooks, which are no-ops
unless an injector is installed.

Fault actions:

``throw``
    Raise :class:`InjectedFault` (an ordinary ``RuntimeError``); with
    ``times=N`` the fault disarms after N triggers, modelling a transient
    failure that retries can ride out.
``hang``
    Sleep for ``seconds``, or until the trial is cancelled — used to
    exercise trial deadlines and heartbeat detection.
``kill``
    Raise :class:`InjectedKill`, which derives from ``BaseException`` (like
    ``KeyboardInterrupt``), simulating an operator interrupt or OOM kill.
    The supervisor deliberately does *not* absorb it, so checkpoint/resume
    paths are exercised end to end.
``nan``
    Make :func:`corrupt` return ``nan`` instead of the real value — used to
    drive the trainer's divergence detection.
``bitflip``
    Make :func:`damage` return ``True`` at a persistence site
    (``"poison_archive"``, ``"journal"``): the checkpoint layer then flips a
    byte of the artifact it just wrote, exercising digest verification and
    quarantine-and-regenerate recovery end to end.
``oom``
    Raise ``MemoryError`` — drives the memory-exhaustion paths (the
    supervisor retries the attempt as configured, block attackers halve
    their candidate block) without needing to actually exhaust RAM.
``oomkill``
    Call ``os._exit(137)``, the exit status the kernel OOM killer leaves
    behind.  Inside a ``--jobs`` pool worker this breaks the process pool,
    exercising the parent's dead-worker detection and requeue; in the
    parent it models a real OOM kill of the sweep (resume covers it).
    ``times`` defaults to 1 so a requeued trial does not re-fire forever
    (the scheduler ships the prior kill count to the replacement worker).
``sigterm``
    Send ``SIGTERM`` to the current process and *continue*.  The process's
    shutdown handler (pool workers install one; the CLI installs one in the
    parent) cancels every active
    :class:`~repro.utils.cancellation.CancelToken`, so the very next
    ``cancellation.checkpoint`` poll site writes a final mid-trial snapshot
    and raises ``CancelledError(cause="shutdown")`` — a deterministic
    stand-in for an operator or scheduler terminating the process
    mid-trial.  ``times`` defaults to 1 so a resumed trial does not
    re-fire.
``disk_full``
    Make :func:`exhausted` return ``True`` at a disk-preflight site
    (``"journal_disk"``, ``"poison_disk"`` — distinct from the ``bitflip``
    persistence sites, so injected exhaustion never shifts their
    per-record ordinals): the preflight in
    :func:`repro.utils.resources.require_free_disk` then reports 0 free
    bytes and raises a structured ``ResourceError``, exercising the
    ENOSPC recovery paths without filling a disk.

Rules match on the call ``site`` (``"attacker"``, ``"defender"``,
``"trainer"``), optionally on the per-site invocation index (``at=``), and
on arbitrary context fields (``match={"defender": "GNAT"}``).  All matching
is counter-based and seeded by nothing — the same experiment run always
faults at the same trial, which is what makes resume-equivalence assertions
possible.

Operators can enable injection without code via the ``REPRO_FAULTS``
environment variable (see :meth:`FaultInjector.from_env`)::

    REPRO_FAULTS="defender:throw:times=2;attacker:hang:seconds=30" \
        python -m repro table cora --deadline 10
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..errors import ConfigError
from . import cancellation

__all__ = [
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "InjectedFault",
    "InjectedKill",
    "active",
    "current",
    "perturb",
    "corrupt",
    "damage",
    "exhausted",
]

ENV_VAR = "REPRO_FAULTS"

_PERTURB_ACTIONS = ("throw", "hang", "kill", "oom", "oomkill", "sigterm")
_CORRUPT_ACTIONS = ("nan",)
_DAMAGE_ACTIONS = ("bitflip",)
_EXHAUST_ACTIONS = ("disk_full",)

# How often a ``hang`` checks whether its trial was cancelled.
_HANG_POLL_SECONDS = 0.05
_ACTIONS = _PERTURB_ACTIONS + _CORRUPT_ACTIONS + _DAMAGE_ACTIONS + _EXHAUST_ACTIONS


class InjectedFault(RuntimeError):
    """A deliberate, injected failure (retriable)."""


class InjectedKill(BaseException):
    """A deliberate, injected process kill (NOT retriable).

    Derives from ``BaseException`` so supervisors treat it like
    ``KeyboardInterrupt``: it aborts the sweep instead of being absorbed
    into a :class:`~repro.experiments.supervisor.TrialFailure`.
    """


@dataclass
class FaultSpec:
    """One fault rule.

    Parameters
    ----------
    site:
        Instrumented call site to target (``attacker``/``defender``/``trainer``).
    action:
        One of ``throw``, ``hang``, ``kill``, ``nan``.
    times:
        Trigger at most this many times (``None`` = permanent).
    at:
        Only trigger on this zero-based invocation index of the site.
    seconds:
        Sleep duration for ``hang``.
    match:
        Context fields that must all match (compared as strings, so
        ``{"seed": "1"}`` matches ``seed=1``).
    """

    site: str
    action: str
    times: Optional[int] = None
    at: Optional[int] = None
    seconds: float = 30.0
    match: dict[str, str] = field(default_factory=dict)
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigError(
                f"unknown fault action {self.action!r}; choose from {_ACTIONS}"
            )
        if self.action in ("oomkill", "sigterm") and self.times is None:
            # A process kill erases the injector that fired it; the
            # replacement worker gets a fresh spec with the prior kill
            # count pre-fired, which only disarms a bounded rule.
            self.times = 1

    def matches(self, index: int, context: dict) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.at is not None and self.at != index:
            return False
        return all(str(context.get(k)) == v for k, v in self.match.items())


@dataclass(frozen=True)
class FaultEvent:
    """Record of one triggered fault (for test assertions)."""

    site: str
    action: str
    index: int
    context: tuple[tuple[str, str], ...]


class FaultInjector:
    """Deterministic fault scheduler; install with :func:`active`."""

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs = list(specs)
        self.events: list[FaultEvent] = []
        self._counters: dict[str, int] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_env(cls, env: Optional[dict] = None) -> Optional["FaultInjector"]:
        """Build an injector from ``REPRO_FAULTS``, or ``None`` when unset.

        Grammar: ``spec(;spec)*`` with ``spec = site:action(:key=value)*``.
        Recognized keys are ``times`` (int), ``at`` (int) and ``seconds``
        (float); any other key becomes a context ``match`` entry.  The
        values ``"1"``/``"true"`` enable the injection plumbing with no
        faults (useful for CI smoke runs); ``""``/``"0"`` disable it.
        """
        raw = (env if env is not None else os.environ).get(ENV_VAR, "").strip()
        if not raw or raw == "0":
            return None
        if raw.lower() in ("1", "true"):
            return cls()
        return cls(cls.parse(raw))

    @staticmethod
    def parse(text: str) -> list[FaultSpec]:
        """Parse the ``REPRO_FAULTS`` spec grammar into :class:`FaultSpec` s."""
        specs = []
        for chunk in filter(None, (part.strip() for part in text.split(";"))):
            fields = chunk.split(":")
            if len(fields) < 2:
                raise ConfigError(
                    f"bad fault spec {chunk!r}: expected site:action[:key=value...]"
                )
            site, action, *params = fields
            kwargs: dict = {"site": site, "action": action, "match": {}}
            for param in params:
                key, sep, value = param.partition("=")
                if not sep:
                    raise ConfigError(f"bad fault parameter {param!r} in {chunk!r}")
                if key == "times":
                    kwargs["times"] = int(value)
                elif key == "at":
                    kwargs["at"] = int(value)
                elif key == "seconds":
                    kwargs["seconds"] = float(value)
                else:
                    kwargs["match"][key] = value
            specs.append(FaultSpec(**kwargs))
        return specs

    def seed_counters(self, counters: dict[str, int]) -> None:
        """Preset per-site invocation counters (cross-process accounting).

        A pool worker runs one trial of a sweep, not the whole sweep, so its
        injector would start every site counter at zero and ``at=N`` rules
        would match the wrong trial.  The parallel scheduler ships each task
        its *canonical* per-site ordinal (the index the trial's first
        invocation would have in a serial, single-attempt pass) and seeds
        the worker's injector with it, so trial-index accounting survives
        process boundaries.
        """
        for site, index in counters.items():
            self._counters[site] = int(index)

    # -- triggering -----------------------------------------------------
    def _next_index(self, site: str) -> int:
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        return index

    def _trigger(
        self, site: str, context: dict, actions: tuple[str, ...]
    ) -> Optional[FaultSpec]:
        index = self._next_index(site)
        for spec in self.specs:
            if spec.site != site or spec.action not in actions:
                continue
            if not spec.matches(index, context):
                continue
            spec.fired += 1
            self.events.append(
                FaultEvent(
                    site=site,
                    action=spec.action,
                    index=index,
                    context=tuple(sorted((k, str(v)) for k, v in context.items())),
                )
            )
            return spec
        return None

    def perturb(self, site: str, **context) -> None:
        """Raise/hang/exit if a throw/hang/kill/oom/oomkill rule matches."""
        spec = self._trigger(site, context, _PERTURB_ACTIONS)
        if spec is None:
            return
        if spec.action == "throw":
            raise InjectedFault(f"injected fault at {site} {context}")
        if spec.action == "kill":
            raise InjectedKill(f"injected kill at {site} {context}")
        if spec.action == "oom":
            raise MemoryError(f"injected OOM at {site} {context}")
        if spec.action == "oomkill":
            # The kernel OOM killer sends SIGKILL: no cleanup, no excepthook.
            # os._exit(137) is the closest faithful, portable stand-in.
            os._exit(137)
        if spec.action == "sigterm":
            # Deliver a real SIGTERM to ourselves and return: the process's
            # shutdown handler cancels the active tokens and the next
            # cancellation poll site turns that into a snapshot + exit.
            os.kill(os.getpid(), signal.SIGTERM)
            return
        _hang(spec.seconds)

    def corrupt(self, site: str, value: float, **context) -> float:
        """Return ``nan`` instead of ``value`` if a nan rule matches."""
        spec = self._trigger(site, context, _CORRUPT_ACTIONS)
        return float("nan") if spec is not None else value

    def damage(self, site: str, **context) -> bool:
        """True when a ``bitflip`` rule matches this invocation.

        Callers that just persisted an artifact (a poison archive, a journal
        record) consult this hook and, when it fires, deliberately corrupt
        the bytes on disk — exercising the integrity-verification and
        quarantine-and-regenerate paths deterministically.
        """
        return self._trigger(site, context, _DAMAGE_ACTIONS) is not None

    def exhausted(self, site: str, **context) -> bool:
        """True when a ``disk_full`` rule matches this invocation.

        The disk preflight (:func:`repro.utils.resources.require_free_disk`)
        consults this hook and, when it fires, reports 0 free bytes —
        raising the same structured ``ResourceError`` a genuinely full
        disk would, deterministically.
        """
        return self._trigger(site, context, _EXHAUST_ACTIONS) is not None


def _hang(seconds: float) -> None:
    """Sleep up to ``seconds``; return early once the trial is cancelled.

    Polls the ambient token and the shutdown token
    directly, not through :func:`~repro.utils.cancellation.checkpoint`, so
    a hang never beats the heartbeat beacon.  It returns rather than
    raises: the trial's next poll site writes the final snapshot.
    """
    token = cancellation.current_token()
    end = time.monotonic() + seconds
    while not (
        cancellation.shutdown_requested() or (token is not None and token.cancelled)
    ):
        left = end - time.monotonic()
        if left <= 0:
            return
        time.sleep(min(left, _HANG_POLL_SECONDS))


# ---------------------------------------------------------------------------
# Process-wide installation.  The hooks below are called from hot-ish loops
# (one per training epoch), so the uninstalled path is a single global read.

_ACTIVE: Optional[FaultInjector] = None


def current() -> Optional[FaultInjector]:
    """The active injector, or ``None``."""
    return _ACTIVE


@contextmanager
def active(injector: Optional[FaultInjector]) -> Iterator[Optional[FaultInjector]]:
    """Context manager installing ``injector`` (no-op for ``None``)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def perturb(site: str, **context) -> None:
    """Module-level hook: no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.perturb(site, **context)


def corrupt(site: str, value: float, **context) -> float:
    """Module-level hook: identity unless an injector is installed."""
    if _ACTIVE is not None:
        return _ACTIVE.corrupt(site, value, **context)
    return value


def damage(site: str, **context) -> bool:
    """Module-level hook: False unless an installed bitflip rule matches."""
    if _ACTIVE is not None:
        return _ACTIVE.damage(site, **context)
    return False


def exhausted(site: str, **context) -> bool:
    """Module-level hook: False unless an installed disk_full rule matches."""
    if _ACTIVE is not None:
        return _ACTIVE.exhausted(site, **context)
    return False
