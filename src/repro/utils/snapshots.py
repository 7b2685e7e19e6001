"""Mid-trial snapshots: throttled state capture and deterministic resume.

A *trial* (one attack or one defense evaluation) is a deterministic
sequence of *units* — each attacker ``_run`` and each
``train_node_classifier`` fit registers itself as one unit via
:func:`begin_unit`.  The ambient :class:`TrialSnapshotter` (installed
through :func:`repro.utils.cancellation.trial_scope`) assigns units
deterministic ordinals in call order and persists at most one snapshot
per trial: the state of the unit that was running when the trial was
interrupted, serialized through :func:`repro.io.save_snapshot`'s
checksummed archives.

On a resumed attempt the same trial code runs again: units *before* the
snapshotted ordinal re-execute deterministically (cheap — they consume
their RNG streams and rebuild in-memory state but never write snapshots),
the matching unit restores its loop state mid-flight, and everything
after proceeds live.  Because every unit captures its complete loop state
(RNG bit-generator states included), the resumed trajectory — flip
sequences, weight updates, journal records — is bit-identical to an
uninterrupted run.

Writes are throttled from the start of each attempt: a periodic offer
writes only once ``interval`` seconds of the attempt have passed, so a
trial shorter than the interval writes nothing unless it is interrupted.
A step-0 snapshot would hold no progress — restoring it is the same as
restarting the unit — so a hard kill inside the first interval simply
restarts the unit.  Two writes are never throttled: final offers (the
poll site saw cancellation), and the first offer of a reseeded retry
(attempt > 0), whose archive pins the retry's seeds.

State builders return ``(arrays, meta)``: a dict of ndarrays and a
JSON-serializable dict.  Include a monotone ``"step"`` in ``meta``; it is
recorded in the archive's state record alongside the unit ordinal.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..errors import IntegrityWarning
from . import cancellation

__all__ = [
    "TrialSnapshotter",
    "SnapshotUnit",
    "begin_unit",
    "generator_state",
    "restore_generator",
    "pack_list",
    "unpack_list",
]

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Small serialization helpers shared by the state builders.


def generator_state(gen: np.random.Generator) -> dict:
    """JSON-serializable bit-generator state of a NumPy ``Generator``."""
    return gen.bit_generator.state


def restore_generator(gen: np.random.Generator, state: dict) -> None:
    """Restore a state captured by :func:`generator_state` (bit-exact)."""
    gen.bit_generator.state = state


def pack_list(arrays: dict, prefix: str, items) -> None:
    """Pack an ordered list of ndarrays into ``arrays`` under ``prefix``."""
    for index, item in enumerate(items):
        arrays[f"{prefix}{index:05d}"] = np.asarray(item)


def unpack_list(data: dict, prefix: str) -> list[np.ndarray]:
    """Recover a list packed by :func:`pack_list` (in original order)."""
    keys = sorted(key for key in data if key.startswith(prefix))
    return [data[key] for key in keys]


# ---------------------------------------------------------------------------
# The sink.


class SnapshotUnit:
    """Handle for one resumable unit of a trial.

    ``resume_state()`` yields the ``(arrays, meta)`` this unit should
    restore from (or ``None`` for a fresh start); ``offer()`` is called
    from poll sites with a state builder.  A *muted* unit (one that
    completed before the interruption) ignores offers so its re-execution
    cannot clobber the snapshot of the unit actually being resumed.
    """

    def __init__(
        self,
        sink: Optional["TrialSnapshotter"],
        ordinal: int,
        kind: str,
        resume: Optional[tuple[dict, dict]] = None,
        muted: bool = False,
    ) -> None:
        self._sink = sink
        self.ordinal = ordinal
        self.kind = kind
        self._resume = resume
        self._muted = muted

    def resume_state(self) -> Optional[tuple[dict, dict]]:
        return self._resume

    def offer(self, builder: Callable[[], tuple], final: bool = False) -> None:
        if self._sink is None or self._muted:
            return
        self._sink._write(self.ordinal, self.kind, builder, final)


_NULL_UNIT = SnapshotUnit(None, -1, "null")


def begin_unit(kind: str) -> SnapshotUnit:
    """Register the next unit of the ambient trial (no-op handle if none).

    Call exactly once per resumable loop, *before* consuming any RNG, and
    pass the returned handle to every ``cancellation.checkpoint`` in that
    loop.  Unit ordinals are assigned in call order, so the trial's unit
    sequence must be deterministic — which it is, because trials are.
    """
    sink = cancellation.current_sink()
    if sink is None:
        return _NULL_UNIT
    return sink.begin_unit(kind)


class TrialSnapshotter:
    """Per-trial snapshot store bound to one archive path.

    ``interval`` throttles periodic snapshot writes (seconds since the
    attempt started or since the last write; ``0`` writes at every offer —
    used by tests).  Final offers (made by a poll site that just observed
    cancellation) always write, and so does the first offer of a reseeded
    retry.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        interval: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.path = Path(path)
        self.interval = float(interval)
        self._clock = clock or time.monotonic
        self._last_write: Optional[float] = None
        self._attempt = 0
        self._counter = 0
        self._resume: Optional[tuple[dict, dict]] = None
        self._resume_meta: Optional[dict] = None

    # -- attempt lifecycle ---------------------------------------------
    def start_attempt(self, default_attempt: int) -> int:
        """Begin a trial attempt; returns the attempt ordinal to run as.

        When a resumable snapshot exists on disk, the attempt it was
        written under is returned instead of ``default_attempt`` so the
        resumed run re-derives the *same* seeds — resuming under a fresh
        reseed would splice two unrelated trajectories.

        Arms the write throttle: attempt 0 writes its first periodic
        snapshot one ``interval`` in, while a reseeded retry writes at its
        first offer so a hard kill cannot lose which seeds it ran under.
        """
        self._counter = 0
        self._resume = None
        self._resume_meta = None
        if self.path.exists():
            from .. import io

            try:
                arrays, state = io.load_snapshot(self.path)
            except Exception as error:  # noqa: BLE001 — damaged snapshot
                warnings.warn(
                    f"{self.path}: discarding unreadable mid-trial snapshot "
                    f"({type(error).__name__}: {error})",
                    IntegrityWarning,
                    stacklevel=2,
                )
                self.discard()
            else:
                self._resume = (arrays, state.get("data", {}))
                self._resume_meta = state
        if self._resume_meta is not None:
            self._attempt = int(self._resume_meta.get("attempt", default_attempt))
        else:
            self._attempt = int(default_attempt)
        self._last_write = self._clock() if self._attempt == 0 else None
        return self._attempt

    def resuming(self) -> bool:
        return self._resume_meta is not None

    # -- unit registration ---------------------------------------------
    def begin_unit(self, kind: str) -> SnapshotUnit:
        ordinal = self._counter
        self._counter += 1
        if self._resume_meta is not None:
            target = int(self._resume_meta.get("unit", -1))
            target_kind = self._resume_meta.get("kind")
            if ordinal < target:
                return SnapshotUnit(self, ordinal, kind, muted=True)
            resume = self._resume
            # Hand the payload to exactly one unit, then forget it.
            self._resume = None
            self._resume_meta = None
            if ordinal == target and kind == target_kind:
                return SnapshotUnit(self, ordinal, kind, resume=resume)
            # Ordinal or kind drifted from the snapshot (the retry's
            # trial took a different structure): restart this unit fresh
            # rather than restoring mismatched state.
        return SnapshotUnit(self, ordinal, kind)

    # -- persistence ----------------------------------------------------
    def _write(
        self, ordinal: int, kind: str, builder: Callable[[], tuple], final: bool
    ) -> None:
        now = self._clock()
        if (
            not final
            and self._last_write is not None
            and now - self._last_write < self.interval
        ):
            return
        from .. import io

        arrays, meta = builder()
        state = {
            "unit": int(ordinal),
            "kind": kind,
            "attempt": int(self._attempt),
            "step": int(meta.get("step", 0)),
            "data": meta,
        }
        try:
            io.save_snapshot(self.path, arrays, state)
        except OSError as error:
            # A failed snapshot write must not take down the trial it
            # protects; the trial just resumes from an older snapshot (or
            # from scratch) if it is interrupted later.
            warnings.warn(
                f"{self.path}: mid-trial snapshot write failed ({error})",
                IntegrityWarning,
                stacklevel=2,
            )
            return
        self._last_write = now

    def discard(self) -> None:
        """Remove the snapshot (trial finished, or failed and will reseed)."""
        self._resume = None
        self._resume_meta = None
        self.path.unlink(missing_ok=True)
