"""Fault-tolerant trial execution: supervision, retries, and checkpoints.

The paper's accuracy grids (Tables IV–VI) are hundreds of independent
(dataset, attacker, rate, defender, seed) trials; a single diverging trainer
must not throw away hours of cached poison graphs.  This module supplies the
two pieces the runner composes:

:class:`TrialSupervisor`
    Runs one trial callable with a wall-clock deadline, bounded retries with
    exponential backoff and per-attempt reseeding, and converts exhausted
    retries into structured :class:`TrialFailure` records.  Every attempt
    runs in the calling thread: the deadline is a
    :class:`~repro.utils.cancellation.CancelToken` that the trial's poll
    sites observe, so a trial that never polls delays its own
    :class:`~repro.errors.DeadlineError` until it returns.  (Quarantine —
    a permanently broken method fails once and is skipped thereafter —
    lives in the sweep scheduler, :mod:`repro.experiments.parallel`.)

:class:`SweepCheckpoint`
    An append-only JSONL journal of completed cells plus poison graphs
    persisted through :mod:`repro.io`, written after every cell so an
    interrupted sweep resumes without re-running attacks.  Cell values are
    stored as JSON floats (``repr``-round-trip exact), so a resumed sweep
    reproduces the uninterrupted table bit for bit.

``BaseException`` subclasses that are not ``Exception`` (``KeyboardInterrupt``,
:class:`~repro.utils.faults.InjectedKill`) always propagate: an operator
abort must stop the sweep, not become a failure record.
"""

from __future__ import annotations

import json
import os
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..attacks.base import AttackResult
from ..errors import (
    ConfigError,
    DeadlineError,
    GraphError,
    IntegrityWarning,
    ResourceError,
)
from ..io import (
    SerializationError,
    journal_record_digest,
    load_attack_result,
    save_attack_result,
)
from ..utils import cancellation, faults
from ..utils.keystore import estimate_nbytes
from ..utils.resources import require_free_disk, with_disk_retry

__all__ = [
    "RESEED_STRIDE",
    "TrialKey",
    "TrialFailure",
    "TrialPolicy",
    "TrialOutcome",
    "TrialSupervisor",
    "SweepCheckpoint",
]

PathLike = Union[str, Path]

# Odd prime stride separating per-attempt reseeds from the base seed range,
# so retry seeds never collide with another trial's base seed.
RESEED_STRIDE = 1_000_003


def _memory_exhaustion(error: BaseException) -> bool:
    """Does ``error`` mean the attempt ran out of memory?

    Such an attempt, like a deadline-cut one, was interrupted rather than
    wrong: it keeps its snapshot for the retry to resume from.  Unlike a
    deadline trip, it also keeps its seeds — the retry repeats the same
    attempt number — so a trial that survives memory pressure reports the
    value an unpressured run computes."""
    if isinstance(error, MemoryError):
        return True
    return isinstance(error, ResourceError) and error.resource == "memory"


@dataclass(frozen=True)
class TrialKey:
    """Identity of one supervised trial.

    Attack trials leave ``defender``/``seed`` as ``None`` (one attack is
    shared by a whole row); defense trials set both.  ``attacker`` is
    ``"Clean"`` for the unpoisoned row.
    """

    dataset: str
    attacker: str
    rate: float
    defender: Optional[str] = None
    seed: Optional[int] = None

    def label(self) -> str:
        parts = [self.dataset, self.attacker, f"r={self.rate:g}"]
        if self.defender is not None:
            parts.append(self.defender)
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return "/".join(parts)

    def quarantine_key(self) -> tuple:
        """What a permanent failure of this trial poisons.

        A broken defender is broken for every attacker row, so defense
        trials quarantine (dataset, defender); attack trials quarantine
        (dataset, attacker, rate).
        """
        if self.defender is not None:
            return ("defend", self.dataset, self.defender)
        return ("attack", self.dataset, self.attacker, self.rate)


@dataclass(frozen=True)
class TrialFailure:
    """Structured record of a trial that exhausted its retries."""

    key: TrialKey
    attempts: int
    elapsed_seconds: float
    error_type: str
    message: str
    traceback: str = ""

    def summary(self) -> str:
        return (
            f"{self.key.label()}: {self.error_type}: {self.message} "
            f"({self.attempts} attempts, {self.elapsed_seconds:.2f}s)"
        )

    def to_json(self) -> dict:
        return {
            "dataset": self.key.dataset,
            "attacker": self.key.attacker,
            "rate": self.key.rate,
            "defender": self.key.defender,
            "seed": self.key.seed,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TrialFailure":
        return cls(
            key=TrialKey(
                dataset=data["dataset"],
                attacker=data["attacker"],
                rate=data["rate"],
                defender=data.get("defender"),
                seed=data.get("seed"),
            ),
            attempts=int(data["attempts"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
            error_type=data["error_type"],
            message=data["message"],
            traceback=data.get("traceback", ""),
        )


@dataclass(frozen=True)
class TrialPolicy:
    """Retry/deadline policy shared by every trial of a sweep."""

    max_attempts: int = 2
    deadline_seconds: Optional[float] = None
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
        if self.backoff_seconds < 0:
            raise ConfigError(
                f"backoff_seconds must be non-negative, got {self.backoff_seconds}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)


@dataclass
class TrialOutcome:
    """Result of :meth:`TrialSupervisor.run`: a value or a failure."""

    key: TrialKey
    value: Any = None
    failure: Optional[TrialFailure] = None
    attempts: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


class TrialSupervisor:
    """Runs trial callables under a :class:`TrialPolicy`.

    The callable receives the (0-based) attempt number so callers can
    reseed per attempt — a diverging initialization should not be retried
    verbatim, while a memory-exhausted attempt is repeated under its own
    number.  ``sleep`` is injectable so tests can run backoff instantly.
    """

    def __init__(
        self,
        policy: Optional[TrialPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy or TrialPolicy()
        self.failures: list[TrialFailure] = []
        self._sleep = sleep

    # ------------------------------------------------------------------
    def run(self, key: TrialKey, fn: Callable[[int], Any]) -> TrialOutcome:
        """Run ``fn(attempt)`` under the policy; never raises ``Exception``.

        Returns a :class:`TrialOutcome` whose ``failure`` is set when every
        attempt failed; the failure is also appended to :attr:`failures`.
        Non-``Exception`` ``BaseException`` (operator interrupts) propagate
        immediately.
        """
        started = time.perf_counter()
        last_error: Optional[BaseException] = None
        last_tb = ""
        sink = cancellation.current_sink()
        ordinal = 0
        for attempt in range(self.policy.max_attempts):
            # When a mid-trial snapshot exists, run under the attempt it
            # was written for so the resumed trial re-derives the same
            # seeds and splices onto its own trajectory.
            run_attempt = sink.start_attempt(ordinal) if sink is not None else ordinal
            try:
                value = self._attempt(key, fn, run_attempt)
                if sink is not None:
                    sink.discard()
                return TrialOutcome(
                    key=key,
                    value=value,
                    attempts=attempt + 1,
                    elapsed_seconds=time.perf_counter() - started,
                )
            except Exception as error:  # noqa: BLE001 — supervision boundary
                last_error = error
                last_tb = traceback.format_exc()
                # Deadline trips and memory exhaustion are *interruptions*:
                # the snapshot lets the retry resume mid-trial instead of
                # restarting.  Any other failure reseeds, so stale state
                # from the failed trajectory must not leak into it.
                memory = _memory_exhaustion(error)
                interrupted = memory or isinstance(error, DeadlineError)
                if sink is not None and not interrupted:
                    sink.discard()
                ordinal = run_attempt if memory else attempt + 1
                if attempt + 1 < self.policy.max_attempts:
                    self._sleep(self.policy.backoff_for(attempt + 1))

        failure = TrialFailure(
            key=key,
            attempts=self.policy.max_attempts,
            elapsed_seconds=time.perf_counter() - started,
            error_type=type(last_error).__name__,
            message=str(last_error),
            traceback=last_tb,
        )
        self.failures.append(failure)
        return TrialOutcome(
            key=key,
            failure=failure,
            attempts=failure.attempts,
            elapsed_seconds=failure.elapsed_seconds,
        )

    # ------------------------------------------------------------------
    def _attempt(self, key: TrialKey, fn: Callable[[int], Any], attempt: int) -> Any:
        deadline = self.policy.deadline_seconds
        if deadline is None:
            return fn(attempt)

        # Cooperative deadline, in this thread: the attempt runs under a
        # token that carries the deadline.  Poll sites inside the trial
        # observe expiry, write a final snapshot, and raise.  A value
        # computed past the deadline is discarded: the deadline beats a
        # lucky late finish.
        token = cancellation.CancelToken(deadline_seconds=deadline)
        started = time.perf_counter()
        try:
            with cancellation.trial_scope(token=token):
                value = fn(attempt)
        except cancellation.CancelledError as error:
            if error.cause != cancellation.CAUSE_DEADLINE:
                raise
        else:
            if token.cause != cancellation.CAUSE_DEADLINE:
                return value
        raise DeadlineError(
            f"trial {key.label()} exceeded its {deadline:g}s deadline "
            f"on attempt {attempt + 1}",
            deadline_seconds=deadline,
            key=key,
            attempts=attempt + 1,
            elapsed_seconds=time.perf_counter() - started,
        )


# ---------------------------------------------------------------------------


class SweepCheckpoint:
    """Journal of completed sweep cells plus persisted poison graphs.

    Layout under ``directory``::

        journal.jsonl                    # one JSON record per event
        poison_<dataset>_<attacker>_...  # .npz attack archives (repro.io)

    Journal records are ``{"kind": "cell", ...}`` with the per-seed
    accuracy values, or ``{"kind": "failure", ...}`` with a serialized
    :class:`TrialFailure`.  Failed cells are *not* marked complete: a
    resumed sweep retries them (the failure records remain for
    post-mortems).  Every record is written and flushed before the sweep
    moves on, so the journal is valid after a kill at any point; a
    truncated trailing line (kill mid-write) is ignored on load.

    Integrity: every record carries a ``sha256`` digest of its canonical
    JSON form (:func:`repro.io.journal_record_digest`).  A corrupt
    *interior* record — bad digest or unparsable JSON before the final
    line — is skipped with an :class:`~repro.errors.IntegrityWarning` and
    listed in :attr:`corrupt_records`; its cell simply re-runs on resume.
    Corrupt poison archives are quarantined (renamed ``*.corrupt``, listed
    in :attr:`quarantines`) and regenerated instead of crashing the sweep.
    """

    def __init__(self, directory: PathLike, resume: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / "journal.jsonl"
        self._cells: dict[tuple, list[float]] = {}
        self.failures: list[TrialFailure] = []
        self.corrupt_records: list[dict] = []
        self.quarantines: list[Path] = []
        # Journal writes happen only in the sweep's parent process: pool
        # workers never hold a SweepCheckpoint, they return outcomes and the
        # scheduler journals them here.
        if resume:
            self._load()
        else:
            self.journal_path.write_text("")

    # -- journal --------------------------------------------------------
    @staticmethod
    def _cell_key(dataset: str, attacker: str, rate: float, defender: str) -> tuple:
        return (dataset, attacker, float(rate), defender)

    def _skip_corrupt(self, line_number: int, reason: str) -> None:
        """Note a corrupt interior journal record; its cell re-runs."""
        self.corrupt_records.append({"line": line_number, "reason": reason})
        warnings.warn(
            f"{self.journal_path}: skipping corrupt journal record at line "
            f"{line_number} ({reason}); its cell will re-run",
            IntegrityWarning,
            stacklevel=3,
        )

    def _load(self) -> None:
        if not self.journal_path.exists():
            return
        # Bytes, not text: injected/real corruption may not be valid UTF-8,
        # and one mangled record must not prevent reading the rest.
        lines = self.journal_path.read_bytes().splitlines()
        legacy_records = 0
        for number, raw in enumerate(lines, start=1):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    continue  # torn trailing write from a hard kill
                self._skip_corrupt(number, "unparsable JSON")
                continue
            if not isinstance(record, dict):
                self._skip_corrupt(number, "record is not a JSON object")
                continue
            if "sha256" in record:
                if journal_record_digest(record) != record["sha256"]:
                    self._skip_corrupt(number, "SHA-256 digest mismatch")
                    continue
            else:
                legacy_records += 1
            if record.get("kind") == "cell":
                key = self._cell_key(
                    record["dataset"],
                    record["attacker"],
                    record["rate"],
                    record["defender"],
                )
                self._cells[key] = [float(v) for v in record["values"]]
            elif record.get("kind") == "failure":
                self.failures.append(TrialFailure.from_json(record))
        if legacy_records:
            warnings.warn(
                f"{self.journal_path}: accepted {legacy_records} unverified "
                "legacy journal records (no digests)",
                IntegrityWarning,
                stacklevel=3,
            )

    def _append(self, record: dict) -> None:
        record = dict(record)
        record["sha256"] = journal_record_digest(record)
        line = json.dumps(record) + "\n"

        def write() -> None:
            # Preflight on its own fault site ("journal_disk", not
            # "journal") so disk_full injection never shifts the per-record
            # ordinals bitflip rules count on the "journal" site.
            require_free_disk(
                self.journal_path,
                len(line.encode("utf-8")),
                site="journal_disk",
                kind=record.get("kind"),
            )
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()

        # Journal appends run in the sweep's parent process with no
        # supervisor above them; bounded retries ride out transient disk
        # pressure instead of crashing a sweep that is 99% journalled.
        with_disk_retry(write)
        if faults.damage(
            "journal",
            kind=record.get("kind"),
            dataset=record.get("dataset"),
            attacker=record.get("attacker"),
            defender=record.get("defender"),
        ):
            _corrupt_last_journal_line(self.journal_path)

    def cell_values(
        self, dataset: str, attacker: str, rate: float, defender: str
    ) -> Optional[list[float]]:
        """Per-seed values of a previously completed cell, or ``None``."""
        return self._cells.get(self._cell_key(dataset, attacker, rate, defender))

    def record_cell(
        self,
        dataset: str,
        attacker: str,
        rate: float,
        defender: str,
        values: list[float],
    ) -> None:
        """Mark a cell complete (journalled immediately)."""
        self._cells[self._cell_key(dataset, attacker, rate, defender)] = list(values)
        self._append(
            {
                "kind": "cell",
                "dataset": dataset,
                "attacker": attacker,
                "rate": float(rate),
                "defender": defender,
                "values": [float(v) for v in values],
            }
        )

    def record_failure(self, failure: TrialFailure) -> None:
        """Journal a trial failure (cell stays incomplete for resume)."""
        self._append({"kind": "failure", **failure.to_json()})

    # -- mid-trial snapshots --------------------------------------------
    def snapshot_path(self, key: TrialKey) -> Path:
        """Archive path for ``key``'s mid-trial snapshot (one per trial).

        Snapshots are transient by design: they exist only between an
        interruption and the resumed attempt that consumes them, and are
        discarded when the trial completes or reseeds.
        """
        slug = "".join(c if c.isalnum() else "-" for c in key.label())
        return self.directory / f"snapshot_{slug}.npz"

    # -- poison graphs --------------------------------------------------
    def poison_path(
        self,
        dataset: str,
        attacker: str,
        rate: float,
        dataset_seed: int,
        scale: float,
    ) -> Path:
        slug = "".join(c if c.isalnum() else "-" for c in attacker)
        return self.directory / (
            f"poison_{dataset}_{slug}_r{rate:g}_ds{dataset_seed}_x{scale:g}.npz"
        )

    def load_poison(
        self,
        dataset: str,
        attacker: str,
        rate: float,
        dataset_seed: int,
        scale: float,
    ) -> Optional[AttackResult]:
        """The persisted attack result for this row, or ``None``.

        A corrupt archive (failed digest, unreadable payload, or a graph
        that no longer satisfies its contracts) is quarantined — renamed to
        ``*.corrupt`` and listed in :attr:`quarantines` — and ``None`` is
        returned, so the caller regenerates the poison instead of crashing.
        """
        path = self.poison_path(dataset, attacker, rate, dataset_seed, scale)
        if not path.exists():
            return None
        try:
            return load_attack_result(path)
        except (SerializationError, GraphError) as error:
            self.quarantine(path, str(error))
            return None

    def quarantine(self, path: Path, reason: str) -> Path:
        """Rename a corrupt artifact to ``*.corrupt`` and record it."""
        target = path.with_name(path.name + ".corrupt")
        os.replace(path, target)
        self.quarantines.append(target)
        warnings.warn(
            f"quarantined corrupt artifact {path.name} -> {target.name} "
            f"({reason}); it will be regenerated",
            IntegrityWarning,
            stacklevel=3,
        )
        return target

    def save_poison(
        self,
        dataset: str,
        attacker: str,
        rate: float,
        dataset_seed: int,
        scale: float,
        result: AttackResult,
    ) -> Path:
        path = self.poison_path(dataset, attacker, rate, dataset_seed, scale)
        write_poison(
            path,
            estimate_nbytes(result),
            lambda: save_attack_result(result, path),
            dataset=dataset,
            attacker=attacker,
        )
        if faults.damage(
            "poison_archive", dataset=dataset, attacker=attacker, rate=rate
        ):
            _corrupt_file_byte(path)
        return path


def write_poison(
    path: Union[str, Path],
    nbytes: int,
    write: Callable[[], None],
    *,
    dataset: str,
    attacker: str,
) -> None:
    """Run ``write`` (which writes a poison to ``path``) behind the
    ``poison_disk`` free-space preflight, with bounded retries.

    A full disk fails as a structured ``ResourceError`` naming the path,
    the checkpoint's archive or a sweep's private spill alike.  ``nbytes``
    is the poison's in-memory footprint, which over-estimates the archive,
    so the preflight errs on the safe side of a torn write.
    """

    def attempt() -> None:
        require_free_disk(
            path, nbytes, site="poison_disk", dataset=dataset, attacker=attacker
        )
        write()

    with_disk_retry(attempt)


def _corrupt_file_byte(path: Path) -> None:
    """Flip one mid-file byte in place (fault injection only)."""
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        byte = handle.read(1)
        handle.seek(size // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _corrupt_last_journal_line(path: Path) -> None:
    """Damage the digest of the journal's last record (fault injection only).

    The replacement byte is ASCII (``X``/``Y``) so the line stays decodable
    text — the point is a digest mismatch, not an undecodable stream (the
    loader tolerates both, but tests assert on the digest path).
    """
    raw = path.read_bytes()
    stripped = raw.rstrip(b"\n")
    if not stripped:
        return
    cut = stripped.rfind(b"\n") + 1  # start of last record (0 if only one)
    line = bytearray(stripped[cut:])
    middle = len(line) // 2
    line[middle] = ord("Y") if line[middle] == ord("X") else ord("X")
    path.write_bytes(stripped[:cut] + bytes(line) + b"\n")
