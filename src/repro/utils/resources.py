"""Resource governance: memory budgets and disk preflights.

On the 100k–1M-node tiers the binding constraint stops being wall-time and
becomes *capacity*: a PRBCD candidate block that does not fit in RAM, a
pool worker the kernel OOM-kills with exitcode −9, unbounded cache growth
across a sweep, and torn writes when the disk fills mid-archive.  This
module is the shared vocabulary the rest of the harness uses to detect
those conditions early and fail with a structured error instead of dying:

:class:`MemoryBudget`
    Tracks the process RSS (read from ``/proc/self/status`` — no new
    dependencies) against a byte ceiling, with *watermark callbacks*: a
    callback registered at fraction ``f`` fires once each time RSS crosses
    ``f × limit`` upward and re-arms when it falls back below.  The cache
    layer registers an eviction callback at 80% so memory pressure shrinks
    the :mod:`repro.utils.keystore` stores before the kernel gets involved.

:func:`require_free_disk`
    Preflight for archive/journal writes: raises a structured
    :class:`~repro.errors.ResourceError` naming the path and the bytes
    needed instead of letting the filesystem tear the write halfway.
    Consult-able fault injection (``disk_full`` rules, see
    :mod:`repro.utils.faults`) makes the ENOSPC path chaos-testable.

Budgets install ambiently (like :mod:`repro.utils.faults`): the CLI
installs ``--memory-budget`` in its own process, and a ``--jobs`` pool
hands the installed ceiling to each worker as it starts.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from ..errors import ConfigError, ResourceError
from . import faults
from .keystore import evict_fraction

__all__ = [
    "MemoryBudget",
    "Watermark",
    "parse_bytes",
    "format_bytes",
    "rss_bytes",
    "cpu_count",
    "free_disk_bytes",
    "require_free_disk",
    "with_disk_retry",
    "install_budget",
    "active_budget",
    "enforced_budget",
    "enforced_limit",
    "budget_check",
]

_UNITS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_bytes(text: Union[str, int, float]) -> int:
    """Parse a byte count with optional ``K``/``M``/``G``/``T`` suffix.

    Accepts ``"512M"``, ``"2G"``, ``"1048576"``, or a plain number; the
    ``B`` suffix (``"2GB"``) is tolerated.  Returns plain bytes.
    """
    if isinstance(text, (int, float)):
        value = float(text)
        unit = ""
    else:
        raw = text.strip().lower().removesuffix("b")
        unit = raw[-1] if raw and raw[-1] in _UNITS else ""
        number = raw[: len(raw) - len(unit)] if unit else raw
        try:
            value = float(number)
        except ValueError as error:
            raise ConfigError(f"cannot parse byte count {text!r}") from error
    if value < 0:
        raise ConfigError(f"byte count must be non-negative, got {text!r}")
    return int(value * _UNITS[unit])


def format_bytes(count: float) -> str:
    """Human-readable byte count (``"1.5 GiB"``)."""
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(count) < 1024.0 or unit == "TiB":
            return f"{count:.0f} {unit}" if unit == "B" else f"{count:.1f} {unit}"
        count /= 1024.0
    return f"{count:.1f} TiB"  # pragma: no cover - unreachable


# ---------------------------------------------------------------------------
# Memory


def rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Linux: ``VmRSS`` from ``/proc/self/status`` (no dependencies, ~µs).
    Elsewhere: ``ru_maxrss`` from :mod:`resource` — the *peak*, not the
    current value, which is still a safe (conservative) budget signal.
    Returns 0 when neither source exists, disabling enforcement rather
    than crashing on an exotic platform.
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource as _resource

        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes; both only matter here
        # when /proc is unavailable, i.e. macOS.
        return int(peak) if peak > 1 << 40 else int(peak) * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return 0


def cpu_count() -> int:
    """Usable core count (scheduler-affinity aware where supported)."""
    try:
        affinity = os.sched_getaffinity(0)  # type: ignore[attr-defined]
    except AttributeError:  # macOS / Windows
        return os.cpu_count() or 1
    return max(1, len(affinity))


@dataclass
class Watermark:
    """One registered watermark: fires crossing up, re-arms crossing down."""

    fraction: float
    callback: Callable[[int, int], None]  # (rss_bytes, limit_bytes)
    fired: bool = False


@dataclass
class MemoryBudget:
    """RSS budget with watermark callbacks and a hard-ceiling check.

    ``limit_bytes`` is the governed ceiling.  :meth:`check` reads the
    current RSS, fires any watermark whose threshold was crossed upward
    since the last check (each re-arms when RSS drops back below it), and
    — only when ``enforce`` is set — raises :class:`ResourceError` above
    the ceiling.  A hand-built budget only measures unless ``enforce`` is
    set; the ``--memory-budget`` one (:func:`enforced_budget`) enforces.

    ``reader`` is injectable so tests can script RSS trajectories.
    """

    limit_bytes: int
    enforce: bool = False
    reader: Callable[[], int] = rss_bytes
    watermarks: list[Watermark] = field(default_factory=list)
    peak_bytes: int = 0

    def __post_init__(self) -> None:
        self.limit_bytes = int(self.limit_bytes)
        if self.limit_bytes <= 0:
            raise ConfigError(
                f"memory budget must be positive, got {self.limit_bytes}"
            )

    def add_watermark(
        self, fraction: float, callback: Callable[[int, int], None]
    ) -> None:
        """Register ``callback(rss, limit)`` to fire when RSS crosses
        ``fraction × limit`` upward (re-armed on the way back down)."""
        if not 0.0 < fraction:
            raise ConfigError(f"watermark fraction must be positive, got {fraction}")
        self.watermarks.append(Watermark(float(fraction), callback))

    def check(self, context: str = "") -> int:
        """Sample RSS, fire crossed watermarks, and return the reading.

        Raises :class:`ResourceError` above the ceiling when ``enforce``
        is set (after giving every watermark — e.g. cache eviction — one
        chance to bring RSS back down).
        """
        rss = self._sample()
        if self.enforce and rss > self.limit_bytes:
            rss = self._sample()  # watermarks may have released memory
            if rss > self.limit_bytes:
                label = f" during {context}" if context else ""
                raise ResourceError(
                    f"RSS {format_bytes(rss)} exceeds the "
                    f"{format_bytes(self.limit_bytes)} memory budget{label}",
                    resource="memory",
                    needed_bytes=rss,
                    available_bytes=self.limit_bytes,
                )
        return rss

    def _sample(self) -> int:
        rss = int(self.reader())
        self.peak_bytes = max(self.peak_bytes, rss)
        for mark in self.watermarks:
            threshold = mark.fraction * self.limit_bytes
            if not mark.fired and rss >= threshold:
                mark.fired = True
                mark.callback(rss, self.limit_bytes)
            elif mark.fired and rss < threshold:
                mark.fired = False
        return rss


_BUDGET: Optional[MemoryBudget] = None


def install_budget(budget: Optional[MemoryBudget]) -> None:
    """Install (or, with ``None``, remove) the process-wide memory budget."""
    global _BUDGET
    _BUDGET = budget


@contextmanager
def active_budget(budget: Optional[MemoryBudget]) -> Iterator[Optional[MemoryBudget]]:
    """Context manager installing ``budget`` (``None`` lifts any budget)
    for the block, then restoring the previous one."""
    global _BUDGET
    previous = _BUDGET
    _BUDGET = budget
    try:
        yield budget
    finally:
        _BUDGET = previous


def enforced_budget(limit_bytes: Optional[int]) -> Optional[MemoryBudget]:
    """The ``--memory-budget`` budget for ``limit_bytes`` (None/0 → None).

    The budget enforces its ceiling, and an 80% watermark evicts half of
    the cached bytes (:func:`repro.utils.keystore.evict_fraction`) before
    the ceiling is judged.  The CLI installs it in its own process; a
    ``--jobs`` pool rebuilds it in each worker from :func:`enforced_limit`.
    """
    if not limit_bytes:
        return None
    budget = MemoryBudget(limit_bytes, enforce=True)
    budget.add_watermark(0.8, lambda rss, limit: evict_fraction())
    return budget


def enforced_limit() -> Optional[int]:
    """The ceiling of the installed budget if it enforces one, else None."""
    return _BUDGET.limit_bytes if _BUDGET is not None and _BUDGET.enforce else None


def budget_check(context: str = "") -> Optional[int]:
    """Sample the ambient budget at an instrumented site (no-op unmanaged)."""
    if _BUDGET is None:
        return None
    return _BUDGET.check(context)


# ---------------------------------------------------------------------------
# Disk


def free_disk_bytes(path: Union[str, Path]) -> int:
    """Free bytes on the filesystem holding ``path`` (or its first existing
    ancestor, so preflights work before the target file exists)."""
    path = Path(path)
    probe = path if path.exists() else path.parent
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    usage = os.statvfs(probe)
    return usage.f_bavail * usage.f_frsize


def require_free_disk(
    path: Union[str, Path],
    needed_bytes: int,
    site: str = "disk",
    **context,
) -> None:
    """Raise :class:`ResourceError` unless the filesystem can hold the write.

    ``site`` doubles as the fault-injection site: a matching ``disk_full``
    rule (:mod:`repro.utils.faults`) makes the preflight behave as if the
    disk had 0 free bytes, so every ENOSPC recovery path is chaos-testable
    without actually filling a disk.
    """
    path = Path(path)
    needed = int(needed_bytes)
    if faults.exhausted(site, path=str(path), **context):
        available = 0
    else:
        available = free_disk_bytes(path)
    if available < needed:
        raise ResourceError(
            f"{path}: not enough free disk space for {site} write "
            f"(need {format_bytes(needed)}, have {format_bytes(available)})",
            resource="disk",
            path=str(path),
            needed_bytes=needed,
            available_bytes=available,
        )


def with_disk_retry(
    fn: Callable[[], object],
    *,
    attempts: int = 3,
    backoff_seconds: float = 0.02,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run a disk write with bounded retries on :class:`ResourceError`.

    Disk pressure is frequently transient (a sibling process rotating its
    own artifacts, a quota catching up), and parent-side writes — journal
    records, poison archives stored at merge time — have no supervising
    retry loop above them.  Exponential backoff, last error re-raised.
    """
    if attempts < 1:
        raise ConfigError(f"attempts must be >= 1, got {attempts}")
    for attempt in range(attempts):
        try:
            return fn()
        except ResourceError:
            if attempt + 1 == attempts:
                raise
            sleep(backoff_seconds * 2**attempt)
    raise AssertionError("unreachable")  # pragma: no cover
