"""One capacity-governed store behind every content-fingerprint cache.

Three memoization layers grew up independently — the SGC ``A_n^k X`` memo,
the view-operator cache (:mod:`repro.graph.viewcache`), and the experiment
runner's poison cache — each keyed by content fingerprints, each with its
own (or no) eviction policy, and none of them byte-accounted.  A 1M-node
sweep can pin gigabytes in "caches" that nothing ever measures.  This
module closes ROADMAP item 5's refactor rider: a single
:class:`KeyedArtifactStore` primitive that every cache layers on, with

* **byte-accounted LRU eviction** — every entry carries its payload size
  (``estimate_nbytes`` when the caller does not know better) and a global
  monotonic access tick; eviction always removes the globally
  least-recently-used *evictable* entry, across stores, until the
  configured budget is met;
* **one shared byte budget** — :func:`set_cache_bytes` (CLI
  ``--cache-bytes``) caps the *sum* of all
  registered stores, which is exactly the single eviction/capacity policy
  the always-on service layer (ROADMAP item 3) needs;
* **pinning** — entries whose only copy lives in memory (a poison graph
  with no checkpoint archive behind it) are never evicted.

Memory pressure integrates through :mod:`repro.utils.resources`: install a
:class:`~repro.utils.resources.MemoryBudget` with an 80% watermark calling
:func:`evict_fraction` and the caches shrink *before* the kernel's OOM
killer gets a vote.

The stores take no lock: the library starts no threads, and every
trial runs in the thread that calls it.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from ..errors import ConfigError

__all__ = [
    "KeyedArtifactStore",
    "estimate_nbytes",
    "set_cache_bytes",
    "cache_bytes",
    "evict_fraction",
    "cache_report",
    "clear_all_stores",
]

_tick = itertools.count(1)
_stores: "list[weakref.ref[KeyedArtifactStore]]" = []
_budget_bytes: Optional[int] = None


def estimate_nbytes(value: Any) -> int:
    """Best-effort payload size in bytes for cache accounting.

    Understands numpy arrays, scipy sparse matrices, the repro ``Tensor``
    (any object exposing a ``data`` ndarray), ``Graph`` (adjacency +
    features + labels + masks), ``AttackResult`` (both carried graphs +
    flip lists), and containers of those; anything else falls back to
    ``sys.getsizeof``.  Estimates are for *accounting*, not allocation:
    being a few percent off just moves an eviction threshold.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, float)):  # numpy arrays and scalars
        return int(nbytes)
    if hasattr(value, "indptr") and hasattr(value, "indices"):  # CSR/CSC
        return int(
            value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        )
    if hasattr(value, "tocsr") and hasattr(value, "nnz"):  # other sparse
        return estimate_nbytes(value.tocsr())
    if hasattr(value, "adjacency") and hasattr(value, "features"):  # Graph
        total = estimate_nbytes(value.adjacency) + estimate_nbytes(value.features)
        for name in ("labels", "train_mask", "val_mask", "test_mask"):
            extra = getattr(value, name, None)
            if extra is not None:
                total += estimate_nbytes(extra)
        return total
    if hasattr(value, "original") and hasattr(value, "poisoned"):  # AttackResult
        return (
            estimate_nbytes(value.original)
            + estimate_nbytes(value.poisoned)
            + 16 * (len(value.edge_flips) + len(value.feature_flips))
            + 8 * len(value.objective_trace)
        )
    data = getattr(value, "data", None)
    if data is not None and hasattr(data, "nbytes"):  # Tensor
        return int(data.nbytes)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(estimate_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in value.items()
        )
    return sys.getsizeof(value)


@dataclass
class _Entry:
    value: Any
    nbytes: int
    tick: int
    pinned: bool = False


@dataclass
class StoreStats:
    """Counters one store exposes (see :meth:`KeyedArtifactStore.stats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class KeyedArtifactStore:
    """Byte-accounted, LRU-evicted keyed store.

    Parameters
    ----------
    name:
        Label for :func:`cache_report`.
    max_entries:
        Per-store entry ceiling (``None`` = only the global byte budget
        applies).
    """

    def __init__(self, name: str, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._stats = StoreStats()
        self.total_bytes = 0
        _stores.append(weakref.ref(self))

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, else ``default``."""
        entry = self._entries.get(key)
        if entry is None:
            self._stats.misses += 1
            return default
        entry.tick = next(_tick)
        self._entries.move_to_end(key)
        self._stats.hits += 1
        return entry.value

    def put(
        self,
        key: Hashable,
        value: Any,
        nbytes: Optional[int] = None,
        pinned: bool = False,
    ) -> Any:
        """Insert (or refresh) ``key`` and enforce every byte ceiling."""
        size = int(nbytes) if nbytes is not None else estimate_nbytes(value)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.total_bytes -= previous.nbytes
        self._entries[key] = _Entry(
            value=value, nbytes=size, tick=next(_tick), pinned=pinned
        )
        self.total_bytes += size
        self._enforce_local()
        _enforce_global()
        return value

    def unpin(self, key: Hashable) -> None:
        """Make a previously pinned entry evictable (e.g. once a disk copy
        of the payload exists)."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.pinned = False

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.total_bytes -= entry.nbytes

    def clear(self) -> None:
        """Drop every entry; reset the counters."""
        self._entries.clear()
        self.total_bytes = 0
        self._stats = StoreStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> list:
        return list(self._entries)

    def stats(self) -> dict:
        stats = self._stats.as_dict()
        stats["entries"] = len(self._entries)
        stats["bytes"] = self.total_bytes
        stats["max_entries"] = self.max_entries
        return stats

    # ------------------------------------------------------------------
    def _lru_evictable(self) -> Optional[Hashable]:
        for key, entry in self._entries.items():  # OrderedDict: LRU first
            if not entry.pinned:
                return key
        return None

    def _evict_one(self, key: Hashable) -> None:
        """Remove ``key`` and count the eviction."""
        entry = self._entries.pop(key)
        self.total_bytes -= entry.nbytes
        self._stats.evictions += 1

    def _enforce_local(self) -> None:
        """Evict this store's LRU evictable entries (OrderedDict order IS
        this store's LRU) until ``max_entries`` holds or only pins remain."""
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            key = self._lru_evictable()
            if key is None:
                break
            self._evict_one(key)


# ---------------------------------------------------------------------------
# Global budget across every registered store


def _live_stores() -> list[KeyedArtifactStore]:
    alive: list[KeyedArtifactStore] = []
    dead = False
    for ref in _stores:
        store = ref()
        if store is None:
            dead = True
        else:
            alive.append(store)
    if dead:
        _stores[:] = [ref for ref in _stores if ref() is not None]
    return alive


def _evict_down_to(stores: list[KeyedArtifactStore], target: int) -> None:
    """Evict the globally least-recently-used evictable entry (across
    ``stores``) until they hold ``target`` bytes or less, or everything
    left is pinned."""
    while sum(s.total_bytes for s in stores) > target:
        oldest_store: Optional[KeyedArtifactStore] = None
        oldest_key: Optional[Hashable] = None
        oldest_tick = None
        for store in stores:
            key = store._lru_evictable()
            if key is None:
                continue
            tick = store._entries[key].tick
            if oldest_tick is None or tick < oldest_tick:
                oldest_store, oldest_key, oldest_tick = store, key, tick
        if oldest_store is None:
            return
        oldest_store._evict_one(oldest_key)


def _enforce_global() -> None:
    """Evict globally-LRU-first until the shared budget holds."""
    if _budget_bytes is not None:
        _evict_down_to(_live_stores(), _budget_bytes)


def set_cache_bytes(total: Optional[int]) -> None:
    """Set (or, with ``None``, lift) the shared byte budget over all stores.

    Takes effect immediately: excess entries are evicted globally-LRU-first.
    """
    global _budget_bytes
    if total is not None and total < 0:
        raise ConfigError(f"cache byte budget must be >= 0, got {total}")
    _budget_bytes = int(total) if total is not None else None
    _enforce_global()


def cache_bytes() -> Optional[int]:
    """The shared byte budget (``None`` = unlimited)."""
    return _budget_bytes


def evict_fraction(fraction: float = 0.5) -> int:
    """Evict globally-LRU entries until ``fraction`` of current cache bytes
    are released; returns the bytes freed.  This is the callback the memory
    watermark installs — under RSS pressure the caches shrink first.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    stores = _live_stores()
    before = sum(s.total_bytes for s in stores)
    _evict_down_to(stores, int(before * (1.0 - fraction)))
    return before - sum(s.total_bytes for s in stores)


def cache_report() -> dict:
    """Per-store stats plus the shared totals (for tests and diagnostics)."""
    stores = {store.name: store.stats() for store in _live_stores()}
    return {
        "budget_bytes": _budget_bytes,
        "total_bytes": sum(s["bytes"] for s in stores.values()),
        "stores": stores,
    }


def clear_all_stores() -> None:
    """Drop every entry in every registered store (tests/benchmarks)."""
    for store in list(_live_stores()):
        store.clear()
