"""Process-wide cache for derived view operators (kNN / k-hop graphs).

GNAT rebuilds its feature view (an O(n²) cosine top-k) and topology view
(k-hop sparse powers) on *every* fit, and a Table IV-style sweep fits GNAT
for every (attacker, rate, seed) cell — but structure-only attacks never
touch the features, and many cells share the same poisoned adjacency.  This
module memoizes those derived operators the same way :class:`repro.nn.SGC`
memoizes ``A_n^k X``: keyed purely by *content fingerprint* (blake2b of the
underlying arrays), so a mutated feature matrix or adjacency can never hit
a stale entry — mutation changes the key, which IS the invalidation.

The cache is deliberately ambient (module-level, no lock — trials run one
at a time, in the thread that calls them):

* every in-process trial of a ``--jobs 1`` sweep shares one cache;
* each ``--jobs N`` pool worker owns a private copy in its own process and
  warms it with its first trial — no cross-process plumbing needed, and
  because every entry is content-addressed and every build deterministic,
  hits and misses produce byte-identical operators.  Journals therefore
  stay bit-identical across ``--jobs 1`` / ``--jobs N`` and across
  cold/warm caches.

Storage lives in a :class:`~repro.utils.keystore.KeyedArtifactStore`, so
entries are byte-accounted, LRU-evicted past the entry capacity, and count
against the process-wide ``--cache-bytes`` budget shared with the SGC
propagation memo and the runner's poison cache.

Entries are returned as *copies* so callers can mutate their operator (GNAT
normalizes views in place of fresh objects) without poisoning the cache.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..utils.keystore import KeyedArtifactStore

__all__ = [
    "cached_operator",
    "array_fingerprint",
    "csr_fingerprint",
    "view_cache_stats",
    "clear_view_cache",
]

_DEFAULT_CAPACITY = 32

_store = KeyedArtifactStore("view-operators", max_entries=_DEFAULT_CAPACITY)


def array_fingerprint(array: np.ndarray) -> tuple:
    """Content fingerprint of a dense array (shape, dtype, blake2b)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(array.tobytes())
    return (array.shape, str(array.dtype), digest.digest())


def csr_fingerprint(matrix: sp.spmatrix) -> tuple:
    """Content fingerprint of a sparse matrix (structure and values)."""
    matrix = matrix.tocsr()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(matrix.indptr.tobytes())
    digest.update(matrix.indices.tobytes())
    digest.update(matrix.data.tobytes())
    return (matrix.shape, matrix.nnz, digest.digest())


def cached_operator(
    kind: str, fingerprint: tuple, build: Callable[[], sp.spmatrix]
) -> sp.csr_matrix:
    """Return ``build()`` memoized under ``(kind, fingerprint)``.

    ``build`` must be deterministic in the fingerprinted inputs; the result
    is stored once and copied out on every hit, so callers own their matrix.
    """
    key = (kind, fingerprint)
    cached = _store.get(key)
    if cached is not None:
        return cached.copy()
    value = build().tocsr()
    _store.put(key, value)
    return value.copy()


def view_cache_stats() -> dict:
    """Hit/miss/eviction counters, entry count, and byte footprint."""
    stats = _store.stats()
    return {
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evictions": stats["evictions"],
        "entries": stats["entries"],
        "capacity": stats["max_entries"],
        "bytes": stats["bytes"],
    }


def clear_view_cache() -> None:
    """Drop every entry and reset the counters (used by tests/benchmarks)."""
    _store.clear()

