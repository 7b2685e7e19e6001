"""Deterministic random-number helpers.

Every stochastic component in the library (dataset generation, weight init,
dropout, attack tie-breaking) takes either an integer seed or a
``numpy.random.Generator``; these helpers normalize between the two so runs
are reproducible end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

__all__ = ["ensure_rng", "spawn_rngs"]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(seed)
    return [np.random.default_rng(s) for s in parent.integers(0, 2**63 - 1, size=count)]
