"""Shared utilities: seeding, timing, fault injection, resource
governance, capacity-bounded artifact caching."""

from . import faults, keystore, resources
from .faults import FaultInjector, FaultSpec, InjectedFault, InjectedKill
from .keystore import KeyedArtifactStore, estimate_nbytes, set_cache_bytes
from .resources import (
    MemoryBudget,
    budget_check,
    cpu_count,
    free_disk_bytes,
    parse_bytes,
    require_free_disk,
    rss_bytes,
)
from .rng import ensure_rng, spawn_rngs
from .timer import Timer

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "faults",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedKill",
    "keystore",
    "KeyedArtifactStore",
    "estimate_nbytes",
    "set_cache_bytes",
    "resources",
    "MemoryBudget",
    "budget_check",
    "cpu_count",
    "free_disk_bytes",
    "parse_bytes",
    "require_free_disk",
    "rss_bytes",
]
