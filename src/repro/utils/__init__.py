"""Shared utilities: seeding, timing, fault injection, thread and
resource governance, capacity-bounded artifact caching."""

from . import blas, faults, keystore, resources
from .blas import blas_thread_budget, cpu_count, limit_blas_threads, plan_worker_threads
from .faults import FaultInjector, FaultSpec, InjectedFault, InjectedKill
from .keystore import KeyedArtifactStore, estimate_nbytes, set_cache_bytes
from .resources import (
    MemoryBudget,
    budget_check,
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
    "blas",
    "blas_thread_budget",
    "cpu_count",
    "limit_blas_threads",
    "plan_worker_threads",
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
    "free_disk_bytes",
    "parse_bytes",
    "require_free_disk",
    "rss_bytes",
]
