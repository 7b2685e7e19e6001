"""The greedy flip loop shared by PEEGA, GRBCD, Metattack, GF-Attack and Nettack.

Every greedy attacker repeats Alg. 1's three moves until the budget is
spent: score the candidates, record the objective, commit the best flips
that still fit.  Only the scoring differs, so an attacker supplies a *step*
— a callable that returns ``None`` to stop, or ``(candidates, loss)``:
ranked ``(kind, u, v, cost)`` candidates, best first, and the objective at
the current state.  :class:`GreedyRun` does the rest: it appends ``loss``
to the trace, commits the first ``flips_per_step`` candidates that fit
(stopping when none does), keeps the poisoned buffers and the propagation
cache in step, and polls once per step (fault injection, snapshot
offer, cancellation).

A snapshot holds the interleaved flip log, the objective trace, the budget
spent and the attacker's RNG state.  On resume, whatever the attacker drew
from its seed before the loop is redrawn, the flips are replayed through
the live updates (the cache receives them as one batch — ``A_n`` is a pure
function of the integral degrees, so this is bit-exact), and the RNG state
is restored.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..graph import EdgeFlip, FeatureFlip, Graph, apply_perturbations
from ..utils import cancellation, faults, snapshots
from .base import AttackBudget, Attacker, AttackResult

__all__ = ["GreedyRun"]

#: One ranked candidate: ``(kind, u, v, cost)`` with kind "edge" or "feature".
Candidate = tuple[str, int, int, float]
Step = Callable[["GreedyRun"], Optional[tuple[list[Candidate], float]]]

_KINDS = {"edge": 0, "feature": 1}


class GreedyRun:
    """One greedy attack: its flips, its poisoned buffers and its loop.

    Optional state, kept in step with every committed flip: the
    incremental engine's ``cache``; a ``selector``
    (:class:`~repro.core.selection.FlipSelector`) whose pairs get blocked;
    ``features`` (:class:`~repro.core.selection.FeatureScores`, which then
    owns ``X̂``) or a private ``X̂`` buffer ``x``; with ``dense``, the dense
    ``Â`` (:attr:`adj`); with ``directions``, its flip directions
    ``1 − 2Â`` (:attr:`direction`, Def. 4).  ``meta()`` adds fields to each
    snapshot and ``restore(meta)`` reinstates them on resume.
    """

    def __init__(
        self,
        attacker: Attacker,
        graph: Graph,
        budget: AttackBudget,
        site: str,
        *,
        flips_per_step: int = 1,
        min_cost: float = 1.0,
        cache=None,
        selector=None,
        features=None,
        x: Optional[np.ndarray] = None,
        dense: bool = False,
        directions: bool = False,
        meta: Optional[Callable[[], dict]] = None,
        restore: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.attacker = attacker
        self.graph = graph
        self.budget = budget
        self.site = site
        self.flips_per_step = int(flips_per_step)
        self.min_cost = float(min_cost)
        self.cache = cache
        self.selector = selector
        self.features = features
        self.x = features.values if features is not None else x
        self.adj = graph.dense_adjacency() if dense else None
        self.direction = None
        if directions:
            base = self.adj if dense else graph.dense_adjacency()
            self.direction = 1.0 - 2.0 * base
        self._meta = meta
        self._restore = restore
        self.result = AttackResult(original=graph, poisoned=graph, budget=budget)
        self.spent = 0.0
        self.log: list[tuple[int, int, int]] = []
        self.unit = snapshots.begin_unit(f"attack:{attacker.name}")

    def fits(self, cost: float) -> bool:
        """Whether a flip of ``cost`` still fits the budget."""
        return self.spent + cost <= self.budget.total + 1e-12

    def flipped(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the committed flips of ``kind``."""
        uv = [(u, v) for k, u, v in self.log if k == _KINDS[kind]]
        uv = np.asarray(uv, dtype=np.int64).reshape(-1, 2)
        return uv[:, 0], uv[:, 1]

    def poisoned(self) -> Graph:
        """The original graph with every committed flip applied."""
        flips = self.result.edge_flips + self.result.feature_flips
        return apply_perturbations(self.graph, flips) if flips else self.graph

    def _flip(self, kind: int, u: int, v: int):
        """Apply one flip to every buffer but the cache, and log it."""
        u, v = int(u), int(v)
        self.log.append((kind, u, v))
        if kind == 1:
            if self.features is not None:
                self.features.flip(u, v)
            elif self.x is not None:
                self.x[u, v] = 1.0 - self.x[u, v]
            self.result.feature_flips.append(FeatureFlip(u, v))
            return self.result.feature_flips[-1]
        if self.adj is not None:
            self.adj[u, v] = self.adj[v, u] = 0.0 if self.adj[u, v] else 1.0
        if self.direction is not None:
            self.direction[u, v] = self.direction[v, u] = -self.direction[u, v]
        if self.selector is not None:
            self.selector.block_edge(u, v)
        self.result.edge_flips.append(EdgeFlip(u, v))
        return self.result.edge_flips[-1]

    def commit(self, candidates: list[Candidate]) -> bool:
        """Apply the candidates that fit the budget; False when none did."""
        flips = []
        for kind, u, v, cost in candidates:
            if self.fits(cost):
                flips.append(self._flip(_KINDS[kind], u, v))
                self.spent += cost
        # Several flips share one CSR merge (bit-identical to per-flip
        # application); a lone flip keeps the single-flip entry point, which
        # the e2e benchmark's traced ``peega`` run expects to fire.
        if self.cache is not None and len(flips) == 1:
            self.cache.apply(flips[0])
        elif self.cache is not None and flips:
            self.cache.apply_batch(flips)
        return bool(flips)

    def _state(self) -> tuple[dict, dict]:
        log = np.asarray(self.log, dtype=np.int64).reshape(-1, 3)
        trace = np.asarray(self.result.objective_trace, dtype=np.float64)
        meta = {
            "step": len(trace),
            "spent": self.spent,
            "rng": snapshots.generator_state(self.attacker._rng),
            **(self._meta() if self._meta is not None else {}),
        }
        arrays = {
            "flip_kinds": log[:, 0].astype(np.int8),
            "flip_uv": log[:, 1:],
            "objective_trace": trace,
        }
        return arrays, meta

    def _resume(self) -> None:
        resumed = self.unit.resume_state()
        if resumed is None:
            return
        arrays, meta = resumed
        uv = arrays["flip_uv"]
        # Snapshots written before the loop was shared hold edge flips only.
        kinds = arrays.get("flip_kinds", np.zeros(len(uv), dtype=np.int8))
        replayed = [self._flip(int(k), u, v) for k, (u, v) in zip(kinds, uv)]
        if self.cache is not None:
            self.cache.apply_batch(replayed)
        self.result.objective_trace = [float(x) for x in arrays["objective_trace"]]
        self.spent = float(meta["spent"])
        if self._restore is not None:
            self._restore(meta)
        snapshots.restore_generator(self.attacker._rng, meta["rng"])

    def run(
        self,
        step: Step,
        on_memory_error: Optional[Callable[[BaseException], bool]] = None,
    ) -> AttackResult:
        """Resume if there is a snapshot, then step until the budget is spent.

        A ``MemoryError`` while polling or scoring goes to
        ``on_memory_error``: when it returns True the step is retried from
        the poll (GRBCD halves its block this way), otherwise it propagates.
        """
        self._resume()
        while self.fits(self.min_cost):
            context = {
                "attacker": self.attacker.name,
                "iteration": len(self.result.objective_trace),
            }
            try:
                faults.perturb(self.site, **context)
                cancellation.checkpoint(
                    self.site, unit=self.unit, state=self._state, **context
                )
                outcome = step(self)
            except MemoryError as error:
                if on_memory_error is None or not on_memory_error(error):
                    raise
                continue
            if outcome is None:
                break
            candidates, loss = outcome
            self.result.objective_trace.append(loss)
            if not self.commit(candidates[: self.flips_per_step]):
                break
        self.result.poisoned = self.poisoned()
        return self.result
