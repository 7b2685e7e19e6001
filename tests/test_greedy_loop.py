"""The shared greedy loop: one poll per step for every greedy attacker,
and GRBCD's exhaustive→sampled fallback when a block runs out of memory.

Every greedy attacker — PEEGA, GRBCD, Metattack, GF-Attack, Nettack —
runs through :class:`repro.attacks.greedy.GreedyRun`, so each one beats
the trial's heartbeat and honours cancellation at its own poll site (and
resumes bit-identically: ``test_preemption.py::TestBitIdenticalResume``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import io
from repro.attacks import AttackBudget, GFAttack, GRBCD, Metattack, Nettack
from repro.core import PEEGA
from repro.datasets import load_dataset
from repro.errors import DegradedWarning
from repro.utils import faults
from repro.utils.cancellation import (
    CAUSE_SHUTDOWN,
    Beacon,
    CancelledError,
    CancelToken,
    trial_scope,
)
from repro.utils.faults import FaultInjector
from repro.utils.snapshots import TrialSnapshotter


def counting_clock():
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


class CountingBeacon(Beacon):
    """A heartbeat beacon that counts beats per site instead of writing."""

    def __init__(self):
        super().__init__("unused", task_index=0, interval=0.0)
        self.sites: list[str] = []

    def beat(self, site: str = "") -> None:
        self.sites.append(site)


def _target(graph):
    return int(np.argmax(graph.degrees()))


# (id, poll site, attack(graph) callable)
ATTACKERS = [
    (
        "peega",
        "peega",
        lambda g: PEEGA(seed=0).attack(g, AttackBudget(total=6.0)),
    ),
    (
        "grbcd-exhaustive",
        "rbcd",
        lambda g: GRBCD(p=1, block_size=10**9, flips_per_step=2, seed=0).attack(
            g, AttackBudget(total=6.0)
        ),
    ),
    (
        "grbcd-sampled",
        "rbcd",
        lambda g: GRBCD(block_size=300, seed=3).attack(g, AttackBudget(total=6.0)),
    ),
    (
        "metattack",
        "metattack",
        lambda g: Metattack(inner_steps=3, attack_features=True, seed=0).attack(
            g, AttackBudget(total=5.0)
        ),
    ),
    (
        "gf-attack",
        "gf_attack",
        lambda g: GFAttack(candidate_pool=200, exact_candidates=2, seed=0).attack(
            g, AttackBudget(total=5.0)
        ),
    ),
    (
        "nettack",
        "nettack",
        lambda g: Nettack(target=_target(g), influencers=1, seed=0).attack(
            g, AttackBudget(total=4.0)
        ),
    ),
]


def _outputs(result):
    return (
        [(f.u, f.v) for f in result.edge_flips],
        [(f.node, f.dim) for f in result.feature_flips],
        [float(x).hex() for x in result.objective_trace],
        result.poisoned.adjacency.toarray().tobytes(),
        np.asarray(result.poisoned.features).tobytes(),
    )


@pytest.mark.parametrize(
    "site,attack", [a[1:] for a in ATTACKERS], ids=[a[0] for a in ATTACKERS]
)
class TestEveryGreedyAttackerPolls:
    def test_beats_once_per_step(self, small_cora, site, attack):
        beacon = CountingBeacon()
        with trial_scope(beacon=beacon):
            result = attack(small_cora)
        assert result.objective_trace
        assert beacon.sites.count(site) >= len(result.objective_trace)

    def test_cancelled_token_stops_at_its_site(self, small_cora, site, attack):
        token = CancelToken()
        token.cancel(CAUSE_SHUTDOWN)
        with trial_scope(token=token), pytest.raises(CancelledError) as caught:
            attack(small_cora)
        assert caught.value.site == site


class TestExhaustiveFallback:
    """``rbcd:oom`` on a block covering all n(n−1)/2 pairs: GRBCD halves the
    block, drops to sampled blocks and still spends the whole budget."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("cora", scale=0.04, seed=0)

    def _attack(self, graph):
        n = graph.num_nodes
        attacker = GRBCD(
            lam=0.0, p=2, block_size=n * (n - 1) // 2, flips_per_step=2, seed=0
        )
        return attacker, attacker.attack(graph, AttackBudget(total=8.0))

    def _faulted(self, graph):
        injector = FaultInjector(FaultInjector.parse("rbcd:oom:at=2"))
        with faults.active(injector), pytest.warns(DegradedWarning):
            return self._attack(graph)

    def test_falls_back_and_spends_the_budget(self, graph):
        n = graph.num_nodes
        _, clean = self._attack(graph)
        attacker, degraded = self._faulted(graph)
        assert attacker._active_block < n * (n - 1) // 2
        assert len(degraded.edge_flips) == 8
        # Polls 0 and 1 ran exhaustively (two flips each) before the fault.
        assert degraded.edge_flips[:4] == clean.edge_flips[:4]
        assert len(degraded.objective_trace) == len(clean.objective_trace) == 4

    def test_fallback_is_deterministic(self, graph):
        assert _outputs(self._faulted(graph)[1]) == _outputs(self._faulted(graph)[1])

    def test_snapshot_after_fallback_resumes_bit_identically(self, tmp_path, graph):
        reference = self._faulted(graph)[1]
        # Cancel at the 4th checkpoint: poll 2 faulted, poll 3 retried step 2
        # on a sampled block, so the final snapshot holds the degraded state.
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        token = CancelToken(deadline_seconds=4, clock=counting_clock())
        injector = FaultInjector(FaultInjector.parse("rbcd:oom:at=2"))
        with faults.active(injector), trial_scope(token=token, sink=sink):
            with pytest.warns(DegradedWarning), pytest.raises(CancelledError):
                self._attack(graph)
        assert io.load_snapshot(path)[1]["data"]["exhaustive"] is False

        resumed_sink = TrialSnapshotter(path, interval=0)
        resumed_sink.start_attempt(0)
        with trial_scope(token=CancelToken(), sink=resumed_sink):
            resumed = self._attack(graph)[1]
        assert _outputs(resumed) == _outputs(reference)
