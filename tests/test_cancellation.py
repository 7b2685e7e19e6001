"""Unit tests for the cooperative-cancellation and snapshot primitives.

Covers :mod:`repro.utils.cancellation` (tokens, deadlines, shutdown flag,
beacons, scopes, poll sites) and :mod:`repro.utils.snapshots` (unit
ordinals, resume handoff, throttling, corruption handling) in isolation —
the integration with attackers/trainers lives in ``test_preemption.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import io
from repro.errors import IntegrityWarning
from repro.utils import cancellation, faults, snapshots
from repro.utils.cancellation import (
    CAUSE_DEADLINE,
    CAUSE_SHUTDOWN,
    Beacon,
    CancelledError,
    CancelToken,
    checkpoint,
    read_beacon,
    request_shutdown,
    reset_shutdown,
    shutdown_requested,
    trial_scope,
)
from repro.utils.faults import FaultInjector, FaultSpec
from repro.utils.snapshots import TrialSnapshotter

SRC = Path(__file__).resolve().parents[1] / "src"


def counting_clock(step=1.0, start=0.0):
    state = {"t": start}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def unit_and_step(path):
    """The ``(unit, step)`` progress recorded in a snapshot archive."""
    _, state = io.load_snapshot(path)
    return state["unit"], state["step"]


@pytest.fixture(autouse=True)
def clean_shutdown_flag():
    reset_shutdown()
    yield
    reset_shutdown()


class TestCancelToken:
    def test_fresh_token_not_cancelled(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.cause is None
        token.raise_if_cancelled("site")  # no-op

    def test_first_cause_wins(self):
        token = CancelToken()
        assert token.cancel(CAUSE_SHUTDOWN, "first")
        assert not token.cancel(CAUSE_DEADLINE, "second")
        assert token.cause == CAUSE_SHUTDOWN
        with pytest.raises(CancelledError) as info:
            token.raise_if_cancelled("loop")
        assert info.value.cause == CAUSE_SHUTDOWN
        assert info.value.site == "loop"

    def test_deadline_expires_on_injected_clock(self):
        token = CancelToken(deadline_seconds=3, clock=counting_clock())
        token.raise_if_cancelled("a")  # t=2 on check (t=1 at construction)
        with pytest.raises(CancelledError) as info:
            while True:
                token.raise_if_cancelled("b")
        assert info.value.cause == CAUSE_DEADLINE
        assert token.cancelled

    def test_cancelled_error_is_not_an_exception(self):
        # ``except Exception`` boundaries (the trial supervisor, defensive
        # library code) must never absorb a cancellation.
        assert not issubclass(CancelledError, Exception)
        assert issubclass(CancelledError, BaseException)


class TestShutdownFlag:
    def test_request_is_idempotent_and_observable(self):
        assert not shutdown_requested()
        assert request_shutdown("operator")
        assert not request_shutdown("again")  # second request reports False
        assert shutdown_requested()
        reset_shutdown()
        assert not shutdown_requested()

    def test_checkpoint_raises_on_global_shutdown(self):
        request_shutdown("test")
        with pytest.raises(CancelledError) as info:
            checkpoint("anywhere")
        assert info.value.cause == CAUSE_SHUTDOWN

    def test_checkpoint_without_scope_is_cheap_noop(self):
        checkpoint("free-running")  # no scope, no shutdown: returns

    def test_signal_handler_cancels_token_mid_poll(self):
        # A SIGTERM can land while a poll is evaluating a token's cause, and
        # the handler then cancels that same token.  The token's clock
        # raises the signal on its second call (the first is __init__), so
        # the handler runs inside ``token.cause``.  A token that locks its
        # state hangs here until the timeout kills the child.
        script = textwrap.dedent(
            """
            import os, signal
            from repro.utils.cancellation import CAUSE_SHUTDOWN, CancelToken

            calls = []

            def clock():
                calls.append(None)
                if len(calls) == 2:
                    os.kill(os.getpid(), signal.SIGTERM)
                return 0.0

            token = CancelToken(deadline_seconds=60.0, clock=clock)
            signal.signal(
                signal.SIGTERM,
                lambda signum, frame: token.cancel(CAUSE_SHUTDOWN, "SIGTERM"),
            )
            print(token.cause)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == CAUSE_SHUTDOWN


class TestScopes:
    def test_checkpoint_polls_scope_token(self):
        token = CancelToken()
        token.cancel(CAUSE_SHUTDOWN, "stop it")
        with trial_scope(token=token):
            with pytest.raises(CancelledError) as info:
                checkpoint("loop")
        assert info.value.cause == CAUSE_SHUTDOWN

    def test_scope_restored_after_exit(self):
        token = CancelToken()
        with trial_scope(token=token):
            assert cancellation.current_token() is token
        assert cancellation.current_token() is None

    def test_inner_scope_inherits_unspecified_fields(self, tmp_path):
        sink = TrialSnapshotter(tmp_path / "snap.npz")
        outer = CancelToken()
        inner = CancelToken()
        with trial_scope(token=outer, sink=sink):
            with trial_scope(token=inner):
                assert cancellation.current_token() is inner
                assert cancellation.current_sink() is sink


class TestHangFault:
    """A ``hang`` fault returns as soon as its trial is cancelled, without
    a heartbeat: it must still look hung to the heartbeat monitor."""

    HANG = [FaultSpec(site="slow", action="hang", seconds=30.0)]

    @pytest.fixture(autouse=True)
    def no_sleep(self, monkeypatch):
        # Already cancelled, the hang must return before its first sleep.
        def sleep(seconds):
            raise AssertionError(f"hang slept {seconds}s after cancellation")

        monkeypatch.setattr(faults.time, "sleep", sleep)

    def test_cancelled_ambient_token_cuts_the_hang(self, tmp_path):
        token = CancelToken()
        token.cancel(CAUSE_SHUTDOWN, "stop")
        beacon = Beacon(tmp_path / "beacon.json", task_index=0)
        with trial_scope(token=token, beacon=beacon):
            FaultInjector(self.HANG).perturb("slow")
        assert not (tmp_path / "beacon.json").exists()

    def test_shutdown_request_cuts_the_hang(self, tmp_path):
        request_shutdown("operator")
        beacon = Beacon(tmp_path / "beacon.json", task_index=0)
        with trial_scope(beacon=beacon):
            FaultInjector(self.HANG).perturb("slow")
        assert not (tmp_path / "beacon.json").exists()


class TestBeacon:
    def test_beat_writes_readable_record(self, tmp_path):
        path = tmp_path / "beacon.json"
        beacon = Beacon(path, task_index=7, incarnation=2, interval=1.0,
                        clock=counting_clock())
        beacon.beat("site-a")
        record = read_beacon(path)
        assert record is not None
        assert record["task"] == 7
        assert record["incarnation"] == 2
        assert record["count"] == 1
        assert record["site"] == "site-a"
        assert record["pid"] > 0

    def test_beats_throttled_below_quarter_interval(self, tmp_path):
        path = tmp_path / "beacon.json"
        # Clock advances 0.1 per call; interval 1.0 → flush every >= 0.25.
        beacon = Beacon(path, task_index=0, interval=1.0,
                        clock=counting_clock(step=0.1))
        for _ in range(20):
            beacon.beat("s")
        record = read_beacon(path)
        # 20 beats over 2.0 clock-seconds flush at most every interval/4
        # (0.25s) — far fewer writes than beats, but strictly monotone.
        assert 1 <= record["count"] < 20

    def test_read_beacon_missing_or_corrupt_returns_none(self, tmp_path):
        assert read_beacon(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_beacon(bad) is None

    def test_checkpoint_beats_the_scope_beacon(self, tmp_path):
        path = tmp_path / "beacon.json"
        beacon = Beacon(path, task_index=3, interval=0.0, clock=counting_clock())
        with trial_scope(beacon=beacon):
            checkpoint("epoch-loop")
        record = read_beacon(path)
        assert record is not None and record["site"] == "epoch-loop"


class TestTrialSnapshotter:
    def _builder(self, step):
        return lambda: (
            {"state": np.arange(step, dtype=np.int64)},
            {"step": step, "extra": float(step) / 3.0},
        )

    def test_round_trip_restores_arrays_and_meta(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        unit = sink.begin_unit("fit")
        unit.offer(self._builder(5), final=True)

        resumed = TrialSnapshotter(path, interval=0)
        assert resumed.start_attempt(3) == 0  # recorded attempt wins
        assert resumed.resuming()
        again = resumed.begin_unit("fit")
        arrays, meta = again.resume_state()
        np.testing.assert_array_equal(arrays["state"], np.arange(5))
        assert meta["step"] == 5
        assert meta["extra"] == 5.0 / 3.0  # JSON float repr round-trips

    def test_unit_ordinals_mute_and_match(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        sink.begin_unit("attack")  # ordinal 0, completes
        second = sink.begin_unit("fit")  # ordinal 1, interrupted here
        second.offer(self._builder(2), final=True)

        resumed = TrialSnapshotter(path, interval=0)
        resumed.start_attempt(0)
        first = resumed.begin_unit("attack")
        assert first.resume_state() is None
        # A muted (already-completed) unit must not clobber the snapshot.
        first.offer(self._builder(99), final=True)
        target = resumed.begin_unit("fit")
        arrays, meta = target.resume_state()
        assert meta["step"] == 2

    def test_kind_mismatch_restarts_fresh(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        sink.begin_unit("attack:GRBCD").offer(self._builder(4), final=True)

        resumed = TrialSnapshotter(path, interval=0)
        resumed.start_attempt(0)
        # Degraded retry changed the trial structure: same ordinal,
        # different kind → fresh start, not mismatched state.
        unit = resumed.begin_unit("attack:PRBCD")
        assert unit.resume_state() is None

    def test_offers_inside_first_interval_write_nothing(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=10.0, clock=counting_clock())
        assert sink.start_attempt(0) == 0  # clock 1: the window opens here
        unit = sink.begin_unit("fit")
        for step in range(1, 10):  # clock 2..10: all inside the window
            unit.offer(self._builder(step))
        assert not path.exists()

    def test_first_write_one_interval_into_the_attempt(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=3.0, clock=counting_clock())
        sink.start_attempt(0)  # clock 1
        unit = sink.begin_unit("fit")
        unit.offer(self._builder(1))  # clock 2: throttled
        unit.offer(self._builder(2))  # clock 3: throttled
        assert not path.exists()
        unit.offer(self._builder(3))  # clock 4: one interval in, writes
        assert unit_and_step(path) == (0, 3)
        unit.offer(self._builder(4))  # clock 5: inside the next window
        assert unit_and_step(path) == (0, 3)

    def test_reseeded_retry_writes_at_first_offer(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=10.0, clock=counting_clock())
        assert sink.start_attempt(1) == 1
        unit = sink.begin_unit("fit")
        unit.offer(self._builder(1))  # pins the retry's attempt at once
        unit.offer(self._builder(2))  # then the throttle applies
        assert unit_and_step(path) == (0, 1)
        _, state = io.load_snapshot(path)
        assert state["attempt"] == 1

    def test_second_attempt_rearms_the_window(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=3.0, clock=counting_clock())
        sink.start_attempt(0)  # clock 1
        unit = sink.begin_unit("fit")
        unit.offer(self._builder(1))  # clock 2: throttled
        unit.offer(self._builder(2))  # clock 3: throttled
        sink.start_attempt(0)  # clock 4: the window restarts
        unit = sink.begin_unit("fit")
        unit.offer(self._builder(3))  # clock 5: would write without re-arming
        unit.offer(self._builder(4))  # clock 6: throttled
        assert not path.exists()
        unit.offer(self._builder(5))  # clock 7: one interval after clock 4
        assert unit_and_step(path) == (0, 5)

    def test_final_offer_ignores_throttle(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=10.0, clock=counting_clock())
        sink.start_attempt(0)
        unit = sink.begin_unit("fit")
        unit.offer(self._builder(1))
        unit.offer(self._builder(2), final=True)
        resumed = TrialSnapshotter(path, interval=0)
        resumed.start_attempt(0)
        _, meta = resumed.begin_unit("fit").resume_state()
        assert meta["step"] == 2

    def test_discard_removes_archive(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        sink.begin_unit("fit").offer(self._builder(1), final=True)
        assert path.exists()
        sink.discard()
        assert not path.exists()
        sink.discard()  # idempotent

    def test_corrupt_snapshot_discarded_with_warning(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        sink.begin_unit("fit").offer(self._builder(1), final=True)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        resumed = TrialSnapshotter(path, interval=0)
        with pytest.warns(IntegrityWarning):
            assert resumed.start_attempt(4) == 4  # falls back to default
        assert not resumed.resuming()
        assert not path.exists()

    def test_snapshot_progress(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        sink.begin_unit("attack")
        sink.begin_unit("fit").offer(self._builder(6), final=True)
        assert unit_and_step(path) == (1, 6)

    def test_checkpoint_offers_to_scope_unit(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=0)
        sink.start_attempt(0)
        with trial_scope(sink=sink):
            unit = snapshots.begin_unit("fit")
            checkpoint("trainer", unit=unit, state=self._builder(3))
        assert unit_and_step(path) == (0, 3)

    def test_checkpoint_final_snapshot_on_cancellation(self, tmp_path):
        path = tmp_path / "snap.npz"
        sink = TrialSnapshotter(path, interval=1e9, clock=counting_clock())
        sink.start_attempt(0)
        token = CancelToken()
        token.cancel(CAUSE_SHUTDOWN, "stop")
        with trial_scope(token=token, sink=sink):
            unit = snapshots.begin_unit("fit")
            with pytest.raises(CancelledError):
                checkpoint("trainer", unit=unit, state=self._builder(8))
        # Despite the huge throttle interval, the cancellation forced a
        # final write before raising.
        assert unit_and_step(path) == (0, 8)


class TestPackHelpers:
    def test_pack_unpack_round_trip_in_order(self):
        arrays = {}
        items = [np.arange(3), np.eye(2), np.asarray([7.5])]
        snapshots.pack_list(arrays, "w_", items)
        out = snapshots.unpack_list(arrays, "w_")
        assert len(out) == 3
        for original, restored in zip(items, out):
            np.testing.assert_array_equal(np.asarray(original), restored)

    def test_generator_state_round_trip_is_json_safe(self):
        rng = np.random.default_rng(123)
        rng.random(17)
        state = snapshots.generator_state(rng)
        json.loads(json.dumps(state))  # JSON-serializable end to end
        clone = np.random.default_rng(0)
        snapshots.restore_generator(clone, json.loads(json.dumps(state)))
        np.testing.assert_array_equal(rng.random(5), clone.random(5))
